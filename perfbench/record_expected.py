"""Store the default-seed answers that run.py compares against.

    python3 perfbench/record_expected.py

Run from the repository root after changing a workload. For each workload
it builds the seed-0 queries, runs them once, and refuses to write unless
every answer already passes the gate (planted or oracle truth plus
witness checks). The files hold each call's answer (lob, iob, kpath) or
analyze outcome, and a digest of the instance texts, so a change to the
generators shows up as a failure instead of a silent workload shift.
"""

import json
import os
import sys

import checks
import run

DEFAULT_SEED = 0


def record(ob, workload):
    queries, _ = run.setup(ob, workload, DEFAULT_SEED)
    results = run.run_pass(ob, queries)["results"]
    problems, _ = run.check_results(zip(queries, results), None)
    if problems:
        raise SystemExit(f"error: {workload} fails the gate: {problems[:5]}")
    stored = {str(query["id"]): [checks.answer_of(query, r) for r in rs]
              for query, rs in zip(queries, results)}
    path = os.path.join(run.HERE, "expected", f"{workload}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"seed": DEFAULT_SEED, "digest": run.digest(queries),
                   "queries": stored}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"{workload}: {len(queries)} queries -> {os.path.relpath(path)}")


def main():
    ob = run.load_package()
    for workload in sorted(run.workloads.WORKLOADS):
        record(ob, workload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
