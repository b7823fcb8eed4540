"""Time the committed ladder with ``outbranching bench`` and record the result.

    python bench/record.py --src src --out bench/BENCH_<n>.json [--runs 5]

Each row of each run is one ``python -m outbranching.cli bench --suite
<that row alone> --format json`` in a fresh interpreter that imports the
package from ``--src``.  Several ``--src``/``--out`` pairs may be given:
each row then runs under every source back to back, in an order that
alternates from row to row and run to run, so a parent and a change are
timed seconds apart under the same machine drift.  The file records the
git commit of each source tree and whether that tree has uncommitted
changes; per row it holds the answer, whether it matches the suite's
recorded truth, and the median, min, max and spread of ``time_ms`` over
the runs.  The exit code is 1 when any answer differs from its truth or
between runs.
"""

import argparse
import datetime
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SUITE = HERE / "ladder.json"


def sha256(paths):
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.read_bytes())
    return digest.hexdigest()


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def machine():
    return {"platform": platform.platform(), "cpu": cpu_model(),
            "cpus": os.cpu_count(), "python": platform.python_version()}


def git(src, *argv):
    out = subprocess.run(["git", *argv], cwd=src, capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else None


def run_row(src, suite):
    """Time the one-row suite file ``suite`` under ``src``; its bench row."""
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-m", "outbranching.cli", "bench",
                          "--suite", str(suite), "--format", "json"],
                         env=env, capture_output=True, text=True, check=True)
    (row,) = json.loads(out.stdout)
    return row


def summarize(entries, runs):
    rows, bad = [], 0
    for index, entry in enumerate(entries):
        answers = {run[index]["answer"] for run in runs}
        times = [run[index]["time_ms"] for run in runs]
        answer = answers.pop() if len(answers) == 1 else None
        ok = answer is not None and answer == entry["truth"]
        bad += not ok
        rows.append({
            "index": index, "spec": entry["spec"], "problem": entry["problem"],
            "k": entry["k"], "root": entry.get("root"), "b": entry.get("b"),
            "answer": answer, "truth": entry["truth"], "matches_truth": ok,
            "median_ms": round(statistics.median(times), 3),
            "min_ms": min(times), "max_ms": max(times),
            "spread_ms": round(max(times) - min(times), 3), "times_ms": times,
        })
    return rows, bad


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", action="append", required=True,
                        help="package source directory (repeatable)")
    parser.add_argument("--out", action="append", required=True,
                        help="output file, one per --src")
    parser.add_argument("--runs", type=int, default=5)
    args = parser.parse_args(argv)
    if len(args.out) != len(args.src):
        parser.error("give one --out per --src")
    if args.runs < 3:
        parser.error("--runs must be at least 3")
    entries = json.loads(SUITE.read_text())
    srcs = [Path(src).resolve() for src in args.src]
    # runs[i][r][index] is row index of run r under srcs[i]
    runs = [[[] for _ in range(args.runs)] for _ in srcs]
    with tempfile.TemporaryDirectory() as tmp:
        suite = Path(tmp) / "row.json"
        for r in range(args.runs):
            for index, entry in enumerate(entries):
                suite.write_text(json.dumps([entry]))
                order = list(range(len(srcs)))
                if (r + index) % 2:
                    order.reverse()
                for i in order:
                    runs[i][r].append(run_row(srcs[i], suite))
    status = 0
    for i, src in enumerate(srcs):
        rows, bad = summarize(entries, runs[i])
        status |= bool(bad)
        record = {
            "commit": git(src, "rev-parse", "HEAD"),
            "uncommitted_changes": bool(git(src, "status", "--porcelain", "--", ".")),
            "source_sha256": sha256(sorted((src / "outbranching").glob("*.py"))),
            "suite": SUITE.name,
            "suite_sha256": sha256([SUITE]),
            "date": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%MZ"),
            "machine": machine(),
            "runs": args.runs,
            "timing": "time_ms is the wall time of analysis.solve inside outbranching bench, "
                      "which runs every solver with witness=False: witness work is not timed",
            "mismatches": bad,
            "rows": rows,
        }
        Path(args.out[i]).write_text(json.dumps(record, indent=1) + "\n")
        print(f"{args.out[i]}: {len(rows)} rows, {bad} mismatches, "
              f"total median {sum(row['median_ms'] for row in rows) / 1000:.2f} s")
    return status


if __name__ == "__main__":
    sys.exit(main())
