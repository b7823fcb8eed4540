"""The committed ladder and its recorded timings.

`bench/ladder.json` is the suite that `bench/record.py` times into
`bench/BENCH_<n>.json`. Every entry records the truth of its answer, the
optimum when it is known, and where that came from. The entries marked
quick are checked here: their optimum is recomputed with the whole-graph
DP, without a target, and `bench` must answer each with its truth. The
quick entries include opt/opt+1 pairs, so a solver that says yes one k
too high fails.
"""

import hashlib
import json
from pathlib import Path

from outbranching import reachable
from outbranching.analysis import bench
from outbranching.generators import GeneratorSpec, generate
from outbranching.treedp import dp_longest_path, dp_max_internal_outtree, dp_max_leaves

BENCH = Path(__file__).resolve().parent.parent / "bench"
SUITE = BENCH / "ladder.json"
ENTRIES = json.loads(SUITE.read_text())
QUICK = [entry for entry in ENTRIES if entry.get("quick")]


def optimum(entry, digraph):
    """Longest path, or the most leaves or internal vertices from the
    root; None when the root does not reach every vertex."""
    if entry["problem"] == "kpath":
        return dp_longest_path(digraph)[0]
    root = entry["root"]
    if reachable(digraph, root) != digraph.vertices:
        return None
    if entry["problem"] == "lob":
        return dp_max_leaves(digraph, root)[0]
    return dp_max_internal_outtree(digraph, root)[0]


def test_every_entry_states_a_consistent_truth():
    for entry in ENTRIES:
        assert isinstance(entry["truth"], bool) and entry["source"], entry
        if entry["opt"] is not None:
            assert entry["truth"] == (entry["k"] <= entry["opt"]), entry
    pairs = {(json.dumps(e["spec"]), e["problem"], e["k"]) for e in QUICK}
    tight = [e for e in QUICK if e["opt"] is not None and e["k"] == e["opt"] + 1
             and (json.dumps(e["spec"]), e["problem"], e["opt"]) in pairs]
    assert {e["problem"] for e in tight} == {"lob", "kpath"}


def test_quick_truths_recompute_and_bench_answers_them():
    optima = {}
    for entry in QUICK:
        key = (json.dumps(entry["spec"], sort_keys=True), entry["problem"], entry.get("root"))
        if key not in optima:
            optima[key] = optimum(entry, generate(GeneratorSpec(**entry["spec"])))
        opt = optima[key]
        assert entry["opt"] == opt, entry
        assert entry["truth"] == (opt is not None and entry["k"] <= opt), entry
    rows = bench(QUICK)
    assert [row["answer"] for row in rows] == [entry["truth"] for entry in QUICK]


def test_recorded_timings_cover_this_suite():
    digest = hashlib.sha256(SUITE.read_bytes()).hexdigest()
    records = sorted(BENCH.glob("BENCH_*.json"))
    assert records
    for path in records:
        record = json.loads(path.read_text())
        assert record["suite_sha256"] == digest, path.name
        assert record["runs"] >= 3 and record["mismatches"] == 0, path.name
        assert "witness" in record["timing"], path.name
        assert [row["answer"] for row in record["rows"]] == [e["truth"] for e in ENTRIES]
