"""A snapshot of solver outputs on a fixed corpus, and of a few whole
`analyze` reports.

Every call below goes through `analysis.solve`, and its answer, root,
witness and reports are compared with `golden_outputs.json`. A change
that alters any of them fails here, whether or not the new output is
still correct. The corpus reaches every lob outcome and counting reason,
every iob report outcome, kpath hits and misses that skip regions, and
both answers of kpath's whole-digraph route, with witnesses on and off.

A change that alters outputs on purpose re-records the file with

    python tests/test_golden.py --record

and lists the diff in CHANGES.md: the script prints how many entries
changed, per problem and field.
"""

import json
import sys
from collections import Counter
from pathlib import Path

if __name__ == "__main__":
    # run as a script from a checkout: import the package from src/
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from outbranching import Digraph, underlying_graph
from outbranching.analysis import ANALYZE_FIELDS, analyze, solve
from outbranching.generators import GeneratorSpec, generate, grid_spec
from outbranching.leaf_pipeline import reduce_lob

from helpers import (
    component_width_bound,
    grid_digraph,
    multi_cut_instance,
    petal_instance,
    random_corpus,
)

GOLDEN = Path(__file__).resolve().parent / "golden_outputs.json"


def complete_digraph(n):
    return Digraph.of(n, [(u, v) for u in range(n) for v in range(n) if u != v])


def corpus():
    """(name, digraph, problem, k, root, b, witness) for every call."""
    calls = []
    small = random_corpus(10, seed=2027, n_lo=4, n_hi=7, density=1.6)
    for i, d in enumerate(small):
        for k in range(1, d.n + 1):
            for root, witness in ((0, True), (0, False), (None, True)):
                calls.append((f"random{i}", d, "lob", k, root, None, witness))
                calls.append((f"random{i}", d, "iob", k, root, None, witness))
        for k in range(1, d.n):
            calls.append((f"random{i}", d, "kpath", k, None, 1, False))
    for s in (3, 4):
        d = grid_digraph(s, s, seed=s, both_ways_prob=0.3)
        for k in range(1, d.n // 2 + 2):
            for witness in (True, False):
                calls.append((f"grid{s}x{s}", d, "lob", k, 0, None, witness))
                calls.append((f"grid{s}x{s}", d, "iob", k, 0, None, witness))
    # one-way grids: kpath hits in the cover's first region at small k,
    # and the whole-digraph route answers from k=4 on
    for rows, cols, seed, b in ((3, 4, 0, 2), (3, 5, 3, 3)):
        d = grid_digraph(rows, cols, seed=seed, both_ways_prob=0.2)
        for k in range(2, 10):
            calls.append((f"grid{rows}x{cols}s{seed}", d, "kpath", k, None, b, True))
    # sparse digraphs whose kpath yes and no come after regions skipped
    # inside a failed one, with no region near the whole vertex set
    for n, seed, b, k in ((12, 11, 2, 2), (10, 0, 1, 5)):
        d = generate(GeneratorSpec("random-sparse", n=n, m=n, seed=seed, p2=0.3))
        calls.append((f"sparse{n}s{seed}", d, "kpath", k, None, b, True))
    counted = [
        ("multi_cut", multi_cut_instance(), (1, 2, 3)),
        ("complete7", complete_digraph(7), (1, 2, 6)),
        ("petal", petal_instance(), (1, 2, 27)),
        ("bigrid12", generate(grid_spec(12, p2=1.0)), (4,)),
    ]
    for name, d, ks in counted:
        for k in ks:
            for witness in (True, False):
                calls.append((name, d, "lob", k, 0, None, witness))
    return calls


def outputs(call):
    """The JSON form of one call's result."""
    name, d, problem, k, root, b, witness = call
    res = solve(problem, d, k, root=root, b=b, witness=witness)
    out = {"instance": name, "problem": problem, "k": k, "root": root,
           "b": b, "witness": witness, "answer": res.satisfiable}
    if problem == "kpath":
        out["found"] = res.witness
        out["reports"] = res.stats
    else:
        out["found_root"] = res.root
        out["found"] = None if res.witness is None else sorted(res.witness.arcs())
        out["reports"] = [r._asdict() if problem == "lob" else r for r in res.reports]
    # tuples become lists, as they do in the file
    return json.loads(json.dumps(out))


def snapshot():
    return [outputs(call) for call in corpus()]


# the fields that name a call in the snapshot
CALL_FIELDS = ("instance", "problem", "k", "root", "b", "witness")


def changed_entries(recorded, current):
    """(call, fields) for each entry of current that differs from the
    recorded entry at its place: call holds its CALL_FIELDS values and
    fields lists, sorted, every key whose value changed, came or went."""
    changes = []
    for now, then in zip(current, recorded):
        fields = sorted(key for key in now.keys() | then.keys() if now.get(key) != then.get(key))
        if fields:
            changes.append((tuple(now.get(f) for f in CALL_FIELDS), fields))
    return changes


def test_changed_entries_names_each_call_and_field():
    then = [{"instance": "a", "problem": "lob", "k": 1, "root": 0, "b": None,
             "witness": True, "answer": True, "found": [[0, 1]]}]
    then.append(dict(then[0], k=2))
    now = [then[0], dict(then[1], found=[[0, 2]], answer=False, reports=[])]
    assert changed_entries(then, then) == []
    assert changed_entries(then, now) == [
        (("a", "lob", 2, 0, None, True), ["answer", "found", "reports"])]


def test_outputs_match_the_snapshot():
    recorded = json.loads(GOLDEN.read_text())
    current = snapshot()
    assert len(current) == len(recorded)
    changes = changed_entries(recorded, current)
    assert not changes, f"{len(changes)} entries changed:\n" + "\n".join(
        f"{dict(zip(CALL_FIELDS, call))}: {', '.join(fields)}" for call, fields in changes)


def test_snapshot_reaches_every_outcome():
    recorded = json.loads(GOLDEN.read_text())
    lob, iob, kpath, whole = set(), set(), set(), set()
    for out in recorded:
        if out["problem"] == "lob":
            lob.update((r["outcome"], r["reason"]) for r in out["reports"])
            if out["answer"] and out["found"] is None:
                lob.add(("yes without witness", out["witness"]))
        elif out["problem"] == "iob":
            iob.update(r["outcome"] for r in out["reports"])
        else:
            stats = out["reports"]
            kpath.add((out["answer"], stats["cache_hits"] > 0,
                       stats["skipped_small"] > 0))
            if stats["whole_graph"]:
                whole.add(out["answer"])
    assert lob >= {("disconnected", None), ("reduced", None),
                   ("guaranteed", "multi_cut_count"),
                   ("guaranteed", "high_indegree_count"),
                   ("guaranteed", "nice_vertex_count"),
                   ("yes without witness", True),
                   ("yes without witness", False)}
    assert iob >= {"witness_tree", "exhausted", "disconnected", "infeasible_k"}
    assert {(True, True), (False, True)} <= {h[:2] for h in kpath}
    assert any(h[2] for h in kpath)
    assert whole == {True, False}


def bidirected_cycle(n):
    return Digraph.of(n, [(i, (i + 1) % n) for i in range(n)]
                      + [((i + 1) % n, i) for i in range(n)])


HIGH = "guaranteed_yes:high_indegree_count"
# (name, digraph or spec, k, the report's fields after root and k in
# ANALYZE_FIELDS order), root 0 each
ANALYZE_REPORTS = [
    ("grid18", GeneratorSpec("grid", rows=18, cols=18, p2=0.7), 4,
     (HIGH, 3, 268, 140, 1, 7, 5, None, 27, None, None, None)),
    ("grid18", GeneratorSpec("grid", rows=18, cols=18, p2=0.7), 44,
     ("reduced", 3, 268, 140, 1, 7, 45, 291, 27, 27, 1, 1.5827680307534828)),
    ("bigrid12", grid_spec(12, p2=1.0), 4,
     (HIGH, 0, 140, 2, 0, 0, 4, None, 16, None, None, None)),
    ("bigrid12", grid_spec(12, p2=1.0), 30,
     ("reduced", 0, 140, 2, 0, 0, 30, 140, 16, 16, 0, 1.3522468075656264)),
    ("sparse200", GeneratorSpec("random-sparse", n=200, m=300, p2=1.0), 4,
     ("disconnected",) + (None,) * 7 + (24, None, None, None)),
    ("cycle20", bidirected_cycle(20), 3,
     ("reduced", 0, 0, 2, 0, 0, 3, 2, 2, 2, 1, 1.414213562373095)),
]


def test_analyze_reports_match_the_snapshot():
    # the 324-vertex grid, the 144-vertex reduced grid, the 181-vertex
    # component of the sparse graph and the 17-vertex residual path are
    # past the exact limit, so their widths come from min-fill
    for name, instance, k, fields in ANALYZE_REPORTS:
        d = instance if isinstance(instance, Digraph) else generate(instance)
        report = analyze(d, 0, k)
        assert report == dict(zip(ANALYZE_FIELDS, (0, k) + fields)), name
        assert report["tw_input"] == component_width_bound(underlying_graph(d))
        if report["outcome"] == "reduced":
            outcome = reduce_lob(d, 0, k)
            residue = outcome.digraph.without_vertices(outcome.selected)
            assert report["tw_reduced"] == component_width_bound(
                underlying_graph(outcome.digraph))
            assert report["tw_residual"] == component_width_bound(underlying_graph(residue))


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: python {sys.argv[0]} --record")
    current = snapshot()
    recorded = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else []
    print(f"entries: {len(recorded)} -> {len(current)}")
    changed = Counter((call[1], field) for call, fields in changed_entries(recorded, current)
                      for field in fields)
    for (problem, field), count in sorted(changed.items()):
        print(f"{problem} {field}: {count} changed")
    # one call a line, so a re-record diffs call by call
    lines = ",\n".join(json.dumps(out, sort_keys=True, separators=(",", ":")) for out in current)
    GOLDEN.write_text(f"[\n{lines}\n]\n")
