import pytest

from outbranching import Digraph
from outbranching.analysis import (
    ANALYZE_FIELDS,
    BENCH_FIELDS,
    analyze,
    bench,
    rows_to_csv,
    solve,
)
from outbranching.generators import GeneratorSpec, generate, grid_spec
from outbranching.internal_pipeline import build_partitions, collection_size
from outbranching.digraph import underlying_graph


def bidirected_path(n):
    arcs = []
    for i in range(n - 1):
        arcs.extend([(i, i + 1), (i + 1, i)])
    return Digraph.of(n, arcs)


def test_bidirected_path_report():
    report = analyze(bidirected_path(3), 0, 2)
    assert report["outcome"] == "reduced"
    assert report["alpha"] == 0
    assert report["beta"] == 1
    assert report["tw_input"] == 1
    assert report["contractions"] == 1
    assert report["tw_residual"] == 0
    assert set(report) == set(ANALYZE_FIELDS)


def test_star_report_fields_consistent():
    star = Digraph.of(4, [(0, 1), (0, 2), (0, 3)])
    report = analyze(star, 0, 1)
    assert report["outcome"] == "reduced"
    assert report["alpha"] == 0
    assert report["beta"] == 3
    assert report["multi_cut"] == 0
    assert report["single_cut"] == 0
    assert report["s_size"] == 3
    assert report["tw_residual"] == 0
    assert report["ratio"] is not None


def test_grid_guaranteed_at_small_k():
    d = generate(grid_spec(6, seed=0, p2=1.0))
    report = analyze(d, 0, 3)
    assert report["outcome"] == "guaranteed_yes:high_indegree_count"
    assert report["alpha"] == 32


def test_grid_deletion_set_bound():
    d = generate(grid_spec(6, seed=0, p2=1.0))
    report = analyze(d, 0, 6)
    assert report["outcome"] == "reduced"
    assert report["s_size"] <= 120 * 6
    assert report["tw_residual"] <= 3


def test_disconnected_root_report():
    d = Digraph.of(3, [(1, 0), (1, 2)])
    report = analyze(d, 0, 1)
    assert report["outcome"] == "disconnected"
    assert report["s_size"] is None


def test_guaranteed_outcome_report():
    n = 7
    arcs = [(i, j) for i in range(n) for j in range(n) if i != j]
    report = analyze(Digraph.of(n, arcs), 0, 1)
    assert report["outcome"] == "guaranteed_yes:high_indegree_count"
    assert report["alpha"] == 6
    assert report["s_size"] is None


def test_solve_dispatches_each_problem_and_rejects_others():
    path = Digraph.of(4, [(0, 1), (1, 2), (2, 3)])
    assert solve("lob", path, 1, root=0).witness.root == 0
    assert solve("iob", path, 3, root=0).satisfiable
    assert solve("kpath", path, 3, b=1).witness == [0, 1, 2, 3]
    with pytest.raises(ValueError, match="unknown problem 'tsp'"):
        solve("tsp", path, 1)


def test_bench_empty_suite():
    assert bench([]) == []
    text = rows_to_csv([])
    lines = text.strip().split("\n")
    assert len(lines) == 1
    assert lines[0].split(",") == list(BENCH_FIELDS)


def test_bench_rows_and_collection_size():
    spec = {"family": "grid", "rows": 3, "cols": 3, "seed": 2, "p2": 0.8}
    suite = [
        {"spec": spec, "problem": "lob", "k": 2, "root": 0},
        {"spec": spec, "problem": "iob", "k": 3, "root": 0},
        {"spec": spec, "problem": "kpath", "k": 3, "b": 2},
    ]
    rows = bench(suite)
    assert len(rows) == 3
    assert [row["problem"] for row in rows] == ["lob", "iob", "kpath"]
    assert all(row["error"] is None for row in rows)

    iob_row = rows[1]
    d = generate(GeneratorSpec(**spec))
    parts = build_partitions(underlying_graph(d), 0, 3)
    assert iob_row["collection_size"] == collection_size(parts, 0, 3)


def test_bench_budget_error_is_a_row():
    spec = {"family": "grid", "rows": 4, "cols": 4, "seed": 1, "p2": 1.0}
    suite = [
        {"spec": spec, "problem": "kpath", "k": 4, "b": 3},
        {"spec": spec, "problem": "lob", "k": 2, "root": 0},
    ]
    rows = bench(suite, budget=5)
    assert rows[0]["error"] is not None and "budget" in rows[0]["error"]
    assert rows[0]["answer"] is None
    assert rows[1]["error"] is None and rows[1]["answer"] is True


def test_bench_deterministic_content():
    suite = [{"spec": {"family": "random-sparse", "n": 7, "m": 9,
                       "seed": 5, "p2": 0.6},
              "problem": "lob", "k": 2, "root": 0}]
    first = bench(suite)
    second = bench(suite)
    for a, b in zip(first, second):
        for key in BENCH_FIELDS:
            if key == "time_ms":
                continue
            assert a[key] == b[key]


def test_csv_rendering_quotes_nothing_exotic():
    rows = bench([{"spec": {"family": "grid", "rows": 2, "cols": 2,
                            "seed": 0, "p2": 1.0},
                   "problem": "lob", "k": 1, "root": 0}])
    text = rows_to_csv(rows)
    header, line = text.strip().split("\n")
    assert header.startswith("instance,family")
    assert line.startswith("0,grid,4,8,lob,1,0")
