import time

import pytest

from outbranching import (
    BudgetError,
    Digraph,
    DPInvariantError,
    OutTree,
    brute_max_internal,
    reachable,
    underlying_graph,
    validate_out_tree,
)
from outbranching import internal_pipeline, treedp
from outbranching.internal_pipeline import (
    build_partitions,
    ceil_sqrt,
    collection_size,
    expand_minimal_tree,
    generate_collection,
    solve_iob,
    witness_size_cap,
)
from outbranching.treedp import dp_max_internal_outtree
from helpers import brute_max_internal_tree, enum_out_trees, random_corpus


def bidirected_chain(n):
    arcs = []
    for i in range(n - 1):
        arcs.extend([(i, i + 1), (i + 1, i)])
    return Digraph.of(n, arcs)


def test_ceil_sqrt_values():
    assert [ceil_sqrt(v) for v in (0, 1, 2, 4, 5, 9, 10, 16)] == \
        [0, 1, 2, 2, 3, 3, 4, 4]


def test_witness_size_cap_values():
    assert witness_size_cap(1) == 2
    assert witness_size_cap(2) == 3
    assert witness_size_cap(5) == 9


def test_bad_k_and_root_raise_value_error():
    with pytest.raises(ValueError):
        witness_size_cap(0)
    with pytest.raises(ValueError, match="k must be positive"):
        solve_iob(bidirected_chain(3), 0)
    with pytest.raises(ValueError):
        build_partitions(underlying_graph(bidirected_chain(3)), 0, 0)
    with pytest.raises(ValueError):
        build_partitions(underlying_graph(Digraph.of(3, [(0, 1)])), 0, 1)


def test_solve_path_and_star():
    path = Digraph.of(3, [(0, 1), (1, 2)])
    res = solve_iob(path, 2, root=0)
    assert res.satisfiable
    assert len(res.witness.internal_vertices()) >= 2
    star = Digraph.of(4, [(0, 1), (0, 2), (0, 3)])
    assert not solve_iob(star, 2, root=0).satisfiable
    assert solve_iob(star, 1, root=0).satisfiable


def test_partition_layout_spacing_three():
    chain = bidirected_chain(8)
    parts = build_partitions(underlying_graph(chain), 0, 4)
    assert [sorted(p) for p in parts] == [[0, 3, 6], [1, 4, 7], [2, 5]]


def test_shallow_graph_is_single_instance():
    chain = bidirected_chain(3)
    parts = build_partitions(underlying_graph(chain), 0, 4)
    assert parts == ()
    assert collection_size(parts, 0, 4) == 1
    subs = list(generate_collection(chain, 0, 4, parts))
    assert subs == [(None, frozenset(), chain)]


def test_parts_partition_vertex_set():
    for d in random_corpus(25, seed=311, n_lo=5, n_hi=9, density=1.4):
        for r in sorted(d.vertices):
            if reachable(d, r) != d.vertices:
                continue
            parts = build_partitions(underlying_graph(d), r, 2)
            if not parts:
                continue
            assert len(parts) == ceil_sqrt(2) + 1
            assert sum(len(p) for p in parts) == d.n
            assert frozenset().union(*parts) == d.vertices


def test_collection_count_matches_closed_form():
    checked = 0
    for d in random_corpus(30, seed=313, n_lo=5, n_hi=9, density=1.3):
        for r in sorted(d.vertices):
            if reachable(d, r) != d.vertices:
                continue
            for k in (2, 3, 5):
                parts = build_partitions(underlying_graph(d), r, k)
                want = collection_size(parts, r, k)
                got = sum(1 for _ in generate_collection(d, r, k, parts))
                assert got == want
                checked += 1
    assert checked >= 20


def test_subset_bound_and_root_membership():
    chain = bidirected_chain(9)
    zcap = ceil_sqrt(4 * 2)
    parts = build_partitions(underlying_graph(chain), 0, 2)
    for index, kept, sub in generate_collection(chain, 0, 2, parts):
        assert len(kept) <= zcap
        assert 0 in sub.vertices
        part = parts[index]
        assert kept <= part
        assert sub.vertices == (chain.vertices - part) | kept


def test_budget_error_before_any_yield():
    chain = bidirected_chain(20)
    parts = build_partitions(underlying_graph(chain), 0, 2)
    gen = generate_collection(chain, 0, 2, parts, budget=5)
    with pytest.raises(BudgetError):
        next(gen)
    with pytest.raises(BudgetError):
        solve_iob(chain, 2, root=0, budget=5)


def test_expand_keeps_arcs_and_internal_count():
    path = Digraph.of(3, [(0, 1), (1, 2)])
    stub = OutTree(0, {1: 0})
    grown = expand_minimal_tree(path, 0, stub)
    assert grown.parents == {1: 0, 2: 1}
    assert len(grown.internal_vertices()) == 2
    full = expand_minimal_tree(path, 0, grown)
    assert full.parents == grown.parents


def test_expand_rejects_unreachable():
    d = Digraph.of(3, [(0, 1)])
    with pytest.raises(ValueError):
        expand_minimal_tree(d, 0, OutTree(0, {1: 0}))


def test_expand_rejects_a_tree_with_another_root():
    path = Digraph.of(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        expand_minimal_tree(path, 0, OutTree(1, {2: 1}))


def test_expand_rejects_a_growth_that_loses_witness_arcs(monkeypatch):
    # a growth step that rebuilds the tree as a star drops the witness arc
    # (1, 2); the check must raise, also under python -O
    d = Digraph.of(3, [(0, 1), (1, 2), (0, 2)])
    monkeypatch.setattr(internal_pipeline, "grow_breadth_first",
                        lambda g, tree: OutTree(tree.root, {1: 0, 2: 0}))
    with pytest.raises(DPInvariantError):
        expand_minimal_tree(d, 0, OutTree(0, {1: 0, 2: 1}))


def test_expand_on_corpus():
    checked = 0
    for d in random_corpus(40, seed=331, n_lo=3, n_hi=7, density=2.0):
        for r in sorted(d.vertices):
            if reachable(d, r) != d.vertices:
                continue
            for tree in enum_out_trees(d, r, 3):
                grown = expand_minimal_tree(d, r, tree)
                validate_out_tree(d, grown, spanning=True)
                assert tree.arcs() <= grown.arcs()
                assert (len(grown.internal_vertices())
                        >= len(tree.internal_vertices()))
                checked += 1
                break
    assert checked >= 30


def test_solve_matches_oracle():
    for d in random_corpus(50, seed=337, n_lo=3, n_hi=6, density=1.9):
        for r in sorted(d.vertices):
            want = brute_max_internal(d, r)
            for k in (1, 2, 3):
                res = solve_iob(d, k, root=r)
                expect = want is not None and want >= k
                assert res.satisfiable == expect, (d.arcs, r, k)
                if res.satisfiable and res.witness is not None:
                    validate_out_tree(d, res.witness, spanning=True)
                    assert len(res.witness.internal_vertices()) >= k


def test_solve_matches_oracle_when_the_best_tree_exceeds_the_cap():
    # the root sees every vertex (depth 1, one sub-instance) and 1..6 form
    # a path, so the best out-tree spans all 7 vertices: more than
    # witness_size_cap(k) for k <= 3
    n = 7
    d = Digraph.of(n, [(0, v) for v in range(1, n)]
                   + [(v, v + 1) for v in range(1, n - 1)])
    want = brute_max_internal(d, 0)
    assert want == n - 1
    internal, tree = dp_max_internal_outtree(d, 0)
    assert internal == want and tree.size == n
    for k in (1, 2, 3):
        assert brute_max_internal_tree(d, 0, max_size=witness_size_cap(k)) < want
    for k in range(1, n + 1):
        res = solve_iob(d, k, root=0)
        assert res.satisfiable == (want >= k), k
        if res.satisfiable:
            validate_out_tree(d, res.witness, spanning=True)
            assert len(res.witness.internal_vertices()) >= k


def test_solve_caps_the_dp_when_the_cap_is_below_the_vertex_count(monkeypatch):
    # uncapped, the DP on a complete digraph keeps every fragment
    # partition of its one wide bag; the cap keeps small k cheap
    n, k = 8, 2
    d = Digraph.of(n, [(u, v) for u in range(n) for v in range(n) if u != v])
    calls = []
    run = internal_pipeline.dp_max_internal_outtree

    def spy(digraph, root, size_cap=None, target=None):
        calls.append((size_cap, target))
        return run(digraph, root, size_cap=size_cap, target=target)

    monkeypatch.setattr(internal_pipeline, "dp_max_internal_outtree", spy)
    assert solve_iob(d, k, root=0).satisfiable
    assert calls == [(witness_size_cap(k), k)]


def test_root_ends_once_the_whole_digraph_falls_short(monkeypatch):
    # the path 0..4 plus the leaf 5 has four internal vertices at most; at
    # k = 5 every part fits whole, and part 0 kept whole is the digraph
    n, k = 6, 5
    d = Digraph.of(n, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 5)])
    parts = build_partitions(underlying_graph(d), 0, k)
    room = ceil_sqrt(4 * k)
    assert sum(len(part) <= room for part in parts) >= 2
    assert brute_max_internal(d, 0) < k
    calls = []
    run = internal_pipeline.dp_max_internal_outtree

    def spy(digraph, root, size_cap=None, target=None):
        calls.append((digraph.n, target))
        best = run(digraph, root, size_cap=size_cap, target=target)
        # short of the target, the decision DP answers None
        assert best is None
        return best

    monkeypatch.setattr(internal_pipeline, "dp_max_internal_outtree", spy)
    res = solve_iob(d, k, root=0)
    assert not res.satisfiable
    report = res.reports[0]
    assert report["outcome"] == "exhausted" and report["hit"] is None
    # part 0 yields {0} (too small), then {0, 4}: the whole digraph
    assert calls == [(n, k)]
    assert (report["skipped_small"], report["evaluated"]) == (1, 1)
    assert report["cache_hits"] == collection_size(parts, 0, k) - 2


def test_a_dp_past_its_state_budget_raises_budget_error_fast(monkeypatch):
    # the complete digraph on 10 vertices is one sub-instance whose DP
    # runs on one bag of all ten vertices
    n = 10
    d = Digraph.of(n, [(u, v) for u in range(n) for v in range(n) if u != v])
    monkeypatch.setattr(treedp, "DP_STATE_BUDGET", 10_000)
    start = time.perf_counter()
    with pytest.raises(BudgetError) as info:
        solve_iob(d, 4, root=0)
    assert time.perf_counter() - start < 1.0
    assert info.value.what == "dp states" and info.value.budget == 10_000
    assert info.value.needed > 10_000


def test_root_scan_builds_the_underlying_graph_once(monkeypatch):
    # a bidirected star has at most two internal vertices from any root,
    # so k = 3 tries all five roots
    d = Digraph.of(5, [arc for v in range(1, 5) for arc in ((0, v), (v, 0))])
    built = []
    run = internal_pipeline.underlying_graph

    def spy(digraph):
        built.append(digraph)
        return run(digraph)

    monkeypatch.setattr(internal_pipeline, "underlying_graph", spy)
    res = solve_iob(d, 3)
    assert not res.satisfiable
    assert [r["root"] for r in res.reports] == [0, 1, 2, 3, 4]
    assert built == [d]


def test_unreachable_root_reports_disconnected():
    d = Digraph.of(3, [(1, 0), (1, 2)])
    res = solve_iob(d, 1, root=0)
    assert not res.satisfiable
    assert res.reports[0]["outcome"] == "disconnected"
    scan = solve_iob(d, 1)
    assert scan.satisfiable and scan.root == 1
    assert scan.reports[0]["outcome"] == "disconnected"


def test_infeasible_k_guard():
    d = bidirected_chain(4)
    res = solve_iob(d, 4, root=0)
    assert not res.satisfiable
    assert res.reports[0]["outcome"] == "infeasible_k"
    single = Digraph.of(1, [])
    assert not solve_iob(single, 1, root=0).satisfiable


def test_hit_reporting_is_deterministic():
    d = bidirected_chain(9)
    first = solve_iob(d, 3, root=0)
    second = solve_iob(d, 3, root=0)
    assert first.satisfiable and second.satisfiable
    assert first.reports[0]["hit"] == second.reports[0]["hit"]


def test_witness_skippable():
    d = bidirected_chain(5)
    res = solve_iob(d, 3, root=0, witness=False)
    assert res.satisfiable and res.witness is None


def test_covering_keeps_some_witness_tree():
    """A small witness tree survives in at least one sub-instance."""
    covered_checks = 0
    for d in random_corpus(40, seed=347, n_lo=6, n_hi=9, density=1.3):
        for r in sorted(d.vertices):
            if reachable(d, r) != d.vertices:
                continue
            k = 2
            parts = build_partitions(underlying_graph(d), r, k)
            if not parts:
                continue
            cap = witness_size_cap(k)
            witnesses = [t for t in enum_out_trees(d, r, cap)
                         if len(t.internal_vertices()) >= k]
            if not witnesses:
                continue
            tree = witnesses[0]
            hits = [kept for _, kept, sub in generate_collection(d, r, k, parts)
                    if tree.vertex_set <= sub.vertices]
            assert hits, (d.arcs, r, sorted(tree.vertex_set))
            covered_checks += 1
    assert covered_checks >= 10
