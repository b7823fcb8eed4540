import heapq
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from outbranching import (
    Digraph,
    DPInvariantError,
    brute_max_leaves,
    contract_arc_directed,
    is_rooted_2connected,
    reachable,
    underlying_graph,
    validate_out_tree,
)
from outbranching.leaf_pipeline import (
    bfs_branching,
    contract_pendant_arcs,
    duplicate_multi_cut,
    exhaust_stranding_contractions,
    expand_through_steps,
    reduce_lob,
    solve_lob,
)
from outbranching import leaf_pipeline, treewidth
from outbranching.connectivity import _idoms, cut_profile
from outbranching.generators import generate, grid_spec
from outbranching.treedp import dp_max_leaves
from outbranching.treewidth import greedy_decomposition, treewidth_upper_bound
from helpers import (
    grid_digraph,
    labelled_digraphs,
    multi_cut_instance,
    petal_instance,
    random_corpus,
)


def bidirected_cycle(n):
    arcs = []
    for i in range(n):
        arcs.extend([(i, (i + 1) % n), ((i + 1) % n, i)])
    return Digraph.of(n, arcs)


def test_solve_star_and_path():
    star = Digraph.of(4, [(0, 1), (0, 2), (0, 3)])
    assert solve_lob(star, 3, root=0).satisfiable
    assert not solve_lob(star, 4, root=0).satisfiable
    path = Digraph.of(4, [(0, 1), (1, 2), (2, 3)])
    assert solve_lob(path, 1, root=0).satisfiable
    assert not solve_lob(path, 2, root=0).satisfiable


def test_solve_infeasible_k_short_circuits():
    d = Digraph.of(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    res = solve_lob(d, 5, root=0)
    assert not res.satisfiable
    assert res.reports == []
    empty = solve_lob(Digraph.of(0, []), 1)
    assert not empty.satisfiable and empty.reports == []


def test_solve_single_vertex():
    d = Digraph.of(1, [])
    assert solve_lob(d, 1).satisfiable
    assert not solve_lob(d, 2).satisfiable


def test_bad_root_and_k_raise_value_error():
    d = Digraph.of(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="root 7 not in digraph"):
        solve_lob(d, 1, root=7)
    with pytest.raises(ValueError, match="k must be at least 1"):
        reduce_lob(d, 0, 0)
    with pytest.raises(ValueError, match="k must be at least 1"):
        solve_lob(d, 0)


def test_reduce_reports_a_disconnected_root():
    d = Digraph.of(3, [(0, 1)])
    report = reduce_lob(d, 0, 1).report
    assert report.outcome == "disconnected"
    assert report.unreachable_count == 1
    res = solve_lob(d, 1, root=0)
    assert not res.satisfiable
    assert res.reports[0].outcome == "disconnected"


def test_stranding_contractions_preserve_max_leaves():
    checked = 0
    for d in random_corpus(50, seed=211, n_lo=4, n_hi=7, density=1.6):
        for r in sorted(d.vertices):
            if reachable(d, r) != d.vertices:
                continue
            reduced, steps = exhaust_stranding_contractions(d, r)
            assert brute_max_leaves(reduced, r) == brute_max_leaves(d, r)
            from outbranching.connectivity import arcs_disconnecting_two
            assert not arcs_disconnecting_two(reduced, r)
            checked += 1
    assert checked >= 40


def test_a_contraction_can_make_a_new_stranding_arc():
    # only (0, 1) strands at first; once it is contracted, the merged 0
    # is 2's only in-neighbour and (0, 2) strands {2, 3}
    d = Digraph.of(5, [(0, 1), (0, 2), (1, 2), (1, 4), (2, 3)])
    reduced, steps = exhaust_stranding_contractions(d, 0)
    assert [arc for arc, _ in steps] == [(0, 1), (0, 2)]
    assert sorted(reduced.arcs) == [(0, 3), (0, 4)]


def test_duplication_shifts_max_leaves_by_multi_cut_count():
    checked = 0
    for d in random_corpus(60, seed=223, n_lo=4, n_hi=7, density=1.8):
        for r in sorted(d.vertices):
            if reachable(d, r) != d.vertices:
                continue
            reduced, _ = exhaust_stranding_contractions(d, r)
            profile = cut_profile(reduced, r)
            if not profile.multi_cut:
                continue
            dup = duplicate_multi_cut(reduced, profile.multi_cut)
            want = brute_max_leaves(reduced, r) + len(profile.multi_cut)
            assert brute_max_leaves(dup, r) == want, (d.arcs, r)
            checked += 1
    assert checked >= 5


def test_duplicates_are_not_adjacent_to_each_other():
    d = multi_cut_instance()
    reduced, _ = exhaust_stranding_contractions(d, 0)
    profile = cut_profile(reduced, 0)
    dup = duplicate_multi_cut(reduced, profile.multi_cut)
    copies = dup.vertices - reduced.vertices
    assert len(copies) == len(profile.multi_cut)
    for a, b in dup.arcs:
        assert not (a in copies and b in copies)
    for x, c in zip(sorted(profile.multi_cut), sorted(copies)):
        assert not dup.has_arc(x, c) and not dup.has_arc(c, x)
        assert dup.in_neighbors(c) == dup.in_neighbors(x) - {c}
        assert dup.out_neighbors(c) == dup.out_neighbors(x) - {c}


def test_bfs_branching_holds_the_forced_arcs_of_a_multi_cut_instance():
    # 1 strands 3 and 4; 4 can also be entered from 3, which a depth
    # first tree through 3 would do
    d = Digraph.of(5, [(0, 1), (0, 2), (2, 1), (1, 3), (1, 4), (3, 4)])
    profile = cut_profile(d, 0)
    assert profile.stranded == {1: {3, 4}}
    assert profile.multi_cut == {1}
    assert {(1, 3), (1, 4)} <= bfs_branching(d, 0).arcs()


def bfs_holds_every_forced_arc(d):
    """For every root that reaches all of d, before and after the
    stranding contractions, check that the breadth first branching holds
    the arc from each cut vertex into each vertex it strands; returns how
    many such arcs were checked."""
    checked = 0
    for r in sorted(d.vertices):
        if reachable(d, r) != d.vertices:
            continue
        reduced, _ = exhaust_stranding_contractions(d, r)
        for g in (d, reduced):
            arcs = bfs_branching(g, r).arcs()
            for x, ys in cut_profile(g, r).stranded.items():
                for y in ys:
                    assert (x, y) in arcs, (d.arcs, r, g.arcs, (x, y))
                    checked += 1
    return checked


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(labelled_digraphs())
def test_bfs_branching_holds_every_forced_arc(d):
    bfs_holds_every_forced_arc(d)


def test_bfs_branching_holds_every_forced_arc_on_corpora():
    corpus = random_corpus(80, seed=37, n_lo=4, n_hi=10, density=1.6)
    corpus += [grid_digraph(s, s, seed=s, both_ways_prob=0.3)
               for s in range(3, 7)]
    assert sum(bfs_holds_every_forced_arc(d) for d in corpus) > 200


def test_guaranteed_by_multi_cut_with_witness():
    d = multi_cut_instance()
    outcome = reduce_lob(d, 0, 1)
    assert outcome.report.outcome == "guaranteed"
    assert outcome.report.reason == "multi_cut_count"
    res = solve_lob(d, 1, root=0)
    assert res.satisfiable
    validate_out_tree(d, res.witness, spanning=True)
    assert len(res.witness.leaves()) >= 1


def test_guaranteed_by_high_indegree_on_complete_digraph():
    n = 7
    arcs = [(i, j) for i in range(n) for j in range(n) if i != j]
    d = Digraph.of(n, arcs)
    outcome = reduce_lob(d, 0, 1)
    assert outcome.report.outcome == "guaranteed"
    assert outcome.report.reason == "high_indegree_count"
    assert outcome.report.alpha == 6
    res = solve_lob(d, 1, root=0)
    assert res.satisfiable
    assert res.witness is not None
    assert len(res.witness.leaves()) >= 1


def test_guaranteed_by_nice_vertices_on_petal_instance():
    d = petal_instance()
    outcome = reduce_lob(d, 0, 1)
    assert outcome.report.outcome == "guaranteed"
    assert outcome.report.reason == "nice_vertex_count"
    assert outcome.report.beta >= 24
    assert outcome.report.alpha < 6
    res = solve_lob(d, 1, root=0)
    assert res.satisfiable
    assert res.witness is not None


class CountingHeap:
    """Stands in for `heapq` inside `treewidth` and records the vertices
    the min-fill pass pops while their entry is live: the entry is the
    vertex's latest and the vertex is not gone yet, the same test the pass
    makes before it eliminates a vertex or stops at it."""

    def __init__(self):
        self.latest = {}
        self.taken = set()

    def heapify(self, heap):
        self.latest.update((v, f) for f, v in heap)
        heapq.heapify(heap)

    def heappush(self, heap, entry):
        self.latest[entry[1]] = entry[0]
        heapq.heappush(heap, entry)

    def heappop(self, heap):
        f, v = heapq.heappop(heap)
        if v not in self.taken and self.latest[v] == f:
            self.taken.add(v)
        return f, v


def refuse(*args):
    raise AssertionError("the witness attempt built a decomposition")


def test_a_guaranteed_yes_past_the_witness_width_limit_has_no_witness():
    # a bidirected 12x12 grid: the high in-degree count answers yes,
    # nothing contracts, and the min-fill width (16) is above the limit,
    # so the witness DP is skipped; a cheap certificate tried before the
    # exact machinery would give this call a witness
    d = generate(grid_spec(12, p2=1.0))
    heap = CountingHeap()
    with mock.patch.object(treewidth, "heapq", heap), \
            mock.patch.object(treewidth, "_decomposition", refuse), \
            mock.patch.object(leaf_pipeline, "make_nice", refuse):
        res = solve_lob(d, 4, root=0)
    # the elimination stopped at a vertex whose bag is past the limit,
    # well before it ran out of vertices
    assert 0 < len(heap.taken) < d.n
    assert res.satisfiable and res.witness is None
    (report,) = res.reports
    assert (report.outcome, report.reason) == ("guaranteed",
                                               "high_indegree_count")
    assert report.contractions == 0
    width = greedy_decomposition(underlying_graph(d)).width
    assert width > leaf_pipeline.WITNESS_WIDTH_LIMIT


def shortcut_corpus(count, seed):
    """Digraphs on 7-13 vertices that vertex 0 spans, min-fill width <= 5:
    half orient each edge one way (many nice vertices), half run most
    edges both ways (many vertices of in-degree >= 3)."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(7, 13)
        both = rng.choice((0.0, 0.9))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        arcs = []
        for u, v in rng.sample(pairs, int(1.6 * n)):
            if rng.random() < both:
                arcs += [(u, v), (v, u)]
            else:
                arcs.append((u, v) if rng.random() < 0.5 else (v, u))
        d = Digraph.of(n, arcs)
        if (reachable(d, 0) == d.vertices
                and greedy_decomposition(underlying_graph(d)).width <= 5):
            out.append(d)
    return out


def test_counting_shortcuts_match_the_whole_graph_dp():
    # past n = 7 the high in-degree shortcut fires; the exact DP on the
    # whole digraph checks every verdict up to one past the optimum
    counted = 0
    for d in shortcut_corpus(150, seed=241):
        best = dp_max_leaves(d, 0)[0]
        for k in range(1, best + 2):
            res = solve_lob(d, k, root=0, witness=False)
            assert res.satisfiable == (best >= k), (d.arcs, k)
            counted += any(rep.reason in ("high_indegree_count",
                                          "nice_vertex_count")
                           for rep in res.reports)
    assert counted >= 20


def test_reduction_without_rooted_2connectivity_raises(monkeypatch):
    # the counting shortcuts are only sound on a rooted 2-connected graph
    d = Digraph.of(4, [(u, v) for u in range(4) for v in range(4) if u != v])
    monkeypatch.setattr(leaf_pipeline, "is_rooted_2connected",
                        lambda digraph, root: False)
    with pytest.raises(DPInvariantError):
        reduce_lob(d, 0, 2)
    with pytest.raises(DPInvariantError):
        solve_lob(d, 2, root=0)


def test_bad_caller_input_raises_value_error():
    with pytest.raises(ValueError):
        bfs_branching(Digraph.of(3, [(0, 1)]), 0)
    path = Digraph.of(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        contract_pendant_arcs(path, {(0, 1), (1, 2)})


def test_pendant_contraction_reaches_rooted_2connected():
    checked = 0
    for d in random_corpus(60, seed=229, n_lo=4, n_hi=7, density=1.8):
        for r in sorted(d.vertices):
            if reachable(d, r) != d.vertices:
                continue
            reduced, _ = exhaust_stranding_contractions(d, r)
            profile = cut_profile(reduced, r)
            dup = duplicate_multi_cut(reduced, profile.multi_cut)
            squeezed = contract_pendant_arcs(dup, profile.pendant_arcs)
            assert is_rooted_2connected(squeezed, r), (d.arcs, r)
            checked += 1
    assert checked >= 40


def test_reduced_outcome_invariants_on_bidirected_cycles():
    for n in range(4, 9):
        d = bidirected_cycle(n)
        for r in range(n):
            for k in (1, 2):
                outcome = reduce_lob(d, r, k)
                assert outcome.report.outcome == "reduced"
                assert len(outcome.selected) <= 120 * k
                residue = underlying_graph(
                    outcome.digraph.without_vertices(outcome.selected))
                assert treewidth_upper_bound(residue) <= 2


def test_reduced_selected_set_excludes_imaginary_vertices():
    for d in random_corpus(30, seed=233, n_lo=4, n_hi=7, density=2.0):
        for r in sorted(d.vertices):
            if reachable(d, r) != d.vertices:
                continue
            outcome = reduce_lob(d, r, d.n)
            if outcome.report.outcome == "reduced":
                assert outcome.selected <= outcome.digraph.vertices


def test_expand_contraction_round_trip():
    d = Digraph.of(4, [(0, 1), (1, 2), (1, 3)])
    reduced, steps = exhaust_stranding_contractions(d, 0)
    assert len(steps) == 1 and steps[0][0] == (0, 1)
    tree = bfs_branching(reduced, 0)
    expanded = expand_through_steps(tree, steps)
    validate_out_tree(d, expanded, spanning=True)
    assert len(expanded.leaves()) >= len(tree.leaves())


def test_expand_prefers_head_side_children():
    # contracted tree has children that only the head could feed; the
    # step records the head's out-neighbours, not the tail's {1, 3}
    before = Digraph.of(4, [(0, 1), (1, 2), (1, 3), (0, 3)])
    after, steps = exhaust_stranding_contractions(before, 0)
    assert steps == [((0, 1), frozenset({2, 3}))]
    assert after == contract_arc_directed(before, (0, 1))
    tree = bfs_branching(after, 0)
    assert tree.parents == {2: 0, 3: 0}
    expanded = expand_through_steps(tree, steps)
    assert expanded.parents == {1: 0, 2: 1, 3: 1}
    validate_out_tree(before, expanded, spanning=True)


def test_expand_rejects_a_step_that_does_not_match_the_tree():
    tree = bfs_branching(Digraph.of(2, [(0, 1)]), 0)
    for arc in ((0, 1), (2, 3)):
        with pytest.raises(DPInvariantError, match="does not match"):
            expand_through_steps(tree, [(arc, frozenset())])


def test_lob_on_paths_validates_a_fixed_number_of_trees():
    # a directed path contracts n - 2 arcs; each step keeps only its arc
    # and a frozenset, and the replayed witness is validated once
    def validations(n):
        path = Digraph.of(n, [(i, i + 1) for i in range(n - 1)])
        steps = reduce_lob(path, 0, 1).steps
        assert len(steps) == n - 2
        assert not any(isinstance(part, Digraph)
                       for step in steps for part in step)
        count = 0
        check = leaf_pipeline.witness_tree

        def counting(*args, **kwargs):
            nonlocal count
            count += 1
            return check(*args, **kwargs)

        with mock.patch.object(leaf_pipeline, "witness_tree", counting):
            res = solve_lob(path, 1, root=0)
        assert res.satisfiable
        validate_out_tree(path, res.witness, spanning=True)
        return count

    assert validations(200) == validations(800)


def test_solve_matches_oracle_with_witnesses():
    for d in random_corpus(40, seed=239, n_lo=3, n_hi=6, density=2.2):
        for r in sorted(d.vertices):
            want = brute_max_leaves(d, r)
            for k in (1, 2, 3):
                res = solve_lob(d, k, root=r)
                expect = want is not None and want >= k
                assert res.satisfiable == expect, (d.arcs, r, k)
                if res.satisfiable and res.witness is not None:
                    validate_out_tree(d, res.witness, spanning=True)
                    assert len(res.witness.leaves()) >= k


def test_solve_any_root_scans_in_order():
    d = Digraph.of(3, [(1, 0), (1, 2)])
    res = solve_lob(d, 2)
    assert res.satisfiable and res.root == 1
    assert res.reports[0].outcome == "disconnected"


def test_grid_solves():
    d = grid_digraph(3, 3)
    want = brute_max_leaves(d, 0)
    res = solve_lob(d, want, root=0)
    assert res.satisfiable
    assert not solve_lob(d, want + 1, root=0).satisfiable


def carried_trees_match_fresh_ones(d):
    """Run the stranding contractions from every root of d, recording the
    dominator tree kept through each contraction, and check each against
    a fresh one of the graph that replaying the recorded arcs with
    contract_arc_directed gives. Returns the steps taken."""
    update = leaf_pipeline._contract_tree
    count = 0
    for r in sorted(d.vertices):
        trees = []

        def recording(idom, arc):
            update(idom, arc)
            trees.append(dict(idom))

        with mock.patch.object(leaf_pipeline, "_contract_tree", recording):
            reduced, steps = exhaust_stranding_contractions(d, r)
        after, g = [], d
        for arc, out_y in steps:
            assert out_y == g.out_neighbors(arc[1]), (d.arcs, r, arc)
            g = contract_arc_directed(g, arc)
            after.append(g)
        assert g == reduced, (d.arcs, r)
        assert trees == [_idoms(g, r) for g in after], (d.arcs, r)
        count += len(steps)
    return count


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(labelled_digraphs())
@example(Digraph([10, 20, 30, 40, 50, 60],
                 [(10, 20), (20, 30), (30, 40), (30, 50), (40, 60), (50, 60)]))
def test_carried_dominator_tree_matches_a_fresh_one(d):
    carried_trees_match_fresh_ones(d)


def test_carried_dominator_tree_matches_on_corpora():
    corpus = random_corpus(60, seed=31, n_lo=5, n_hi=12, density=1.4)
    corpus += [grid_digraph(5, 5, seed=s, both_ways_prob=0.3) for s in range(4)]
    assert sum(carried_trees_match_fresh_ones(d) for d in corpus) > 200



def check_reduction_record(d, k):
    """reduce_lob's record for every root of d; returns the (outcome,
    reason) pairs seen."""
    seen = set()
    for r in sorted(d.vertices):
        # a disconnected root is an outcome, not an exception
        outcome = reduce_lob(d, r, k)
        report = outcome.report
        seen.add((report.outcome, report.reason))
        assert (report.root, report.k) == (r, k)
        missed = d.vertices - reachable(d, r)
        assert (report.outcome == "disconnected") == bool(missed)
        if missed:
            assert report.unreachable_count == len(missed)
            assert outcome.digraph is None and outcome.steps is None
        else:
            assert report.outcome in ("guaranteed", "reduced")
            assert report.unreachable_count is None
        assert (outcome.selected is not None) == (report.outcome == "reduced")
        if outcome.selected is not None:
            assert outcome.selected <= outcome.digraph.vertices
            assert report.selected_size == len(outcome.selected)
    return seen


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(labelled_digraphs(max_n=8), st.integers(1, 4))
@example(Digraph([3, 5, 8], [(3, 5)]), 1)
def test_reduction_record_matches_its_outcome(d, k):
    check_reduction_record(d, k)


def test_reduction_record_on_corpora_reaches_every_outcome():
    seen = set()
    for seed, density in enumerate((1.2, 1.6, 2.0, 3.0, 5.0)):
        for d in random_corpus(80, seed=400 + seed, n_lo=1, n_hi=8,
                               density=density):
            for k in range(1, 5):
                seen |= check_reduction_record(d, k)
    # nice_vertex_count needs 24 nice vertices, more than n <= 8 holds
    assert seen == {("disconnected", None), ("reduced", None),
                    ("guaranteed", "multi_cut_count"),
                    ("guaranteed", "high_indegree_count")}
