import pytest

from outbranching import (
    Digraph,
    RootDisconnected,
    brute_max_leaves,
    is_rooted_2connected,
    reachable,
    underlying_graph,
    validate_out_tree,
)
from outbranching.leaf_pipeline import (
    GuaranteedYes,
    Reduced,
    bfs_branching,
    contract_pendant_arcs,
    duplicate_multi_cut,
    exhaust_stranding_contractions,
    expand_arc_contraction,
    expand_through_steps,
    force_cut_arcs,
    reduce_lob,
    solve_lob,
)
from outbranching.connectivity import cut_profile
from outbranching.treewidth import treewidth_upper_bound
from helpers import grid_digraph, random_corpus


def bidirected_cycle(n):
    arcs = []
    for i in range(n):
        arcs.extend([(i, (i + 1) % n), ((i + 1) % n, i)])
    return Digraph.of(n, arcs)


def multi_cut_instance():
    # x is reachable two ways but alone feeds a and b
    return Digraph.of(5, [(0, 1), (0, 2), (2, 1), (1, 3), (1, 4)])


def petal_instance(petals=26):
    """Hub h bidirected to root, one-way spokes, petals bidirected to h."""
    h = 1
    arcs = [(0, h), (h, 0)]
    for i in range(petals):
        p = 2 + i
        arcs.append((0, p))
        arcs.extend([(p, h), (h, p)])
    return Digraph.of(2 + petals, arcs)


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


def test_reduce_raises_on_disconnected_root():
    d = Digraph.of(3, [(0, 1)])
    with pytest.raises(RootDisconnected):
        reduce_lob(d, 0, 1)
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
            dup, imap = duplicate_multi_cut(reduced, profile.multi_cut)
            want = brute_max_leaves(reduced, r) + len(profile.multi_cut)
            assert brute_max_leaves(dup, r) == want, (d.arcs, r)
            checked += 1
    assert checked >= 5


def test_duplicates_are_not_adjacent_to_each_other():
    d = multi_cut_instance()
    reduced, _ = exhaust_stranding_contractions(d, 0)
    profile = cut_profile(reduced, 0)
    dup, imap = duplicate_multi_cut(reduced, profile.multi_cut)
    copies = set(imap.values())
    for a, b in dup.arcs:
        assert not (a in copies and b in copies)
    for x, c in imap.items():
        assert not dup.has_arc(x, c) and not dup.has_arc(c, x)
        assert dup.in_neighbors(c) == dup.in_neighbors(x) - {c}
        assert dup.out_neighbors(c) == dup.out_neighbors(x) - {c}


def test_force_cut_arcs_on_multi_cut_instance():
    d = multi_cut_instance()
    profile = cut_profile(d, 0)
    assert profile.multi_cut == {1}
    tree = bfs_branching(d, 0)
    forced = force_cut_arcs(d, 0, tree, profile.forced_arcs)
    assert profile.forced_arcs <= forced.arcs()
    assert len(forced.leaves()) >= len(tree.leaves())


def test_guaranteed_by_multi_cut_with_witness():
    d = multi_cut_instance()
    outcome = reduce_lob(d, 0, 1)
    assert isinstance(outcome, GuaranteedYes)
    assert outcome.reason == "multi_cut_count"
    res = solve_lob(d, 1, root=0)
    assert res.satisfiable
    validate_out_tree(d, res.witness, spanning=True)
    assert len(res.witness.leaves()) >= 1


def test_guaranteed_by_high_indegree_on_complete_digraph():
    n = 7
    arcs = [(i, j) for i in range(n) for j in range(n) if i != j]
    d = Digraph.of(n, arcs)
    outcome = reduce_lob(d, 0, 1)
    assert isinstance(outcome, GuaranteedYes)
    assert outcome.reason == "high_indegree_count"
    assert outcome.report.alpha == 6
    res = solve_lob(d, 1, root=0)
    assert res.satisfiable
    assert res.witness is not None
    assert len(res.witness.leaves()) >= 1


def test_guaranteed_by_nice_vertices_on_petal_instance():
    d = petal_instance()
    outcome = reduce_lob(d, 0, 1)
    assert isinstance(outcome, GuaranteedYes)
    assert outcome.reason == "nice_vertex_count"
    assert outcome.report.beta >= 24
    assert outcome.report.alpha < 6
    res = solve_lob(d, 1, root=0)
    assert res.satisfiable
    assert res.witness is not None


def test_pendant_contraction_reaches_rooted_2connected():
    checked = 0
    for d in random_corpus(60, seed=229, n_lo=4, n_hi=7, density=1.8):
        for r in sorted(d.vertices):
            if reachable(d, r) != d.vertices:
                continue
            reduced, _ = exhaust_stranding_contractions(d, r)
            profile = cut_profile(reduced, r)
            dup, _ = duplicate_multi_cut(reduced, profile.multi_cut)
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
                assert isinstance(outcome, Reduced)
                assert len(outcome.s_vertices) <= 120 * k
                residue = underlying_graph(
                    outcome.digraph.without_vertices(outcome.s_vertices))
                assert treewidth_upper_bound(residue) <= 2


def test_reduced_selected_set_excludes_imaginary_vertices():
    for d in random_corpus(30, seed=233, n_lo=4, n_hi=7, density=2.0):
        for r in sorted(d.vertices):
            if reachable(d, r) != d.vertices:
                continue
            outcome = reduce_lob(d, r, d.n)
            if isinstance(outcome, Reduced):
                assert outcome.s_vertices <= outcome.digraph.vertices


def test_expand_contraction_round_trip():
    d = Digraph.of(4, [(0, 1), (1, 2), (1, 3)])
    reduced, steps = exhaust_stranding_contractions(d, 0)
    assert len(steps) == 1 and steps[0][1] == (0, 1)
    tree = bfs_branching(reduced, 0)
    expanded = expand_through_steps(tree, steps)
    validate_out_tree(d, expanded, spanning=True)
    assert len(expanded.leaves()) >= len(tree.leaves())


def test_expand_prefers_head_side_children():
    # contracted tree has children that only the head could feed
    before = Digraph.of(4, [(0, 1), (1, 2), (1, 3), (0, 3)])
    from outbranching import contract_arc_directed
    after = contract_arc_directed(before, (0, 1))
    tree = bfs_branching(after, 0)
    expanded = expand_arc_contraction(tree, before, (0, 1))
    assert expanded.parents[2] == 1
    validate_out_tree(before, expanded, spanning=True)


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
