import pytest
from hypothesis import given, settings, strategies as st

from outbranching import (
    Digraph,
    arcs_disconnecting_two,
    cut_profile,
    high_indegree_vertices,
    is_rooted_2connected,
    nice_vertices,
    reachable,
)
from outbranching.connectivity import _idoms
from helpers import (
    brute_arcs_disconnecting_two,
    brute_cut_profile,
    brute_idoms,
    brute_is_rooted_2connected,
    grid_digraph,
    labelled_digraphs,
    random_corpus,
)


def bidirected_cycle(n):
    arcs = []
    for i in range(n):
        arcs.extend([(i, (i + 1) % n), ((i + 1) % n, i)])
    return Digraph.of(n, arcs)


def test_reachable_plain_and_with_removals():
    d = Digraph.of(5, [(0, 1), (1, 2), (2, 3), (0, 4)])
    assert reachable(d, 0) == {0, 1, 2, 3, 4}
    assert reachable(d.without_vertices({1}), 0) == {0, 4}
    assert reachable(d.without_arcs({(0, 1)}), 0) == {0, 4}
    assert reachable(d, 3) == {3}


def test_rooted_2connected_on_bidirected_cycle():
    d = bidirected_cycle(4)
    for r in range(4):
        assert is_rooted_2connected(d, r)


def test_rooted_2connected_fails_on_path():
    d = Digraph.of(3, [(0, 1), (1, 2)])
    assert not is_rooted_2connected(d, 0)


def test_rooted_2connected_requires_reachability():
    d = Digraph.of(3, [(0, 1)])
    with pytest.raises(ValueError):
        is_rooted_2connected(d, 0)


def test_cut_profile_simple_chain():
    # 0 -> 1 -> {2, 3}: vertex 1 strands both of its out-neighbors
    d = Digraph.of(4, [(0, 1), (1, 2), (1, 3)])
    prof = cut_profile(d, 0)
    assert prof.stranded == {1: {2, 3}}
    assert prof.multi_cut == {1}
    assert prof.single_cut == frozenset()
    assert prof.pendant_arcs == frozenset()


def test_cut_profile_single_cut_vertex():
    # 1 strands only 2; 2 is reachable no other way
    d = Digraph.of(4, [(0, 1), (0, 3), (3, 1), (1, 2)])
    prof = cut_profile(d, 0)
    assert prof.single_cut == {1}
    assert prof.pendant_arcs == {(1, 2)}
    assert prof.multi_cut == frozenset()


def test_cut_profile_empty_on_2connected():
    d = bidirected_cycle(5)
    prof = cut_profile(d, 0)
    assert prof.stranded == {}
    assert prof.multi_cut == prof.single_cut == frozenset()
    assert prof.pendant_arcs == frozenset()


def test_nice_vertices_definition():
    # 0 -> 1 one-way makes 1 nice; 1 <-> 2 alone does not make 2 nice
    d = Digraph.of(3, [(0, 1), (1, 2), (2, 1)])
    assert nice_vertices(d) == {1}


def test_nice_vertices_none_on_bidirected():
    assert nice_vertices(bidirected_cycle(6)) == frozenset()


def test_high_indegree_threshold():
    d = Digraph.of(5, [(1, 0), (2, 0), (3, 0), (4, 0), (0, 1), (2, 1)])
    assert high_indegree_vertices(d) == {0}


def test_arcs_disconnecting_two_chain():
    # removing (0, 1) strands {1, 2, 3}; removing (1, 2) strands {2, 3}
    d = Digraph.of(4, [(0, 1), (1, 2), (2, 3)])
    assert arcs_disconnecting_two(d, 0) == {(0, 1), (1, 2)}


def test_arcs_disconnecting_two_empty_on_2connected():
    assert arcs_disconnecting_two(bidirected_cycle(5), 0) == frozenset()
    assert arcs_disconnecting_two(grid_digraph(3, 3), 0) == frozenset()


def test_arcs_disconnecting_two_matches_brute_force():
    checked = 0
    for d in random_corpus(60, seed=19, n_lo=4, n_hi=9, density=1.8):
        for r in sorted(d.vertices):
            assert arcs_disconnecting_two(d, r) == brute_arcs_disconnecting_two(d, r)
            checked += 1
    assert checked > 100


def test_cut_profile_forced_arc_heads_are_disjoint_after_no_precondition():
    # structural sanity on random reachable instances: stranded sets are
    # out-neighbor subsets
    for d in random_corpus(40, seed=23, n_lo=4, n_hi=8, density=2.2):
        for r in sorted(d.vertices):
            if reachable(d, r) != d.vertices:
                continue
            prof = cut_profile(d, r)
            for x, ys in prof.stranded.items():
                assert ys <= d.out_neighbors(x)
                assert x not in ys


@st.composite
def small_digraphs(draw):
    """A digraph on at most 9 vertices; from many of its roots some vertex
    is unreachable."""
    n = draw(st.integers(1, 9))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=n - 1,
                         max_size=min(3 * n, len(pairs)))) if pairs else []
    return Digraph.of(n, arcs)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(small_digraphs())
def test_dominator_answers_match_sweeps(d):
    for r in sorted(d.vertices):
        assert arcs_disconnecting_two(d, r) == brute_arcs_disconnecting_two(d, r)
        if reachable(d, r) != d.vertices:
            for fn in (cut_profile, is_rooted_2connected):
                with pytest.raises(ValueError, match="unreachable from root"):
                    fn(d, r)
            continue
        assert cut_profile(d, r)._asdict() == brute_cut_profile(d, r)
        assert is_rooted_2connected(d, r) == brute_is_rooted_2connected(d, r)


def test_dominator_answers_match_sweeps_on_corpora():
    checked = 0
    corpus = random_corpus(60, seed=29, n_lo=4, n_hi=9, density=2.2)
    corpus += [grid_digraph(4, 4, seed=s, both_ways_prob=0.6) for s in range(6)]
    for d in corpus:
        for r in sorted(d.vertices):
            if reachable(d, r) != d.vertices:
                continue
            assert cut_profile(d, r)._asdict() == brute_cut_profile(d, r)
            assert is_rooted_2connected(d, r) == brute_is_rooted_2connected(d, r)
            checked += 1
    assert checked > 100


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(labelled_digraphs())
def test_idoms_match_definition(d):
    for r in sorted(d.vertices):
        assert _idoms(d, r) == brute_idoms(d, r)
