import random
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from outbranching import GeneratorSpec, UndirectedGraph, generate, treewidth, underlying_graph
from outbranching.treewidth import (
    EXACT_LIMIT,
    FORGET,
    INTRODUCE,
    JOIN,
    LEAF,
    _greedy_order,
    decomposition_from_ordering,
    exact_treewidth_small,
    greedy_decomposition,
    greedy_decomposition_within,
    make_nice,
    treewidth_upper_bound,
    validate_decomposition,
)
from helpers import brute_min_fill_order, component_width_bound, grid_graph, random_corpus


def path_graph(n):
    return UndirectedGraph.of(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return UndirectedGraph.of(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return UndirectedGraph.of(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_tree():
    return UndirectedGraph.of(6, [(0, 1), (0, 2), (0, 3), (3, 4), (3, 5)])


def test_exact_widths_frozen():
    assert exact_treewidth_small(star_tree())[0] == 1
    assert exact_treewidth_small(path_graph(7))[0] == 1
    assert exact_treewidth_small(cycle_graph(5))[0] == 2
    assert exact_treewidth_small(complete_graph(4))[0] == 3
    assert exact_treewidth_small(grid_graph(3, 3))[0] == 3


def test_exact_trivial_graphs():
    single = UndirectedGraph.of(1, [])
    w, td = exact_treewidth_small(single)
    assert w == 0
    validate_decomposition(single, td)
    empty = UndirectedGraph.of(0, [])
    w2, td2 = exact_treewidth_small(empty)
    assert w2 == -1
    validate_decomposition(empty, td2)


def test_exact_decompositions_are_valid_and_optimal_width():
    for g in [star_tree(), cycle_graph(6), complete_graph(5), grid_graph(3, 4)]:
        w, td = exact_treewidth_small(g)
        validate_decomposition(g, td)
        assert td.width == w


def test_exact_rejects_large_components():
    with pytest.raises(ValueError):
        exact_treewidth_small(path_graph(20))


def test_exact_handles_disconnected():
    g = UndirectedGraph.of(7, [(0, 1), (1, 2), (2, 0), (3, 4), (5, 6)])
    w, td = exact_treewidth_small(g)
    assert w == 2
    validate_decomposition(g, td)


def test_greedy_valid_on_random_corpus():
    for d in random_corpus(30, seed=7, n_lo=3, n_hi=9, density=2.0):
        g = underlying_graph(d)
        validate_decomposition(g, greedy_decomposition(g))


def test_greedy_exact_on_trees_and_cycles():
    assert greedy_decomposition(star_tree()).width == 1
    assert greedy_decomposition(cycle_graph(8)).width == 2
    assert greedy_decomposition(complete_graph(5)).width == 4


def test_greedy_five_grid_width_bound():
    td = greedy_decomposition(grid_graph(5, 5))
    validate_decomposition(grid_graph(5, 5), td)
    assert td.width <= 6


def test_greedy_within_factor_two_of_exact_small_sample():
    for d in random_corpus(15, seed=91, n_lo=4, n_hi=9, density=2.2):
        g = underlying_graph(d)
        exact_w, _ = exact_treewidth_small(g)
        greedy_w = greedy_decomposition(g).width
        assert exact_w <= greedy_w
        if exact_w >= 1:
            assert greedy_w <= 2 * exact_w


def test_upper_bound_mixes_exact_and_greedy():
    g = UndirectedGraph.of(6, [(0, 1), (1, 2), (3, 4), (4, 5), (3, 5)])
    assert treewidth_upper_bound(g) == 2
    assert treewidth_upper_bound(UndirectedGraph.of(0, [])) == -1
    assert treewidth_upper_bound(path_graph(30)) == 1


def decomposition_record(td):
    return sorted((i, sorted(bag)) for i, bag in td.bags.items()), sorted(td.edges)


@st.composite
def labelled_graphs(draw):
    """A graph on up to 16 distinct ids drawn from 0..999, so the ids are
    rarely contiguous, with any number of the possible edges."""
    ids = draw(st.lists(st.integers(0, 999), unique=True, max_size=16))
    pairs = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))) if pairs else []
    return UndirectedGraph(ids, edges)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(labelled_graphs())
@example(UndirectedGraph([], []))
@example(UndirectedGraph([7, 3, 12], []))
@example(UndirectedGraph([5, 9, 2, 40, 41], [(5, 9), (9, 2), (2, 5), (40, 41)]))
def test_min_fill_order_matches_full_rescan(g):
    order = brute_min_fill_order(g)
    assert [v for v, _ in _greedy_order(g)] == order
    assert (decomposition_record(greedy_decomposition(g))
            == decomposition_record(decomposition_from_ordering(g, order)))


def drawing(fn, *args):
    """fn(*args), and how many pairs it drew from the min-fill generator."""
    drawn = 0

    def counting(graph):
        nonlocal drawn
        for pair in _greedy_order(graph):
            drawn += 1
            yield pair

    with mock.patch.object(treewidth, "_greedy_order", counting):
        return fn(*args), drawn


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(labelled_graphs())
@example(UndirectedGraph([], []))
@example(UndirectedGraph([7, 3, 12], []))
@example(path_graph(16))
@example(UndirectedGraph(range(16), [(i, j) for i in range(16) for j in (i + 1, i + 5) if j < 16]))
@example(UndirectedGraph(range(18), [(i, j) for i in range(8) for j in range(i + 1, 8)]
                         + [(i, i + 1) for i in range(7, 17)]))
@example(grid_graph(8, 8))
def test_a_limited_elimination_stops_exactly_past_the_width(g):
    full = list(_greedy_order(g))
    width = max((len(nb) for _, nb in full), default=-1)
    assert width == greedy_decomposition(g).width
    # every limit from -1 (no vertex fits) to n (every vertex fits)
    for limit in range(-1, len(g.vertices) + 1):
        first_past = next((i for i, (_, nb) in enumerate(full) if len(nb) > limit), None)
        td, drawn = drawing(greedy_decomposition_within, g, limit)
        assert (td is None) == (width > limit), limit
        # the elimination stops at the first bag past the limit
        assert drawn == (len(full) if first_past is None else first_past + 1), limit
        if td is not None:
            assert decomposition_record(td) == decomposition_record(greedy_decomposition(g))
    # once the vertices left, minus one, are no more than the width so
    # far, no later neighbourhood is wider
    so_far, settled = -1, None
    for i, (_, nb) in enumerate(full):
        so_far = max(so_far, len(nb))
        if len(full) - i - 2 <= so_far:
            assert so_far == width, i
            settled = i if settled is None else settled
    bound, drawn = drawing(treewidth_upper_bound, g)
    assert bound == component_width_bound(g)
    if len(full) > EXACT_LIMIT and len(g.components()) == 1:
        # one min-fill component: the bound stops right there
        assert drawn == settled + 1


def contracted(g, rng, p):
    """Merge each vertex into a random neighbour's group with probability
    p; the groups keep their lowest id, so hubs appear and ids thin out."""
    group = {v: v for v in g.vertices}

    def find(v):
        while group[v] != v:
            v = group[v]
        return v

    for v in sorted(g.vertices):
        if rng.random() < p:
            a, b = find(v), find(rng.choice(sorted(g.neighbors(v))))
            group[max(a, b)] = min(a, b)
    edges = {(find(u), find(v)) for u, v in g.edges}
    return UndirectedGraph({find(v) for v in g.vertices},
                           [(u, v) for u, v in edges if u != v])


def test_min_fill_decomposition_matches_full_rescan_on_grids():
    grid = underlying_graph(generate(GeneratorSpec("grid", rows=18, cols=18, p2=0.7)))
    graphs = [grid] + [contracted(grid, random.Random(seed), 0.3) for seed in range(3)]
    for g in graphs:
        td = greedy_decomposition(g)
        validate_decomposition(g, td)
        assert (decomposition_record(td)
                == decomposition_record(decomposition_from_ordering(g, brute_min_fill_order(g))))
    assert max(len(g.neighbors(v)) for g in graphs[1:] for v in g.vertices) > 8


@pytest.mark.parametrize("order", [[0, 1], [0, 1, 1], [0, 1, 2, 2], [0, 1, 2, 3]])
def test_ordering_must_list_each_vertex_once(order):
    with pytest.raises(ValueError, match="exactly once"):
        decomposition_from_ordering(path_graph(3), order)


def test_ordering_decomposition_respects_ordering_quality():
    g = cycle_graph(4)
    td = decomposition_from_ordering(g, [0, 2, 1, 3])
    validate_decomposition(g, td)
    # eliminating opposite corners first fills in a chord
    assert td.width == 2


def check_nice_shapes(g, td, nice):
    """Replay the ops on a stack of subtree bags and check every shape."""
    assert nice.width <= td.width
    intro = set()
    forgotten = []
    stack = []
    for kind, v, bag in nice.ops:
        assert list(bag) == sorted(set(bag))
        if kind == LEAF:
            assert bag == () and v is None
        elif kind == INTRODUCE:
            child = stack.pop()
            assert set(bag) == child | {v}
            assert v not in child
            intro.add(v)
        elif kind == FORGET:
            child = stack.pop()
            assert set(bag) == child - {v}
            assert v in child
            forgotten.append(v)
        else:
            assert kind == JOIN and v is None
            a, b = stack.pop(), stack.pop()
            assert a == set(bag) and b == set(bag)
        stack.append(set(bag))
    assert stack == [set()]
    assert intro == set(g.vertices)
    assert sorted(forgotten) == sorted(g.vertices)
    validate_decomposition(g, nice.as_decomposition())


def test_make_nice_shapes():
    g = grid_graph(3, 3)
    w, td = exact_treewidth_small(g)
    check_nice_shapes(g, td, make_nice(td))


def test_make_nice_on_random_corpus():
    for d in random_corpus(20, seed=13, n_lo=3, n_hi=8, density=1.8):
        g = underlying_graph(d)
        td = greedy_decomposition(g)
        check_nice_shapes(g, td, make_nice(td))


def test_make_nice_single_empty_bag():
    from outbranching.treewidth import TreeDecomposition

    td = TreeDecomposition({0: frozenset()}, [])
    nice = make_nice(td)
    assert nice.ops == ((LEAF, None, ()),)
    assert nice.width == -1


def test_validate_catches_bad_decompositions():
    from outbranching.treewidth import TreeDecomposition

    g = path_graph(3)
    with pytest.raises(ValueError, match="coverage"):
        validate_decomposition(g, TreeDecomposition({0: {0, 1}}, []))
    with pytest.raises(ValueError, match="no bag"):
        validate_decomposition(g, TreeDecomposition({0: {0, 1}, 1: {2}}, [(0, 1)]))
    with pytest.raises(ValueError, match="not connected"):
        validate_decomposition(
            g,
            TreeDecomposition({0: {0, 1}, 1: {1, 2}, 2: {0}}, [(0, 1), (1, 2)]),
        )


def test_tree_decomposition_rejects_non_trees():
    from outbranching.treewidth import TreeDecomposition

    with pytest.raises(ValueError):
        TreeDecomposition({0: {0}, 1: {1}}, [])
    with pytest.raises(ValueError):
        TreeDecomposition({0: {0}, 1: {1}, 2: {2}}, [(0, 1), (1, 2), (2, 0)])
