import pytest

from outbranching import UndirectedGraph, underlying_graph
from outbranching.treewidth import (
    FORGET,
    INTRODUCE,
    JOIN,
    LEAF,
    decomposition_from_ordering,
    exact_treewidth_small,
    greedy_decomposition,
    make_nice,
    treewidth_upper_bound,
    validate_decomposition,
)
from helpers import grid_graph, random_corpus


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
        for heuristic in ("min_fill", "min_degree"):
            td = greedy_decomposition(g, heuristic)
            validate_decomposition(g, td)


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


def test_ordering_decomposition_respects_ordering_quality():
    g = cycle_graph(4)
    td = decomposition_from_ordering(g, [0, 2, 1, 3])
    validate_decomposition(g, td)
    # eliminating opposite corners first fills in a chord
    assert td.width == 2


def test_make_nice_shapes():
    g = grid_graph(3, 3)
    w, td = exact_treewidth_small(g)
    nice = make_nice(td)
    assert nice.root.bag == frozenset()
    assert nice.width <= td.width
    intro = set()
    forgotten = []
    for node in nice.post_order():
        if node.kind == LEAF:
            assert node.bag == frozenset()
        elif node.kind == INTRODUCE:
            (child,) = node.children
            assert node.bag == child.bag | {node.vertex}
            assert node.vertex not in child.bag
            intro.add(node.vertex)
        elif node.kind == FORGET:
            (child,) = node.children
            assert node.bag == child.bag - {node.vertex}
            forgotten.append(node.vertex)
        else:
            assert node.kind == JOIN
            a, b = node.children
            assert a.bag == node.bag and b.bag == node.bag
    assert intro == set(g.vertices)
    validate_decomposition(g, nice.as_decomposition())


def test_make_nice_on_random_corpus():
    for d in random_corpus(20, seed=13, n_lo=3, n_hi=8, density=1.8):
        g = underlying_graph(d)
        td = greedy_decomposition(g)
        nice = make_nice(td)
        assert nice.width <= td.width
        validate_decomposition(g, nice.as_decomposition())


def test_make_nice_single_empty_bag():
    from outbranching.treewidth import TreeDecomposition

    td = TreeDecomposition({0: frozenset()}, [])
    nice = make_nice(td)
    assert nice.root.kind == LEAF
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
