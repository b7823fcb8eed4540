import pytest

from outbranching import underlying_graph
from outbranching.generators import GeneratorSpec, generate, grid_spec


def test_two_by_two_all_bidirected():
    d = generate(GeneratorSpec("grid", rows=2, cols=2, seed=1, p2=1.0))
    assert d.n == 4
    assert d.m == 8
    for u, v in d.arcs:
        assert d.has_arc(v, u)


def test_same_seed_same_digraph():
    spec = GeneratorSpec("grid", rows=3, cols=4, seed=9, p2=0.5)
    again = GeneratorSpec("grid", rows=3, cols=4, seed=9, p2=0.5)
    assert generate(spec).arcs == generate(again).arcs
    other = GeneratorSpec("grid", rows=3, cols=4, seed=10, p2=0.5)
    assert generate(spec).arcs != generate(other).arcs


def test_grid_underlying_graph_is_planar_sized():
    for side in (2, 3, 4, 5):
        for seed in (0, 1, 2):
            d = generate(grid_spec(side, seed=seed, p2=0.4))
            g = underlying_graph(d)
            n, m = g.n, g.m
            assert n == side * side
            assert m == 2 * side * (side - 1)
            if n >= 3:
                assert m <= 3 * n - 6


def test_p2_extremes():
    one_way = generate(GeneratorSpec("grid", rows=3, cols=3, seed=4, p2=0.0))
    for u, v in one_way.arcs:
        assert not one_way.has_arc(v, u)
    assert one_way.m == 12
    both = generate(GeneratorSpec("grid", rows=3, cols=3, seed=4, p2=1.0))
    assert both.m == 24


def test_random_sparse_edge_count():
    spec = GeneratorSpec("random-sparse", n=8, m=10, seed=3, p2=0.5)
    d = generate(spec)
    assert d.n == 8
    assert underlying_graph(d).m == 10
    assert generate(spec).arcs == d.arcs


def test_spec_validation():
    with pytest.raises(ValueError):
        GeneratorSpec("hexagon", rows=2, cols=2)
    with pytest.raises(ValueError):
        GeneratorSpec("grid", rows=0, cols=3)
    with pytest.raises(ValueError):
        GeneratorSpec("grid", rows=2, cols=2, p2=1.5)
    with pytest.raises(ValueError):
        GeneratorSpec("random-sparse", n=4, m=7)
    with pytest.raises(ValueError):
        GeneratorSpec("random-sparse", n=None, m=2)
