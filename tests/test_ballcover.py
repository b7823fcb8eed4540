import pytest

from outbranching import (Digraph, BudgetError, bfs_layers, brute_longest_path,
                          underlying_graph)
from outbranching import ballcover
from outbranching.ballcover import ball, solve_kpath_ballcover
from outbranching.generators import GeneratorSpec, generate, grid_spec
from outbranching.treedp import dp_longest_path
from helpers import grid_digraph, random_corpus


def test_ball_basics():
    path = Digraph.of(3, [(0, 1), (1, 2)])
    g = underlying_graph(path)
    assert ball(g, 1, 0) == {1}
    assert ball(g, 1, 1) == {0, 1, 2}
    assert ball(g, 0, 1) == {0, 1}
    assert ball(g, 0, 99) == {0, 1, 2}
    with pytest.raises(ValueError):
        ball(g, 0, -1)
    with pytest.raises(ValueError, match="center 3 not in graph"):
        ball(g, 3, 1)


def test_ball_stops_at_component():
    d = Digraph.of(4, [(0, 1), (2, 3)])
    g = underlying_graph(d)
    assert ball(g, 0, 5) == {0, 1}
    # the BFS ends with its frontier, not after radius rounds
    assert ball(g, 0, 10**9) == {0, 1}


def test_ball_matches_the_first_bfs_layers():
    graphs = [underlying_graph(grid_digraph(side, side, seed=side))
              for side in range(3, 9)]
    graphs += [underlying_graph(d) for d in random_corpus(20, seed=433)]
    for g in graphs:
        for center in g.vertices:
            layers, _ = bfs_layers(g, center)
            for radius in range(5):
                assert ball(g, center, radius) == frozenset().union(
                    *layers[:radius + 1]), (g.edges, center, radius)


class _CountingGraph:
    """An undirected graph that counts its neighbors lookups."""

    def __init__(self, graph):
        self.graph = graph
        self.vertices = graph.vertices
        self.lookups = 0

    def neighbors(self, v):
        self.lookups += 1
        return self.graph.neighbors(v)


def test_balls_cost_grows_linearly_on_paths(monkeypatch):
    # an alternating path has one-arc paths only, so k=3 visits every
    # subset and builds every center's ball (they are built lazily, each
    # the first time a subset needs it); a ball that stops at the radius
    # makes a fixed number of neighbors lookups, so 4x the vertices cost
    # 4x the lookups, while a whole-graph BFS per center costs 16x
    def lookups(n):
        counting = []

        def counting_ball(graph, center, radius):
            counting.append(_CountingGraph(graph))
            return ball(counting[-1], center, radius)

        monkeypatch.setattr(ballcover, "ball", counting_ball)
        path = Digraph.of(n, [(i, i + 1) if i % 2 == 0 else (i + 1, i) for i in range(n - 1)])
        res = solve_kpath_ballcover(path, 3, 1)
        assert not res.satisfiable and len(counting) == n
        return sum(g.lookups for g in counting)

    assert lookups(400) < 8 * lookups(100)


def test_balls_are_built_when_a_subset_first_needs_them(monkeypatch):
    # a yes at the first subset builds only its center's ball
    built = []

    def counting_ball(graph, center, radius):
        built.append(center)
        return ball(graph, center, radius)

    monkeypatch.setattr(ballcover, "ball", counting_ball)
    n = 500
    path = Digraph.of(n, [(i, i + 1) for i in range(n - 1)])
    res = solve_kpath_ballcover(path, 3, 1)
    assert res.satisfiable and res.stats["hit_subset"] == (0,)
    assert built == [0]


def test_radius_is_ceiling():
    path = Digraph.of(7, [(i, i + 1) for i in range(6)])
    for k, b, radius in ((5, 2, 3), (4, 2, 2), (1, 3, 1), (6, 1, 6)):
        res = solve_kpath_ballcover(path, k, b)
        assert res.stats["radius"] == radius


def test_directed_cycle_single_ball():
    cycle = Digraph.of(6, [(i, (i + 1) % 6) for i in range(6)])
    res = solve_kpath_ballcover(cycle, 5, 1)
    assert res.satisfiable
    assert len(res.witness) == 6
    for u, v in zip(res.witness, res.witness[1:]):
        assert cycle.has_arc(u, v)


def test_short_dag_path_says_no():
    path = Digraph.of(4, [(0, 1), (1, 2), (2, 3)])
    res = solve_kpath_ballcover(path, 4, 2)
    assert not res.satisfiable and res.witness is None
    assert solve_kpath_ballcover(path, 3, 2).satisfiable


def test_parameter_validation():
    d = Digraph.of(3, [(0, 1)])
    with pytest.raises(ValueError):
        solve_kpath_ballcover(d, 0, 1)
    with pytest.raises(ValueError):
        solve_kpath_ballcover(d, 2, 0)
    with pytest.raises(ValueError):
        solve_kpath_ballcover(d, 2, 4)


def test_budget_error():
    d = Digraph.of(12, [(i, i + 1) for i in range(11)])
    with pytest.raises(BudgetError):
        solve_kpath_ballcover(d, 3, 6, budget=10)


def test_k_above_n_minus_one_is_no_before_the_budget():
    # C(40, 5) = 658 008 subsets exceed the default budget, but no path
    # on 40 vertices has 40 arcs
    d = generate(GeneratorSpec("random-sparse", n=40, m=60, seed=0, p2=0.5))
    res = solve_kpath_ballcover(d, 40, 5)
    assert (res.satisfiable, res.witness) == (False, None)
    assert res.stats == {"radius": 8, "subsets": 0, "dp_runs": 0,
                         "cache_hits": 0, "skipped_small": 0,
                         "whole_graph": False, "hit_subset": None}
    with pytest.raises(BudgetError):
        solve_kpath_ballcover(d, 39, 5)


def test_full_subset_equals_whole_graph_dp():
    for d in random_corpus(25, seed=401, n_lo=3, n_hi=6, density=1.8):
        n = d.n
        want, _ = dp_longest_path(d)
        for k in (1, 2, 3):
            res = solve_kpath_ballcover(d, k, n)
            assert res.satisfiable == (want >= k), (d.arcs, k)


def test_matches_oracle_all_b():
    for d in random_corpus(40, seed=409, n_lo=3, n_hi=7, density=1.7):
        want, _ = brute_longest_path(d)
        for k in (1, 2, 3, 4):
            expect = want >= k
            for b in (1, 2, 3):
                if b > d.n:
                    continue
                res = solve_kpath_ballcover(d, k, b)
                assert res.satisfiable == expect, (d.arcs, k, b)
                if res.satisfiable:
                    assert len(res.witness) >= k + 1
                    seen = set(res.witness)
                    assert len(seen) == len(res.witness)


def test_monotone_in_region_growth():
    """If a small b finds the path, padding centers cannot lose it."""
    hits = 0
    for d in random_corpus(20, seed=419, n_lo=4, n_hi=7, density=2.0):
        res1 = solve_kpath_ballcover(d, 2, 1)
        if not res1.satisfiable or d.n < 2:
            continue
        res2 = solve_kpath_ballcover(d, 2, 2)
        assert res2.satisfiable
        hits += 1
    assert hits >= 8


def test_cover_lemma_on_oracle_paths():
    """Centers every radius steps along a real path cover it."""
    checked = 0
    for d in random_corpus(30, seed=421, n_lo=5, n_hi=8, density=1.6):
        k, _ = brute_longest_path(d)
        if k < 2:
            continue
        _, path = dp_longest_path(d)
        assert len(path) == k + 1
        for b in (2, 3):
            if b > d.n:
                continue
            radius = -(-k // b)
            centers = [path[min(i * radius, k)] for i in range(b)]
            g = underlying_graph(d)
            region = frozenset().union(
                *(ball(g, c, radius) for c in centers))
            assert set(path) <= region, (d.arcs, path, centers)
            checked += 1
    assert checked >= 10


def test_stats_reporting():
    # k=4 and b=2 give radius 2: on a 5-cycle the first region, around 0
    # and 1, is the whole cycle, so the whole digraph answers; on a
    # 9-cycle it misses 3 vertices, and the cover names its centers
    cycle = Digraph.of(5, [(i, (i + 1) % 5) for i in range(5)])
    res = solve_kpath_ballcover(cycle, 4, 2)
    assert res.satisfiable
    assert res.stats["whole_graph"] and res.stats["hit_subset"] is None
    assert res.stats["radius"] == 2
    cycle9 = Digraph.of(9, [(i, (i + 1) % 9) for i in range(9)])
    res = solve_kpath_ballcover(cycle9, 4, 2)
    assert res.satisfiable and not res.stats["whole_graph"]
    assert res.stats["hit_subset"] == (0, 1)
    # no path on 5 vertices has 5 arcs: "no" before any subset is walked
    no = solve_kpath_ballcover(cycle, 5, 5)
    assert not no.satisfiable
    assert no.stats["subsets"] == 0


def test_no_call_accounts_for_every_subset():
    # a zigzag's longest path has one arc; each subset is too small for
    # k=4, runs the DP, or lies inside a region whose DP fell short; on
    # 14 vertices no region of radius 2 comes within b=2 of the whole
    zigzag = Digraph.of(14, [(i, i + 1) if i % 2 == 0 else (i + 1, i) for i in range(13)])
    res = solve_kpath_ballcover(zigzag, 4, 2)
    assert not res.satisfiable
    s = res.stats
    assert s["skipped_small"] > 0 and s["cache_hits"] > 0 and s["dp_runs"] > 0
    assert s["dp_runs"] + s["cache_hits"] + s["skipped_small"] == s["subsets"] == 91
    assert (s["dp_runs"], s["cache_hits"], s["skipped_small"]) == (31, 58, 2)
    assert not s["whole_graph"]


def test_whole_graph_answers_when_the_first_region_misses_at_most_b():
    # on an undirected 8-path, k=6 and b=2 give radius 3: (0, 1) and
    # (0, 2) are too small, and (0, 3) covers 0..6, one vertex short
    path = Digraph.of(8, [(i, i + 1) for i in range(7)])
    res = solve_kpath_ballcover(path, 6, 2)
    assert res.satisfiable and res.witness in ([0, 1, 2, 3, 4, 5, 6, 7],
                                               [0, 1, 2, 3, 4, 5, 6],
                                               [1, 2, 3, 4, 5, 6, 7])
    assert res.stats == {"radius": 3, "subsets": 3, "dp_runs": 1,
                         "cache_hits": 0, "skipped_small": 2,
                         "whole_graph": True, "hit_subset": None}
    # reversing (3, 4) leaves no path longer than 3 arcs
    broken = Digraph.of(8, [(i, i + 1) if i != 3 else (4, 3) for i in range(7)])
    no = solve_kpath_ballcover(broken, 6, 2)
    assert not no.satisfiable and no.witness is None
    assert no.stats == res.stats


@pytest.mark.parametrize("side, k", [(5, 8), (6, 10)])
def test_grid_regions_that_miss_more_than_b_keep_the_cover(side, k):
    # the dp-grid benchmark shape (5x5, k=8) and the ladder's 6x6 k=10
    # row: the first region misses more than b=2 vertices, so the cover
    # runs and its first DP finds the path
    d = generate(grid_spec(side, p2=0.7))
    first = frozenset().union(*(ball(underlying_graph(d), c, -(-k // 2))
                                for c in (0, 1)))
    assert d.n - len(first) > 2
    res = solve_kpath_ballcover(d, k, 2)
    assert res.satisfiable and len(res.witness) >= k + 1
    s = res.stats
    assert (s["whole_graph"], s["dp_runs"], s["hit_subset"]) == (False, 1, (0, 1))


def test_a_whole_set_region_answers_without_walking_the_rest():
    # the ladder's 6x6 p2=0.5 k=35 row: the first region is the whole
    # vertex set, and its "no" ends the walk at the first of 630 subsets
    d = generate(grid_spec(6, p2=0.5))
    res = solve_kpath_ballcover(d, 35, 2)
    assert not res.satisfiable and res.witness is None
    assert res.stats == {"radius": 18, "subsets": 1, "dp_runs": 1,
                         "cache_hits": 0, "skipped_small": 0,
                         "whole_graph": True, "hit_subset": None}


def test_a_near_whole_region_after_failed_ones_answers():
    # random-sparse n=40, k=23, b=2: the first region (37 vertices) runs
    # and falls short, the next six lie inside it, and the eighth holds
    # 38 = n - b vertices, so one whole-digraph DP says "no" and the walk
    # stops at 8 of 780 subsets
    d = generate(GeneratorSpec("random-sparse", n=40, m=55, seed=2, p2=0.5))
    res = solve_kpath_ballcover(d, 23, 2)
    assert not res.satisfiable and res.witness is None
    assert res.stats == {"radius": 12, "subsets": 8, "dp_runs": 2,
                         "cache_hits": 6, "skipped_small": 0,
                         "whole_graph": True, "hit_subset": None}
