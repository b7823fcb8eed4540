"""Property-based differential tests of the three solvers.

Random small digraphs, a drawn root (or none, which scans every root) and
a drawn k; every answer must match the brute-force oracle and every "yes"
must carry a witness that meets k: a spanning out-tree for the two
out-branching solvers, a simple directed path for the k-path solver.
The k-path solver's two shortcuts get their own oracles: the path DP that
returns None short of a target length and otherwise stops at its first
path of that length, and the skip of ball regions that lie inside
a failed one, which must not change the first region that succeeds.
The checks that guard a returned "yes" raise DPInvariantError when a
witness falls short; `tests/test_optimize.py` runs this file under
python -O, where an assert in their place would vanish.
"""

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from outbranching import (
    DPInvariantError,
    Digraph,
    OutTree,
    ballcover,
    brute_longest_path,
    brute_max_internal,
    brute_max_leaves,
    internal_pipeline,
    leaf_pipeline,
    solve_iob,
    solve_kpath_ballcover,
    solve_lob,
    underlying_graph,
    validate_out_tree,
)
from outbranching.treedp import dp_longest_path


@st.composite
def solver_cases(draw):
    """A digraph on at most 6 vertices, a root or None, and k in 1..n.

    Every vertex after the first in a drawn order gets an in-arc from an
    earlier one, so the first reaches everything; more arcs come on top.
    """
    n = draw(st.integers(1, 6))
    order = draw(st.permutations(range(n)))
    arcs = {(order[draw(st.integers(0, i - 1))], order[i])
            for i in range(1, n)}
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    if pairs:
        arcs |= set(draw(st.lists(st.sampled_from(pairs), max_size=2 * n)))
    root = draw(st.none() | st.integers(0, n - 1))
    k = draw(st.integers(1, n))
    return Digraph.of(n, arcs), root, k


def _check(d, root, k, res, oracle, count):
    roots = [root] if root is not None else sorted(d.vertices)
    hits = [r for r in roots if (oracle(d, r) or 0) >= k]
    assert res.satisfiable == bool(hits), (d.arcs, root, k)
    if not hits:
        assert res.witness is None
        return
    assert res.root == hits[0]
    tree = res.witness
    assert tree is not None and tree.root == res.root
    validate_out_tree(d, tree, spanning=True)
    assert count(tree) >= k


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(solver_cases())
def test_solve_lob_matches_oracle(case):
    d, root, k = case
    res = solve_lob(d, k, root=root, witness=True)
    _check(d, root, k, res, brute_max_leaves, lambda t: len(t.leaves()))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(solver_cases())
def test_solve_iob_matches_oracle(case):
    d, root, k = case
    res = solve_iob(d, k, root=root, witness=True)
    _check(d, root, k, res, brute_max_internal,
           lambda t: len(t.internal_vertices()))


@st.composite
def kpath_cases(draw):
    """Any digraph on at most 7 vertices, k in 1..n and b in 1..n."""
    n = draw(st.integers(1, 7))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = set()
    if pairs:
        arcs = set(draw(st.lists(st.sampled_from(pairs), max_size=3 * n)))
    k = draw(st.integers(1, n))
    b = draw(st.integers(1, n))
    return Digraph.of(n, arcs), k, b


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(kpath_cases())
def test_solve_kpath_matches_oracle(case):
    d, k, b = case
    res = solve_kpath_ballcover(d, k, b)
    longest, _ = brute_longest_path(d)
    assert res.satisfiable == (longest >= k), (d.arcs, k, b)
    if not res.satisfiable:
        assert res.witness is None
        return
    path = res.witness
    assert len(set(path)) == len(path), path
    assert all(d.has_arc(u, v) for u, v in zip(path, path[1:])), path
    assert len(path) - 1 >= k


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(kpath_cases())
def test_dp_longest_path_stops_at_target(case):
    d, k, _ = case
    longest, _ = brute_longest_path(d)
    best = dp_longest_path(d, target=k)
    if longest < k:
        assert best is None, (d.arcs, k, best)
        return
    assert best is not None, (d.arcs, k)
    count, path = best
    assert len(path) == count + 1 and len(set(path)) == len(path), path
    assert all(d.has_arc(u, v) for u, v in zip(path, path[1:])), path
    assert k <= count <= longest, (d.arcs, k, count)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(kpath_cases())
def test_solve_kpath_hits_the_first_subset_of_a_brute_scan(case):
    d, k, b = case
    regions = _cover_regions(d, k, b)
    hit = next((centers for centers, region in regions
                if brute_longest_path(d.induced(region))[0] >= k), None)
    res = solve_kpath_ballcover(d, k, b)
    assert res.satisfiable == (hit is not None), (d.arcs, k, b)
    whole = _whole_graph_rule(d, k, b, regions)
    assert res.stats["whole_graph"] == whole, (d.arcs, k, b)
    assert res.stats["hit_subset"] == (None if whole else hit), (d.arcs, k, b)


def _cover_regions(d, k, b):
    """(centers, region) for every b-subset, in the solver's order."""
    radius = -(-k // b)
    g = underlying_graph(d)
    return [(centers, frozenset().union(*(ballcover.ball(g, c, radius) for c in centers)))
            for centers in combinations(sorted(d.vertices), b)]


def _whole_graph_rule(d, k, b, regions):
    """Whether a brute walk of the cover meets a region left to run with
    at least n - b vertices before any region holds a k-arc path: regions
    too small for k arcs, or inside one whose longest path falls short,
    are not left to run."""
    failed = []
    for _, region in regions:
        if len(region) < k + 1 or any(region <= f for f in failed):
            continue
        if len(region) >= d.n - b:
            return True
        if brute_longest_path(d.induced(region))[0] >= k:
            return False
        failed.append(region)
    return False


@st.composite
def kpath_route_cases(draw):
    """A digraph on 2..8 vertices whose underlying graph is connected, b,
    and a k drawn on a drawn side of the whole-graph rule, where that
    side has any k."""
    n = draw(st.integers(2, 8))
    order = draw(st.permutations(range(n)))
    arcs = set()
    for i in range(1, n):
        u, v = order[draw(st.integers(0, i - 1))], order[i]
        arcs.add(draw(st.sampled_from([(u, v), (v, u)])))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs |= set(draw(st.lists(st.sampled_from(pairs), max_size=n)))
    d = Digraph.of(n, arcs)
    b = draw(st.integers(1, min(n, 3)))
    whole = draw(st.booleans())
    ks = [k for k in range(1, n)
          if _whole_graph_rule(d, k, b, _cover_regions(d, k, b)) == whole]
    k = draw(st.sampled_from(ks or range(1, n)))
    return d, k, b


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(kpath_route_cases())
def test_solve_kpath_answers_on_both_routes(case):
    d, k, b = case
    res = solve_kpath_ballcover(d, k, b)
    s = res.stats
    assert s["whole_graph"] == _whole_graph_rule(d, k, b, _cover_regions(d, k, b))
    assert s["dp_runs"] + s["cache_hits"] + s["skipped_small"] == s["subsets"]
    longest, _ = brute_longest_path(d)
    assert res.satisfiable == (longest >= k), (d.arcs, k, b)
    if not res.satisfiable:
        assert res.witness is None
        return
    path = res.witness
    assert len(set(path)) == len(path), path
    assert all(d.has_arc(u, v) for u, v in zip(path, path[1:])), path
    assert len(path) - 1 >= k


K4 = Digraph.of(4, [(u, v) for u in range(4) for v in range(4) if u != v])
# a spanning path of K4: one leaf, three internal vertices
K4_PATH = OutTree(0, {1: 0, 2: 1, 3: 2})


def test_lob_yes_guards_raise(monkeypatch):
    monkeypatch.setattr(leaf_pipeline, "expand_through_steps",
                        lambda tree, steps: K4_PATH)
    with pytest.raises(DPInvariantError, match="1 leaves, fewer than 3"):
        solve_lob(K4, 3, root=0)

    def guaranteed(digraph, root, k):
        report = leaf_pipeline.StructureReport(
            root, k, outcome="guaranteed", reason="high_indegree_count")
        return leaf_pipeline.Reduction(report, digraph, [], None)

    monkeypatch.setattr(leaf_pipeline, "reduce_lob", guaranteed)
    monkeypatch.setattr(leaf_pipeline, "_dp_witness",
                        lambda o: (o.report.k - 1, K4_PATH))
    with pytest.raises(DPInvariantError, match="solved to 2 < 3"):
        solve_lob(K4, 3, root=0)
    monkeypatch.setattr(leaf_pipeline, "_dp_witness",
                        lambda o: (o.report.k, K4_PATH))
    with pytest.raises(DPInvariantError, match="1 leaves, fewer than 3"):
        solve_lob(K4, 3, root=0)


def test_lob_multi_cut_guard_raises(monkeypatch):
    # 1 alone feeds 3 and 4, so the outcome is multi_cut_count; a path
    # has one leaf, enough for k = 1 but not for one multi-cut vertex
    d = Digraph.of(5, [(0, 1), (0, 2), (2, 1), (1, 3), (1, 4), (3, 4)])
    (report,) = solve_lob(d, 1, root=0).reports
    assert (report.reason, report.multi_cut_count) == ("multi_cut_count", 1)
    monkeypatch.setattr(leaf_pipeline, "bfs_branching",
                        lambda digraph, root: OutTree(0, {2: 0, 1: 2, 3: 1, 4: 3}))
    with pytest.raises(DPInvariantError,
                       match="forced witness has 1 leaves for 1 multi-cut vertices"):
        solve_lob(d, 1, root=0)


def test_lob_reachability_guards_raise(monkeypatch):
    monkeypatch.setattr(leaf_pipeline, "dp_max_leaves", lambda *args, **kwargs: None)
    with pytest.raises(DPInvariantError, match="a reduced instance is not fully reachable"):
        solve_lob(K4, 3, root=0)
    k7 = Digraph.of(7, [(u, v) for u in range(7) for v in range(7) if u != v])
    with pytest.raises(DPInvariantError, match="a guaranteed instance is not fully reachable"):
        solve_lob(k7, 1, root=0)


def test_iob_yes_guard_raises(monkeypatch):
    star = OutTree(0, {1: 0, 2: 0, 3: 0})
    monkeypatch.setattr(internal_pipeline, "expand_minimal_tree",
                        lambda digraph, root, tree: star)
    with pytest.raises(DPInvariantError, match="1 internal vertices, fewer than 2"):
        solve_iob(K4, 2, root=0)


def test_kpath_yes_guard_raises(monkeypatch):
    monkeypatch.setattr(ballcover, "dp_longest_path",
                        lambda d, target=None: (2, [0, 2, 1]))
    with pytest.raises(DPInvariantError, match=r"\(0, 2\), not an arc"):
        solve_kpath_ballcover(Digraph.of(3, [(0, 1), (1, 2)]), 2, 1)


# each path below is made of digraph arcs
@pytest.mark.parametrize("path, message", [
    ([0, 1], "has 1 arcs, fewer than 2"),
    ([0, 1, 0], "repeats a vertex"),
])
def test_kpath_yes_guard_checks_length_and_repeats(monkeypatch, path, message):
    monkeypatch.setattr(ballcover, "dp_longest_path",
                        lambda d, target=None: (2, path))
    with pytest.raises(DPInvariantError, match=message):
        solve_kpath_ballcover(Digraph.of(3, [(0, 1), (1, 0), (1, 2)]), 2, 1)
