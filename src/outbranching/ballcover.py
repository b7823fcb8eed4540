"""Long directed paths found through undirected ball covers.

A directed path with k arcs visits k+1 vertices, and consecutive path
vertices are adjacent in the underlying undirected graph.  Walking the
path and dropping a center every ceil(k/b) steps covers its whole vertex
set with at most b balls of radius ceil(k/b).  So the digraph has a
k-arc path exactly when, for some b-subset of vertices, the subdigraph
induced by the union of their balls has one; the solver walks the
b-subsets in ascending order and runs the path DP on the induced pieces.

Every piece is an induced subdigraph of the input, so one DP on the
whole digraph decides the same question.  The cover pays off only when
its pieces are much smaller than the input, so a piece that would run
and misses at most b vertices is not run: the solver runs the path DP
once on the whole digraph instead, and its answer, yes or no, ends the
walk.

The pieces nest: when region R lies inside region F, the subdigraph
induced by R is an induced subdigraph of the one induced by F, so every
path in R is a path in F.  Once F's longest path falls short of k, no
region inside F can reach k, and the solver skips it without a DP.  The
regions that still run keep their lexicographic order, so the first one
to reach k, and the answer, do not depend on the skip.  The DP on a
region drops every state that cannot reach k arcs and stops at its
first path of k arcs.

Choosing b trades enumeration against DP difficulty: small b means few
subsets but big pieces, large b many subsets of shallow pieces.  On
graph families whose treewidth shrinks with ball radius the pieces stay
thin; b is taken as an explicit parameter here, with no attempt to pick
it from the family's hidden constants.
"""

import math
from collections import namedtuple
from itertools import combinations

from .digraph import underlying_graph
from .errors import DEFAULT_BUDGET, BudgetError, DPInvariantError
from .treedp import dp_longest_path


def ball(graph, center, radius):
    """Vertices within undirected distance ``radius`` of ``center``."""
    if radius < 0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    if center not in graph.vertices:
        raise ValueError(f"center {center} not in graph")
    seen, frontier = {center}, {center}
    for _ in range(radius):
        frontier = {y for x in frontier for y in graph.neighbors(x)} - seen
        if not frontier:
            break
        seen |= frontier
    return frozenset(seen)


PathSearchResult = namedtuple("PathSearchResult", "satisfiable witness stats")


def solve_kpath_ballcover(digraph, k, b, budget=DEFAULT_BUDGET):
    """Decide whether the digraph has a directed path with >= k arcs.

    Tries every b-subset of vertices in ascending order, induces the
    union of their radius-ceil(k/b) balls, and runs the treewidth path
    DP there, unless the region is too small for k arcs or lies inside
    a region whose DP fell short of k.  Each ball is built the first
    time a subset needs it.  A region that would run and misses at most
    b vertices is not run: one DP on the whole digraph answers instead,
    yes or no, and the walk stops there.
    Exact for every b between 1 and n.  A k above n - 1 is a "no" at
    once, since no path has more arcs; otherwise the subset count is
    checked against the budget up front, whichever way the call goes.
    A "yes" path is checked against the digraph before it is returned:
    distinct vertices, consecutive ones joined by arcs, at least k arcs.

    stats counts the subsets walked, the DP runs, the regions skipped
    inside a failed region (cache_hits) and those skipped as too small;
    the last three add up to the first.  whole_graph tells whether the
    whole digraph answered, and hit_subset names the centers whose
    region held the path (None on a "no" and when whole_graph is set).
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    n = digraph.n
    if not 1 <= b <= n:
        raise ValueError(f"b must be in 1..{n}, got {b}")
    radius = -(-k // b)
    stats = {
        "radius": radius,
        "subsets": 0,
        "dp_runs": 0,
        "cache_hits": 0,
        "skipped_small": 0,
        "whole_graph": False,
        "hit_subset": None,
    }
    if k > n - 1:
        return PathSearchResult(False, None, stats)
    total = math.comb(n, b)
    if total > budget:
        raise BudgetError("ball-cover subsets", total, budget)
    graph = underlying_graph(digraph)
    balls = {}
    # regions whose DP fell short of k, none inside another
    failed = []
    for centers in combinations(sorted(digraph.vertices), b):
        stats["subsets"] += 1
        for c in centers:
            if c not in balls:
                balls[c] = ball(graph, c, radius)
        region = frozenset().union(*(balls[c] for c in centers))
        if len(region) < k + 1:
            stats["skipped_small"] += 1
            continue
        if any(region <= f for f in failed):
            stats["cache_hits"] += 1
            continue
        stats["dp_runs"] += 1
        whole = stats["whole_graph"] = len(region) >= n - b
        best = dp_longest_path(digraph if whole else digraph.induced(region), target=k)
        if best is None:
            if whole:
                break
            failed = [f for f in failed if not f <= region]
            failed.append(region)
            continue
        if not whole:
            stats["hit_subset"] = centers
        path = best[1]
        if len(set(path)) < len(path):
            raise DPInvariantError(f"path witness {path} repeats a vertex")
        if len(path) - 1 < k:
            raise DPInvariantError(
                f"path witness has {len(path) - 1} arcs, fewer than {k}")
        for u, v in zip(path, path[1:]):
            if not digraph.has_arc(u, v):
                raise DPInvariantError(f"path witness uses ({u}, {v}), not an arc")
        return PathSearchResult(True, list(path), stats)
    return PathSearchResult(False, None, stats)
