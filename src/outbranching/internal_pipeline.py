"""Solver for spanning out-trees with many internal vertices.

The decision question: does the digraph have a spanning out-tree rooted
at r in which at least k vertices have a child?  The search never looks
at spanning trees directly.  A spanning out-tree with k internal
vertices can be pruned, leaf by leaf, down to a small witness: an
r-out-tree with exactly k internal vertices in which every leaf is an
only child.  Such a tree has at most max(2, 2k-1) vertices, and
conversely any r-out-tree with k internal vertices grows back into a
spanning out-tree without losing internal vertices as long as the whole
digraph is reachable from r.  So the solver hunts for a small witness
tree.

To keep the dynamic program cheap on layered inputs, the vertex set is
split by breadth-first depth into ceil(sqrt(k))+1 interleaved classes.
A witness tree is small, so it meets some class in at most
ceil(2*sqrt(k)) vertices; deleting the rest of that class leaves a
shallow digraph that still contains the witness.  The solver enumerates
every (class, kept-subset) choice and runs the internal-DP on each
residual digraph, capped at the witness size when the digraph is larger.
The cap loses no answer and keeps the DP polynomial in the bag width.
"""

import math
from itertools import combinations

from .digraph import (SearchResult, bfs_layers, underlying_graph,
                      validate_out_tree, witness_tree)
from .connectivity import reachable
from .errors import BudgetError, DPInvariantError
from .treedp import dp_max_internal_outtree

DEFAULT_COLLECTION_BUDGET = 200000


def ceil_sqrt(n):
    """Smallest integer whose square is >= n."""
    assert n >= 0
    if n == 0:
        return 0
    return math.isqrt(n - 1) + 1


def witness_size_cap(k):
    """Largest vertex count a pruned witness tree with k internal needs.

    A tree with exactly k >= 2 internal vertices and every leaf an only
    child has at most k-1 leaves, so at most 2k-1 vertices.  For k = 1
    the witness is a root plus one child, which is 2 vertices, not 1.
    """
    assert k >= 1
    return max(2, 2 * k - 1)


class SingleInstance:
    """Marker: the digraph is shallow enough to solve in one piece."""

    __slots__ = ("root", "depth")
    size = 1

    def __init__(self, root, depth):
        self.root = root
        self.depth = depth


class LayerPartition:
    """Interleaved depth classes; size counts the plan's sub-instances."""

    __slots__ = ("root", "parts", "spacing", "size")

    def __init__(self, root, layers, parts, spacing, k):
        assert spacing >= 2
        self.root = root
        self.parts = parts
        self.spacing = spacing
        zcap = ceil_sqrt(4 * k)
        self.size = 0
        seen = set()
        for part in parts:
            assert not (part & seen)
            seen |= part
            if root in part:
                pool = len(part) - 1
                room = zcap - 1
            else:
                pool = len(part)
                room = zcap
            self.size += sum(math.comb(pool, j)
                             for j in range(min(pool, room) + 1))
        assert seen == frozenset().union(*layers)


class SubInstance:
    """One residual digraph from the layered collection."""

    __slots__ = ("digraph", "root", "k", "part_index", "kept")

    def __init__(self, digraph, root, k, part_index, kept):
        self.digraph = digraph
        self.root = root
        self.k = k
        self.part_index = part_index
        self.kept = frozenset(kept)
        assert root in digraph.vertices
        if part_index is not None:
            assert len(self.kept) <= ceil_sqrt(4 * k)
            assert self.kept <= digraph.vertices


def build_partitions(graph, root, k):
    """Split an undirected graph into interleaved depth classes.

    Requires every vertex reachable from root.  Returns SingleInstance
    when the BFS depth is at most ceil(sqrt(k)); otherwise a
    LayerPartition whose parts collect the layers of each residue class
    modulo ceil(sqrt(k))+1.
    """
    assert k >= 1
    layers, stranded = bfs_layers(graph, root)
    assert not stranded, "build_partitions needs a connected input"
    depth = len(layers) - 1
    limit = ceil_sqrt(k)
    if depth <= limit:
        return SingleInstance(root, depth)
    spacing = limit + 1
    parts = []
    for q in range(spacing):
        block = frozenset().union(*layers[q::spacing])
        parts.append(block)
    return LayerPartition(root, layers, parts, spacing, k)


def generate_collection(digraph, k, plan, budget=DEFAULT_COLLECTION_BUDGET):
    """Yield every sub-instance of a build_partitions plan, lazily.

    The plan's closed-form size is checked before anything is built;
    past the budget a BudgetError is raised instead of truncating.
    """
    root = plan.root
    if isinstance(plan, SingleInstance):
        yield SubInstance(digraph, root, k, None, frozenset())
        return
    if budget is not None and plan.size > budget:
        raise BudgetError("layered collection", plan.size, budget)
    zcap = ceil_sqrt(4 * k)
    for a, part in enumerate(plan.parts):
        pool = sorted(part - {root})
        base = frozenset({root}) if root in part else frozenset()
        room = zcap - len(base)
        for size in range(min(len(pool), room) + 1):
            for combo in combinations(pool, size):
                z = base | frozenset(combo)
                keep = (digraph.vertices - part) | z
                yield SubInstance(digraph.induced(keep), root, k, a, z)


def expand_minimal_tree(digraph, root, tree):
    """Grow an r-out-tree into a spanning out-tree of the digraph.

    Every vertex must be reachable from root.  Uncovered vertices are
    attached breadth-first as children of already covered ones, so every
    arc of the input tree survives and no internal vertex turns into a
    leaf.
    """
    missing = sorted(digraph.vertices - reachable(digraph, root))
    if missing:
        raise ValueError(f"vertices {missing} are unreachable from {root}")
    validate_out_tree(digraph, tree)
    if tree.root != root:
        raise ValueError(f"tree is rooted at {tree.root}, not {root}")
    parents = dict(tree.parents)
    covered = set(tree.vertex_set)
    before = len(tree.internal_vertices())
    queue = sorted(covered)
    while queue:
        nxt = []
        for u in queue:
            for w in sorted(digraph.out_neighbors(u)):
                if w not in covered:
                    covered.add(w)
                    parents[w] = u
                    nxt.append(w)
        queue = nxt
    if covered != digraph.vertices:
        raise DPInvariantError("breadth-first growth left vertices uncovered")
    grown = witness_tree(digraph, root, parents)
    if not tree.arcs() <= grown.arcs():
        raise DPInvariantError("the grown tree lost an arc of the witness")
    if len(grown.internal_vertices()) < before:
        raise DPInvariantError("the grown tree lost an internal vertex")
    return grown


def _solve_one_root(digraph, k, root, budget):
    """Search the layered collection for one root.

    Returns (report, tree-or-None); the tree is an r-out-tree with at
    least k internal vertices inside the digraph, not yet expanded.
    """
    report = {
        "root": root,
        "outcome": "exhausted",
        "collection_size": 0,
        "evaluated": 0,
        "skipped_small": 0,
        "cache_hits": 0,
        "hit": None,
    }
    if reachable(digraph, root) != digraph.vertices:
        report["outcome"] = "disconnected"
        return report, None
    if k > digraph.n - 1:
        report["outcome"] = "infeasible_k"
        return report, None
    plan = build_partitions(underlying_graph(digraph), root, k)
    report["collection_size"] = plan.size
    cap = witness_size_cap(k)
    cache = {}
    for sub in generate_collection(digraph, k, plan, budget):
        if sub.digraph.n < k + 1:
            report["skipped_small"] += 1
            continue
        key = sub.digraph.vertices
        if key in cache:
            report["cache_hits"] += 1
            best = cache[key]
        else:
            report["evaluated"] += 1
            best = dp_max_internal_outtree(
                sub.digraph, root, size_cap=cap if cap < sub.digraph.n else None)
            cache[key] = best
        if best[0] >= k:
            report["outcome"] = "witness_tree"
            report["hit"] = (sub.part_index, tuple(sorted(sub.kept)))
            return report, best[1]
    return report, None


def solve_iob(digraph, k, root=None, budget=DEFAULT_COLLECTION_BUDGET,
              witness=True):
    """Decide whether some spanning out-tree has at least k internal
    vertices, rooted at the given vertex or at any vertex.

    Returns a SearchResult; the witness, when requested and
    found, is a spanning out-tree of the digraph with at least k
    internal vertices.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if root is not None and root not in digraph.vertices:
        raise ValueError(f"root {root} not in digraph")
    roots = [root] if root is not None else sorted(digraph.vertices)
    reports = []
    for r in roots:
        report, tree = _solve_one_root(digraph, k, r, budget)
        reports.append(report)
        if tree is None:
            continue
        grown = None
        if witness:
            grown = expand_minimal_tree(digraph, r, tree)
            if len(grown.internal_vertices()) < k:
                raise DPInvariantError(
                    f"witness has {len(grown.internal_vertices())} internal "
                    f"vertices, fewer than {k}")
        return SearchResult(True, k, r, grown, reports)
    return SearchResult(False, k, None, None, reports)
