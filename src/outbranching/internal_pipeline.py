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
split by breadth-first depth into ceil(sqrt(k))+1 interleaved classes,
the parts: build_partitions returns them as a tuple, or () when the
digraph is shallow enough to solve in one piece.  A witness tree is
small, so it meets some part in at most ceil(2*sqrt(k)) vertices;
deleting the rest of that part leaves a shallow digraph that still
contains the witness.  One loop over the parts fixes, per part, which
vertices may be kept and how many; collection_size counts those
(part, kept-subset) choices in closed form and generate_collection
yields each as (part_index, kept, sub_digraph).  The solver runs the
internal-DP on each sub-digraph with target k, which drops every state
that cannot reach k, capped at the witness size when the sub-digraph is
larger.  The cap loses no answer and keeps the DP polynomial in the bag
width.  A part kept whole gives back the whole digraph, of which every
sub-digraph is an induced subdigraph; when that DP falls short of k no
later one can reach it, so the root ends there.
"""

import math
from itertools import combinations

from .digraph import (SearchResult, bfs_layers, grow_breadth_first,
                      underlying_graph, validate_out_tree)
from .connectivity import reachable
from .errors import BudgetError, DPInvariantError
from .treedp import dp_max_internal_outtree

DEFAULT_COLLECTION_BUDGET = 200000


def ceil_sqrt(n):
    """Smallest integer whose square is >= n."""
    if n == 0:
        return 0
    return math.isqrt(n - 1) + 1


def witness_size_cap(k):
    """Largest vertex count a pruned witness tree with k internal needs.

    A tree with exactly k >= 2 internal vertices and every leaf an only
    child has at most k-1 leaves, so at most 2k-1 vertices.  For k = 1
    the witness is a root plus one child, which is 2 vertices, not 1.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    return max(2, 2 * k - 1)


def build_partitions(graph, root, k):
    """Split an undirected graph into interleaved depth classes.

    Returns () when the BFS depth from root is at most ceil(sqrt(k)): the
    digraph is solved in one piece.  Otherwise returns ceil(sqrt(k))+1
    parts, part q holding the layers whose depth is q modulo
    ceil(sqrt(k))+1.  Raises ValueError for k < 1 or for a root that does
    not reach every vertex.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    layers, stranded = bfs_layers(graph, root)
    if stranded:
        raise ValueError(
            f"vertices {sorted(stranded)} are unreachable from {root}")
    spacing = ceil_sqrt(k) + 1
    if len(layers) <= spacing:
        return ()
    return tuple(frozenset().union(*layers[q::spacing])
                 for q in range(spacing))


def _choices(parts, root, k):
    """(index, part, base, pool, room) per part: a sub-instance deletes
    the part except a kept set, base plus at most room vertices of the
    sorted pool.  The root is always kept; at most ceil(2*sqrt(k))
    vertices are."""
    zcap = ceil_sqrt(4 * k)
    for index, part in enumerate(parts):
        base = part & {root}
        pool = sorted(part - base)
        yield index, part, base, pool, zcap - len(base)


def collection_size(parts, root, k):
    """How many sub-instances generate_collection yields for the parts."""
    if not parts:
        return 1
    return sum(math.comb(len(pool), j)
               for _, _, _, pool, room in _choices(parts, root, k)
               for j in range(min(len(pool), room) + 1))


def generate_collection(digraph, root, k, parts,
                        budget=DEFAULT_COLLECTION_BUDGET):
    """Yield (part_index, kept, sub_digraph) for every sub-instance of the
    parts, lazily; () yields (None, frozenset(), digraph) alone.

    The closed-form size is checked before anything is built; past the
    budget a BudgetError is raised instead of truncating.
    """
    if not parts:
        yield None, frozenset(), digraph
        return
    size = collection_size(parts, root, k)
    if budget is not None and size > budget:
        raise BudgetError("layered collection", size, budget)
    for index, part, base, pool, room in _choices(parts, root, k):
        rest = digraph.vertices - part
        for count in range(min(len(pool), room) + 1):
            for combo in combinations(pool, count):
                kept = base.union(combo)
                yield index, kept, digraph.induced(rest | kept)


def expand_minimal_tree(digraph, root, tree):
    """Grow an r-out-tree into a spanning out-tree of the digraph.

    Every vertex must be reachable from root; grow_breadth_first raises
    ValueError otherwise.  Uncovered vertices are attached breadth-first
    as children of already covered ones, so every arc of the input tree
    survives and no internal vertex turns into a leaf.
    """
    validate_out_tree(digraph, tree)
    if tree.root != root:
        raise ValueError(f"tree is rooted at {tree.root}, not {root}")
    grown = grow_breadth_first(digraph, tree)
    if grown.vertex_set != digraph.vertices:
        raise DPInvariantError("breadth-first growth left vertices uncovered")
    if not tree.arcs() <= grown.arcs():
        raise DPInvariantError("the grown tree lost an arc of the witness")
    if len(grown.internal_vertices()) < len(tree.internal_vertices()):
        raise DPInvariantError("the grown tree lost an internal vertex")
    return grown


def _solve_one_root(digraph, graph, k, root, budget):
    """Search the layered collection for one root; graph is the
    digraph's underlying graph.

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
    parts = build_partitions(graph, root, k)
    report["collection_size"] = collection_size(parts, root, k)
    cap = witness_size_cap(k)
    for done, (index, kept, sub) in enumerate(
            generate_collection(digraph, root, k, parts, budget), 1):
        if sub.n < k + 1:
            report["skipped_small"] += 1
            continue
        report["evaluated"] += 1
        best = dp_max_internal_outtree(
            sub, root, size_cap=cap if cap < sub.n else None, target=k)
        if best is not None:
            report["outcome"] = "witness_tree"
            report["hit"] = (index, tuple(sorted(kept)))
            return report, best[1]
        # the sub-instances not run count as cache hits
        if sub.n == digraph.n:
            report["cache_hits"] = report["collection_size"] - done
            break
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
    graph = underlying_graph(digraph)
    reports = []
    for r in roots:
        report, tree = _solve_one_root(digraph, graph, k, r, budget)
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
        return SearchResult(True, r, grown, reports)
    return SearchResult(False, None, None, reports)
