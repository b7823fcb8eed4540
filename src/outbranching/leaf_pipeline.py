"""Decision pipeline for spanning out-branchings with many leaves.

The question is whether a digraph has a spanning out-branching rooted at r
with at least k leaves.  Answering it naively means searching an
exponential space, so the pipeline first squeezes the instance through a
chain of structure-preserving rewrites:

1. Contract every arc whose removal strands two or more vertices.  Each
   contraction keeps the best achievable leaf count exactly, and once the
   phase is exhausted the stranded sets of distinct cut vertices are
   pairwise disjoint.
2. Classify cut vertices by how many of their own out-neighbors they
   strand.  If at least k of them strand two or more, a witness with k
   leaves always exists, and the breadth first branching is one.
3. Otherwise duplicate each multi-stranding cut vertex (the copy takes
   the originals' arcs but no arcs among copies), contract the remaining
   single-stranding arcs, and land on a rooted 2-connected digraph.  On
   that graph, counting high in-degree and "nice" vertices either proves
   the answer is yes outright, or isolates a small vertex set S whose
   removal leaves a shallow residue: the remaining graph decomposes with
   small width, so dynamic programming is cheap afterwards.

reduce_lob returns one Reduction record for every root, whichever way
the reduction ends.  Its report, an immutable StructureReport built
from the values each stage computed, says "disconnected" when the root
misses a vertex (no), "guaranteed" when a count fired (yes, with the
count named as the reason) or "reduced".  The actual yes/no for the
reduced case is decided by the spanning branching dynamic program on the
contracted graph.  solve_lob expands every yes's tree back to the input
digraph and validates it in one place.
"""

from __future__ import annotations

from collections import namedtuple

from .connectivity import (
    _contract_tree,
    _idoms,
    arcs_disconnecting_two,
    cut_profile,
    high_indegree_vertices,
    is_rooted_2connected,
    nice_vertices,
)
from .digraph import (
    Digraph,
    OutTree,
    SearchResult,
    contract_arc_directed,
    contract_arcs,
    grow_breadth_first,
    underlying_graph,
    witness_tree,
)
from .errors import DPInvariantError
from .treedp import dp_max_leaves
from .treewidth import greedy_decomposition_within, make_nice

HIGH_INDEGREE_FACTOR = 6
NICE_FACTOR = 24
WITNESS_WIDTH_LIMIT = 11


# Everything the reduction learned about one root, an immutable record:
# reduce_lob builds it once per stage from the values that stage computed.
# A field the reduction never reached keeps its default: None, or 0 for
# contractions.
StructureReport = namedtuple(
    "StructureReport",
    "root k outcome reason contractions reduced_n reduced_m multi_cut_count "
    "single_cut_count k_effective dup_n dup_m alpha beta boundary_size "
    "selected_size unreachable_count",
    defaults=(None, None, 0) + (None,) * 12)

# What reduce_lob found for one root. report, an immutable
# StructureReport, says in its outcome which ending:
# "disconnected" (digraph, steps and selected are None), "guaranteed" or
# "reduced". digraph is the input after the stranding contractions whose
# (arc, out_y) records are in steps; selected, the set S, is set only
# for "reduced".
Reduction = namedtuple("Reduction", "report digraph steps selected")


def exhaust_stranding_contractions(digraph, root, idom=None):
    """Contract arcs stranding >= 2 vertices until none are left.

    Returns (digraph, steps); steps holds one (arc, out_y) pair per
    contraction, in application order, where out_y is the frozenset of
    out-neighbours the arc's head had just before it was contracted: all
    that expand_through_steps reads to map a witness back.  Each
    contraction preserves the maximum leaf count exactly.  A given
    dominator tree ``idom`` of the digraph is kept current through each
    contraction, in place, so it ends as the tree of the reduced digraph.
    """

    if idom is None:
        idom = _idoms(digraph, root)
    steps = []
    current = digraph
    while True:
        arcs = arcs_disconnecting_two(current, root, idom)
        if not arcs:
            return current, steps
        arc = min(arcs)
        steps.append((arc, current.out_neighbors(arc[1])))
        current = contract_arc_directed(current, arc)
        _contract_tree(idom, arc)


def bfs_branching(digraph, root):
    """Deterministic breadth first spanning branching; raises ValueError
    unless the root reaches every vertex.

    It holds every arc (x, y) with x the immediate dominator of y, so
    every arc from a cut vertex into a vertex it strands: each other
    in-neighbor of y is dominated by x, hence lies deeper than x, and x
    adopts y before any of them is expanded.
    """

    return grow_breadth_first(digraph, OutTree(root, {}))


def duplicate_multi_cut(digraph, multi_cut):
    """Add an imaginary copy of each multi-stranding cut vertex.

    The copy inherits all in-arcs and out-arcs of the original from and to
    real vertices; copies are never adjacent to each other or to their
    original.  Returns the new digraph.  Copies get ids above every
    existing one, in the sorted order of their originals.
    """

    base = max(digraph.vertices, default=-1) + 1
    copies = range(base, base + len(multi_cut))
    arcs = set(digraph.arcs)
    for x, copy in zip(sorted(multi_cut), copies):
        for u in digraph.in_neighbors(x):
            arcs.add((u, copy))
        for v in digraph.out_neighbors(x):
            arcs.add((copy, v))
    return Digraph(digraph.vertices.union(copies), arcs)


def contract_pendant_arcs(digraph, pendant_arcs):
    """Contract each single-stranding arc, in one pass over one copy of
    the digraph.

    The arcs form a matching (their endpoint sets are pairwise disjoint),
    so contraction order does not matter; they are processed sorted.
    """

    touched = set()
    for x, y in pendant_arcs:
        if x in touched or y in touched:
            raise ValueError("pendant arcs must form a matching")
        touched.update((x, y))
    return contract_arcs(digraph, sorted(pendant_arcs))


def reduce_lob(digraph, root, k):
    """Run the full reduction for one root and return its Reduction.

    The report's outcome is "disconnected" when the root does not reach
    every vertex (no spanning branching exists; unreachable_count says
    how many it misses), "guaranteed" when a counting lemma proves k
    leaves (the reason names the lemma), and "reduced" otherwise.
    Raises ValueError when k < 1, and DPInvariantError when the squeeze
    leaves no rooted 2-connected digraph.
    """

    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    # the dominator tree holds exactly the vertices the root reaches
    idom = _idoms(digraph, root)
    missing = digraph.vertices - idom.keys()
    if missing:
        report = StructureReport(root, k, "disconnected",
                                 unreachable_count=len(missing))
        return Reduction(report, None, None, None)

    # the root reaches everything, so the tree of the reduced graph spans
    reduced, steps = exhaust_stranding_contractions(digraph, root, idom)
    profile = cut_profile(reduced, root, idom)
    report = StructureReport(
        root, k, contractions=len(steps), reduced_n=reduced.n,
        reduced_m=reduced.m, multi_cut_count=len(profile.multi_cut),
        single_cut_count=len(profile.single_cut))

    if len(profile.multi_cut) >= k:
        report = report._replace(outcome="guaranteed", reason="multi_cut_count")
        return Reduction(report, reduced, steps, None)

    k_eff = k + len(profile.multi_cut)
    dup = duplicate_multi_cut(reduced, profile.multi_cut)
    two_connected = contract_pendant_arcs(dup, profile.pendant_arcs)
    # the counting shortcuts below are only sound on this graph
    if not is_rooted_2connected(two_connected, root):
        raise DPInvariantError("the reduction left no rooted 2-connected digraph")

    # The counting bounds assume the root has no incoming arcs, and
    # dropping them never changes which branchings exist, so alpha
    # (in-degree >= 3), beta (vertices with an in-neighbor that is not an
    # out-neighbor) and the boundary are counted without them.
    view = two_connected.without_arcs(
        {(u, root) for u in two_connected.in_neighbors(root)})
    high = high_indegree_vertices(view)
    nice = nice_vertices(view)
    report = report._replace(k_effective=k_eff, dup_n=dup.n, dup_m=dup.m,
                             alpha=len(high), beta=len(nice))

    if len(high) >= HIGH_INDEGREE_FACTOR * k_eff:
        report = report._replace(outcome="guaranteed", reason="high_indegree_count")
        return Reduction(report, reduced, steps, None)
    if len(nice) >= NICE_FACTOR * k_eff:
        report = report._replace(outcome="guaranteed", reason="nice_vertex_count")
        return Reduction(report, reduced, steps, None)

    boundary = high | nice
    # Each boundary vertex stands for itself plus the head of the pendant
    # arc it absorbed, if any: the pendant arcs form a matching and the
    # merged vertex keeps the tail's id. Copies are not in `reduced`.
    absorbed = {y for x, y in profile.pendant_arcs if x in boundary}
    selected = frozenset((boundary | absorbed) & reduced.vertices)
    report = report._replace(outcome="reduced", boundary_size=len(boundary),
                             selected_size=len(selected))
    return Reduction(report, reduced, steps, selected)


def expand_through_steps(tree, steps):
    """Replay recorded contraction steps backwards on a witness.

    The merged vertex kept the tail's id x, so each step, last first,
    re-inserts the head y as a child of x and moves below y every child
    of x that y had an arc to.  The leaf count never drops.  The result
    is not validated here: solve_lob checks it against the input once.
    """

    root, parents = tree.root, dict(tree.parents)
    for (x, y), out_y in reversed(steps):
        if y == root or y in parents or (x != root and x not in parents):
            raise DPInvariantError(f"step ({x}, {y}) does not match the tree")
        for z in out_y:
            if parents.get(z) == x:
                parents[z] = y
        parents[y] = x
    return OutTree(root, parents)


def _dp_witness(outcome):
    """Solve the reduced graph exactly; used when a witness is wanted.

    Returns (None, None) when the min-fill width of the reduced graph is
    above WITNESS_WIDTH_LIMIT; the elimination stops at the first bag past
    the limit, and no decomposition is built.
    """

    td = greedy_decomposition_within(underlying_graph(outcome.digraph),
                                     WITNESS_WIDTH_LIMIT)
    if td is None:
        return None, None
    nice = make_nice(td)
    answer = dp_max_leaves(outcome.digraph, outcome.report.root, nice)
    if answer is None:
        raise DPInvariantError("a guaranteed instance is not fully reachable")
    return answer


def _check_leaves(digraph, tree, need):
    """Validate a witness spanning out-tree with at least `need` leaves."""
    witness_tree(digraph, tree.root, tree.parents)
    if len(tree.leaves()) < need:
        raise DPInvariantError(
            f"witness has {len(tree.leaves())} leaves, fewer than {need}")


def solve_lob(digraph, k, root=None, witness=True):
    """Decide whether some root admits a spanning branching with k leaves.

    With root given only that root is tried; otherwise all vertices in
    ascending order, stopping at the first success.  The returned witness,
    when requested, is a spanning out-branching of the input digraph with
    at least k leaves; it is None only for a counting-lemma yes whose
    reduced graph is wider than WITNESS_WIDTH_LIMIT, found by a min-fill
    elimination that stops at its first bag past the limit.
    """

    if k < 1:
        raise ValueError("k must be at least 1")
    if root is not None and root not in digraph.vertices:
        raise ValueError(f"root {root} not in digraph")
    n = digraph.n
    reports = []
    # most leaves a spanning out-tree can have; -1 with no vertices
    cap = 1 if n == 1 else n - 1
    if k > cap:
        return SearchResult(False, None, None, reports)

    roots = [root] if root is not None else sorted(digraph.vertices)
    for r in roots:
        outcome = reduce_lob(digraph, r, k)
        report = outcome.report
        reports.append(report)
        if report.outcome == "disconnected":
            continue
        # each yes picks a leaf count (k when guaranteed) and a tree
        count, tree = k, None
        if report.outcome == "reduced":
            answer = dp_max_leaves(outcome.digraph, r)
            if answer is None:
                raise DPInvariantError("a reduced instance is not fully reachable")
            count, tree = answer
            if count < k:
                continue
        elif witness and report.reason == "multi_cut_count":
            tree = bfs_branching(outcome.digraph, r)
            if len(tree.leaves()) < report.multi_cut_count + 1:
                raise DPInvariantError(
                    f"forced witness has {len(tree.leaves())} leaves for "
                    f"{report.multi_cut_count} multi-cut vertices")
        elif witness:
            solved, tree = _dp_witness(outcome)
            if solved is not None and solved < k:
                raise DPInvariantError(
                    f"a guaranteed instance solved to {solved} < {k} leaves")
        if witness and tree is not None:
            tree = expand_through_steps(tree, outcome.steps)
            _check_leaves(digraph, tree, count)
        return SearchResult(True, r, tree if witness else None, reports)
    return SearchResult(False, None, None, reports)
