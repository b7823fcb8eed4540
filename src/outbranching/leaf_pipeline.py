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
   leaves always exists and one is built directly by rewiring a breadth
   first branching.
3. Otherwise duplicate each multi-stranding cut vertex (the copy takes
   the originals' arcs but no arcs among copies), contract the remaining
   single-stranding arcs, and land on a rooted 2-connected digraph.  On
   that graph, counting high in-degree and "nice" vertices either proves
   the answer is yes outright, or isolates a small vertex set S whose
   removal leaves a shallow residue: the remaining graph decomposes with
   small width, so dynamic programming is cheap afterwards.

The actual yes/no for the reduced case is decided by the spanning
branching dynamic program on the contracted graph, and every yes carries
a verifiable witness expanded back to the input digraph.
"""

from __future__ import annotations

from .connectivity import (
    arcs_disconnecting_two,
    cut_profile,
    high_indegree_vertices,
    is_rooted_2connected,
    nice_vertices,
    reachable,
)
from .digraph import (
    Digraph,
    OutTree,
    contract_arc_directed,
    underlying_graph,
    validate_out_tree,
)
from .errors import RootDisconnected
from .treedp import dp_max_leaves
from .treewidth import greedy_decomposition, make_nice, treewidth_upper_bound

HIGH_INDEGREE_FACTOR = 6
NICE_FACTOR = 24
RESIDUAL_WIDTH_BOUND = 3
WITNESS_WIDTH_LIMIT = 11


class StructureReport:
    """Everything the reduction learned about one root."""

    __slots__ = ("root", "k", "outcome", "reason", "contractions", "reduced_n",
                 "reduced_m", "multi_cut_count", "single_cut_count",
                 "k_effective", "dup_n", "dup_m", "alpha", "beta",
                 "boundary_size", "selected_size", "residual_width",
                 "unreachable_count")

    def __init__(self, root, k):
        self.root = root
        self.k = k
        self.outcome = None
        self.reason = None
        self.contractions = 0
        self.reduced_n = None
        self.reduced_m = None
        self.multi_cut_count = None
        self.single_cut_count = None
        self.k_effective = None
        self.dup_n = None
        self.dup_m = None
        self.alpha = None
        self.beta = None
        self.boundary_size = None
        self.selected_size = None
        self.residual_width = None
        self.unreachable_count = None

    def as_dict(self):
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self):
        return f"StructureReport(root={self.root}, outcome={self.outcome!r}, reason={self.reason!r})"


class GuaranteedYes:
    """The reduction proved the instance satisfiable without solving it."""

    __slots__ = ("root", "k", "reason", "digraph", "steps", "forced_arcs", "report")

    def __init__(self, root, k, reason, digraph, steps, forced_arcs, report):
        self.root = root
        self.k = k
        self.reason = reason
        self.digraph = digraph
        self.steps = steps
        self.forced_arcs = forced_arcs
        self.report = report


class Reduced:
    """A shrunken equivalent instance plus the small separator S."""

    __slots__ = ("root", "k", "digraph", "steps", "s_vertices", "report")

    def __init__(self, root, k, digraph, steps, s_vertices, report):
        self.root = root
        self.k = k
        self.digraph = digraph
        self.steps = steps
        self.s_vertices = s_vertices
        self.report = report


def exhaust_stranding_contractions(digraph, root):
    """Contract arcs stranding >= 2 vertices until none are left.

    Returns (digraph, steps); steps holds (graph_before, arc) pairs in
    application order so witnesses can be expanded back later.  Each
    contraction preserves the maximum leaf count exactly.
    """

    steps = []
    current = digraph
    while True:
        arcs = arcs_disconnecting_two(current, root)
        if not arcs:
            return current, steps
        arc = min(arcs)
        assert arc[1] != root, "arcs into the root never disconnect anything"
        steps.append((current, arc))
        current = contract_arc_directed(current, arc)


def bfs_branching(digraph, root):
    """Deterministic breadth first spanning branching."""

    parents = {}
    seen = {root}
    frontier = [root]
    while frontier:
        nxt = []
        for v in frontier:
            for w in sorted(digraph.out_neighbors(v)):
                if w not in seen:
                    seen.add(w)
                    parents[w] = v
                    nxt.append(w)
        frontier = sorted(nxt)
    assert seen == digraph.vertices, "branching needs full reachability"
    return OutTree(root, parents)


def force_cut_arcs(digraph, root, tree, forced):
    """Rewire a spanning branching to contain every forced arc.

    Each forced arc (x, y) runs from a cut vertex into a vertex that only
    x can reach, so x is an ancestor of y in any branching and swapping
    y's parent arc for (x, y) keeps the tree valid.  The heads of forced
    arcs are pairwise distinct, so no swap undoes an earlier one, and no
    swap loses a leaf: x strands something, hence is internal already.
    """

    heads = [y for _, y in forced]
    assert len(heads) == len(set(heads)), "forced arcs must have unique heads"
    parents = dict(tree.parents)
    before = len(tree.leaves())
    for x, y in sorted(forced):
        assert digraph.has_arc(x, y)
        if parents.get(y) != x:
            parents[y] = x
    out = OutTree(root, parents)
    validate_out_tree(digraph, out, spanning=True)
    assert forced <= out.arcs()
    assert len(out.leaves()) >= before, "forcing must not lose leaves"
    return out


def duplicate_multi_cut(digraph, multi_cut):
    """Add an imaginary copy of each multi-stranding cut vertex.

    The copy inherits all in-arcs and out-arcs of the original from and to
    real vertices; copies are never adjacent to each other or to their
    original.  Returns (dup_digraph, imap) where imap maps original ids to
    copy ids.  Copies get ids above every existing one.
    """

    base = max(digraph.vertices, default=-1) + 1
    imap = {}
    for i, x in enumerate(sorted(multi_cut)):
        imap[x] = base + i
    arcs = set(digraph.arcs)
    for x, copy in imap.items():
        for u in digraph.in_neighbors(x):
            arcs.add((u, copy))
        for v in digraph.out_neighbors(x):
            arcs.add((copy, v))
    return Digraph(digraph.vertices | set(imap.values()), arcs), imap


def contract_pendant_arcs(digraph, pendant_arcs):
    """Contract each single-stranding arc.

    The arcs form a matching (their endpoint sets are pairwise disjoint),
    so contraction order does not matter; they are processed sorted.
    """

    touched = set()
    for x, y in pendant_arcs:
        assert x not in touched and y not in touched, "pendant arcs must form a matching"
        touched.update((x, y))
    current = digraph
    for arc in sorted(pendant_arcs):
        current = contract_arc_directed(current, arc)
    return current


def reduce_lob(digraph, root, k):
    """Run the full reduction for one root.

    Returns GuaranteedYes or Reduced.  Raises RootDisconnected when the
    root does not reach every vertex, since no spanning branching can
    exist then, and ValueError when k < 1.
    """

    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    missing = digraph.vertices - reachable(digraph, root)
    if missing:
        raise RootDisconnected(root, missing)
    report = StructureReport(root, k)

    reduced, steps = exhaust_stranding_contractions(digraph, root)
    report.contractions = len(steps)
    report.reduced_n = reduced.n
    report.reduced_m = reduced.m

    profile = cut_profile(reduced, root)
    report.multi_cut_count = len(profile.multi_cut)
    report.single_cut_count = len(profile.single_cut)

    if len(profile.multi_cut) >= k:
        report.outcome = "guaranteed"
        report.reason = "multi_cut_count"
        return GuaranteedYes(root, k, "multi_cut_count", reduced, steps,
                             profile.forced_arcs, report)

    k_eff = k + len(profile.multi_cut)
    report.k_effective = k_eff

    dup, _ = duplicate_multi_cut(reduced, profile.multi_cut)
    report.dup_n = dup.n
    report.dup_m = dup.m
    two_connected = contract_pendant_arcs(dup, profile.pendant_arcs)
    assert is_rooted_2connected(two_connected, root), (
        "analysis needs a rooted 2-connected digraph")

    # The counting bounds assume the root has no incoming arcs, and
    # dropping them never changes which branchings exist, so alpha
    # (in-degree >= 3), beta (vertices with an in-neighbor that is not an
    # out-neighbor) and the boundary are counted without them.
    view = two_connected.without_arcs(
        {(u, root) for u in two_connected.in_neighbors(root)})
    high = high_indegree_vertices(view)
    nice = nice_vertices(view)
    report.alpha = len(high)
    report.beta = len(nice)

    if report.alpha >= HIGH_INDEGREE_FACTOR * k_eff:
        report.outcome = "guaranteed"
        report.reason = "high_indegree_count"
        return GuaranteedYes(root, k, "high_indegree_count", reduced, steps,
                             None, report)
    if report.beta >= NICE_FACTOR * k_eff:
        report.outcome = "guaranteed"
        report.reason = "nice_vertex_count"
        return GuaranteedYes(root, k, "nice_vertex_count", reduced, steps,
                             None, report)

    boundary = high | nice
    report.boundary_size = len(boundary)
    assert len(boundary) < (HIGH_INDEGREE_FACTOR + NICE_FACTOR) * k_eff

    # Each boundary vertex stands for itself plus the head of the pendant
    # arc it absorbed, if any: the pendant arcs form a matching and the
    # merged vertex keeps the tail's id. Copies are not in `reduced`.
    absorbed = {y for x, y in profile.pendant_arcs if x in boundary}
    selected = frozenset((boundary | absorbed) & reduced.vertices)
    report.selected_size = len(selected)
    assert len(selected) <= 2 * len(boundary)

    residue = underlying_graph(reduced.without_vertices(selected))
    report.residual_width = treewidth_upper_bound(residue)
    assert report.residual_width <= RESIDUAL_WIDTH_BOUND, (
        f"residue width {report.residual_width} exceeds the structural bound")

    report.outcome = "reduced"
    return Reduced(root, k, reduced, steps, selected, report)


def expand_arc_contraction(tree, graph_before, arc):
    """Undo one contraction step on a spanning branching.

    The merged vertex keeps the tail's id x; the head y is re-inserted as
    a child of x.  Children of the merged vertex move below y when the
    pre-contraction graph has the arc from y, otherwise they stay below x.
    The leaf count never drops.
    """

    x, y = arc
    parents = dict(tree.parents)
    assert y not in tree.vertex_set
    assert x in tree.vertex_set
    for z in tree.children(x):
        if graph_before.has_arc(y, z):
            parents[z] = y
        else:
            assert graph_before.has_arc(x, z)
    parents[y] = x
    u = tree.parents.get(x)
    if u is not None:
        assert graph_before.has_arc(u, x)
    out = OutTree(tree.root, parents)
    validate_out_tree(graph_before, out, spanning=True)
    assert len(out.leaves()) >= len(tree.leaves())
    return out


def expand_through_steps(tree, steps):
    """Replay recorded contraction steps backwards on a witness."""

    for graph_before, arc in reversed(steps):
        tree = expand_arc_contraction(tree, graph_before, arc)
    return tree


def _forced_arc_witness(outcome):
    tree = bfs_branching(outcome.digraph, outcome.root)
    tree = force_cut_arcs(outcome.digraph, outcome.root, tree, outcome.forced_arcs)
    multi = {x for x, _ in outcome.forced_arcs}
    assert len(tree.leaves()) >= len(multi) + 1
    return expand_through_steps(tree, outcome.steps)


def _dp_witness(outcome):
    """Solve the reduced graph exactly; used when a witness is wanted."""

    ug = underlying_graph(outcome.digraph)
    td = greedy_decomposition(ug)
    if td.width > WITNESS_WIDTH_LIMIT:
        return None, None
    nice = make_nice(td)
    answer = dp_max_leaves(outcome.digraph, outcome.root, nice)
    assert answer is not None, "a reduced instance is always fully reachable"
    return answer


class LeafSearchResult:
    """Outcome of the leaf-count search over one or more roots."""

    __slots__ = ("satisfiable", "k", "root", "witness", "reports")

    def __init__(self, satisfiable, k, root, witness, reports):
        self.satisfiable = satisfiable
        self.k = k
        self.root = root
        self.witness = witness
        self.reports = reports

    def __repr__(self):
        return (f"LeafSearchResult(satisfiable={self.satisfiable}, k={self.k}, "
                f"root={self.root})")


def solve_lob(digraph, k, root=None, witness=True):
    """Decide whether some root admits a spanning branching with k leaves.

    With root given only that root is tried; otherwise all vertices in
    ascending order, stopping at the first success.  The returned witness,
    when requested and available, is a spanning out-branching of the input
    digraph with at least k leaves.
    """

    if k < 1:
        raise ValueError("k must be at least 1")
    if root is not None and root not in digraph.vertices:
        raise ValueError(f"root {root} not in digraph")
    n = digraph.n
    reports = []
    if n == 0:
        return LeafSearchResult(False, k, None, None, reports)
    cap = 1 if n == 1 else n - 1
    if k > cap:
        return LeafSearchResult(False, k, None, None, reports)

    roots = [root] if root is not None else sorted(digraph.vertices)
    for r in roots:
        try:
            outcome = reduce_lob(digraph, r, k)
        except RootDisconnected as exc:
            report = StructureReport(r, k)
            report.outcome = "disconnected"
            report.unreachable_count = len(exc.missing)
            reports.append(report)
            continue
        reports.append(outcome.report)
        if isinstance(outcome, GuaranteedYes):
            tree = None
            if witness:
                if outcome.reason == "multi_cut_count":
                    tree = _forced_arc_witness(outcome)
                else:
                    count, solved = _dp_witness(outcome)
                    if count is not None:
                        assert count >= k, "a guaranteed instance must solve to yes"
                        tree = expand_through_steps(solved, outcome.steps)
            if tree is not None:
                validate_out_tree(digraph, tree, spanning=True)
                assert len(tree.leaves()) >= k
            return LeafSearchResult(True, k, r, tree, reports)
        answer = dp_max_leaves(outcome.digraph, r)
        assert answer is not None
        count, tree = answer
        if count >= k:
            final = None
            if witness:
                final = expand_through_steps(tree, outcome.steps)
                validate_out_tree(digraph, final, spanning=True)
                assert len(final.leaves()) >= count >= k
            return LeafSearchResult(True, k, r, final, reports)
    return LeafSearchResult(False, k, None, None, reports)
