"""Root-centered connectivity: reachability, cut vertices and their stranded
neighborhoods, and the vertex classes that drive the leaf-count reduction.

All questions are relative to a root r. A vertex x != r is a cut vertex
when deleting it makes some vertex unreachable from r; r itself never is.
The out-neighbors of x that deleting x disconnects from r are stranded.

One dominator tree answers every stranding question: deleting x strands
y exactly when x dominates y. Any dominator d != y of an out-neighbor y
of x lies on every path r -> x -> y, so d dominates x or is x; hence x
strands its out-neighbor y exactly when idom(y) == x. A simple path to a
vertex v with idom(v) == x leaves x through such a y, so the cut vertices
are exactly the idoms other than r, each stranding an out-neighbor, and
the digraph is rooted 2-connected when every idom is r. Deleting the arc
(x, y) strands something only if it strands y, i.e. when idom(y) == x and
y dominates each of its other reachable in-neighbors; it then strands
exactly y's dominator subtree.
"""

from functools import reduce

# In-degree at which a vertex counts as "high" in the leaf-count bounds.
HIGH_INDEGREE = 3


def reachable(digraph, root, removed=(), removed_arcs=()):
    """Vertices reachable from ``root`` after deleting the given vertices
    and arcs. The root itself counts as reachable unless it is removed."""
    removed, removed_arcs = frozenset(removed), frozenset(removed_arcs)
    if root in removed or root not in digraph.vertices:
        return frozenset()
    seen, stack = {root}, [root]
    while stack:
        x = stack.pop()
        for y in digraph.out_neighbors(x) - seen - removed:
            if (x, y) not in removed_arcs:
                seen.add(y)
                stack.append(y)
    return frozenset(seen)


def _idoms(digraph, root, spanning=False):
    """{v: immediate dominator of v} over the vertices the root reaches,
    with the root mapped to itself. Cooper, Harvey and Kennedy, "A Simple,
    Fast Dominance Algorithm" (2001): a fixpoint over reverse postorder.
    With ``spanning``, raise ValueError unless the root reaches everything."""
    post, seen = {}, set()
    stack = [(root, False)] if root in digraph.vertices else []
    while stack:
        v, done = stack.pop()
        if done:
            post[v] = len(post)
        elif v not in seen:
            seen.add(v)
            stack.append((v, True))
            stack.extend((w, False) for w in digraph.out_neighbors(v) - seen)
    miss = digraph.vertices - seen
    if spanning and miss:
        raise ValueError(f"vertices unreachable from root {root}: {sorted(miss)}")

    def meet(a, b):  # nearest common dominator, climbing by postorder
        while a != b:
            while post[a] < post[b]:
                a = idom[a]
            while post[b] < post[a]:
                b = idom[b]
        return a

    idom = {root: root} if post else {}
    changed = True
    while changed:
        changed = False
        for v in list(reversed(post))[1:]:  # reverse postorder, root dropped
            new = reduce(meet, [p for p in digraph.in_neighbors(v) if p in idom])
            changed |= idom.get(v) != new
            idom[v] = new
    return idom


def is_rooted_2connected(digraph, root):
    """True when no vertex z != r separates r from anything else.
    Requires every vertex reachable to begin with."""
    return all(x == root for x in _idoms(digraph, root, spanning=True).values())


class CutProfile:
    """Cut structure of a rooted digraph, field by field:
      cut_vertices: every x != r whose deletion strands some vertex.
      stranded: {x: frozenset of out-neighbors of x unreachable without x}.
      multi_cut: cut vertices stranding >= 2 of their own out-neighbors.
      single_cut: cut vertices stranding exactly 1.
      forced_arcs: arcs from multi_cut vertices into their stranded
        out-neighbors; any spanning out-tree can be rewired to contain them.
      pendant_arcs: the single_cut analogue, one arc per vertex; after the
        stranding-arc contraction phase these form a matching.
    """

    __slots__ = ("cut_vertices", "stranded", "multi_cut", "single_cut",
                 "forced_arcs", "pendant_arcs")

    def __init__(self, cut_vertices, stranded, multi_cut, single_cut,
                 forced_arcs, pendant_arcs):
        self.cut_vertices = cut_vertices
        self.stranded = stranded
        self.multi_cut = multi_cut
        self.single_cut = single_cut
        self.forced_arcs = forced_arcs
        self.pendant_arcs = pendant_arcs


def cut_profile(digraph, root):
    """Classify cut vertices by how many of their out-neighbors they strand."""
    stranded = {}
    for y, x in _idoms(digraph, root, spanning=True).items():
        if x != root and digraph.has_arc(x, y):
            stranded[x] = stranded.get(x, frozenset()) | {y}
    multi = frozenset(x for x, ys in stranded.items() if len(ys) >= 2)
    single = frozenset(x for x, ys in stranded.items() if len(ys) == 1)
    forced = frozenset((x, y) for x in multi for y in stranded[x])
    pendant = frozenset((x, y) for x in single for y in stranded[x])
    return CutProfile(frozenset(stranded), stranded, multi, single, forced, pendant)


def nice_vertices(digraph):
    """Vertices with an in-neighbor that is not also an out-neighbor."""
    return frozenset(v for v in digraph.vertices
                     if digraph.in_neighbors(v) - digraph.out_neighbors(v))


def high_indegree_vertices(digraph):
    return frozenset(v for v in digraph.vertices
                     if digraph.in_degree(v) >= HIGH_INDEGREE)


def arcs_disconnecting_two(digraph, root):
    """Arcs whose single removal makes >= 2 currently-reachable vertices
    unreachable from the root."""
    idom = _idoms(digraph, root)

    def dominates(y, p):
        while p != y and p != idom[p]:
            p = idom[p]
        return p == y

    return frozenset((idom[y], y) for y in set(idom.values()) - {root} if all(
        dominates(y, p) for p in digraph.in_neighbors(y) & idom.keys()
        if p != idom[y]))
