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

Contracting such an arc keeps the tree: the dominator tree of G/(x, y),
with the merged vertex named x, is G's tree with y dropped and y's
children hung below x. Every path to y passes x, so a simple path that
ends at x never meets y. A path of G/(x, y) from r enters the merged
vertex through an arc that G has into x or into y. An arc (p, y) with
p != x is no help: y dominates p, so every path to p passes y and hence
x, and the path would reach the merged vertex before p. So every path
of G/(x, y) lifts to a path of G that runs through x, then y if it left
through an arc of y; conversely a path of G shrinks to a walk of
G/(x, y) on its image. Hence a vertex d outside {x, y} dominates w in
G/(x, y) exactly when it does in G, and the merged vertex dominates w
exactly when x or y does in G, which is when x does, since x dominates
y. The reached vertices are those of G minus y, and the nearest
dominator of each is as before, with y replaced by its own idom x.
"""

from collections import namedtuple

# In-degree at which a vertex counts as "high" in the leaf-count bounds.
HIGH_INDEGREE = 3


def reachable(digraph, root):
    """Vertices reachable from ``root``, the root included; empty when the
    root is not a vertex."""
    if root not in digraph.vertices:
        return frozenset()
    seen, stack = {root}, [root]
    while stack:
        for y in digraph.out_neighbors(stack.pop()) - seen:
            seen.add(y)
            stack.append(y)
    return frozenset(seen)


def _idoms(digraph, root, spanning=False):
    """{v: immediate dominator of v} over the vertices the root reaches,
    with the root mapped to itself. Cooper, Harvey and Kennedy, "A Simple,
    Fast Dominance Algorithm" (2001): a fixpoint over reverse postorder.
    Vertices are numbered by DFS postorder, so the fixpoint runs on int
    lists: each vertex's reached in-neighbors and one idom array, in
    which every dominator has a higher number than the vertices it
    dominates. With ``spanning``, raise ValueError unless the root
    reaches everything."""
    post, num = [], {}  # num doubles as the seen set until v is finished
    if root in digraph.vertices:
        stack = [(root, iter(digraph.out_neighbors(root)))]
        num[root] = None
        while stack:
            v, rest = stack[-1]
            for w in rest:
                if w not in num:
                    num[w] = None
                    stack.append((w, iter(digraph.out_neighbors(w))))
                    break
            else:
                stack.pop()
                num[v] = len(post)
                post.append(v)
    if spanning and len(num) < digraph.n:
        miss = sorted(digraph.vertices - num.keys())
        raise ValueError(f"vertices unreachable from root {root}: {miss}")
    preds = [[num[p] for p in digraph.in_neighbors(v) if p in num]
             for v in post]
    top = len(post) - 1
    idom = [None] * len(post)
    if post:
        idom[top] = top
    changed = True
    while changed:
        changed = False
        for v in range(top - 1, -1, -1):  # reverse postorder, root dropped
            new = None
            for p in preds[v]:
                if idom[p] is None:
                    continue
                if new is None:
                    new = p
                    continue
                while p != new:  # nearest common dominator
                    while p < new:
                        p = idom[p]
                    while new < p:
                        new = idom[new]
            if idom[v] != new:
                idom[v] = new
                changed = True
    return {post[v]: post[idom[v]] for v in range(top, -1, -1)}


def _contract_tree(idom, arc):
    """Update the dominator tree ``idom`` in place for contracting an arc
    (x, y) that strands >= 2 vertices: drop y and hang its children below
    x, as the lemma in the module docstring shows."""
    x, y = arc
    del idom[y]
    for v, d in idom.items():
        if d == y:
            idom[v] = x


def is_rooted_2connected(digraph, root):
    """True when no vertex z != r separates r from anything else.
    Requires every vertex reachable to begin with."""
    return all(x == root for x in _idoms(digraph, root, spanning=True).values())


# Cut structure of a rooted digraph, field by field:
#   stranded: {x: frozenset of out-neighbors of x unreachable without x},
#     one key per cut vertex x, i.e. every x != r whose deletion strands
#     some vertex.
#   multi_cut: cut vertices stranding >= 2 of their own out-neighbors.
#   single_cut: cut vertices stranding exactly 1.
#   pendant_arcs: the arc from each single_cut vertex into the vertex it
#     strands; after the stranding-arc contraction phase these form a
#     matching.
CutProfile = namedtuple("CutProfile", "stranded multi_cut single_cut pendant_arcs")


def cut_profile(digraph, root, idom=None):
    """Classify cut vertices by how many of their out-neighbors they strand.
    ``idom`` is the digraph's dominator tree, computed when not given; the
    root must span the digraph."""
    if idom is None:
        idom = _idoms(digraph, root, spanning=True)
    stranded = {}
    for y, x in idom.items():
        if x != root and digraph.has_arc(x, y):
            stranded[x] = stranded.get(x, frozenset()) | {y}
    multi = frozenset(x for x, ys in stranded.items() if len(ys) >= 2)
    single = frozenset(x for x, ys in stranded.items() if len(ys) == 1)
    pendant = frozenset((x, y) for x in single for y in stranded[x])
    return CutProfile(stranded, multi, single, pendant)


def nice_vertices(digraph):
    """Vertices with an in-neighbor that is not also an out-neighbor."""
    return frozenset(v for v in digraph.vertices
                     if digraph.in_neighbors(v) - digraph.out_neighbors(v))


def high_indegree_vertices(digraph):
    return frozenset(v for v in digraph.vertices
                     if digraph.in_degree(v) >= HIGH_INDEGREE)


def arcs_disconnecting_two(digraph, root, idom=None):
    """Arcs whose single removal makes >= 2 currently-reachable vertices
    unreachable from the root. ``idom`` is the digraph's dominator tree,
    computed when not given."""
    if idom is None:
        idom = _idoms(digraph, root)

    def dominates(y, p):
        while p != y and p != idom[p]:
            p = idom[p]
        return p == y

    return frozenset((idom[y], y) for y in set(idom.values()) - {root} if all(
        dominates(y, p) for p in digraph.in_neighbors(y) & idom.keys()
        if p != idom[y]))
