"""Tree decompositions: greedy min-fill, exact small-graph widths, nice form.

A decomposition is stored as bags indexed by node id plus the edges of the
decomposition tree.  Widths follow the usual convention (max bag size minus
one), so the empty bag gives width -1.

Two construction routes are provided.  `greedy_decomposition` runs an
elimination-ordering heuristic (min-fill) and is the workhorse for
graphs of any size.  It keeps every vertex's fill count current as
vertices go and fill edges come, instead of re-scoring all remaining
vertices after each elimination, and picks the least count from a heap,
ties still toward the lowest id; the bags are the neighbourhoods that
pass yields, so the graph is eliminated once.  When only a narrow
decomposition is of use, `greedy_decomposition_within` stops that pass at
the first bag wider than a limit and returns None; `treewidth_upper_bound`
reads a width from the neighbourhoods without building the
decomposition, and stops once the vertices left cannot widen it.
`exact_treewidth_small` runs a held-subset dynamic program over bitmasks
and is only usable for small graphs; it exists so tests and analyses can
certify optimal widths on instances where that is feasible.

`make_nice` rewrites any decomposition into the rooted binary "nice" form
(leaf / introduce / forget / join) that the dynamic programs consume, as
one list of ops in post order.
"""

from __future__ import annotations

import heapq

# Largest component the exact held-subset program takes: its tables hold
# one entry per vertex subset of a component.
EXACT_LIMIT = 14


class TreeDecomposition:
    """Bags on the nodes of a tree."""

    __slots__ = ("bags", "edges", "_adj")

    def __init__(self, bags, edges):
        self.bags = {node: frozenset(bag) for node, bag in dict(bags).items()}
        if not self.bags:
            raise ValueError("a decomposition needs at least one node")
        canon = set()
        for a, b in edges:
            if a == b:
                raise ValueError(f"self-loop at decomposition node {a}")
            if a not in self.bags or b not in self.bags:
                raise ValueError(f"edge ({a}, {b}) references unknown node")
            canon.add((a, b) if (a, b) <= (b, a) else (b, a))
        self.edges = frozenset(canon)
        adj = {node: set() for node in self.bags}
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        self._adj = {node: frozenset(s) for node, s in adj.items()}
        if len(self.edges) != len(self.bags) - 1:
            raise ValueError("decomposition edges do not form a tree")
        seen = {next(iter(sorted(self.bags)))}
        stack = list(seen)
        while stack:
            node = stack.pop()
            for other in self._adj[node]:
                if other not in seen:
                    seen.add(other)
                    stack.append(other)
        if seen != set(self.bags):
            raise ValueError("decomposition tree is not connected")

    @property
    def width(self):
        return max(len(bag) for bag in self.bags.values()) - 1

    def neighbors(self, node):
        return self._adj[node]

    def __repr__(self):
        return f"TreeDecomposition(nodes={len(self.bags)}, width={self.width})"


def validate_decomposition(graph, td):
    """Raise ValueError unless `td` is a valid decomposition of `graph`."""

    covered = set()
    for bag in td.bags.values():
        covered.update(bag)
    if covered != set(graph.vertices):
        missing = set(graph.vertices) - covered
        extra = covered - set(graph.vertices)
        raise ValueError(f"bag coverage mismatch: missing {sorted(missing)}, extra {sorted(extra)}")
    for u, v in graph.edges:
        if not any(u in bag and v in bag for bag in td.bags.values()):
            raise ValueError(f"edge ({u}, {v}) is in no bag")
    for v in graph.vertices:
        occ = {node for node, bag in td.bags.items() if v in bag}
        start = next(iter(occ))
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for other in td.neighbors(node):
                if other in occ and other not in seen:
                    seen.add(other)
                    stack.append(other)
        if seen != occ:
            raise ValueError(f"occurrences of vertex {v} are not connected")


def _eliminate(adj, v):
    """Remove v from the working adjacency, cliquing its neighborhood."""

    nb = adj.pop(v)
    for a in nb:
        adj[a].discard(v)
        adj[a].update(nb - {a})
    return nb


def _fill(adj, v):
    """Number of non-adjacent pairs among v's neighbours."""

    nb = adj[v]
    d = len(nb)
    return (d * (d - 1) - sum(len(adj[a] & nb) for a in nb)) // 2


def _greedy_order(graph):
    """Min-fill elimination, ties toward the lowest id, as a generator of
    (vertex, neighbourhood) pairs: each vertex with the neighbours it had
    when it was eliminated.  The width is the size of the largest
    neighbourhood, and a consumer that has learnt what it needs stops
    drawing pairs, which stops the elimination.

    `fill[v]` counts the non-adjacent pairs among v's neighbours and is
    kept current through the two changes an elimination makes.  Removing
    v from a neighbour a drops the pairs {v, z} that were missing, one per
    z in N(a) outside N(v).  Adding a fill edge {a, b} closes that pair
    for every common neighbour of a and b, and opens a pair between b and
    each neighbour of a that b misses, and the other way round.  The heap
    holds (fill, vertex) entries, pushed only when a count changes; an
    entry is stale once its vertex is gone or its count has moved on, so
    the smallest live entry is the lowest-id vertex of least fill.
    """

    adj = {v: set(graph.neighbors(v)) for v in graph.vertices}
    fill = {v: _fill(adj, v) for v in adj}
    heap = [(f, v) for v, f in fill.items()]
    heapq.heapify(heap)
    while heap:
        f, v = heapq.heappop(heap)
        if fill.get(v) != f:
            continue
        nb = adj.pop(v)
        del fill[v]
        yield v, nb
        before = {}
        for a in nb:
            na = adj[a]
            na.discard(v)
            before[a] = fill[a]
            fill[a] -= len(na) - len(na & nb)
        rest = set(nb)
        for a in nb:
            rest.discard(a)
            na = adj[a]
            for b in rest - na:
                nbb = adj[b]
                common = na & nbb
                for w in common:
                    before.setdefault(w, fill[w])
                    fill[w] -= 1
                fill[a] += len(na) - len(common)
                fill[b] += len(nbb) - len(common)
                na.add(b)
                nbb.add(a)
        for w, old in before.items():
            if fill[w] != old:
                heapq.heappush(heap, (fill[w], w))


def _decomposition(eliminated):
    """The decomposition of an elimination, given as (vertex,
    neighbourhood) pairs in order: bag i is the i-th eliminated vertex
    with its neighbourhood at that time, and node i hangs below the node
    of the earliest-eliminated later member of its bag (the next node if
    it has none), which keeps every vertex's occurrences connected."""

    if not eliminated:
        return TreeDecomposition({0: frozenset()}, [])
    pos = {v: i for i, (v, _) in enumerate(eliminated)}
    bags = {}
    edges = []
    for i, (v, nb) in enumerate(eliminated):
        bags[i] = nb | {v}
        if nb:
            edges.append((i, min(pos[u] for u in nb)))
        elif i + 1 < len(eliminated):
            edges.append((i, i + 1))
    return TreeDecomposition(bags, edges)


def decomposition_from_ordering(graph, order):
    """Build the decomposition induced by an elimination ordering, as
    `_decomposition` lays it out from the neighbourhoods the order meets.
    Raises ValueError unless `order` lists each vertex exactly once.
    """

    if len(order) != len(graph.vertices) or set(order) != graph.vertices:
        raise ValueError("an elimination order must list each vertex of the "
                         "graph exactly once")
    adj = {v: set(graph.neighbors(v)) for v in graph.vertices}
    return _decomposition([(v, _eliminate(adj, v)) for v in order])


def greedy_decomposition(graph):
    """Min-fill decomposition via an elimination ordering.

    Each step eliminates a vertex of least fill (non-adjacent neighbour
    pairs); ties break toward the lowest vertex id, so the result is
    deterministic.  The counts are updated incrementally: eliminating v
    costs one set intersection per neighbour of v and one per fill edge
    it adds, each as long as the smaller neighbourhood of the two, plus a
    heap push for every count that changes.  The bags come from the
    neighbourhoods recorded as the vertices go, so the graph is
    eliminated once.  Works on disconnected graphs.
    """

    return _decomposition(list(_greedy_order(graph)))


def greedy_decomposition_within(graph, limit):
    """`greedy_decomposition(graph)` if its width is at most `limit`, else
    None.  The elimination stops at the first bag wider than the limit,
    so a wide graph costs only the part eliminated before it."""

    eliminated = []
    for v, nb in _greedy_order(graph):
        if len(nb) > limit:
            return None
        eliminated.append((v, nb))
    return _decomposition(eliminated)


def _component_masks(graph, comp):
    verts = sorted(comp)
    idx = {v: i for i, v in enumerate(verts)}
    adj = [0] * len(verts)
    for v in verts:
        for u in graph.neighbors(v):
            adj[idx[v]] |= 1 << idx[u]
    return verts, adj


def _exact_order_component(graph, comp):
    """Optimal elimination ordering of one connected component, and its
    width (the treewidth of the component).

    Held-Karp style subset dynamic program: f(S) is the best achievable
    width over orderings that eliminate exactly S first, and the cost of
    eliminating v after S is the number of vertices outside S joined to v
    through S.  Each S ^ {v} is a smaller int than S, so the subsets run
    in numeric order.  Exponential in |comp|, so callers cap the
    component size.
    """

    verts, adj = _component_masks(graph, comp)
    n = len(verts)
    if n == 1:
        return [verts[0]], 0
    full = (1 << n) - 1

    def cost(se, v):
        vb = 1 << v
        comp_mask = vb
        nbr = adj[v]
        frontier = nbr & se
        while frontier:
            comp_mask |= frontier
            add = 0
            f = frontier
            while f:
                lsb = f & -f
                add |= adj[lsb.bit_length() - 1]
                f ^= lsb
            nbr |= add
            frontier = (nbr & se) & ~comp_mask
        return bin(nbr & ~se & ~vb).count("1")

    f = [0] * (full + 1)
    f[0] = -1
    choice = [0] * (full + 1)
    for se in range(1, full + 1):
        best = None
        best_v = -1
        s = se
        while s:
            lsb = s & -s
            v = lsb.bit_length() - 1
            prev = se ^ lsb
            val = f[prev]
            c = cost(prev, v)
            if c > val:
                val = c
            if best is None or val < best:
                best = val
                best_v = v
            s ^= lsb
        f[se] = best
        choice[se] = best_v
    order_rev = []
    se = full
    while se:
        v = choice[se]
        order_rev.append(verts[v])
        se ^= 1 << v
    order_rev.reverse()
    return order_rev, f[full]


def exact_treewidth_small(graph):
    """Exact treewidth and an optimal-width decomposition.

    Every connected component must have at most `EXACT_LIMIT` vertices;
    larger inputs raise ValueError rather than silently falling back.
    Returns (width, decomposition).
    """

    order = []
    for comp in graph.components():
        if len(comp) > EXACT_LIMIT:
            raise ValueError(f"component of size {len(comp)} exceeds exact limit {EXACT_LIMIT}")
        order.extend(_exact_order_component(graph, comp)[0])
    td = decomposition_from_ordering(graph, order)
    return td.width, td


def treewidth_upper_bound(graph):
    """Per-component width bound: exact when the component has at most
    `EXACT_LIMIT` vertices, min-fill otherwise.  Returns -1 for the empty
    graph.

    Only the largest bound counts.  A neighbourhood holds only vertices
    not yet eliminated, so once the vertices left, minus one, are no more
    than the width found so far, nothing later can raise it: a component
    that small is skipped, and a min-fill elimination stops there."""

    best = -1
    comps = graph.components()
    for comp in comps:
        if len(comp) - 1 <= best:
            continue
        if len(comp) <= EXACT_LIMIT:
            best = max(best, _exact_order_component(graph, comp)[1])
            continue
        left = len(comp)
        sub = graph if len(comps) == 1 else graph.induced(comp)
        for _, nb in _greedy_order(sub):
            best = max(best, len(nb))
            left -= 1
            if left - 1 <= best:
                break
    return best


LEAF = "leaf"
INTRODUCE = "introduce"
FORGET = "forget"
JOIN = "join"


class NiceDecomposition:
    """A rooted binary nice decomposition, stored as its ops in post order.

    Each op is (kind, vertex, bag), with bag a sorted tuple and vertex None
    for leaf and join.  Replaying the ops on a stack of finished subtrees
    rebuilds the tree: a leaf (empty bag) pushes one, an introduce or
    forget of ``vertex`` replaces the top one by a subtree whose bag gains
    or loses that vertex, and a join pops two subtrees with its own bag,
    the nearer one first as its left operand, and pushes their union.  One
    subtree is left at the end, and its bag is empty.
    """

    __slots__ = ("ops", "width")

    def __init__(self, ops):
        self.ops = tuple(ops)
        self.width = max(len(bag) for _, _, bag in self.ops) - 1

    @property
    def node_count(self):
        return len(self.ops)

    def as_decomposition(self):
        edges = []
        stack = []
        for i, (kind, _, _) in enumerate(self.ops):
            if kind == JOIN:
                edges += [(stack.pop(), i), (stack.pop(), i)]
            elif kind != LEAF:
                edges.append((stack.pop(), i))
            stack.append(i)
        return TreeDecomposition({i: bag for i, (_, _, bag) in enumerate(self.ops)}, edges)


def _chain(ops, kind, bag, vertices):
    """Append ops that introduce or forget `vertices` one at a time, lowest
    first, starting from the sorted tuple `bag`.  Returns the last bag."""

    for v in sorted(vertices):
        if kind == INTRODUCE:
            bag = tuple(sorted(bag + (v,)))
        else:
            bag = tuple(x for x in bag if x != v)
        ops.append((kind, v, bag))
    return bag


def make_nice(td):
    """Rewrite a decomposition into nice form without increasing width.

    The tree is rooted at the lowest node id.  A node without children
    becomes a leaf and the introduces of its bag.  Otherwise each child's
    subtree is bridged to the node's bag by forgetting the difference and
    then introducing the node's extra vertices, so every intermediate bag
    is a subset of one of the two original bags.  The ops come in post
    order: the bridged child subtrees from the highest child id to the
    lowest, then (children - 1) joins, each taking the subtree built last
    as its left operand.  The root's bag is forgotten at the end.
    """

    root = min(td.bags)
    ops = []
    # a pending entry is a (node, parent) pair still to expand, or a list
    # of ops to append once everything pushed after it has been appended
    pending = [(root, None)]
    while pending:
        entry = pending.pop()
        if isinstance(entry, list):
            ops.extend(entry)
            continue
        node, parent = entry
        bag = td.bags[node]
        kids = [u for u in sorted(td.neighbors(node)) if u != parent]
        if not kids:
            ops.append((LEAF, None, ()))
            _chain(ops, INTRODUCE, (), bag)
            continue
        pending.append([(JOIN, None, tuple(sorted(bag)))] * (len(kids) - 1))
        for c in kids:
            bridge = []
            kept = _chain(bridge, FORGET, tuple(sorted(td.bags[c])), td.bags[c] - bag)
            _chain(bridge, INTRODUCE, kept, bag - td.bags[c])
            pending += [bridge, (c, node)]
    _chain(ops, FORGET, ops[-1][2], td.bags[root])
    return NiceDecomposition(ops)
