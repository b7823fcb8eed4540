"""Tree decompositions: greedy heuristics, exact small-graph widths, nice form.

A decomposition is stored as bags indexed by node id plus the edges of the
decomposition tree.  Widths follow the usual convention (max bag size minus
one), so the empty bag gives width -1.

Two construction routes are provided.  `greedy_decomposition` runs an
elimination-ordering heuristic (min-fill by default) and is the workhorse for
graphs of any size.  `exact_treewidth_small` runs a held-subset dynamic
program over bitmasks and is only usable for small graphs; it exists so tests
and analyses can certify optimal widths on instances where that is feasible.

`make_nice` rewrites any decomposition into the rooted binary "nice" form
(leaf / introduce / forget / join) that the dynamic programs consume.
"""

from __future__ import annotations

from .digraph import UndirectedGraph

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

    @property
    def node_count(self):
        return len(self.bags)

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


def _greedy_order(graph, heuristic):
    adj = {v: set(graph.neighbors(v)) for v in graph.vertices}
    order = []
    while adj:
        best_score = None
        best_v = None
        for v in sorted(adj):
            nb = adj[v]
            if heuristic == "min_degree":
                score = len(nb)
            else:
                nbl = sorted(nb)
                score = 0
                for i, a in enumerate(nbl):
                    for b in nbl[i + 1:]:
                        if b not in adj[a]:
                            score += 1
            if best_score is None or score < best_score:
                best_score = score
                best_v = v
        order.append(best_v)
        _eliminate(adj, best_v)
    return order


def decomposition_from_ordering(graph, order):
    """Build the decomposition induced by an elimination ordering.

    Bag i is the closed fill-in neighborhood of the i-th eliminated vertex;
    node i hangs below the node of the earliest-eliminated later member of
    its bag, which keeps every vertex's occurrences connected.
    """

    assert sorted(order) == sorted(graph.vertices)
    if not order:
        return TreeDecomposition({0: frozenset()}, [])
    adj = {v: set(graph.neighbors(v)) for v in graph.vertices}
    bags = {}
    pos = {v: i for i, v in enumerate(order)}
    edges = []
    for i, v in enumerate(order):
        bag = frozenset(adj[v] | {v})
        bags[i] = bag
        later = [pos[u] for u in bag if u != v]
        if later:
            assert min(later) > i
            edges.append((i, min(later)))
        elif i + 1 < len(order):
            edges.append((i, i + 1))
        _eliminate(adj, v)
    return TreeDecomposition(bags, edges)


def greedy_decomposition(graph, heuristic="min_fill"):
    """Heuristic decomposition via an elimination ordering.

    `heuristic` is "min_fill" or "min_degree"; ties break toward the lowest
    vertex id, so the result is deterministic.  Works on disconnected graphs.
    """

    if heuristic not in ("min_fill", "min_degree"):
        raise ValueError(f"unknown heuristic {heuristic!r}")
    return decomposition_from_ordering(graph, _greedy_order(graph, heuristic))


def _component_masks(graph, comp):
    verts = sorted(comp)
    idx = {v: i for i, v in enumerate(verts)}
    adj = [0] * len(verts)
    for v in verts:
        for u in graph.neighbors(v):
            adj[idx[v]] |= 1 << idx[u]
    return verts, adj


def _exact_order_component(graph, comp):
    """Optimal elimination ordering of one connected component.

    Held-Karp style subset dynamic program: f(S) is the best achievable
    width over orderings that eliminate exactly S first, and the cost of
    eliminating v after S is the number of vertices outside S joined to v
    through S.  Exponential in |comp|, so callers cap the component size.
    """

    verts, adj = _component_masks(graph, comp)
    n = len(verts)
    if n == 1:
        return [verts[0]]
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
    subsets = sorted(range(1, full + 1), key=lambda s: bin(s).count("1"))
    for se in subsets:
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
    return order_rev


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
        order.extend(_exact_order_component(graph, comp))
    td = decomposition_from_ordering(graph, order)
    return td.width, td


def treewidth_upper_bound(graph):
    """Per-component width bound: exact when the component has at most
    `EXACT_LIMIT` vertices, min-fill otherwise.  Returns -1 for the empty
    graph."""

    best = -1
    for comp in graph.components():
        sub = graph.induced(comp)
        if len(comp) <= EXACT_LIMIT:
            width, _ = exact_treewidth_small(sub)
        else:
            width = greedy_decomposition(sub).width
        best = max(best, width)
    return best


LEAF = "leaf"
INTRODUCE = "introduce"
FORGET = "forget"
JOIN = "join"


class NiceNode:
    """One step of a nice decomposition.

    leaf: empty bag, no children.  introduce/forget: one child, bag differs
    from the child's by exactly `vertex`.  join: two children whose bags both
    equal this node's bag.
    """

    __slots__ = ("kind", "bag", "vertex", "children")

    def __init__(self, kind, bag, vertex=None, children=()):
        self.kind = kind
        self.bag = frozenset(bag)
        self.vertex = vertex
        self.children = list(children)
        if kind == LEAF:
            assert not self.bag and not self.children
        elif kind == INTRODUCE:
            assert len(self.children) == 1
            assert vertex in self.bag
            assert self.children[0].bag == self.bag - {vertex}
        elif kind == FORGET:
            assert len(self.children) == 1
            assert vertex not in self.bag
            assert self.children[0].bag == self.bag | {vertex}
        elif kind == JOIN:
            assert len(self.children) == 2
            assert all(c.bag == self.bag for c in self.children)
        else:
            raise ValueError(f"unknown node kind {kind!r}")

    def __repr__(self):
        extra = f", v={self.vertex}" if self.vertex is not None else ""
        return f"NiceNode({self.kind}, bag={sorted(self.bag)}{extra})"


class NiceDecomposition:
    """A rooted binary nice decomposition; the root bag is empty."""

    __slots__ = ("root",)

    def __init__(self, root):
        assert root.bag == frozenset()
        self.root = root

    def post_order(self):
        stack = [(self.root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                yield node
            else:
                stack.append((node, True))
                for child in reversed(node.children):
                    stack.append((child, False))

    @property
    def width(self):
        return max(len(node.bag) for node in self.post_order()) - 1

    @property
    def node_count(self):
        return sum(1 for _ in self.post_order())

    def as_decomposition(self):
        bags = {}
        edges = []
        ids = {}
        for i, node in enumerate(self.post_order()):
            ids[id(node)] = i
            bags[i] = node.bag
            for child in node.children:
                edges.append((ids[id(child)], i))
        return TreeDecomposition(bags, edges)


def _introduce_chain(node, vertices):
    for v in sorted(vertices):
        node = NiceNode(INTRODUCE, node.bag | {v}, vertex=v, children=[node])
    return node


def _forget_chain(node, vertices):
    for v in sorted(vertices):
        node = NiceNode(FORGET, node.bag - {v}, vertex=v, children=[node])
    return node


def make_nice(td):
    """Rewrite a decomposition into nice form without increasing width.

    The tree is rooted at the lowest node id.  Child bags are bridged to
    their parent by forgetting the difference and then introducing the
    parent's extra vertices, so every intermediate bag is a subset of one of
    the two original bags.
    """

    root_id = min(td.bags)

    def build(node, parent):
        bag = td.bags[node]
        kids = [u for u in sorted(td.neighbors(node)) if u != parent]
        if not kids:
            return _introduce_chain(NiceNode(LEAF, ()), bag)
        branches = []
        for c in kids:
            sub = build(c, node)
            sub = _forget_chain(sub, td.bags[c] - bag)
            sub = _introduce_chain(sub, bag - sub.bag)
            branches.append(sub)
        out = branches[0]
        for other in branches[1:]:
            out = NiceNode(JOIN, bag, children=[out, other])
        return out

    top = build(root_id, None)
    top = _forget_chain(top, top.bag)
    nice = NiceDecomposition(top)
    assert nice.width <= td.width
    return nice
