"""Core graph types: directed graphs and their contractions, underlying
undirected graphs, out-trees, and the plain-text instance format.

Representation decisions that the rest of the package relies on:

* Vertices are integers. Fresh instances use 0..n-1, but vertex sets are
  stored explicitly because contraction removes ids and duplication adds
  new ones; ids of surviving vertices never change.
* Arcs are a frozenset of (tail, head) pairs. No self-loops, no parallel
  arcs; contraction drops both.
* Contracting an arc (u, v) reuses the tail id u for the merged vertex, so
  a chosen root keeps its id through any chain of reductions (a root is
  never the head of a contracted arc in the pipelines here). A graph does
  not remember which vertices were merged; callers that need to map a
  witness back record the (graph_before, arc) steps and replay them.
* All types are immutable after construction; derived graphs are new
  objects.
"""

from __future__ import annotations


class ParseError(ValueError):
    pass


class Digraph:
    """A finite simple directed graph with explicit vertex ids."""

    __slots__ = ("vertices", "arcs", "_succ", "_pred")

    def __init__(self, vertices, arcs):
        self.vertices = frozenset(vertices)
        self.arcs = frozenset(arcs)
        for u, v in self.arcs:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if u not in self.vertices or v not in self.vertices:
                raise ValueError(f"arc ({u}, {v}) leaves the vertex set")
        succ = {v: set() for v in self.vertices}
        pred = {v: set() for v in self.vertices}
        for u, v in self.arcs:
            succ[u].add(v)
            pred[v].add(u)
        self._succ = {v: frozenset(s) for v, s in succ.items()}
        self._pred = {v: frozenset(s) for v, s in pred.items()}

    @classmethod
    def of(cls, n, arcs):
        """Graph on vertices 0..n-1 with the given arcs."""
        return cls(range(n), arcs)

    @property
    def n(self):
        return len(self.vertices)

    @property
    def m(self):
        return len(self.arcs)

    def out_neighbors(self, v):
        return self._succ[v]

    def in_neighbors(self, v):
        return self._pred[v]

    def out_degree(self, v):
        return len(self._succ[v])

    def in_degree(self, v):
        return len(self._pred[v])

    def has_arc(self, u, v):
        return (u, v) in self.arcs

    def induced(self, keep):
        """Subgraph induced by the vertex set ``keep``."""
        keep = frozenset(keep)
        if not keep <= self.vertices:
            raise ValueError("induced() got vertices outside the graph")
        arcs = {(u, v) for (u, v) in self.arcs if u in keep and v in keep}
        return Digraph(keep, arcs)

    def without_vertices(self, drop):
        return self.induced(self.vertices - frozenset(drop))

    def without_arcs(self, drop):
        return Digraph(self.vertices, self.arcs - frozenset(drop))

    def __eq__(self, other):
        if not isinstance(other, Digraph):
            return NotImplemented
        return self.vertices == other.vertices and self.arcs == other.arcs

    def __hash__(self):
        return hash((self.vertices, self.arcs))

    def __repr__(self):
        return f"Digraph(n={self.n}, m={self.m})"


class UndirectedGraph:
    """A finite simple undirected graph; edges are (min, max) pairs."""

    __slots__ = ("vertices", "edges", "_adj")

    def __init__(self, vertices, edges):
        self.vertices = frozenset(vertices)
        canon = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if u not in self.vertices or v not in self.vertices:
                raise ValueError(f"edge ({u}, {v}) leaves the vertex set")
            canon.add((u, v) if u < v else (v, u))
        self.edges = frozenset(canon)
        adj = {v: set() for v in self.vertices}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        self._adj = {v: frozenset(s) for v, s in adj.items()}

    @classmethod
    def of(cls, n, edges):
        return cls(range(n), edges)

    @property
    def n(self):
        return len(self.vertices)

    @property
    def m(self):
        return len(self.edges)

    def neighbors(self, v):
        return self._adj[v]

    def degree(self, v):
        return len(self._adj[v])

    def has_edge(self, u, v):
        return ((u, v) if u < v else (v, u)) in self.edges

    def induced(self, keep):
        keep = frozenset(keep)
        if not keep <= self.vertices:
            raise ValueError("induced() got vertices outside the graph")
        edges = {(u, v) for (u, v) in self.edges if u in keep and v in keep}
        return UndirectedGraph(keep, edges)

    def without_vertices(self, drop):
        return self.induced(self.vertices - frozenset(drop))

    def components(self):
        """Connected components as a sorted list of frozensets."""
        seen = set()
        comps = []
        for s in sorted(self.vertices):
            if s in seen:
                continue
            comp = {s}
            stack = [s]
            while stack:
                x = stack.pop()
                for y in self._adj[x]:
                    if y not in comp:
                        comp.add(y)
                        stack.append(y)
            seen |= comp
            comps.append(frozenset(comp))
        return comps

    def __eq__(self, other):
        if not isinstance(other, UndirectedGraph):
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):
        return f"UndirectedGraph(n={self.n}, m={self.m})"


def underlying_graph(digraph):
    """Forget orientation: one edge per arc pair, 2-cycles collapse."""
    return UndirectedGraph(digraph.vertices,
                           {(u, v) for (u, v) in digraph.arcs})


def contract_arc_directed(digraph, arc):
    """Contract the arc (u, v): one vertex replaces both endpoints, keeping
    every in-arc and out-arc either endpoint had. Used when collapsing an
    arc whose removal would strand vertices and when merging a pendant
    cut vertex with its lone dependent; the merged vertex keeps the
    tail's id, so a root at the tail survives by name. Loops created by
    arcs between u and v disappear; duplicate arcs collapse because arcs
    form a set."""
    u, v = arc
    if arc not in digraph.arcs:
        raise ValueError(f"cannot contract missing arc ({u}, {v})")
    arcs = set()
    for a, b in digraph.arcs:
        a2 = u if a == v else a
        b2 = u if b == v else b
        if a2 != b2:
            arcs.add((a2, b2))
    return Digraph(digraph.vertices - {v}, arcs)


# An alias, not a second contraction: the name stays public because
# callers, the benchmark's layer trace among them, refer to it.
identify_arc_endpoints = contract_arc_directed


def bfs_layers(graph, root):
    """Breadth-first layers of an undirected graph from ``root``.

    Returns (layers, unreachable): layers is a list of frozensets with
    layers[0] == {root} and layers[d] the vertices at distance d;
    consecutive layers are adjacent and non-adjacent layers share no edge.
    Vertices in no layer are reported separately, never dropped silently.
    """
    if root not in graph.vertices:
        raise ValueError(f"root {root} not in graph")
    dist = {root: 0}
    frontier = [root]
    layers = [frozenset((root,))]
    while frontier:
        nxt = set()
        for x in frontier:
            for y in graph.neighbors(x):
                if y not in dist:
                    dist[y] = len(layers)
                    nxt.add(y)
        if nxt:
            layers.append(frozenset(nxt))
        frontier = sorted(nxt)
    unreachable = graph.vertices - dist.keys()
    return layers, frozenset(unreachable)


class OutTree:
    """A rooted tree whose arcs point away from the root.

    Stored as a parent map {child: parent}. The root has no entry. A
    single-vertex tree is the root alone, and that root counts as a leaf
    (out-degree zero).
    """

    __slots__ = ("root", "parents", "_children")

    def __init__(self, root, parents):
        self.root = root
        self.parents = dict(parents)
        if root in self.parents:
            raise ValueError("root cannot have a parent")
        children = {root: set()}
        for c, p in self.parents.items():
            if c == p:
                raise ValueError(f"vertex {c} is its own parent")
            children.setdefault(p, set())
            children.setdefault(c, set())
            children[p].add(c)
        # every vertex must reach the root through parents, which also
        # rules out cycles
        for c in self.parents:
            seen = {c}
            x = c
            while x != root:
                x = self.parents.get(x)
                if x is None or x in seen:
                    raise ValueError(f"vertex {c} does not reach the root")
                seen.add(x)
        # tuples, not sets: solvers keep many witnesses, and most vertices
        # of a tree are leaves, which share the one empty tuple
        self._children = {v: tuple(s) for v, s in children.items()}

    @property
    def vertex_set(self):
        return frozenset(self._children)

    @property
    def size(self):
        return len(self._children)

    def children(self, v):
        return frozenset(self._children[v])

    def arcs(self):
        return frozenset((p, c) for c, p in self.parents.items())

    def leaves(self):
        return frozenset(v for v, cs in self._children.items() if not cs)

    def internal_vertices(self):
        return frozenset(v for v, cs in self._children.items() if cs)

    def subtree(self, v):
        """Vertices of the subtree hanging at v, v included."""
        out = {v}
        stack = [v]
        while stack:
            x = stack.pop()
            for c in self._children[x]:
                out.add(c)
                stack.append(c)
        return frozenset(out)

    def __eq__(self, other):
        if not isinstance(other, OutTree):
            return NotImplemented
        return self.root == other.root and self.parents == other.parents

    def __hash__(self):
        return hash((self.root, frozenset(self.parents.items())))

    def __repr__(self):
        return (f"OutTree(root={self.root}, size={self.size}, "
                f"leaves={len(self.leaves())})")


def validate_out_tree(digraph, tree, spanning=False):
    """Check a tree against its host digraph; raises ValueError on mismatch."""
    if not tree.vertex_set <= digraph.vertices:
        raise ValueError("tree uses vertices outside the digraph")
    for c, p in tree.parents.items():
        if (p, c) not in digraph.arcs:
            raise ValueError(f"tree arc ({p}, {c}) is not a digraph arc")
    if spanning and tree.vertex_set != digraph.vertices:
        missing = digraph.vertices - tree.vertex_set
        raise ValueError(f"tree does not span, missing {sorted(missing)}")


def parse_instance(text):
    """Parse the plain instance format.

    Line 1: "n m". Then m lines "u v", one arc each, 0-based endpoints.
    An optional final line "root r". '#' starts a comment; blank lines are
    ignored. Returns (Digraph, root or None). Errors carry 1-based physical
    line numbers.
    """
    header = None
    arcs = []
    seen = set()
    root = None
    n = m = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if header is None:
            if len(fields) != 2:
                raise ParseError(f"malformed header at line {lineno}")
            try:
                n, m = int(fields[0]), int(fields[1])
            except ValueError:
                raise ParseError(f"malformed header at line {lineno}") from None
            if n < 1 or m < 0:
                raise ParseError(f"bad sizes at line {lineno}")
            header = lineno
            continue
        if fields[0] == "root":
            if len(fields) != 2:
                raise ParseError(f"malformed root line at line {lineno}")
            if root is not None:
                raise ParseError(f"duplicate root line at line {lineno}")
            try:
                root = int(fields[1])
            except ValueError:
                raise ParseError(f"malformed root line at line {lineno}") from None
            if not 0 <= root < n:
                raise ParseError(f"root out of range at line {lineno}")
            continue
        if len(fields) != 2:
            raise ParseError(f"malformed arc at line {lineno}")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise ParseError(f"malformed arc at line {lineno}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"vertex out of range at line {lineno}")
        if u == v:
            raise ParseError(f"self-loop at line {lineno}")
        if (u, v) in seen:
            raise ParseError(f"duplicate arc at line {lineno}")
        if len(arcs) == m:
            raise ParseError(f"more than {m} arcs at line {lineno}")
        arcs.append((u, v))
        seen.add((u, v))
    if header is None:
        raise ParseError("empty input, expected a header line")
    if len(arcs) != m:
        raise ParseError(f"expected {m} arcs, found {len(arcs)}")
    return Digraph.of(n, arcs), root


def parse_digraph(text):
    """Parse the instance format, dropping any root line."""
    return parse_instance(text)[0]


def serialize_instance(digraph, root=None):
    """Emit the instance format with sorted arcs.

    Vertex ids are remapped to 0..n-1 in sorted order, so graphs that went
    through contraction serialize to fresh, dense ids; parse then serialize
    is the identity on already-normalized text.
    """
    order = sorted(digraph.vertices)
    index = {v: i for i, v in enumerate(order)}
    if root is not None and root not in digraph.vertices:
        raise ValueError(f"root {root} not in digraph")
    lines = [f"{digraph.n} {digraph.m}"]
    for u, v in sorted((index[u], index[v]) for (u, v) in digraph.arcs):
        lines.append(f"{u} {v}")
    if root is not None:
        lines.append(f"root {index[root]}")
    return "\n".join(lines) + "\n"
