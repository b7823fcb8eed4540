"""Core graph types: directed graphs and their contractions, underlying
undirected graphs, out-trees and the search results that carry them, and
the plain-text instance format.

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
  witness back record each contracted arc, with what they need of the
  graph before it, and replay them.
* All types are immutable after construction; derived graphs are new
  objects, built from their input's neighbor maps without checking the
  input again. A contracted graph, or one with arcs removed, shares with
  its input every neighbor set the change leaves alone, which is safe
  because none is mutated.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import DPInvariantError


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
    def _from_parts(cls, vertices, arcs, succ, pred):
        """A graph from parts already known to agree: the vertex and arc
        frozensets and the {v: frozenset} successor and predecessor maps.
        Nothing is checked or copied."""
        graph = cls.__new__(cls)
        graph.vertices, graph.arcs = vertices, arcs
        graph._succ, graph._pred = succ, pred
        return graph

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

    def in_degree(self, v):
        return len(self._pred[v])

    def has_arc(self, u, v):
        return (u, v) in self.arcs

    def induced(self, keep):
        """Subgraph induced by the vertex set ``keep``, read off this
        graph's neighbor maps at O(deg v) per kept vertex v."""
        keep = frozenset(keep)
        if not keep <= self.vertices:
            raise ValueError("induced() got vertices outside the graph")
        succ = {v: self._succ[v] & keep for v in keep}
        pred = {v: self._pred[v] & keep for v in keep}
        arcs = frozenset((u, v) for u in keep for v in succ[u])
        return Digraph._from_parts(keep, arcs, succ, pred)

    def without_vertices(self, drop):
        return self.induced(self.vertices - frozenset(drop))

    def without_arcs(self, drop):
        """This graph minus the arcs in ``drop``; arcs it lacks are
        ignored. Only the endpoints of dropped arcs get new neighbor sets."""
        drop = self.arcs & frozenset(drop)
        succ, pred = dict(self._succ), dict(self._pred)
        for u in {u for u, _ in drop}:
            succ[u] = frozenset(v for v in succ[u] if (u, v) not in drop)
        for v in {v for _, v in drop}:
            pred[v] = frozenset(u for u in pred[v] if (u, v) not in drop)
        return Digraph._from_parts(self.vertices, self.arcs - drop, succ, pred)

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
    def _from_parts(cls, vertices, edges, adj):
        """A graph from parts already known to agree: the vertex and
        canonical edge frozensets and the {v: frozenset} adjacency map.
        Nothing is checked or copied."""
        graph = cls.__new__(cls)
        graph.vertices, graph.edges, graph._adj = vertices, edges, adj
        return graph

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

    def induced(self, keep):
        keep = frozenset(keep)
        if not keep <= self.vertices:
            raise ValueError("induced() got vertices outside the graph")
        adj = {v: self._adj[v] & keep for v in keep}
        edges = frozenset((u, v) for u in keep for v in adj[u] if u < v)
        return UndirectedGraph._from_parts(keep, edges, adj)

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

    def __repr__(self):
        return f"UndirectedGraph(n={self.n}, m={self.m})"


def underlying_graph(digraph):
    """Forget orientation: one edge per arc pair, 2-cycles collapse."""
    adj = {v: digraph._succ[v] | digraph._pred[v] for v in digraph.vertices}
    edges = frozenset((u, v) if u < v else (v, u) for u, v in digraph.arcs)
    return UndirectedGraph._from_parts(digraph.vertices, edges, adj)


def contract_arc_directed(digraph, arc):
    """Contract the arc (u, v): one vertex replaces both endpoints, keeping
    every in-arc and out-arc either endpoint had. Used when collapsing an
    arc whose removal would strand vertices; the merged vertex keeps the
    tail's id, so a root at the tail survives by name. Loops created by
    arcs between u and v disappear; duplicate arcs collapse because arcs
    form a set. The input is left unchanged."""
    return contract_arcs(digraph, (arc,))


def contract_arcs(digraph, arcs):
    """Contract the arcs one after another, in the given order, as a chain
    of contract_arc_directed calls would; an arc missing at its turn
    raises ValueError (on a matching, none is).  The two neighbor maps and
    the arc set are copied once, so the cost is O(n + m) plus
    O(deg u + deg v) per arc (u, v); the result shares every neighbor set
    no contraction rewires."""
    succ, pred = dict(digraph._succ), dict(digraph._pred)
    kept, heads = set(digraph.arcs), set()
    for u, v in arcs:
        if (u, v) not in kept:
            raise ValueError(f"cannot contract missing arc ({u}, {v})")
        heads.add(v)
        out_v, in_v = succ.pop(v), pred.pop(v)
        for w in out_v:
            kept.discard((v, w))
            if w != u:
                kept.add((u, w))
                pred[w] = pred[w] - {v} | {u}
        for w in in_v:
            kept.discard((w, v))
            if w != u:
                kept.add((w, u))
                succ[w] = succ[w] - {v} | {u}
        succ[u] = (succ[u] | out_v) - {u, v}
        pred[u] = (pred[u] | in_v) - {u, v}
    return Digraph._from_parts(digraph.vertices - heads, frozenset(kept),
                               succ, pred)


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

    Stored as two aligned tuples and nothing else: the children in
    ascending order and the parent of each. The root is not a child, and
    the parent map, vertex set, leaves and internal vertices are read off
    the tuples when asked for. A single-vertex tree is the root alone,
    and that root counts as a leaf (out-degree zero).
    """

    __slots__ = ("root", "_children", "_parents")

    def __init__(self, root, parents):
        parents = dict(parents)
        if root in parents:
            raise ValueError("root cannot have a parent")
        for c, p in parents.items():
            if c == p:
                raise ValueError(f"vertex {c} is its own parent")
        # every vertex must reach the root through parents, which also
        # rules out cycles and puts every parent in the tree; a walk stops
        # at a vertex an earlier walk proved, so each vertex is walked once
        proved = {root}
        for c in parents:
            seen = set()
            x = c
            while x not in proved:
                seen.add(x)
                x = parents.get(x)
                if x is None or x in seen:
                    raise ValueError(f"vertex {c} does not reach the root")
            proved |= seen
        self.root = root
        self._children = tuple(sorted(parents))
        self._parents = tuple(map(parents.__getitem__, self._children))

    @property
    def parents(self):
        """A fresh {child: parent} dict; the root has no entry."""
        return dict(zip(self._children, self._parents))

    @property
    def vertex_set(self):
        return frozenset(self._children).union((self.root,))

    @property
    def size(self):
        return len(self._children) + 1

    def arcs(self):
        return frozenset(zip(self._parents, self._children))

    def leaves(self):
        return self.vertex_set.difference(self._parents)

    def internal_vertices(self):
        return frozenset(self._parents)

    def __eq__(self, other):
        if not isinstance(other, OutTree):
            return NotImplemented
        return (self.root == other.root and self._children == other._children
                and self._parents == other._parents)

    def __hash__(self):
        return hash((self.root, self._children, self._parents))

    def __repr__(self):
        return (f"OutTree(root={self.root}, size={self.size}, "
                f"leaves={len(self.leaves())})")


# Outcome of a spanning out-tree search: the first root that succeeded,
# its witness if requested, and one report per root tried.
SearchResult = namedtuple("SearchResult", "satisfiable root witness reports")


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


def witness_tree(digraph, root, parents, spanning=True):
    """OutTree(root, parents), validated against the digraph, for a tree a
    solver built itself: a failure there is the solver's own fault, so it
    raises DPInvariantError, not the ValueError of bad input."""
    try:
        tree = OutTree(root, parents)
        validate_out_tree(digraph, tree, spanning=spanning)
    except ValueError as exc:
        raise DPInvariantError(f"invalid witness tree: {exc}") from exc
    return tree


def grow_breadth_first(digraph, tree):
    """Extend an out-tree of the digraph to a spanning one, breadth-first.

    The first frontier is the tree's vertices, sorted; each frontier
    vertex in turn adopts its uncovered out-neighbours in sorted order,
    and they form the next frontier, sorted again.  Every arc of the tree
    is kept.  Raises ValueError when some vertex is unreachable from the
    tree; the grown tree is validated as a spanning witness.
    """
    parents = tree.parents
    covered = set(tree.vertex_set)
    frontier = sorted(covered)
    while frontier:
        nxt = []
        for u in frontier:
            for w in sorted(digraph.out_neighbors(u)):
                if w not in covered:
                    covered.add(w)
                    parents[w] = u
                    nxt.append(w)
        frontier = sorted(nxt)
    missing = digraph.vertices - covered
    if missing:
        raise ValueError(
            f"vertices {sorted(missing)} are unreachable from the tree")
    return witness_tree(digraph, tree.root, parents)


def parse_instance(text):
    """Parse the plain instance format.

    Line 1: "n m". Then m lines "u v", one arc each, 0-based endpoints.
    An optional final line "root r". '#' starts a comment; blank lines are
    ignored. Returns (Digraph, root or None). Errors carry 1-based physical
    line numbers.
    """
    header = None
    arcs = []
    succ = pred = None
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
            succ = [set() for _ in range(n)]
            pred = [set() for _ in range(n)]
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
        if v in succ[u]:
            raise ParseError(f"duplicate arc at line {lineno}")
        if len(arcs) == m:
            raise ParseError(f"more than {m} arcs at line {lineno}")
        arcs.append((u, v))
        succ[u].add(v)
        pred[v].add(u)
    if header is None:
        raise ParseError("empty input, expected a header line")
    if len(arcs) != m:
        raise ParseError(f"expected {m} arcs, found {len(arcs)}")
    # every arc was checked above, so the maps go in as they are
    return Digraph._from_parts(
        frozenset(range(n)), frozenset(arcs),
        {v: frozenset(s) for v, s in enumerate(succ)},
        {v: frozenset(s) for v, s in enumerate(pred)}), root


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
