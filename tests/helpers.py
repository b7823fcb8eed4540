"""Shared corpus builders for the test suite, and the brute-force
references that only tests use. Everything is seeded."""

import random

from hypothesis import strategies as st

from outbranching import BudgetError, Digraph, OutTree, reachable
from outbranching.oracle import DEFAULT_ENUM_LIMIT
from outbranching.treewidth import EXACT_LIMIT, exact_treewidth_small, greedy_decomposition


def random_digraph(rng, n_lo=4, n_hi=7, density=2.0):
    """A random simple digraph with n in [n_lo, n_hi] and about density*n arcs."""
    n = rng.randint(n_lo, n_hi)
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    m = min(len(pairs), max(1, int(density * n) + rng.randint(-2, 2)))
    arcs = rng.sample(pairs, m)
    return Digraph.of(n, arcs)


def random_corpus(count, seed, n_lo=4, n_hi=7, density=2.0):
    rng = random.Random(seed)
    return [random_digraph(rng, n_lo, n_hi, density) for _ in range(count)]


def multi_cut_instance():
    # x is reachable two ways but alone feeds a and b
    return Digraph.of(5, [(0, 1), (0, 2), (2, 1), (1, 3), (1, 4)])


def petal_instance(petals=26):
    """Hub h bidirected to root, one-way spokes, petals bidirected to h."""
    h = 1
    arcs = [(0, h), (h, 0)]
    for i in range(petals):
        p = 2 + i
        arcs.append((0, p))
        arcs.extend([(p, h), (h, p)])
    return Digraph.of(2 + petals, arcs)


@st.composite
def labelled_digraphs(draw, max_n=9):
    """A digraph on 1..max_n distinct ids drawn from 0..99, so the ids are
    rarely contiguous, with up to three arcs per vertex."""
    ids = draw(st.lists(st.integers(0, 99), unique=True, min_size=1,
                        max_size=max_n))
    pairs = [(u, v) for u in ids for v in ids if u != v]
    arcs = draw(st.lists(st.sampled_from(pairs), unique=True,
                         max_size=min(3 * len(ids), len(pairs)))) if pairs else []
    return Digraph(ids, arcs)


@st.composite
def parent_maps(draw, max_n=12):
    """(root, parents) for OutTree: a random tree on 0..n-1, then up to two
    parents redirected anywhere in 0..n (n is outside the tree, so an
    orphan), sometimes a parent for the root, keys in random order."""
    n = draw(st.integers(1, max_n))
    order = draw(st.permutations(range(n)))
    root = order[0]
    parents = {v: order[draw(st.integers(0, i - 1))]
               for i, v in enumerate(order) if i}
    for _ in range(draw(st.integers(0, 2))):
        v = draw(st.sampled_from(order))
        if v != root or draw(st.integers(0, 3)) == 0:
            parents[v] = draw(st.integers(0, n))
    keys = draw(st.permutations(list(parents)))
    return root, {c: parents[c] for c in keys}


def out_tree_walk_error(root, parents):
    """The message of the ValueError OutTree(root, parents) raises, or
    None when it accepts, by walking every vertex all the way up to the
    root: the O(n * depth) reference for OutTree's checks."""
    if root in parents:
        return "root cannot have a parent"
    for c, p in parents.items():
        if c == p:
            return f"vertex {c} is its own parent"
    for c in parents:
        seen = {c}
        x = c
        while x != root:
            x = parents.get(x)
            if x is None or x in seen:
                return f"vertex {c} does not reach the root"
            seen.add(x)
    return None


def brute_idoms(d, r):
    """{v: immediate dominator of v} over the vertices r reaches, r mapped
    to itself, by definition: x dominates y iff y leaves
    reachable(d.without_vertices({x}), r). One sweep per vertex."""
    reach = reachable(d, r)
    dom = {y: {y} for y in reach}
    for x in reach:
        for y in reach - reachable(d.without_vertices({x}), r):
            dom[y].add(x)
    # the strict dominators of y form a chain; the idom is its deepest one,
    # the one with the most dominators of its own
    return {y: max(ds - {y}, key=lambda x: len(dom[x])) if y != r else r
            for y, ds in dom.items()}


def brute_arcs_disconnecting_two(d, r):
    """Arcs whose removal strands >= 2 vertices, one sweep per arc."""
    base = reachable(d, r)
    out = set()
    for arc in d.arcs:
        lost = base - reachable(d.without_arcs({arc}), r)
        if len(lost) >= 2:
            out.add(arc)
    return frozenset(out)


def brute_is_rooted_2connected(d, r):
    """No z != r strands anything, one sweep per vertex; r reaches all."""
    return all(reachable(d.without_vertices({z}), r) == d.vertices - {z}
               for z in d.vertices if z != r)


def brute_cut_profile(d, r):
    """CutProfile fields as plain values, one sweep per vertex; r reaches
    all."""
    stranded = {}
    for x in sorted(d.vertices - {r}):
        lost = d.vertices - {x} - reachable(d.without_vertices({x}), r)
        if lost:
            stranded[x] = frozenset(d.out_neighbors(x) & lost)
    multi = frozenset(x for x, ys in stranded.items() if len(ys) >= 2)
    single = frozenset(x for x, ys in stranded.items() if len(ys) == 1)
    return {
        "stranded": stranded,
        "multi_cut": multi,
        "single_cut": single,
        "pendant_arcs": frozenset((x, y) for x in single for y in stranded[x]),
    }


def all_orientations(n, edges):
    """Every digraph obtained by directing each undirected edge one way."""
    out = []
    for mask in range(1 << len(edges)):
        arcs = []
        for i, (u, v) in enumerate(edges):
            arcs.append((u, v) if mask >> i & 1 else (v, u))
        out.append(Digraph.of(n, arcs))
    return out


FOUR_VERTEX_GRAPHS = {
    "cycle": [(0, 1), (1, 2), (2, 3), (3, 0)],
    "diamond": [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)],
    "complete": [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
}


def four_vertex_orientations():
    out = []
    for edges in FOUR_VERTEX_GRAPHS.values():
        out.extend(all_orientations(4, edges))
    return out


def grid_digraph(rows, cols, seed=0, both_ways_prob=1.0):
    """Grid with seeded edge orientation; both_ways_prob=1.0 is bidirected.

    Kept here independent of the library's generator module so generator
    tests have something to compare against.
    """
    rng = random.Random(seed)
    arcs = []

    def vid(r, c):
        return r * cols + c

    for r in range(rows):
        for c in range(cols):
            for r2, c2 in ((r, c + 1), (r + 1, c)):
                if r2 >= rows or c2 >= cols:
                    continue
                u, v = vid(r, c), vid(r2, c2)
                if rng.random() < both_ways_prob:
                    arcs.extend([(u, v), (v, u)])
                elif rng.random() < 0.5:
                    arcs.append((u, v))
                else:
                    arcs.append((v, u))
    return Digraph.of(rows * cols, arcs)


def grid_graph(rows, cols):
    """Undirected rows x cols grid, row-major vertex ids."""
    from outbranching import UndirectedGraph

    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return UndirectedGraph.of(rows * cols, edges)


def brute_min_fill_order(graph):
    """Min-fill elimination order by a full re-scan after every step.

    Every remaining vertex is scored by its missing neighbour pairs and the
    first one of least fill in ascending id order is eliminated; the
    reference the incremental order in `treewidth` must reproduce.
    """
    adj = {v: set(graph.neighbors(v)) for v in graph.vertices}
    order = []
    while adj:
        best_score = None
        best_v = None
        for v in sorted(adj):
            nbl = sorted(adj[v])
            score = 0
            for i, a in enumerate(nbl):
                for b in nbl[i + 1:]:
                    if b not in adj[a]:
                        score += 1
            if best_score is None or score < best_score:
                best_score = score
                best_v = v
        order.append(best_v)
        nb = adj.pop(best_v)
        for a in nb:
            adj[a].discard(best_v)
            adj[a].update(nb - {a})
    return order


def component_width_bound(graph):
    """The per-component width bound built from whole decompositions: the
    exact width of a component with at most `EXACT_LIMIT` vertices, the
    min-fill decomposition's width of a larger one; -1 with no vertices.
    The reference `treewidth_upper_bound` must reproduce."""
    best = -1
    for comp in graph.components():
        sub = graph.induced(comp)
        if len(comp) <= EXACT_LIMIT:
            width = exact_treewidth_small(sub)[0]
        else:
            width = greedy_decomposition(sub).width
        best = max(best, width)
    return best


def count_arborescences(digraph, root):
    """Number of spanning out-trees rooted at ``root``, by the directed
    matrix-tree theorem: determinant of the in-degree Laplacian with the
    root's row and column struck out. Independent of
    ``oracle.enum_arborescences`` on purpose; the two must agree.

    Fraction-free Bareiss elimination (Math. Comp. 22, 1968) keeps the
    count exact past 2**53, where a float determinant rounds. Pivot i is
    the leading principal minor of order i+1: the number of cycle-free
    in-neighbour choices for the first i+1 vertices. A zero pivot thus
    means no arborescence, and rows never need swapping."""
    if root not in digraph.vertices:
        raise ValueError(f"root {root} not in digraph")
    order = [v for v in sorted(digraph.vertices) if v != root]
    idx = {v: i for i, v in enumerate(order)}
    n = len(order)
    lap = [[0] * n for _ in range(n)]
    for v in order:
        lap[idx[v]][idx[v]] = digraph.in_degree(v)
    for u, v in digraph.arcs:
        if v == root:
            continue
        if u == root:
            continue
        lap[idx[u]][idx[v]] -= 1
    prev = 1
    for i in range(n):
        if lap[i][i] == 0:
            return 0
        for r in range(i + 1, n):
            # a row with a zero in column i is only scaled by pivot/prev,
            # so it stays as it is when the two are equal; on a directed
            # path every row does, and the count takes quadratic time
            if lap[r][i] == 0 and lap[i][i] == prev:
                continue
            for c in range(i + 1, n):
                lap[r][c] = (lap[r][c] * lap[i][i]
                             - lap[r][i] * lap[i][c]) // prev
        prev = lap[i][i]
    return prev


def enum_out_trees(digraph, root, max_size, limit=DEFAULT_ENUM_LIMIT):
    """Yield every out-tree rooted at ``root`` with at most ``max_size``
    vertices (spanning not required), each exactly once.

    Grows trees by attaching one new vertex at a time and deduplicates
    the different growth orders with a seen set, which is fine at oracle
    scale.
    """
    if root not in digraph.vertices:
        raise ValueError(f"root {root} not in digraph")
    if max_size < 1:
        return
    seen = set()
    produced = 0

    def rec(parent):
        nonlocal produced
        key = frozenset(parent.items())
        if key in seen:
            return
        seen.add(key)
        produced += 1
        if produced > limit:
            raise BudgetError("out-tree enumeration", produced, limit)
        yield OutTree(root, dict(parent))
        if len(parent) + 1 >= max_size:
            return
        inside = set(parent)
        inside.add(root)
        for u in sorted(inside):
            for v in sorted(digraph.out_neighbors(u)):
                if v in inside or v == root:
                    continue
                parent[v] = u
                yield from rec(parent)
                del parent[v]

    yield from rec({})


def brute_max_internal_tree(digraph, root, max_size, limit=DEFAULT_ENUM_LIMIT):
    """Maximum internal-vertex count over out-trees rooted at ``root``
    with at most ``max_size`` vertices. At least the one-vertex tree
    always exists, so this returns an int >= 0."""
    best = 0
    for t in enum_out_trees(digraph, root, max_size, limit=limit):
        ni = len(t.internal_vertices())
        if ni > best:
            best = ni
    return best
