"""Seeded instances and query lists for the benchmark workloads.

The generators here are the benchmark's own, so an edit to the package's
``generators`` module cannot shift a workload. Every query gets its own
``random.Random`` keyed by (seed, workload, query index); the same seed
always yields the same instance text.

Where a query's answer is decided by the program rather than by an
oracle (lob and iob), the instance carries a planted spanning out-tree
rooted at vertex 0: the tree's arcs are always present, so vertex 0
reaches every vertex, and k is never above what the planted tree already
achieves. Those answers are therefore "yes" on every seed, and the
correctness gate can reject any "no". kpath targets come from
``brute_longest_path`` (k = longest for a yes, longest + 1 for a no).
"""

import random

# Templates: command, family, size ((rows, cols) for grids, (n, m) for
# random-sparse graphs), 2-cycle probability p2, the rule that sets k,
# query count per seed, ball count b (kpath) and planting style. kpath
# instances with rule "longest" are drawn until their longest path has
# exactly ``longest`` arcs; the query then certifies that optimum with two
# calls on the same instance: k = longest (yes, early exit) and
# k = longest + 1 (no, every subset visited).
def _t(cmd, family, size, p2, rule, count, b=None, plant=None, longest=None):
    return {"cmd": cmd, "family": family, "size": size, "p2": p2,
            "rule": rule, "count": count, "b": b, "plant": plant,
            "longest": longest}


# The counts fill about one run of the benchmark's 32 s. Between seeds,
# the median and tail move with the seed's instance mix, so more queries
# steady them more than more runs of each query do.
WORKLOADS = {
    "dp-grid": [
        _t("lob", "grid", (4, 8), 0.7, "side", 105, plant="kruskal"),
        _t("kpath", "grid", (5, 5), 0.9, "2side-2", 36, b=2, plant="dfs"),
        _t("iob", "grid", (4, 4), 0.9, "0.8n", 24, plant="dfs"),
    ],
    "reduce-large": [
        _t("lob", "grid", (18, 18), 0.7, "4..8", 7, plant="kruskal"),
        _t("lob", "grid", (18, 18), 1.0, "4..8", 7, plant="kruskal"),
        _t("analyze", "grid", (18, 18), 0.7, "4..8", 4, plant="kruskal"),
        _t("analyze", "grid", (18, 18), 1.0, "4..8", 4, plant="kruskal"),
        _t("analyze", "sparse", (200, 280), 0.7, "4..8", 8, plant="kruskal"),
    ],
    "cover-enum": [
        _t("kpath", "grid", (3, 5), 0.2, "longest", 30, b=3, longest=8),
        _t("kpath", "grid", (4, 4), 0.2, "longest", 10, b=3, longest=8),
        _t("kpath", "grid", (3, 6), 0.1, "longest", 6, b=3, longest=9),
        _t("iob", "grid", (3, 5), 0.5, "internal", 16, plant="dfs"),
    ],
}


def grid_edges(rows, cols):
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return edges


def sparse_edges(n, m, rng):
    """A connected simple graph: a random recursive tree plus random extra
    edges up to m in total."""
    edges = set()
    for v in range(1, n):
        u = rng.randrange(v)
        edges.add((u, v))
    while len(edges) < m:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return sorted(edges)


def _adjacency(n, edges):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def plant_tree(n, edges, rng, style):
    """Parent map of a random spanning tree rooted at 0.

    "kruskal" joins edges in random order (bushy, many leaves); "dfs" runs
    a depth-first search with shuffled neighbour order (long paths, many
    internal vertices).
    """
    adj = _adjacency(n, edges)
    tree_adj = [[] for _ in range(n)]
    if style == "kruskal":
        comp = list(range(n))

        def find(x):
            while comp[x] != x:
                comp[x] = comp[comp[x]]
                x = comp[x]
            return x

        order = list(edges)
        rng.shuffle(order)
        for u, v in order:
            a, b = find(u), find(v)
            if a != b:
                comp[a] = b
                tree_adj[u].append(v)
                tree_adj[v].append(u)
        adj = tree_adj
    elif style != "dfs":
        raise ValueError(f"unknown planting style {style!r}")
    parents = {}
    seen = {0}
    stack = [0]
    while stack:
        x = stack[-1]
        nbrs = [y for y in adj[x] if y not in seen]
        if not nbrs:
            stack.pop()
            continue
        y = rng.choice(nbrs)
        seen.add(y)
        parents[y] = x
        stack.append(y)
    if len(seen) != n:
        raise ValueError("planting needs a connected graph")
    return parents


def orient(edges, parents, p2, rng):
    """Each edge becomes a 2-cycle with probability p2, otherwise one arc
    whose direction is a fair coin; planted tree edges always keep their
    parent-to-child arc."""
    arcs = []
    for u, v in edges:
        if rng.random() < p2:
            arcs.extend([(u, v), (v, u)])
        elif parents.get(v) == u:
            arcs.append((u, v))
        elif parents.get(u) == v:
            arcs.append((v, u))
        elif rng.random() < 0.5:
            arcs.append((u, v))
        else:
            arcs.append((v, u))
    return arcs


def reaches_all(n, arcs, root):
    succ = [[] for _ in range(n)]
    for u, v in arcs:
        succ[u].append(v)
    seen = {root}
    stack = [root]
    while stack:
        for y in succ[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == n


def smallest_root(n, arcs):
    """The smallest vertex that reaches every vertex, or None."""
    for v in range(n):
        if reaches_all(n, arcs, v):
            return v
    return None


def serialize(n, arcs, root=None):
    lines = [f"{n} {len(arcs)}"]
    lines.extend(f"{u} {v}" for u, v in sorted(arcs))
    if root is not None:
        lines.append(f"root {root}")
    return "\n".join(lines) + "\n"


def tree_shape(n, parents):
    """(leaves, internal vertices, depth) of a spanning tree rooted at 0."""
    has_child = set(parents.values())
    depth = {0: 0}

    def level(v):
        chain = []
        while v not in depth:
            chain.append(v)
            v = parents[v]
        d = depth[v]
        for x in reversed(chain):
            d += 1
            depth[x] = d
        return depth[chain[0]] if chain else d

    deepest = max(level(v) for v in range(n))
    return n - len(has_child), len(has_child), deepest


def _target_k(rule, rows, cols, n, shape, rng):
    leaves, internal, deepest = shape
    if rule == "side":
        return min(min(rows, cols), leaves)
    if rule == "2side-2":
        return min(rows + cols - 2, deepest)
    if rule == "0.8n":
        return min(round(0.8 * n), internal)
    if rule == "internal":
        return internal
    if rule == "4..8":
        return min(rng.randint(4, 8), leaves)
    raise ValueError(f"unknown k rule {rule!r}")


def make_query(seed, workload, index, template, longest_path):
    """One query: an instance and the solver calls made on it, each with
    its k and expected answer. ``longest_path(n, arcs)`` is the oracle
    that fixes kpath targets; it is passed in so this module stays free of
    the package under test."""
    rng = random.Random(f"{seed}:{workload}:{index}")
    if template["family"] == "grid":
        rows, cols = template["size"]
        n = rows * cols
        edges = grid_edges(rows, cols)
    else:
        n, m = template["size"]
        rows = cols = 0
        edges = sparse_edges(n, m, rng)
    base = {"cmd": template["cmd"], "family": template["family"],
            "size": list(template["size"]), "p2": template["p2"],
            "b": template["b"], "n": n, "id": index}
    if template["plant"] is None:
        while True:
            arcs = orient(edges, {}, template["p2"], rng)
            longest = longest_path(n, arcs)
            if longest == template["longest"]:
                break
        return dict(base, root=None, text=serialize(n, arcs),
                    arcs=frozenset(arcs),
                    calls=[{"k": longest, "expect": True},
                           {"k": longest + 1, "expect": False}])
    parents = plant_tree(n, edges, rng, template["plant"])
    arcs = orient(edges, parents, template["p2"], rng)
    if smallest_root(n, arcs) != 0:
        raise RuntimeError("a planted tree makes vertex 0 reach everything")
    shape = tree_shape(n, parents)
    k = _target_k(template["rule"], rows, cols, n, shape, rng)
    # kpath: the planted tree has a root path of >= k arcs; lob, iob and
    # analyze: the planted tree itself meets k. Either way the truth is yes.
    root = None if template["cmd"] == "kpath" else 0
    return dict(base, root=root, text=serialize(n, arcs, root),
                arcs=frozenset(arcs), calls=[{"k": k, "expect": True}])


def build_queries(workload, seed, longest_path):
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}, pick from "
                         f"{sorted(WORKLOADS)}")
    queries = []
    for template in WORKLOADS[workload]:
        for _ in range(template["count"]):
            queries.append(make_query(seed, workload, len(queries), template,
                                      longest_path))
    return queries
