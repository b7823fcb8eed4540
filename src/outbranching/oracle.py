"""Brute-force reference implementations.

These are the ground truth the solvers are audited against, so they favor
obviousness over speed and are written independently of the solver code
paths: enumeration by exhaustive parent choice, plus a second, fully
independent arborescence count through the directed matrix-tree
determinant. They live in the library, not the test tree, because the
`verify` command replays them on demand.

Intended scale is tiny (n up to about 12); everything takes an explicit
budget and raises instead of truncating.
"""

from __future__ import annotations

from .digraph import OutTree
from .connectivity import reachable
from .errors import BudgetError

DEFAULT_ENUM_LIMIT = 500_000


def enum_arborescences(digraph, root, limit=DEFAULT_ENUM_LIMIT):
    """Yield every spanning out-tree of ``digraph`` rooted at ``root``.

    Enumerates parent choices vertex by vertex in ascending id order,
    pruning any choice that closes a cycle among already-chosen parents;
    complete choice vectors are then exactly the arborescences, each
    produced once, in lexicographic parent-vector order. Raises
    BudgetError past ``limit`` trees.
    """
    if root not in digraph.vertices:
        raise ValueError(f"root {root} not in digraph")
    if reachable(digraph, root) != digraph.vertices:
        return
    others = sorted(digraph.vertices - {root})
    choices = [sorted(digraph.in_neighbors(v)) for v in others]
    parent = {}
    produced = 0

    def closes_cycle(v, p):
        x = p
        while x != root:
            if x == v:
                return True
            x = parent.get(x)
            if x is None:
                return False
        return False

    # an explicit stack of iterators over the untried parent choices of
    # others[0], others[1], ..., so that depth is not bounded by recursion
    stack = []
    while True:
        if len(stack) == len(others):
            produced += 1
            if produced > limit:
                raise BudgetError("arborescence enumeration", produced, limit)
            yield OutTree(root, dict(parent))
        else:
            stack.append(iter(choices[len(stack)]))
        # take the next choice of the deepest vertex, backing up past every
        # vertex whose choices are used up
        while stack:
            v = others[len(stack) - 1]
            p = next((p for p in stack[-1] if not closes_cycle(v, p)), None)
            if p is not None:
                parent[v] = p
                break
            stack.pop()
            parent.pop(v, None)
        else:
            return


def count_arborescences(digraph, root):
    """Number of spanning out-trees rooted at ``root``, by the directed
    matrix-tree theorem: determinant of the in-degree Laplacian with the
    root's row and column struck out. Independent of the enumeration above
    on purpose; the two must agree.

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


def brute_max_leaves(digraph, root, limit=DEFAULT_ENUM_LIMIT):
    """Maximum leaf count over spanning out-trees rooted at ``root``;
    None when no such tree exists."""
    best = None
    for t in enum_arborescences(digraph, root, limit=limit):
        nl = len(t.leaves())
        if best is None or nl > best:
            best = nl
    return best


def brute_max_internal(digraph, root, limit=DEFAULT_ENUM_LIMIT):
    """Maximum internal-vertex count over spanning out-trees rooted at
    ``root``; None when no such tree exists."""
    best = None
    for t in enum_arborescences(digraph, root, limit=limit):
        ni = len(t.internal_vertices())
        if best is None or ni > best:
            best = ni
    return best


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


def brute_longest_path(digraph, limit=2_000_000):
    """Length (arc count) of a longest directed simple path, with one
    witness vertex sequence. A single vertex is a path of length 0.

    Exhaustive DFS over simple paths; ``limit`` bounds visited partial
    paths.
    """
    if not digraph.vertices:
        raise ValueError("empty digraph has no paths")
    best = 0
    witness = [min(digraph.vertices)]
    steps = 0
    succ = {v: sorted(digraph.out_neighbors(v)) for v in digraph.vertices}
    path = []
    on_path = set()
    # stack[0] iterates the start vertices and stack[i + 1] the successors
    # of path[i]: an explicit stack, so path length is not bounded by
    # recursion
    stack = [iter(sorted(digraph.vertices))]
    while stack:
        for v in stack[-1]:
            if v not in on_path:
                break
        else:
            stack.pop()
            if path:
                on_path.remove(path.pop())
            continue
        steps += 1
        if steps > limit:
            raise BudgetError("simple path enumeration", steps, limit)
        path.append(v)
        on_path.add(v)
        if len(path) - 1 > best:
            best = len(path) - 1
            witness = list(path)
        stack.append(iter(succ[v]))
    return best, witness
