"""Brute-force reference implementations.

These are the ground truth the solvers are audited against, so they favor
obviousness over speed and are written independently of the solver code
paths: enumeration by exhaustive parent choice, and exhaustive search over
simple paths. They live in the library, not the test tree, because the
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
