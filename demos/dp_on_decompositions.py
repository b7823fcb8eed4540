"""Run the three tree-decomposition DPs and cross-check brute force.

The same nice-decomposition walk answers three questions about a
digraph: the most leaves any spanning branching achieves, the most
internal vertices, and the longest directed path.  Run with
`python3 demos/dp_on_decompositions.py`.
"""

from outbranching import brute_longest_path, brute_max_leaves
from outbranching.generators import generate, grid_spec
from outbranching.oracle import brute_max_internal
from outbranching.treedp import (
    dp_longest_path,
    dp_max_internal_outtree,
    dp_max_leaves,
)


def main():
    d = generate(grid_spec(3, seed=0, p2=1.0))
    root = 0
    print(f"instance: bidirected 3x3 grid, {d.n} vertices, {d.m} arcs")

    count, tree = dp_max_leaves(d, root)
    print(f"\nmax spanning-branching leaves from {root}: {count} "
          f"(brute force agrees: {brute_max_leaves(d, root) == count})")
    print(f"  leaves: {sorted(tree.leaves())}")

    internal, tree = dp_max_internal_outtree(d, root)
    print(f"\nmax internal vertices in a spanning branching: {internal} "
          f"(brute force agrees: {brute_max_internal(d, root) == internal})")
    print(f"  internal: {sorted(tree.internal_vertices())}, "
          f"tree size {tree.size}")

    arcs, path = dp_longest_path(d)
    want, _ = brute_longest_path(d)
    print(f"\nlongest directed path: {arcs} arcs "
          f"(brute force agrees: {want == arcs})")
    print(f"  one witness: {path}")

    # Capping the tree size switches the branching DP to small subtrees,
    # which is what the internal-vertex search uses for its pruned
    # witnesses.
    internal, tree = dp_max_internal_outtree(d, root, size_cap=5)
    print(f"\nsame DP capped at 5 vertices: {internal} internal in a "
          f"tree of size {tree.size}, arcs {sorted(tree.arcs())}")


if __name__ == "__main__":
    main()
