"""Show the distance-layer partition behind the internal-vertex solver.

A witness for k internal vertices never needs more than max(2, 2k-1)
vertices, so the solver only has to find a small tree.  Partitioning BFS
layers into ceil(sqrt(k)) + 1 widely spaced classes and deleting one
class at a time (keeping a small remnant Z) leaves low-depth pieces
where the tree DP is cheap, and some piece always contains the witness.
Run with `python3 demos/layered_collection.py`.
"""

from outbranching import underlying_graph
from outbranching.generators import generate, grid_spec
from outbranching.internal_pipeline import (
    build_partitions,
    ceil_sqrt,
    generate_collection,
    solve_iob,
    witness_size_cap,
)


def main():
    d = generate(grid_spec(4, seed=0, p2=1.0))
    root = 0
    k = 4
    print(f"instance: bidirected 4x4 grid, root {root}, target k={k} "
          f"internal vertices")
    print(f"witness size cap: {witness_size_cap(k)} vertices")

    parts = build_partitions(underlying_graph(d), root, k)
    print(f"\nBFS layers from {root} grouped into {len(parts)} parts, "
          f"layer i in part i mod {len(parts)}:")
    for i, part in enumerate(parts):
        print(f"  part {i}: {sorted(part)}")

    subs = list(generate_collection(d, root, k, parts))
    zcap = ceil_sqrt(4 * k)
    print(f"\nsub-instances generated: {len(subs)}, each deleting one part "
          f"except a kept set Z with |Z| <= {zcap}")
    sizes = sorted(sub.n for _, _, sub in subs)
    print(f"sub-instance vertex counts range {sizes[0]}..{sizes[-1]} "
          f"(original n = {d.n})")

    result = solve_iob(d, k, root=root)
    report = result.reports[0]
    print(f"\nsolve (stops at the first witness): "
          f"satisfiable={result.satisfiable}, evaluated "
          f"{report['evaluated']} sub-instances, "
          f"{report['cache_hits']} cache hits, "
          f"{report['skipped_small']} skipped as too small")
    if result.witness is not None:
        tree = result.witness
        print(f"expanded spanning witness has "
              f"{len(tree.internal_vertices())} internal vertices "
              f"(needs >= {k})")


if __name__ == "__main__":
    main()
