"""Trade ball count against ball radius in the long-path search.

A directed path with k arcs fits inside b balls of radius ceil(k/b)
around the right centers, so trying every b-subset of centers and
running the path DP on each union of balls is exact.  Small b means few
subsets but big regions; large b the reverse.  Run with
`python3 demos/ball_cover_paths.py`.
"""

from outbranching import brute_longest_path
from outbranching.ballcover import solve_kpath_ballcover
from outbranching.generators import GeneratorSpec, generate


def main():
    spec = GeneratorSpec("random-sparse", n=24, m=23, seed=2, p2=0.0)
    d = generate(spec)
    want, _ = brute_longest_path(d)
    print(f"instance: random digraph, {d.n} vertices, {d.m} arcs")
    print(f"brute-force longest path: {want} arcs")

    result = solve_kpath_ballcover(d, want, 2)
    print(f"\nasking for k={want} arcs at b=2: "
          f"satisfiable={result.satisfiable}, found after examining "
          f"{result.stats['subsets']} center subset(s)")
    print(f"witness path: {result.witness}")

    # An unsatisfiable ask walks every subset, so the stats show the real
    # workload at each ball count.  (Had a region due to run missed at
    # most b vertices, one DP on the whole digraph would have answered
    # and ended the walk; on this instance none does.)
    k = want + 1
    print(f"\nasking for k={k} arcs (impossible) exhausts the search:")
    print(f"{'b':>3} {'radius':>7} {'subsets':>8} {'dp runs':>8} "
          f"{'cache':>6} {'skipped':>8}")
    for b in range(1, 4):
        result = solve_kpath_ballcover(d, k, b)
        assert not result.satisfiable
        s = result.stats
        print(f"{b:>3} {s['radius']:>7} {s['subsets']:>8} "
              f"{s['dp_runs']:>8} {s['cache_hits']:>6} "
              f"{s['skipped_small']:>8}")
    print("\nthe subset count grows with b while each region (and its")
    print("treewidth) shrinks; a region inside one whose DP fell short")
    print("of k cannot reach k either, so it is skipped (the cache column).")


if __name__ == "__main__":
    main()
