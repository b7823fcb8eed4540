"""Walk the leaf-maximisation reduction one stage at a time.

Builds a small digraph whose structure triggers every stage: a stranding
contraction, a multi-way cut vertex with its imaginary duplicate, the
2-connectivity squeeze, and finally the bounded deletion set.  Run with
`python3 demos/reduction_walkthrough.py`.
"""

from outbranching import Digraph, brute_max_leaves
from outbranching.connectivity import cut_profile, is_rooted_2connected
from outbranching.leaf_pipeline import (
    contract_pendant_arcs,
    duplicate_multi_cut,
    exhaust_stranding_contractions,
    reduce_lob,
    solve_lob,
)


def main():
    # Vertex 1 is reachable two ways (directly and through 2), feeds 3
    # and 4, and 4 alone feeds 5.  The arc (1, 4) strands both 4 and 5,
    # so it gets contracted; the merged vertex then strands 3 and 5 one
    # each, which makes it a multi-way cut vertex that survives.
    d = Digraph.of(6, [(0, 1), (0, 2), (2, 1), (1, 3), (1, 4), (4, 5)])
    root = 0
    print(f"input: {d.n} vertices, {d.m} arcs, root {root}")
    print(f"brute-force max leaves from {root}: {brute_max_leaves(d, root)}")

    d1, steps = exhaust_stranding_contractions(d, root)
    print(f"\nstage 1, stranding contractions: {len(steps)} applied, "
          f"now {d1.n} vertices")
    for arc, _ in steps:
        print(f"  contracted arc {arc}: cutting it strands two or more "
              f"vertices, so every branching uses it")
    print(f"max leaves is preserved: {brute_max_leaves(d1, root)}")

    profile = cut_profile(d1, root)
    print(f"\nstage 2, cut profile: multi-stranding cut vertices "
          f"{sorted(profile.multi_cut)}, single {sorted(profile.single_cut)}")
    print("a multi-stranding cut vertex is internal in every spanning")
    print("branching; an imaginary copy absorbs its would-be leaf role:")

    dup = duplicate_multi_cut(d1, profile.multi_cut)
    copies = dup.vertices - d1.vertices
    print(f"  duplicated {sorted(profile.multi_cut)} -> copies "
          f"{sorted(copies)}, now {dup.n} vertices")
    print(f"  max leaves shifts by exactly the copy count: "
          f"{brute_max_leaves(dup, root)} = "
          f"{brute_max_leaves(d1, root)} + {len(copies)}")

    squeezed = contract_pendant_arcs(dup, profile.pendant_arcs)
    print(f"\nstage 3, pendant squeeze: 2-connected from the root now? "
          f"{is_rooted_2connected(squeezed, root)}")

    k = 2
    outcome = reduce_lob(d, root, k)
    report = outcome.report
    if report.outcome == "reduced":
        print(f"\nreduce at k={k}: no count guarantee fired, so a deletion "
              f"set is produced instead:")
        print(f"  kept digraph with {outcome.digraph.n} vertices, deletion "
              f"set {sorted(outcome.selected)} (bound 120k = {120 * k})")
        print(f"  removing it leaves a low-treewidth residue where the "
              f"branching DP runs")
    else:
        print(f"\nreduce at k={k}: {report.outcome} ({report.reason})")

    result = solve_lob(d, k)
    print(f"\nfull solve at k={k}: satisfiable={result.satisfiable}")
    assert result.witness is not None
    tree = result.witness
    print(f"witness branching from {tree.root}: arcs {sorted(tree.arcs())}")
    print(f"leaves: {sorted(tree.leaves())}")

    # reduce_lob ends every root in one record whose report names the
    # ending; a root that misses a vertex is a plain "disconnected" report
    k = 4
    result = solve_lob(d, k)
    print(f"\nfull solve at k={k}: satisfiable={result.satisfiable}, "
          f"one report per root tried:")
    for rep in result.reports:
        if rep.outcome == "disconnected":
            detail = f"misses {rep.unreachable_count} vertices"
        elif rep.outcome == "reduced":
            detail = f"|S| = {rep.selected_size}, the DP decides"
        else:
            detail = rep.reason
        print(f"  root {rep.root}: {rep.outcome} ({detail})")


if __name__ == "__main__":
    main()
