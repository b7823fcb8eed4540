"""Compare the min-fill heuristic against the exact solver on small graphs.

Run with `python3 demos/treewidth_tools.py`.
"""

import random

from outbranching import underlying_graph
from outbranching.digraph import UndirectedGraph
from outbranching.generators import generate, grid_spec
from outbranching.treewidth import (
    exact_treewidth_small,
    greedy_decomposition,
    make_nice,
    validate_decomposition,
)


def named_graphs():
    path = UndirectedGraph.of(6, [(i, i + 1) for i in range(5)])
    cycle = UndirectedGraph.of(6, [(i, (i + 1) % 6) for i in range(6)])
    k5 = UndirectedGraph.of(5, [(i, j) for i in range(5)
                                for j in range(i + 1, 5)])
    grid = underlying_graph(generate(grid_spec(3, p2=1.0)))
    return [("path P6", path), ("cycle C6", cycle), ("clique K5", k5),
            ("grid 3x3", grid)]


def random_graph(rng, n, m):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return UndirectedGraph.of(n, rng.sample(pairs, m))


def main():
    print(f"{'graph':>14} {'exact':>6} {'min_fill':>9} {'nice nodes':>11}")
    rng = random.Random(7)
    rows = named_graphs()
    rows += [(f"random n=10 #{i}", random_graph(rng, 10, 16))
             for i in range(3)]
    for name, graph in rows:
        exact, _ = exact_treewidth_small(graph)
        fill = greedy_decomposition(graph)
        validate_decomposition(graph, fill)
        nice = make_nice(fill)
        validate_decomposition(graph, nice.as_decomposition())
        print(f"{name:>14} {exact:>6} {fill.width:>9} {nice.node_count:>11}")
    print("\nevery emitted decomposition above passed the three axioms:")
    print("vertex coverage, edge coverage, and bag connectivity.")


if __name__ == "__main__":
    main()
