"""Doubling checks for the polynomial layers: the work an entry point does
inside the package, counted as line events under ``sys.settrace``, may
grow less than 10x when the input grows from n to 4n vertices. A linear
layer reads about 4x and a quadratic one 16x. Line counts do not depend
on the machine's speed, so neither does the test.

Families: bidirected grids (side 10 and 20) and random sparse digraphs
with m = 1.5n edges (n = 100 and 400) built on an out-tree from vertex 0,
so vertex 0 reaches every vertex. Min-fill on the random sparse family is
left out: the min-fill width of those graphs grows with n (about 10 at
n = 100, 37 to 53 at n = 400), and so does the fill an elimination adds.
"""

import os
import random
import sys

import pytest

import outbranching
from outbranching import Digraph, is_rooted_2connected, underlying_graph
from outbranching.connectivity import cut_profile
from outbranching.digraph import parse_instance, serialize_instance
from outbranching.treewidth import greedy_decomposition, make_nice, treewidth_upper_bound
from helpers import grid_digraph

PACKAGE = os.path.dirname(outbranching.__file__) + os.sep
BOUND = 10


def line_events(fn, arg):
    """Line events in the package's own code while fn(arg) runs."""
    count = 0

    def local(frame, event, _):
        nonlocal count
        if event == "line":
            count += 1
        return local

    def enter(frame, event, _):
        return local if frame.f_code.co_filename.startswith(PACKAGE) else None

    previous = sys.gettrace()
    sys.settrace(enter)
    try:
        fn(arg)
    finally:
        sys.settrace(previous)
    return count


def random_sparse(n, seed=0, p2=0.3):
    """A random recursive out-tree from vertex 0 plus random edges up to
    1.5n, each a 2-cycle with probability p2, else a single arc of random
    direction."""
    rng = random.Random(seed)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    arcs = set(edges)
    while len(edges) < 3 * n // 2:
        u, v = sorted(rng.sample(range(n), 2))
        if (u, v) in edges:
            continue
        edges.add((u, v))
        if rng.random() < p2:
            arcs |= {(u, v), (v, u)}
        else:
            arcs.add((u, v) if rng.random() < 0.5 else (v, u))
    return Digraph.of(n, arcs)


GRIDS = (grid_digraph(10, 10), grid_digraph(20, 20))
SPARSE = (random_sparse(100), random_sparse(400))


def two_connected(d):
    return is_rooted_2connected(d, 0)


def odd_half(d):
    return d.induced(v for v in d.vertices if v % 2)


def profile(d):
    return cut_profile(d, 0)


def texts(family):
    return tuple(map(serialize_instance, family))


def min_fill_decompositions(family):
    return tuple(greedy_decomposition(underlying_graph(d)) for d in family)


# id: (the traced call, its inputs at n and 4n, built before tracing)
CASES = {
    "is_rooted_2connected-grid": (two_connected, GRIDS),
    "is_rooted_2connected-sparse": (two_connected, SPARSE),
    "Digraph.induced-grid": (odd_half, GRIDS),
    "Digraph.induced-sparse": (odd_half, SPARSE),
    "underlying_graph-grid": (underlying_graph, GRIDS),
    "underlying_graph-sparse": (underlying_graph, SPARSE),
    "treewidth_upper_bound-grid": (treewidth_upper_bound,
                                   tuple(map(underlying_graph, GRIDS))),
    "parse_instance-grid": (parse_instance, texts(GRIDS)),
    "parse_instance-sparse": (parse_instance, texts(SPARSE)),
    "cut_profile-grid": (profile, GRIDS),
    "cut_profile-sparse": (profile, SPARSE),
    "make_nice-grid": (make_nice, min_fill_decompositions(GRIDS)),
    "make_nice-sparse": (make_nice, min_fill_decompositions(SPARSE)),
}


def test_each_family_grows_from_n_to_4n():
    for small, large in (GRIDS, SPARSE):
        assert large.n == 4 * small.n


@pytest.mark.parametrize("case", CASES)
def test_work_grows_less_than_10x_from_n_to_4n(case):
    call, (small, large) = CASES[case]
    counts = [line_events(call, g) for g in (small, large)]
    assert 0 < counts[0] and counts[1] < BOUND * counts[0], counts
