import os
import subprocess
import sys
import textwrap

from hypothesis import given, settings, strategies as st

from outbranching import (
    Digraph,
    brute_longest_path,
    brute_max_internal,
    brute_max_internal_tree,
    brute_max_leaves,
    reachable,
    underlying_graph,
    validate_out_tree,
)
from outbranching.treedp import dp_longest_path, dp_max_internal_outtree, dp_max_leaves
from outbranching.treewidth import (
    decomposition_from_ordering,
    exact_treewidth_small,
    make_nice,
)
from helpers import grid_digraph, random_corpus


def test_max_leaves_star_path_cycle():
    star = Digraph.of(4, [(0, 1), (0, 2), (0, 3)])
    count, tree = dp_max_leaves(star, 0)
    assert count == 3
    assert tree.leaves() == {1, 2, 3}

    path = Digraph.of(4, [(0, 1), (1, 2), (2, 3)])
    count, tree = dp_max_leaves(path, 0)
    assert count == 1

    cyc = Digraph.of(3, [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)])
    count, tree = dp_max_leaves(cyc, 0)
    assert count == 2


def test_max_leaves_none_when_unreachable():
    d = Digraph.of(3, [(0, 1), (2, 1)])
    assert dp_max_leaves(d, 0) is None
    assert dp_max_leaves(d, 1) is None


def test_max_leaves_single_vertex():
    d = Digraph.of(1, [])
    count, tree = dp_max_leaves(d, 0)
    assert count == 1
    assert tree.size == 1


def test_max_leaves_two_cycle():
    d = Digraph.of(2, [(0, 1), (1, 0)])
    count, tree = dp_max_leaves(d, 0)
    assert count == 1
    assert tree.parents == {1: 0}


def test_max_leaves_matches_oracle():
    for d in random_corpus(45, seed=101, n_lo=3, n_hi=7, density=2.0):
        for r in sorted(d.vertices):
            want = brute_max_leaves(d, r)
            got = dp_max_leaves(d, r)
            if want is None:
                assert got is None, (d.arcs, r)
            else:
                assert got is not None and got[0] == want, (d.arcs, r, got, want)
                validate_out_tree(d, got[1], spanning=True)


def test_max_leaves_with_exact_decomposition():
    d = grid_digraph(3, 3)
    _, td = exact_treewidth_small(underlying_graph(d))
    nice = make_nice(td)
    count, tree = dp_max_leaves(d, 0, nice)
    assert count == brute_max_leaves(d, 0)


def test_max_internal_known_values():
    path = Digraph.of(4, [(0, 1), (1, 2), (2, 3)])
    (internal, size), tree = dp_max_internal_outtree(path, 0)
    assert internal == 3 and size == 4

    (internal, size), tree = dp_max_internal_outtree(path, 0, size_cap=3)
    assert internal == 2 and size == 3

    (internal, size), tree = dp_max_internal_outtree(path, 0, size_cap=1)
    assert internal == 0 and size == 1
    assert tree.vertex_set == {0}


def test_max_internal_star():
    star = Digraph.of(4, [(0, 1), (0, 2), (0, 3)])
    (internal, size), tree = dp_max_internal_outtree(star, 0)
    assert internal == 1
    # smallest tree achieving one internal vertex wins the tie
    assert size == 2


def test_max_internal_matches_tree_oracle():
    for d in random_corpus(35, seed=113, n_lo=3, n_hi=6, density=2.0):
        n = d.n
        for r in sorted(d.vertices):
            for cap in (1, 2, n):
                want = brute_max_internal_tree(d, r, max_size=cap)
                (got, size), tree = dp_max_internal_outtree(d, r, size_cap=cap)
                assert got == want, (d.arcs, r, cap, got, want)
                assert size <= cap
                validate_out_tree(d, tree)


def test_max_internal_spanning_agrees_with_branching_oracle():
    # with the cap at n and full reachability, the best spanning branching
    # is one candidate; the unrestricted tree optimum can only be at least
    # that value
    for d in random_corpus(25, seed=127, n_lo=3, n_hi=6, density=2.5):
        for r in sorted(d.vertices):
            if reachable(d, r) != d.vertices:
                continue
            spanning = brute_max_internal(d, r)
            (best, _), _ = dp_max_internal_outtree(d, r)
            assert best >= spanning


def test_longest_path_known():
    path = Digraph.of(4, [(0, 1), (1, 2), (2, 3)])
    assert dp_longest_path(path)[0] == 3
    cyc = Digraph.of(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    k, wit = dp_longest_path(cyc)
    assert k == 3 and len(wit) == 4
    empty = Digraph.of(3, [])
    k, wit = dp_longest_path(empty)
    assert k == 0 and len(wit) == 1


def test_longest_path_matches_oracle():
    for d in random_corpus(45, seed=131, n_lo=3, n_hi=7, density=1.8):
        want, _ = brute_longest_path(d)
        got, wit = dp_longest_path(d)
        assert got == want, (d.arcs, got, want)
        assert len(wit) == got + 1
        for a, b in zip(wit, wit[1:]):
            assert d.has_arc(a, b)


def test_longest_path_on_grid():
    d = grid_digraph(3, 3)
    got, wit = dp_longest_path(d)
    want, _ = brute_longest_path(d)
    assert got == want == 8


def test_max_leaves_denser_corpus():
    for d in random_corpus(15, seed=137, n_lo=5, n_hi=7, density=3.0):
        for r in sorted(d.vertices):
            want = brute_max_leaves(d, r)
            got = dp_max_leaves(d, r)
            if want is None:
                assert got is None
            else:
                assert got[0] == want


@st.composite
def dp_cases(draw):
    """A digraph on at most 7 vertices, a root, a size cap and an
    elimination order; random orders give join bags of many shapes."""
    n = draw(st.integers(1, 7))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=n - 1,
                         max_size=min(3 * n, len(pairs)))) if pairs else []
    root = draw(st.integers(0, n - 1))
    cap = draw(st.integers(1, n))
    order = draw(st.permutations(range(n)))
    return Digraph.of(n, arcs), root, cap, order


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(dp_cases())
def test_dps_match_oracles_on_random_decompositions(case):
    d, root, cap, order = case
    nice = make_nice(decomposition_from_ordering(underlying_graph(d), order))

    want = brute_max_leaves(d, root)
    got = dp_max_leaves(d, root, nice)
    if want is None:
        assert got is None
    else:
        assert got is not None and got[0] == want
        validate_out_tree(d, got[1], spanning=True)
        assert len(got[1].leaves()) == want

    (internal, size), tree = dp_max_internal_outtree(d, root, nice, size_cap=cap)
    assert internal == brute_max_internal_tree(d, root, max_size=cap)
    validate_out_tree(d, tree)
    assert tree.root == root and tree.size == size <= cap
    assert len(tree.internal_vertices()) == internal

    length, path = dp_longest_path(d, nice)
    assert length == brute_longest_path(d)[0]
    assert len(path) == length + 1 == len(set(path))
    assert all(d.has_arc(a, b) for a, b in zip(path, path[1:]))


def test_corrupt_witness_raises_under_optimize():
    # under python -O every assert is gone; the witness check must not be
    code = textwrap.dedent("""
        import outbranching.treedp as treedp
        from outbranching import Digraph
        from outbranching.errors import DPInvariantError

        assert False, "asserts are live"
        collect = treedp._collect_arcs
        treedp._collect_arcs = lambda step, state: collect(step, state)[1:]
        arcs = []
        for r in range(3):
            for c in range(3):
                v = 3 * r + c
                if c < 2:
                    arcs += [(v, v + 1), (v + 1, v)]
                if r < 2:
                    arcs += [(v, v + 3), (v + 3, v)]
        try:
            result = treedp.dp_max_leaves(Digraph.of(9, arcs), 0)
        except DPInvariantError as exc:
            print("raised:", exc)
        else:
            print("returned:", result)
        """)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised:"), proc.stdout
