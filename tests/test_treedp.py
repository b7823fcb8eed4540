import os
import random
import subprocess
import sys
import textwrap
import tracemalloc
from collections import namedtuple
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from outbranching import (
    BudgetError,
    Digraph,
    brute_longest_path,
    brute_max_internal,
    brute_max_leaves,
    reachable,
    underlying_graph,
    validate_out_tree,
)
from outbranching import treedp
from outbranching.generators import generate, grid_spec
from outbranching.leaf_pipeline import reduce_lob
from outbranching.treedp import (
    _execute,
    _TreeEngine,
    dp_longest_path,
    dp_max_internal_outtree,
    dp_max_leaves,
)
from outbranching.treewidth import (
    FORGET,
    INTRODUCE,
    JOIN,
    LEAF,
    decomposition_from_ordering,
    exact_treewidth_small,
    make_nice,
)
from helpers import brute_max_internal_tree, grid_digraph, random_corpus

EDGE = "edge"

# One op of a _LoggingEngine run: its kind, its vertex or edge (None for
# a leaf or join), the ids of the tables it consumed and the table it built.
Op = namedtuple("Op", "kind arg inputs table")


class _LoggingEngine(_TreeEngine):
    """A _TreeEngine that logs every op it runs, in run order.  The log
    holds every table, so no table id is reused during the run."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.log = []

    def _logged(self, kind, arg, inputs, table):
        self.log.append(Op(kind, arg, tuple(map(id, inputs)), table))
        return table

    def leaf(self):
        return self._logged(LEAF, None, (), super().leaf())

    def introduce(self, tin, bag, v):
        return self._logged(INTRODUCE, v, (tin,), super().introduce(tin, bag, v))

    def forget(self, tin, bag, v, need=0):
        return self._logged(FORGET, v, (tin,), super().forget(tin, bag, v, need))

    def edge(self, tin, bag, e):
        return self._logged(EDGE, e, (tin,), super().edge(tin, bag, e))

    def join(self, tl, tr, *args):
        return self._logged(JOIN, None, (tl, tr), super().join(tl, tr, *args))


def _op_log(d, nice, *args):
    """The engine and the op log of one _execute run of _TreeEngine(d, *args)."""
    engine = _LoggingEngine(d, *args)
    _execute(d, nice, engine)
    return engine, engine.log


def _kept_ops(d, nice, *args):
    """Every op whose table _execute keeps (all but a hit op), in run order."""
    engine, log = _op_log(d, nice, *args)
    return log[:-1] if engine.hit is not None else log


def _scores(table):
    return {s: score for s, (score, _) in table.items()}


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
    internal, tree = dp_max_internal_outtree(path, 0)
    assert internal == 3 and tree.size == 4

    internal, tree = dp_max_internal_outtree(path, 0, size_cap=3)
    assert internal == 2 and tree.size == 3

    internal, tree = dp_max_internal_outtree(path, 0, size_cap=1)
    assert internal == 0 and tree.vertex_set == {0}

    # a sink root has only the one-vertex tree
    internal, tree = dp_max_internal_outtree(path, 3)
    assert internal == 0 and tree.vertex_set == {3}


def test_max_internal_star():
    star = Digraph.of(4, [(0, 1), (0, 2), (0, 3)])
    internal, tree = dp_max_internal_outtree(star, 0)
    assert internal == 1 == len(tree.internal_vertices())


def test_max_internal_matches_tree_oracle():
    for d in random_corpus(35, seed=113, n_lo=3, n_hi=6, density=2.0):
        for r in sorted(d.vertices):
            for cap in (1, 2, None):
                want = brute_max_internal_tree(d, r, max_size=cap or d.n)
                got, tree = dp_max_internal_outtree(d, r, size_cap=cap)
                assert got == want, (d.arcs, r, cap, got, want)
                validate_out_tree(d, tree)
                assert tree.root == r and len(tree.internal_vertices()) == got
                assert tree.size <= (cap or d.n)


def _drop_none(group, fewer_children_win):
    """A treedp._dominated that turns dominance pruning off."""
    return ()


def test_size_cap_keeps_tables_polynomial_in_the_bag_width():
    # min-fill puts all n vertices of a complete digraph in one bag; with
    # at most 3 tree vertices a table keeps a few hundred states, against
    # about 290 000 uncapped (both with dominance pruning off)
    n = 8
    d = Digraph.of(n, [(u, v) for u in range(n) for v in range(n) if u != v])
    with mock.patch.object(treedp, "_dominated", _drop_none):
        _, log = _op_log(d, None, 0, False, 3)
    assert max(len(op.table) for op in log) <= 2 * n ** 3
    internal, tree = dp_max_internal_outtree(d, 0, size_cap=3)
    assert internal == 2 and tree.size == 3


def test_size_cap_must_be_positive():
    with pytest.raises(ValueError):
        dp_max_internal_outtree(Digraph.of(2, [(0, 1)]), 0, size_cap=0)


def test_max_internal_spanning_agrees_with_branching_oracle():
    # with full reachability the best spanning branching is one candidate;
    # the unrestricted tree optimum can only be at least that value
    for d in random_corpus(25, seed=127, n_lo=3, n_hi=6, density=2.5):
        for r in sorted(d.vertices):
            if reachable(d, r) != d.vertices:
                continue
            spanning = brute_max_internal(d, r)
            best, _ = dp_max_internal_outtree(d, r)
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
    # no vertices: the empty path, unless a target asks for an arc
    nothing = Digraph.of(0, [])
    assert dp_longest_path(nothing) == dp_longest_path(nothing, target=0) == (0, [])
    assert dp_longest_path(nothing, target=1) is None


def test_longest_path_matches_oracle():
    for d in random_corpus(45, seed=131, n_lo=3, n_hi=7, density=1.8):
        want, _ = brute_longest_path(d)
        got, wit = dp_longest_path(d)
        assert got == want, (d.arcs, got, want)
        assert len(wit) == got + 1
        for a, b in zip(wit, wit[1:]):
            assert d.has_arc(a, b)


def test_target_stops_at_the_first_step_with_a_long_fragment():
    # the reference runs without a target and counts each one-fragment
    # state's arcs in its table value
    stops = 0
    for d in random_corpus(30, seed=139, n_lo=3, n_hi=7, density=2.0):
        _, full = _op_log(d, None, None, False)
        ops = [op for op in full if op.kind in (EDGE, JOIN)]
        for target in (1, 2, 3, 4, 5):
            first = next((i for i, op in enumerate(ops) if any(
                len({b for b in state[0] if b >= 0}) == 1 and arcs.bit_count() >= target
                for state, (_, arcs) in op.table.items())), None)
            engine, log = _op_log(d, None, None, False, None, target)
            calls = sum(op.kind in (EDGE, JOIN) for op in log)
            if first is None:
                assert engine.hit is None and calls == len(ops), (d.arcs, target)
            else:
                assert calls == first + 1, (d.arcs, target)
                stops += 1
    assert stops >= 60


def test_each_edge_runs_right_before_its_first_endpoint_is_forgotten():
    rng = random.Random(149)
    checked = 0
    for d in random_corpus(40, seed=149, n_lo=2, n_hi=8, density=2.0):
        ug = underlying_graph(d)
        order = sorted(d.vertices)
        rng.shuffle(order)
        for nice in (None, make_nice(decomposition_from_ordering(ug, order))):
            for root in (min(d.vertices), None):
                _, log = _op_log(d, nice, root, root is not None)
                # the op that consumed each table
                consumer = {t: op for op in log for t in op.inputs}
                edges = []
                for op in log:
                    if op.kind != EDGE:
                        continue
                    edges.append(op.arg)
                    above = consumer[id(op.table)]
                    while above.kind == EDGE:
                        above = consumer[id(above.table)]
                    assert above.kind == FORGET, (d.arcs, op.arg, above.kind)
                    assert above.arg in op.arg, (d.arcs, op.arg)
                    checked += 1
                assert sorted(edges) == sorted(ug.edges), d.arcs
    assert checked >= 500


def test_late_edges_shrink_the_max_leaves_tables():
    # the states kept over every step of the max-leaves DP on a 6x6 grid
    # (p2=0.7, root 0, min-fill), with dominance pruning off: 110 718 with
    # each edge right after the introduce that first puts both ends in a
    # bag, 73 664 with each edge right before its first endpoint's forget
    d = generate(grid_spec(6, p2=0.7))
    with mock.patch.object(treedp, "_dominated", _drop_none):
        _, log = _op_log(d, None, 0, True)
    assert sum(len(op.table) for op in log) < 90_000
    # with pruning on, every forget and join drops the states another
    # state of its table dominates, and the run keeps 16 355
    _, log = _op_log(d, None, 0, True)
    assert sum(len(op.table) for op in log) < 20_000
    assert dp_max_leaves(d, 0)[0] == 18


def test_consumed_tables_are_freed():
    # each table is dropped once the op above it has consumed it, so a run
    # holds only the tables waiting on the stack: on the reduced 8x8
    # ladder grid (56 vertices) the peak is 5.2 MB, against 11.9 MB when
    # every introduce, forget and join table stays alive to the end
    reduced = reduce_lob(generate(grid_spec(8, p2=0.7)), 0, 8).digraph
    assert dp_max_leaves(reduced, 0)[0] == 31  # fills the partition memo
    tracemalloc.start()
    try:
        assert dp_max_leaves(reduced, 0)[0] == 31
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000, peak


def test_longest_path_on_grid():
    d = grid_digraph(3, 3)
    got, wit = dp_longest_path(d)
    want, _ = brute_longest_path(d)
    assert got == want == 8


def test_a_join_past_the_state_budget_raises_from_inside_the_join(monkeypatch):
    # on the bidirected 3x4 grid the running state count first passes 325
    # inside a join; the check after each step would only see it once the
    # whole join table is built
    monkeypatch.setattr(treedp, "DP_STATE_BUDGET", 325)
    with pytest.raises(BudgetError, match="needs 328, budget 325") as info:
        dp_longest_path(grid_digraph(3, 4))
    assert info.traceback[-1].name == "join"


def test_dps_on_a_path_deeper_than_the_recursion_limit():
    # identity order on a path gives a decomposition tree as deep as the
    # path is long; building and running its nice form must not recurse
    n = 2 * sys.getrecursionlimit()
    d = Digraph.of(n, [a for i in range(n - 1) for a in ((i, i + 1), (i + 1, i))])
    nice = make_nice(decomposition_from_ordering(underlying_graph(d), list(range(n))))
    length, path = dp_longest_path(d, nice)
    assert length == n - 1 and sorted(path) == list(range(n))
    assert all(d.has_arc(a, b) for a, b in zip(path, path[1:]))
    count, tree = dp_max_leaves(d, 0, nice)
    assert count == 1
    validate_out_tree(d, tree, spanning=True)


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

    internal, tree = dp_max_internal_outtree(d, root, nice)
    assert internal == brute_max_internal_tree(d, root, max_size=d.n)
    validate_out_tree(d, tree)
    assert tree.root == root
    assert len(tree.internal_vertices()) == internal

    internal, tree = dp_max_internal_outtree(d, root, nice, size_cap=cap)
    assert internal == brute_max_internal_tree(d, root, max_size=cap)
    validate_out_tree(d, tree)
    assert tree.root == root and tree.size <= cap
    assert len(tree.internal_vertices()) == internal

    length, path = dp_longest_path(d, nice)
    assert length == brute_longest_path(d)[0]
    assert len(path) == length + 1 == len(set(path))
    assert all(d.has_arc(a, b) for a, b in zip(path, path[1:]))

    # the cap doubles as a target length
    best = dp_longest_path(d, nice, target=cap)
    if length < cap:
        assert best is None
        return
    count, path = best
    assert cap <= count <= length
    assert len(path) == count + 1 == len(set(path))
    assert all(d.has_arc(a, b) for a, b in zip(path, path[1:]))


@st.composite
def bound_cases(draw):
    """A digraph on at most 7 vertices, a mode (internal, capped internal
    or path), a root, a cap, an elimination order, and an offset of the
    target from the optimum: offsets 0 put the optimum right on it."""
    d, root, cap, order = draw(dp_cases())
    mode = draw(st.sampled_from(("internal", "capped", "path")))
    offset = draw(st.sampled_from((-2, -1, 0, 0, 1)))
    return d, mode, root, cap, order, offset


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(bound_cases())
def test_bounded_tables_are_the_unbounded_ones_restricted(case):
    d, mode, root, cap, order, offset = case
    nice = make_nice(decomposition_from_ordering(underlying_graph(d), order))
    if mode == "path":
        root = cap = None
        opt = brute_longest_path(d)[0]
    else:
        cap = cap if mode == "capped" else None
        opt = brute_max_internal_tree(d, root, max_size=cap or d.n)
    target = max(1, opt + offset)
    full = _kept_ops(d, nice, root, False, cap)
    bounded = _kept_ops(d, nice, root, False, cap, target)
    # the forgotten vertices below each op, counted on the full run
    forgotten = {}
    for op in full:
        forgotten[id(op.table)] = (op.kind == FORGET) + sum(forgotten[t] for t in op.inputs)
    assert len(bounded) <= len(full)
    for b, u in zip(bounded, full):
        assert b.kind == u.kind
        full_scores = _scores(u.table)
        assert _scores(b.table).items() <= full_scores.items(), (d.arcs, mode, target)
        if b.kind in (FORGET, JOIN):
            # score + vertices not forgotten - in-bag vertices outside
            left = d.n - forgotten[id(u.table)]
            want = {s: v for s, v in full_scores.items() if v + left - s[0].count(-1) >= target}
            assert _scores(b.table) == want, (d.arcs, mode, target, b.kind)

    if mode == "path":
        best = dp_longest_path(d, nice, target=target)
    else:
        best = dp_max_internal_outtree(d, root, nice, size_cap=cap, target=target)
    assert (best is None) == (opt < target), (d.arcs, mode, target, opt, best)
    if best is None:
        return
    if mode == "path":
        count, path = best
        assert target <= count <= opt and len(path) == count + 1 == len(set(path))
        assert all(d.has_arc(a, b) for a, b in zip(path, path[1:]))
    else:
        internal, tree = best
        assert internal == opt and len(tree.internal_vertices()) == opt
        validate_out_tree(d, tree)
        assert tree.root == root and tree.size <= (cap or d.n)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(dp_cases(), st.booleans())
def test_a_target_keeps_the_unbounded_witness(case, capped):
    # every kept value is the largest (score, arcs) over the partial
    # solutions of its state, and the bound drops no state the unbounded
    # optimum passes through, so every target up to the optimum returns
    # the unbounded tree
    d, root, cap, order = case
    cap = cap if capped else None
    nice = make_nice(decomposition_from_ordering(underlying_graph(d), order))
    opt, tree = dp_max_internal_outtree(d, root, nice, size_cap=cap)
    for target in range(1, opt + 1):
        assert dp_max_internal_outtree(d, root, nice, size_cap=cap, target=target) == (
            opt, tree), (d.arcs, root, cap, target)


def _reversed(table):
    return dict(reversed(table.items()))


class _ReversedEngine(_TreeEngine):
    """A _TreeEngine that hands every op its input tables in reversed order."""

    def introduce(self, tin, bag, v):
        return super().introduce(_reversed(tin), bag, v)

    def forget(self, tin, bag, v, need=0):
        return super().forget(_reversed(tin), bag, v, need)

    def edge(self, tin, bag, e):
        return super().edge(_reversed(tin), bag, e)

    def join(self, tl, tr, *args):
        return super().join(_reversed(tl), _reversed(tr), *args)


def test_witnesses_do_not_depend_on_table_order():
    cases = [(d, r) for d in random_corpus(60, seed=11, n_lo=4, n_hi=8, density=2.0)
             for r in sorted(d.vertices)]
    want = [(dp_max_leaves(d, r), dp_max_internal_outtree(d, r)) for d, r in cases]
    with mock.patch.object(treedp, "_TreeEngine", _ReversedEngine):
        got = [(dp_max_leaves(d, r), dp_max_internal_outtree(d, r)) for d, r in cases]
    for (d, r), w, g in zip(cases, want, got):
        assert g == w, (d.arcs, r)


def _covers(t, tscore, s, score, fewer_children_win):
    """Whether state t with tscore is s or dominates s with score."""
    if (t[0], t[1], t[3], t[4]) != (s[0], s[1], s[3], s[4]) or tscore < score:
        return False
    return t[2] & ~s[2] == 0 if fewer_children_win else s[2] & ~t[2] == 0


def _undominated_part(table, fewer_children_win):
    groups = {}
    for s, score in _scores(table).items():
        groups.setdefault((s[0], s[1], s[3], s[4]), []).append((s, score))
    return {s: score for items in groups.values() for s, score in items
            if not any(t != s and _covers(t, v, s, score, fewer_children_win)
                       for t, v in items)}


@st.composite
def dominance_cases(draw):
    """A digraph on at most 7 vertices, a mode, a root, a cap, an
    elimination order, and a target offset as in bound_cases."""
    d, root, cap, order = draw(dp_cases())
    mode = draw(st.sampled_from(("leaves", "internal", "capped", "target", "path")))
    offset = draw(st.sampled_from((-2, -1, 0, 0, 1)))
    return d, mode, root, cap, order, offset


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(dominance_cases())
def test_pruned_tables_are_the_undominated_part_of_the_full_ones(case):
    d, mode, root, cap, order, offset = case
    nice = make_nice(decomposition_from_ordering(underlying_graph(d), order))
    spanning = mode == "leaves"
    cap = cap if mode == "capped" else None
    target = None
    if mode == "path":
        root = None
    elif mode == "target":
        target = max(1, brute_max_internal_tree(d, root, max_size=d.n) + offset)
    pruned = _kept_ops(d, nice, root, spanning, cap, target)
    with mock.patch.object(treedp, "_dominated", _drop_none):
        full = _kept_ops(d, nice, root, spanning, cap, target)
    assert len(pruned) == len(full)
    for p, u in zip(pruned, full):
        assert p.kind == u.kind
        if root is None:
            # a child bit blocks a second child on a path: nothing is pruned
            assert p.table == u.table, (d.arcs, p.kind)
            continue
        kept = _scores(p.table)
        for s, score in _scores(u.table).items():
            assert any(_covers(t, v, s, score, spanning) for t, v in kept.items()), (
                d.arcs, mode, p.kind, s)
        if p.kind in (FORGET, JOIN):
            assert kept == _undominated_part(u.table, spanning), (d.arcs, mode, p.kind)

    if mode == "path":
        assert dp_longest_path(d, nice)[0] == brute_longest_path(d)[0]
    elif spanning:
        best = dp_max_leaves(d, root, nice)
        want = brute_max_leaves(d, root)
        assert (best is None) == (want is None)
        if best is not None:
            assert best[0] == want
            validate_out_tree(d, best[1], spanning=True)
    else:
        opt = brute_max_internal_tree(d, root, max_size=cap or d.n)
        best = dp_max_internal_outtree(d, root, nice, size_cap=cap, target=target)
        if target is not None and opt < target:
            assert best is None
        else:
            internal, tree = best
            assert internal == opt == len(tree.internal_vertices())
            validate_out_tree(d, tree)


def test_corrupt_witness_raises_under_optimize():
    # under python -O every assert is gone; the witness check must not be
    code = textwrap.dedent("""
        import outbranching.treedp as treedp
        from outbranching import Digraph
        from outbranching.errors import DPInvariantError

        assert False, "asserts are live"
        collect = treedp._collect_arcs
        treedp._collect_arcs = lambda arcs, mask: collect(arcs, mask)[1:]
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
