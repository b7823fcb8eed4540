import pytest
import time

from hypothesis import given, settings

from outbranching import (
    Digraph,
    UndirectedGraph,
    OutTree,
    ParseError,
    bfs_layers,
    contract_arc_directed,
    identify_arc_endpoints,
    parse_instance,
    serialize_instance,
    underlying_graph,
    validate_out_tree,
)
from helpers import (labelled_digraphs, out_tree_walk_error, parent_maps,
                     random_corpus)


def test_digraph_rejects_self_loops():
    with pytest.raises(ValueError):
        Digraph.of(2, [(0, 0)])


def test_digraph_basics():
    d = Digraph.of(3, [(0, 1), (1, 2), (2, 1)])
    assert d.n == 3 and d.m == 3
    assert d.out_neighbors(1) == {2}
    assert d.in_neighbors(1) == {0, 2}
    assert d.vertices == {0, 1, 2}


def test_underlying_graph_collapses_2cycles():
    d = Digraph.of(3, [(0, 1), (1, 0), (1, 2)])
    g = underlying_graph(d)
    assert g.edges == {(0, 1), (1, 2)}


def test_contract_arc_merges_neighbors():
    # r -> x -> y -> {z, w}: contracting (x, y) leaves r -> x' -> {z, w}
    r, x, y, z, w = range(5)
    d = Digraph.of(5, [(r, x), (x, y), (y, z), (y, w)])
    d2 = contract_arc_directed(d, (x, y))
    assert d2.vertices == {r, x, z, w}
    assert d2.arcs == {(r, x), (x, z), (x, w)}


def test_contract_drops_loops_and_duplicates():
    d = Digraph.of(3, [(0, 1), (1, 0), (0, 2), (1, 2)])
    d2 = contract_arc_directed(d, (0, 1))
    assert d2.vertices == {0, 2}
    assert d2.arcs == {(0, 2)}


def test_contract_missing_arc_raises():
    d = Digraph.of(2, [(0, 1)])
    with pytest.raises(ValueError):
        contract_arc_directed(d, (1, 0))


def test_identify_matches_contract_on_simple_digraphs():
    assert identify_arc_endpoints is contract_arc_directed


def test_contraction_reduces_count_by_one_and_drops_the_head():
    for d in random_corpus(40, seed=3, n_lo=4, n_hi=8, density=2.0):
        arc = min(d.arcs)
        d2 = contract_arc_directed(d, arc)
        assert d2.n == d.n - 1
        assert d2.vertices == d.vertices - {arc[1]}


def test_contracted_graph_equals_a_fresh_one():
    # a contracted graph carries nothing beyond its vertices and arcs, so
    # equality agrees with the hash
    for d in random_corpus(40, seed=3, n_lo=4, n_hi=8, density=2.0):
        d2 = contract_arc_directed(d, min(d.arcs))
        fresh = Digraph(d2.vertices, d2.arcs)
        assert d2 == fresh and hash(d2) == hash(fresh)


def test_bfs_layers_partition_and_adjacency():
    g = UndirectedGraph.of(6, [(0, 1), (1, 2), (2, 3), (0, 4)])
    layers, unreachable = bfs_layers(g, 0)
    assert layers == [{0}, {1, 4}, {2}, {3}]
    assert unreachable == {5}
    with pytest.raises(ValueError, match="root 6 not in graph"):
        bfs_layers(g, 6)
    # consecutive layers touch, distant ones do not
    for i, layer in enumerate(layers):
        for v in layer:
            for w in g.neighbors(v):
                if w not in unreachable:
                    j = next(k for k, l in enumerate(layers) if w in l)
                    assert abs(i - j) <= 1


def test_out_tree_single_vertex_root_is_leaf():
    t = OutTree(0, {})
    assert t.leaves() == {0}
    assert t.internal_vertices() == frozenset()
    assert t.size == 1


def test_out_tree_counts():
    t = OutTree(0, {1: 0, 2: 0, 3: 1})
    assert t.leaves() == {2, 3}
    assert t.internal_vertices() == {0, 1}
    assert t.vertex_set == {0, 1, 2, 3} and t.size == 4
    assert (t.children(0), t.children(1), t.children(3)) == ({1, 2}, {3}, frozenset())
    with pytest.raises(KeyError):
        t.children(4)
    same = OutTree(0, {3: 1, 2: 0, 1: 0})
    assert t == same and hash(t) == hash(same)


def test_out_tree_rejects_cycles_and_orphans():
    with pytest.raises(ValueError):
        OutTree(0, {1: 2, 2: 1})
    with pytest.raises(ValueError):
        OutTree(0, {0: 1})


def test_out_tree_of_a_long_path_builds_in_linear_time():
    # deepest vertex first: walking each vertex up to the root would take
    # n * depth / 2 = 2 * 10**8 steps
    n = 20_000
    start = time.perf_counter()
    t = OutTree(0, {v: v - 1 for v in range(n - 1, 0, -1)})
    assert time.perf_counter() - start < 1.0
    assert t.leaves() == {n - 1}


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(parent_maps())
def test_out_tree_accepts_and_rejects_as_the_full_walk(case):
    root, parents = case
    want = out_tree_walk_error(root, parents)
    if want is None:
        assert OutTree(root, parents).parents == parents
    else:
        with pytest.raises(ValueError) as exc:
            OutTree(root, parents)
        assert str(exc.value) == want


def test_validate_out_tree_against_host():
    d = Digraph.of(3, [(0, 1), (1, 2)])
    validate_out_tree(d, OutTree(0, {1: 0, 2: 1}), spanning=True)
    with pytest.raises(ValueError):
        validate_out_tree(d, OutTree(0, {2: 0}))
    with pytest.raises(ValueError):
        validate_out_tree(d, OutTree(0, {1: 0}), spanning=True)


def test_parse_basic_instance_with_root_and_comments():
    text = "# sample\n3 2\n0 1  # arc\n1 2\nroot 0\n"
    d, root = parse_instance(text)
    assert d.n == 3 and d.arcs == {(0, 1), (1, 2)} and root == 0


def test_parse_reports_line_numbers():
    with pytest.raises(ParseError, match="self-loop at line 2"):
        parse_instance("2 1\n1 1\n")[0]
    with pytest.raises(ParseError, match="vertex out of range at line 3"):
        parse_instance("2 2\n0 1\n1 5\n")[0]
    with pytest.raises(ParseError, match="malformed header at line 1"):
        parse_instance("two one\n")[0]
    with pytest.raises(ParseError, match="expected 2 arcs"):
        parse_instance("3 2\n0 1\n")[0]


@pytest.mark.parametrize("text, message", [
    ("# sizes\n0 0\n", "bad sizes at line 2"),
    ("3 -1\n", "bad sizes at line 1"),
    ("2 1\n0 1\nroot\n", "malformed root line at line 3"),
    ("2 1\n0 1\n\nroot zero\n", "malformed root line at line 4"),
    ("2 1\nroot 0\n0 1\nroot 1\n", "duplicate root line at line 4"),
    ("2 1\n0 1\nroot 2\n", "root out of range at line 3"),
    ("2 1\n0 1 1\n", "malformed arc at line 2"),
    ("2 1\n# arc\n0 b\n", "malformed arc at line 3"),
    ("3 1\n0 1\n1 2\n", "more than 1 arcs at line 3"),
    ("", "empty input, expected a header line"),
    ("# only a comment\n\n", "empty input, expected a header line"),
], ids=["zero-n", "negative-m", "root-arity", "root-not-int",
        "duplicate-root", "root-range", "arc-arity", "arc-not-int",
        "extra-arc", "empty", "comment-only"])
def test_parse_rejects_bad_lines_with_their_line_number(text, message):
    with pytest.raises(ParseError) as caught:
        parse_instance(text)
    assert str(caught.value) == message


def test_parse_rejects_repeated_arc():
    with pytest.raises(ParseError, match="duplicate arc at line 4"):
        parse_instance("3 3\n0 1\n1 2\n0 1\n")[0]
    # the reverse arc is a different arc
    assert parse_instance("2 2\n0 1\n1 0\n")[0].arcs == {(0, 1), (1, 0)}


def test_serialize_sorts_arcs_and_round_trips():
    d = Digraph.of(3, [(2, 1), (0, 2), (0, 1)])
    text = serialize_instance(d, root=0)
    assert text == "3 3\n0 1\n0 2\n2 1\nroot 0\n"
    d2, root = parse_instance(text)
    assert d2 == d and root == 0
    assert serialize_instance(d2, root=root) == text


def test_serialize_renumbers_contracted_ids():
    d = Digraph.of(3, [(0, 1), (1, 2)])
    d2 = contract_arc_directed(d, (0, 1))  # vertices {0, 2}
    text = serialize_instance(d2)
    assert text == "2 1\n0 1\n"


def test_round_trip_on_random_corpus():
    for d in random_corpus(25, seed=5):
        text = serialize_instance(d)
        assert parse_instance(text)[0] == d
        assert serialize_instance(parse_instance(text)[0]) == text


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(labelled_digraphs())
def test_contraction_matches_a_fresh_digraph(d):
    before = {v: (d.out_neighbors(v), d.in_neighbors(v)) for v in d.vertices}
    arcs = d.arcs
    for u, v in sorted(d.arcs):
        merged = {(u if a == v else a, u if b == v else b) for a, b in d.arcs}
        fresh = Digraph(d.vertices - {v}, {(a, b) for a, b in merged if a != b})
        got = contract_arc_directed(d, (u, v))
        assert got == fresh
        for w in fresh.vertices:
            assert got.out_neighbors(w) == fresh.out_neighbors(w)
            assert got.in_neighbors(w) == fresh.in_neighbors(w)
        with pytest.raises(KeyError):
            got.out_neighbors(v)
        with pytest.raises(KeyError):
            got.in_neighbors(v)
    assert d.arcs == arcs
    assert {v: (d.out_neighbors(v), d.in_neighbors(v)) for v in d.vertices} == before
