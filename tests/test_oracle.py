import os
import subprocess
import sys
from pathlib import Path

import pytest

from outbranching import (
    BudgetError,
    Digraph,
    brute_longest_path,
    brute_max_internal,
    brute_max_leaves,
    enum_arborescences,
    validate_out_tree,
)
from outbranching.generators import generate, grid_spec
from helpers import (
    brute_max_internal_tree,
    count_arborescences,
    enum_out_trees,
    grid_digraph,
    random_corpus,
)

REPO = Path(__file__).resolve().parent.parent


def test_enum_single_path():
    d = Digraph.of(3, [(0, 1), (1, 2)])
    trees = list(enum_arborescences(d, 0))
    assert len(trees) == 1
    assert trees[0].parents == {1: 0, 2: 1}


def test_enum_and_count_agree_on_a_long_path():
    # one parent choice per vertex, 1499 deep: past the recursion limit
    n = 1500
    d = Digraph.of(n, [(v, v + 1) for v in range(n - 1)])
    trees = list(enum_arborescences(d, 0))
    assert [t.parents for t in trees] == [{v: v - 1 for v in range(1, n)}]
    assert count_arborescences(d, 0) == 1


def test_enum_yields_nothing_when_unreachable():
    d = Digraph.of(3, [(0, 1)])
    assert list(enum_arborescences(d, 0)) == []


def test_enum_two_choices():
    # 2 can hang off 0 or off 1
    d = Digraph.of(3, [(0, 1), (0, 2), (1, 2)])
    trees = list(enum_arborescences(d, 0))
    assert len(trees) == 2
    parent_sets = {frozenset(t.parents.items()) for t in trees}
    assert frozenset({(1, 0), (2, 0)}) in parent_sets
    assert frozenset({(1, 0), (2, 1)}) in parent_sets


def test_enum_prunes_cycles():
    # parent choices 1->2 and 2->1 together would be a cycle; only mixed
    # assignments rooted at 0 survive
    d = Digraph.of(3, [(0, 1), (0, 2), (1, 2), (2, 1)])
    trees = list(enum_arborescences(d, 0))
    assert len(trees) == 3
    for t in trees:
        validate_out_tree(d, t, spanning=True)


def test_count_matches_known_values():
    assert count_arborescences(Digraph.of(1, []), 0) == 1
    assert count_arborescences(Digraph.of(2, [(0, 1)]), 0) == 1
    assert count_arborescences(Digraph.of(2, [(0, 1)]), 1) == 0
    d = Digraph.of(3, [(0, 1), (0, 2), (1, 2), (2, 1)])
    assert count_arborescences(d, 0) == 3
    # bidirected triangle: Cayley-like count by hand is 3 per root
    tri = Digraph.of(3, [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)])
    assert count_arborescences(tri, 0) == 3


def test_enum_agrees_with_determinant_count():
    checked = 0
    for d in random_corpus(60, seed=41, n_lo=3, n_hi=6, density=2.0):
        for r in sorted(d.vertices):
            got = len(list(enum_arborescences(d, r)))
            want = count_arborescences(d, r)
            assert got == want, (d.arcs, r, got, want)
            checked += 1
    assert checked >= 150


def test_determinant_count_is_exact_past_two_to_the_53():
    # On a bidirected graph the arborescences at any root are the spanning
    # trees of the underlying graph; the 7x7 grid has A007341(7) of them.
    d = generate(grid_spec(7, p2=1.0))
    assert count_arborescences(d, 0) == 19872369301840986112


def test_package_imports_without_numpy():
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    code = ("import sys, outbranching, outbranching.cli; "
            "print('numpy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=REPO,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_enum_respects_limit():
    # complete bidirected K5 has 125 spanning arborescences per root
    arcs = [(i, j) for i in range(5) for j in range(5) if i != j]
    d = Digraph.of(5, arcs)
    assert count_arborescences(d, 0) == 125
    with pytest.raises(BudgetError):
        list(enum_arborescences(d, 0, limit=100))


def test_brute_max_leaves_star_and_path():
    star = Digraph.of(4, [(0, 1), (0, 2), (0, 3)])
    assert brute_max_leaves(star, 0) == 3
    path = Digraph.of(4, [(0, 1), (1, 2), (2, 3)])
    assert brute_max_leaves(path, 0) == 1
    assert brute_max_leaves(path, 1) is None


def test_brute_max_internal_values():
    star = Digraph.of(4, [(0, 1), (0, 2), (0, 3)])
    assert brute_max_internal(star, 0) == 1
    path = Digraph.of(4, [(0, 1), (1, 2), (2, 3)])
    assert brute_max_internal(path, 0) == 3
    single = Digraph.of(1, [])
    assert brute_max_internal(single, 0) == 0
    assert brute_max_leaves(single, 0) == 1


def test_grid_brute_leaves_sane():
    d = grid_digraph(2, 3)
    best = brute_max_leaves(d, 0)
    assert best is not None and 2 <= best <= 5


def test_enum_out_trees_counts():
    d = Digraph.of(3, [(0, 1), (1, 2)])
    trees = list(enum_out_trees(d, 0, max_size=3))
    # {0}, {0,1}, {0,1,2}
    assert len(trees) == 3
    sizes = sorted(t.size for t in trees)
    assert sizes == [1, 2, 3]


def test_enum_out_trees_dedup():
    # diamond 0->1, 0->2, 1->3, 2->3: tree on {0,1,2,3} has two parent
    # choices for 3, each counted once
    d = Digraph.of(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    trees = list(enum_out_trees(d, 0, max_size=4))
    keys = {frozenset(t.parents.items()) for t in trees}
    assert len(keys) == len(trees)
    full = [t for t in trees if t.size == 4]
    assert len(full) == 2


def test_brute_max_internal_tree_cap():
    path = Digraph.of(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert brute_max_internal_tree(path, 0, max_size=5) == 4
    assert brute_max_internal_tree(path, 0, max_size=3) == 2
    assert brute_max_internal_tree(path, 0, max_size=1) == 0


def test_brute_longest_path_cases():
    d = Digraph.of(4, [(0, 1), (1, 2), (2, 3)])
    k, path = brute_longest_path(d)
    assert k == 3 and path == [0, 1, 2, 3]
    d2 = Digraph.of(3, [(0, 1), (1, 0)])
    k2, path2 = brute_longest_path(d2)
    assert k2 == 1 and len(path2) == 2
    empty = Digraph.of(2, [])
    k3, path3 = brute_longest_path(empty)
    assert k3 == 0 and len(path3) == 1


def test_brute_longest_path_on_cycle():
    d = Digraph.of(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    k, path = brute_longest_path(d)
    # can use all 4 vertices but not return to start
    assert k == 3
    assert len(set(path)) == 4


def test_brute_longest_path_budget():
    arcs = [(i, j) for i in range(8) for j in range(8) if i != j]
    d = Digraph.of(8, arcs)
    with pytest.raises(BudgetError):
        brute_longest_path(d, limit=1000)
