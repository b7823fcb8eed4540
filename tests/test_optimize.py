"""The solver property tests, the incremental-reduction tests, the
randomized DP test and the long-input and reduction-record tests again,
under python -O, and a check that the package holds no assert at all.

-O strips every assert from the package, so a check that guards a
returned answer only holds there if it raises a real exception.
pytest still rewrites the asserts of the test modules themselves.
"""

import ast
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TESTS = (
    "test_solver_properties.py",
    "test_connectivity.py::test_idoms_match_definition",
    "test_leaf_pipeline.py::test_carried_dominator_tree_matches_a_fresh_one",
    "test_leaf_pipeline.py::test_carried_dominator_tree_matches_on_corpora",
    "test_digraph.py::test_contraction_matches_a_fresh_digraph",
    "test_cli.py::test_witness_fault_exit_five",
    "test_internal_pipeline.py::test_expand_rejects_a_growth_that_loses_witness_arcs",
    "test_leaf_pipeline.py::test_reduction_without_rooted_2connectivity_raises",
    "test_treedp.py::test_dps_match_oracles_on_random_decompositions",
    "test_digraph.py::test_out_tree_of_a_long_path_builds_in_linear_time",
    "test_digraph.py::test_out_tree_accepts_and_rejects_as_the_full_walk",
    "test_oracle.py::test_enum_and_count_agree_on_a_long_path",
    "test_cli.py::test_verify_kpath_on_a_long_path",
    "test_leaf_pipeline.py::test_reduction_record_matches_its_outcome",
    "test_leaf_pipeline.py::test_reduction_record_on_corpora_reaches_every_outcome",
    "test_internal_pipeline.py::test_root_ends_once_the_whole_digraph_falls_short",
)


def test_package_source_has_no_assert():
    package = os.path.join(ROOT, "src", "outbranching")
    found = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(package, name)
        with open(path) as handle:
            tree = ast.parse(handle.read(), path)
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, found


def test_solver_properties_pass_under_optimize():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src")]
        + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider"]
        + [os.path.join("tests", test) for test in TESTS],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
