"""The benchmark reads fields of the solvers' results: answers, witnesses,
lob reports, iob report keys and kpath stats. Run the first query of each
command of every workload through the benchmark's own code, so a renamed
or dropped field fails here and not only in a benchmark run."""

import importlib.util
import sys
from pathlib import Path

import pytest

import outbranching

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def load_run():
    """Import the benchmark driver without writing a bytecode cache next to
    it; it puts its own directory on sys.path to import its helpers, so
    sys.path and the helper modules are restored afterwards."""
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    saved_flag, saved_path = sys.dont_write_bytecode, list(sys.path)
    helpers = [name for name in ("checks", "workloads")
               if name not in sys.modules]
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved_flag
        sys.path[:] = saved_path
        for name in helpers:
            sys.modules.pop(name, None)
    return module


@pytest.fixture(scope="module")
def run():
    return load_run()


def longest_path(n, arcs):
    return outbranching.brute_longest_path(outbranching.Digraph.of(n, arcs))[0]


@pytest.mark.parametrize("workload", ["dp-grid", "reduce-large", "cover-enum"])
def test_first_query_of_each_command_passes_the_benchmark_gate(run, workload):
    assert workload in run.workloads.WORKLOADS
    queries = run.workloads.build_queries(workload, 0, longest_path)
    expected, stored_digest = run.load_expected(workload, 0)
    assert run.digest(queries) == stored_digest
    firsts = {}
    for query in queries:
        firsts.setdefault(query["cmd"], query)
    picked = list(firsts.values())
    results = [run.solve(outbranching, query) for query in picked]
    for query, result in zip(picked, results):
        stored = expected[str(query["id"])]
        assert run.checks.check_query(query, result, stored) == [], query["id"]
    assert run.gate_self_check(picked, results) == []
    counts = run.result_counts(picked, results)
    assert counts["yes"] >= 1
