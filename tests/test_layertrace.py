"""The benchmark's layer trace patches package functions by name; check that
every name it wraps still exists and that installing and removing the
tracer leaves the package as it found it."""

import importlib
import importlib.util
import sys
from pathlib import Path

import outbranching
from outbranching import Digraph
from outbranching.generators import generate, grid_spec

LAYERTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"


def load_layertrace():
    """Import the file without writing a bytecode cache next to it."""
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_every_wrapped_name_resolves():
    layertrace = load_layertrace()
    for modname, attr, _, _ in layertrace.WRAPPED:
        owner = importlib.import_module(f"outbranching.{modname}")
        for part in attr.split("."):
            assert hasattr(owner, part), f"outbranching.{modname}.{attr}"
            owner = getattr(owner, part)
        assert callable(owner)


def test_install_then_uninstall_restores_every_attribute():
    layertrace = load_layertrace()
    tracer = layertrace.Tracer(outbranching)
    owners = list(tracer.modules) + [Digraph]
    before = {id(owner): dict(vars(owner)) for owner in owners}
    tracer.install()
    try:
        assert outbranching.leaf_pipeline.reduce_lob is not before[
            id(outbranching.leaf_pipeline)]["reduce_lob"]
        star = Digraph.of(4, [(0, 1), (0, 2), (0, 3)])
        assert outbranching.solve_lob(star, 3, root=0).satisfiable
        assert tracer.calls["solve_lob"] == tracer.calls["reduce_lob"] == 1
    finally:
        tracer.uninstall()
    for owner in owners:
        after = vars(owner)
        for name, value in before[id(owner)].items():
            assert after[name] is value, f"{owner!r}.{name} not restored"


def test_trace_sees_the_dominator_work_of_a_reduction():
    layertrace = load_layertrace()
    tracer = layertrace.Tracer(outbranching)
    # (0, 1) strands 1, 2 and 3; after it is contracted nothing strands
    d = Digraph.of(4, [(0, 1), (1, 2), (1, 3)])
    tracer.install()
    try:
        result = outbranching.solve_lob(d, 2, root=0)
    finally:
        tracer.uninstall()
    assert result.reports[0].contractions == 1
    assert tracer.calls["arcs_disconnecting_two"] >= 1
    assert tracer.calls["cut_profile"] == 1


def test_trace_of_a_wide_guaranteed_yes_changes_no_result():
    # a bidirected 12x12 grid: the high in-degree count answers yes and
    # the min-fill width (16) is past the witness limit. The trace reads
    # `.width` on whatever `greedy_decomposition` returns, so a caller
    # that needs no decomposition must not get None or a bare width from
    # that name
    layertrace = load_layertrace()
    tracer = layertrace.Tracer(outbranching)
    d = generate(grid_spec(12, p2=1.0))

    def run():
        # looked up at call time, so the traced run meets the wrappers
        return (outbranching.solve_lob(d, 4, root=0),
                outbranching.analysis.analyze(d, 0, 4))

    plain = run()
    tracer.install()
    try:
        traced = run()
    finally:
        tracer.uninstall()
    assert traced == plain
    assert plain[0].satisfiable and plain[0].witness is None
    assert tracer.calls["solve_lob"] == tracer.calls["analyze"] == 1
    # the witness attempt stops early and builds no decomposition to drop
    assert tracer.stats["treewidth.wasted_s"] == 0
