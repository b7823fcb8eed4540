"""The benchmark's layer trace patches package functions by name; check that
every name it wraps still exists and that installing and removing the
tracer leaves the package as it found it."""

import importlib
import importlib.util
import sys
from pathlib import Path

import outbranching
from outbranching import Digraph

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
