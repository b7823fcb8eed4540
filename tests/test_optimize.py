"""The package runs the same under python -O as without it.

-O does two things: it strips assert statements and sets __debug__ to
False. So a package that holds no assert, never names __debug__ and
never reads sys.flags runs the same code either way, and a check that
guards a returned answer holds under -O too, since it must be a real
exception. This test scans the package source for all three.
"""

import ast
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def optimize_sensitive_lines(source, filename="<source>"):
    """Line numbers of the constructs whose meaning -O changes: assert
    statements, the name __debug__, any sys.flags attribute and an import
    of flags from sys."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Assert):
            found.append(node.lineno)
        elif isinstance(node, ast.Name) and node.id == "__debug__":
            found.append(node.lineno)
        elif (isinstance(node, ast.Attribute) and node.attr == "flags"
              and isinstance(node.value, ast.Name) and node.value.id == "sys"):
            found.append(node.lineno)
        elif (isinstance(node, ast.ImportFrom) and node.module == "sys"
              and any(alias.name == "flags" for alias in node.names)):
            found.append(node.lineno)
    return found


def test_package_source_has_no_assert():
    package = os.path.join(ROOT, "src", "outbranching")
    found = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(package, name)
        with open(path) as handle:
            found += [f"{name}:{line}" for line in
                      optimize_sensitive_lines(handle.read(), path)]
    assert not found, found


@pytest.mark.parametrize("source", [
    "assert x\n",
    "if __debug__:\n    pass\n",
    "import sys\nlevel = sys.flags.optimize\n",
    "from sys import flags\n",
])
def test_scan_flags_each_optimize_sensitive_construct(source):
    assert optimize_sensitive_lines(source)


def test_scan_passes_a_clean_snippet():
    source = ("import sys\n"
              "from os import path\n"
              "def check(x, flags):\n"
              "    if not x:\n"
              "        raise ValueError(flags.debug)\n"
              "    return sys.argv, path\n")
    assert optimize_sensitive_lines(source) == []
