"""Syntax-tree scans of the source.

The package runs the same under python -O as without it. -O does two
things: it strips assert statements and sets __debug__ to False. So a
package that holds no assert, never names __debug__ and never reads
sys.flags runs the same code either way, and a check that guards a
returned answer holds under -O too, since it must be a real exception.
The first scan looks for all three.

The other two keep code that nothing reads out of the tree: no module
of the package or the tests imports a name it never uses, and every
public method or property of a package class is read somewhere outside
the tests.
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


def python_files(*dirs):
    """Paths of the .py files under the given directories of the repo."""
    for top in dirs:
        for base, subdirs, names in os.walk(os.path.join(ROOT, top)):
            subdirs[:] = sorted(d for d in subdirs if d != "__pycache__")
            yield from (os.path.join(base, name) for name in sorted(names)
                        if name.endswith(".py"))


def parse_file(path):
    with open(path) as handle:
        return ast.parse(handle.read(), path)


def unused_imports(tree):
    """(line, name) of each imported name the module never mentions."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def unread_methods(class_trees, reader_trees):
    """Class.name of each public method or property defined in
    class_trees whose name no attribute access in reader_trees reads."""
    reads = {node.attr for tree in reader_trees for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)}
    return [f"{cls.name}.{item.name}"
            for tree in class_trees for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) for item in cls.body
            if isinstance(item, ast.FunctionDef)
            and not item.name.startswith("_") and item.name not in reads]


def test_no_unused_imports():
    # __init__.py imports its names to export them
    found = [f"{os.path.relpath(path, ROOT)}:{line} {name}"
             for path in python_files(os.path.join("src", "outbranching"), "tests")
             if os.path.basename(path) != "__init__.py"
             for line, name in unused_imports(parse_file(path))]
    assert not found, found


def test_every_public_method_has_a_reader_outside_the_tests():
    package = [parse_file(path) for path in python_files("src")]
    readers = package + [parse_file(path) for path in
                         python_files("demos", "bench", "perfbench")]
    assert unread_methods(package, readers) == []


def test_scans_flag_dead_code():
    source = ("import os\n"
              "from sys import argv, path\n"
              "class Tree:\n"
              "    def leaves(self):\n"
              "        return path\n"
              "    def children(self):\n"
              "        return self.leaves()\n")
    tree = ast.parse(source)
    assert unused_imports(tree) == [(1, "os"), (2, "argv")]
    assert unread_methods([tree], [tree]) == ["Tree.children"]
