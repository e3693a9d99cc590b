"""The module boundary of ``src/dualcycles``, read off the source.

``lattice`` holds the graph type and its search, ``builders`` makes
graphs and writes the text format both ways, and ``invariants`` judges
graphs and cycles.  Each module's sibling imports and the home of each
name below are read with ``ast``, without importing the package.
"""

import ast
import os

import dualcycles

SRC = os.path.dirname(os.path.abspath(dualcycles.__file__))

# The sibling modules each module may import, exactly.
IMPORTS = {
    "lattice": set(),
    "builders": {"lattice"},
    "invariants": {"lattice"},
    "classify": {"lattice", "builders", "invariants"},
}

# The one module that defines each name.
HOMES = {
    "parse_graph": "builders",
    "serialize_graph": "builders",
    "is_negative_definite": "invariants",
    "_certified": "invariants",
    "_reach": "lattice",
}


def modules() -> dict[str, ast.Module]:
    """The parsed source of each module of the package, by name."""
    parsed = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                parsed[name[:-3]] = ast.parse(fh.read())
    return parsed


def siblings(tree: ast.Module) -> set[str]:
    """The package modules that ``tree`` imports, relatively or by the
    package name; ``from . import x`` counts as the package itself."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            found.add(node.module or "__init__")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("dualcycles"):
            found.add(node.module.partition(".")[2] or "__init__")
        elif isinstance(node, ast.Import):
            found.update(a.name.partition(".")[2] or "__init__" for a in node.names
                         if a.name.split(".")[0] == "dualcycles")
    return found


def test_each_module_imports_only_its_layers():
    parsed = modules()
    assert {name: siblings(parsed[name]) for name in IMPORTS} == IMPORTS


def test_each_name_is_defined_in_one_module():
    homes = {}
    for module, tree in modules().items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in HOMES:
                homes.setdefault(node.name, []).append(module)
    assert homes == {name: [module] for name, module in HOMES.items()}
