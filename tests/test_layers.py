"""The module boundary of ``src/dualcycles``, read off the source.

``lattice`` holds the graph type, its search and cycle arithmetic,
``builders`` makes graphs and writes the text format both ways,
``invariants`` judges graphs and cycles, and ``classify`` runs the two
routes.  Each module's sibling imports, the home of each name below and
the private names that cross between modules are read with ``ast``,
without importing the package.
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
    "CycleError": "invariants",
    "_co_genera": "invariants",
    "virtual_genus": "invariants",
    "is_anti_nef": "invariants",
    "is_special_cycle": "invariants",
    "is_ulrich_cycle": "invariants",
    "_rows": "classify",
    # The records are class statements, so their homes are read here too.
    "ValidationReport": "invariants",
    "CycleInvariants": "invariants",
    "Filtration": "invariants",
    "ClassificationEntry": "classify",
    "RdpVerification": "classify",
}

# The modules that once defined a name and must not import it either: the
# package namespace is the one other place it resolves.
FORMER_HOMES = {
    "lattice": {"CycleError", "_co_genera", "virtual_genus", "is_anti_nef", "_rows"},
    "classify": {"is_special_cycle", "is_ulrich_cycle"},
}

# Every private name that one module imports from a sibling, exactly, as
# (importer, sibling, name).  A new crossing fails here: move the name
# to its one caller, or make it public.
CROSSINGS = {
    ("classify", "builders", "_ade_type"),
    ("classify", "invariants", "_formulas"),
    ("classify", "invariants", "_laufer"),
    ("classify", "invariants", "_rational"),
    ("classify", "invariants", "_z0_report"),
    ("classify", "lattice", "_reach"),
    ("cli", "classify", "_classify"),
    ("cli", "invariants", "_filtration"),
    ("cli", "invariants", "_pointwise"),
    ("cli", "invariants", "_rational"),
    ("invariants", "lattice", "_reach"),
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


def private_imports(tree: ast.Module) -> set[tuple[str, str]]:
    """(sibling, name) of each private name, dunders aside, that ``tree``
    imports from a sibling module."""
    return {(node.module, a.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level and node.module
            for a in node.names if a.name.startswith("_") and not a.name.startswith("__")}


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


def test_no_former_home_imports_a_moved_name():
    parsed = modules()
    for module, names in FORMER_HOMES.items():
        imported = {a.asname or a.name for node in ast.walk(parsed[module])
                    if isinstance(node, ast.ImportFrom) for a in node.names}
        assert imported.isdisjoint(names), (module, imported & names)


def test_private_names_cross_modules_only_as_listed():
    found = {(module, *pair) for module, tree in modules().items()
             for pair in private_imports(tree)}
    assert found == CROSSINGS
