"""No module of the package reads a private name of another module.

A name that starts with one underscore is its module's own; a sibling that
needs it should get a public name for it.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "aeimpute"


def private_reads(source: str, filename: str) -> list[str]:
    """``file:line: name`` for each private name of a sibling module that
    ``source`` reads: ``from .m import _x``, or an attribute ``_x`` of a
    module imported as ``from . import m``.  Dunder names are public."""
    tree = ast.parse(source)
    siblings = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    siblings.add(alias.asname or alias.name)
                elif _private(alias.name):
                    found.append(f"{filename}:{node.lineno}: {node.module}.{alias.name}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in siblings and _private(node.attr):
                found.append(f"{filename}:{node.lineno}: {node.value.id}.{node.attr}")
    return sorted(found)


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_no_module_reads_a_private_name_of_another():
    found = [line for path in sorted(PACKAGE.glob("*.py"))
             for line in private_reads(path.read_text(encoding="utf-8"), path.name)]
    assert found == []


def test_the_scan_finds_both_forms():
    source = (
        "from . import data as data_mod, __version__\n"
        "from .network import _unpack, train\n"
        "from .objective import MissingDataObjective\n"
        "x = data_mod._bad_token(1)\n"
        "y = data_mod.load_csv, data_mod.__name__, __version__\n"
    )
    assert private_reads(source, "m.py") == ["m.py:2: network._unpack", "m.py:4: data_mod._bad_token"]
