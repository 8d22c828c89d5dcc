"""Import structure: only ``dsp`` imports scipy, so its import cost sits behind
one module, and no module reaches into a sibling module's private names."""

import ast
from pathlib import Path

import vitalchirp

PACKAGE = Path(vitalchirp.__file__).parent


def _imported_roots(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.module.split(".")[0]


def test_only_dsp_imports_scipy():
    importers = sorted(p.stem for p in PACKAGE.glob("*.py") if "scipy" in _imported_roots(p))
    assert importers == ["dsp"]


def _sibling_private_names(path, siblings):
    """``<line> <module>.<name>`` for each private name ``path`` reads from a sibling."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in siblings and node.attr.startswith("_")):
            yield f"{node.lineno} {node.value.id}.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in siblings:
            yield from (f"{node.lineno} {node.module}.{alias.name}"
                        for alias in node.names if alias.name.startswith("_"))


def test_no_module_reads_a_siblings_private_names():
    siblings = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    found = {p.name: hits for p in sorted(PACKAGE.glob("*.py"))
             if (hits := list(_sibling_private_names(p, siblings)))}
    assert found == {}
