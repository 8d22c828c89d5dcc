"""Only ``dsp`` imports scipy, so its import cost sits behind one module."""

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
