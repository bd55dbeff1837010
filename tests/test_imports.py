"""Modules of the package use each other's public names only."""

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "radicalroots"


def private_imports(path: Path) -> list[str]:
    """``from .module import _name`` statements in one source file (dunder
    names such as ``__version__`` are public)."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = "." * node.level + (node.module or "")
        if node.level == 0 and not module.startswith("radicalroots"):
            continue
        found += [f"{path.name}: from {module} import {alias.name}"
                  for alias in node.names
                  if alias.name.startswith("_") and not alias.name.endswith("__")]
    return found


def test_no_private_imports_across_modules():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 10
    assert [line for path in paths for line in private_imports(path)] == []


def test_private_import_is_detected(tmp_path):
    source = tmp_path / "module.py"
    source.write_text("from .radical import emit, _text\n"
                      "from radicalroots.pipeline import _as_generators\n"
                      "from . import __version__\n"
                      "from __future__ import annotations\n")
    assert private_imports(source) == [
        "module.py: from .radical import _text",
        "module.py: from radicalroots.pipeline import _as_generators"]
