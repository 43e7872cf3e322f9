"""The checkers stay independent of the code they check: ``tests/oracles.py``
uses only the standard library, and no module of the package imports the
oracles or the benchmark's reference counter."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _imported(path):
    """Every module name an import statement in the file names, dotted."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def test_oracles_stay_independent():
    oracle_imports = set(_imported(ROOT / "tests" / "oracles.py"))
    assert oracle_imports  # the walk sees the file's imports
    assert {name.split(".")[0] for name in oracle_imports} <= sys.stdlib_module_names

    forbidden = {"oracles", "bench", "reference"}
    offenders = [
        (path.name, name)
        for path in sorted((ROOT / "src" / "pixtopo").glob("*.py"))
        for name in _imported(path)
        if forbidden & set(name.split("."))
    ]
    assert offenders == []
