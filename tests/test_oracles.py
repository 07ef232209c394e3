"""The oracles stay independent of the code they check."""

import ast
from pathlib import Path

TESTS = Path(__file__).parent


def _imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    return [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
            for alias in node.names] + \
        [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]


def test_oracles_import_no_hashprop_and_no_test_imports_another():
    assert not [m for m in _imports(TESTS / "oracles.py") if m.split(".")[0] == "hashprop"]
    for path in TESTS.glob("*.py"):
        assert not [m for m in _imports(path) if m.startswith("test_")], path.name
