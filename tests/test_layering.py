"""The lookup-key format of a joint type is decided in hashprop.types alone:
every other module names a type by its row in the type-class table."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hashprop"


def _names(path: Path) -> set[str]:
    """Every name, attribute and imported name that the module mentions."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update({node.name, node.asname})
    return names


def test_only_types_reads_key_weights():
    modules = sorted(SRC.glob("*.py"))
    assert SRC / "types.py" in modules
    assert [p.name for p in modules if p.name != "types.py" and "key_weights" in _names(p)] == []
