"""The benchmark tracer looks up library functions by name; every name it
lists must exist in hashprop, so deleting or renaming one fails here too."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _targets() -> list:
    tree = ast.parse(TRACING.read_text())
    node = next(node for node in tree.body if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "TARGETS" for t in node.targets))
    return ast.literal_eval(node.value)


def test_tracer_targets_resolve():
    targets = _targets()
    assert targets
    for module_name, attr, *_ in targets:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(owner, part), (module_name, attr)
            owner = getattr(owner, part)
        assert callable(owner), (module_name, attr)
