"""Module boundaries of hashprop, checked by ``ast``: the lookup-key format
of a joint type is decided in hashprop.types alone (every other module names
a type by its row in the type-class table), only hashprop.mc makes random
generators, no module reaches into another hashprop module's ``_``-prefixed
names, and every public name has a reader (the ledger)."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hashprop"


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


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_uses(tree: ast.Module) -> list[str]:
    """The ``_``-prefixed names of other hashprop modules that a module
    imports (``from .m import _x``) or reads off an imported hashprop
    module (``m._x`` after ``from . import m``)."""
    modules, uses = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "hashprop"
                                                 or (node.module or "").startswith("hashprop.")):
            if node.module in (None, "hashprop"):
                modules.update(alias.asname or alias.name for alias in node.names)
            else:
                uses += [f"{node.module}.{alias.name}" for alias in node.names
                         if _private(alias.name)]
        elif isinstance(node, ast.Import):
            modules.update(alias.asname for alias in node.names
                           if alias.name.startswith("hashprop.") and alias.asname)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            uses.append(f"{node.value.id}.{node.attr}")
    return uses


def test_only_types_reads_key_weights():
    modules = sorted(SRC.glob("*.py"))
    assert SRC / "types.py" in modules
    assert [p.name for p in modules if p.name != "types.py" and "key_weights" in _names(p)] == []


def test_no_module_uses_another_modules_private_names():
    found = {p.name: _private_uses(ast.parse(p.read_text())) for p in sorted(SRC.glob("*.py"))}
    assert {name: uses for name, uses in found.items() if uses} == {}


def test_private_use_check_sees_both_forms():
    """The guard flags a private import and a private attribute of an
    imported module, and passes public names and dunders."""
    tree = ast.parse("from .types import _tables, type_rows\n"
                     "from . import formats, lp_md as lp\n"
                     "formats._load(p); lp._key; formats.load_json(p); formats.__name__\n")
    assert sorted(_private_uses(tree)) == ["formats._load", "lp._key", "types._tables"]


def test_only_mc_makes_generators():
    """Every random stream comes from ``mc.stream``, so it is keyed one way."""
    makers = {"default_rng", "SeedSequence"}
    assert [p.name for p in sorted(SRC.glob("*.py"))
            if p.name != "mc.py" and makers & _names(p)] == []


def _public_definitions() -> dict[str, str]:
    """Each public top-level function and class of the package, with its module."""
    return {node.name: path.name for path in sorted(SRC.glob("*.py"))
            for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not _private(node.name)}


def _readme_module_names() -> set[str]:
    """The identifiers inside the code spans of the README's ``## Modules`` section."""
    section = (ROOT / "README.md").read_text().split("\n## Modules\n", 1)[1].split("\n## ", 1)[0]
    return {word for span in re.findall(r"`([^`]*)`", section)
            for word in re.findall(r"[A-Za-z_]\w*", span)}


def test_every_public_name_has_a_reader():
    """The ledger: a public top-level function or class of the package is
    mentioned by package code other than the re-exports of ``__init__``, or
    by the acceptance suite, or named in the README's ``## Modules`` section.
    A name outside all three is deleted or documented."""
    package = set().union(*(_names(p) for p in SRC.glob("*.py") if p.name != "__init__.py"))
    read = package | _names(ROOT / "tests" / "test_acceptance.py") | _readme_module_names()
    public = _public_definitions()
    assert len(public) > 100  # the probe sees the package
    assert {name: module for name, module in public.items() if name not in read} == {}
