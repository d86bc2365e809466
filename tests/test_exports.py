"""Every name the package exports has a user outside the tests.

A helper that only tests call belongs in tests/oracles.py, not in src/scmux.
A non-module name in scmux.__all__ counts as used when it is referenced in
src/scmux (outside its own definition and __init__.py), in scripts/ or in
perfbench/spans.py, the tracer that wraps the package's functions by name.
"""

import ast
import re
import types
from pathlib import Path

import scmux

ROOT = Path(__file__).resolve().parents[1]


def _referenced_outside_own_definition(path: Path) -> set[tuple[str, str]]:
    """(enclosing top-level definition or "", referenced name) pairs."""
    pairs = set()
    for top in ast.parse(path.read_text()).body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else ""
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                pairs.add((owner, node.id))
            elif isinstance(node, ast.Attribute):
                pairs.add((owner, node.attr))
            elif isinstance(node, ast.alias):
                pairs.add((owner, node.name))
    return pairs


def test_every_exported_name_has_a_user_outside_the_tests():
    used = set()
    for path in (ROOT / "src" / "scmux").glob("*.py"):
        if path.name != "__init__.py":
            used |= {name for owner, name in _referenced_outside_own_definition(path)
                     if owner != name}
    text = "\n".join(
        p.read_text() for p in [*(ROOT / "scripts").glob("*.py"), ROOT / "perfbench" / "spans.py"]
    )
    exported = [name for name in scmux.__all__
                if not isinstance(getattr(scmux, name), types.ModuleType)]
    unused = [name for name in exported
              if name not in used and not re.search(rf"\b{name}\b", text)]
    assert exported and not unused, f"exported but used only by tests: {unused}"
