"""The package's layering: its public names and its import graph.

Every public name has a user outside the tests: a helper that only tests
call belongs in tests/oracles.py, not in src/scmux. A public top-level name
of a src/scmux module counts as used when it is read in src/scmux (outside
its own definition and __init__.py), in scripts/ or in perfbench/spans.py,
the tracer that wraps the package's functions by name.

The modules import one another without a cycle, function-local imports
included, so each layer can be read and loaded on top of the ones below it.
"""

import ast
import re
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "scmux").glob("*.py") if p.name != "__init__.py")


def _defined_names(top: ast.stmt) -> list[str]:
    """Names a top-level statement defines, other than by import."""
    if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
        return [top.name]
    targets = top.targets if isinstance(top, ast.Assign) else [getattr(top, "target", None)]
    return [node.id for t in targets if t is not None
            for node in ast.walk(t) if isinstance(node, ast.Name)]


def _referenced_outside_own_definition(path: Path) -> set[tuple[str, str]]:
    """(name the enclosing top-level statement defines or "", referenced name) pairs."""
    pairs = set()
    for top in ast.parse(path.read_text()).body:
        owners = _defined_names(top) or [""]
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.alias):
                names = [node.name]
            else:
                continue
            pairs |= {(owner, name) for owner in owners for name in names}
    return pairs


def test_every_exported_name_has_a_user_outside_the_tests():
    used = set()
    for path in MODULES:
        used |= {name for owner, name in _referenced_outside_own_definition(path)
                 if owner != name}
    text = "\n".join(
        p.read_text() for p in [*(ROOT / "scripts").glob("*.py"), ROOT / "perfbench" / "spans.py"]
    )
    public = [(path.stem, name) for path in MODULES
              for top in ast.parse(path.read_text()).body
              for name in _defined_names(top) if not name.startswith("_")]
    unused = [f"{module}.{name}" for module, name in public
              if name not in used and not re.search(rf"\b{name}\b", text)]
    assert public and not unused, f"public but used only by tests: {unused}"


def _scmux_imports(path: Path) -> set[str]:
    """Stems of the src/scmux modules a module imports, anywhere in its body.

    The package itself (`from . import x`, `import scmux`) counts as
    __init__, unless a module is named.
    """
    stems = {p.stem for p in MODULES}
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                parts = (node.module or "").split(".")
            elif (node.module or "").split(".")[0] == "scmux":
                parts = node.module.split(".")[1:]
            else:
                continue
            if parts and parts[0]:
                found.add(parts[0])
            else:
                found |= {a.name for a in node.names if a.name in stems} or {"__init__"}
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "scmux":
                    found.add(parts[1] if len(parts) > 1 else "__init__")
    return found


def test_module_imports_form_no_cycle():
    paths = {p.stem: p for p in (ROOT / "src" / "scmux").glob("*.py")}
    graph = {stem: _scmux_imports(path) & set(paths) for stem, path in paths.items()}
    assert graph["adders"] >= {"rns", "sngen"}
    try:
        list(TopologicalSorter(graph).static_order())
    except CycleError as err:
        raise AssertionError(f"import cycle: {' -> '.join(err.args[1])}") from None


def test_only_adders_runs_the_adder_loop():
    # one module sizes the blocks of runs, fills them and makes the per-run
    # run_adder call, so each caller reads adders._run_reports instead;
    # __init__ only re-exports run_adder
    loop = {"run_adder", "_fill_runs", "_block_runs"}
    for path in (ROOT / "src" / "scmux").glob("*.py"):
        tree = ast.parse(path.read_text())
        names = {name for _, name in _referenced_outside_own_definition(path)}
        if path.stem == "__init__":
            names.discard("run_adder")
        if path.stem != "adders":
            assert not names & loop, (path.name, sorted(names & loop))
        calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                 and getattr(node.func, "id", getattr(node.func, "attr", None)) == "run_adder"]
        assert len(calls) == (path.stem == "adders"), (path.name, len(calls))
