"""Every name a kws module imports is used in that module."""

import ast
import importlib
from pathlib import Path

import pytest

import kws

MODULES = sorted(p for p in Path(kws.__file__).parent.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def _module_level_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return {name for name in names if not name.startswith("__")}


def _references(tree: ast.Module) -> set[str]:
    """Names a module reads, looks up as attributes or imports by name."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used |= {a.name for a in node.names}
    return used


def test_every_module_level_definition_is_used_or_public():
    """A function, class or constant that no kws module reads and kws.__all__
    does not export is dead code; the package's own re-exports do not count."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    used = set().union(*(_references(tree) for tree in trees.values()))
    dead = {
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in _module_level_names(tree) - used - set(kws.__all__)
    }
    assert sorted(dead) == []


def _instrumented_names() -> list[tuple[str, str]]:
    """(module, name) of every kws name ``perfbench/tracing.py`` reaches: the
    string constants of the tuple that ``instrument`` looks up with
    ``getattr(kws, name)``, and every name the file imports with ``from
    kws import ...`` or ``from kws.<module> import ...``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    (instrument,) = [
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "instrument"
    ]
    names = []
    for node in ast.walk(instrument):
        if isinstance(node, ast.DictComp) and "getattr(kws, name)" in ast.unparse(node.value):
            for generator in node.generators:
                names += [
                    ("kws", c.value) for c in ast.walk(generator.iter) if isinstance(c, ast.Constant)
                ]
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "kws":
            names += [(node.module, alias.name) for alias in node.names]
    return names


def test_every_name_the_benchmark_tracer_wraps_exists_in_kws():
    names = _instrumented_names()
    assert {("kws", "greedy_search"), ("kws", "beam_search"), ("kws", "keyword_hit"),
            ("kws.decoder", "peak_events")} <= set(names)
    missing = [
        f"{module}.{name}"
        for module, name in names
        if not hasattr(importlib.import_module(module), name)
    ]
    assert sorted(missing) == []
