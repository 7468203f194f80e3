"""Every name a kws module imports is used in that module."""

import ast
import dataclasses
import importlib
from pathlib import Path

import pytest

import kws
from kws import suite

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


def test_every_public_name_is_used_outside_the_tests():
    """No public name exists only for tests: every name in ``kws.__all__`` is
    read by some kws module (its own definition and the package's re-export
    aside) or wrapped by the benchmark's tracer."""
    used = set().union(*(_references(ast.parse(p.read_text(encoding="utf-8"))) for p in MODULES))
    used |= {name for _, name in _instrumented_names()}
    assert sorted(set(kws.__all__) - used) == []


def _methods(tree: ast.Module) -> set[tuple[str, str]]:
    """(class, name) of every function a module's classes define, dunder
    methods aside; properties count."""
    return {
        (node.name, item.name)
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (item.name.startswith("__") and item.name.endswith("__"))
    }


def _overrides_outside_kws(path: Path, cls: str, name: str) -> bool:
    """Whether a base class from outside kws defines ``name``, and so calls
    the override itself (argparse calls a parser's ``error``)."""
    klass = getattr(importlib.import_module(f"kws.{path.stem}"), cls)
    return any(
        name in vars(base) for base in klass.__mro__[1:] if not base.__module__.startswith("kws")
    )


def _attribute_reads(tree: ast.Module) -> set[str]:
    """Attribute names a module reads: ``x.name`` loads and the constant
    names of ``getattr(x, "name", ...)`` calls. A bare name does not count,
    so a local variable cannot stand in for a method."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            used.add(node.attr)
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "getattr"
            and len(node.args) > 1
            and isinstance(node.args[1], ast.Constant)
        ):
            used.add(node.args[1].value)
    return used


def test_every_method_is_read_outside_the_tests():
    """No method exists only for tests: every method of a kws class is read
    as an attribute in some kws module or perfbench file, or is called by a
    base class from outside kws."""
    perfbench = sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in [*MODULES, *perfbench]}
    used = set().union(*(_attribute_reads(tree) for tree in trees.values()))
    unread = {
        f"{path.name}:{cls}.{name}"
        for path in MODULES
        for cls, name in _methods(trees[path])
        if name not in used and not _overrides_outside_kws(path, cls, name)
    }
    assert sorted(unread) == []


def test_every_suite_generator_knob_is_set_by_kws_gen():
    """A ``SuiteGenSpec`` field that ``kws gen`` does not pass is a knob no
    command sets: it belongs in a module constant, not the spec."""
    tree = ast.parse((Path(kws.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    (gen,) = [
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_cmd_gen"
    ]
    passed = {
        keyword.arg
        for node in ast.walk(gen)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "SuiteGenSpec"
        for keyword in node.keywords
    }
    assert sorted({field.name for field in dataclasses.fields(kws.SuiteGenSpec)} - passed) == []


def test_every_decode_config_field_is_set_by_the_cli():
    """A ``DecodeConfig`` field that no ``DecodeConfig(...)`` call of the CLI
    passes is a knob no command sets: it belongs in a module constant, not
    the config."""
    tree = ast.parse((Path(kws.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    passed = {
        keyword.arg
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "DecodeConfig"
        for keyword in node.keywords
    }
    assert sorted({field.name for field in dataclasses.fields(kws.DecodeConfig)} - passed) == []


def test_every_synthetic_config_field_is_stated_by_the_manifest():
    """A ``SyntheticJoinerConfig`` init field is a suite-wide fact of the
    manifest's top level or one of a record's own fields, its alignment
    columns and epsilon: a field that no suite states is a knob no suite
    sets."""
    fields = {field.name for field in dataclasses.fields(kws.SyntheticJoinerConfig) if field.init}
    assert fields == {*suite._SUITE_FACTS, "tokens", "durations", "epsilon"}
