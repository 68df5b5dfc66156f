"""The names and call forms of ``slm`` that the benchmark harness uses.

``slmbench/layers.py`` and ``slmbench/run.py`` are parsed, not run: the
traced benchmark patches functions by module and name, so a rename in
``slm`` would break it without failing any other test.
"""
import ast
import importlib
import inspect
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "slmbench"
FILES = ("layers.py", "run.py")


def tree(name):
    return ast.parse((BENCH / name).read_text(), filename=name)


def slm_imports(module):
    """{local name: object} for each ``from slm... import name``."""
    found = {}
    for node in ast.walk(module):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "slm":
            source = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(source, alias.name), f"{node.module} has no {alias.name}"
                found[alias.asname or alias.name] = getattr(source, alias.name)
    return found


def dotted(node):
    """'a.b.c' for an attribute chain on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


@pytest.mark.parametrize("name", FILES)
def test_every_imported_name_exists(name):
    module = tree(name)
    slm_imports(module)
    for node in ast.walk(module):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "slm":
                    importlib.import_module(alias.name)


@pytest.mark.parametrize("name", FILES)
def test_every_module_attribute_exists(name):
    # e.g. slm.microsim.AUDIT_INTERVAL, which run.py reads after importing slm.microsim
    for node in ast.walk(tree(name)):
        path = dotted(node) if isinstance(node, ast.Attribute) else None
        if path and path.startswith("slm."):
            parts = path.split(".")
            obj = importlib.import_module(".".join(parts[:2]))
            for attr in parts[2:]:
                assert hasattr(obj, attr), f"{path} does not exist"
                obj = getattr(obj, attr)


def test_every_traced_target_exists():
    targets = [
        node.elts[:2]
        for node in ast.walk(tree("run.py"))
        if isinstance(node, ast.Tuple) and len(node.elts) >= 2
        and all(isinstance(e, ast.Constant) and isinstance(e.value, str) for e in node.elts[:2])
        and node.elts[0].value.startswith("slm.")
    ]
    assert len(targets) >= 8
    for module, name in targets:
        assert callable(getattr(importlib.import_module(module.value), name.value, None)), (
            f"traced target {module.value}.{name.value} does not exist"
        )


def test_calls_bind_to_the_signatures():
    # each call of an imported name, or of an attribute of one (Field.constant),
    # binds its positional count and keywords, unless it unpacks *args or **kwargs
    module = tree("layers.py")
    names = slm_imports(module)
    checked = 0
    for node in ast.walk(module):
        if not isinstance(node, ast.Call):
            continue
        path = dotted(node.func)
        if path is None or path.split(".")[0] not in names:
            continue
        if any(isinstance(a, ast.Starred) for a in node.args) or any(
            k.arg is None for k in node.keywords
        ):
            continue
        func = names[path.split(".")[0]]
        for attr in path.split(".")[1:]:
            func = getattr(func, attr)
        try:
            inspect.signature(func).bind(*node.args, **{k.arg: None for k in node.keywords})
        except TypeError as exc:
            pytest.fail(f"layers.py:{node.lineno}: {path}(...) does not bind: {exc}")
        checked += 1
    assert checked >= 15
