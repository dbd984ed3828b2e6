"""The names the benchmark tracer patches, and every exported name, exist.

``bench/tracer.py`` wraps public functions where their callers look them
up; a deleted or renamed binding would break the benchmark, not the
package, so it is checked here. The tracer is loaded by path without
writing bytecode next to it.
"""

import ast
import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import pytest

import miwave

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", ROOT / "bench" / "tracer.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_binding_resolves(tracer):
    assert tracer.BINDINGS
    for module_name, attr, _span, _tag in tracer.BINDINGS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


@pytest.mark.parametrize(
    "module_name", sorted(m.name for m in pkgutil.iter_modules(miwave.__path__))
)
def test_module_all_names_exist(module_name):
    module = importlib.import_module(f"miwave.{module_name}")
    for name in getattr(module, "__all__", ()):
        assert hasattr(module, name), f"miwave.{module_name}.{name}"


def test_package_reexports_are_the_module_objects():
    tree = ast.parse((ROOT / "src" / "miwave" / "__init__.py").read_text())
    imports = [n for n in tree.body if isinstance(n, ast.ImportFrom) and n.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"miwave.{node.module}")
        for alias in node.names:
            assert getattr(miwave, alias.name) is getattr(module, alias.name)
