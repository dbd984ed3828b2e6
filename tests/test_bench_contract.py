"""The names the benchmark tracer patches, and every exported name, exist,
and the tracer still tags the spans of real commands.

``bench/tracer.py`` wraps public functions where their callers look them
up and reads its tags from their positional arguments; a deleted or
renamed binding, or a changed call shape, would break the benchmark, not
the package, so it is checked here. The tracer is loaded by path without
writing bytecode next to it.
"""

import ast
import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import pytest
import yaml

import miwave
import miwave.cli

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


def test_tracer_tags_every_layer_of_the_commands(tracer, tmp_path):
    d = yaml.safe_load((ROOT / "configs" / "clutter_notch.yaml").read_text())
    config = tmp_path / "cfg.yaml"
    config.write_text(yaml.safe_dump({**d, "band_width": 10, "energy_list": [2.0]}))
    common = ["--config", str(config), "--out", str(tmp_path / "out")]
    t = tracer.Tracer()
    t.install()
    try:
        # through the module attribute, which the tracer wraps
        for argv in (["design"], ["fit", "--starts", "1"], ["roc", "--trials", "1000"]):
            assert miwave.cli.main([*argv, *common]) == 0, argv
    finally:
        t.uninstall()
    fired = {span[0] for span in t.spans}
    assert {name for _m, _a, name, _t in tracer.BINDINGS} <= fired
    tagged = {name for _m, _a, name, tag in tracer.BINDINGS if tag}
    for name, _start, _end, _parent, info in t.spans:
        if name in tagged:
            assert info, name
    metrics = tracer.layer_metrics(t.spans)
    assert set(metrics) == set(tracer.LAYER_UNITS) - {"trace.overhead_frac"}


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
