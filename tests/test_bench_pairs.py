"""``tools/bench_pairs.py`` refuses a pair count its summary cannot use
before it runs the benchmark. ``subprocess.run`` is replaced, so no
benchmark runs here; the tool is loaded by path without writing bytecode
next to it."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def tool(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "tools" / "bench_pairs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _argv(pairs, out):
    return ["--parent", str(ROOT), "--change", str(ROOT), "--workload", "roc_mc",
            "--pairs", str(pairs), "--seconds", "1", "--out", str(out)]


@pytest.mark.parametrize("pairs", [1, 0, -3])
def test_too_few_pairs_exits_before_any_run(tool, pairs, tmp_path, monkeypatch, capsys):
    def no_run(*args, **kwargs):
        raise AssertionError("a benchmark run was started")

    monkeypatch.setattr(subprocess, "run", no_run)
    with pytest.raises(SystemExit) as exc:
        tool.main(_argv(pairs, tmp_path / "bench.json"))
    assert exc.value.code == 2
    assert "--pairs must be at least 2" in capsys.readouterr().err
    assert not (tmp_path / "bench.json").exists()


def test_two_pairs_write_the_summary(tool, tmp_path, monkeypatch):
    # a control: the same command line with two pairs runs four times
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    line = json.dumps({"correct": True, "attempted": 3, "failed": 0,
                       "metrics": {name: {"value": 1.0} for name in names}})
    calls = []

    def fake_run(cmd, **kwargs):
        calls.append(cmd)
        return subprocess.CompletedProcess(cmd, 0, stdout=line + "\n", stderr="")

    monkeypatch.setattr(subprocess, "run", fake_run)
    assert tool.main(_argv(2, tmp_path / "bench.json")) == 0
    entry = json.loads((tmp_path / "bench.json").read_text())["roc_mc"]
    assert len(calls) == 4 and entry["all_correct"]
    assert entry["summary"]["wall_s"]["parent"]["n"] == 2
