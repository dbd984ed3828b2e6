"""``tools/bench_pairs.py`` refuses a pair count its summary cannot use
before it runs the benchmark, summarises each side and the per-pair
ratio of the pairs it runs, marks which metrics pass the claim rule,
and clears each side's bytecode before every
run. ``subprocess.run`` is replaced, so no benchmark runs here; both
sides are temporary checkouts holding a copy of ``BENCHMARK.json``, and
the tool is loaded by path without writing bytecode next to it."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
NAMES = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]


@pytest.fixture
def tool(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "tools" / "bench_pairs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def sides(tmp_path):
    """``{"parent": DIR, "change": DIR}``, two empty checkouts with the
    repository's ``BENCHMARK.json``."""
    dirs = {side: tmp_path / side for side in ("parent", "change")}
    for path in dirs.values():
        path.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", path)
    return dirs


def _argv(pairs, out, sides):
    return ["--parent", str(sides["parent"]), "--change", str(sides["change"]),
            "--workload", "roc_mc", "--pairs", str(pairs), "--seconds", "1",
            "--out", str(out)]


def _result(metrics):
    line = json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": metrics})
    return line + "\n"


@pytest.mark.parametrize("pairs", [1, 0, -3])
def test_too_few_pairs_exits_before_any_run(tool, pairs, sides, tmp_path, monkeypatch,
                                            capsys):
    def no_run(*args, **kwargs):
        raise AssertionError("a benchmark run was started")

    monkeypatch.setattr(subprocess, "run", no_run)
    with pytest.raises(SystemExit) as exc:
        tool.main(_argv(pairs, tmp_path / "bench.json", sides))
    assert exc.value.code == 2
    assert "--pairs must be at least 2" in capsys.readouterr().err
    assert not (tmp_path / "bench.json").exists()


def test_two_pairs_write_the_summary(tool, sides, tmp_path, monkeypatch):
    # a control: the same command line with two pairs runs four times; the
    # parent reads 2.0 on every metric but energy_rel_err, which reads 0.0 on
    # both sides, and the change 1.0 in pair 0 and 3.0 in pair 1
    calls = []

    def fake_run(cmd, cwd, **kwargs):
        calls.append(cmd)
        seed = int(cmd[cmd.index("--seed") + 1])
        value = (1.0, 3.0)[seed] if cwd == sides["change"] else 2.0
        metrics = {name: {"value": value} for name in NAMES}
        metrics["energy_rel_err"]["value"] = 0.0
        return subprocess.CompletedProcess(cmd, 0, stdout=_result(metrics), stderr="")

    monkeypatch.setattr(subprocess, "run", fake_run)
    assert tool.main(_argv(2, tmp_path / "bench.json", sides)) == 0
    entry = json.loads((tmp_path / "bench.json").read_text())["roc_mc"]
    assert len(calls) == 4 and entry["all_correct"]
    wall = entry["summary"]["wall_s"]
    assert wall["parent"] == {"median": 2.0, "q1": 2.0, "q3": 2.0, "n": 2}
    # per-pair ratios 0.5 and 1.5
    assert wall["ratio"] == {"median": 1.0, "q1": 0.75, "q3": 1.25, "n": 2}
    assert entry["wins"]["wall_s"] == "1/2"
    # no ratio to a parent value of 0
    assert "ratio" not in entry["summary"]["energy_rel_err"]


def test_every_run_starts_without_bytecode(tool, sides, tmp_path, monkeypatch):
    # both sides hold a cache before the first run, and each run leaves one
    # behind, as a test run in the checkout would; no run may start with one
    def plant(checkout):
        cache = checkout / "src" / "miwave" / "__pycache__"
        cache.mkdir(parents=True, exist_ok=True)
        (cache / "x.pyc").write_bytes(b"stale")

    for path in sides.values():
        plant(path)
    started = []

    def fake_run(cmd, cwd, **kwargs):
        assert not list(Path(cwd).rglob("__pycache__")), f"{cwd} holds bytecode"
        started.append(Path(cwd))
        plant(Path(cwd))
        metrics = {name: {"value": 1.0} for name in NAMES}
        return subprocess.CompletedProcess(cmd, 0, stdout=_result(metrics), stderr="")

    monkeypatch.setattr(subprocess, "run", fake_run)
    assert tool.main(_argv(2, tmp_path / "bench.json", sides)) == 0
    assert started == [sides["parent"], sides["change"], sides["change"], sides["parent"]]


# the parent reads 2.0 + 0.1*seed in pairs 0-9: median 2.45, quartiles
# 2.225 and 2.675, so an interquartile range of 0.45
@pytest.mark.parametrize("offsets, lower_claims, higher_claims", [
    # 9/10 pairs lower by 1.0, one higher by 1.0: medians 1.0 apart
    ([-1.0] * 9 + [1.0], True, False),
    # 8/10 pairs lower by 1.0: too few wins
    ([-1.0] * 8 + [1.0] * 2, False, False),
    # every pair lower by 0.3: a gap inside the parent's spread
    ([-0.3] * 10, False, False),
    # every pair higher by 1.0: a gain where higher is better
    ([1.0] * 10, False, True),
], ids=["nine-wins", "eight-wins", "gap-within-iqr", "all-higher"])
def test_claim_needs_nine_tenths_of_wins_and_a_gap_past_the_iqr(
        tool, sides, tmp_path, monkeypatch, offsets, lower_claims, higher_claims):
    def fake_run(cmd, cwd, **kwargs):
        seed = int(cmd[cmd.index("--seed") + 1])
        value = 2.0 + 0.1 * seed + (offsets[seed] if cwd == sides["change"] else 0.0)
        metrics = {name: {"value": value} for name in NAMES}
        return subprocess.CompletedProcess(cmd, 0, stdout=_result(metrics), stderr="")

    monkeypatch.setattr(subprocess, "run", fake_run)
    assert tool.main(_argv(10, tmp_path / "bench.json", sides)) == 0
    summary = json.loads((tmp_path / "bench.json").read_text())["roc_mc"]["summary"]
    parent = summary["wall_s"]["parent"]
    assert parent["median"] == pytest.approx(2.45)
    assert parent["q3"] - parent["q1"] == pytest.approx(0.45)
    better = {m["name"]: m["better"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    for name in NAMES:
        want = lower_claims if better[name] == "lower" else higher_claims
        assert summary[name]["claim"] is want, name
