"""``tools/diff_outputs.py`` finds a one-ulp change and names its file and
column or key, and runs the change side on one CPU. The comparison is
tested on small trees written here, and the CPUs of each side with a
probe in place of the CLI; the tool's CLI runs are left to its own use.
It is loaded by path without writing bytecode next to it."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def tool(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "diff_outputs", ROOT / "tools" / "diff_outputs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tree(root: Path, d2: float, beta: float) -> Path:
    (root / "fit").mkdir(parents=True)
    (root / "fit" / "fit_E2.csv").write_text(
        f"start_index,d_squared,status\n0,{d2!r},ok\n1,0.5,ok\n"
    )
    summary = {"records": [{"best_beta": [0.25, beta], "energy": 2.0}]}
    (root / "fit" / "summary.json").write_text(json.dumps(summary))
    (root / "log.stdout").write_text("wrote fit\n")
    return root


def test_identical_trees(tool, tmp_path):
    files = tool.compare_trees(_tree(tmp_path / "a", 0.1, 1.5), _tree(tmp_path / "b", 0.1, 1.5))
    assert len(files) == 3
    assert all(f == {"status": "identical"} for f in files.values())


def test_one_ulp_is_named_by_file_and_column(tool, tmp_path):
    ulp = float(np.nextafter(0.1, 1.0))
    files = tool.compare_trees(_tree(tmp_path / "a", 0.1, 1.5), _tree(tmp_path / "b", ulp, 1.5))
    entry = files["fit/fit_E2.csv"]
    assert entry["status"] == "differs"
    assert list(entry["keys"]) == ["d_squared"]
    cell = entry["keys"]["d_squared"]
    assert cell["changed"] == 1
    assert cell["max_abs"] == ulp - 0.1 and 0 < cell["max_rel"] < 2e-16
    assert files["fit/summary.json"] == {"status": "identical"}


def test_json_keys_fold_list_indices(tool, tmp_path):
    files = tool.compare_trees(_tree(tmp_path / "a", 0.1, 1.5), _tree(tmp_path / "b", 0.1, 1.75))
    keys = files["fit/summary.json"]["keys"]
    assert keys == {"records[].best_beta[]": {"changed": 1, "max_abs": 0.25,
                                              "max_rel": 0.25 / 1.75}}


def test_missing_file_and_text_cells(tool, tmp_path):
    a, b = _tree(tmp_path / "a", 0.1, 1.5), _tree(tmp_path / "b", 0.1, 1.5)
    (b / "extra.txt").write_text("x")
    (b / "log.stdout").write_text("wrote elsewhere\n")
    csv_b = (b / "fit" / "fit_E2.csv").read_text().replace("1,0.5,ok", "1,0.5,failed")
    (b / "fit" / "fit_E2.csv").write_text(csv_b)
    files = tool.compare_trees(a, b)
    assert files["extra.txt"] == {"status": "only in change"}
    assert files["log.stdout"] == {"status": "differs"}
    assert files["fit/fit_E2.csv"]["keys"] == {
        "status": {"changed": 1, "max_abs": None, "max_rel": None}
    }


def test_change_side_runs_on_one_cpu(tool, tmp_path, monkeypatch):
    # each side runs one command, swapped for a probe that prints the size
    # of its affinity mask, so its stdout log depends on the CPU count
    run, seen = subprocess.run, {}

    def probe(argv, *, cwd, **kwargs):
        code = "import os; print(len(os.sched_getaffinity(0)))"
        proc = run([sys.executable, "-c", code], cwd=cwd, **kwargs)
        seen[Path(cwd).name] = int(proc.stdout)
        return proc

    monkeypatch.setattr(tool, "matrix", lambda checkout, root: [("design",)])
    monkeypatch.setattr(tool.subprocess, "run", probe)
    out = tmp_path / "diff.json"
    status = tool.main(["--parent", str(ROOT), "--change", str(ROOT), "--out", str(out)])
    cpus = len(os.sched_getaffinity(0))
    assert seen == {"parent": cpus, "change": 1}
    files = json.loads(out.read_text())["files"]
    assert (status, files["out/log/00-design.stdout"]["status"]) == (
        (0, "identical") if cpus == 1 else (1, "differs"))
