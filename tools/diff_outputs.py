"""Run the CLI output matrix in two checkouts and compare every file, as JSON.

Usage, from anywhere:

    python3 tools/diff_outputs.py --parent DIR --change DIR --out DIFF.json

DIR is a checkout holding ``src/``, ``configs/`` and ``bench/workloads.py``.
Each side runs ``python -m miwave.cli`` with that checkout's ``src`` in its
own temporary root, with the same relative ``--config`` and ``--out``
strings on both sides (the config hash in ``summary.json`` covers
``out_dir``). The parent side's commands may use every CPU this process
may use; the change side's run on one of them, so an output that depends
on the CPU count differs, and with ``--parent . --change .`` the tool
checks that none does. The matrix is:

- ``design``, ``fit --starts 6`` and ``roc --trials 20000`` on both shipped
  configs;
- ``fit`` of the shipped peak config at its own ``n_starts``, 100, which
  puts 300 searches in each batched call of the fit engine, the batch size
  users run, where ``--starts 6`` puts 18;
- ``design`` on the shipped notch config at ``duration`` 0.7, whose time
  nodes are not dyadic;
- the seed-0 ``design_sweep`` and ``roc_mc`` jobs of the checkout's
  ``bench/workloads.make_jobs``: ``design`` on four generated configs,
  and ``roc --trials 100000 --energy`` on the notch config at 21 and
  101 bins, made from the shipped notch config copied into the root;
- ``report`` on the notch fit's ``fit_E2.csv``.

Every command's stdout and stderr, with the checkout's path cut from the
source paths that warnings name, are kept as files beside its outputs.
Every file is compared byte for byte. For each CSV column or JSON key
(list indices folded to ``[]``) that differs, the JSON gives the count of
changed cells and the largest absolute and relative difference of the
numeric ones. The JSON is written either way; the exit status is 1 when
any file or exit code differs, or any command failed, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import importlib.util
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import yaml

SHIPPED = ("clutter_notch", "clutter_peak")
FIT_STARTS = "6"
ROC_TRIALS = "20000"
REPORTED = "out/clutter_notch/fit/fit_E2.csv"
# a duration whose sample times (i - n/2)*(T/n) are not dyadic, so that a
# change moving them, or their mirror, by an ulp shows in the chirp's outputs
NON_DYADIC = "clutter_notch_T0.7"


BENCH_JOBS = ("design_sweep", "roc_mc")


def _bench_jobs(checkout: Path, root: Path) -> list:
    """argv of the seed-0 ``BENCH_JOBS`` of the checkout's bench, made
    from the shipped configs copied into ``root/configs``, where their
    own configs are written, with paths made relative to ``root``."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", checkout / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # registered while it runs, since its dataclasses look their module up
    # by name; no bytecode is written into the checkout
    saved = sys.dont_write_bytecode
    sys.modules[spec.name], sys.dont_write_bytecode = workloads, True
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
        sys.dont_write_bytecode = saved
    prefix = f"{root}{os.sep}"
    return [
        tuple(a[len(prefix):] if a.startswith(prefix) else a for a in job.argv)
        for name in BENCH_JOBS for job in workloads.make_jobs(name, 0, root, root)
    ]


def matrix(checkout: Path, root: Path) -> list:
    """The CLI calls of one side, run from ``root``."""
    calls = []
    for name in SHIPPED:
        shutil.copy(checkout / "configs" / f"{name}.yaml", root / "configs")
        cfg, out = f"configs/{name}.yaml", f"out/{name}"
        calls += [
            ("design", "--config", cfg, "--out", f"{out}/design"),
            ("fit", "--config", cfg, "--starts", FIT_STARTS, "--out", f"{out}/fit"),
            ("roc", "--config", cfg, "--trials", ROC_TRIALS, "--out", f"{out}/roc"),
        ]
    calls.append(("fit", "--config", f"configs/{SHIPPED[1]}.yaml",
                  "--out", f"out/{SHIPPED[1]}/fit_config_starts"))
    notch = yaml.safe_load((root / "configs" / f"{SHIPPED[0]}.yaml").read_text())
    (root / "configs" / f"{NON_DYADIC}.yaml").write_text(yaml.safe_dump(dict(notch, duration=0.7)))
    calls.append(("design", "--config", f"configs/{NON_DYADIC}.yaml",
                  "--out", f"out/{NON_DYADIC}/design"))
    return calls + _bench_jobs(checkout, root) + [("report", REPORTED)]


def run_side(checkout: Path, root: Path, cpus=None) -> list:
    """Run the matrix in ``root``, each call on the set of CPU numbers
    ``cpus``, or on this process's CPUs when None; returns each call's
    argv and exit code."""
    (root / "configs").mkdir(parents=True)
    logs = root / "out" / "log"
    logs.mkdir(parents=True)
    src = str(checkout.resolve() / "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    pin = None if cpus is None else (lambda: os.sched_setaffinity(0, cpus))
    runs = []
    for i, argv in enumerate(matrix(checkout, root)):
        proc = subprocess.run([sys.executable, "-m", "miwave.cli", *argv], cwd=root,
                              env=env, capture_output=True, text=True, preexec_fn=pin)
        # report prints JSON, so its keys are tallied like summary.json's
        out_suffix = ".json" if argv[0] == "report" else ".stdout"
        (logs / f"{i:02d}-{argv[0]}{out_suffix}").write_text(proc.stdout)
        # warnings name the source file: its checkout is left out
        (logs / f"{i:02d}-{argv[0]}.stderr").write_text(proc.stderr.replace(src, "src"))
        runs.append({"argv": list(argv), "returncode": proc.returncode})
    return runs


def _difference(a: str, b: str):
    """(absolute, relative) difference of two numeric cells, else None."""
    try:
        x, y = float(a), float(b)
    except ValueError:
        return None
    d = abs(x - y)
    if not math.isfinite(d):
        return None
    scale = max(abs(x), abs(y))
    return d, d / scale if scale else 0.0


def _tally(pairs) -> dict:
    """Per key, the changed cells of (key, parent cell, change cell) pairs."""
    out: dict = {}
    for key, a, b in pairs:
        if a == b:
            continue
        entry = out.setdefault(key, {"changed": 0, "max_abs": None, "max_rel": None})
        entry["changed"] += 1
        diff = _difference(a, b)
        if diff is not None:
            entry["max_abs"] = max(entry["max_abs"] or 0.0, diff[0])
            entry["max_rel"] = max(entry["max_rel"] or 0.0, diff[1])
    return out


def _csv_cells(text: str) -> dict:
    rows = list(csv.reader(text.splitlines()))
    header, body = rows[0] if rows else [], rows[1:]
    return {(col, r): row[j] for r, row in enumerate(body)
            for j, col in enumerate(header) if j < len(row)}


def _json_cells(text: str) -> dict:
    cells = {}

    def walk(node, path, index):
        if isinstance(node, dict):
            for k, v in node.items():
                walk(v, f"{path}.{k}" if path else k, index)
        elif isinstance(node, list):
            for i, v in enumerate(node):
                walk(v, f"{path}[]", (*index, i))
        else:
            cells[(path, index)] = json.dumps(node)

    walk(json.loads(text), "", ())
    return cells


def compare_file(a: bytes, b: bytes, suffix: str) -> dict:
    """Byte comparison of two versions of a file, with a per-column (CSV)
    or per-key (JSON) tally of the cells that differ."""
    if a == b:
        return {"status": "identical"}
    entry: dict = {"status": "differs"}
    reader = {".csv": _csv_cells, ".json": _json_cells}.get(suffix)
    if reader is not None:
        try:
            cells_a, cells_b = reader(a.decode()), reader(b.decode())
        except ValueError:
            return entry
        keys = sorted(cells_a.keys() | cells_b.keys(), key=str)
        entry["keys"] = _tally(
            (k[0], cells_a.get(k, "<missing>"), cells_b.get(k, "<missing>")) for k in keys
        )
    return entry


def compare_trees(parent: Path, change: Path) -> dict:
    """Every file under either root by relative path, compared."""
    names = sorted(
        str(p.relative_to(root)) for root in (parent, change)
        for p in root.rglob("*") if p.is_file()
    )
    files = {}
    for name in dict.fromkeys(names):
        a, b = parent / name, change / name
        if not (a.is_file() and b.is_file()):
            files[name] = {"status": "only in parent" if a.is_file() else "only in change"}
        else:
            files[name] = compare_file(a.read_bytes(), b.read_bytes(), a.suffix)
    return files


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        roots = {side: Path(tmp) / side for side in ("parent", "change")}
        cpus = {"parent": None, "change": {min(os.sched_getaffinity(0))}}
        runs = {side: run_side(getattr(args, side), roots[side], cpus[side]) for side in roots}
        files = compare_trees(roots["parent"], roots["change"])

    commands = [
        {"argv": p["argv"], "parent": p["returncode"], "change": c["returncode"]}
        for p, c in zip(runs["parent"], runs["change"])
    ]
    failed = len(runs["parent"]) != len(runs["change"]) or any(
        c["parent"] != 0 or c["change"] != 0 for c in commands
    )
    identical = not failed and all(f["status"] == "identical" for f in files.values())
    result = {"parent": str(args.parent), "change": str(args.change),
              "identical": identical, "commands": commands, "files": files}
    args.out.write_text(json.dumps(result, indent=2) + "\n")

    for c in commands:
        if c["parent"] or c["change"]:
            print(f"exit {c['parent']}/{c['change']}: {' '.join(c['argv'])}")
    for name, f in files.items():
        if f["status"] == "identical":
            continue
        print(f"{name}: {f['status']}")
        for key, t in f.get("keys", {}).items():
            size = ", ".join(f"max {k[4:]} {t[k]:.2e}" for k in ("max_abs", "max_rel")
                             if t[k] is not None)
            print(f"  {key}: {t['changed']} cells{', ' if size else ''}{size}")
    same = sum(f["status"] == "identical" for f in files.values())
    print(f"{same} of {len(files)} files identical")
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
