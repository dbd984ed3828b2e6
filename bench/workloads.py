"""The benchmark workloads: configs generated from a seed, and the body
that runs them through ``miwave.cli.main``.

Each workload loads one layer heavily and leaves the others nearly idle:

fit_shipped   ``miwave fit`` on both shipped configs (21 bins, K=8) with
              FIT_SHIPPED_STARTS starts, one call per energy. The L-BFGS-B
              multistart is about 99% of wall time, half objective and
              half optimizer overhead.
design_sweep  ``miwave design`` (no fit) at 21/101/401/1001 bins with a
              dense energy list. The O(M^3) target-coefficient solve
              dominates at large M, then the LFM root-find and the ESD
              table writing.
roc_mc        ``miwave roc`` at 1e5 trials on the clutter-notch scene at
              21 and 101 bins. Monte Carlo dominates wall time and peak
              memory.

The seed selects the fit starts and Monte Carlo streams; in design_sweep,
where the design is deterministic, it also draws the scene parameters.

A fit's cost depends on its starts, so the fit workload runs enough of
them that its evaluation count varies little from seed to seed. A
K=32, 101-bin fit workload was left out for that reason: its per-start
evaluation counts range from about 200 to 1000, and even 4 starts (9 s a
pass) left the count's spread over ten seeds at 13% of its median.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

NAMES = ("fit_shipped", "design_sweep", "roc_mc")
# kind of speed probe (bench/speed.py) that rescales each workload's wall_s.
# Over 30 s windows of 6-minute series of one workload's passes, each
# call preceded by a probe, the spread of the window medians (IQR over
# median) fell from 18% to 5% for 2-start fits with the fit probe, from
# 7% to 3% for roc_mc and from 10% to 4% for design_sweep with the array
# probe. The fit probe did not track roc_mc (7% rose to 11%).
PROBE = {"fit_shipped": "fit", "design_sweep": "array", "roc_mc": "array"}

FIT_SHIPPED_STARTS = 6
DESIGN_SIZES = (21, 101, 401, 1001)
DESIGN_ENERGIES = 16
ROC_TRIALS = 100_000


@dataclass(frozen=True)
class Job:
    """One CLI call of a workload body."""

    kind: str  # "fit", "design" or "roc"
    config: Path
    out: Path
    argv: tuple
    energies: tuple  # energies whose outputs the call writes
    trials: int = 0


def _load_yaml(path: Path) -> dict:
    with open(path) as fh:
        return yaml.safe_load(fh)


def _write_yaml(data: dict, path: Path) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        yaml.safe_dump(data, fh, sort_keys=True)
    return path


def _fit_jobs(config: Path, cfg_dir: Path, out_dir: Path, seed: int, starts: int) -> list:
    """One ``miwave fit`` call per energy of a shipped config.

    Each call runs on a copy of the config that keeps a single energy.
    Every energy's fit uses the config's seed, so the calls run the same
    fits as one call on the whole config; split, they let the speed probe
    run between calls about a second apart.
    """
    data = _load_yaml(config)
    jobs = []
    for energy in data["energy_list"]:
        name = f"{config.stem}_E{float(energy):g}"
        path = _write_yaml(dict(data, energy_list=[float(energy)]), cfg_dir / f"{name}.yaml")
        out = out_dir / name
        argv = ("fit", "--config", str(path), "--seed", str(seed),
                "--out", str(out), "--starts", str(starts))
        jobs.append(Job("fit", path, out, argv, (float(energy),)))
    return jobs


def warmup_jobs(jobs) -> list:
    """The jobs of the untimed warm-up pass: fit calls run a single start,
    which already takes every code path (lazy imports, BLAS set-up) once."""
    return [
        dataclasses.replace(job, argv=job.argv[:-1] + ("1",)) if job.kind == "fit" else job
        for job in jobs
    ]


def make_jobs(workload: str, seed: int, root: Path, work: Path) -> list:
    """Write the workload's configs under ``work`` and return its jobs."""
    shipped = root / "configs"
    cfg_dir, out_dir = work / "configs", work / "out"
    if workload == "fit_shipped":
        return [
            job
            for name in ("clutter_notch", "clutter_peak")
            for job in _fit_jobs(shipped / f"{name}.yaml", cfg_dir, out_dir, seed,
                                 FIT_SHIPPED_STARTS)
        ]
    if workload == "design_sweep":
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), 1]))
        base = _load_yaml(shipped / "clutter_peak.yaml")
        jobs = []
        for bins in DESIGN_SIZES:
            width = float(bins - 1)  # W*T = bins - 1 with T = 1
            cfg = dict(base, band_width=width, duration=1.0)
            cfg["noise_params"] = {"n_min": float(rng.uniform(0.03, 0.1)), "n_max": 1.0}
            cfg["clutter_params"] = {
                "floor": float(rng.uniform(0.05, 0.2)),
                "peak_height": float(rng.uniform(2.0, 4.0)),
                "peak_width": float(rng.uniform(0.1, 0.15)) * width,
                "osc_height": float(rng.uniform(1.0, 2.0)),
                "osc_cycles": float(rng.uniform(3.0, 5.0)),
            }
            # energy scales with W*T so every size spans sparse to full designs
            level = width / 20.0 * float(rng.uniform(0.8, 1.25))
            cfg["energy_list"] = [
                float(level * 2.0**x) for x in np.linspace(-2.0, 3.0, DESIGN_ENERGIES)
            ]
            path = _write_yaml(cfg, cfg_dir / f"peak_b{bins}.yaml")
            out = out_dir / f"peak_b{bins}"
            argv = ("design", "--config", str(path), "--seed", str(seed), "--out", str(out))
            jobs.append(Job("design", path, out, argv, tuple(cfg["energy_list"])))
        return jobs
    if workload == "roc_mc":
        notch = shipped / "clutter_notch.yaml"
        cfg = _load_yaml(notch)
        cfg["band_width"] = 100.0
        cfg["clutter_params"]["notch_width"] *= 5.0
        wide = _write_yaml(cfg, cfg_dir / "notch_b101.yaml")
        jobs = []
        for path, name, energy in ((notch, "notch_b21", 2.0), (wide, "notch_b101", 10.0)):
            out = out_dir / name
            argv = ("roc", "--config", str(path), "--seed", str(seed), "--out", str(out),
                    "--trials", str(ROC_TRIALS), "--energy", repr(energy))
            jobs.append(Job("roc", path, out, argv, (energy,), ROC_TRIALS))
        return jobs
    raise ValueError(f"unknown workload {workload!r}")


def build_scenes(jobs) -> dict:
    """Scenario per (config, energy), built through the public config API."""
    from miwave.experiment import load_config

    scenes = {}
    for job in jobs:
        cfg = load_config(job.config)
        for energy in job.energies:
            scenes[(job.config, energy)] = cfg.scenario(energy)
    return scenes


def run_body(jobs, probe) -> tuple:
    """Run every job through the CLI entry point.

    ``probe`` is called before each job and after the last one, so every
    job runs between two probes, and returns its own time. Returns the
    exit codes, the seconds spent in the jobs and the probe times.
    ``miwave.cli.main`` is looked up on each call so a traced pass sees
    the tracer's wrapper.
    """
    import miwave.cli

    codes, body_s, probes = [], 0.0, []
    for job in jobs:
        probes.append(probe())
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            try:
                codes.append(miwave.cli.main(list(job.argv)))
            finally:
                body_s += time.perf_counter() - t0
    probes.append(probe())
    return codes, body_s, probes
