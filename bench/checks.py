"""Correctness checks on the files a workload body wrote.

Two kinds of finding come out of a check:

* a failed operation (counted in ``failed``, giving fail_frac): a CLI
  call exiting non-zero; a fit start with a non-finite d^2 or with k.beta
  outside [(1-delta)kappa, (1+delta)kappa] by more than 1e-8 + 1e-6*kappa;
  a design missing its energy by more than 1e-6 relative; an ROC point
  with |P_D_hat - P_D|/se > ROC_Z, se the standard error of P_D_hat
  given by ``roc_stderr``;
* a problem (the run is not correct): outputs that are missing,
  non-finite where they must be finite, or that disagree with an
  independent recomputation.

Every tolerance is fixed here, so a later change to the program cannot
redefine what counts as a failure.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

FEAS_ABS, FEAS_REL = 1e-8, 1e-6  # slab tolerance 1e-8 + 1e-6*kappa
ENERGY_TOL = 1e-6
CSV_REL = 1e-11  # the CSV files carry 12 significant digits
D2_REL = 1e-12
IDENTITY_REL = 1e-9
# |z| limit for an ROC point. With the standard error of roc_stderr, z
# of a correct Monte Carlo is standard normal: over seeds 0-449 of the
# roc_mc scenes (1800 points) its mean was within 0.07 of 0 and its
# spread 0.97-1.01 at every point, and 11 points (0.6%) passed |z| = 3.
# A 3-sigma rule thus fails correct runs now and then, on a few seeds in
# a hundred; at 5 sigma a normal z fails one point in 1.7 million, while
# a bias of 0.011 in P_D (1.5%) still fails the 21-bin scene at p_fa 0.01.
ROC_Z = 5.0
SUPPORT_TOL = 0.01  # share of coefficient energy outside kappa
ENERGY_ERR_FLOOR = 1e-12  # below this the CSV digits cannot resolve the error


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    d2_best: list = field(default_factory=list)  # per (scene, energy)
    d2_median: list = field(default_factory=list)
    energy_err: float = 0.0

    def op(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1


def _read_csv(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _close(a, b, rel, abs_tol=0.0) -> bool:
    return bool(np.all(np.abs(np.asarray(a) - np.asarray(b))
                       <= rel * np.abs(np.asarray(b)) + abs_tol))


def _kappa(esd: np.ndarray) -> int:
    """Smallest half-width holding (1 - SUPPORT_TOL) of the design energy.

    On the bin grid c_m^2 * T = E_s(f_m), so the coefficient power is the
    ESD up to a constant.
    """
    h = (esd.size - 1) // 2
    total = esd.sum()
    for k in range(h + 1):
        if esd[h - k : h + k + 1].sum() >= (1.0 - SUPPORT_TOL) * total:
            return k
    return h


def check_design(job, scenes, summary, v: Verdict, *, emitted: bool) -> dict:
    """Check esd_table.csv against the water-filling formula at each
    record's lambda; returns the design ESD per energy."""
    from miwave.detection import detection_metric
    from miwave.fitting import solve_ofdm_coeffs
    from miwave.spectral import SpectralDensity, integrate

    rows = _read_csv(job.out / "esd_table.csv")
    records = {r["energy"]: r for r in summary["records"]}
    esds = {}
    for energy in job.energies:
        sc = scenes[(job.config, energy)]
        grid = sc.grid
        p_n, p_h = sc.noise_psd.values, sc.channel_psd.values
        if len(rows) != grid.num_bins:
            v.problems.append(f"{job.out.name}: esd_table has {len(rows)} rows")
            return esds
        col = np.array([float(r[f"E_s_E{_fmt(energy)}"]) for r in rows])
        if not (_close([float(r["P_n"]) for r in rows], p_n, CSV_REL)
                and _close([float(r["P_h"]) for r in rows], p_h, CSV_REL)):
            v.problems.append(f"{job.out.name}: scene PSDs differ from the config")
        rec = records.get(energy)
        if rec is None or not np.all(np.isfinite(col)):
            v.problems.append(f"{job.out.name} E={energy:g}: missing or non-finite design")
            continue
        lam = rec["lambda"]
        numer = np.sqrt(p_n / lam) - p_n
        formula = np.where(numer > 0, numer / np.where(p_h > 0, p_h, 1.0), 0.0)
        if not (_close(col, formula, CSV_REL) and np.array_equal(col > 0, formula > 0)):
            v.problems.append(f"{job.out.name} E={energy:g}: E_s is not the water-filling "
                              f"ESD at lambda={lam!r}")
        esd = SpectralDensity(grid, col)
        err = abs(integrate(esd) - energy) / energy
        v.op(err <= ENERGY_TOL + CSV_REL)
        v.energy_err = max(v.energy_err, err)
        target = solve_ofdm_coeffs(esd, grid, integrate(esd))
        if not _close(target.c**2 * grid.duration, col, 0.0, IDENTITY_REL * col.max()):
            v.problems.append(f"{job.out.name} E={energy:g}: c_m^2*T != E_s(f_m)")
        if rec["kappa"] != _kappa(col):
            v.problems.append(f"{job.out.name} E={energy:g}: kappa {rec['kappa']} "
                              f"!= {_kappa(col)} recomputed from E_s")
        if emitted:
            ratio = detection_metric(esd, sc) / rec["d2_mi"]
            v.d2_best.append(ratio)
            v.d2_median.append(ratio)
        esds[energy] = col
    return esds


def check_fit(job, scenes, summary, v: Verdict, delta: float) -> None:
    """Per-start failures, finite outputs and the best start's d^2."""
    from miwave.design import design_mi
    from miwave.detection import detection_metric
    from miwave.mtsfm import MtsfmWaveform, esd_on_grid
    from miwave.spectral import integrate

    esds = check_design(job, scenes, summary, v, emitted=False)
    for rec in summary["records"]:
        energy = rec["energy"]
        sc = scenes.get((job.config, energy))
        path = job.out / f"fit_E{_fmt(energy)}.csv"
        if sc is None or energy not in esds or not path.is_file():
            v.problems.append(f"{job.out.name} E={energy:g}: missing fit output")
            continue
        kappa = _kappa(esds[energy])
        lo, hi = (1.0 - delta) * kappa, (1.0 + delta) * kappa
        tol = FEAS_ABS + FEAS_REL * kappa
        d2 = []
        for row in _read_csv(path):
            vals = [float(row[k]) for k in ("objective", "constraint_value", "d_squared")]
            if not all(math.isfinite(x) for x in vals[:2]):
                v.problems.append(f"{path.name}: non-finite objective or constraint")
            kb = vals[1]
            v.op(math.isfinite(vals[2]) and lo - tol <= kb <= hi + tol)
            d2.append(vals[2])
        scalars = [rec[k] for k in ("lambda", "d2_mi", "d2_lfm", "best_d2", "best_objective")]
        if not all(math.isfinite(x) for x in scalars + rec["best_beta"]):
            v.problems.append(f"{job.out.name} E={energy:g}: non-finite summary values")
            continue
        # fit() scores starts at the design's achieved energy, not the budget
        achieved = integrate(design_mi(sc).esd)
        wave = MtsfmWaveform(sc.grid.duration, achieved, tuple(rec["best_beta"]))
        d2_best = detection_metric(esd_on_grid(wave, sc.grid), sc)
        if not _close(d2_best, rec["best_d2"], D2_REL):
            v.problems.append(f"{job.out.name} E={energy:g}: best d2 {rec['best_d2']!r} "
                              f"recomputes to {d2_best!r}")
        v.d2_best.append(rec["best_d2"] / rec["d2_mi"])
        v.d2_median.append(float(np.median(d2)) / rec["d2_mi"])


def roc_stderr(p_fa: float, p_d: float, d2: float, trials: int) -> float:
    """Standard error of the Monte Carlo P_D at a nominal false-alarm rate.

    The threshold is the empirical H0 quantile, so P_D_hat carries the
    threshold's sampling noise as well as its own binomial noise. To first
    order, P_D_hat - P_D = (F1 - P_D) - g (F0 - p_fa), where F0 and F1 are
    the exceedance fractions of the H0 and H1 statistics at the true
    threshold and g = dP_D/dp_fa = P_D / ((1 + d2) p_fa) is the ROC slope.
    The H1 data are the H0 data plus the target echo, so both indicators
    increase with |x0 . w| and their covariance is not negative; leaving
    it out bounds the variance from above; it is small in practice, as
    the z scores this gives spread as a standard normal. The binomial
    term alone, which roc.csv's ``stderr`` column reports, understates
    the spread where g is large: by a factor 1.5 on the 21-bin notch
    scene at p_fa = 0.01.
    """
    g = p_d / ((1.0 + d2) * p_fa)
    return math.sqrt((p_d * (1.0 - p_d) + g * g * p_fa * (1.0 - p_fa)) / trials)


def check_roc(job, scenes, v: Verdict) -> None:
    """roc.csv against the analytic ROC of the MI design; points with
    |z| > ROC_Z count as failed operations."""
    from miwave.design import design_mi
    from miwave.detection import detection_metric
    from miwave.spectral import integrate

    energy = job.energies[0]
    sc = scenes[(job.config, energy)]
    esd = design_mi(sc).esd  # run_roc writes no ESD; recompute its design
    err = abs(integrate(esd) - energy) / energy
    v.op(err <= ENERGY_TOL)
    v.energy_err = max(v.energy_err, err)
    d2 = detection_metric(esd, sc)
    for row in _read_csv(job.out / "roc.csv"):
        p_fa, p_d, p_hat, se = (float(row[k]) for k in
                                ("p_fa", "p_d_analytic", "p_d_empirical", "stderr"))
        if not all(math.isfinite(x) and 0.0 <= x <= 1.0 for x in (p_fa, p_d, p_hat, se)):
            v.problems.append(f"{job.out.name}: roc row out of range {row}")
            continue
        expected = p_fa ** (1.0 / (1.0 + d2))
        if not _close(p_d, expected, CSV_REL):
            v.problems.append(f"{job.out.name}: analytic P_D {p_d!r} != {expected!r}")
        z = abs(p_hat - expected) / roc_stderr(p_fa, expected, d2, job.trials)
        v.op(z <= ROC_Z)
        # d^2 implied by the reported analytic ROC, over the MI d^2
        ratio = (math.log(p_fa) / math.log(p_d) - 1.0) / d2
        v.d2_best.append(ratio)
        v.d2_median.append(ratio)


def check_outputs(jobs, scenes, codes) -> Verdict:
    """Check one pass's outputs; ``codes`` are the CLI exit codes."""
    from miwave.experiment import load_config

    v = Verdict()
    for job, code in zip(jobs, codes):
        v.op(code == 0)
        if code != 0:
            v.problems.append(f"{job.argv[0]} {job.out.name} exited {code}")
            continue
        if job.kind == "roc":
            check_roc(job, scenes, v)
            continue
        with open(job.out / "summary.json") as fh:
            summary = json.load(fh)
        if job.kind == "fit":
            check_fit(job, scenes, summary, v, load_config(job.config).delta)
        else:
            check_design(job, scenes, summary, v, emitted=True)
    v.energy_err = max(v.energy_err, ENERGY_ERR_FLOOR)
    return v
