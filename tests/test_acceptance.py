"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (run with -s or -rP to see them
all) and asserts the criterion at its stated tolerance.
"""

import csv
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.special import jv

from miwave import (
    MtsfmWaveform,
    OfdmTarget,
    Scenario,
    SpectralDensity,
    coefficients,
    design_mi,
    detection_metric,
    fit,
    integrate,
    lfm_time_series,
    LfmWaveform,
    make_grid,
    monte_carlo_roc,
    spectrum,
    time_series,
)
from miwave.cli import EXIT_OK, main
from miwave.experiment import load_config, run_experiment
from miwave.mtsfm import phase
from miwave.spectral import recentre

from conftest import d2_rows, dump_config, random_feasible_esd, roc_deviations

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    print(f"\nacceptance {name}: {'PASS' if ok else 'FAIL'}{tail}")


def _project_simplex(v: np.ndarray, total: float) -> np.ndarray:
    """Euclidean projection onto {x >= 0, sum x = total}."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    idx = np.arange(1, v.size + 1)
    rho = np.nonzero(u * idx > (css - total))[0][-1]
    theta = (css[rho] - total) / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def _projected_gradient_d2(scenario: Scenario, iters: int = 5000) -> float:
    """Maximize d^2 over equal-energy nonnegative ESDs by accelerated
    projected ascent (concave objective, so this is a global oracle)."""
    p_n = scenario.noise_psd.values
    p_h = scenario.channel_psd.values
    df = scenario.grid.spacing
    total = scenario.energy / df
    v = np.full(p_n.size, total / p_n.size)
    # curvature is bounded by 2*sigma_A^2*df*P_h/P_n^2
    lip = 2.0 * scenario.target_variance * df * np.max(p_h / p_n**2)
    step = 1.0 / max(lip, 1e-12)
    y, tk = v.copy(), 1.0
    for _ in range(iters):
        grad = scenario.target_variance * df * p_n / (p_h * y + p_n) ** 2
        v_new = _project_simplex(y + step * grad, total)
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * tk * tk))
        y = _project_simplex(v_new + ((tk - 1.0) / t_new) * (v_new - v), total)
        v, tk = v_new, t_new
    return float(d2_rows(v[None, :], scenario)[0])


def test_criterion_1_water_filling_optimality(scenario_suite):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    worst_gap = 0.0
    ok = True
    for base in scenario_suite:
        for e in (0.5, 1.0, 2.0, 8.0):
            sc = base.with_energy(e)
            design = design_mi(sc)
            if abs(integrate(design.esd) - e) > 1e-6 * e:
                ok = False
            d2_star = detection_metric(design.esd, sc)
            q = random_feasible_esd(rng, sc, 1000)
            if np.any(d2_rows(q, sc) > d2_star + 1e-9):
                ok = False
        sc1 = base.with_energy(1.0)
        d2_wf = detection_metric(design_mi(sc1).esd, sc1)
        d2_pg = _projected_gradient_d2(sc1)
        gap = abs(d2_wf - d2_pg) / d2_wf
        worst_gap = max(worst_gap, gap)
        if d2_wf < d2_pg - 1e-4 * d2_wf or gap > 1e-4:
            ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _verdict("1 water-filling optimality", ok,
             f"oracle gap {worst_gap:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_2_flat_case_lambda(flat_unit_scenario):
    lam = design_mi(flat_unit_scenario).lagrange_lambda
    ok = abs(lam - 0.25) <= 1e-8
    _verdict("2 flat-case water level", ok, f"lambda={lam:.10f}")
    assert ok


def test_criterion_3_coefficient_fidelity():
    ok = True
    for beta in (0.5, 2.0, 5.0):
        cs = recentre(coefficients(MtsfmWaveform(1.0, 1.0, (beta,))), 20)
        for m in range(-20, 21):
            if abs(abs(cs[m + 20]) - abs(jv(m, beta))) > 1e-10:
                ok = False
    rng = np.random.default_rng(2)
    worst_tail = 0.0
    for _ in range(1000):
        k = int(rng.integers(1, 13))
        w = MtsfmWaveform(1.0, 1.0, tuple(rng.uniform(-4, 4, k)))
        total = float(np.sum(np.abs(coefficients(w)) ** 2))
        worst_tail = max(worst_tail, 1.0 - total)
        if not 1.0 - 1e-8 <= total <= 1.0 + 1e-12:
            ok = False
    _verdict("3 generalized-Bessel fidelity", ok, f"worst tail {worst_tail:.1e}")
    assert ok


def test_criterion_4_constant_modulus():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 9))
        e = float(rng.uniform(0.5, 8.0))
        t_dur = float(rng.uniform(0.5, 3.0))
        w = MtsfmWaveform(t_dur, e, tuple(rng.uniform(-3, 3, k)))
        rate = 4.0 * (w.index_weight + w.num_harmonics) / t_dur + 16.0
        _, x = time_series(w, rate)
        ref = np.sqrt(e / t_dur)
        worst = max(worst, np.max(np.abs(np.abs(x) - ref)) / ref)
    for b in (0.0, 7.0, 40.0):
        w = LfmWaveform(1.0, 2.0, b)
        _, x = lfm_time_series(w, 256.0)
        ref = np.sqrt(2.0)
        worst = max(worst, np.max(np.abs(np.abs(x) - ref)) / ref)
    ok = worst <= 1e-12
    _verdict("4 constant modulus", ok, f"worst relative deviation {worst:.1e}")
    assert ok


def test_criterion_5_spectrum_consistency():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(5):
        k = int(rng.integers(1, 6))
        beta = tuple(rng.uniform(-2, 2, k))
        e = float(rng.uniform(0.5, 4.0))
        w = MtsfmWaveform(1.0, e, beta)
        cs = coefficients(w)
        n = 1 << 10
        pad = 16 * n
        t = -0.5 + np.arange(n) / n
        x = np.sqrt(e) * np.exp(1j * phase(w, t))
        big = np.fft.fftshift(np.fft.fft(x, pad))
        f = np.fft.fftshift(np.fft.fftfreq(pad, 1.0 / n))
        ref = (1.0 / n) * np.exp(1j * np.pi * f) * big
        keep = np.abs(f) <= 2 * (cs.size // 2)
        model = spectrum(w, f[keep])
        err = np.linalg.norm(model - ref[keep]) / np.linalg.norm(ref[keep])
        worst = max(worst, err)
    ok = worst <= 0.01
    _verdict("5 spectrum vs dense DFT", ok, f"worst L2 error {worst:.2e}")
    assert ok


def test_criterion_6_roc_validation():
    t0 = time.perf_counter()
    grid = make_grid(10.0, 1.0)
    covered = grid.num_bins * grid.spacing
    trials = 100000
    cases = []
    for d2_target, h0 in ((0.5, 0.0), (2.0, 0.2), (10.0, 0.0)):
        # flat ESD level hitting the requested metric exactly:
        # d2 = covered * v / (h0*v + 1)  =>  v = d2 / (covered - d2*h0)
        v = d2_target / (covered - d2_target * h0)
        noise = SpectralDensity(grid, np.ones(grid.num_bins))
        clutter = SpectralDensity(grid, np.full(grid.num_bins, h0))
        sc = Scenario(noise, clutter, 1.0, v * covered)
        esd = SpectralDensity(grid, np.full(grid.num_bins, v))
        d2 = detection_metric(esd, sc)
        assert d2 == pytest.approx(d2_target, rel=1e-9)
        mc = monte_carlo_roc(esd, sc, trials, 0, (0.01, 0.1))
        for p_fa, devs in zip((0.01, 0.1), roc_deviations(esd, sc, mc, (0.01, 0.1))):
            cases.append((d2_target, p_fa, *devs))
    elapsed = time.perf_counter() - t0
    worst = max(max(devs) for _, _, *devs in cases)
    ok = worst <= 3.0 and elapsed < 300.0
    _verdict("6 Monte Carlo ROC", ok, f"worst dev {worst:.2f} se, {elapsed:.1f}s")
    assert ok, cases


def test_criterion_7_planted_recovery():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    e = 2.0
    grid = make_grid(20.0, 1.0)
    flat = SpectralDensity(grid, np.ones(grid.num_bins))
    scene = Scenario(flat, flat, 1.0, e)
    recovered = 0
    for _ in range(50):
        k = int(rng.integers(1, 7))
        beta = rng.uniform(0.1, 2.0, k)
        w = MtsfmWaveform(1.0, e, tuple(beta))
        cs = coefficients(w)
        tgt = OfdmTarget(np.sqrt(e) * np.abs(cs), e)
        seed = int(rng.integers(1 << 30))
        results = fit(tgt, k, 0.9, 20, seed, scenario=scene)
        if min(r.objective for r in results) <= 1e-6 * e**2:
            recovered += 1
    elapsed = time.perf_counter() - t0
    ok = recovered >= 45
    _verdict("7 planted-solution recovery", ok,
             f"{recovered}/50 recovered, {elapsed:.0f}s")
    assert ok


def _fit_d2_column(path: Path) -> np.ndarray:
    with open(path, newline="") as fh:
        return np.array([float(row["d_squared"]) for row in csv.DictReader(fh)])


def test_criterion_8_scene_study(tmp_path):
    t0 = time.perf_counter()
    ok = True
    details = []

    notch = load_config(CONFIG_DIR / "clutter_notch.yaml")
    notch_dir = tmp_path / "notch"
    notch = type(notch).from_dict({**notch.to_dict(), "out_dir": str(notch_dir)})
    for rec in run_experiment(notch):
        if rec["energy"] <= 1.0:
            continue
        d2 = _fit_d2_column(notch_dir / f"fit_E{rec['energy']:.12g}.csv")
        frac = float(np.mean(d2 > rec["d2_lfm"]))
        details.append(f"notch E={rec['energy']:g} frac={frac:.2f}")
        if frac < 0.95:
            ok = False

    peak = load_config(CONFIG_DIR / "clutter_peak.yaml")
    peak_dir = tmp_path / "peak"
    peak = type(peak).from_dict({**peak.to_dict(), "out_dir": str(peak_dir)})
    adv = {}
    for rec in run_experiment(peak):
        d2 = _fit_d2_column(peak_dir / f"fit_E{rec['energy']:.12g}.csv")
        adv[rec["energy"]] = (float(np.median(d2)) - rec["d2_lfm"]) / rec["d2_lfm"]
    e_lo, e_hi = min(adv), max(adv)
    details.append(f"peak adv E={e_lo:g}: {adv[e_lo]:.3f}, E={e_hi:g}: {adv[e_hi]:.3f}")
    if not adv[e_hi] < adv[e_lo]:
        ok = False

    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 600.0
    _verdict("8 scene study ordering", ok, "; ".join(details) + f", {elapsed:.0f}s")
    assert ok, details


def test_criterion_9_determinism(tmp_path):
    cfg = load_config(CONFIG_DIR / "clutter_notch.yaml")
    cfg = type(cfg).from_dict(
        {
            **cfg.to_dict(),
            "n_starts": 5,
            "energy_list": [0.5, 2.0],
            "out_dir": str(tmp_path / "a"),
        }
    )
    path = tmp_path / "cfg.yaml"
    dump_config(cfg, path)
    assert main(["fit", "--config", str(path)]) == EXIT_OK
    assert main(["fit", "--config", str(path), "--out", str(tmp_path / "b")]) == EXIT_OK
    ok = True
    names = [p.name for p in (tmp_path / "a").glob("*.csv")]
    assert names
    for name in names:
        if (tmp_path / "a" / name).read_bytes() != (tmp_path / "b" / name).read_bytes():
            ok = False
    _verdict("9 byte-identical reruns", ok, f"{len(names)} CSV files compared")
    assert ok
