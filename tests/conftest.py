"""Shared fixtures: small scenarios and a scenario suite for optimality checks."""

import numpy as np
import pytest
import yaml

from miwave import Scenario, SpectralDensity, build_parametric_psd, detection_metric, make_grid


@pytest.fixture
def flat_unit_scenario():
    """Flat P_n = P_h = 1 on a 3-bin grid whose band measures exactly 1.

    With E = 1 the water-filling level has the closed form lambda = 1/4.
    """
    grid = make_grid(0.6, 3.0)
    assert grid.num_bins == 3 and grid.spacing == pytest.approx(1.0 / 3.0)
    flat = SpectralDensity(grid, np.ones(3))
    return Scenario(flat, flat, 1.0, 1.0)


@pytest.fixture
def small_grid():
    return make_grid(10.0, 1.0)


@pytest.fixture
def notch_scenario(small_grid):
    noise = build_parametric_psd(
        "noise_valley", {"n_min": 0.05, "n_max": 1.0}, small_grid
    )
    clutter = build_parametric_psd(
        "clutter_notch", {"level": 1.0, "notch_depth": 0.9, "notch_width": 2.0},
        small_grid,
    )
    return Scenario(noise, clutter, 1.0, 2.0)


def dump_config(cfg, path):
    """Write an ExperimentConfig as the YAML mapping load_config reads."""
    with open(path, "w") as fh:
        yaml.safe_dump(cfg.to_dict(), fh, sort_keys=True)


def roc_deviations(esd, scenario, mc, p_fa_grid):
    """``(p_d_dev, p_fa_dev)`` per false-alarm rate: a Monte Carlo ROC's
    deviations, in binomial standard errors, from the exact laws of its
    statistic at each returned threshold tau.

    Under H0 the statistic is exponential with mean
    s0 = T*sum ESD/(P_h*ESD + P_n), and under H1 with mean s0*(1 + d^2).
    So at tau the false-alarm rate is exp(-tau/s0), set against p_fa, and
    the detection rate exp(-tau/(s0*(1 + d^2))), set against ``mc.p_d``.
    The threshold's noise and the detection count's are checked apart,
    each by its own binomial standard error.
    """
    denom = scenario.channel_psd.values * esd.values + scenario.noise_psd.values
    s0 = scenario.grid.duration * np.sum(esd.values / denom)
    d2 = detection_metric(esd, scenario)
    out = []
    for p_fa, p_hat, tau in zip(p_fa_grid, mc.p_d, mc.thresholds):
        p_d = np.exp(-tau / (s0 * (1.0 + d2)))
        p_fa_at_tau = np.exp(-tau / s0)
        out.append((abs(p_hat - p_d) / np.sqrt(p_d * (1.0 - p_d) / mc.trials),
                    abs(p_fa_at_tau - p_fa) / np.sqrt(p_fa * (1.0 - p_fa) / mc.trials)))
    return out


def _suite_scenarios():
    """Ten varied scenarios on grids of at most 41 bins."""
    out = []
    specs = [
        (10.0, 1.0, "flat", {"level": 1.0}, "flat", {"level": 0.5}),
        (10.0, 1.0, "noise_valley", {"n_min": 0.05, "n_max": 1.0},
         "clutter_notch", {"level": 1.0, "notch_depth": 0.9, "notch_width": 2.0}),
        (10.0, 1.0, "noise_valley", {"n_min": 0.05, "n_max": 1.0},
         "clutter_peak", {"floor": 0.1, "peak_height": 2.0, "peak_width": 1.5,
                          "osc_height": 0.5, "osc_cycles": 3.0}),
        (20.0, 1.0, "flat", {"level": 0.3},
         "clutter_peak", {"floor": 0.05, "peak_height": 1.0, "peak_width": 2.0,
                          "osc_height": 0.3, "osc_cycles": 4.0}),
        (20.0, 1.0, "noise_valley", {"n_min": 0.01, "n_max": 1.0},
         "flat", {"level": 1.0}),
        (8.0, 2.0, "flat", {"level": 2.0},
         "clutter_notch", {"level": 0.5, "notch_depth": 0.98, "notch_width": 1.0}),
        (8.0, 2.0, "noise_valley", {"n_min": 0.1, "n_max": 2.0},
         "clutter_peak", {"floor": 0.2, "peak_height": 3.0, "peak_width": 1.0,
                          "osc_height": 1.0, "osc_cycles": 2.0}),
        (5.0, 4.0, "flat", {"level": 0.7},
         "clutter_notch", {"level": 2.0, "notch_depth": 0.5, "notch_width": 0.8}),
        (15.0, 1.0, "noise_valley", {"n_min": 0.02, "n_max": 0.5},
         "clutter_notch", {"level": 1.5, "notch_depth": 0.8, "notch_width": 3.0}),
        (12.0, 1.0, "noise_valley", {"n_min": 0.5, "n_max": 1.5},
         "clutter_peak", {"floor": 0.3, "peak_height": 0.8, "peak_width": 3.0,
                          "osc_height": 0.2, "osc_cycles": 5.0}),
    ]
    for w, t, nk, np_, ck, cp in specs:
        grid = make_grid(w, t)
        noise = build_parametric_psd(nk, np_, grid)
        clutter = build_parametric_psd(ck, cp, grid)
        out.append(Scenario(noise, clutter, 1.0, 1.0))
    return out


@pytest.fixture(scope="session")
def scenario_suite():
    return _suite_scenarios()


def random_feasible_esd(rng: np.random.Generator, scenario: Scenario, n: int):
    """n random nonnegative ESDs on the scenario grid, each integrating to E."""
    q = rng.uniform(0.0, 1.0, (n, scenario.grid.num_bins))
    totals = q.sum(axis=1, keepdims=True) * scenario.grid.spacing
    return q * (scenario.energy / totals)


def d2_rows(q: np.ndarray, scenario: Scenario) -> np.ndarray:
    """Detection metric evaluated row-wise on an (n, bins) array of ESDs."""
    p_n = scenario.noise_psd.values
    p_h = scenario.channel_psd.values
    integrand = q / (p_h * q + p_n)
    return scenario.target_variance * integrand.sum(axis=1) * scenario.grid.spacing
