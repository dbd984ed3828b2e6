"""Shared fixtures: small scenarios and a scenario suite for optimality checks."""

import numpy as np
import pytest
import yaml

from miwave import Scenario, SpectralDensity, build_parametric_psd, make_grid


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
