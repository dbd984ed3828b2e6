import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from miwave import (
    Scenario,
    SpectralDensity,
    UnboundedAllocationError,
    design_mi,
    detection_metric,
    esd_for_lambda,
    integrate,
    make_grid,
    solve_lambda,
)

from conftest import d2_rows, random_feasible_esd


def test_flat_case_closed_form_lambda(flat_unit_scenario):
    # flat P_n = P_h = 1 over a unit-measure band with E = 1:
    # the allocation sqrt(1/lam) - 1 equals 1 at lam = 1/4
    lam = solve_lambda(flat_unit_scenario)
    assert lam == pytest.approx(0.25, abs=1e-8)


def test_flat_scenario_gives_flat_esd(flat_unit_scenario):
    design = design_mi(flat_unit_scenario)
    v = design.esd.values
    np.testing.assert_allclose(v, v[0], rtol=1e-12)
    assert design.achieved_energy == pytest.approx(1.0, rel=1e-6)


def test_energy_constraint_on_suite(scenario_suite):
    for base in scenario_suite:
        for e in (0.5, 1.0, 4.0):
            sc = base.with_energy(e)
            design = design_mi(sc)
            assert abs(integrate(design.esd) - e) <= 1e-12 * e


def test_notch_scenario_peaks_at_dc(notch_scenario):
    design = design_mi(notch_scenario)
    assert np.argmax(design.esd.values) == notch_scenario.grid.half_order


def test_allocation_decreasing_in_lambda(notch_scenario):
    lams = np.geomspace(1e-3, np.max(1.0 / notch_scenario.noise_psd.values), 30)
    allocs = [
        integrate(esd_for_lambda(notch_scenario, lam)) for lam in lams
    ]
    diffs = np.diff(allocs)
    assert np.all(diffs[np.array(allocs[:-1]) > 0] < 0)


def test_active_set_nondecreasing_in_energy(notch_scenario):
    prev: set = set()
    for e in (1.0, 2.0, 5.0, 10.0):
        design = design_mi(notch_scenario.with_energy(e))
        active = set(design.active_set.tolist())
        assert prev <= active
        prev = active


def test_scale_covariance(notch_scenario):
    # scaling both PSDs by c leaves the ESD unchanged at fixed E
    c = 3.7
    scaled = Scenario(
        SpectralDensity(notch_scenario.grid, c * notch_scenario.noise_psd.values),
        SpectralDensity(notch_scenario.grid, c * notch_scenario.channel_psd.values),
        notch_scenario.target_variance,
        notch_scenario.energy,
    )
    d1 = design_mi(notch_scenario)
    d2 = design_mi(scaled)
    np.testing.assert_allclose(d2.esd.values, d1.esd.values, atol=1e-9)


def test_zero_channel_error_and_floor(small_grid):
    noise = SpectralDensity(small_grid, np.ones(small_grid.num_bins))
    vals = np.ones(small_grid.num_bins)
    vals[small_grid.half_order] = 0.0
    sc = Scenario(noise, SpectralDensity(small_grid, vals), 1.0, 1.0)
    with pytest.raises(UnboundedAllocationError):
        design_mi(sc)
    with pytest.raises(UnboundedAllocationError):
        esd_for_lambda(sc, 0.5)


def test_zero_channel_bin_inactive_at_solution(small_grid):
    # the zero-channel bin +1 sits above the water level, so the design is
    # bounded: only the DC bin is active
    h = small_grid.half_order
    p_n = np.ones(small_grid.num_bins)
    p_n[h], p_n[h + 1] = 0.10, 0.15
    p_h = np.ones(small_grid.num_bins)
    p_h[h + 1] = 0.0
    sc = Scenario(
        SpectralDensity(small_grid, p_n), SpectralDensity(small_grid, p_h), 1.0, 0.01
    )
    design = design_mi(sc)
    # mu = (E/df + P_n/P_h)/(sqrt(P_n)/P_h) on the DC bin; lambda ~ 8.2645
    assert design.lagrange_lambda == pytest.approx((np.sqrt(0.1) / 0.11) ** 2)
    assert design.active_set.tolist() == [h]
    assert design.achieved_energy == pytest.approx(0.01, rel=1e-12)


def _lambda_step(mu, s, p_h, bins, df):
    """lambda*|dE/dlambda| at water level mu over the given bins: times
    eps, the energy moved by one rounding of a float lambda."""
    return 0.5 * mu * np.sum(s[bins] / p_h[bins]) * df * np.finfo(float).eps


_POSITIVE = st.floats(1e-2, 1e2)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    p_n=arrays(float, 11, elements=_POSITIVE),
    p_h=arrays(float, 11, elements=st.one_of(_POSITIVE, st.just(0.0))),
    log_energy=st.floats(-4.0, 4.0),
)
def test_exact_water_level_or_unbounded(p_n, p_h, log_energy):
    # either the design meets E to 1e-12 (plus a few roundings of lambda,
    # which matter only where few bins sit just below the water level) and
    # is active exactly where sqrt(P_n) < mu, or the bins below the lowest
    # zero-channel level cannot hold E
    grid = make_grid(10.0, 1.0)
    energy = 10.0**log_energy
    sc = Scenario(SpectralDensity(grid, p_n), SpectralDensity(grid, p_h), 1.0, energy)
    s = np.sqrt(p_n)
    try:
        design = design_mi(sc)
    except UnboundedAllocationError:
        ceiling = np.min(s[p_h == 0])
        below = np.flatnonzero((p_h > 0) & (s < ceiling))
        cap = np.sum((ceiling * s[below] - p_n[below]) / p_h[below]) * grid.spacing
        step = _lambda_step(ceiling, s, p_h, below, grid.spacing)
        assert cap <= energy * (1 + 1e-12) + 8 * step
        return
    mu = design.lagrange_lambda**-0.5
    np.testing.assert_array_equal(design.active_set, np.flatnonzero(s < mu))
    step = _lambda_step(mu, s, p_h, design.active_set, grid.spacing)
    assert abs(integrate(design.esd) - energy) <= 1e-12 * energy + 8 * step


def test_lambda_positive_required(notch_scenario):
    with pytest.raises(ValueError):
        esd_for_lambda(notch_scenario, 0.0)


def test_better_than_random_feasible(scenario_suite):
    rng = np.random.default_rng(42)
    for base in scenario_suite[:4]:
        sc = base.with_energy(2.0)
        design = design_mi(sc)
        d2_star = detection_metric(design.esd, sc)
        q = random_feasible_esd(rng, sc, 200)
        assert np.all(d2_rows(q, sc) <= d2_star + 1e-9)
