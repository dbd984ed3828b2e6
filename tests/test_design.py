import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from miwave import (
    Scenario,
    SpectralDensity,
    UnboundedAllocationError,
    build_parametric_psd,
    design_mi,
    detection_metric,
    integrate,
    make_grid,
)

from conftest import d2_rows, random_feasible_esd


def test_flat_case_closed_form_lambda(flat_unit_scenario):
    # flat P_n = P_h = 1 over a unit-measure band with E = 1:
    # the allocation sqrt(1/lam) - 1 equals 1 at lam = 1/4
    lam = design_mi(flat_unit_scenario).lagrange_lambda
    assert lam == pytest.approx(0.25, abs=1e-8)


def _formula_at_lambda(design, scenario):
    """max((sqrt(P_n/lambda) - P_n)/P_h, 0) at the design's own lambda,
    as the design evaluates it: 0 wherever the numerator is not positive."""
    p_n, p_h = scenario.noise_psd.values, scenario.channel_psd.values
    numer = np.sqrt(p_n / design.lagrange_lambda) - p_n
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(numer > 0, numer / p_h, 0.0)


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
            np.testing.assert_array_equal(design.esd.values, _formula_at_lambda(design, sc))


def test_notch_scenario_peaks_at_dc(notch_scenario):
    design = design_mi(notch_scenario)
    assert np.argmax(design.esd.values) == notch_scenario.grid.half_order


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


def _tiny_channel_scenario(bin_index, p_h):
    # 21 bins: the noise valley puts DC (bin 10) first in the water-filling
    # order and bin 3 near the band edge, above the water level at E = 2
    grid = make_grid(20.0, 1.0)
    noise = build_parametric_psd("noise_valley", {"n_min": 0.05, "n_max": 1.0}, grid)
    clutter = np.full(grid.num_bins, 0.5)
    clutter[bin_index] = p_h
    return Scenario(noise, SpectralDensity(grid, clutter), 1.0, 2.0)


@pytest.mark.parametrize("p_h", [1e-20, 1e-16, 1e-300])
def test_tiny_channel_on_active_bin_missing_budget_is_error(p_h):
    # (mu*s - P_n)/P_h at DC is rounding error over a tiny P_h, so the
    # ESD integrates to far from E (0 at 1e-300) and the design refuses it
    with pytest.raises(ValueError, match="not the budget E=2"):
        design_mi(_tiny_channel_scenario(10, p_h))


@pytest.mark.parametrize("p_h", [1e-310, 5e-324])
def test_overflowing_channel_ratio_names_its_bins(p_h):
    with pytest.raises(ValueError, match=r"overflows on bins \[10\]") as info:
        design_mi(_tiny_channel_scenario(10, p_h))
    assert not isinstance(info.value, UnboundedAllocationError)
    assert "vanishes" not in str(info.value)


@pytest.mark.parametrize("p_h", [1e-20, 1e-16, 1e-300, 1e-310, 5e-324])
def test_tiny_channel_on_inactive_bin_designs_as_before(p_h):
    want = design_mi(_tiny_channel_scenario(3, 0.5))
    got = design_mi(_tiny_channel_scenario(3, p_h))
    assert 3 not in got.active_set
    assert got.lagrange_lambda == want.lagrange_lambda
    assert got.esd.values.tolist() == want.esd.values.tolist()
    assert got.achieved_energy == pytest.approx(2.0, rel=1e-12)


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
    # is active exactly where sqrt(P_n) < mu, with the formula's ESD at its
    # own lambda, or the bins below the lowest zero-channel level cannot
    # hold E
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
    np.testing.assert_array_equal(design.esd.values, _formula_at_lambda(design, sc))
    step = _lambda_step(mu, s, p_h, design.active_set, grid.spacing)
    assert abs(integrate(design.esd) - energy) <= 1e-12 * energy + 8 * step


def test_better_than_random_feasible(scenario_suite):
    rng = np.random.default_rng(42)
    for base in scenario_suite[:4]:
        sc = base.with_energy(2.0)
        design = design_mi(sc)
        d2_star = detection_metric(design.esd, sc)
        q = random_feasible_esd(rng, sc, 200)
        assert np.all(d2_rows(q, sc) <= d2_star + 1e-9)
