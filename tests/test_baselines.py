import math

import numpy as np
import pytest
from scipy.optimize import brentq

from miwave import (
    LfmWaveform,
    design_mi,
    detection_metric,
    integrate,
    lfm_esd,
    lfm_time_series,
    make_grid,
    match_rms_bandwidth,
    rms_bandwidth,
)
from miwave.baselines import _brentq


class TestLfmTimeSeries:
    def test_cw_tone(self):
        w = LfmWaveform(1.0, 1.0, 0.0)
        _, x = lfm_time_series(w, 16.0)
        np.testing.assert_allclose(x, 1.0 + 0j, atol=1e-14)

    def test_constant_modulus(self):
        w = LfmWaveform(2.0, 3.0, 12.0)
        _, x = lfm_time_series(w, 64.0)
        ref = np.sqrt(3.0 / 2.0)
        assert np.max(np.abs(np.abs(x) - ref)) <= 1e-15 * ref

    def test_energy(self):
        w = LfmWaveform(1.5, 2.5, 10.0)
        t, x = lfm_time_series(w, 256.0)
        dt = t[1] - t[0]
        assert np.sum(np.abs(x) ** 2) * dt == pytest.approx(2.5, rel=1e-9)

    def test_nyquist_guard(self):
        w = LfmWaveform(1.0, 1.0, 50.0)
        with pytest.raises(ValueError):
            lfm_time_series(w, 20.0)


class TestLfmEsd:
    def test_b_zero_concentrates_at_dc(self):
        grid = make_grid(10.0, 1.0)
        esd = lfm_esd(LfmWaveform(1.0, 1.0, 0.0), grid)
        assert np.argmax(esd.values) == grid.half_order
        assert esd.values[grid.half_order] >= 0.99 * esd.values.sum()

    def test_normalized_to_energy(self):
        grid = make_grid(20.0, 1.0)
        esd = lfm_esd(LfmWaveform(1.0, 4.0, 15.0), grid)
        assert integrate(esd) == pytest.approx(4.0, rel=1e-9)

    def test_large_tb_flat_within_sweep(self):
        # BT = 100: in-band ripple stays within about +/-1.5 dB
        grid = make_grid(120.0, 1.0)
        esd = lfm_esd(LfmWaveform(1.0, 1.0, 100.0), grid)
        f = grid.bin_freqs
        inside = esd.values[np.abs(f) <= 40.0]
        ratio = inside.max() / inside.min()
        assert ratio <= 10 ** (3.0 / 10.0)

    def test_grid_duration_must_match(self):
        grid = make_grid(10.0, 2.0)
        with pytest.raises(ValueError):
            lfm_esd(LfmWaveform(1.0, 1.0, 5.0), grid)


class TestMatchRmsBandwidth:
    def test_zero_target(self):
        grid = make_grid(10.0, 1.0)
        w = match_rms_bandwidth(0.0, 1.0, 1.0, grid)
        assert w.sweep_bandwidth == 0.0

    def test_round_trip(self):
        grid = make_grid(40.0, 1.0)
        for b in (5.0, 12.0, 25.0):
            target = rms_bandwidth(lfm_esd(LfmWaveform(1.0, 1.0, b), grid), 1.0)
            w = match_rms_bandwidth(target, 1.0, 1.0, grid)
            got = rms_bandwidth(lfm_esd(w, grid), 1.0)
            assert got == pytest.approx(target, rel=1e-3)

    def test_flat_seed_formula(self):
        # B ~ sqrt(12)*beta_rms/(2*pi) for a roughly flat in-band ESD
        grid = make_grid(60.0, 1.0)
        target = rms_bandwidth(lfm_esd(LfmWaveform(1.0, 1.0, 40.0), grid), 1.0)
        w = match_rms_bandwidth(target, 1.0, 1.0, grid)
        assert w.sweep_bandwidth == pytest.approx(
            np.sqrt(12.0) * target / (2 * np.pi), rel=0.1
        )

    def test_infeasible_target(self):
        grid = make_grid(10.0, 1.0)
        with pytest.warns(UserWarning, match="clamping"):
            w = match_rms_bandwidth(1e4, 1.0, 1.0, grid)
        assert w.sweep_bandwidth == grid.band_width

    def test_mi_design_round_trip(self, notch_scenario):
        design = design_mi(notch_scenario.with_energy(1.0))
        target = rms_bandwidth(design.esd, 1.0)
        grid = notch_scenario.grid
        w = match_rms_bandwidth(target, 1.0, 1.0, grid)
        if w.sweep_bandwidth < grid.band_width:
            got = rms_bandwidth(lfm_esd(w, grid), 1.0)
            assert got == pytest.approx(target, rel=1e-3)

    def test_lfm_never_beats_mi(self, scenario_suite):
        for base in scenario_suite[:5]:
            sc = base.with_energy(2.0)
            design = design_mi(sc)
            d2_star = detection_metric(design.esd, sc)
            target = rms_bandwidth(design.esd, 2.0)
            w = match_rms_bandwidth(target, sc.grid.duration, 2.0, sc.grid)
            d2_lfm = detection_metric(lfm_esd(w, sc.grid), sc)
            assert d2_lfm <= d2_star + 1e-9


def _counted(f):
    calls = [0]

    def g(x):
        calls[0] += 1
        return f(x)

    return g, calls


def _assert_same_as_scipy(f, a, b):
    """``_brentq`` given f(a) and f(b), and scipy's ``brentq`` at rtol
    1e-4: the same root, bit for bit, with two calls to ``f`` fewer."""
    g, calls = _counted(f)
    root = _brentq(g, a, b, f(a), f(b), rtol=1e-4)
    ref, info = brentq(f, a, b, rtol=1e-4, full_output=True)
    assert info.converged
    assert root == ref
    assert calls[0] == info.function_calls - 2


class TestBrentq:
    @pytest.mark.parametrize("band_width", [20.0, 100.0])
    @pytest.mark.parametrize("frac", [0.1, 0.25, 0.4, 0.55, 0.7])
    def test_lfm_residual_matches_scipy(self, band_width, frac):
        # the residual of match_rms_bandwidth on 21- and 101-bin grids;
        # frac scales the flat-spectrum RMS bandwidth of a full-band sweep
        grid = make_grid(band_width, 1.0)
        target = frac * 2 * np.pi * band_width / np.sqrt(12.0)

        def resid(b):
            esd = lfm_esd(LfmWaveform(1.0, 1.0, b), grid)
            return rms_bandwidth(esd, 1.0) - target

        assert resid(0.0) < 0 < resid(grid.band_width)
        _assert_same_as_scipy(resid, 0.0, grid.band_width)

    @pytest.mark.parametrize(
        "f, a, b",
        [
            (lambda x: x**3 - 2.0, 0.0, 3.0),
            (lambda x: math.atan(100.0 * (x - 0.123)), -1.0, 4.0),
            (lambda x: math.exp(x) - 1.0, 0.0, 2.0),  # root at an endpoint
        ],
    )
    def test_analytic_monotone_matches_scipy(self, f, a, b):
        _assert_same_as_scipy(f, a, b)

    def test_same_sign_bracket_raises(self):
        with pytest.raises(ValueError, match="different signs"):
            _brentq(lambda x: x * x + 1.0, -1.0, 1.0, 2.0, 2.0, rtol=1e-4)
