import dataclasses
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import fresnel

from miwave import (
    LfmWaveform,
    MtsfmWaveform,
    design_mi,
    detection_metric,
    esd_on_grid,
    integrate,
    lfm_esd,
    lfm_time_series,
    make_grid,
    match_rms_bandwidth,
    rms_bandwidth,
)
from miwave import baselines
from miwave.experiment import load_config, run_experiment

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


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

    def test_keeps_only_in_band_energy(self):
        grid = make_grid(20.0, 1.0)
        esd = lfm_esd(LfmWaveform(1.0, 4.0, 15.0), grid)
        # E*T*sum |X_m/n - end|^2 over the grid's bins, from unit-modulus
        # samples on the n nodes the comparator uses: 4*max(10, 15) + 2
        # rounded up to 64, less the end term of the slope jump at -T/2
        n = 64
        _, x = lfm_time_series(LfmWaveform(1.0, 1.0, 15.0), float(n))
        end = 1j * np.pi * 15.0 * x[0] / (6.0 * n * n)
        in_band = np.sum(np.abs(np.fft.fft(x)[grid.bin_indices % n] / n - end) ** 2)
        assert integrate(esd) < 4.0
        assert integrate(esd) == pytest.approx(4.0 * in_band * grid.spacing, rel=1e-12)

    @pytest.mark.parametrize("frac", [0.01, 0.3, 0.7, 1.0])
    @pytest.mark.parametrize(
        "band_width, duration", [(20.0, 1.0), (20.0, 0.7), (100.0, 2.5), (1000.0, 1.0)]
    )
    def test_matches_fresnel_closed_form(self, band_width, duration, frac):
        # c_m = integral over s in [-1/2, 1/2) of exp(j*pi*B*T*s^2 - j*2*pi*m*s),
        # so |c_m|^2 = |F(u_2) - F(u_1)|^2/(2*B*T), F = C + jS, at
        # u_1,2 = sqrt(2*B*T)*(-+1/2 - m/(B*T))
        grid = make_grid(band_width, duration)
        bt = frac * band_width * duration
        m = grid.bin_indices
        s1, c1 = fresnel(np.sqrt(2.0 * bt) * (-0.5 - m / bt))
        s2, c2 = fresnel(np.sqrt(2.0 * bt) * (0.5 - m / bt))
        want = ((c2 - c1) ** 2 + (s2 - s1) ** 2) / (2.0 * bt)
        # at E = 1 the grid ESD is T*|c_m|^2
        got = lfm_esd(LfmWaveform(duration, 1.0, frac * band_width), grid).values / duration
        assert np.max(np.abs(got - want)) <= 3e-4 * want.max()

    @pytest.mark.parametrize("band_width, duration", [(20.0, 1.0), (20.0, 0.7), (100.0, 2.5)])
    def test_dc_chirp_is_the_dc_mtsfm(self, band_width, duration):
        # both grid ESDs are E*T*|c_m|^2, and the B = 0 chirp and the
        # MTSFM of zero modulation are the same DC tone
        grid = make_grid(band_width, duration)
        chirp = lfm_esd(LfmWaveform(duration, 3.0, 0.0), grid)
        tone = esd_on_grid(MtsfmWaveform(duration, 3.0, (0.0,)), grid)
        assert chirp.values.tobytes() == tone.values.tobytes()

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


def _spectra(monkeypatch):
    """Sweep bandwidths of the chirp spectra ``match_rms_bandwidth``
    evaluates, recorded through the module global it looks up."""
    seen = []

    def recorded(w, grid):
        seen.append(w.sweep_bandwidth)
        return lfm_esd(w, grid)

    monkeypatch.setattr(baselines, "lfm_esd", recorded)
    return seen


class TestMatchRmsBandwidth:
    def test_zero_target(self, monkeypatch):
        grid = make_grid(10.0, 1.0)
        seen = _spectra(monkeypatch)
        w = match_rms_bandwidth(0.0, 1.0, 1.0, grid)
        assert w.sweep_bandwidth == 0.0
        assert seen == []

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

    def test_infeasible_target(self, monkeypatch):
        grid = make_grid(10.0, 1.0)
        seen = _spectra(monkeypatch)
        with pytest.warns(UserWarning, match="clamping"):
            w = match_rms_bandwidth(1e4, 1.0, 1.0, grid)
        assert w.sweep_bandwidth == grid.band_width
        assert seen == [grid.band_width]

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


class TestFullBandMemo:
    """The full-band sweep B = W, which every match evaluates: computed
    by each call, from no array another call holds."""

    def test_full_band_spectra_per_design_sweep(self, monkeypatch, tmp_path):
        config = dataclasses.replace(
            load_config(CONFIG_DIR / "clutter_peak.yaml"),
            energy_list=tuple(float(e) for e in np.geomspace(0.25, 16.0, 16)),
            out_dir=str(tmp_path),
        )
        full, other = [], []
        chirp_power = baselines._chirp_power

        def counted(duration, sweep_bandwidth, grid):
            (full if sweep_bandwidth == grid.band_width else other).append(sweep_bandwidth)
            return chirp_power(duration, sweep_bandwidth, grid)

        monkeypatch.setattr(baselines, "_chirp_power", counted)
        esds = _spectra(monkeypatch)
        records = run_experiment(config, design_only=True)
        clamped = sum(r["lfm_sweep_bandwidth"] == config.band_width for r in records)
        # every match evaluates B = W first, and each clamped energy's
        # comparator ESD is the B = W one, computed again
        assert esds.count(config.band_width) == 16
        assert 0 < clamped < 16
        assert len(full) == 16 + clamped
        # the other spectra: the interior root-find steps, then the
        # comparator ESD of each energy that did not clamp
        assert len(other) == (len(esds) - 16) + (16 - clamped)

    @pytest.mark.parametrize("band_width, duration", [(20.0, 1.0), (20.0, 0.7), (100.0, 2.5)])
    def test_equals_uncached_computation(self, band_width, duration):
        grid = make_grid(band_width, duration)
        w = LfmWaveform(duration, 3.0, grid.band_width)
        # n = 4*max(M/2, B*T) + 2 rounded up to a power of two, at least 64
        n = {(20.0, 1.0): 128, (20.0, 0.7): 64, (100.0, 2.5): 1024}[band_width, duration]
        # at E = T the chirp's amplitude sqrt(E/T) is exactly 1
        _, x = lfm_time_series(LfmWaveform(duration, duration, grid.band_width), n / duration)
        end = 1j * np.pi * grid.band_width * duration * x[0] / (6.0 * n * n)
        want = 3.0 * duration * np.abs(np.fft.fft(x)[grid.bin_indices % n] / n - end) ** 2
        for values in (lfm_esd(w, grid).values, lfm_esd(w, grid).values):
            np.testing.assert_allclose(values, want, rtol=1e-15, atol=0)

    def test_writing_a_returned_esd_leaves_the_next_call(self):
        grid = make_grid(20.0, 1.0)
        w = LfmWaveform(1.0, 2.0, grid.band_width)
        first = lfm_esd(w, grid)
        want = first.values.copy()
        with pytest.raises(ValueError, match="read-only"):
            first.values[0] = 0.0
        # the ESD holds its own copy, which its owner may make writable
        first.values.flags.writeable = True
        first.values[:] = -1.0
        assert lfm_esd(w, grid).values.tobytes() == want.tobytes()


class TestBrentq:
    """``match_rms_bandwidth`` against scipy's ``brentq`` at
    xtol = rtol = 1e-15 as the reference root."""

    @staticmethod
    def _assert_root_matches_scipy(monkeypatch, band_width, duration, frac):
        # frac scales the RMS bandwidth of the full-band sweep, the
        # largest reachable target
        grid = make_grid(band_width, duration)
        full = LfmWaveform(duration, 1.0, grid.band_width)
        target = frac * rms_bandwidth(lfm_esd(full, grid), 1.0)

        def resid(b):
            esd = lfm_esd(LfmWaveform(duration, 1.0, b), grid)
            return rms_bandwidth(esd, 1.0) - target

        ref = brentq(resid, 0.0, grid.band_width, xtol=1e-15, rtol=1e-15)
        seen = _spectra(monkeypatch)
        w = match_rms_bandwidth(target, duration, 1.0, grid)
        assert w.sweep_bandwidth == pytest.approx(ref, rel=1e-4)
        # the lower end f(0) = -target is closed-form: no spectrum at B = 0
        assert 0.0 not in seen
        assert seen[0] == grid.band_width
        assert len(seen) <= 6

    @pytest.mark.parametrize("band_width", [20.0, 100.0])
    @pytest.mark.parametrize("frac", [1e-6, 0.1, 0.25, 0.4, 0.55, 0.7, 0.999999])
    def test_lfm_residual_matches_scipy(self, monkeypatch, band_width, frac):
        self._assert_root_matches_scipy(monkeypatch, band_width, 1.0, frac)

    @pytest.mark.parametrize("duration", [0.37, 2.5])
    @pytest.mark.parametrize("frac", [1e-6, 0.4, 0.999999])
    def test_other_durations_match_scipy(self, monkeypatch, duration, frac):
        self._assert_root_matches_scipy(monkeypatch, 20.0, duration, frac)
