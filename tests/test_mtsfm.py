import numpy as np
import pytest
from scipy.special import jv

from miwave import (
    MtsfmWaveform,
    coefficients,
    esd_on_grid,
    integrate,
    make_grid,
    rms_bandwidth,
    spectrum,
    time_series,
)
from miwave import mtsfm
from miwave.mtsfm import max_instantaneous_freq, phase
from miwave.spectral import recentre


class TestPhaseAndModulation:
    def test_zero_indices_rejected_empty(self):
        with pytest.raises(ValueError):
            MtsfmWaveform(1.0, 1.0, ())

    def test_phase_values(self):
        w = MtsfmWaveform(1.0, 1.0, (2.0,))
        assert phase(w, 0.0) == pytest.approx(-2.0)
        w2 = MtsfmWaveform(1.0, 1.0, (1.0, 0.5))
        # t = T/4: cos(pi/2) = 0, cos(pi) = -1
        assert phase(w2, 0.25) == pytest.approx(0.5)

    def test_phase_even(self):
        w = MtsfmWaveform(2.0, 1.0, (0.7, -0.3, 1.1))
        t = np.linspace(0, 0.99, 40)
        np.testing.assert_allclose(phase(w, t), phase(w, -t), atol=1e-14)

    def test_support_check(self):
        w = MtsfmWaveform(1.0, 1.0, (1.0,))
        with pytest.raises(ValueError):
            phase(w, 0.6)


class TestTimeSeries:
    def test_constant_modulus(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            k = int(rng.integers(1, 13))
            beta = rng.uniform(-4, 4, k)
            e, t_dur = float(rng.uniform(0.5, 4)), float(rng.uniform(0.5, 2))
            w = MtsfmWaveform(t_dur, e, tuple(beta))
            rate = 4.0 * max(max_instantaneous_freq(w), 1.0 / t_dur) + 16.0
            _, x = time_series(w, rate)
            ref = np.sqrt(e / t_dur)
            assert np.max(np.abs(np.abs(x) - ref)) <= 1e-12 * ref

    def test_zero_modulation_is_dc_tone(self):
        w = MtsfmWaveform(1.0, 1.0, (0.0,))
        _, x = time_series(w, 64.0)
        np.testing.assert_allclose(x, 1.0 + 0j, atol=1e-14)

    def test_riemann_energy(self):
        w = MtsfmWaveform(1.5, 3.0, (1.0, 0.4))
        t, x = time_series(w, 512.0)
        dt = t[1] - t[0]
        assert np.sum(np.abs(x) ** 2) * dt == pytest.approx(3.0, rel=1e-9)

    def test_nyquist_guard(self):
        w = MtsfmWaveform(1.0, 1.0, (5.0, 5.0))
        with pytest.raises(ValueError, match="Nyquist"):
            time_series(w, 8.0)


class TestCoefficients:
    def test_zero_beta_is_delta(self):
        w = MtsfmWaveform(1.0, 1.0, (0.0,))
        cs = coefficients(w)
        expect = np.zeros(cs.size)
        expect[cs.size // 2] = 1.0
        np.testing.assert_allclose(cs, expect, atol=1e-14)

    @pytest.mark.parametrize("beta", [0.5, 2.0, 5.0])
    def test_single_harmonic_bessel_magnitudes(self, beta):
        # e^{-j beta cos(theta)} expands with coefficients (-j)^m J_m(beta)
        w = MtsfmWaveform(1.0, 1.0, (beta,))
        cs = recentre(coefficients(w), 20)
        for m in range(-20, 21):
            assert abs(abs(cs[m + 20]) - abs(jv(m, beta))) < 1e-10

    def test_even_phase_gives_symmetric_coeffs(self):
        w = MtsfmWaveform(1.0, 1.0, (1.2, -0.4, 0.9))
        cs = coefficients(w)
        bound = cs.size // 2
        m = np.arange(1, bound + 1)
        np.testing.assert_allclose(cs[bound + m], cs[bound - m], atol=1e-10)

    def test_parseval_random_draws(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            k = int(rng.integers(1, 13))
            beta = rng.uniform(-4, 4, k)
            w = MtsfmWaveform(1.0, 1.0, tuple(beta))
            cs = coefficients(w)
            total = np.sum(np.abs(cs) ** 2)
            assert 1.0 - 1e-8 <= total <= 1.0 + 1e-12

    @pytest.mark.parametrize("beta, bound", [(200.0, 232), (1000.0, 1064)])
    def test_default_bound_doubles_guard_until_tail_is_small(self, beta, bound):
        # guard 16 leaves a tail above TAIL_TOL at these index weights;
        # 200 needs one doubling (200 + 32), 1000 two (1000 + 64)
        cs = coefficients(MtsfmWaveform(1.0, 1.0, (beta,)))
        assert cs.size == 2 * bound + 1
        assert 1.0 - np.sum(np.abs(cs) ** 2) <= mtsfm.TAIL_TOL

    def test_default_bound_warns_after_last_doubling(self, monkeypatch):
        # no tail is below a negative tolerance, so all ten bounds are tried
        monkeypatch.setattr(mtsfm, "TAIL_TOL", -1.0)
        w = MtsfmWaveform(1.0, 1.0, (2.5,))
        with pytest.warns(UserWarning, match="tail"):
            cs = coefficients(w)
        assert cs.size == 2 * (3 + 16 * 2**9) + 1

    def test_two_harmonic_convolution_oracle(self):
        # a product of unit-modulus factors has convolved coefficients
        b1, b2 = 1.3, 0.7
        cs = recentre(coefficients(MtsfmWaveform(1.0, 1.0, (b1, b2))), 30)
        c1 = mtsfm.raw_coefficients(np.array([[b1]]), 40)[0]
        # second factor exp(-j b2 cos(4 pi t/T)) has coefficients only on even
        # orders: order 2n carries the n-th coefficient of a single harmonic
        c2_half = mtsfm.raw_coefficients(np.array([[b2]]), 40)[0]
        c2 = np.zeros(161, dtype=complex)
        c2[80 + 2 * np.arange(-40, 41)] = c2_half
        conv = np.convolve(c1, c2)
        center = conv.size // 2
        for m in range(-30, 31):
            assert abs(cs[m + 30] - conv[center + m]) < 1e-8

    def test_kernel_is_fft_of_public_phase(self):
        # the cached phase table must reproduce phase() on the FFT nodes;
        # the kernel's nodes are in units of T, so it is compared at T = 1
        w = MtsfmWaveform(1.0, 1.0, (0.7, -0.3, 1.1))
        order_bound = 12
        n = mtsfm._fft_size(order_bound)
        t = -w.duration / 2.0 + np.arange(n) * (w.duration / n)
        f = np.fft.fft(np.exp(1j * phase(w, t))) / n
        m = np.arange(-order_bound, order_bound + 1)
        want = f[m % n] * (-1.0) ** m
        beta = np.array([w.mod_indices])
        got = mtsfm.raw_coefficients(beta, order_bound)[0]
        assert got.tolist() == want.tolist()

    @pytest.mark.parametrize("k_harm", [1, 8, 32])
    def test_quadrature_matches_dense_reference(self, k_harm):
        # random beta shaped like fit's starts (equal index weight per
        # harmonic, random signs), at the order bound coefficients()
        # picks: B >= index weight + 16. Weights 15 and 47 put B at 31
        # and 63, where 2B+1 sits just below a power of two, so an FFT of
        # only 2B+1 nodes (or the next power of two) fails this bound.
        rng = np.random.default_rng(k_harm)
        n_ref = 16384
        for weight in (0.5, 3.7, 9.6, 15.0, 20.0, 33.3, 47.0):
            share = rng.uniform(0.0, 1.0, k_harm)
            sign = rng.choice([-1.0, 1.0], k_harm)
            beta = sign * share / share.sum() * weight / np.arange(1, k_harm + 1)
            w = MtsfmWaveform(1.0, 1.0, tuple(beta))
            cs = coefficients(w)
            t = -0.5 + np.arange(n_ref) / n_ref
            f = np.fft.fft(np.exp(1j * phase(w, t))) / n_ref
            m = np.arange(cs.size) - cs.size // 2
            want = f[m % n_ref] * (-1.0) ** m
            got = mtsfm.raw_coefficients(beta[None], cs.size // 2)[0]
            assert np.max(np.abs(got - want)) <= 1e-15

    def test_duration_invariance(self):
        # the kernel's nodes are in units of T, so no duration enters
        beta = (0.9, 0.3)
        a = coefficients(MtsfmWaveform(1.0, 1.0, beta))
        for duration in (2.5, 3.5):
            b = coefficients(MtsfmWaveform(duration, 1.0, beta))
            assert b.tolist() == a.tolist()

    def test_default_bound_scales_with_index_weight(self):
        w = MtsfmWaveform(1.0, 1.0, (4.0, 2.0))
        assert coefficients(w).size == 2 * (8 + 16) + 1


class TestSpectrum:
    def test_on_grid_values(self):
        w = MtsfmWaveform(2.0, 3.0, (1.1,))
        cs = coefficients(w)
        for m in (-2, 0, 5):
            s = spectrum(w, cs, m / 2.0)
            want = np.sqrt(3.0 * 2.0) * cs[m + cs.size // 2]
            assert s == pytest.approx(want, abs=1e-12)

    def test_zero_beta_sinc(self):
        w = MtsfmWaveform(1.0, 1.0, (0.0,))
        cs = coefficients(w)
        f = np.linspace(-3, 3, 41)
        np.testing.assert_allclose(spectrum(w, cs, f), np.sinc(f), atol=1e-12)

    def test_matches_dense_dft(self):
        # zero-padded DFT of the sampled pulse approximates the continuous
        # transform on a 16x-oversampled frequency grid
        w = MtsfmWaveform(1.0, 2.0, (1.5, 0.8, 0.3))
        cs = coefficients(w)
        n = 1 << 10
        pad = 16 * n
        t = -0.5 + np.arange(n) / n
        dt = 1.0 / n
        x = np.sqrt(2.0) * np.exp(1j * phase(w, t))
        big = np.fft.fftshift(np.fft.fft(x, pad))
        f = np.fft.fftshift(np.fft.fftfreq(pad, dt))
        ref = dt * np.exp(1j * np.pi * f * w.duration) * big
        keep = np.abs(f) <= 2 * (cs.size // 2)
        model = spectrum(w, cs, f[keep])
        err = np.linalg.norm(model - ref[keep]) / np.linalg.norm(ref[keep])
        assert err <= 0.01


class TestEsdAndBandwidth:
    def test_zero_beta_all_energy_at_dc(self):
        grid = make_grid(10.0, 1.0)
        w = MtsfmWaveform(1.0, 2.0, (0.0,))
        esd = esd_on_grid(w, grid)
        assert esd.values[grid.half_order] == pytest.approx(2.0)
        assert integrate(esd) == pytest.approx(2.0, rel=1e-12)

    def test_parseval_with_tail(self):
        grid = make_grid(30.0, 1.0)
        w = MtsfmWaveform(1.0, 1.5, (2.0, 0.5))
        tail = 1.0 - np.sum(np.abs(coefficients(w)) ** 2)
        esd = esd_on_grid(w, grid)
        assert integrate(esd) + 1.5 * tail == pytest.approx(1.5, rel=1e-9)

    def test_bessel_esd_symmetry(self):
        grid = make_grid(20.0, 1.0)
        w = MtsfmWaveform(1.0, 1.0, (2.0,))
        esd = esd_on_grid(w, grid)
        h = grid.half_order
        for m in range(1, h + 1):
            assert esd.values[h + m] == pytest.approx(esd.values[h - m], abs=1e-12)
            assert esd.values[h + m] == pytest.approx(jv(m, 2.0) ** 2, abs=1e-9)

    def test_grid_spacing_must_match(self):
        grid = make_grid(10.0, 2.0)
        w = MtsfmWaveform(1.0, 1.0, (1.0,))
        with pytest.raises(ValueError):
            esd_on_grid(w, grid)

    def test_rms_bandwidth_flat(self):
        grid = make_grid(10.0, 1.0)
        from miwave import SpectralDensity

        esd = SpectralDensity(grid, np.ones(grid.num_bins))
        e = integrate(esd)
        # discrete second moment of m in [-5, 5]: mean of m^2 = 10
        expect = 2 * np.pi * np.sqrt(10.0)
        assert rms_bandwidth(esd, e) == pytest.approx(expect, rel=1e-12)

    def test_rms_bandwidth_dc_only(self):
        grid = make_grid(10.0, 1.0)
        from miwave import SpectralDensity

        vals = np.zeros(grid.num_bins)
        vals[grid.half_order] = 1.0
        assert rms_bandwidth(SpectralDensity(grid, vals), 1.0) == 0.0

    def test_refinement_oracle(self, notch_scenario):
        # grid quadrature vs the dense sinc-expansion periodogram
        from miwave import design_mi
        from miwave.fitting import solve_ofdm_coeffs

        design = design_mi(notch_scenario.with_energy(1.0))
        grid = notch_scenario.grid
        coarse = rms_bandwidth(design.esd, 1.0)
        # 10x-finer quadrature of the band-limited interpolant
        tgt = solve_ofdm_coeffs(design.esd, grid, 1.0)
        f = np.linspace(grid.bin_freqs[0], grid.bin_freqs[-1], 10 * grid.num_bins)
        interp = np.sinc(f[:, None] - grid.bin_indices[None, :]) @ tgt.c
        dens = interp**2  # T = 1
        second = np.trapezoid(f**2 * dens, f)
        fine = 2 * np.pi * np.sqrt(second / np.trapezoid(dens, f))
        # the interpolant's sinc tails carry a little f^2-weighted mass the
        # bin sum cannot see, so agreement is ~1% rather than exact
        assert coarse == pytest.approx(fine, rel=0.01)
