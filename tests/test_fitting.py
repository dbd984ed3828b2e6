import warnings
from pathlib import Path

import numpy as np
import pytest

from miwave import (
    MtsfmWaveform,
    OfdmTarget,
    SpectralDensity,
    coefficients,
    design_mi,
    detection_metric,
    fit,
    integrate,
    make_grid,
    solve_ofdm_coeffs,
    support_halfwidth,
)
from miwave import fitting, mtsfm
from miwave.experiment import load_config
from miwave.fitting import objective_and_gradient

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


class TestSolveOfdmCoeffs:
    def test_power_times_duration_is_esd(self):
        # c_m^2 * T == E_s(f_m): the sinc carriers are orthonormal on the grid
        grid = make_grid(8.0, 2.5)
        vals = np.random.default_rng(5).uniform(0.0, 3.0, grid.num_bins)
        tgt = solve_ofdm_coeffs(SpectralDensity(grid, vals), grid, 1.0)
        np.testing.assert_allclose(tgt.c**2 * grid.duration, vals, rtol=1e-15)

    def test_flat_esd_uniform_split(self):
        grid = make_grid(8.0, 1.0)
        from miwave import SpectralDensity

        e = 2.0
        flat = SpectralDensity(
            grid, np.full(grid.num_bins, e / (grid.num_bins * grid.spacing))
        )
        tgt = solve_ofdm_coeffs(flat, grid, e)
        np.testing.assert_allclose(tgt.c, tgt.c[0], rtol=1e-12)
        assert np.sum(tgt.c**2) == pytest.approx(e, rel=1e-12)

    def test_single_bin(self):
        grid = make_grid(8.0, 1.0)
        from miwave import SpectralDensity

        vals = np.zeros(grid.num_bins)
        vals[2] = 1.0
        tgt = solve_ofdm_coeffs(SpectralDensity(grid, vals), grid, 1.0)
        assert np.count_nonzero(tgt.c) == 1
        assert tgt.c[2] == 1.0

    def test_energy_bookkeeping(self, notch_scenario):
        design = design_mi(notch_scenario.with_energy(1.0))
        grid = notch_scenario.grid
        tgt = solve_ofdm_coeffs(design.esd, grid, integrate(design.esd))
        assert np.sum(tgt.c**2) == pytest.approx(integrate(design.esd), rel=1e-9)


class TestSupportHalfwidth:
    def _delta_target(self, h, hot):
        c = np.zeros(2 * h + 1)
        c[h + hot] = 1.0
        return OfdmTarget(c, h, 1.0)

    def test_dc_only(self):
        assert support_halfwidth(self._delta_target(5, 0)) == 0

    def test_uniform_support(self):
        c = np.zeros(21)
        c[10 - 5 : 10 + 6] = 1.0
        assert support_halfwidth(OfdmTarget(c, 10, 1.0)) == 5

    def test_matches_brute_force(self, notch_scenario):
        design = design_mi(notch_scenario)
        grid = notch_scenario.grid
        tgt = solve_ofdm_coeffs(design.esd, grid, notch_scenario.energy)
        kappa = support_halfwidth(tgt)
        power = tgt.c**2
        h = tgt.half_order
        want = next(
            k
            for k in range(h + 1)
            if power[h - k : h + k + 1].sum() >= 0.99 * power.sum()
        )
        assert kappa == want


class TestObjective:
    def test_exact_match_is_zero(self):
        c = np.zeros(9)
        c[4] = np.sqrt(2.0)
        tgt = OfdmTarget(c, 4, 2.0)
        f_val = objective_and_gradient(np.zeros(3), tgt, 6)[0]
        assert f_val == pytest.approx(0.0, abs=1e-20)

    def test_uniform_target_closed_form(self):
        l = 4
        n = 2 * l + 1
        e = 3.0
        c = np.full(n, np.sqrt(e / n))
        tgt = OfdmTarget(c, l, e)
        got = objective_and_gradient(np.zeros(2), tgt, l)[0]
        expect = e**2 * (1 - 1 / n) ** 2 + 2 * l * e**2 / n**2
        assert got == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("k_harm", [4, 8, 32])
    def test_gradient_matches_finite_differences(self, k_harm):
        rng = np.random.default_rng(23)
        c = rng.uniform(0, 1, 31)
        tgt = OfdmTarget(c / np.linalg.norm(c), 15, 1.5)
        beta = rng.uniform(-0.8, 0.8, k_harm)
        _, grad = objective_and_gradient(beta, tgt, 20)
        h = 1e-6
        for k in range(k_harm):
            e_k = np.zeros(k_harm)
            e_k[k] = h
            fd = (
                objective_and_gradient(beta + e_k, tgt, 20)[0]
                - objective_and_gradient(beta - e_k, tgt, 20)[0]
            ) / (2 * h)
            assert grad[k] == pytest.approx(fd, rel=1e-4, abs=1e-10)

    @staticmethod
    def _loop_reference(beta, target, order_bound):
        """The objective from the public coefficient API and one gradient
        component per harmonic, in the same arithmetic order."""
        k_max = len(beta)
        w = MtsfmWaveform(1.0, 1.0, tuple(beta))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a short truncation is the point
            ext = coefficients(w, order_bound + k_max).coeffs
        center = order_bound + k_max
        m = np.arange(-order_bound, order_bound + 1)
        c = ext[m + center]
        t_pow = np.zeros(2 * order_bound + 1)
        lo = min(order_bound, target.half_order)
        inner = np.arange(-lo, lo + 1)
        t_pow[inner + order_bound] = target.c[inner + target.half_order] ** 2
        resid = target.energy * np.abs(c) ** 2 - t_pow
        grad = np.empty(k_max)
        for k in range(1, k_max + 1):
            shift = ext[m - k + center] + ext[m + k + center]
            du = np.imag(np.conj(c) * shift)
            grad[k - 1] = 2.0 * target.energy * np.sum(resid * du)
        return float(np.sum(resid**2)), grad

    @pytest.mark.parametrize("order_bound", [9, 15, 40])
    @pytest.mark.parametrize("k_harm", [1, 2, 8, 32])
    def test_equals_loop_reference_bit_for_bit(self, k_harm, order_bound):
        rng = np.random.default_rng(100 * k_harm + order_bound)
        c = rng.uniform(0, 1, 31)
        tgt = OfdmTarget(c / np.linalg.norm(c), 15, 1.5)
        for _ in range(5):
            beta = rng.uniform(-1.5, 1.5, k_harm) / np.sqrt(k_harm)
            f_val, grad = objective_and_gradient(beta, tgt, order_bound)
            f_ref, grad_ref = self._loop_reference(beta, tgt, order_bound)
            assert f_val == f_ref
            assert grad.tolist() == grad_ref.tolist()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_beta_rejected(self, bad):
        tgt = OfdmTarget(np.ones(3) / np.sqrt(3), 1, 1.0)
        with pytest.raises(ValueError):
            objective_and_gradient(np.array([0.3, bad]), tgt, 4)

    def test_cached_tables_are_read_only(self):
        tgt = OfdmTarget(np.ones(3) / np.sqrt(3), 1, 1.0)
        objective_and_gradient(np.array([0.3, 0.1, 0.2]), tgt, 6)
        cached = [
            mtsfm._phase_table(1.0, 3, mtsfm._fft_size(9)),
            *mtsfm._order_fold(9),
            fitting._shift_maps(3, 6),
        ]
        for table in cached:
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0


class TestFit:
    def test_input_validation(self):
        tgt = OfdmTarget(np.ones(3) / np.sqrt(3), 1, 1.0)
        with pytest.raises(ValueError):
            fit(tgt, 0, 0.2, 1, 0)
        with pytest.raises(ValueError):
            fit(tgt, 2, 1.5, 1, 0)
        with pytest.raises(ValueError):
            fit(tgt, 2, 0.2, 0, 0)

    def test_deterministic(self, notch_scenario):
        design = design_mi(notch_scenario)
        grid = notch_scenario.grid
        tgt = solve_ofdm_coeffs(design.esd, grid, notch_scenario.energy)
        a = fit(tgt, 4, 0.2, 3, 7, scenario=notch_scenario)
        b = fit(tgt, 4, 0.2, 3, 7, scenario=notch_scenario)
        assert a == b

    def test_planted_recovery_single_case(self):
        beta_true = (1.1, 0.4)
        e = 2.0
        w = MtsfmWaveform(1.0, e, beta_true)
        cs = coefficients(w)
        tgt = OfdmTarget(np.sqrt(e) * np.abs(cs.coeffs), cs.order_bound, e)
        results = fit(tgt, 2, 0.9, 10, 0, order_bound=cs.order_bound)
        assert results[0].objective <= 1e-6 * e**2
        # the reported objective is the optimizer's own value at beta
        for r in results:
            f_val = objective_and_gradient(r.beta, tgt, cs.order_bound)[0]
            assert r.objective == f_val

    @staticmethod
    def _assert_every_start_in_slab(results, kappa, delta):
        # the slab is a box bound of the optimizer, so it holds to rounding
        slack = 1e-12 * kappa
        for r in results:
            assert r.converged
            assert (1 - delta) * kappa - slack <= r.constraint_value
            assert r.constraint_value <= (1 + delta) * kappa + slack
            assert r.objective >= 0

    def test_constraint_honored_when_converged(self, notch_scenario):
        design = design_mi(notch_scenario)
        grid = notch_scenario.grid
        tgt = solve_ofdm_coeffs(design.esd, grid, notch_scenario.energy)
        results = fit(tgt, 4, 0.2, 10, 1, scenario=notch_scenario)
        self._assert_every_start_in_slab(results, support_halfwidth(tgt), 0.2)

    def test_constraint_honored_on_shipped_config(self):
        scenario = load_config(CONFIG_DIR / "clutter_notch.yaml").scenario(2.0)
        esd = design_mi(scenario).esd
        tgt = solve_ofdm_coeffs(esd, scenario.grid, integrate(esd))
        results = fit(tgt, 8, 0.2, 20, 0, scenario=scenario)
        self._assert_every_start_in_slab(results, support_halfwidth(tgt), 0.2)

    def test_d2_never_beats_mi_bound(self, notch_scenario):
        design = design_mi(notch_scenario)
        grid = notch_scenario.grid
        d2_star = detection_metric(design.esd, notch_scenario)
        tgt = solve_ofdm_coeffs(design.esd, grid, notch_scenario.energy)
        results = fit(tgt, 4, 0.2, 10, 2, scenario=notch_scenario)
        for r in results:
            assert r.d_squared_achieved <= d2_star + 1e-9

    @pytest.mark.parametrize("k_harm", [1, 2])
    def test_sorted_by_objective_without_scenario(self, k_harm):
        # a DC-only target has kappa = 0; with K = 1 every variable is fixed
        c = np.zeros(11)
        c[5] = 1.0
        tgt = OfdmTarget(c, 5, 1.0)
        results = fit(tgt, k_harm, 0.5, 5, 0)
        objs = [r.objective for r in results]
        assert objs == sorted(objs)
