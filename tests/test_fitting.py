import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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
from miwave.mtsfm import phase

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

    def test_half_order_derived_from_c(self):
        tgt = OfdmTarget(np.arange(7.0), 1.0)
        assert tgt.half_order == 3 and tgt.c.tolist() == list(range(7))

    @pytest.mark.parametrize("c", [np.ones((3, 3)), np.ones(4), np.ones(0)])
    def test_target_rejects_2d_or_even_length(self, c):
        with pytest.raises(ValueError, match="1-D of odd size"):
            OfdmTarget(c, 1.0)

    def test_energy_bookkeeping(self, notch_scenario):
        design = design_mi(notch_scenario.with_energy(1.0))
        grid = notch_scenario.grid
        tgt = solve_ofdm_coeffs(design.esd, grid, integrate(design.esd))
        assert np.sum(tgt.c**2) == pytest.approx(integrate(design.esd), rel=1e-9)


def _loop_kappa(target):
    """Reference half-width: grow a centered slice one bin per side until
    it holds (1 - SUPPORT_TOL) of the coefficient energy."""
    power = target.c**2
    need = (1.0 - fitting.SUPPORT_TOL) * power.sum()
    h = target.half_order
    for kappa in range(h + 1):
        if power[h - kappa : h + kappa + 1].sum() >= need:
            return kappa
    return h


@st.composite
def _kappa_targets(draw):
    """Targets of 1 to 60 orders per side: drawn levels with zero bins and
    ties, all power on one edge bin, or DC only."""
    h = draw(st.integers(1, 60))
    shape = draw(st.sampled_from(["drawn", "left edge", "right edge", "dc"]))
    if shape == "drawn":
        levels = st.sampled_from([0.0, 0.5, 1.0, 2.0]) | st.floats(0.0, 10.0)
        c = draw(arrays(float, 2 * h + 1, elements=levels))
    else:
        c = np.zeros(2 * h + 1)
        c[{"left edge": 0, "right edge": 2 * h, "dc": h}[shape]] = draw(
            st.floats(0.1, 10.0)
        )
    return OfdmTarget(c, 1.0)


class TestSupportHalfwidth:
    def _delta_target(self, h, hot):
        c = np.zeros(2 * h + 1)
        c[h + hot] = 1.0
        return OfdmTarget(c, 1.0)

    def test_dc_only(self):
        assert support_halfwidth(self._delta_target(5, 0)) == 0

    def test_no_orders_beyond_dc(self):
        assert support_halfwidth(OfdmTarget(np.ones(1), 1.0)) == 0

    def test_uniform_support(self):
        c = np.zeros(21)
        c[10 - 5 : 10 + 6] = 1.0
        assert support_halfwidth(OfdmTarget(c, 1.0)) == 5

    @pytest.mark.parametrize("scale", [1e200, 1e-200, 1.0])
    def test_extreme_scales(self, scale):
        # c**2 would overflow at 1e200 and underflow to 0 at 1e-200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert support_halfwidth(OfdmTarget(np.full(3, scale), 1.0)) == 1

    def test_matches_brute_force(self, notch_scenario):
        design = design_mi(notch_scenario)
        grid = notch_scenario.grid
        tgt = solve_ofdm_coeffs(design.esd, grid, notch_scenario.energy)
        assert support_halfwidth(tgt) == _loop_kappa(tgt)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(tgt=_kappa_targets())
    def test_matches_loop(self, tgt):
        assert support_halfwidth(tgt) == _loop_kappa(tgt)


class TestObjective:
    def test_exact_match_is_zero(self):
        c = np.zeros(9)
        c[4] = np.sqrt(2.0)
        tgt = OfdmTarget(c, 2.0)
        f_val = objective_and_gradient(np.zeros((1, 3)), tgt, 6)[0][0]
        assert f_val == pytest.approx(0.0, abs=1e-20)

    def test_uniform_target_closed_form(self):
        l = 4
        n = 2 * l + 1
        e = 3.0
        c = np.full(n, np.sqrt(e / n))
        tgt = OfdmTarget(c, e)
        got = objective_and_gradient(np.zeros((1, 2)), tgt, l)[0][0]
        expect = e**2 * (1 - 1 / n) ** 2 + 2 * l * e**2 / n**2
        assert got == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("k_harm", [4, 8, 32])
    def test_gradient_matches_finite_differences(self, k_harm):
        rng = np.random.default_rng(23)
        c = rng.uniform(0, 1, 31)
        tgt = OfdmTarget(c / np.linalg.norm(c), 1.5)
        beta = rng.uniform(-0.8, 0.8, (1, k_harm))
        _, grad = objective_and_gradient(beta, tgt, 20)
        h = 1e-6
        for k in range(k_harm):
            e_k = np.zeros((1, k_harm))
            e_k[0, k] = h
            fd = (
                objective_and_gradient(beta + e_k, tgt, 20)[0][0]
                - objective_and_gradient(beta - e_k, tgt, 20)[0][0]
            ) / (2 * h)
            assert grad[0, k] == pytest.approx(fd, rel=1e-4, abs=1e-10)

    @staticmethod
    def _dft_of_public_phase(beta, target, order_bound):
        """The public phase's samples x on the kernel's n nodes
        t_i = -1/2 + i/n, their DFT X and the target power at bin m mod n."""
        n = mtsfm._fft_size(max(order_bound, target.half_order))
        t = -0.5 + np.arange(n) / n
        x = np.exp(1j * phase(MtsfmWaveform(1.0, 1.0, tuple(beta)), t))
        t_pow = np.zeros(n)
        m = np.arange(-target.half_order, target.half_order + 1)
        t_pow[m % n] = target.c**2
        return x, np.fft.fft(x), t_pow

    @classmethod
    def _loop_reference(cls, beta, target, order_bound):
        """The DFT objective and its adjoint gradient one harmonic at a
        time, in the kernel's arithmetic order."""
        x, big_x, t_pow = cls._dft_of_public_phase(beta, target, order_bound)
        n = x.size
        resid = target.energy / n**2 * (big_x.real**2 + big_x.imag**2) - t_pow
        adj = np.fft.ifft(resid * big_x)
        im = x.imag * adj.real - x.real * adj.imag
        # a column of the (n, K) table, strided as the kernel's einsum reads it
        table = mtsfm._phase_table(len(beta), n)
        grad = np.empty(len(beta))
        for k in range(1, len(beta) + 1):
            grad[k - 1] = 4.0 * target.energy / n * np.einsum("i,i->", table[:, k - 1], im)
        return float(np.sum(resid**2)), grad

    @classmethod
    def _shift_map_gradient(cls, beta, target, order_bound):
        """The gradient by the circular identity dX_j / d beta_k =
        -(i/2)(-1)^k (X_{j-k} + X_{j+k}), indices mod n, which holds
        exactly for the DFT of samples on the nodes -1/2 + i/n."""
        _, big_x, t_pow = cls._dft_of_public_phase(beta, target, order_bound)
        n = big_x.size
        resid = target.energy * np.abs(big_x) ** 2 / n**2 - t_pow
        j = np.arange(n)
        k = np.arange(1, len(beta) + 1)[:, None]
        d_x = -0.5j * (-1.0) ** k * (big_x[(j - k) % n] + big_x[(j + k) % n])
        d_pow = 2.0 * np.real(np.conj(big_x) * d_x)
        return 2.0 * target.energy / n**2 * np.sum(resid * d_pow, axis=-1)

    @pytest.mark.parametrize("order_bound", [9, 15, 40])
    @pytest.mark.parametrize("k_harm", [1, 2, 8, 32])
    def test_equals_loop_reference_bit_for_bit(self, k_harm, order_bound):
        rng = np.random.default_rng(100 * k_harm + order_bound)
        c = rng.uniform(0, 1, 31)
        tgt = OfdmTarget(c / np.linalg.norm(c), 1.5)
        for _ in range(5):
            beta = rng.uniform(-1.5, 1.5, k_harm) / np.sqrt(k_harm)
            f_val, grad = objective_and_gradient(beta[None], tgt, order_bound)
            f_ref, grad_ref = self._loop_reference(beta, tgt, order_bound)
            assert f_val[0] == f_ref
            assert grad[0].tolist() == grad_ref.tolist()

    @pytest.mark.parametrize("order_bound", [9, 15, 40])
    @pytest.mark.parametrize("k_harm", [1, 2, 8, 32])
    def test_adjoint_equals_shift_map_gradient(self, k_harm, order_bound):
        rng = np.random.default_rng(100 * k_harm + order_bound)
        c = rng.uniform(0, 1, 31)
        tgt = OfdmTarget(c / np.linalg.norm(c), 1.5)
        for _ in range(5):
            beta = rng.uniform(-1.5, 1.5, k_harm) / np.sqrt(k_harm)
            _, grad = objective_and_gradient(beta[None], tgt, order_bound)
            want = self._shift_map_gradient(beta, tgt, order_bound)
            assert np.abs(grad[0] - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("n_rows", [1, 7, 60])
    def test_batch_rows_equal_single_rows(self, n_rows):
        # 300 rows: a complex product with a conjugate once rounded the
        # rows of a small batch differently from those of a large one
        rng = np.random.default_rng(n_rows)
        c = rng.uniform(0, 1, 31)
        tgt = OfdmTarget(c / np.linalg.norm(c), 1.5)
        betas = rng.uniform(-1.5, 1.5, (300, 8)) / np.sqrt(8)
        f_all, g_all = objective_and_gradient(betas, tgt, 20)
        assert f_all.shape == (300,) and g_all.shape == (300, 8)
        # the last n_rows rows alone, each at another place in its batch
        f_val, grad = objective_and_gradient(betas[-n_rows:], tgt, 20)
        assert f_val.tolist() == f_all[-n_rows:].tolist()
        assert grad.tolist() == g_all[-n_rows:].tolist()
        for row, beta in enumerate(betas[-n_rows:]):
            f_one, g_one = objective_and_gradient(beta[None], tgt, 20)
            assert f_one.tolist() == [f_val[row]]
            assert g_one.tolist() == [grad[row].tolist()]

    @pytest.mark.parametrize("half_order", [31, 32, 40])
    def test_bins_hold_every_target_order(self, half_order):
        # order_bound 6 alone gives 64 DFT bins, too few for 65 orders or
        # more; the bins are sized by the larger of the bound and half-order
        rng = np.random.default_rng(half_order)
        tgt = OfdmTarget(rng.uniform(0, 1, 2 * half_order + 1), 1.0)
        beta = rng.uniform(-1, 1, (3, 4))
        low = objective_and_gradient(beta, tgt, 6)
        high = objective_and_gradient(beta, tgt, half_order)
        assert [a.tolist() for a in low] == [a.tolist() for a in high]

    def test_every_target_order_counts(self):
        # beta = 0 is a tone at DC, so F = (E - c_0^2)^2 + sum_{m != 0} c_m^4
        # over all 81 target orders, though order_bound is 6
        c = np.random.default_rng(3).uniform(0, 1, 81)
        tgt = OfdmTarget(c, 2.0)
        got = objective_and_gradient(np.zeros((1, 2)), tgt, 6)[0][0]
        want = (2.0 - c[40] ** 2) ** 2 + np.sum(np.delete(c, 40) ** 4)
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_beta_rejected(self, bad):
        tgt = OfdmTarget(np.ones(3) / np.sqrt(3), 1.0)
        with pytest.raises(ValueError):
            objective_and_gradient(np.array([[0.3, bad]]), tgt, 4)

    def test_single_row_must_be_a_batch(self):
        tgt = OfdmTarget(np.ones(3) / np.sqrt(3), 1.0)
        with pytest.raises(ValueError, match="batch"):
            objective_and_gradient(np.array([0.3, 0.1]), tgt, 4)

    def test_cached_tables_are_read_only(self):
        tgt = OfdmTarget(np.ones(3) / np.sqrt(3), 1.0)
        objective_and_gradient(np.array([[0.3, 0.1, 0.2]]), tgt, 6)
        table = mtsfm._phase_table(3, mtsfm._fft_size(6))
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0


class TestFit:
    def test_input_validation(self, notch_scenario):
        tgt = OfdmTarget(np.ones(3) / np.sqrt(3), 1.0)
        with pytest.raises(ValueError):
            fit(tgt, 0, 0.2, 1, 0, scenario=notch_scenario)
        with pytest.raises(ValueError):
            fit(tgt, 2, 1.5, 1, 0, scenario=notch_scenario)
        with pytest.raises(ValueError):
            fit(tgt, 2, 0.2, 0, 0, scenario=notch_scenario)

    @pytest.mark.parametrize(
        "param, value", [("k_harmonics", 2.5), ("n_starts", 2.5), ("seed", 1.5)]
    )
    def test_refuses_non_integer_counts(self, param, value, notch_scenario):
        # seed=1.5 used to run as seed 1
        args = dict(k_harmonics=2, delta=0.2, n_starts=1, seed=0)
        tgt = OfdmTarget(np.ones(3) / np.sqrt(3), 1.0)
        with pytest.raises(ValueError, match=f"{param} must be an integer, got {value}"):
            fit(tgt, **{**args, param: value}, scenario=notch_scenario)

    def test_deterministic(self, notch_scenario):
        design = design_mi(notch_scenario)
        grid = notch_scenario.grid
        tgt = solve_ofdm_coeffs(design.esd, grid, notch_scenario.energy)
        a = fit(tgt, 4, 0.2, 3, 7, scenario=notch_scenario)
        b = fit(tgt, 4, 0.2, 3, 7, scenario=notch_scenario)
        assert a == b

    def test_planted_recovery_single_case(self, notch_scenario):
        beta_true = (1.1, 0.4)
        e = 2.0
        w = MtsfmWaveform(1.0, e, beta_true)
        cs = coefficients(w)
        tgt = OfdmTarget(np.sqrt(e) * np.abs(cs), e)
        results = fit(tgt, 2, 0.9, 10, 0, scenario=notch_scenario)
        assert min(r.objective for r in results) <= 1e-6 * e**2
        # the reported objective is the optimizer's own value at beta, at
        # the fit's order bound
        hi = (1.0 + 0.9) * support_halfwidth(tgt)
        order_bound = max(tgt.half_order, int(np.ceil(hi)) + 16)
        for r in results:
            f_val = objective_and_gradient(np.array([r.beta]), tgt, order_bound)[0]
            assert r.objective == f_val[0]

    @pytest.mark.parametrize("name", ["clutter_notch", "clutter_peak"])
    def test_start_does_not_depend_on_n_starts(self, name):
        # all searches run in one batch, yet start i is bit-for-bit the
        # same whether 5 or 50 starts share it; 50 starts put up to 150
        # rows in a call, enough for rows that round with the batch size
        # to show
        cfg = load_config(CONFIG_DIR / f"{name}.yaml")
        for energy in cfg.energy_list[:2]:
            scenario = cfg.scenario(energy)
            esd = design_mi(scenario).esd
            tgt = solve_ofdm_coeffs(esd, scenario.grid, integrate(esd))
            runs = [
                fit(tgt, cfg.k_harmonics, cfg.delta, n, 0, scenario=scenario)
                for n in (5, 50)
            ]
            few, many = (sorted(run, key=lambda r: r.start_index) for run in runs)
            assert few == many[:5]

    def test_batch_rows_equal_rows_alone(self):
        # 12 searches drawn as fit draws them on the shipped notch scene at
        # E = 2: they end on several passes, and each stores 27 to 45
        # curvature pairs, more than MEMORY, so the slot shift runs. Row 0
        # starts on the slab's upper bound, where its gradient points out
        # of the slab, so its first coordinate starts frozen
        cfg = load_config(CONFIG_DIR / "clutter_notch.yaml")
        scenario = cfg.scenario(2.0)
        esd = design_mi(scenario).esd
        tgt = solve_ofdm_coeffs(esd, scenario.grid, integrate(esd))
        kappa = support_halfwidth(tgt)
        order_bound = max(tgt.half_order, int(np.ceil((1.0 + cfg.delta) * kappa)) + 16)
        k_vec = np.arange(1.0, cfg.k_harmonics + 1)
        h = fitting._slab_reflection(k_vec)
        k_norm = np.linalg.norm(k_vec)
        lo, hi = np.array([1.0 - cfg.delta, 1.0 + cfg.delta]) * kappa / k_norm
        rng = np.random.default_rng(0)
        draws = [
            fitting._draw_start(rng, cfg.k_harmonics, kappa, cfg.delta) for _ in range(12)
        ]
        x = fitting._rows_times(np.array(draws), h)
        x[0, 0] = hi
        grad = objective_and_gradient(fitting._rows_times(x[:1], h), tgt, order_bound)[1]
        assert fitting._rows_times(grad, h)[0, 0] < 0

        sizes = []

        def spy(beta):
            sizes.append(len(beta))
            return objective_and_gradient(beta, tgt, order_bound)

        x_all, f_all, status_all = fitting._search(x, lo, hi, h, spy)
        # a batch size for each pass on which some rows ended but not all
        assert len(set(sizes)) >= 3
        for i in range(len(x)):
            sizes.clear()
            x_one, f_one, status_one = fitting._search(x[i : i + 1], lo, hi, h, spy)
            # more than MEMORY pairs take more than MEMORY + 1 passes
            assert len(sizes) > fitting.MEMORY + 1
            np.testing.assert_array_equal(x_one[0], x_all[i])
            np.testing.assert_array_equal(f_one[0], f_all[i])
            assert status_one == [status_all[i]]

    def test_line_search_failure_is_abnormal(self, monkeypatch, notch_scenario):
        # no step can meet an Armijo constant above 1, so every search ends
        # in its first line search, at its start
        monkeypatch.setattr(fitting, "ARMIJO_C1", 1e6)
        w = MtsfmWaveform(1.0, 2.0, (1.1, 0.4))
        cs = coefficients(w)
        tgt = OfdmTarget(np.sqrt(2.0) * np.abs(cs), 2.0)
        for r in fit(tgt, 2, 0.9, 3, 0, scenario=notch_scenario):
            assert r.status.startswith("ABNORMAL: ")
            assert not r.converged

    def test_misses_in_a_row_end_a_search(self):
        # an objective scripted call by call: the start, 20 trial points
        # that miss, one accepted point, then misses for ever; the search
        # ends after LINE_SEARCH_STEPS misses in a row, not in total
        script = [1.0] + [2.0] * 20 + [0.5]
        calls = []

        def scripted(beta):
            f = script[len(calls)] if len(calls) < len(script) else 2.0
            calls.append(f)
            return np.full(len(beta), f), np.ones_like(beta)

        _, f, status = fitting._search(np.zeros((1, 2)), -1.0, 1.0, np.eye(2), scripted)
        assert status == [fitting.LINE_SEARCH_FAILED]
        assert f.tolist() == [0.5]
        assert len(calls) == len(script) + fitting.LINE_SEARCH_STEPS

    def test_first_stop_rule_names_the_status(self, monkeypatch):
        # four rows scripted pass by pass, each tagged by its second
        # coordinate, which no step moves since the gradient has none; rows
        # 0-2 end on the same accepted pass, with MAX_ITER = 1 reached by
        # all three: gradient and reduction (0), reduction alone (1) and
        # neither (2). Row 3 misses until its line search fails
        scripts = {
            0: [(1.0, 1e-11), (1.0, 0.0)],
            1: [(1.0, 1e-11), (1.0, 1e-11)],
            2: [(1.0, 1.0), (0.5, 1.0)],
            3: [(1.0, 1.0)],
        }
        passes = {tag: 0 for tag in scripts}

        def scripted(beta):
            f, g = np.empty(len(beta)), np.zeros_like(beta)
            for i, tag in enumerate(beta[:, 1].astype(int).tolist()):
                # past its script a row misses: f = 2 is above every start
                script, k = scripts[tag], passes[tag]
                f[i], g[i, 0] = script[k] if k < len(script) else (2.0, 1.0)
                passes[tag] = k + 1
            return f, g

        monkeypatch.setattr(fitting, "MAX_ITER", 1)
        starts = np.array([[0.0, tag] for tag in scripts])
        x, f, status = fitting._search(starts, -10.0, 10.0, np.eye(2), scripted)
        assert status == [
            fitting.CONVERGED_GRADIENT, fitting.CONVERGED_REDUCTION,
            fitting.ITERATION_LIMIT, fitting.LINE_SEARCH_FAILED,
        ]
        assert f.tolist() == [1.0, 1.0, 0.5, 1.0]
        assert x[:, 1].tolist() == list(scripts)
        assert passes == {0: 2, 1: 2, 2: 2, 3: 1 + fitting.LINE_SEARCH_STEPS}

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
    def test_sorted_by_d2_ties_to_the_lower_start(self, k_harm, notch_scenario):
        # a DC-only target has kappa = 0; with K = 1 every variable is
        # fixed, so every start lands on the same point and ties in d2
        c = np.zeros(11)
        c[5] = 1.0
        tgt = OfdmTarget(c, 1.0)
        results = fit(tgt, k_harm, 0.5, 5, 0, scenario=notch_scenario)
        keys = [(-r.d_squared_achieved, r.start_index) for r in results]
        assert keys == sorted(keys)
        if k_harm == 1:
            d2 = {r.d_squared_achieved for r in results}
            assert len(d2) == 1 and np.isfinite(d2.pop())
            assert [r.start_index for r in results] == list(range(5))

    def test_every_engine_call_reaches_the_public_objective(
        self, monkeypatch, notch_scenario
    ):
        # a caller counts the engine's evaluations by wrapping the public
        # objective_and_gradient before a fit, so the objective that fit
        # hands to _search must call the name the module holds then, not a
        # function bound at import
        public, engine = [], []

        def counted(beta, target, order_bound):
            public.append(len(beta))
            return objective_and_gradient(beta, target, order_bound)

        search = fitting._search

        def watched(x, lo, hi, h, objective):
            def seen(beta):
                engine.append(len(beta))
                return objective(beta)

            return search(x, lo, hi, h, seen)

        monkeypatch.setattr(fitting, "objective_and_gradient", counted)
        monkeypatch.setattr(fitting, "_search", watched)
        design = design_mi(notch_scenario)
        tgt = solve_ofdm_coeffs(design.esd, notch_scenario.grid, notch_scenario.energy)
        fit(tgt, 4, 0.2, 3, 0, scenario=notch_scenario)
        assert public and public == engine
