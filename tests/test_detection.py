import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from miwave import detection
from miwave import (
    Scenario,
    SpectralDensity,
    analytic_roc,
    design_mi,
    detection_metric,
    make_grid,
    monte_carlo_roc,
)
from miwave.experiment import load_config

from conftest import roc_deviations

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _flat_scenario(grid, noise_level=1.0, clutter_level=0.0, var_a=1.0, energy=1.0):
    noise = SpectralDensity(grid, np.full(grid.num_bins, noise_level))
    clutter = SpectralDensity(grid, np.full(grid.num_bins, clutter_level))
    return Scenario(noise, clutter, var_a, energy)


class TestDetectionMetric:
    def test_flat_clutter_free(self):
        # flat ESD E/W over the covered band, no clutter: d^2 = sigma_A^2*E/n0
        grid = make_grid(10.0, 1.0)
        sc = _flat_scenario(grid, noise_level=0.5, energy=3.0)
        covered = grid.num_bins * grid.spacing
        esd = SpectralDensity(grid, np.full(grid.num_bins, 3.0 / covered))
        assert detection_metric(esd, sc) == pytest.approx(3.0 / 0.5, rel=1e-12)

    def test_zero_esd(self):
        grid = make_grid(10.0, 1.0)
        sc = _flat_scenario(grid)
        esd = SpectralDensity(grid, np.zeros(grid.num_bins))
        assert detection_metric(esd, sc) == 0.0

    def test_clutter_saturation(self):
        # huge energy with clutter h0: d^2 -> sigma_A^2 * covered_band / h0
        grid = make_grid(10.0, 1.0)
        h0 = 0.25
        sc = _flat_scenario(grid, clutter_level=h0, energy=1e6)
        covered = grid.num_bins * grid.spacing
        esd = SpectralDensity(grid, np.full(grid.num_bins, 1e6 / covered))
        assert detection_metric(esd, sc) == pytest.approx(covered / h0, rel=0.01)

    def test_monotone_in_esd_without_clutter(self):
        grid = make_grid(10.0, 1.0)
        sc = _flat_scenario(grid)
        rng = np.random.default_rng(5)
        v = rng.uniform(0, 1, grid.num_bins)
        lo = detection_metric(SpectralDensity(grid, v), sc)
        hi = detection_metric(SpectralDensity(grid, v + 0.3), sc)
        assert hi > lo

    def test_grid_mismatch(self):
        sc = _flat_scenario(make_grid(10.0, 1.0))
        other = make_grid(12.0, 1.0)
        with pytest.raises(ValueError):
            detection_metric(SpectralDensity(other, np.ones(other.num_bins)), sc)


class TestAnalyticRoc:
    def test_no_discrimination(self):
        assert analytic_roc(0.0, [0.1]) == [(0.1, pytest.approx(0.1))]

    def test_unit_metric(self):
        assert analytic_roc(1.0, [0.01])[0][1] == pytest.approx(0.1)

    def test_perfect_limit(self):
        assert analytic_roc(1e6, [0.01])[0][1] == pytest.approx(1.0, abs=1e-4)

    def test_monotone_in_p_fa_and_d2(self):
        pairs = analytic_roc(2.0, [0.001, 0.01, 0.1, 0.5])
        p_d = [p for _, p in pairs]
        assert p_d == sorted(p_d)
        better = analytic_roc(5.0, [0.01])[0][1]
        assert better > analytic_roc(2.0, [0.01])[0][1]

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            analytic_roc(-1.0, [0.1])
        with pytest.raises(ValueError):
            analytic_roc(1.0, [0.0])


def _full_array_roc(esd, scenario, trials, seed, p_fa_grid):
    """Reference: every (trials x weighted bins) sample held at once, for
    the bin spectrum s = sqrt(ESD). Only bins with a nonzero weight are
    drawn. Each one's clutter plus noise h*s + n is one
    CN(0, T*(P_h|s|^2 + P_n)) draw. Block b of ``_BLOCK_TRIALS`` trials
    has its own stream default_rng(SeedSequence(seed, spawn_key=(b,))),
    which gives a (rows x 2*weighted bins) standard-normal block, real and
    imaginary parts alternating, then the rows' amplitudes, real and
    imaginary parts alternating."""
    T = scenario.grid.duration
    p_h, p_n = scenario.channel_psd.values, scenario.noise_psd.values
    s = np.sqrt(esd.values)
    weight = np.conj(s) / (p_h * np.abs(s) ** 2 + p_n)
    weighted = weight != 0
    s, weight, p_h, p_n = s[weighted], weight[weighted], p_h[weighted], p_n[weighted]
    z_blocks, amp_blocks = [], []
    for b, lo in enumerate(range(0, trials, detection._BLOCK_TRIALS)):
        rows = min(detection._BLOCK_TRIALS, trials - lo)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b,)))
        z_blocks.append(rng.standard_normal((rows, 2 * s.size)))
        amp_blocks.append(rng.standard_normal((rows, 2)))
    z, a = np.concatenate(z_blocks), np.concatenate(amp_blocks)
    z_re, z_im = z[:, 0::2], z[:, 1::2]
    x0 = np.sqrt(T * (p_h * np.abs(s) ** 2 + p_n) / 2.0) * (z_re + 1j * z_im)
    amp = a[:, :1] + 1j * a[:, 1:]
    x1 = np.sqrt(scenario.target_variance / 2.0) * amp * s + x0
    stat0 = np.abs(x0 @ weight) ** 2
    stat1 = np.abs(x1 @ weight) ** 2
    thresholds = np.quantile(stat0, 1.0 - np.asarray(p_fa_grid))
    p_fa = np.mean(stat0[:, None] > thresholds, axis=0)
    p_d = np.mean(stat1[:, None] > thresholds, axis=0)
    return thresholds, p_fa, p_d


def _colored_case(band_width, duration=1.0, sparse=False):
    # nonzero, bin-varying clutter and a bin-varying ESD; a sparse ESD is
    # zero on a seeded set of bins that holds DC and both band edges, as
    # water-filling leaves the bins where interference is strongest empty
    grid = make_grid(band_width, duration)
    n = grid.num_bins
    rng = np.random.default_rng(n)
    noise = SpectralDensity(grid, rng.uniform(0.2, 1.0, n))
    clutter = SpectralDensity(grid, rng.uniform(0.1, 2.0, n))
    sc = Scenario(noise, clutter, 1.5, 1.0)
    values = rng.uniform(0.0, 1.0, n) ** 2
    if sparse:
        empty = np.r_[0, n // 2, n - 1, rng.choice(n, n // 2, replace=False)]
        values[empty] = 0.0
    return SpectralDensity(grid, values), sc


# (band_width, sparse) for _colored_case; the dense cases keep their ids
COLORED_CASES = pytest.mark.parametrize(
    "band_width, sparse",
    [(10.0, False), (100.0, False), (10.0, True), (100.0, True)],
    ids=["10.0", "100.0", "10.0-sparse", "100.0-sparse"],
)


class TestMonteCarlo:
    def test_rejects_small_trials(self):
        grid = make_grid(4.0, 1.0)
        sc = _flat_scenario(grid)
        with pytest.raises(ValueError):
            monte_carlo_roc(SpectralDensity(grid, np.ones(grid.num_bins)), sc, 10, 0)

    @pytest.mark.parametrize("trials", [20000.0, "20000", True, None])
    def test_rejects_non_integer_trials(self, trials):
        grid = make_grid(4.0, 1.0)
        sc = _flat_scenario(grid)
        with pytest.raises(ValueError, match="trials must be an integer"):
            monte_carlo_roc(SpectralDensity(grid, np.ones(grid.num_bins)), sc, trials, 0)

    @pytest.mark.parametrize("seed", [1.5, -1])
    def test_rejects_bad_seed_by_name(self, seed):
        # numpy's own errors for these named no parameter
        grid = make_grid(4.0, 1.0)
        with pytest.raises(ValueError, match="seed must be"):
            monte_carlo_roc(SpectralDensity(grid, np.ones(grid.num_bins)), _flat_scenario(grid), 2000, seed)

    def test_accepts_numpy_integer_trials(self):
        grid = make_grid(4.0, 1.0)
        mc = monte_carlo_roc(SpectralDensity(grid, np.ones(grid.num_bins)), _flat_scenario(grid), np.int64(2000), 0)
        assert type(mc.trials) is int and mc.trials == 2000

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_spectrum(self, bad):
        # the ESD's own constructor refuses the value before any draw
        grid = make_grid(4.0, 1.0)
        values = np.ones(grid.num_bins)
        values[1] = bad
        with pytest.raises(ValueError, match="finite"):
            monte_carlo_roc(SpectralDensity(grid, values), _flat_scenario(grid), 2000, 0)

    def test_rejects_esd_on_another_grid(self):
        grid, other = make_grid(4.0, 1.0), make_grid(6.0, 1.0)
        esd = SpectralDensity(other, np.ones(other.num_bins))
        with pytest.raises(ValueError, match="ESD and scenario must share a grid"):
            monte_carlo_roc(esd, _flat_scenario(grid), 2000, 0)

    def test_analytic_column_is_analytic_roc(self):
        esd, sc = _colored_case(10.0)
        p_fa_grid = (0.001, 0.01, 0.1, 0.5)
        mc = monte_carlo_roc(esd, sc, 2000, 0, p_fa_grid)
        want = [p for _, p in analytic_roc(detection_metric(esd, sc), p_fa_grid)]
        assert mc.p_d_analytic.tolist() == want

    @COLORED_CASES
    @pytest.mark.parametrize("trials", [3001, 20000, "chunk_multiple", "block_multiple"])
    @pytest.mark.parametrize("seed", range(5))
    def test_equals_full_array_reference(self, band_width, sparse, trials, seed):
        esd, sc = _colored_case(band_width, sparse=sparse)
        if trials == "chunk_multiple":
            # chunk rows hold _CHUNK_DOUBLES // (2*weighted bins) trials
            trials = 3 * (detection._CHUNK_DOUBLES // np.count_nonzero(esd.values))
        elif trials == "block_multiple":
            trials = 2 * detection._BLOCK_TRIALS
        p_fa_grid = (0.001, 0.01, 0.1, 0.5)
        mc = monte_carlo_roc(esd, sc, trials, seed, p_fa_grid)
        thresholds, p_fa, p_d = _full_array_roc(esd, sc, trials, seed, p_fa_grid)
        np.testing.assert_array_equal(mc.p_fa, p_fa)
        np.testing.assert_array_equal(mc.p_d, p_d)
        np.testing.assert_allclose(mc.thresholds, thresholds, rtol=1e-12, atol=0)

    @COLORED_CASES
    def test_same_roc_for_any_worker_count(self, band_width, sparse, monkeypatch):
        # 3 workers with a short switch interval, so that a lost or
        # misplaced write of one worker would show
        esd, sc = _colored_case(band_width, sparse=sparse)
        trials = 3 * detection._BLOCK_TRIALS + 1001
        runs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for cpus in (1, 3):
                monkeypatch.setattr(detection, "_usable_cpus", lambda cpus=cpus: cpus)
                runs.append(monte_carlo_roc(esd, sc, trials, 6))
        finally:
            sys.setswitchinterval(interval)
        one, three = runs
        np.testing.assert_array_equal(one.thresholds, three.thresholds)
        np.testing.assert_array_equal(one.p_fa, three.p_fa)
        np.testing.assert_array_equal(one.p_d, three.p_d)

    @pytest.mark.parametrize("active", [0, 1])
    def test_esd_with_at_most_one_weighted_bin(self, active):
        # an all-zero ESD draws no interference: every statistic is 0, so
        # are the thresholds, and nothing lies above them
        _, sc = _colored_case(10.0)
        values = np.zeros(sc.grid.num_bins)
        values[3 : 3 + active] = 0.7
        esd = SpectralDensity(sc.grid, values)
        p_fa_grid = (0.001, 0.01, 0.1, 0.5)
        mc = monte_carlo_roc(esd, sc, 20000, 2, p_fa_grid)
        thresholds, p_fa, p_d = _full_array_roc(esd, sc, 20000, 2, p_fa_grid)
        np.testing.assert_array_equal(mc.p_fa, p_fa)
        np.testing.assert_array_equal(mc.p_d, p_d)
        np.testing.assert_allclose(mc.thresholds, thresholds, rtol=1e-12, atol=0)
        if not active:
            for column in (mc.thresholds, mc.p_fa, mc.p_d):
                assert column.tolist() == [0.0] * len(p_fa_grid)

    def test_empty_bins_interference_is_never_read(self):
        # P_n and P_h of a bin the design leaves empty reach neither the
        # statistic nor d^2, so rewriting them changes no byte
        sc = load_config(CONFIG_DIR / "clutter_notch.yaml").scenario(2.0)
        esd = design_mi(sc).esd
        empty = esd.values == 0
        assert 0 < np.count_nonzero(empty) < empty.size
        rng = np.random.default_rng(11)
        noise = np.where(empty, rng.uniform(5.0, 9.0, empty.size), sc.noise_psd.values)
        clutter = np.where(empty, rng.uniform(0.01, 0.05, empty.size), sc.channel_psd.values)
        other = Scenario(SpectralDensity(sc.grid, noise), SpectralDensity(sc.grid, clutter),
                         sc.target_variance, sc.energy)
        a = monte_carlo_roc(esd, sc, 20000, 4)
        b = monte_carlo_roc(esd, other, 20000, 4)
        for name in ("thresholds", "p_fa", "p_d", "p_d_analytic"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name

    def test_worker_exception_reaches_caller(self, monkeypatch):
        draw_block = detection._draw_block

        def failing(seed, block, *args):
            if block == 2:
                raise RuntimeError("block 2 failed")
            draw_block(seed, block, *args)

        monkeypatch.setattr(detection, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(detection, "_draw_block", failing)
        esd, sc = _colored_case(10.0)
        with pytest.raises(RuntimeError, match="block 2 failed"):
            monte_carlo_roc(esd, sc, 4 * detection._BLOCK_TRIALS, 0)

    @pytest.mark.parametrize("cpus, trials", [(1, 3 * detection._BLOCK_TRIALS), (4, 5000)])
    def test_one_worker_starts_no_thread(self, cpus, trials, monkeypatch):
        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(detection, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(detection.threading, "Thread", no_thread)
        esd, sc = _colored_case(10.0)
        assert monte_carlo_roc(esd, sc, trials, 0).trials == trials

    @pytest.mark.parametrize("band_width", [10.0, 100.0])
    @pytest.mark.parametrize("seed", range(5))
    def test_h0_thresholds_are_exponential_quantiles(self, band_width, seed):
        # under H0, u0 = sum_m x0_m*w_m is CN(0, sigma0^2) with
        # sigma0^2 = T*sum |s|^2/(P_h|s|^2 + P_n), so |u0|^2 is exponential
        # and its 1 - p quantile is -sigma0^2*ln(p); a wrong per-bin
        # interference variance moves sigma0^2
        esd, sc = _colored_case(band_width)
        trials, p_fa_grid = 100000, np.array([0.001, 0.01, 0.1, 0.5])
        mc = monte_carlo_roc(esd, sc, trials, seed, p_fa_grid)
        denom = sc.channel_psd.values * esd.values + sc.noise_psd.values
        var0 = sc.grid.duration * np.sum(esd.values / denom)
        # standard error of a sample quantile: sqrt(p(1-p)/n)/density there
        se = np.sqrt(p_fa_grid * (1 - p_fa_grid) / trials) * var0 / p_fa_grid
        z = (mc.thresholds + var0 * np.log(p_fa_grid)) / se
        assert np.all(np.abs(z) <= 5), z

    def test_memory_does_not_scale_with_trials_times_bins(self):
        esd, sc = _colored_case(100.0)
        assert sc.grid.num_bins == 101
        tracemalloc.start()
        try:
            monte_carlo_roc(esd, sc, 20000, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one (20000 x 101) complex array alone is 32 MB
        assert peak < 8e6

    def test_null_target_matches_diagonal(self):
        # sigma_A^2 = 0 makes H1 identical to H0 in distribution
        grid = make_grid(8.0, 1.0)
        sc = _flat_scenario(grid, var_a=0.0)
        esd = SpectralDensity(grid, np.full(grid.num_bins, 1.0 / grid.num_bins))
        mc = monte_carlo_roc(esd, sc, 20000, 3, p_fa_grid=(0.05, 0.2))
        for p_fa, p_d in zip(mc.p_fa, mc.p_d):
            se = np.sqrt(p_fa * (1 - p_fa) / mc.trials)
            assert abs(p_d - p_fa) <= 3 * se + 1e-12

    def test_deterministic_for_seed(self):
        grid = make_grid(8.0, 1.0)
        sc = _flat_scenario(grid)
        esd = SpectralDensity(grid, np.ones(grid.num_bins))
        a = monte_carlo_roc(esd, sc, 2000, 9)
        b = monte_carlo_roc(esd, sc, 2000, 9)
        np.testing.assert_array_equal(a.p_d, b.p_d)
        np.testing.assert_array_equal(a.thresholds, b.thresholds)

    def test_stronger_target_detects_more(self):
        grid = make_grid(8.0, 1.0)
        esd = SpectralDensity(grid, np.ones(grid.num_bins))
        weak = monte_carlo_roc(esd, _flat_scenario(grid, var_a=0.5), 20000, 4)
        strong = monte_carlo_roc(esd, _flat_scenario(grid, var_a=4.0), 20000, 4)
        assert np.all(strong.p_d >= weak.p_d)

    def test_matches_analytic_roc_with_clutter(self):
        # colored case at a nontrivial duration: the H1 statistic is still
        # exponential with mean s0*(1+d^2), so the exponent 1/(1+d^2) holds
        grid = make_grid(5.0, 2.0)
        noise = SpectralDensity(grid, np.full(grid.num_bins, 0.5))
        clutter = SpectralDensity(grid, np.full(grid.num_bins, 0.3))
        sc = Scenario(noise, clutter, 1.0, 4.0)
        esd = SpectralDensity(grid, np.full(grid.num_bins, 4.0 / (grid.num_bins * grid.spacing)))
        mc = monte_carlo_roc(esd, sc, 100000, 0, p_fa_grid=(0.01, 0.1))
        for p_d_dev, p_fa_dev in roc_deviations(esd, sc, mc, (0.01, 0.1)):
            assert p_d_dev <= 3.0 and p_fa_dev <= 3.0

    def test_stderr_matches_spread_over_seeds(self):
        # the threshold is an empirical quantile; at p_fa = 0.01 on this
        # scene the binomial term alone gives a spread of about 1.4
        sc = load_config(CONFIG_DIR / "clutter_notch.yaml").scenario(2.0)
        assert sc.grid.num_bins == 21
        esd = design_mi(sc).esd
        p_fa_grid = (0.01, 0.1)
        d2 = detection_metric(esd, sc)
        p_d = np.array([p for _, p in analytic_roc(d2, p_fa_grid)])
        z = []
        for seed in range(200):
            mc = monte_carlo_roc(esd, sc, 2000, seed, p_fa_grid)
            z.append((mc.p_d - p_d) / mc.p_d_stderr)
        spread = np.std(z, axis=0)
        assert np.all((0.8 <= spread) & (spread <= 1.2)), spread
