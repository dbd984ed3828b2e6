import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from miwave import (
    FrequencyGrid,
    Scenario,
    SpectralDensity,
    build_parametric_psd,
    integrate,
    make_grid,
)
from miwave.spectral import recentre


class TestGrid:
    def test_bin_layout(self):
        grid = make_grid(10.0, 1.0)
        assert grid.num_bins == 11
        assert grid.half_order == 5
        np.testing.assert_allclose(np.diff(grid.bin_freqs), grid.spacing)
        np.testing.assert_allclose(grid.bin_freqs, -grid.bin_freqs[::-1])

    def test_odd_product_rounds_up_to_even(self):
        # W*T = 15 is odd, so the harmonic count bumps to 16
        grid = make_grid(15.0, 1.0)
        assert grid.num_bins == 17

    @given(
        w=st.floats(0.1, 100.0, allow_nan=False),
        t=st.floats(0.05, 20.0, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_covered_band_bracket(self, w, t):
        grid = make_grid(w, t)
        covered = (grid.num_bins - 1) * grid.spacing
        assert covered >= w - 1e-9 * w
        assert covered <= w + 2.0 / t + 1e-9 * w
        assert grid.num_bins % 2 == 1 and grid.num_bins >= 3

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            make_grid(-1.0, 1.0)
        with pytest.raises(ValueError):
            FrequencyGrid(1.0, 1.0, 4)

    @pytest.mark.parametrize(
        "w, t", [(np.inf, 1.0), (1.0, -np.inf), (np.nan, 1.0), (0.0, np.inf)]
    )
    def test_rejects_non_finite_args(self, w, t):
        with pytest.raises(ValueError, match="band_width and duration must be finite"):
            make_grid(w, t)


class TestSpectralDensity:
    def test_validation(self, small_grid):
        with pytest.raises(ValueError):
            SpectralDensity(small_grid, np.ones(3))
        with pytest.raises(ValueError):
            SpectralDensity(small_grid, -np.ones(small_grid.num_bins))
        with pytest.raises(ValueError):
            SpectralDensity(small_grid, np.full(small_grid.num_bins, np.nan))

    def test_values_read_only(self, small_grid):
        sd = SpectralDensity(small_grid, np.ones(small_grid.num_bins))
        with pytest.raises(ValueError):
            sd.values[0] = 2.0

    def test_integrate_linear(self, small_grid):
        rng = np.random.default_rng(7)
        x = SpectralDensity(small_grid, rng.uniform(0, 2, small_grid.num_bins))
        y = SpectralDensity(small_grid, rng.uniform(0, 2, small_grid.num_bins))
        a, b = 1.7, 0.3
        combo = SpectralDensity(small_grid, a * x.values + b * y.values)
        lhs = integrate(combo)
        rhs = a * integrate(x) + b * integrate(y)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_flat_integral(self, small_grid):
        sd = SpectralDensity(small_grid, np.ones(small_grid.num_bins))
        assert integrate(sd) == pytest.approx(small_grid.num_bins * small_grid.spacing)


class TestRecentre:
    # a centred array over orders -h..h: the value at order m is 10*m
    @staticmethod
    def _orders(h):
        return 10.0 * np.arange(-h, h + 1)

    def test_cut(self):
        assert recentre(self._orders(4), 2).tolist() == self._orders(2).tolist()

    def test_pad(self):
        got = recentre(self._orders(2), 4)
        assert got.tolist() == [0.0, 0.0, -20.0, -10.0, 0.0, 10.0, 20.0, 0.0, 0.0]

    def test_equal_size_is_a_copy(self):
        a = self._orders(3)
        got = recentre(a, 3)
        assert got.tolist() == a.tolist() and got is not a

    def test_h_zero(self):
        assert recentre(np.array([7.0]), 2).tolist() == [0.0, 0.0, 7.0, 0.0, 0.0]

    def test_half_zero(self):
        assert recentre(self._orders(3) + 1.0, 0).tolist() == [1.0]


class TestScenario:
    def test_noise_must_be_positive(self, small_grid):
        zeroish = np.ones(small_grid.num_bins)
        zeroish[3] = 0.0
        noise = SpectralDensity(small_grid, zeroish)
        ok = SpectralDensity(small_grid, np.ones(small_grid.num_bins))
        with pytest.raises(ValueError):
            Scenario(noise, ok, 1.0, 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_energy_and_variance_rejected(self, notch_scenario, bad):
        with pytest.raises(ValueError, match=f"energy must be finite.*{bad!r}"):
            notch_scenario.with_energy(bad)
        noise, clutter = notch_scenario.noise_psd, notch_scenario.channel_psd
        with pytest.raises(ValueError, match="target_variance must be finite"):
            Scenario(noise, clutter, bad, 1.0)

    def test_with_energy(self, notch_scenario):
        sc = notch_scenario.with_energy(5.0)
        assert sc.energy == 5.0
        assert sc.noise_psd is notch_scenario.noise_psd


class TestParametricPsds:
    def test_flat(self, small_grid):
        sd = build_parametric_psd("flat", {"level": 1.0}, small_grid)
        np.testing.assert_array_equal(sd.values, 1.0)

    def test_noise_valley_20db(self, small_grid):
        # 20 dB valley: max/min ratio 100 between band edge and DC
        sd = build_parametric_psd(
            "noise_valley", {"n_min": 0.01, "n_max": 1.0}, small_grid
        )
        assert sd.values.max() / sd.values.min() == pytest.approx(100.0, rel=1e-9)
        assert np.argmin(sd.values) == small_grid.half_order

    def test_clutter_notch_dips_at_dc(self, small_grid):
        sd = build_parametric_psd("clutter_notch", {}, small_grid)
        dc = sd.values[small_grid.half_order]
        assert dc < sd.values[0]
        assert dc < sd.values[-1]

    def test_clutter_peak_peaks_at_dc(self, small_grid):
        sd = build_parametric_psd("clutter_peak", {"osc_height": 0.0}, small_grid)
        assert np.argmax(sd.values) == small_grid.half_order

    def test_custom_table_interpolates(self, small_grid):
        sd = build_parametric_psd(
            "custom_table",
            {"freqs": [-5.0, 0.0, 5.0], "values": [1.0, 3.0, 1.0]},
            small_grid,
        )
        assert sd.values[small_grid.half_order] == pytest.approx(3.0)
        assert sd.values[small_grid.half_order + 1] == pytest.approx(3.0 - 2.0 / 5.0)

    def test_unknown_kind(self, small_grid):
        with pytest.raises(ValueError, match="unknown PSD kind"):
            build_parametric_psd("nope", {}, small_grid)

    @pytest.mark.parametrize("kind", ["flat", "noise_valley", "clutter_peak", "clutter_notch"])
    def test_builders_finite_nonnegative(self, kind, small_grid):
        sd = build_parametric_psd(kind, None, small_grid)
        assert np.all(np.isfinite(sd.values))
        assert np.all(sd.values >= 0)
