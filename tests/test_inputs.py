"""Every public entry point that takes a guarded scalar refuses NaN, +-inf,
a wrong-signed value, a bool, a string and an integer past the float range
with a ValueError whose message begins with the parameter's name (not a
generic word such as "values" further on)."""

import numpy as np
import pytest

from miwave import (
    FrequencyGrid,
    LfmWaveform,
    MtsfmWaveform,
    OfdmTarget,
    Scenario,
    SpectralDensity,
    analytic_roc,
    build_parametric_psd,
    esd_for_lambda,
    esd_on_grid,
    fit,
    lfm_esd,
    lfm_time_series,
    make_grid,
    match_rms_bandwidth,
    monte_carlo_roc,
    rms_bandwidth,
    solve_ofdm_coeffs,
    time_series,
)
from miwave.mtsfm import envelope

GRID = make_grid(8.0, 1.0)
FLAT = SpectralDensity(GRID, np.ones(GRID.num_bins))
SCENE = Scenario(FLAT, FLAT, 1.0, 1.0)
TARGET = OfdmTarget(np.ones(3) / np.sqrt(3), 1.0)
WAVE = MtsfmWaveform(1.0, 1.0, (0.5,))
CHIRP = LfmWaveform(1.0, 1.0, 2.0)

# (entry point, parameter, call with the bad value in that parameter)
CASES = [
    ("FrequencyGrid", "band_width", lambda x: FrequencyGrid(x, 1.0)),
    ("FrequencyGrid", "duration", lambda x: FrequencyGrid(8.0, x)),
    ("Scenario", "energy", lambda x: Scenario(FLAT, FLAT, 1.0, x)),
    ("Scenario", "target_variance", lambda x: Scenario(FLAT, FLAT, x, 1.0)),
    ("noise_valley", "n_min",
     lambda x: build_parametric_psd("noise_valley", {"n_min": x}, GRID)),
    ("noise_valley", "n_max",
     lambda x: build_parametric_psd("noise_valley", {"n_max": x}, GRID)),
    ("flat", "level", lambda x: build_parametric_psd("flat", {"level": x}, GRID)),
    ("clutter_peak", "floor",
     lambda x: build_parametric_psd("clutter_peak", {"floor": x}, GRID)),
    ("clutter_peak", "peak_height",
     lambda x: build_parametric_psd("clutter_peak", {"peak_height": x}, GRID)),
    ("clutter_peak", "peak_width",
     lambda x: build_parametric_psd("clutter_peak", {"peak_width": x}, GRID)),
    ("clutter_peak", "osc_height",
     lambda x: build_parametric_psd("clutter_peak", {"osc_height": x}, GRID)),
    ("clutter_notch", "level",
     lambda x: build_parametric_psd("clutter_notch", {"level": x}, GRID)),
    ("clutter_notch", "notch_width",
     lambda x: build_parametric_psd("clutter_notch", {"notch_width": x}, GRID)),
    ("custom_table", "values",
     lambda x: build_parametric_psd(
         "custom_table", {"freqs": [-10.0, 0.0, 10.0], "values": [1.0, x, 1.0]}, GRID)),
    ("MtsfmWaveform", "duration", lambda x: MtsfmWaveform(x, 1.0, (1.0,))),
    ("MtsfmWaveform", "energy", lambda x: MtsfmWaveform(1.0, x, (1.0,))),
    ("envelope", "sample_rate",
     lambda x: envelope(1.0, 1.0, x, 1.0, lambda t: 0.0 * t)),
    ("envelope", "bandwidth",
     lambda x: envelope(1.0, 1.0, 64.0, x, lambda t: 0.0 * t)),
    ("time_series", "sample_rate", lambda x: time_series(WAVE, x)),
    ("lfm_time_series", "sample_rate", lambda x: lfm_time_series(CHIRP, x)),
    ("rms_bandwidth", "energy", lambda x: rms_bandwidth(FLAT, x)),
    ("LfmWaveform", "duration", lambda x: LfmWaveform(x, 1.0, 1.0)),
    ("LfmWaveform", "energy", lambda x: LfmWaveform(1.0, x, 1.0)),
    ("LfmWaveform", "sweep_bandwidth", lambda x: LfmWaveform(1.0, 1.0, x)),
    ("lfm_esd", "sweep_bandwidth", lambda x: lfm_esd(LfmWaveform(1.0, 1.0, x), GRID)),
    ("match_rms_bandwidth", "target_beta_rms",
     lambda x: match_rms_bandwidth(x, 1.0, 1.0, GRID)),
    ("match_rms_bandwidth", "duration",
     lambda x: match_rms_bandwidth(10.0, x, 1.0, GRID)),
    ("match_rms_bandwidth", "energy",
     lambda x: match_rms_bandwidth(10.0, 1.0, x, GRID)),
    ("OfdmTarget", "energy", lambda x: OfdmTarget(np.ones(3) / np.sqrt(3), x)),
    ("esd_for_lambda", "lam", lambda x: esd_for_lambda(SCENE, x)),
    ("analytic_roc", "d_squared", lambda x: analytic_roc(x, [0.1])),
    ("fit", "k_harmonics", lambda x: fit(TARGET, x, 0.2, 1, 0, scenario=SCENE)),
    ("fit", "delta", lambda x: fit(TARGET, 2, x, 1, 0, scenario=SCENE)),
    ("fit", "n_starts", lambda x: fit(TARGET, 2, 0.2, x, 0, scenario=SCENE)),
    ("fit", "seed", lambda x: fit(TARGET, 2, 0.2, 1, x, scenario=SCENE)),
    ("monte_carlo_roc", "trials",
     lambda x: monte_carlo_roc(FLAT, SCENE, x, 0)),
    ("monte_carlo_roc", "seed",
     lambda x: monte_carlo_roc(FLAT, SCENE, 2000, x)),
    ("monte_carlo_roc", "p_fa_grid",
     lambda x: monte_carlo_roc(FLAT, SCENE, 2000, 0, [x])),
]


BIG = 10**400  # an integer whose float() overflows
HUGE = 10**5000  # an integer past the digits Python will print
LONG = {BIG: "10**400", HUGE: "10**5000", -HUGE: "-10**5000"}
# as_int takes any integer from its minimum up, so BIG is no bad count or seed
AS_INT = {"k_harmonics", "n_starts", "seed", "trials"}


def _rows(cases, bads):
    """(entry, param, call, bad) for each case and bad value, with BIG
    and HUGE left out of the as_int parameters; ids read
    entry-param-repr(bad), a long integer shown as its power of ten."""
    return [
        pytest.param(e, p, call, bad, id=f"{e}-{p}-{LONG[bad] if bad in LONG else repr(bad)}")
        for e, p, call in cases
        for bad in bads
        if not (p in AS_INT and bad in LONG and bad > 0)
    ]


@pytest.mark.parametrize(
    "entry, param, call, bad", _rows(CASES, [np.nan, np.inf, -np.inf, -1, True, "1.0", BIG, HUGE, -HUGE])
)
def test_bad_scalar_is_refused_by_name(entry, param, call, bad):
    with pytest.raises(ValueError, match=rf"^{param}\b"):
        call(bad)


# parameters that may be negative: only NaN and +-inf are refused
SIGNED_CASES = [
    ("clutter_peak", "osc_cycles",
     lambda x: build_parametric_psd("clutter_peak", {"osc_cycles": x}, GRID)),
    ("custom_table", "freqs",
     lambda x: build_parametric_psd(
         "custom_table", {"freqs": [-10.0, x, 10.0], "values": [1.0, 1.0, 1.0]}, GRID)),
    ("MtsfmWaveform", "mod_indices",
     lambda x: esd_on_grid(MtsfmWaveform(1.0, 1.0, (x,)), GRID)),
]


@pytest.mark.parametrize(
    "entry, param, call, bad", _rows(SIGNED_CASES, [np.nan, np.inf, -np.inf, True, "1.0", BIG, HUGE])
)
def test_non_finite_signed_scalar_is_refused_by_name(entry, param, call, bad):
    assert isinstance(call(-1.0), SpectralDensity)
    with pytest.raises(ValueError, match=rf"^{param}\b"):
        call(bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=repr)
def test_non_finite_target_coefficient_is_refused_by_name(bad):
    with pytest.raises(ValueError, match=r"^c must be finite"):
        OfdmTarget(np.array([bad, 1.0, 0.5]), 1.0)


OTHER_GRID = make_grid(6.0, 1.0)


def _table(freqs, values):
    return build_parametric_psd("custom_table", {"freqs": freqs, "values": values}, GRID)


# inputs that are each finite but do not fit together: (call, message)
MISMATCHES = {
    "Scenario-grids": (
        lambda: Scenario(FLAT, SpectralDensity(OTHER_GRID, np.ones(OTHER_GRID.num_bins)),
                         1.0, 1.0),
        "noise and channel PSDs must share a grid"),
    "custom_table-lengths": (
        lambda: _table([-10.0, 10.0], [1.0, 1.0, 1.0]),
        "freqs and values must be 1-D arrays of equal length"),
    "custom_table-decreasing": (
        lambda: _table([0.0, 2.0, 1.0], [1.0, 1.0, 1.0]),
        "table frequencies must be strictly increasing"),
    "custom_table-repeated": (
        lambda: _table([0.0, 1.0, 1.0], [1.0, 1.0, 1.0]),
        "table frequencies must be strictly increasing"),
    "solve_ofdm_coeffs-grid": (
        lambda: solve_ofdm_coeffs(FLAT, OTHER_GRID, 1.0),
        "ESD must live on the supplied grid"),
}


@pytest.mark.parametrize("call, message", MISMATCHES.values(), ids=MISMATCHES.keys())
def test_mismatched_inputs_are_refused(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
