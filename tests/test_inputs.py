"""Every public entry point that takes a guarded scalar refuses NaN, +-inf
and a wrong-signed value with a ValueError that names the parameter."""

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
    fit,
    lfm_esd,
    lfm_time_series,
    make_grid,
    match_rms_bandwidth,
    monte_carlo_roc,
    rms_bandwidth,
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
    ("clutter_peak", "peak_width",
     lambda x: build_parametric_psd("clutter_peak", {"peak_width": x}, GRID)),
    ("clutter_notch", "notch_width",
     lambda x: build_parametric_psd("clutter_notch", {"notch_width": x}, GRID)),
    ("MtsfmWaveform", "duration", lambda x: MtsfmWaveform(x, 1.0, (1.0,))),
    ("MtsfmWaveform", "energy", lambda x: MtsfmWaveform(1.0, x, (1.0,))),
    ("envelope", "sample_rate",
     lambda x: envelope(1.0, 1.0, x, 1.0, lambda t: 0.0 * t)),
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
    ("fit", "k_harmonics", lambda x: fit(TARGET, x, 0.2, 1, 0)),
    ("fit", "delta", lambda x: fit(TARGET, 2, x, 1, 0)),
    ("fit", "n_starts", lambda x: fit(TARGET, 2, 0.2, x, 0)),
    ("fit", "seed", lambda x: fit(TARGET, 2, 0.2, 1, x)),
    ("monte_carlo_roc", "trials",
     lambda x: monte_carlo_roc(np.ones(GRID.num_bins), SCENE, x, 0)),
    ("monte_carlo_roc", "seed",
     lambda x: monte_carlo_roc(np.ones(GRID.num_bins), SCENE, 2000, x)),
    ("monte_carlo_roc", "p_fa_grid",
     lambda x: monte_carlo_roc(np.ones(GRID.num_bins), SCENE, 2000, 0, [x])),
]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1], ids=repr)
@pytest.mark.parametrize(
    "entry, param, call", CASES, ids=[f"{e}-{p}" for e, p, _ in CASES]
)
def test_bad_scalar_is_refused_by_name(entry, param, call, bad):
    with pytest.raises(ValueError, match=rf"\b{param}\b"):
        call(bad)
