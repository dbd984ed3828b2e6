"""Matched-illumination waveform design toolkit.

Water-filling design of detection-optimal energy spectral densities,
constant-modulus MTSFM synthesis approximating them, LFM comparators,
and detection-performance analytics with Monte Carlo validation.
"""

__version__ = "0.1.0"

from .spectral import (  # noqa: F401
    FrequencyGrid,
    Scenario,
    SpectralDensity,
    build_parametric_psd,
    integrate,
    make_grid,
)
from .design import (  # noqa: F401
    MiDesign,
    UnboundedAllocationError,
    design_mi,
)
from .detection import analytic_roc, detection_metric, monte_carlo_roc  # noqa: F401
from .mtsfm import (  # noqa: F401
    MtsfmWaveform,
    coefficients,
    esd_on_grid,
    rms_bandwidth,
    spectrum,
    time_series,
)
from .fitting import (  # noqa: F401
    FitResult,
    OfdmTarget,
    fit,
    solve_ofdm_coeffs,
    support_halfwidth,
)
from .baselines import (  # noqa: F401
    LfmWaveform,
    lfm_esd,
    lfm_time_series,
    match_rms_bandwidth,
)
