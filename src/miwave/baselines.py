"""LFM comparator waveforms matched in RMS bandwidth to a design."""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .mtsfm import _esd_scale, envelope, rms_bandwidth, unit_envelope
from .spectral import (
    FrequencyGrid, SpectralDensity, finite_nonnegative, finite_positive, read_only,
)

__all__ = ["LfmWaveform", "lfm_time_series", "lfm_esd", "match_rms_bandwidth"]


@dataclass(frozen=True)
class LfmWaveform:
    """Linear FM chirp over [-T/2, T/2) sweeping [-B/2, B/2]."""

    duration: float
    energy: float
    sweep_bandwidth: float

    def __post_init__(self) -> None:
        finite_positive("duration", self.duration)
        finite_positive("energy", self.energy)
        finite_nonnegative("sweep_bandwidth", self.sweep_bandwidth)


def _chirp_phase(duration: float, sweep_bandwidth: float):
    """The chirp's even phase pi*B*t^2/T as a function of t."""
    return lambda t: np.pi * sweep_bandwidth * t**2 / duration


def lfm_time_series(w: LfmWaveform, sample_rate: float):
    """Constant-modulus chirp samples; phase pi*B*t^2/T, and :func:`envelope`
    guards the rate on the sweep bandwidth B."""
    phase_of = _chirp_phase(w.duration, w.sweep_bandwidth)
    return envelope(w.duration, w.energy, sample_rate, w.sweep_bandwidth, phase_of)


def _chirp_power(duration: float, sweep_bandwidth: float, grid: FrequencyGrid) -> np.ndarray:
    """Coefficient power |X_m/n|^2 at the grid's bins of the unit-modulus
    chirp, X the DFT on the power of two n >= 8*max(M, B*T + 1) nodes of
    one duration T: 8x oversampled, its bins the grid's m/T, so no rebinning
    is needed. Magnitudes only: the (-1)^m phase of the -T/2 origin is unused."""
    n_min = 8 * max(grid.num_bins, int(np.ceil(sweep_bandwidth * duration)) + 1)
    n = 1 << int(np.ceil(np.log2(n_min)))
    _, x = unit_envelope(duration, n, _chirp_phase(duration, sweep_bandwidth))
    return np.abs(np.fft.fft(x)[grid.bin_indices % n] / n) ** 2


@functools.lru_cache(maxsize=8)
def _full_band_power(duration: float, grid: FrequencyGrid) -> np.ndarray:
    """:func:`_chirp_power` of the full-band sweep B = W, which every match
    and clamped comparator on a grid asks for: kept, so shared read-only."""
    return read_only(_chirp_power(duration, grid.band_width, grid))


def lfm_esd(w: LfmWaveform, grid: FrequencyGrid) -> SpectralDensity:
    """Chirp ESD on the bin grid, E*T*|c_m|^2 at f = m/T by the rule of
    :func:`~miwave.mtsfm.esd_on_grid`: energy beyond the outermost bin is
    left out (up to 0.018 of E for the shipped configs' matched chirps).
    The full-band sweep's power is computed once per duration and grid."""
    scale = _esd_scale(w, grid)
    if w.sweep_bandwidth == grid.band_width:
        power = _full_band_power(w.duration, grid)
    else:
        power = _chirp_power(w.duration, w.sweep_bandwidth, grid)
    return SpectralDensity(grid, scale * power)


def match_rms_bandwidth(
    target_beta_rms: float,
    duration: float,
    energy: float,
    grid: FrequencyGrid,
) -> LfmWaveform:
    """Find the sweep bandwidth whose chirp ESD has a given RMS bandwidth.

    Scalar root-find over B, bracketed by the whole band [0, W]. The
    lower end costs no chirp spectrum: the B = 0 chirp is a DC tone of
    RMS bandwidth 0. The upper end's, the full-band sweep's, is one per
    grid, which :func:`lfm_esd` keeps for every match on that grid.
    Targets above the RMS bandwidth of the full-band sweep's in-band
    ESD are unreachable (the chirp's soft spectral edges cap the second
    moment); they clamp to the full-band sweep B = W with a warning.
    Otherwise the search starts at the flat-spectrum estimate
    B = sqrt(12)*beta_rms/(2*pi) and takes Illinois steps (Dowell and
    Jarratt, BIT 1971), safeguarded regula falsi, until a step is at
    most (2e-12 + 1e-4*B)/2: a relative tolerance of 1e-4 in B.
    """
    if finite_nonnegative("target_beta_rms", target_beta_rms) == 0:
        return LfmWaveform(duration, energy, 0.0)

    def resid(b: float) -> float:
        esd = lfm_esd(LfmWaveform(duration, energy, b), grid)
        return rms_bandwidth(esd, energy) - target_beta_rms

    b_max = grid.band_width
    r_max = resid(b_max)
    if r_max < 0:
        # no source file or line: the message alone reaches stderr, which
        # then does not depend on where the caller sits in its file
        warnings.warn_explicit(
            f"RMS-bandwidth target {target_beta_rms:.4g} rad/s unreachable; "
            "clamping the comparator to a full-band sweep",
            UserWarning, "miwave", 0, module=__name__,
        )
        return LfmWaveform(duration, energy, float(b_max))
    # residuals below the root are negative, so lo keeps f_lo < 0 <= f_hi
    lo, f_lo, hi, f_hi = 0.0, -target_beta_rms, float(b_max), r_max
    b = min(math.sqrt(12.0) * target_beta_rms / (2.0 * math.pi), hi)
    kept = 0  # the end the last step kept: -1 for lo, 1 for hi
    for _ in range(100):
        r = resid(b)
        if r < 0:
            if kept == 1:  # hi kept twice running: halve its residual
                f_hi /= 2.0
            lo, f_lo, kept = b, r, 1
        else:
            if kept == -1:
                f_lo /= 2.0
            hi, f_hi, kept = b, r, -1
        step = (lo * f_hi - hi * f_lo) / (f_hi - f_lo) - b
        b += step
        if abs(step) <= (2e-12 + 1e-4 * b) / 2:
            return LfmWaveform(duration, energy, float(b))
    raise RuntimeError("the LFM bandwidth match did not converge in 100 steps")
