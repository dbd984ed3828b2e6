"""LFM comparator waveforms matched in RMS bandwidth to a design."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .mtsfm import rms_bandwidth
from .spectral import FrequencyGrid, SpectralDensity

__all__ = ["LfmWaveform", "lfm_time_series", "lfm_esd", "match_rms_bandwidth"]


@dataclass(frozen=True)
class LfmWaveform:
    """Linear FM chirp over [-T/2, T/2) sweeping [-B/2, B/2]."""

    duration: float
    energy: float
    sweep_bandwidth: float

    def __post_init__(self) -> None:
        if self.duration <= 0 or self.energy <= 0:
            raise ValueError("duration and energy must be positive")
        if self.sweep_bandwidth < 0:
            raise ValueError("sweep_bandwidth must be nonnegative")


def lfm_time_series(w: LfmWaveform, sample_rate: float):
    """Constant-modulus chirp samples; phase pi*B*t^2/T."""
    if sample_rate <= 0:
        raise ValueError("sample_rate must be positive")
    guard = 2.0 * max(w.sweep_bandwidth, 1.0 / w.duration)
    if sample_rate < guard:
        raise ValueError(
            f"sample_rate {sample_rate:.3g} Hz below Nyquist guard {guard:.3g} Hz"
        )
    n = max(int(round(sample_rate * w.duration)), 2)
    t = -w.duration / 2.0 + np.arange(n) * (w.duration / n)
    phase = np.pi * w.sweep_bandwidth * t**2 / w.duration
    return t, np.sqrt(w.energy / w.duration) * np.exp(1j * phase)


def lfm_esd(w: LfmWaveform, grid: FrequencyGrid) -> SpectralDensity:
    """Chirp ESD on the bin grid, normalized to total energy E.

    The DFT of samples spanning exactly one duration T lands on the
    grid's bin frequencies m/T directly, so no rebinning is needed. The
    8x oversampled rate, at least 8*(B + 1/T), clears the Nyquist guard
    of :func:`lfm_time_series`.
    """
    if not math.isclose(grid.duration, w.duration, rel_tol=1e-12):
        raise ValueError("grid spacing must equal 1/T of the waveform")
    n_min = 8 * max(
        grid.num_bins, int(np.ceil(w.sweep_bandwidth * w.duration)) + 1
    )
    n = 1 << int(np.ceil(np.log2(n_min)))
    _, x = lfm_time_series(w, n / w.duration)
    spec = np.fft.fft(x) * (w.duration / n)
    m = grid.bin_indices
    # (-1)^m offsets the -T/2 time origin; irrelevant to magnitudes but kept
    values = np.abs(spec[m % n]) ** 2
    total = values.sum() * grid.spacing
    if total == 0:
        raise ValueError("degenerate chirp spectrum")
    return SpectralDensity(grid, values * (w.energy / total))


def match_rms_bandwidth(
    target_beta_rms: float,
    duration: float,
    energy: float,
    grid: FrequencyGrid,
) -> LfmWaveform:
    """Find the sweep bandwidth whose chirp ESD has a given RMS bandwidth.

    Scalar root-find over B in [0, W]; a flat ESD over B has second
    moment B^2/12, so B = sqrt(12)*beta_rms/(2*pi) seeds the bracket.
    Targets above the full-band sweep's RMS bandwidth are unreachable
    (the chirp's soft spectral edges cap the second moment); they clamp
    to the full-band sweep B = W with a warning. The root is found to a
    relative tolerance of 1e-4 in B.
    """
    if target_beta_rms < 0:
        raise ValueError("target RMS bandwidth must be nonnegative")
    if target_beta_rms == 0:
        return LfmWaveform(duration, energy, 0.0)

    def resid(b: float) -> float:
        esd = lfm_esd(LfmWaveform(duration, energy, b), grid)
        return rms_bandwidth(esd, energy) - target_beta_rms

    b_max = grid.band_width
    if resid(b_max) < 0:
        warnings.warn(
            f"RMS-bandwidth target {target_beta_rms:.4g} rad/s unreachable; "
            "clamping the comparator to a full-band sweep",
            stacklevel=2,
        )
        return LfmWaveform(duration, energy, float(b_max))
    r0 = resid(0.0)
    if r0 >= 0:
        return LfmWaveform(duration, energy, 0.0)
    b = brentq(resid, 0.0, b_max, rtol=1e-4)
    return LfmWaveform(duration, energy, float(b))
