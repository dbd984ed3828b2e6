"""LFM comparator waveforms matched in RMS bandwidth to a design."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .mtsfm import envelope, rms_bandwidth
from .spectral import FrequencyGrid, SpectralDensity, finite_nonnegative, finite_positive

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


def lfm_time_series(w: LfmWaveform, sample_rate: float):
    """Constant-modulus chirp samples; phase pi*B*t^2/T."""
    guard = 2.0 * max(w.sweep_bandwidth, 1.0 / w.duration)
    return envelope(
        w.duration, w.energy, sample_rate, guard,
        lambda t: np.pi * w.sweep_bandwidth * t**2 / w.duration,
    )


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

    Scalar root-find over B, bracketed by the whole band [0, W]. The
    lower end costs no chirp spectrum: the B = 0 chirp is a DC tone of
    RMS bandwidth 0. Targets above the full-band sweep's RMS bandwidth
    are unreachable (the chirp's soft spectral edges cap the second
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
        warnings.warn(
            f"RMS-bandwidth target {target_beta_rms:.4g} rad/s unreachable; "
            "clamping the comparator to a full-band sweep",
            stacklevel=2,
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
