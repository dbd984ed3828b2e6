"""LFM comparator waveforms matched in RMS bandwidth to a design."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .mtsfm import _esd_scale, _fft_size, envelope, rms_bandwidth, unit_envelope
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


def _chirp_phase(duration: float, sweep_bandwidth: float):
    """The chirp's even phase pi*B*t^2/T as a function of t."""
    return lambda t: np.pi * sweep_bandwidth * t**2 / duration


def lfm_time_series(w: LfmWaveform, sample_rate: float):
    """Constant-modulus chirp samples; phase pi*B*t^2/T, and :func:`envelope`
    guards the rate on the sweep bandwidth B."""
    phase_of = _chirp_phase(w.duration, w.sweep_bandwidth)
    return envelope(w.duration, w.energy, sample_rate, w.sweep_bandwidth, phase_of)


def _chirp_power(duration: float, sweep_bandwidth: float, grid: FrequencyGrid) -> np.ndarray:
    """Coefficient power |c_m|^2 of the unit-modulus chirp at the grid's
    bins m/T, by the n-point trapezoid rule, n = ``_fft_size`` of the
    larger of M/2 and B*T as for the MTSFM's coefficients. The phase
    slope jumps at +-T/2, so the rule's error is led by the Euler-Maclaurin
    term (-1)^m*j*pi*B*T*x_0/(6*n^2), x_0 the sample at -T/2: subtracted
    from X_m/n, and the (-1)^m of the -T/2 origin drops out of |.|^2."""
    n = _fft_size(max(grid.half_order, math.ceil(sweep_bandwidth * duration)))
    _, x = unit_envelope(duration, n, _chirp_phase(duration, sweep_bandwidth))
    end = 1j * np.pi * sweep_bandwidth * duration * x[0] / (6.0 * n * n)
    return np.abs(np.fft.fft(x)[grid.bin_indices % n] / n - end) ** 2


def lfm_esd(w: LfmWaveform, grid: FrequencyGrid) -> SpectralDensity:
    """Chirp ESD on the bin grid, E*T*|c_m|^2 at f = m/T by the rule of
    :func:`~miwave.mtsfm.esd_on_grid`: energy beyond the outermost bin is
    left out (up to 0.018 of E for the shipped configs' matched chirps).
    |c_m|^2 is within 2.3e-4 of the peak of its closed form
    |F(u_2) - F(u_1)|^2/(2*B*T), F = C + jS the Fresnel integrals and
    u_1,2 = sqrt(2*B*T)*(-+1/2 - m/(B*T)). Nothing is kept between calls."""
    power = _chirp_power(w.duration, w.sweep_bandwidth, grid)
    return SpectralDensity(grid, _esd_scale(w, grid) * power)


def match_rms_bandwidth(
    target_beta_rms: float,
    duration: float,
    energy: float,
    grid: FrequencyGrid,
) -> LfmWaveform:
    """Find the sweep bandwidth whose chirp ESD has a given RMS bandwidth.

    Scalar root-find over B, bracketed by the whole band [0, W]. The
    lower end costs no chirp spectrum: the B = 0 chirp is a DC tone of
    RMS bandwidth 0. The upper end costs one, the full-band sweep's.
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
