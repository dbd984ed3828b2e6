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

    Scalar root-find over B, bracketed by the whole band [0, W].
    Targets above the full-band sweep's RMS bandwidth are unreachable
    (the chirp's soft spectral edges cap the second moment); they clamp
    to the full-band sweep B = W with a warning. The root is found to a
    relative tolerance of 1e-4 in B.
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
    r0 = resid(0.0)
    if r0 >= 0:
        return LfmWaveform(duration, energy, 0.0)
    b = _brentq(resid, 0.0, b_max, r0, r_max, rtol=1e-4)
    return LfmWaveform(duration, energy, float(b))


def _brentq(f, a: float, b: float, fa: float, fb: float, rtol: float) -> float:
    """Root of ``f`` in [a, b] by Brent's method (Brent 1973, ch. 4),
    given the endpoint values ``fa = f(a)`` and ``fb = f(b)``.

    A step-for-step port of scipy's ``brentq`` (its ``brentq.c``) at the
    defaults ``xtol=2e-12`` and ``maxiter=100``: the same iterates, so
    the same root, with two calls to ``f`` fewer, since the caller
    already has the endpoint values.
    """
    xtol = 2e-12
    xpre, xcur = a, b
    fpre, fcur = fa, fb
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (
                    dblk * dpre * (fblk - fpre)
                )
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis  # bisect
        else:
            spre = scur = sbis  # bisect
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise RuntimeError("Brent's method did not converge in 100 iterations")
