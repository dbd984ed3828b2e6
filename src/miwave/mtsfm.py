"""Multi-tone sinusoidal FM waveform model.

An MTSFM has instantaneous phase phi(t) = -sum_k beta_k cos(2*pi*k*t/T),
so the complex envelope sqrt(E/T)*exp(j*phi) is constant modulus by
construction. Its Fourier-series coefficients c_m (generalized Bessel
values) make it a multicarrier waveform: the spectrum is a superposition
of sinc carriers at m/T, which is what the spectral fitting exploits.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .spectral import FrequencyGrid, SpectralDensity

__all__ = [
    "MtsfmWaveform",
    "CoefficientSet",
    "phase",
    "modulation",
    "time_series",
    "coefficients",
    "spectrum",
    "esd_on_grid",
    "rms_bandwidth",
]

#: tail energy above which a coefficient set is flagged as truncated
TAIL_TOL = 1e-8


@dataclass(frozen=True)
class MtsfmWaveform:
    """Constant-modulus FM waveform with sine-harmonic modulation.

    Parameters
    ----------
    duration : float
        Pulse length T in seconds; support is [-T/2, T/2).
    energy : float
        Total energy E; envelope magnitude is sqrt(E/T).
    mod_indices : tuple of float
        Modulation indices beta_k for harmonics k = 1..K.
    """

    duration: float
    energy: float
    mod_indices: tuple

    def __post_init__(self) -> None:
        if self.duration <= 0 or self.energy <= 0:
            raise ValueError("duration and energy must be positive")
        beta = tuple(float(b) for b in self.mod_indices)
        if len(beta) < 1:
            raise ValueError("at least one modulation index is required")
        if not all(math.isfinite(b) for b in beta):
            raise ValueError("modulation indices must be finite")
        object.__setattr__(self, "mod_indices", beta)

    @property
    def num_harmonics(self) -> int:
        return len(self.mod_indices)

    @property
    def index_weight(self) -> float:
        """sum_k k*|beta_k|: bounds the instantaneous-frequency excursion
        (in units of 1/T) and hence the coefficient support."""
        return float(
            sum((k + 1) * abs(b) for k, b in enumerate(self.mod_indices))
        )


@dataclass(frozen=True)
class CoefficientSet:
    """Fourier-series coefficients c_m of the unit-modulus phase factor,
    for orders m in [-order_bound, order_bound]."""

    coeffs: np.ndarray = field(repr=False)
    order_bound: int

    @property
    def orders(self) -> np.ndarray:
        return np.arange(-self.order_bound, self.order_bound + 1)

    @property
    def tail_energy(self) -> float:
        """Unit-energy deficit 1 - sum |c_m|^2 outside the truncation."""
        return float(max(1.0 - np.sum(np.abs(self.coeffs) ** 2), 0.0))

    def at(self, m: int) -> complex:
        if abs(m) > self.order_bound:
            return 0j
        return complex(self.coeffs[m + self.order_bound])


def _check_support(w: MtsfmWaveform, t: np.ndarray) -> None:
    half = w.duration / 2.0
    if np.any(t < -half) or np.any(t > half):
        raise ValueError("t outside the waveform support [-T/2, T/2]")


def _harmonic_cosines(t: np.ndarray, num_harmonics: int, duration: float) -> np.ndarray:
    """cos(2*pi*k*t/T) for k = 1..K along a new last axis."""
    k = np.arange(1, num_harmonics + 1)
    return np.cos(2.0 * np.pi * np.multiply.outer(t, k) / duration)


def phase(w: MtsfmWaveform, t) -> np.ndarray | float:
    """Instantaneous phase phi(t) = -sum_k beta_k cos(2*pi*k*t/T)."""
    t_arr = np.asarray(t, dtype=float)
    _check_support(w, t_arr)
    cos_kt = _harmonic_cosines(t_arr, w.num_harmonics, w.duration)
    out = -(cos_kt @ np.array(w.mod_indices))
    return out if out.ndim else float(out)


def modulation(w: MtsfmWaveform, t) -> np.ndarray | float:
    """Frequency modulation m(t) = sum_k b_k sin(2*pi*k*t/T), b_k = beta_k*k/T."""
    t_arr = np.asarray(t, dtype=float)
    _check_support(w, t_arr)
    k = np.arange(1, w.num_harmonics + 1)
    b = np.array(w.mod_indices) * k / w.duration
    out = np.sum(
        b * np.sin(2.0 * np.pi * np.multiply.outer(t_arr, k) / w.duration),
        axis=-1,
    )
    return out if out.ndim else float(out)


def max_instantaneous_freq(w: MtsfmWaveform) -> float:
    """Upper bound sum_k |b_k| on |m(t)| in Hz."""
    return w.index_weight / w.duration


def time_series(w: MtsfmWaveform, sample_rate: float):
    """Complex envelope samples on [-T/2, T/2) at a uniform rate.

    Returns ``(t, samples)``. The rate must be at least twice the Nyquist
    rate of the instantaneous-frequency bound (or of 1/T, whichever is
    larger); below that ValueError is raised.
    """
    if sample_rate <= 0:
        raise ValueError("sample_rate must be positive")
    nyq_guard = 4.0 * max(max_instantaneous_freq(w), 1.0 / w.duration)
    if sample_rate < nyq_guard:
        raise ValueError(
            f"sample_rate {sample_rate:.3g} Hz below Nyquist guard {nyq_guard:.3g} Hz"
        )
    n = max(int(round(sample_rate * w.duration)), 2)
    t = -w.duration / 2.0 + np.arange(n) * (w.duration / n)
    samples = np.sqrt(w.energy / w.duration) * np.exp(1j * phase(w, t))
    return t, samples


def _fft_size(order_bound: int) -> int:
    """Smallest power of two n >= 2*(2B+1), at least 64, for order bound B.

    The n-point trapezoid rule on a smooth periodic integrand errs only
    by aliasing: it returns c_m + sum_{j != 0} c_{m+j*n} (Trefethen and
    Weideman, SIAM Review 2014). With n >= 4B+2, every alias of an order
    |m| <= B comes from an order |m + j*n| >= n - B >= 3B+2. Callers put
    B at least 16 orders past the index weight sum_k k*|beta_k|, beyond
    which the coefficients decay like Bessel values, so those aliases are
    at rounding level.
    """
    return max(1 << (2 * (2 * order_bound + 1) - 1).bit_length(), 64)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=8)
def _phase_table(duration: float, num_harmonics: int, n: int) -> np.ndarray:
    """cos(2*pi*k*t/T) at the n FFT nodes t = -T/2 + i*T/n, shape (n, K).

    Cached and shared by every caller, hence read-only. A fit reads one
    or two tables; the small cache bounds what large K and n retain.
    """
    t = -duration / 2.0 + np.arange(n) * (duration / n)
    return _read_only(_harmonic_cosines(t, num_harmonics, duration))


@functools.lru_cache(maxsize=32)
def _order_fold(order_bound: int) -> tuple[np.ndarray, np.ndarray]:
    """FFT bin m mod n of each order |m| <= order_bound, and the (-1)^m
    ramp that accounts for the -T/2 origin of the samples; read-only."""
    m = np.arange(-order_bound, order_bound + 1)
    return _read_only(m % _fft_size(order_bound)), _read_only((-1.0) ** m)


def raw_coefficients(
    beta: np.ndarray, duration: float, order_bound: int
) -> np.ndarray:
    """Fourier coefficients c_m, |m| <= order_bound, of exp(j*phi(t)) by
    FFT quadrature of the phase on the cached nodes of :func:`_fft_size`.

    The phase sum is the same ``table @ beta`` as in :func:`phase`, so
    the result is bit-for-bit the FFT of the public phase on those
    nodes. The kernel behind :func:`coefficients` and the spectral-fit
    objective: ``beta`` must be a finite float array of length K >= 1,
    since nothing here validates it.
    """
    n = _fft_size(order_bound)
    phi = -(_phase_table(duration, beta.size, n) @ beta)
    f = np.fft.fft(np.exp(1j * phi)) / n
    fold, ramp = _order_fold(order_bound)
    return f[fold] * ramp


def coefficients(w: MtsfmWaveform, order_bound: int | None = None) -> CoefficientSet:
    """Fourier coefficients of exp(j*phi(t)) by dense FFT quadrature.

    With ``order_bound=None`` the truncation grows, ceil(sum_k k*|beta_k|)
    plus a guard doubling from 16 up to ten times, until the Parseval
    tail is at most ``TAIL_TOL``. An explicit ``order_bound`` is the one
    bound tried, since a caller may truncate on purpose. A tail above
    ``TAIL_TOL`` at the last bound tried only triggers a warning.
    """
    if order_bound is None:
        bounds = [math.ceil(w.index_weight) + (16 << i) for i in range(10)]
    elif order_bound < 1:
        raise ValueError("order_bound must be >= 1")
    else:
        bounds = [order_bound]
    beta = np.array(w.mod_indices)
    for bound in bounds:
        cs = CoefficientSet(raw_coefficients(beta, w.duration, bound), bound)
        if cs.tail_energy <= TAIL_TOL:
            return cs
    warnings.warn(
        f"coefficient tail energy {cs.tail_energy:.2e} exceeds "
        f"{TAIL_TOL:.1e} at order bound {bound}",
        stacklevel=2,
    )
    return cs


def spectrum(w: MtsfmWaveform, coeffs: CoefficientSet, f) -> np.ndarray | complex:
    """Truncated multicarrier spectrum sqrt(E*T) * sum_m c_m sinc(T*f - m)."""
    f_arr = np.atleast_1d(np.asarray(f, dtype=float))
    m = coeffs.orders
    args = w.duration * f_arr[:, None] - m[None, :]
    out = np.sqrt(w.energy * w.duration) * (np.sinc(args) @ coeffs.coeffs)
    return out if np.ndim(f) else complex(out[0])


def esd_on_grid(w: MtsfmWaveform, grid: FrequencyGrid) -> SpectralDensity:
    """ESD sampled at the grid bins: E*T*|c_m|^2 at f = m/T.

    The sinc carriers are orthonormal and vanish at the other bins, so
    the on-grid ESD is exact. Energy beyond the grid's outermost bin is
    the out-of-band tail and simply missing from the integral.
    """
    if not math.isclose(grid.duration, w.duration, rel_tol=1e-12):
        raise ValueError("grid spacing must equal 1/T of the waveform")
    coeffs = coefficients(w)
    values = np.zeros(grid.num_bins)
    h = grid.half_order
    lo = min(h, coeffs.order_bound)
    m = np.arange(-lo, lo + 1)
    values[m + h] = (
        w.energy * w.duration * np.abs(coeffs.coeffs[m + coeffs.order_bound]) ** 2
    )
    return SpectralDensity(grid, values)


def rms_bandwidth(esd: SpectralDensity, energy: float) -> float:
    """RMS bandwidth sqrt((2*pi)^2/E * integral f^2 ESD df), in rad/s."""
    if energy <= 0:
        raise ValueError("energy must be positive")
    f = esd.grid.bin_freqs
    second_moment = np.sum(f**2 * esd.values) * esd.grid.spacing
    return float(2.0 * np.pi * np.sqrt(second_moment / energy))
