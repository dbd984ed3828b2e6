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

from .spectral import FrequencyGrid, SpectralDensity, read_only, recentre

__all__ = [
    "MtsfmWaveform",
    "CoefficientSet",
    "phase",
    "modulation",
    "envelope",
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


def _phase_sum(cos_kt: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """-sum_k beta_k cos_kt[..., k] for each row of ``beta`` (S, K); the
    row axis comes first.

    An einsum rather than a BLAS matmul: BLAS blocks a product by its
    shape, so a row could round differently with the number of rows,
    while the einsum sums each row alone. A row's phase is then
    bit-for-bit the same whatever rows share the call.
    """
    return -np.einsum("...k,sk->s...", cos_kt, beta)


def phase(w: MtsfmWaveform, t) -> np.ndarray | float:
    """Instantaneous phase phi(t) = -sum_k beta_k cos(2*pi*k*t/T)."""
    t_arr = np.asarray(t, dtype=float)
    _check_support(w, t_arr)
    cos_kt = _harmonic_cosines(t_arr, w.num_harmonics, w.duration)
    out = _phase_sum(cos_kt, np.array([w.mod_indices]))[0]
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


def envelope(duration, energy, sample_rate, guard, phase_of):
    """Constant-modulus samples sqrt(E/T)*exp(j*phase_of(t)) at the
    n = max(round(rate*T), 2) nodes t = -T/2 + i*T/n of [-T/2, T/2).

    Returns ``(t, samples)``. ValueError unless the rate is positive and
    at least ``guard``, the caller's Nyquist guard in Hz.
    """
    if sample_rate <= 0:
        raise ValueError("sample_rate must be positive")
    if sample_rate < guard:
        raise ValueError(
            f"sample_rate {sample_rate:.3g} Hz below Nyquist guard {guard:.3g} Hz"
        )
    n = max(int(round(sample_rate * duration)), 2)
    t = -duration / 2.0 + np.arange(n) * (duration / n)
    return t, np.sqrt(energy / duration) * np.exp(1j * phase_of(t))


def time_series(w: MtsfmWaveform, sample_rate: float):
    """Complex envelope samples on [-T/2, T/2) at a uniform rate.

    Returns ``(t, samples)``. The rate must be at least twice the Nyquist
    rate of the instantaneous-frequency bound (or of 1/T, whichever is
    larger); below that ValueError is raised.
    """
    guard = 4.0 * max(max_instantaneous_freq(w), 1.0 / w.duration)
    return envelope(w.duration, w.energy, sample_rate, guard, lambda t: phase(w, t))


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


@functools.lru_cache(maxsize=8)
def _phase_table(duration: float, num_harmonics: int, n: int) -> np.ndarray:
    """cos(2*pi*k*t/T) at the n FFT nodes of :func:`envelope`, shape (n, K).

    Cached and shared by every caller, hence read-only. A fit reads one
    or two tables; the small cache bounds what large K and n retain.
    """
    t, _ = envelope(duration, 1.0, n / duration, 0.0, np.zeros_like)
    return read_only(_harmonic_cosines(t, num_harmonics, duration))


@functools.lru_cache(maxsize=32)
def _order_fold(order_bound: int) -> tuple[np.ndarray, np.ndarray]:
    """FFT bin m mod n of each order |m| <= order_bound, and the (-1)^m
    ramp that accounts for the -T/2 origin of the samples; read-only."""
    m = np.arange(-order_bound, order_bound + 1)
    return read_only(m % _fft_size(order_bound)), read_only((-1.0) ** m)


def raw_coefficients(
    beta: np.ndarray, duration: float, order_bound: int
) -> np.ndarray:
    """Fourier coefficients c_m, |m| <= order_bound, of exp(j*phi(t)) by
    FFT quadrature of the phase on the cached nodes of :func:`_fft_size`.

    ``beta`` is a batch (S, K), one set of indices per row, and the
    result has shape (S, 2B+1). The phase sum is the same
    :func:`_phase_sum` as in :func:`phase`, so each row is bit-for-bit
    the FFT of the public phase on those nodes, and does not depend on
    the other rows. The kernel behind :func:`coefficients` and the
    spectral-fit objective: ``beta`` must be a finite 2-D float array
    with K >= 1, since nothing here validates it.
    """
    n = _fft_size(order_bound)
    phi = _phase_sum(_phase_table(duration, beta.shape[1], n), beta)
    f = np.fft.fft(np.exp(1j * phi), axis=-1) / n
    fold, ramp = _order_fold(order_bound)
    # take, not f[:, fold], keeps rows contiguous, so that a row-wise sum
    # of the result reduces each row as it would reduce it alone
    return f.take(fold, axis=1) * ramp


def coefficients(w: MtsfmWaveform) -> CoefficientSet:
    """Fourier coefficients of exp(j*phi(t)) by dense FFT quadrature.

    One truncation policy: the order bound is ceil(sum_k k*|beta_k|)
    plus a guard that doubles from 16, at most ten bounds, up to the
    first whose Parseval tail is at most ``TAIL_TOL``. A tail above
    ``TAIL_TOL`` at the tenth bound only triggers a warning.
    """
    beta = np.array([w.mod_indices])
    for i in range(10):
        bound = math.ceil(w.index_weight) + (16 << i)
        cs = CoefficientSet(raw_coefficients(beta, w.duration, bound)[0], bound)
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
    power = w.energy * w.duration * np.abs(coefficients(w).coeffs) ** 2
    return SpectralDensity(grid, recentre(power, grid.half_order))


def rms_bandwidth(esd: SpectralDensity, energy: float) -> float:
    """RMS bandwidth sqrt((2*pi)^2/E * integral f^2 ESD df), in rad/s."""
    if energy <= 0:
        raise ValueError("energy must be positive")
    f = esd.grid.bin_freqs
    second_moment = np.sum(f**2 * esd.values) * esd.grid.spacing
    return float(2.0 * np.pi * np.sqrt(second_moment / energy))
