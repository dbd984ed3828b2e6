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
from dataclasses import dataclass

import numpy as np

from .spectral import (
    FrequencyGrid, SpectralDensity, finite_nonnegative, finite_positive, finite_real,
    read_only, recentre,
)

__all__ = [
    "MtsfmWaveform",
    "phase",
    "envelope",
    "time_series",
    "coefficients",
    "spectrum",
    "esd_on_grid",
    "rms_bandwidth",
]

#: Parseval tail 1 - sum_m |c_m|^2 above which coefficients count as truncated
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
        finite_positive("duration", self.duration)
        finite_positive("energy", self.energy)
        beta = tuple(float(finite_real("mod_indices", b)) for b in self.mod_indices)
        if len(beta) < 1:
            raise ValueError("at least one modulation index is required")
        object.__setattr__(self, "mod_indices", beta)

    @property
    def num_harmonics(self) -> int:
        return len(self.mod_indices)

    @property
    def index_weight(self) -> float:
        """w = sum_k k*|beta_k|: bounds the instantaneous-frequency excursion
        in units of 1/T. The spectrum reaches about w + K orders (Carson's
        rule), as harmonic k puts J_1(beta_k) at +-k/T however small."""
        return float(
            sum((k + 1) * abs(b) for k, b in enumerate(self.mod_indices))
        )


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
    if np.any(np.abs(t_arr) > w.duration / 2.0):
        raise ValueError("t outside the waveform support [-T/2, T/2]")
    cos_kt = _harmonic_cosines(t_arr, w.num_harmonics, w.duration)
    out = _phase_sum(cos_kt, np.array([w.mod_indices]))[0]
    return out if out.ndim else float(out)


def _mirrored(half: np.ndarray, n: int) -> np.ndarray:
    """n samples of an even phase from those of nodes 0..n//2 (last axis),
    on nodes with t_{n-i} == -t_i: node n - i takes node i's sample."""
    return np.concatenate((half, half[..., n - half.shape[-1]:0:-1]), axis=-1)


def unit_envelope(duration: float, n: int, phase_of):
    """``(t, exp(j*phase_of(t)))`` at the n >= 2 nodes t_i = (i - n/2)*(T/n),
    t_0 = -T/2, of [-T/2, T/2), for an even ``phase_of``. The product form
    gives t_{n-i} == -t_i bit for bit, so ``phase_of`` is called on nodes
    0..n//2 only and the rest are mirrored. At T = 1 and n a power of two,
    t_i = -1/2 + i/n exactly."""
    t = (np.arange(n) - n / 2.0) * (duration / n)
    t[0] = -duration / 2.0  # the product may round past -T/2
    return t, _mirrored(np.exp(1j * phase_of(t[: n // 2 + 1])), n)


def envelope(duration, energy, sample_rate, bandwidth, phase_of):
    """Constant-modulus samples sqrt(E/T)*exp(j*phase_of(t)) at the
    n = max(round(rate*T), 2) nodes of :func:`unit_envelope`.

    The one Nyquist guard: ValueError unless the rate is finite, positive
    and at least 2*max(B, 1/T) for the two-sided ``bandwidth`` B in Hz.
    ``phase_of`` must be even, phase_of(-t) == phase_of(t) bit for bit,
    as the chirp's pi*B*t^2/T and the MTSFM's -sum_k beta_k cos(2*pi*k*t/T)
    are: it is evaluated on half the nodes. Returns ``(t, samples)``.
    """
    guard = 2.0 * max(finite_nonnegative("bandwidth", bandwidth), 1.0 / duration)
    if finite_positive("sample_rate", sample_rate) < guard:
        raise ValueError(
            f"sample_rate {sample_rate:.3g} Hz below Nyquist guard {guard:.3g} Hz"
        )
    n = max(int(round(sample_rate * duration)), 2)
    t, x = unit_envelope(duration, n, phase_of)
    return t, np.sqrt(energy / duration) * x


def time_series(w: MtsfmWaveform, sample_rate: float):
    """Complex envelope samples on [-T/2, T/2) at a uniform rate, which
    :func:`envelope` guards on Carson's bandwidth 2*(w + K)/T: the lines
    reach about w + K orders, w the index weight. Returns ``(t, samples)``."""
    carson = 2.0 * (w.index_weight + w.num_harmonics) / w.duration
    return envelope(w.duration, w.energy, sample_rate, carson, lambda t: phase(w, t))


def _fft_size(order_bound: int) -> int:
    """Smallest power of two n >= 4B + 2, at least 64, for order bound B.

    The n-point trapezoid rule on a smooth periodic integrand errs only
    by aliasing: it returns c_m + sum_{j != 0} c_{m+j*n} (Trefethen and
    Weideman, SIAM Review 2014), and with n >= 4B+2 every alias of an
    order |m| <= B comes from an order |m + j*n| >= 3B+2. A bound B 16
    orders past the index weight sum_k k*|beta_k| does not make even the
    tail past B negligible: at weight 10.5 shared by K = 8 harmonics the
    Parseval tail is 2.9e-5 at B = 20 and 3.2e-8 at B = 30, and it
    exceeds ``TAIL_TOL`` at B = ceil(weight) + 16 for 191 of 200 random
    K = 8 waveforms with beta_k in [-2, 2]. The doubling loop of
    :func:`coefficients` is what reaches ``TAIL_TOL``.
    """
    return max(1 << (4 * order_bound + 1).bit_length(), 64)


@functools.lru_cache(maxsize=8)
def _phase_table(num_harmonics: int, n: int) -> np.ndarray:
    """cos(2*pi*k*t) at the n FFT nodes t = -1/2 + i/n, shape (n, K): time
    in units of T, so no duration enters. Cached and shared, hence
    read-only; a fit reads one, and the small cache bounds what large K
    and n retain."""
    t = -0.5 + np.arange(n) * (1.0 / n)
    return read_only(_harmonic_cosines(t, num_harmonics, 1.0))


def _samples(beta: np.ndarray, n: int) -> np.ndarray:
    """exp(j*phi) at the n nodes -1/2 + i/n, shape (S, n), for a finite
    (S, K) float batch ``beta``, unchecked. The phase sum is the
    :func:`_phase_sum` of :func:`phase`, so each row is bit-for-bit
    exp(j*phase) at T = 1, whatever the other rows. Rows i and n - i of
    the phase table are equal, as the cosines are even, so only nodes
    0..n/2 are summed and the rest mirrored."""
    table = _phase_table(beta.shape[1], n)[: n // 2 + 1]
    return _mirrored(np.exp(1j * _phase_sum(table, beta)), n)


def raw_coefficients(beta: np.ndarray, order_bound: int) -> np.ndarray:
    """The coefficients c_m = (1/n) sum_i x_i exp(-j*2*pi*m*t_i), |m| <= B,
    of the :func:`_samples` at n = ``_fft_size(order_bound)``, shape
    (S, 2B+1): the kernel of :func:`coefficients`. Order m is FFT bin
    m mod n times (-1)^m, for the -1/2 origin of the nodes."""
    n = _fft_size(order_bound)
    m = np.arange(-order_bound, order_bound + 1)
    # take, not [:, m % n] indexing, keeps rows contiguous, so that a
    # row-wise sum of the result reduces each row as it would reduce it alone
    return (np.fft.fft(_samples(beta, n), axis=-1) / n).take(m % n, axis=1) * (-1.0) ** m


def coefficients(w: MtsfmWaveform) -> np.ndarray:
    """Fourier coefficients c_m of exp(j*phi(t)) by dense FFT quadrature,
    as a centred array: order m at index m + B for the order bound B.

    One truncation policy: B is ceil(sum_k k*|beta_k|) plus a guard that
    doubles from 16, at most ten bounds, up to the first whose Parseval
    tail 1 - sum_m |c_m|^2 is at most ``TAIL_TOL``. A tail above
    ``TAIL_TOL`` at the tenth bound only triggers a warning.
    """
    beta = np.array([w.mod_indices])
    for i in range(10):
        bound = math.ceil(w.index_weight) + (16 << i)
        c = raw_coefficients(beta, bound)[0]
        tail = max(1.0 - float(np.sum(np.abs(c) ** 2)), 0.0)
        if tail <= TAIL_TOL:
            return c
    warnings.warn(
        f"coefficient tail energy {tail:.2e} exceeds "
        f"{TAIL_TOL:.1e} at order bound {bound}",
        stacklevel=2,
    )
    return c


def spectrum(w: MtsfmWaveform, f) -> np.ndarray | complex:
    """Truncated multicarrier spectrum sqrt(E*T) * sum_m c_m sinc(T*f - m)
    of the waveform's :func:`coefficients`."""
    coeffs = coefficients(w)
    f_arr = np.atleast_1d(np.asarray(f, dtype=float))
    m = np.arange(coeffs.size) - coeffs.size // 2
    args = w.duration * f_arr[:, None] - m[None, :]
    out = np.sqrt(w.energy * w.duration) * (np.sinc(args) @ coeffs)
    return out if np.ndim(f) else complex(out[0])


def _esd_scale(w, grid: FrequencyGrid) -> float:
    """E*T, once the grid's bins are checked to be the waveform's m/T."""
    if not math.isclose(grid.duration, w.duration, rel_tol=1e-12):
        raise ValueError("grid spacing must equal 1/T of the waveform")
    return w.energy * w.duration


def esd_on_grid(w: MtsfmWaveform, grid: FrequencyGrid) -> SpectralDensity:
    """ESD sampled at the grid bins: E*T*|c_m|^2 at f = m/T.

    The sinc carriers are orthonormal and vanish at the other bins, so
    the on-grid ESD is exact. Energy beyond the grid's outermost bin is
    the out-of-band tail and simply missing from the integral.
    """
    power = _esd_scale(w, grid) * np.abs(coefficients(w)) ** 2
    return SpectralDensity(grid, recentre(power, grid.half_order))


def rms_bandwidth(esd: SpectralDensity, energy: float) -> float:
    """RMS bandwidth sqrt((2*pi)^2/E * integral f^2 ESD df), in rad/s."""
    finite_positive("energy", energy)
    f = esd.grid.bin_freqs
    second_moment = np.sum(f**2 * esd.values) * esd.grid.spacing
    return float(2.0 * np.pi * np.sqrt(second_moment / energy))
