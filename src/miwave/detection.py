"""Detection analytics and Monte Carlo validation.

The frequency-domain Neyman-Pearson receiver weights each bin by
S*(f_m) / (P_h |S|^2 + P_n); its performance is fully characterized by
the deflection metric

    d^2 = sigma_A^2 * integral |S|^2 / (P_h |S|^2 + P_n) df

through the ROC relation P_D = P_FA^(1/(1+d^2)). The Monte Carlo
harness simulates the bin-domain signal model x = A*s + h*s + n and
thresholds the same statistic empirically.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .spectral import Scenario, SpectralDensity, as_int, finite_nonnegative, finite_real

__all__ = [
    "MonteCarloRoc",
    "detection_metric",
    "analytic_roc",
    "monte_carlo_roc",
]


@dataclass(frozen=True)
class MonteCarloRoc:
    """Empirical ROC at the requested false-alarm rates p_fa: the H0
    quantile ``thresholds`` and the share ``p_d`` of H1 trials above them,
    with the analytic P_D = p_fa^(1/(1+d^2)) of :func:`analytic_roc` at
    the same rates as ``p_d_analytic``.

    ``p_d_stderr`` is the standard error of ``p_d`` at ``p_d_analytic``.
    The threshold is an empirical H0 quantile, so ``p_d`` carries the
    threshold's noise as well as its own binomial noise: to first order
    the variance is (P_D*(1-P_D) + g^2*p_fa*(1-p_fa))/trials with the ROC
    slope g = P_D/((1+d^2)*p_fa). The covariance of the two terms is not
    negative and is left out, so this bounds the variance from above. At
    p_fa*trials >= 1, which :func:`check_roc_params` asks, the standard
    error is below 0.056 for trials from 1e3 to 1e8 and d^2 in [0, 1e4].
    """

    trials: int
    thresholds: np.ndarray = field(repr=False)
    p_d: np.ndarray = field(repr=False)
    p_d_stderr: np.ndarray = field(repr=False)
    p_d_analytic: np.ndarray = field(repr=False)


def detection_metric(esd: SpectralDensity, scenario: Scenario) -> float:
    """Deflection metric d^2 of the NP receiver for a transmit ESD."""
    if esd.grid != scenario.grid:
        raise ValueError("ESD and scenario must share a grid")
    p_n = scenario.noise_psd.values
    p_h = scenario.channel_psd.values
    v = esd.values
    integrand = v / (p_h * v + p_n)
    return float(scenario.target_variance * np.sum(integrand) * esd.grid.spacing)


def analytic_roc(d_squared: float, p_fa_list) -> list:
    """ROC pairs (p_fa, p_d) with p_d = p_fa**(1/(1+d^2))."""
    finite_nonnegative("d_squared", d_squared)
    p_fa = np.asarray(p_fa_list, dtype=float)
    if not np.all((p_fa > 0) & (p_fa <= 1)):
        raise ValueError("p_fa values must lie in (0, 1]")
    p_d = p_fa ** (1.0 / (1.0 + d_squared))
    return list(zip(p_fa.tolist(), p_d.tolist()))


def check_roc_params(trials, p_fa_grid) -> tuple[int, tuple]:
    """``(trials, p_fa_grid)`` as an int and a tuple of floats; ValueError
    unless ``trials`` is an integer >= 1000 and ``p_fa_grid`` a nonempty
    sequence of reals, each in (0, 1) with p_fa*trials >= 1: below one
    expected false alarm the empirical threshold is the largest H0
    statistic whatever p_fa is, and ``p_d_stderr`` can pass 1."""
    p_fa = tuple(float(finite_real("p_fa_grid", p)) for p in p_fa_grid)
    if not p_fa or not all(0 < p < 1 for p in p_fa):
        raise ValueError("p_fa_grid must be nonempty with values in (0, 1)")
    trials = as_int("trials", trials, 1000)
    if min(p_fa) < 1 / trials:  # 1/trials cannot overflow, p_fa*trials can
        raise ValueError(f"p_fa_grid times trials must be at least 1, "
                         f"got p_fa {min(p_fa)!r} at trials {trials}")
    return trials, p_fa


# trials per block, the trials drawn from one seeded stream
_BLOCK_TRIALS = 8192
# rows of one standard-normal draw hold about this many doubles (512 KiB)
_CHUNK_DOUBLES = 1 << 16


def _usable_cpus() -> int:
    """CPUs this process may run on; ``os.cpu_count()`` where the platform
    has no affinity mask."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _draw_block(seed: int, block: int, coef, rows: int, u0, amp) -> None:
    """Fill block ``block``'s slice of ``u0`` with Z @ coef, then that of
    ``amp`` with standard complex normals, from the block's own stream.
    Z[t, m] = N[t, 2m] + 1j*N[t, 2m+1] for a standard-normal
    (rows x 2*coef.size) block N, drawn in chunks of ``rows`` rows into
    one buffer of the block's own. A generator fills sequentially, so the
    chunks hold one whole draw of N."""
    lo = block * _BLOCK_TRIALS
    hi = min(lo + _BLOCK_TRIALS, u0.size)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(block,)))
    chunk = np.empty((rows, 2 * coef.size))
    for start in range(lo, hi, rows):
        z = chunk[: min(rows, hi - start)]
        rng.standard_normal(out=z)
        np.einsum("ij,j->i", z.view(complex), coef,
                  out=u0[start : start + z.shape[0]])
    rng.standard_normal(out=amp[lo:hi].view(float))


def _projected_draws(seed: int, coef, trials: int) -> tuple[np.ndarray, np.ndarray]:
    """``(u0, amp)``, ``trials`` each, filled by :func:`_draw_block`, one
    call per block, on a thread pool of min(blocks, usable CPUs) threads.
    A failed block's exception reaches the caller once no block runs.
    Chunk rows depend only on the weighted-bin count ``coef.size`` and
    each block writes only its own slices, so the results do not depend
    on the pool's size or its scheduling. The sums are einsum loops, not
    BLAS calls, so no BLAS thread pool competes with the pool."""
    # imported here: only `roc` draws, so `design` and `fit` never pay for it
    from concurrent.futures import ThreadPoolExecutor

    rows = min(_BLOCK_TRIALS, max(1, _CHUNK_DOUBLES // (2 * max(1, coef.size))))
    u0 = np.empty(trials, dtype=complex)
    amp = np.empty(trials, dtype=complex)
    blocks = -(-trials // _BLOCK_TRIALS)
    with ThreadPoolExecutor(min(blocks, _usable_cpus())) as pool:
        list(pool.map(lambda b: _draw_block(seed, b, coef, rows, u0, amp), range(blocks)))
    return u0, amp


def monte_carlo_roc(
    esd: SpectralDensity,
    scenario: Scenario,
    trials: int,
    seed: int,
    p_fa_grid,
) -> MonteCarloRoc:
    """Empirical ROC of the NP receiver for a transmit ESD, by simulation;
    ValueError unless ``esd`` and ``scenario`` share a grid.

    The bin spectrum is s_m = sqrt(ESD(f_m)), since the statistic's law
    depends on s only through |s|^2: the weight conj(s_m)/(P_h|s_m|^2 +
    P_n) strips the phase of s_m from the target term A*s_m, and leaves
    circular interference circular.

    Each trial draws the interference x0_m = h_m*s_m + n_m, the clutter
    and noise the receiver sees in bin m, of each bin with a nonzero
    weight: an empty bin's weight is exactly 0, so its draw would add
    exactly 0 to the statistic. h_m and n_m are independent circular
    Gaussians with variances P_h(f_m)*T and P_n(f_m)*T (the Fourier
    coefficient of a stationary process over a window of length T has
    variance PSD*T), so x0_m is exactly CN(0, T*(P_h|s_m|^2 + P_n)) and
    is drawn as that one complex Gaussian. Under H1 a fresh target
    amplitude A ~ CN(0, sigma_A^2) adds A*s_m. The receiver weights each
    bin's sample, so the test statistic is still simulated bin by bin
    rather than drawn from its closed-form distribution. Thresholds are
    the empirical H0 quantiles at the requested false-alarm rates, and the
    standard errors include their noise (see :class:`MonteCarloRoc`).

    The statistic is linear in the draws, so no (trials x bins) array is
    formed. The trials are split into blocks of ``_BLOCK_TRIALS``, and
    block b draws from its own stream
    ``default_rng(SeedSequence(seed, spawn_key=(b,)))``, child b of
    ``SeedSequence(seed).spawn``: first a standard-normal
    (rows x 2*weighted bins) block, a row holding its trial's weighted
    bins in order, real then imaginary part, drawn in row chunks, each
    reduced at once to its per-trial share of the H0 receiver output u0;
    then the amplitudes' real and imaginary parts, alternating. A thread
    pool of up to one thread per usable CPU draws the blocks, and a seed
    gives the same bytes on any number of CPUs, and the same ROC as
    drawing each block whole. Memory is O(trials + threads*chunk).
    """
    trials, p_fa_grid = check_roc_params(trials, p_fa_grid)
    seed = as_int("seed", seed, 0)
    d2 = detection_metric(esd, scenario)
    p_d = np.array([p for _, p in analytic_roc(d2, p_fa_grid)])
    p_fa_grid = np.asarray(p_fa_grid)

    s = np.sqrt(esd.values)
    denom = scenario.channel_psd.values * esd.values + scenario.noise_psd.values
    weight = s / denom

    # x0 = sqrt(T*denom/2)*Z (T: PSD -> Fourier-coefficient variance), so
    # u0 = x0 @ weight = Z @ (sqrt(T*denom/2)*weight)
    scale = np.sqrt(scenario.grid.duration * denom / 2.0)
    coef = scale * weight
    u0, amp = _projected_draws(seed, coef[coef != 0], trials)
    amp *= np.sqrt(scenario.target_variance / 2.0)

    stat0 = np.abs(u0) ** 2
    stat1 = np.abs(amp * (s @ weight) + u0) ** 2

    thresholds = np.quantile(stat0, 1.0 - p_fa_grid)
    p_d_hat = np.mean(stat1[:, None] > thresholds[None, :], axis=0)

    slope = p_d / ((1.0 + d2) * p_fa_grid)
    var = p_d * (1.0 - p_d) + slope**2 * p_fa_grid * (1.0 - p_fa_grid)
    return MonteCarloRoc(
        trials=trials,
        thresholds=thresholds,
        p_d=p_d_hat,
        p_d_stderr=np.sqrt(var / trials),
        p_d_analytic=p_d,
    )
