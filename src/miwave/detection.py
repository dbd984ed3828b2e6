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
    """Empirical ROC points at the requested false-alarm rates, with the
    analytic P_D = p_fa^(1/(1+d^2)) of :func:`analytic_roc` at the same
    rates as ``p_d_analytic``.

    ``p_d_stderr`` is the standard error of ``p_d`` at ``p_d_analytic``.
    The threshold is an empirical H0 quantile, so ``p_d`` carries the
    threshold's noise as well as its own binomial noise: to first order
    the variance is (P_D*(1-P_D) + g^2*p_fa*(1-p_fa))/trials with the ROC
    slope g = P_D/((1+d^2)*p_fa). The covariance of the two terms is not
    negative and is left out, so this bounds the variance from above.
    """

    trials: int
    thresholds: np.ndarray = field(repr=False)
    p_fa: np.ndarray = field(repr=False)
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
    sequence of reals, each in (0, 1)."""
    p_fa = tuple(float(finite_real("p_fa_grid", p)) for p in p_fa_grid)
    if not p_fa or not all(0 < p < 1 for p in p_fa):
        raise ValueError("p_fa_grid must be nonempty with values in (0, 1)")
    return as_int("trials", trials, 1000), p_fa


# rows of one standard-normal draw hold about this many doubles (512 KiB)
_CHUNK_DOUBLES = 1 << 16


def _projected_draws(rng, coef, trials: int) -> np.ndarray:
    """Z @ coef for Z[t, m] = N[t, 2m] + 1j*N[t, 2m+1], N a fresh
    standard-normal (trials x 2*bins) block, drawn without ever holding N.

    N is drawn in row chunks of about ``_CHUNK_DOUBLES`` values, each
    viewed in place as complex. A generator fills sequentially and
    caches nothing, so the chunks hold the numbers of one whole draw of N.
    """
    rows = min(trials, max(1, _CHUNK_DOUBLES // (2 * coef.size)))
    chunk = np.empty((rows, 2 * coef.size))
    out = np.empty(trials, dtype=complex)
    for start in range(0, trials, rows):
        z = chunk[: min(rows, trials - start)]
        rng.standard_normal(out=z)
        out[start : start + z.shape[0]] = z.view(complex) @ coef
    return out


def monte_carlo_roc(
    esd: SpectralDensity,
    scenario: Scenario,
    trials: int,
    seed: int,
    p_fa_grid=(0.001, 0.01, 0.1, 0.5),
) -> MonteCarloRoc:
    """Empirical ROC of the NP receiver for a transmit ESD, by simulation;
    ValueError unless ``esd`` and ``scenario`` share a grid.

    The bin spectrum is s_m = sqrt(ESD(f_m)), since the statistic's law
    depends on s only through |s|^2: the weight conj(s_m)/(P_h|s_m|^2 +
    P_n) strips the phase of s_m from the target term A*s_m, and leaves
    circular interference circular.

    Each trial draws every bin's interference x0_m = h_m*s_m + n_m, the
    clutter and noise the receiver sees in that bin. h_m and n_m are
    independent circular Gaussians with variances P_h(f_m)*T and
    P_n(f_m)*T (the Fourier coefficient of a stationary process over a
    window of length T has variance PSD*T), so x0_m is exactly
    CN(0, T*(P_h|s_m|^2 + P_n)) and is drawn as that one complex
    Gaussian. Under H1 a fresh target amplitude A ~ CN(0, sigma_A^2)
    adds A*s_m. The receiver weights each bin's sample, so the test
    statistic is still simulated bin by bin rather than drawn from its
    closed-form distribution. Thresholds are the empirical H0 quantiles
    at the requested false-alarm rates, and the standard errors include
    the noise of those quantiles (see :class:`MonteCarloRoc`).

    The statistic is linear in the draws, so no (trials x bins) array is
    formed. One ``default_rng(seed)`` stream gives a standard-normal
    (trials x 2*bins) block, a row holding its trial's bins in order, real
    then imaginary part; it is drawn in row chunks, each reduced at once
    to its per-trial share of the H0 receiver output u0. The amplitude's
    real and imaginary parts (trials each) follow. Memory is
    O(trials + chunk), and a seed gives the same ROC as drawing the block
    whole.
    """
    trials, p_fa_grid = check_roc_params(trials, p_fa_grid)
    rng = np.random.default_rng(as_int("seed", seed, 0))
    d2 = detection_metric(esd, scenario)
    p_d = np.array([p for _, p in analytic_roc(d2, p_fa_grid)])
    p_fa_grid = np.asarray(p_fa_grid)

    s = np.sqrt(esd.values)
    denom = scenario.channel_psd.values * esd.values + scenario.noise_psd.values
    weight = s / denom

    # x0 = sqrt(T*denom/2)*Z (T: PSD -> Fourier-coefficient variance), so
    # u0 = x0 @ weight = Z @ (sqrt(T*denom/2)*weight)
    scale = np.sqrt(scenario.grid.duration * denom / 2.0)
    u0 = _projected_draws(rng, scale * weight, trials)
    amp_scale = np.sqrt(scenario.target_variance / 2.0)
    amp = amp_scale * (rng.standard_normal(trials) + 1j * rng.standard_normal(trials))

    stat0 = np.abs(u0) ** 2
    stat1 = np.abs(amp * (s @ weight) + u0) ** 2

    thresholds = np.quantile(stat0, 1.0 - p_fa_grid)
    p_fa_hat = np.mean(stat0[:, None] > thresholds[None, :], axis=0)
    p_d_hat = np.mean(stat1[:, None] > thresholds[None, :], axis=0)

    slope = p_d / ((1.0 + d2) * p_fa_grid)
    var = p_d * (1.0 - p_d) + slope**2 * p_fa_grid * (1.0 - p_fa_grid)
    return MonteCarloRoc(
        trials=trials,
        thresholds=thresholds,
        p_fa=p_fa_hat,
        p_d=p_d_hat,
        p_d_stderr=np.sqrt(var / trials),
        p_d_analytic=p_d,
    )
