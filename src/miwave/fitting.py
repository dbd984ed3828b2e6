"""Structured phase retrieval: fit MTSFM modulation indices to a target ESD.

Pipeline: sample the matched-illumination spectrum magnitude on the bin
grid, where the sinc carriers are orthonormal, so the generic multicarrier
coefficients are c_m = sqrt(E_s(f_m)/T); then minimize the quartic
magnitude-matching objective

    F(beta) = sum_m ( c_m^2 - E * |c_m^MTSFM(beta)|^2 )^2

subject to sum_k k*beta_k lying within (1 +/- delta) of the target's
support half-width. The objective is nonconvex, so the solver is a
multistart quasi-Newton with feasible-by-construction random starts and
a ramped quadratic penalty on the support constraint.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from . import mtsfm
from .detection import detection_metric
from .mtsfm import MtsfmWaveform
from .spectral import FrequencyGrid, Scenario, SpectralDensity

__all__ = [
    "OfdmTarget",
    "FitResult",
    "solve_ofdm_coeffs",
    "support_halfwidth",
    "objective",
    "objective_and_gradient",
    "fit",
]

#: fraction of coefficient energy allowed outside the support half-width
SUPPORT_TOL = 0.01


@dataclass(frozen=True)
class OfdmTarget:
    """Real multicarrier coefficients of the target spectrum magnitude,
    indexed by harmonic order m in [-half_order, half_order]."""

    c: np.ndarray = field(repr=False)
    half_order: int
    energy: float

    def __post_init__(self) -> None:
        c = np.asarray(self.c, dtype=float)
        if c.shape != (2 * self.half_order + 1,):
            raise ValueError("coefficient vector length must be 2*half_order+1")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "c", c)

    @property
    def orders(self) -> np.ndarray:
        return np.arange(-self.half_order, self.half_order + 1)


@dataclass(frozen=True)
class FitResult:
    beta: tuple
    objective: float
    constraint_value: float
    d_squared_achieved: float
    init_beta: tuple
    iterations: int
    converged: bool
    start_index: int


def solve_ofdm_coeffs(
    mi_esd: SpectralDensity, grid: FrequencyGrid, energy: float
) -> OfdmTarget:
    """The target's multicarrier coefficients c_m = sqrt(E_s(f_m)/T).

    The design spectrum's phase carries no information, so the magnitude
    sqrt(E_s(f)) is used directly. The carriers sinc(T*f - m) are
    orthonormal on the bin grid f_m = m/T, so each coefficient is the
    scaled spectrum sample, which makes sum_m c_m^2 equal the discretized
    ESD energy.
    """
    if mi_esd.grid != grid:
        raise ValueError("ESD must live on the supplied grid")
    c = np.sqrt(mi_esd.values / grid.duration)
    return OfdmTarget(c, grid.half_order, float(energy))


def support_halfwidth(target: OfdmTarget, support_tol: float = SUPPORT_TOL) -> int:
    """Smallest half-width kappa capturing (1 - tol) of the coefficient
    energy around DC."""
    if not 0 < support_tol <= 0.1:
        raise ValueError("support_tol must lie in (0, 0.1]")
    power = target.c**2
    total = power.sum()
    if total == 0:
        return 0
    h = target.half_order
    for kappa in range(h + 1):
        if power[h - kappa : h + kappa + 1].sum() >= (1.0 - support_tol) * total:
            return kappa
    return h


def _target_power(target: OfdmTarget, order_bound: int) -> np.ndarray:
    """c_m^2 on m in [-order_bound, order_bound], zero-padded."""
    t = np.zeros(2 * order_bound + 1)
    lo = min(order_bound, target.half_order)
    m = np.arange(-lo, lo + 1)
    t[m + order_bound] = target.c[m + target.half_order] ** 2
    return t


def objective_and_gradient(
    beta, target: OfdmTarget, order_bound: int
) -> tuple[float, np.ndarray]:
    """Quartic fit objective and its analytic gradient.

    Uses the coefficient derivative d c_m / d beta_k =
    -j*(c_{m-k} + c_{m+k})/2, which follows from differentiating
    exp(j*phi) under the cosine harmonic at index k.
    """
    beta = np.asarray(beta, dtype=float)
    k_max = beta.size
    w = MtsfmWaveform(1.0, 1.0, tuple(beta))
    ext = mtsfm.coefficients(w, order_bound + k_max, tail_tol=np.inf)
    c_ext = ext.coeffs
    center = order_bound + k_max
    m = np.arange(-order_bound, order_bound + 1)
    c = c_ext[m + center]
    u = np.abs(c) ** 2
    t_pow = _target_power(target, order_bound)
    resid = target.energy * u - t_pow
    f_val = float(np.sum(resid**2))
    grad = np.empty(k_max)
    for k in range(1, k_max + 1):
        shift = c_ext[m - k + center] + c_ext[m + k + center]
        du = np.imag(np.conj(c) * shift)
        grad[k - 1] = 2.0 * target.energy * np.sum(resid * du)
    return f_val, grad


def objective(beta, target: OfdmTarget, order_bound: int) -> float:
    """Quartic distance between target and MTSFM coefficient powers."""
    return objective_and_gradient(beta, target, order_bound)[0]


def _draw_start(
    rng: np.random.Generator, k_harm: int, kappa: int, delta: float
) -> np.ndarray:
    # feasible by construction: sum_k k*beta_k = s*kappa with s in [1-d, 1+d]
    if kappa == 0:
        return np.zeros(k_harm)
    u = rng.uniform(0.0, 1.0, k_harm)
    u /= u.sum()
    s = rng.uniform(1.0 - delta, 1.0 + delta)
    k = np.arange(1, k_harm + 1)
    return u * kappa * s / k


def _constraint_violation(beta: np.ndarray, lo: float, hi: float) -> float:
    val = float(np.arange(1, beta.size + 1) @ beta)
    if val < lo:
        return val - lo
    if val > hi:
        return val - hi
    return 0.0


def fit(
    target: OfdmTarget,
    k_harmonics: int,
    delta: float,
    n_starts: int,
    seed: int,
    *,
    scenario: Scenario | None = None,
    order_bound: int | None = None,
    support_tol: float = SUPPORT_TOL,
    max_iter: int = 500,
    ftol: float = 1e-14,
    inner_restarts: int = 3,
) -> list[FitResult]:
    """Multistart constrained fit of MTSFM indices to a target spectrum.

    Runs ``n_starts`` independent quasi-Newton minimizations from random
    feasible starts (per-start RNG streams spawned from ``seed`` so the
    result list is reproducible). The quartic objective has poor local
    minima; each start therefore runs ``inner_restarts`` independent
    local searches from fresh feasible draws of its own stream and keeps
    the lowest penalized objective. When a ``scenario`` is supplied each
    result's detection metric is evaluated on the scenario grid and the
    list is sorted by it, best first; otherwise by objective value.
    """
    if k_harmonics < 1:
        raise ValueError("k_harmonics must be >= 1")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if n_starts < 1:
        raise ValueError("n_starts must be >= 1")
    kappa = support_halfwidth(target, support_tol)
    lo, hi = (1.0 - delta) * kappa, (1.0 + delta) * kappa
    if order_bound is None:
        order_bound = max(target.half_order, int(np.ceil(hi)) + 16)
    feas_tol = 1e-8 + 1e-6 * kappa
    k_vec = np.arange(1, k_harmonics + 1, dtype=float)

    opts = {"maxiter": max_iter, "ftol": ftol, "gtol": 1e-12}

    def run_local(beta0):
        """Penalty rounds around L-BFGS-B, restarting once on abnormal
        line-search termination; returns (beta, penalized f, iterations,
        success)."""
        weight = max(target.energy**2, 1.0)
        beta, nit, success = beta0, 0, False
        for _round in range(4):

            def penalized(b):
                f_val, grad = objective_and_gradient(b, target, order_bound)
                viol = _constraint_violation(np.asarray(b), lo, hi)
                return (
                    f_val + weight * viol**2,
                    grad + 2.0 * weight * viol * k_vec,
                )

            res = minimize(penalized, beta, jac=True, method="L-BFGS-B", options=opts)
            nit += res.nit
            if not res.success:
                res2 = minimize(
                    penalized, res.x, jac=True, method="L-BFGS-B", options=opts
                )
                nit += res2.nit
                if res2.fun <= res.fun:
                    res = res2
            beta, success = res.x, bool(res.success)
            if abs(_constraint_violation(beta, lo, hi)) <= feas_tol:
                break
            weight *= 10.0
        return beta, float(res.fun), nit, success

    results: list[FitResult] = []
    for i in range(n_starts):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), i]))
        beta0 = _draw_start(rng, k_harmonics, kappa, delta)
        beta, f_pen, nit, success = run_local(beta0)
        for _ in range(max(inner_restarts - 1, 0)):
            alt0 = _draw_start(rng, k_harmonics, kappa, delta)
            alt, alt_f, alt_nit, alt_ok = run_local(alt0)
            nit += alt_nit
            if alt_f < f_pen:
                beta, f_pen, success = alt, alt_f, alt_ok
        f_final = objective(beta, target, order_bound)
        constraint_value = float(k_vec @ beta)
        feasible = abs(_constraint_violation(beta, lo, hi)) <= feas_tol
        d2 = float("nan")
        if scenario is not None:
            w = MtsfmWaveform(
                scenario.grid.duration, target.energy, tuple(beta)
            )
            esd = mtsfm.esd_on_grid(w, scenario.grid)
            d2 = detection_metric(esd, scenario)
        results.append(
            FitResult(
                beta=tuple(float(b) for b in beta),
                objective=f_final,
                constraint_value=constraint_value,
                d_squared_achieved=d2,
                init_beta=tuple(float(b) for b in beta0),
                iterations=nit,
                converged=bool(success and feasible),
                start_index=i,
            )
        )
    if scenario is not None:
        results.sort(key=lambda r: (-r.d_squared_achieved, r.start_index))
    else:
        results.sort(key=lambda r: (r.objective, r.start_index))
    return results
