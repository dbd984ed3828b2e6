"""Structured phase retrieval: fit MTSFM modulation indices to a target ESD.

Pipeline: sample the matched-illumination spectrum magnitude on the bin
grid, where the sinc carriers are orthonormal, so the generic multicarrier
coefficients are c_m = sqrt(E_s(f_m)/T); then minimize the quartic
magnitude-matching objective

    F(beta) = sum_m ( c_m^2 - E * |c_m^MTSFM(beta)|^2 )^2

subject to sum_k k*beta_k lying within (1 +/- delta) of the target's
support half-width. The objective is nonconvex, so the solver is a
multistart quasi-Newton with feasible-by-construction random starts. A
Householder reflection maps the unit normal k/|k| of the support slab to
the first axis, so in the reflected coordinates the slab is a box bound
on one coordinate, which L-BFGS-B enforces exactly.
"""

from __future__ import annotations

import functools
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
    "objective_and_gradient",
    "fit",
]

#: fraction of coefficient energy allowed outside the support half-width
SUPPORT_TOL = 0.01
#: local searches per start, each from a fresh feasible draw of its stream
LOCAL_SEARCHES = 3
#: L-BFGS-B iteration cap and tolerances: relative reduction of the
#: objective (passed as ``tol``) and projected gradient
MAX_ITER = 500
F_TOL = 1e-14
G_TOL = 1e-12


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


@dataclass(frozen=True)
class FitResult:
    beta: tuple
    objective: float
    constraint_value: float
    d_squared_achieved: float
    status: str
    start_index: int

    @property
    def converged(self) -> bool:
        """L-BFGS-B's success flag, read from its termination message."""
        return self.status.startswith("CONVERGENCE:")


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


def support_halfwidth(target: OfdmTarget) -> int:
    """Smallest half-width kappa capturing (1 - SUPPORT_TOL) of the
    coefficient energy around DC."""
    power = target.c**2
    total = power.sum()
    h = target.half_order
    for kappa in range(h + 1):
        if power[h - kappa : h + kappa + 1].sum() >= (1.0 - SUPPORT_TOL) * total:
            return kappa
    return h


def _target_power(target: OfdmTarget, order_bound: int) -> np.ndarray:
    """c_m^2 on m in [-order_bound, order_bound], zero-padded."""
    t = np.zeros(2 * order_bound + 1)
    lo = min(order_bound, target.half_order)
    h = target.half_order
    t[order_bound - lo : order_bound + lo + 1] = target.c[h - lo : h + lo + 1] ** 2
    return t


@functools.lru_cache(maxsize=32)
def _shift_maps(k_max: int, order_bound: int) -> np.ndarray:
    """Indices of c_{m-k} (row 0) and c_{m+k} (row 1) for k = 1..K and
    |m| <= order_bound, into coefficients of order bound order_bound + K.

    Cached and shared by every caller, hence read-only.
    """
    m = np.arange(-order_bound, order_bound + 1)
    k = np.arange(1, k_max + 1)[:, None]
    center = order_bound + k_max
    maps = np.stack([m - k + center, m + k + center])
    maps.flags.writeable = False
    return maps


def objective_and_gradient(
    beta, target: OfdmTarget, order_bound: int
) -> tuple[float, np.ndarray]:
    """Quartic fit objective and its analytic gradient.

    Uses the coefficient derivative d c_m / d beta_k =
    -j*(c_{m-k} + c_{m+k})/2, which follows from differentiating
    exp(j*phi) under the cosine harmonic at index k.
    """
    beta = np.asarray(beta, dtype=float)
    if beta.size < 1 or not np.isfinite(beta).all():
        raise ValueError("modulation indices must be finite and nonempty")
    k_max = beta.size
    c_ext = mtsfm.raw_coefficients(beta, 1.0, order_bound + k_max)
    c = c_ext[k_max : k_max + 2 * order_bound + 1]
    u = np.abs(c) ** 2
    t_pow = _target_power(target, order_bound)
    resid = target.energy * u - t_pow
    f_val = float(np.sum(resid**2))
    pair = c_ext[_shift_maps(k_max, order_bound)]
    du = np.imag(np.conj(c) * (pair[0] + pair[1]))
    grad = 2.0 * target.energy * np.sum(resid * du, axis=1)
    return f_val, grad


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


def _slab_reflection(k_vec: np.ndarray) -> np.ndarray:
    """Householder reflection H, symmetric and orthogonal, with
    H e_1 = k/|k|; the identity when K = 1."""
    v = -k_vec / np.linalg.norm(k_vec)
    v[0] += 1.0
    vv = v @ v
    eye = np.eye(k_vec.size)
    return eye if vv == 0.0 else eye - (2.0 / vv) * np.outer(v, v)


def fit(
    target: OfdmTarget,
    k_harmonics: int,
    delta: float,
    n_starts: int,
    seed: int,
    *,
    scenario: Scenario | None = None,
    order_bound: int | None = None,
) -> list[FitResult]:
    """Multistart constrained fit of MTSFM indices to a target spectrum.

    Runs ``n_starts`` independent quasi-Newton minimizations from random
    feasible starts (per-start RNG streams spawned from ``seed`` so the
    result list is reproducible). The quartic objective has poor local
    minima; each start therefore runs ``LOCAL_SEARCHES`` independent
    local searches from fresh feasible draws of its own stream and keeps
    the lowest objective. Every search stays inside the support slab.
    ``status`` is L-BFGS-B's termination message and ``converged`` is
    true exactly when it starts with ``CONVERGENCE:``, which is when
    L-BFGS-B reports success. When a ``scenario`` is supplied each
    result's detection metric is evaluated on the scenario grid and the
    list is sorted by it, best first; otherwise by objective value. Ties
    go to the lower start index.
    """
    if k_harmonics < 1:
        raise ValueError("k_harmonics must be >= 1")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if n_starts < 1:
        raise ValueError("n_starts must be >= 1")
    kappa = support_halfwidth(target)
    lo, hi = (1.0 - delta) * kappa, (1.0 + delta) * kappa
    if order_bound is None:
        order_bound = max(target.half_order, int(np.ceil(hi)) + 16)
    k_vec = np.arange(1, k_harmonics + 1, dtype=float)
    # x = H beta turns lo <= k.beta <= hi into lo/|k| <= x_1 <= hi/|k|
    h = _slab_reflection(k_vec)
    k_norm = np.linalg.norm(k_vec)
    bounds = [(lo / k_norm, hi / k_norm)] + [(None, None)] * (k_harmonics - 1)

    def reflected(x):
        f_val, grad = objective_and_gradient(h @ x, target, order_bound)
        return f_val, h @ grad

    def run_local(beta0):
        """One bounded L-BFGS-B search; returns (beta, f, message)."""
        res = minimize(
            reflected,
            h @ beta0,
            jac=True,
            method="L-BFGS-B",
            bounds=bounds,
            tol=F_TOL,
            options={"maxiter": MAX_ITER, "gtol": G_TOL},
        )
        return h @ res.x, float(res.fun), str(res.message)

    results: list[FitResult] = []
    for i in range(n_starts):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), i]))
        # min keeps the earliest of equal objectives
        searches = (
            run_local(_draw_start(rng, k_harmonics, kappa, delta))
            for _ in range(LOCAL_SEARCHES)
        )
        beta, f_val, status = min(searches, key=lambda found: found[1])
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
                objective=f_val,
                constraint_value=float(k_vec @ beta),
                d_squared_achieved=d2,
                status=status,
                start_index=i,
            )
        )
    if scenario is not None:
        results.sort(key=lambda r: (-r.d_squared_achieved, r.start_index))
    else:
        results.sort(key=lambda r: (r.objective, r.start_index))
    return results
