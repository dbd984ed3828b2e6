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
on one coordinate, which the fit engine projects onto exactly. The
engine is a projected L-BFGS with Armijo backtracking that advances the
local searches of all starts together, one batched objective call per
step, in numpy alone: no runtime dependency beyond numpy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import mtsfm
from .detection import detection_metric
from .mtsfm import MtsfmWaveform
from .spectral import (
    FrequencyGrid, Scenario, SpectralDensity, as_int, finite_positive, finite_real,
    read_only, recentre,
)

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
#: per-search iteration cap and stopping tolerances: relative reduction
#: of the objective in one step and infinity norm of the projected gradient
MAX_ITER = 500
F_TOL = 1e-14
G_TOL = 1e-12
#: curvature pairs each search keeps for its L-BFGS model
MEMORY = 10
#: Armijo sufficient-decrease constant and trial steps per line search
ARMIJO_C1 = 1e-4
LINE_SEARCH_STEPS = 30
#: a curvature pair (s, y) is kept only when s.y > CURVATURE_TOL * y.y
CURVATURE_TOL = 1e-10

#: termination messages, one per stopping rule of the fit engine
CONVERGED_GRADIENT = "CONVERGENCE: NORM OF PROJECTED GRADIENT <= G_TOL"
CONVERGED_REDUCTION = "CONVERGENCE: RELATIVE REDUCTION OF F <= F_TOL"
ITERATION_LIMIT = "STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT"
LINE_SEARCH_FAILED = "ABNORMAL: NO SUFFICIENT DECREASE ALONG THE SEARCH PATH"


@dataclass(frozen=True)
class OfdmTarget:
    """Target spectrum magnitude as real multicarrier coefficients, a centred
    array ``c`` of odd size (``half_order`` derived), and ``energy`` > 0."""

    c: np.ndarray = field(repr=False)
    half_order: int = field(init=False)
    energy: float

    def __post_init__(self) -> None:
        finite_positive("energy", self.energy)
        c = np.asarray(self.c, dtype=float)
        if c.ndim != 1 or c.size % 2 == 0:
            raise ValueError(f"c must be 1-D of odd size, got shape {c.shape}")
        object.__setattr__(self, "c", read_only(c.copy()))
        object.__setattr__(self, "half_order", c.size // 2)


@dataclass(frozen=True)
class FitResult:
    beta: tuple
    objective: float
    d_squared_achieved: float
    status: str
    start_index: int

    @property
    def constraint_value(self) -> float:
        """sum_k k*beta_k: where ``beta`` sits in the support slab."""
        return float(np.arange(1.0, len(self.beta) + 1) @ np.array(self.beta))

    @property
    def converged(self) -> bool:
        """True exactly when the search stopped on its gradient or its
        reduction test: ``status`` starts with ``CONVERGENCE: ``, not
        ``STOP: `` (iteration cap) or ``ABNORMAL: `` (line search)."""
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
    return OfdmTarget(c, float(energy))


def support_halfwidth(target: OfdmTarget) -> int:
    """Smallest half-width kappa capturing (1 - SUPPORT_TOL) of the
    coefficient energy around DC: the first kappa at which the running
    sum of c_0^2, then c_k^2 + c_-k^2 for k = 1..half_order, reaches it;
    half_order if none does."""
    power = target.c**2
    h = target.half_order
    rings = np.concatenate((power[h : h + 1], power[h + 1 :] + power[:h][::-1]))
    hit = np.cumsum(rings) >= (1.0 - SUPPORT_TOL) * power.sum()
    kappa = int(np.argmax(hit))
    return kappa if hit[kappa] else h


def objective_and_gradient(
    beta, target: OfdmTarget, order_bound: int
) -> tuple[np.ndarray, np.ndarray]:
    """Quartic fit objective and its gradient on orders |m| <= order_bound.

    ``beta`` is a batch (S, K), one set of indices per row, giving (S,)
    objectives and (S, K) gradients, each row's bit-for-bit those of the
    row alone. The gradient is exact for the quadrature objective, in the
    adjoint form of phase retrieval (Candes, Li and Soltanolkotabi,
    "Phase retrieval via Wirtinger flow", IEEE Trans. IT 2015): with the
    nodes t_i and samples x_i of :func:`mtsfm.quadrature` and residuals
    r_m = E*|c_m|^2 - c_tgt,m^2, dF/d beta_k = (4E/n) sum_i cos(2*pi*k*t_i)
    Im(x_i conj(R_i)), where R_i = sum_m r_m c_m exp(j*2*pi*m*t_i) is n
    times one inverse FFT of r_m c_m (-1)^m at bin m mod n.
    """
    beta = np.asarray(beta, dtype=float)
    if beta.ndim != 2 or beta.shape[1] < 1 or not np.isfinite(beta).all():
        raise ValueError("modulation indices must be a finite nonempty (S, K) batch")
    k_max = beta.shape[1]
    x, c = mtsfm.quadrature(beta, order_bound, k_max)
    n = x.shape[1]
    resid = target.energy * np.abs(c) ** 2 - recentre(target.c**2, order_bound)
    f_val = np.sum(resid**2, axis=-1)
    fold, ramp = mtsfm._order_fold(order_bound, n)
    spread = np.zeros(x.shape, dtype=complex)
    spread[:, fold] = resid * c * ramp
    im = np.imag(x * np.conj(np.fft.ifft(spread, axis=-1)))
    # an einsum, so that a row's gradient does not depend on the other rows
    grad = 4.0 * target.energy * np.einsum("ik,si->sk", mtsfm._phase_table(k_max, n), im)
    return f_val, grad


def _draw_start(
    rng: np.random.Generator, k_harm: int, kappa: int, delta: float
) -> np.ndarray:
    # feasible by construction: sum_k k*beta_k = s*kappa with s in [1-d, 1+d]
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


def _rows_times(a: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Each row of ``a`` times the symmetric H; an einsum, so that a row's
    product does not depend on the other rows (see mtsfm._phase_sum)."""
    return np.einsum("sk,kj->sj", a, h)


def _evaluate(x, h, target, order_bound):
    """Objective at beta = H x and x-gradient H grad of each row.

    ``objective_and_gradient`` is looked up at call time, one call per
    batch of rows, so a caller can wrap it to count or time evaluations.
    """
    f_val, grad = objective_and_gradient(_rows_times(x, h), target, order_bound)
    return f_val, _rows_times(grad, h)


def _search(x, lo, hi, h, target, order_bound):
    """Projected L-BFGS from every row of ``x`` at once, in lockstep.

    The first coordinate is boxed to [lo, hi], the others are free. Each
    iteration takes the L-BFGS direction from the row's last ``MEMORY``
    curvature pairs (an empty slot adds nothing), with the first
    coordinate frozen while it sits at a bound with an outward gradient,
    then backtracks by halving along the projected path until the Armijo
    condition holds. Every row still searching or backtracking goes into
    one batched objective call. A row stops when its line search finds
    no sufficient decrease in ``LINE_SEARCH_STEPS`` trial steps, when its
    projected gradient is at most ``G_TOL``, when its last step reduced
    the objective by at most ``F_TOL`` relative, or after ``MAX_ITER``
    iterations, the first of these in this order giving its message.
    Every operation is row-wise, so a row's path does not depend on the
    other rows.

    Returns the final points x, objectives and termination messages.
    """
    n_rows, k_dim = x.shape
    out_x = np.empty_like(x)
    out_f = np.empty(n_rows)
    out_status = np.empty(n_rows, dtype=object)

    x = x.copy()
    x[:, 0] = np.clip(x[:, 0], lo, hi)
    f, g = _evaluate(x, h, target, order_bound)
    row = np.arange(n_rows)
    s_mem = np.zeros((n_rows, MEMORY, k_dim))  # newest pair last
    y_mem = np.zeros((n_rows, MEMORY, k_dim))
    sy_mem = np.zeros((n_rows, MEMORY))  # s_i.y_i; 0 marks an empty slot
    # inverse of U = triu(s_i.y_j), with the identity in the empty slots
    u_inv = np.tile(np.eye(MEMORY), (n_rows, 1, 1))
    gamma = np.ones(n_rows)
    iters = np.zeros(n_rows, dtype=int)
    failed = reduced = np.zeros(n_rows, dtype=bool)

    while True:
        frozen = ((x[:, 0] <= lo) & (g[:, 0] > 0)) | ((x[:, 0] >= hi) & (g[:, 0] < 0))
        pg = g.copy()
        pg[frozen, 0] = 0.0
        # later rules overwrite earlier ones
        stop = np.full(row.size, "", dtype=object)
        stop[iters >= MAX_ITER] = ITERATION_LIMIT
        stop[reduced] = CONVERGED_REDUCTION
        stop[np.abs(pg).max(axis=1) <= G_TOL] = CONVERGED_GRADIENT
        stop[failed] = LINE_SEARCH_FAILED
        done = stop != ""
        if done.any():
            out_status[row[done]] = stop[done]
            out_x[row[done]], out_f[row[done]] = x[done], f[done]
            keep = ~done
            row, x, f, g, pg, frozen = (a[keep] for a in (row, x, f, g, pg, frozen))
            s_mem, y_mem, sy_mem, u_inv, gamma, iters = (
                a[keep] for a in (s_mem, y_mem, sy_mem, u_inv, gamma, iters)
            )
            if not row.size:
                return out_x, out_f, out_status.tolist()

        # the two-loop recursion in closed form (Byrd, Nocedal and Schnabel,
        # Math. Prog. 1994): its first loop solves U alpha = S pg, its
        # second U^T delta = diag(U) alpha - Y r for r = gamma (pg - Y^T
        # alpha), and the direction is -(r + S^T delta)
        alpha = np.einsum("smn,sn->sm", u_inv, np.einsum("smk,sk->sm", s_mem, pg))
        r = gamma[:, None] * (pg - np.einsum("smk,sm->sk", y_mem, alpha))
        rhs = sy_mem * alpha - np.einsum("smk,sk->sm", y_mem, r)
        d = -(r + np.einsum("smk,sm->sk", s_mem, np.einsum("snm,sn->sm", u_inv, rhs)))
        d[frozen, 0] = 0.0
        # without curvature pairs the first step has unit length, as in L-BFGS-B
        step = np.where(
            sy_mem[:, -1] > 0,
            1.0,
            np.minimum(1.0, 1.0 / np.sqrt(np.sum(d * d, axis=-1))),
        )

        # Armijo backtracking along the projected path, all rows in one batch;
        # a row whose line search fails keeps its last accepted point
        x_new, f_new, g_new = x.copy(), f.copy(), g.copy()
        pending = np.arange(row.size)
        for _ in range(LINE_SEARCH_STEPS):
            xt = x[pending] + step[pending, None] * d[pending]
            xt[:, 0] = np.clip(xt[:, 0], lo, hi)
            ft, gt = _evaluate(xt, h, target, order_bound)
            decrease = ARMIJO_C1 * np.sum(g[pending] * (xt - x[pending]), axis=-1)
            ok = ft <= f[pending] + decrease
            took = pending[ok]
            x_new[took], f_new[took], g_new[took] = xt[ok], ft[ok], gt[ok]
            pending = pending[~ok]
            if not pending.size:
                break
            step[pending] *= 0.5
        failed = np.zeros(row.size, dtype=bool)
        failed[pending] = True
        iters += ~failed

        s_step, y_step = x_new - x, g_new - g
        sy = np.sum(s_step * y_step, axis=-1)
        yy = np.sum(y_step * y_step, axis=-1)
        store = ~failed & (sy > CURVATURE_TOL * yy)
        # drop the oldest slot: U^-1 keeps its trailing block, the inverse
        # of U's; the new pair adds the column u_i = s_i.y and corner s.y
        s_mem[store, :-1], y_mem[store, :-1], sy_mem[store, :-1] = (
            s_mem[store, 1:], y_mem[store, 1:], sy_mem[store, 1:]
        )
        s_mem[store, -1], y_mem[store, -1] = s_step[store], y_step[store]
        sy_mem[store, -1] = sy[store]
        inv = u_inv[store, 1:, 1:]
        u_col = np.einsum("smk,sk->sm", s_mem[store, :-1], y_step[store])
        u_inv[store, :-1, :-1] = inv
        u_inv[store, :-1, -1] = -np.einsum("smn,sn->sm", inv, u_col) / sy[store, None]
        u_inv[store, -1, :-1] = 0.0
        u_inv[store, -1, -1] = 1.0 / sy[store]
        gamma[store] = sy[store] / yy[store]
        reduced = (f - f_new) <= F_TOL * np.maximum(
            np.maximum(np.abs(f), np.abs(f_new)), 1.0
        )
        x, f, g = x_new, f_new, g_new


def check_fit_params(k_harmonics, delta, n_starts, seed) -> tuple:
    """The fit parameters in order, counts and seed as ints; ValueError
    unless k_harmonics and n_starts are integers >= 1, seed an integer
    >= 0 and delta a real in (0, 1)."""
    if not 0 < finite_real("delta", delta) < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta!r}")
    return (as_int("k_harmonics", k_harmonics, 1), delta,
            as_int("n_starts", n_starts, 1), as_int("seed", seed, 0))


def fit(
    target: OfdmTarget,
    k_harmonics: int,
    delta: float,
    n_starts: int,
    seed: int,
    *,
    scenario: Scenario | None = None,
) -> list[FitResult]:
    """Multistart constrained fit of MTSFM indices to a target spectrum.

    Runs ``n_starts`` independent quasi-Newton minimizations from random
    feasible starts (per-start RNG streams spawned from ``seed`` so the
    result list is reproducible). The quartic objective has poor local
    minima; each start therefore runs ``LOCAL_SEARCHES`` independent
    local searches from fresh feasible draws of its own stream and keeps
    the lowest objective, the earliest search on ties. All searches of
    all starts run together in one projected L-BFGS (:func:`_search`),
    and a search's path does not depend on the others, so start i is the
    same for any ``n_starts`` > i. Every search stays inside the support
    slab. ``status`` is the engine's termination message, one of the
    module's ``CONVERGED_GRADIENT`` and ``CONVERGED_REDUCTION``, which
    start with ``CONVERGENCE: ``, ``ITERATION_LIMIT``, which is
    ``STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT``, and
    ``LINE_SEARCH_FAILED``, which starts with ``ABNORMAL: ``;
    ``converged`` is true exactly for the two ``CONVERGENCE: `` ones. When a
    ``scenario`` is supplied each result's detection metric is evaluated
    on the scenario grid and the list is sorted by it, best first;
    otherwise by objective value. Ties go to the lower start index.
    """
    k_harmonics, delta, n_starts, seed = check_fit_params(
        k_harmonics, delta, n_starts, seed
    )
    kappa = support_halfwidth(target)
    lo, hi = (1.0 - delta) * kappa, (1.0 + delta) * kappa
    order_bound = max(target.half_order, int(np.ceil(hi)) + 16)
    k_vec = np.arange(1, k_harmonics + 1, dtype=float)
    # x = H beta turns lo <= k.beta <= hi into lo/|k| <= x_1 <= hi/|k|
    h = _slab_reflection(k_vec)
    k_norm = np.linalg.norm(k_vec)

    draws = []
    for i in range(n_starts):
        rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
        draws += [
            _draw_start(rng, k_harmonics, kappa, delta) for _ in range(LOCAL_SEARCHES)
        ]
    xs, f_vals, statuses = _search(
        _rows_times(np.array(draws), h), lo / k_norm, hi / k_norm, h, target,
        order_bound,
    )
    betas = _rows_times(xs, h)

    results: list[FitResult] = []
    for i in range(n_starts):
        first = i * LOCAL_SEARCHES
        # argmin keeps the earliest of equal objectives
        j = first + int(np.argmin(f_vals[first : first + LOCAL_SEARCHES]))
        beta = betas[j]
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
                objective=float(f_vals[j]),
                d_squared_achieved=d2,
                status=statuses[j],
                start_index=i,
            )
        )
    if scenario is not None:
        results.sort(key=lambda r: (-r.d_squared_achieved, r.start_index))
    else:
        results.sort(key=lambda r: (r.objective, r.start_index))
    return results
