"""Structured phase retrieval: fit MTSFM modulation indices to a target ESD.

Pipeline: sample the matched-illumination spectrum magnitude on the bin
grid, where the sinc carriers are orthonormal, so the generic multicarrier
coefficients are c_m = sqrt(E_s(f_m)/T); then minimize the quartic
magnitude-matching objective on the DFT X of n waveform samples

    F(beta) = sum_j ( c_m^2 - E * |X_j(beta)|^2 / n^2 )^2,  j = m mod n,

over all n bins (c_m = 0 off the target's orders), subject to
sum_k k*beta_k lying within (1 +/- delta) of the target's support
half-width. The objective is nonconvex, so the solver is a multistart
quasi-Newton with feasible-by-construction random starts. A Householder
reflection maps the unit normal k/|k| of the support slab to the first
axis, so in the reflected coordinates the slab is a box bound on one
coordinate, which the fit engine projects onto exactly. The engine is a
projected L-BFGS with Armijo backtracking that advances the local
searches of all starts in one loop, one trial point per live search in
each batched objective call, in numpy alone: no runtime dependency
beyond numpy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import mtsfm
from .detection import detection_metric
from .mtsfm import MtsfmWaveform
from .spectral import (
    FrequencyGrid, Scenario, SpectralDensity, as_int, finite_positive, finite_real,
    read_only,
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
    """Target spectrum magnitude as real multicarrier coefficients, a finite
    centred array ``c`` of odd size (``half_order`` derived), and ``energy`` > 0."""

    c: np.ndarray = field(repr=False)
    half_order: int = field(init=False)
    energy: float

    def __post_init__(self) -> None:
        finite_positive("energy", self.energy)
        c = np.asarray(self.c, dtype=float)
        if c.ndim != 1 or c.size % 2 == 0:
            raise ValueError(f"c must be 1-D of odd size, got shape {c.shape}")
        if not np.isfinite(c).all():
            raise ValueError("c must be finite")
        object.__setattr__(self, "c", read_only(c.copy()))
        object.__setattr__(self, "half_order", c.size // 2)


@dataclass(frozen=True)
class FitResult:
    """One start's fit: the ``waveform`` it scored, at the scene's duration
    and the target's energy, its objective and ``status`` from the engine,
    and ``d_squared_achieved``, the waveform's d² in the fit's scene."""

    waveform: MtsfmWaveform
    objective: float
    d_squared_achieved: float
    status: str
    start_index: int

    @property
    def constraint_value(self) -> float:
        """sum_k k*beta_k: where the waveform's indices sit in the support slab."""
        beta = self.waveform.mod_indices
        return float(np.arange(1.0, len(beta) + 1) @ np.array(beta))

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
    sum of c_0^2, then c_k^2 + c_-k^2 for k = 1..half_order, reaches it.
    c is first scaled by the power of two of its largest magnitude, which
    is exact and keeps c^2 from overflowing or underflowing."""
    power = np.ldexp(target.c, -np.frexp(np.abs(target.c).max())[1]) ** 2
    h = target.half_order
    rings = np.concatenate((power[h : h + 1], power[h + 1 :] + power[:h][::-1]))
    hit = np.cumsum(rings) >= (1.0 - SUPPORT_TOL) * power.sum()
    return int(np.argmax(hit))


def objective_and_gradient(
    beta, target: OfdmTarget, order_bound: int
) -> tuple[np.ndarray, np.ndarray]:
    """Quartic fit objective and its gradient on the samples' own DFT.

    ``beta`` is a batch (S, K), one set of indices per row, giving (S,)
    objectives and (S, K) gradients, each row's bit-for-bit those of the
    row alone. With the samples x_i of ``mtsfm._samples`` at the n =
    ``mtsfm._fft_size(max(order_bound, half_order))`` nodes t_i, so that
    every target order fits, and X = fft(x), bin j's residual is
    r_j = E*|X_j|^2/n^2 minus the target power c_tgt,m^2 of the order m
    at bin j = m mod n, if any. F = sum_j r_j^2 runs over all n bins:
    orders past the target's are misfit, and a row whose lines reach near
    n/2, at about w + K orders for w = sum_k k*|beta_k|, wraps around. The
    gradient is exact, in the adjoint form of phase retrieval (Candes, Li
    and Soltanolkotabi, "Phase retrieval via Wirtinger flow", IEEE Trans. IT 2015):
    dF/d beta_k = (4E/n) sum_i cos(2*pi*k*t_i) Im(x_i conj(R_i)), with
    R = ifft(r X).
    """
    beta = np.asarray(beta, dtype=float)
    if beta.ndim != 2 or beta.shape[1] < 1 or not np.isfinite(beta).all():
        raise ValueError("modulation indices must be a finite nonempty (S, K) batch")
    half = target.half_order
    n = mtsfm._fft_size(max(order_bound, half))
    t_pow = np.zeros(n)
    t_pow[np.arange(-half, half + 1) % n] = target.c**2
    x = mtsfm._samples(beta, n)
    big_x = np.fft.fft(x, axis=-1)
    # real squares and products only: a complex product with a conjugate
    # can round a row differently with the number of rows in the batch
    resid = target.energy / n**2 * (big_x.real**2 + big_x.imag**2) - t_pow
    f_val = (resid**2).sum(-1)
    adj = np.fft.ifft(resid * big_x, axis=-1)
    im = x.imag * adj.real - x.real * adj.imag
    # an einsum, so that a row's gradient does not depend on the other rows
    table = mtsfm._phase_table(beta.shape[1], n)
    grad = 4.0 * target.energy / n * np.einsum("ik,si->sk", table, im)
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


def _search(x, lo, hi, h, objective):
    """Projected L-BFGS from every row of ``x`` at once, in one loop.

    ``objective(beta)`` gives the (S,) objectives and (S, K) gradients in
    beta of an (S, K) batch beta = H x, each row's those of the row alone.
    The first coordinate of x is boxed to [lo, hi], the others are free.
    Each pass makes one batched ``objective`` call, at one trial point per
    live search: first its start, which it accepts, then points along the
    projected path of its direction, the step halved after each miss, until
    one meets the Armijo condition. The direction comes from the row's last
    ``MEMORY`` curvature pairs (an empty slot adds nothing), with the first
    coordinate frozen while it sits at a bound with an outward gradient. A
    row stops when ``LINE_SEARCH_STEPS`` trial points in a row miss, when
    its projected gradient is at most ``G_TOL``, when its last step reduced
    the objective by at most ``F_TOL`` relative, or after ``MAX_ITER``
    iterations, the first of these in this order giving its message. Every
    operation is row-wise, as ``objective`` must be, so a row's path does
    not depend on the other rows and start i of a fit is the same for any
    number of starts. The bookkeeping is whole-batch: a pass writes the new
    pairs, points and steps of all live rows by masked writes, not by
    gathering the rows a rule selects, and a row's stop rule is decided
    once, on the pass it ends.

    Returns the final points x, objectives and termination messages.
    """
    n_rows, k_dim = x.shape
    out_x = np.empty_like(x)
    out_f = np.empty(n_rows)
    out_rule = np.empty(n_rows, dtype=int)  # index of the row's message

    xt = x.copy()  # each row's trial point, its start first
    xt[:, 0] = xt[:, 0].clip(lo, hi)
    x, f, g = xt.copy(), np.zeros(n_rows), np.zeros_like(xt)  # last accepted
    step = np.ones(n_rows)
    at_start = True
    row = np.arange(n_rows)
    s_mem = np.zeros((n_rows, MEMORY, k_dim))  # newest pair last
    y_mem = np.zeros((n_rows, MEMORY, k_dim))
    sy_mem = np.zeros((n_rows, MEMORY))  # s_i.y_i; 0 marks an empty slot
    # inverse of U = triu(s_i.y_j), with the identity in the empty slots
    u_inv = np.tile(np.eye(MEMORY), (n_rows, 1, 1))
    gamma = np.ones(n_rows)
    iters = np.zeros(n_rows, dtype=int)
    misses = np.zeros(n_rows, dtype=int)  # trial points missed in a row

    while True:
        ft, gt = objective(_rows_times(xt, h))
        gt = _rows_times(gt, h)
        s_step, y_step = xt - x, gt - g
        moved = (not at_start) & (ft <= f + ARMIJO_C1 * (g * s_step).sum(-1))
        accepted = moved | at_start
        at_start = False
        misses = np.where(accepted, 0, misses + 1)
        failed = misses >= LINE_SEARCH_STEPS
        iters += moved

        sy = (s_step * y_step).sum(-1)
        yy = (y_step * y_step).sum(-1)
        store = moved & (sy > CURVATURE_TOL * yy)
        if store.any():
            # drop the oldest slot: U^-1 keeps its trailing block, the inverse
            # of U's; the new pair adds the column u_i = s_i.y and corner s.y.
            # U^-1 is upper triangular, so its last row stays 0 off the
            # corner. Every live row computes; a row that stores nothing
            # divides by 1 and keeps its slots
            mask = store[:, None]
            sy_div = np.where(store, sy, 1.0)
            u_col = np.einsum("smk,sk->sm", s_mem[:, 1:], y_step)
            u_new = -np.einsum("smn,sn->sm", u_inv[:, 1:, 1:], u_col) / sy_div[:, None]
            for mem, new in ((s_mem, s_step), (y_mem, y_step)):
                np.copyto(mem[:, :-1], mem[:, 1:], where=mask[..., None])
                np.copyto(mem[:, -1], new, where=mask)
            np.copyto(sy_mem[:, :-1], sy_mem[:, 1:], where=mask)
            np.copyto(sy_mem[:, -1], sy, where=store)
            np.copyto(u_inv[:, :-1, :-1], u_inv[:, 1:, 1:], where=mask[..., None])
            np.copyto(u_inv[:, :-1, -1], u_new, where=mask)
            np.copyto(u_inv[:, -1, -1], 1.0 / sy_div, where=store)
            np.copyto(gamma, sy / np.where(store, yy, 1.0), where=store)
        reduced = moved & (
            (f - ft) <= F_TOL * np.maximum(np.maximum(np.abs(f), np.abs(ft)), 1.0)
        )
        np.copyto(x, xt, where=accepted[:, None])
        np.copyto(g, gt, where=accepted[:, None])
        f = np.where(accepted, ft, f)

        # a row whose line search has ended is tested for a stop and, if it
        # goes on, starts a new one; the other rows keep backtracking
        ended = accepted | failed
        frozen = ((x[:, 0] <= lo) & (g[:, 0] > 0)) | ((x[:, 0] >= hi) & (g[:, 0] < 0))
        pg = g.copy()
        pg[frozen, 0] = 0.0
        small_pg = np.abs(pg).max(1) <= G_TOL
        capped = iters >= MAX_ITER
        done = ended & (failed | small_pg | reduced | capped)
        if done.any():
            # the first rule that fired, in the order of the messages below
            rules = np.array((failed, small_pg, reduced, capped))
            out_rule[row[done]] = rules[:, done].argmax(0)
            out_x[row[done]], out_f[row[done]] = x[done], f[done]
            keep = ~done
            row, x, f, g, pg, frozen, ended, step, misses = (
                a[keep] for a in (row, x, f, g, pg, frozen, ended, step, misses)
            )
            s_mem, y_mem, sy_mem, u_inv, gamma, iters = (
                a[keep] for a in (s_mem, y_mem, sy_mem, u_inv, gamma, iters)
            )
            if not row.size:
                messages = (LINE_SEARCH_FAILED, CONVERGED_GRADIENT,
                            CONVERGED_REDUCTION, ITERATION_LIMIT)
                return out_x, out_f, [messages[i] for i in out_rule.tolist()]

        # the two-loop recursion in closed form (Byrd, Nocedal and Schnabel,
        # Math. Prog. 1994): its first loop solves U alpha = S pg, its
        # second U^T delta = diag(U) alpha - Y r for r = gamma (pg - Y^T
        # alpha), and the direction is -(r + S^T delta); a backtracking
        # row's x, g and pairs are those its line search started from, so
        # its direction comes out the same bits as then
        alpha = np.einsum("smn,sn->sm", u_inv, np.einsum("smk,sk->sm", s_mem, pg))
        r = gamma[:, None] * (pg - np.einsum("smk,sm->sk", y_mem, alpha))
        rhs = sy_mem * alpha - np.einsum("smk,sk->sm", y_mem, r)
        d = -(r + np.einsum("smk,sm->sk", s_mem, np.einsum("snm,sn->sm", u_inv, rhs)))
        d[frozen, 0] = 0.0
        # a row still backtracking halves its step; a new line search starts
        # at a unit step, or without curvature pairs at a first step of unit
        # length, as in L-BFGS-B
        step = np.where(ended, 1.0, 0.5 * step)
        first = ended & (sy_mem[:, -1] == 0)
        if first.any():
            step = np.where(first, np.minimum(1.0, 1.0 / np.sqrt((d * d).sum(-1))), step)
        xt = x + step[:, None] * d
        xt[:, 0] = xt[:, 0].clip(lo, hi)


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
    scenario: Scenario,
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
    ``converged`` is true exactly for the two ``CONVERGENCE: `` ones. Each
    result's ``waveform`` has the ``scenario`` grid's duration and the
    target's energy, its detection metric is evaluated on that grid, and
    the list is sorted by it, best first, ties to the lower start index.
    """
    k_harmonics, delta, n_starts, seed = check_fit_params(
        k_harmonics, delta, n_starts, seed
    )
    kappa = support_halfwidth(target)
    lo, hi = (1.0 - delta) * kappa, (1.0 + delta) * kappa
    order_bound = int(np.ceil(hi)) + 16
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
        _rows_times(np.array(draws), h), lo / k_norm, hi / k_norm, h,
        # looked up when called, so that a caller can wrap the public name
        # to count or time evaluations
        lambda beta: objective_and_gradient(beta, target, order_bound),
    )
    # each start's best search; argmin keeps the earliest of equal objectives
    best = f_vals.reshape(n_starts, LOCAL_SEARCHES).argmin(1)
    best += np.arange(n_starts) * LOCAL_SEARCHES
    results: list[FitResult] = []
    for i, (j, beta) in enumerate(zip(best.tolist(), _rows_times(xs[best], h))):
        w = MtsfmWaveform(scenario.grid.duration, target.energy, tuple(beta))
        esd = mtsfm.esd_on_grid(w, scenario.grid)
        results.append(
            FitResult(
                waveform=w,
                objective=float(f_vals[j]),
                d_squared_achieved=detection_metric(esd, scenario),
                status=statuses[j],
                start_index=i,
            )
        )
    results.sort(key=lambda r: (-r.d_squared_achieved, r.start_index))
    return results
