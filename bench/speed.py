"""Machine-speed probes: yardsticks for the host's drifting speed.

On a few vCPUs of a shared host the same pass of a workload can take a
quarter longer a few minutes later, as neighbours slow the cores down.
A probe is a fixed piece of work of the kind a workload does, and uses
nothing from miwave, so no change to the program moves it. Run before
every CLI call of a pass and after the last, its time tracks the speed
of the host while the pass runs, and ``wall_s`` rescales the pass's time
to the speed at which the probe takes its reference time.

Two kinds, since one does not track the other's work:

fit    scipy's L-BFGS-B on a small numpy objective with an analytic
       gradient, from a fixed set of starts, as miwave's fit runs it;
array  complex normal draws, a matrix-vector product and a quantile on
       arrays of 1-2 MB, as the Monte Carlo ROC and the large-grid
       design do.
"""

from __future__ import annotations

import time

import numpy as np

_rng = np.random.default_rng(0)
_M = _rng.standard_normal((21, 8))
_B = _rng.standard_normal(21)
_W = _rng.standard_normal(16) + 1j * _rng.standard_normal(16)


def _objective(x):
    phase = _M @ x
    r = np.cos(phase) - _B
    return float(r @ r), -2.0 * (_M.T @ (r * np.sin(phase)))


def _fit_work() -> None:
    # imported here, not at module level, so that set-up, which imports
    # scipy through miwave, is timed with it
    from scipy.optimize import minimize

    for k in range(120):
        minimize(_objective, np.full(8, 0.01 * k), jac=True, method="L-BFGS-B",
                 options={"maxiter": 60})


def _array_work() -> None:
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.standard_normal((8000, 16)) + 1j * rng.standard_normal((8000, 16))
        np.quantile(np.abs((0.5 * x) @ _W) ** 2, 0.99)


# kind -> (work, median time of the work on the machine the benchmark was
# calibrated on, a 2-vCPU Xeon KVM guest); wall_s is in seconds of that
# machine
PROBES = {"fit": (_fit_work, 0.19), "array": (_array_work, 0.055)}


def probe(kind: str) -> float:
    """Run the probe work of ``kind`` and return its wall time in seconds."""
    work = PROBES[kind][0]
    t0 = time.perf_counter()
    work()
    return time.perf_counter() - t0


def reference_s(kind: str) -> float:
    return PROBES[kind][1]
