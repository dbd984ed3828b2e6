"""Span tracer that wraps miwave's public functions from outside the package.

Each binding in ``BINDINGS`` is replaced, for the duration of a traced
pass, by a wrapper that records a span (name, start, end, parent, tag)
in memory. The wrapper is installed where the caller looks the name up:
``miwave.experiment.fit`` is the name ``run_experiment`` calls, while
``miwave.fitting.objective_and_gradient`` is the name the L-BFGS-B
callback inside ``fit`` calls. Nothing under ``src/`` is modified, and
every original is restored when the pass ends.
"""

from __future__ import annotations

import importlib
import statistics
import time
import tracemalloc
from collections import defaultdict


def _bins_of_grid(pos):
    return lambda a, k: {"bins": a[pos].num_bins}


def _bins_of_scenario(a, k):
    return {"bins": a[0].grid.num_bins}


def _bins_of_config(a, k):
    cfg = a[0]
    from miwave.spectral import make_grid

    return {"bins": make_grid(cfg.band_width, cfg.duration).num_bins}


def _fit_tag(a, k):
    return {"starts": int(a[3] if len(a) > 3 else k["n_starts"])}


def _mc_tag(a, k):
    return {"bins": a[1].grid.num_bins, "trials": int(a[2])}


# (module, attribute, span name, tag function). Several bindings may share
# one span name when callers in different modules look up the same function.
BINDINGS = [
    ("miwave.cli", "main", "cli.main", None),
    ("miwave.cli", "load_config", "experiment.load_config", None),
    ("miwave.cli", "run_experiment", "experiment.run_experiment", _bins_of_config),
    ("miwave.cli", "run_roc", "experiment.run_roc", _bins_of_config),
    ("miwave.experiment", "emit_esd_table", "experiment.emit_esd_table", _bins_of_grid(1)),
    ("miwave.experiment", "make_grid", "spectral.make_grid", None),
    ("miwave.experiment", "build_parametric_psd", "spectral.build_parametric_psd", _bins_of_grid(2)),
    ("miwave.experiment", "design_mi", "design.design_mi", _bins_of_scenario),
    ("miwave.experiment", "solve_ofdm_coeffs", "fitting.solve_ofdm_coeffs", _bins_of_grid(1)),
    ("miwave.experiment", "support_halfwidth", "fitting.support_halfwidth", None),
    ("miwave.fitting", "support_halfwidth", "fitting.support_halfwidth", None),
    ("miwave.experiment", "fit", "fitting.fit", _fit_tag),
    ("miwave.fitting", "objective_and_gradient", "fitting.objective_and_gradient", None),
    ("miwave.mtsfm", "coefficients", "mtsfm.coefficients", None),
    ("miwave.mtsfm", "esd_on_grid", "mtsfm.esd_on_grid", None),
    ("miwave.experiment", "esd_on_grid", "mtsfm.esd_on_grid", None),
    ("miwave.experiment", "match_rms_bandwidth", "baselines.match_rms_bandwidth", _bins_of_grid(3)),
    # root-find evaluations inside match_rms_bandwidth
    ("miwave.baselines", "lfm_esd", "baselines.lfm_esd", None),
    # the one comparator ESD per energy that run_experiment scores
    ("miwave.experiment", "lfm_esd", "baselines.comparator_esd", None),
    ("miwave.experiment", "detection_metric", "detection.detection_metric", None),
    ("miwave.fitting", "detection_metric", "detection.detection_metric", None),
    ("miwave.experiment", "monte_carlo_roc", "detection.monte_carlo_roc", _mc_tag),
]

# Spans whose heap growth is measured. ru_maxrss is a high-water mark, so
# after the warm-up pass it no longer moves; tracemalloc (which numpy's
# buffers report to) gives the call's own peak on every pass.
_MEMORY_SPANS = {"detection.monte_carlo_roc"}


class Tracer:
    """In-memory span recorder. ``spans`` holds one tuple per completed
    call: (name, start, end, parent index or -1, tag dict or None)."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list = []
        self._saved: list = []

    def _wrap(self, fn, name, tag):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        measure_memory = name in _MEMORY_SPANS

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            if measure_memory:
                tracemalloc.start()
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                info = tag(args, kwargs) if tag else None
                if measure_memory:
                    info = dict(info or {}, peak_bytes=tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, info)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for mod_name, attr, name, tag in BINDINGS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name, tag))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def mark(self) -> int:
        """Index to pass to ``layer_metrics`` to select later spans."""
        return len(self.spans)


def self_times(spans) -> list:
    """Duration of each span minus the durations of its direct children."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def _window(spans, start):
    """Spans from index ``start`` on, with parents re-indexed locally."""
    sub = spans[start:]
    return [(n, a, b, p - start if p >= start else -1, t) for n, a, b, p, t in sub]


def _mean(xs):
    return statistics.fmean(xs) if xs else 0.0


GRID_SIZES = (21, 101, 401, 1001)

LAYER_UNITS = {
    "spectral.build.ms": "ms",
    "design.calls": "count",
    "design.ms_per_call": "ms",
    **{f"fitting.target.ms.b{b}": "ms" for b in GRID_SIZES},
    "fitting.kappa.ms": "ms",
    "fitting.fit.s": "s",
    "fitting.starts": "count",
    "fitting.obj.evals": "count",
    "fitting.evals_per_start": "count",
    "fitting.obj.us_per_eval": "us",
    "fitting.overhead.ms_per_start": "ms",
    "mtsfm.coeff.calls": "count",
    "mtsfm.coeff.us_per_call": "us",
    "baselines.match.calls": "count",
    "baselines.lfm_esd.calls": "count",
    "baselines.match.ms_per_call": "ms",
    "detection.metric.calls": "count",
    "detection.mc.s": "s",
    "detection.mc.ns_per_trial_bin": "ns",
    "detection.mc.rss_growth_mb": "MB",
    "experiment.write.ms": "ms",
    "experiment.self.s": "s",
    "cli.self.s": "s",
    "trace.overhead_frac": "ratio",
}


def layer_metrics(spans, start: int = 0) -> dict:
    """Per-layer figures for the spans of one workload pass.

    Counts are per pass; a time per call is a mean over the pass's calls
    and reads 0 when the layer was not called in the pass.
    """
    spans = _window(spans, start)
    selft = self_times(spans)
    by = defaultdict(list)
    for i, s in enumerate(spans):
        by[s[0]].append(i)

    def dur(name):
        return [spans[i][2] - spans[i][1] for i in by[name]]

    def self_sum(*names):
        return sum(selft[i] for n in names for i in by[n])

    m = {}
    m["spectral.build.ms"] = 1e3 * _mean(dur("spectral.build_parametric_psd"))
    m["design.calls"] = len(by["design.design_mi"])
    m["design.ms_per_call"] = 1e3 * _mean(dur("design.design_mi"))
    for b in GRID_SIZES:
        m[f"fitting.target.ms.b{b}"] = 1e3 * _mean(
            [spans[i][2] - spans[i][1] for i in by["fitting.solve_ofdm_coeffs"]
             if spans[i][4]["bins"] == b]
        )
    m["fitting.kappa.ms"] = 1e3 * _mean(dur("fitting.support_halfwidth"))
    starts = sum(spans[i][4]["starts"] for i in by["fitting.fit"])
    evals = len(by["fitting.objective_and_gradient"])
    m["fitting.fit.s"] = sum(dur("fitting.fit"))
    m["fitting.starts"] = starts
    m["fitting.obj.evals"] = evals
    m["fitting.evals_per_start"] = evals / starts if starts else 0.0
    m["fitting.obj.us_per_eval"] = (
        1e6 * self_sum("fitting.objective_and_gradient") / evals if evals else 0.0
    )
    m["fitting.overhead.ms_per_start"] = (
        1e3 * self_sum("fitting.fit") / starts if starts else 0.0
    )
    m["mtsfm.coeff.calls"] = len(by["mtsfm.coefficients"])
    m["mtsfm.coeff.us_per_call"] = 1e6 * _mean(dur("mtsfm.coefficients"))
    m["baselines.match.calls"] = len(by["baselines.match_rms_bandwidth"])
    m["baselines.lfm_esd.calls"] = len(by["baselines.lfm_esd"])
    m["baselines.match.ms_per_call"] = 1e3 * _mean(dur("baselines.match_rms_bandwidth"))
    m["detection.metric.calls"] = len(by["detection.detection_metric"])
    mc = by["detection.monte_carlo_roc"]
    m["detection.mc.s"] = sum(dur("detection.monte_carlo_roc"))
    work = sum(spans[i][4]["trials"] * spans[i][4]["bins"] for i in mc)
    m["detection.mc.ns_per_trial_bin"] = 1e9 * m["detection.mc.s"] / work if work else 0.0
    m["detection.mc.rss_growth_mb"] = max(
        (spans[i][4]["peak_bytes"] / 2**20 for i in mc), default=0.0
    )
    m["experiment.write.ms"] = 1e3 * _mean(dur("experiment.emit_esd_table"))
    m["experiment.self.s"] = self_sum("experiment.run_experiment", "experiment.run_roc")
    m["cli.self.s"] = self_sum("cli.main")
    return m


def per_grid_size(spans, start: int = 0) -> dict:
    """Mean ms per call of the size-tagged layers, keyed by bin count."""
    spans = _window(spans, start)
    table: dict = defaultdict(lambda: defaultdict(list))
    for name, a, b, _p, tag in spans:
        if tag and "bins" in tag:
            table[tag["bins"]][name].append(1e3 * (b - a))
    return {
        f"b{bins}": {
            name: {"calls": len(v), "ms_per_call": statistics.fmean(v)}
            for name, v in sorted(layers.items())
        }
        for bins, layers in sorted(table.items())
    }
