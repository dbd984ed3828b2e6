"""miwave benchmark: one workload, timed end to end or traced per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload fit_shipped --seed 0 --seconds 30 --trace 0

Workloads (see bench/workloads.py): fit_shipped, design_sweep, roc_mc.
The package is imported from the checkout's ``src/``; without it the
command exits with status 2 and prints no result.

Process layout. This process imports nothing from miwave. It starts
SETUP_SAMPLES - 1 fresh workers that only time set-up (import of miwave,
config generation, scene building), then one worker that sets up again,
runs an untimed warm-up pass (fit calls with one start), repeats the
workload body for ``--seconds``, checks the outputs and reports. It
runs the workload's speed probe (bench/speed.py) before each CLI call
of a pass and after the last. The workload thus has a process of its
own, and its peak RSS is that process's. BLAS and OpenMP pools are pinned to BLAS_THREADS threads.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` the body alternates untraced and traced passes (the
tracer wraps miwave's public functions, see bench/tracer.py) and the
line carries the per-layer metrics, medians over traced passes. Spans,
the per-grid-size table and provenance go to
``.bench_out/<workload>-seed<seed>/``.

End-to-end metrics:
  setup_s          median set-up time over SETUP_SAMPLES fresh processes
  wall_s           median over passes of the time spent in the pass's CLI
                   calls, rescaled to the reference machine speed: times
                   the probe's reference time over the pass's mean probe
                   time. The host's speed drifts by a quarter within
                   minutes, the ratio to the probe far less. The raw
                   times are printed and kept in the result file.
  peak_rss_mb      peak RSS of the workload process
  d2_best_ratio    min over (scene, energy) of d^2 of the waveform the
                   pass emits over the MI d^2: the best fit start in the
                   fit workloads; in design_sweep and roc_mc, where the
                   MI design itself is emitted, the d^2 recomputed from
                   esd_table.csv or implied by roc.csv's analytic P_D
  d2_median_ratio  the same with the median fit start
  energy_rel_err   max |integral E_s - E|/E over all designs, floored at
                   1e-12, below which the CSV digits cannot resolve it
fail_frac is ``failed / attempted`` of the result line (a metric that is
0 on a healthy run cannot carry a relative bound).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYER_UNITS  # noqa: E402

SETUP_SAMPLES = 7
# one thread per worker: on a small shared machine a second BLAS thread
# competes with the neighbours that make timings noisy
BLAS_THREADS = "1"
MIN_PASSES = 3  # timed passes per run; a trace run needs 2 of each kind
MIN_TRACED = 2
WORKER_TIMEOUT_S = 150.0
# objective evaluations of the notch-scene fit at E=2, K=8, delta=0.2,
# 10 starts, seed 0, as the ROADMAP records them for the fit engine this
# benchmark was written against; a later engine may differ
REFERENCE_EVALS = 5593

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
             "d2_best_ratio": "ratio", "d2_median_ratio": "ratio",
             "energy_rel_err": "ratio"}


# --------------------------------------------------------------------------
# worker side


def _setup(workload: str, seed: int, work: Path):
    t0 = time.perf_counter()
    import miwave  # noqa: F401
    import miwave.cli  # noqa: F401

    if work.exists():
        shutil.rmtree(work / "configs", ignore_errors=True)
    jobs = workloads.make_jobs(workload, seed, ROOT, work)
    scenes = workloads.build_scenes(jobs)
    return jobs, scenes, time.perf_counter() - t0


def _digest(jobs) -> dict:
    out = {}
    for job in jobs:
        for path in sorted(job.out.rglob("*")):
            if path.is_file():
                out[str(path.relative_to(job.out.parent))] = hashlib.sha256(
                    path.read_bytes()).hexdigest()
    return out


def _tracer_selfcheck(tracer) -> dict:
    """Count objective evaluations of a reference fit from outside, with
    the tracer and with a second, bare counter on the same binding."""
    import miwave.fitting as fitting
    from miwave.design import design_mi
    from miwave.experiment import load_config
    from miwave.spectral import integrate

    scene = load_config(ROOT / "configs" / "clutter_notch.yaml").scenario(2.0)
    esd = design_mi(scene).esd
    target = fitting.solve_ofdm_coeffs(esd, scene.grid, integrate(esd))
    inner = fitting.objective_and_gradient
    bare = [0]

    def counted(*args, **kwargs):
        bare[0] += 1
        return inner(*args, **kwargs)

    fitting.objective_and_gradient = counted
    tracer.install()
    mark = tracer.mark()
    try:
        fitting.fit(target, 8, 0.2, 10, 0, scenario=scene)
    finally:
        tracer.uninstall()
        fitting.objective_and_gradient = inner
    traced = sum(1 for s in tracer.spans[mark:] if s[0] == "fitting.objective_and_gradient")
    del tracer.spans[mark:]
    return {"traced_evals": traced, "bare_evals": bare[0],
            "reference_evals": REFERENCE_EVALS}


def work_phase(args) -> dict:
    import checks
    import tracer as tracing

    work = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}"
    jobs, scenes, setup_s = _setup(args.workload, args.seed, work)
    shutil.rmtree(work / "out", ignore_errors=True)

    kind = workloads.PROBE[args.workload]
    probe = functools.partial(speed.probe, kind)
    workloads.run_body(workloads.warmup_jobs(jobs), probe)  # not timed

    tracer = tracing.Tracer() if args.trace else None
    selfcheck = _tracer_selfcheck(tracer) if args.trace and args.workload == "fit_shipped" else None

    # per pass: raw seconds in the CLI calls, and the same rescaled to the
    # reference machine speed by the probes run between the calls
    walls, scaled, traced_scaled, per_pass, probe_times = [], [], [], [], []
    codes, reference, nondeterministic = None, None, []
    t_start = time.perf_counter()
    deadline = t_start + args.seconds
    while True:
        traced = bool(args.trace) and len(scaled) > len(traced_scaled)
        if traced:
            tracer.install()
            mark = tracer.mark()
        t0 = time.perf_counter()
        try:
            codes_i, wall, probes = workloads.run_body(jobs, probe)
        finally:
            if traced:
                tracer.uninstall()
        pass_s = time.perf_counter() - t0
        scale = speed.reference_s(kind) / statistics.fmean(probes)
        if traced:
            traced_scaled.append(wall * scale)
            per_pass.append(tracing.layer_metrics(tracer.spans, mark))
        else:
            walls.append(wall)
            scaled.append(wall * scale)
            probe_times.append(probes)
        # every pass must write the same bytes as the first, so the check
        # of the last pass's files below holds for each pass
        digest = _digest(jobs)
        if reference is None:
            codes, reference = codes_i, digest
        elif digest != reference or codes_i != codes:
            nondeterministic.append(len(scaled) + len(traced_scaled))
        now = time.perf_counter()
        if args.trace:
            enough = min(len(scaled), len(traced_scaled)) >= MIN_TRACED
        else:
            enough = len(scaled) >= MIN_PASSES
        if (enough and now + pass_s > deadline) or now - t_start > WORKER_TIMEOUT_S - 30:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    verdict = checks.check_outputs(jobs, scenes, codes)
    passes = len(scaled) + len(traced_scaled)
    problems = list(verdict.problems)
    if nondeterministic:
        problems.append(f"outputs differ from the first pass in passes {nondeterministic}")
    result = {
        "setup_s": setup_s,
        "walls": walls,
        "scaled_walls": scaled,
        "probe_times": probe_times,
        "attempted": verdict.attempted * passes,
        "failed": verdict.failed * passes,
        "problems": problems,
        "provenance": _provenance(args),
    }
    if args.trace:
        if selfcheck and selfcheck["traced_evals"] != selfcheck["bare_evals"]:
            problems.append(f"tracer counted {selfcheck['traced_evals']} objective "
                            f"evaluations, a bare counter {selfcheck['bare_evals']}")
        layers = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
        layers["trace.overhead_frac"] = (
            statistics.median(traced_scaled) / statistics.median(scaled) - 1.0)
        result["layers"] = layers
        result["selfcheck"] = selfcheck
        _write_trace(work, args, tracer, layers, traced_scaled, selfcheck, tracing)
    else:
        result["e2e"] = {
            "wall_s": statistics.median(scaled),
            "peak_rss_mb": peak_rss_mb,
            # 0 only when a call failed, and then the run is not correct
            "d2_best_ratio": min(verdict.d2_best, default=0.0),
            "d2_median_ratio": min(verdict.d2_median, default=0.0),
            "energy_rel_err": verdict.energy_err,
        }
    return result


def _write_trace(work, args, tracer, layers, traced_scaled, selfcheck, tracing) -> None:
    names = sorted({s[0] for s in tracer.spans})
    index = {n: i for i, n in enumerate(names)}
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "span_fields": ["name", "start_s", "end_s", "parent", "tag"],
        "span_names": names,
        "spans": [[index[n], a, b, p, t] for n, a, b, p, t in tracer.spans],
        "traced_pass_scaled_walls_s": traced_scaled,
        "per_grid_size": tracing.per_grid_size(tracer.spans),
        "layers": layers,
        "tracer_selfcheck": selfcheck,
    }
    with open(work / "trace.json", "w") as fh:
        json.dump(doc, fh)


def _provenance(args) -> dict:
    import numpy
    import scipy

    src = ROOT / "src" / "miwave"
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            commit = ref_path.read_text().strip() if ref_path.is_file() else None
        else:
            commit = ref
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "commit": commit,
        "src_sha256": h.hexdigest(),
        "machine": platform.machine(),
    }


# --------------------------------------------------------------------------
# orchestrator side


def _worker_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = BLAS_THREADS
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(phase: str, args) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--phase", phase,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, env=_worker_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{phase} worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def orchestrate(args) -> int:
    if not (ROOT / "src" / "miwave" / "__init__.py").is_file():
        print(f"error: no miwave sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    samples = [_spawn("setup", args)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    res = _spawn("work", args)
    samples.append(res["setup_s"])

    if args.trace:
        metrics = res["layers"]
    else:
        metrics = {"setup_s": statistics.median(samples), **res["e2e"]}
    units = LAYER_UNITS if args.trace else E2E_UNITS
    out = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}

    record = {"setup_samples_s": samples, "untraced_pass_walls_s": res["walls"],
              "untraced_pass_scaled_walls_s": res["scaled_walls"],
              "untraced_pass_probe_s": res["probe_times"],
              "problems": res["problems"], "provenance": res["provenance"],
              "attempted": res["attempted"], "failed": res["failed"], "metrics": out}
    work = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}"
    with open(work / f"result-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    for problem in res["problems"]:
        print(f"CHECK FAILED: {problem}")
    if res.get("selfcheck"):
        print("tracer self-check: " + json.dumps(res["selfcheck"], sort_keys=True))
    print("provenance: " + json.dumps(res["provenance"], sort_keys=True))
    print(f"passes: {len(res['walls'])} untraced; setup samples {len(samples)}")
    if res["walls"]:
        print(f"raw pass wall (median, not rescaled) = {statistics.median(res['walls']):.6g} s")
    for k, m in out.items():
        print(f"{k} = {m['value']:.6g} {m['unit']}")
    print(f"fail_frac = {res['failed']}/{res['attempted']}")
    print(json.dumps({
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": out,
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--phase", choices=("setup", "work"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.phase == "setup":
        work = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}"
        print(json.dumps({"setup_s": _setup(args.workload, args.seed, work)[2]}))
        return 0
    if args.phase == "work":
        print(json.dumps(work_phase(args)))
        return 0
    return orchestrate(args)


if __name__ == "__main__":
    sys.exit(main())
