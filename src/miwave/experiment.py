"""Experiment harness: full design -> fit -> baseline -> report pipeline.

A config names the scene (parametric PSDs, band, duration, target
variance), an energy sweep, and the fit/Monte-Carlo parameters. For each
energy the pipeline water-fills the matched-illumination ESD, samples
its magnitude for the target coefficients, runs the multistart MTSFM
fit, matches an LFM comparator in RMS bandwidth, and records detection
metrics. All outputs are plain CSV/JSON with deterministic formatting so
a rerun with the same config and seed is byte-identical.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .baselines import match_rms_bandwidth, lfm_esd
from .design import design_mi
from .detection import analytic_roc, check_roc_params, detection_metric, monte_carlo_roc
from .fitting import check_fit_params, fit, solve_ofdm_coeffs, support_halfwidth
from .mtsfm import MtsfmWaveform, esd_on_grid, rms_bandwidth
from .spectral import Scenario, build_parametric_psd, finite_positive, finite_real, make_grid

__all__ = [
    "ExperimentConfig", "load_config", "run_experiment", "run_roc",
    "emit_esd_table", "summarize_boxplot",
]

_FMT = ".12g"  # fixed float formatting for reproducible output files
_CELL = "%" + _FMT  # the same, as a float cell of a %-format row
_FIT_HEADER = [
    "start_index", "objective", "constraint_value", "d_squared", "converged",
    "optimizer_status",
]
_FIT_FMT = f"%d,{_CELL},{_CELL},{_CELL},%d,%s"


def _f(x: float) -> str:
    return format(float(x), _FMT)


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one experiment run."""

    noise_kind: str
    noise_params: dict
    clutter_kind: str
    clutter_params: dict
    band_width: float
    duration: float
    target_variance: float
    energy_list: tuple
    k_harmonics: int = 8
    delta: float = 0.2
    n_starts: int = 100
    seed: int = 0
    trials: int = 10000
    p_fa_grid: tuple = (0.001, 0.01, 0.1)
    out_dir: str = "out"

    def __post_init__(self) -> None:
        # stored unchanged, so integer-valued YAML keeps its content hash
        for name in ("band_width", "duration", "target_variance"):
            finite_real(name, getattr(self, name))
        if not isinstance(self.out_dir, str):
            raise ValueError(f"out_dir must be a string, got {self.out_dir!r}")
        for name in ("noise_params", "clutter_params"):
            if not isinstance(getattr(self, name), Mapping):
                raise ValueError(f"{name} must be a mapping, got {getattr(self, name)!r}")
        energies = tuple(float(finite_positive("energy_list", e)) for e in self.energy_list)
        if not energies:
            raise ValueError("energy_list must be nonempty")
        if len({_f(e) for e in energies}) < len(energies):  # _f names their files
            raise ValueError(f"energy_list must not repeat a value at %.12g, got {energies}")
        # the rules of fit and monte_carlo_roc, checked before anything runs
        k, _, n, seed = check_fit_params(self.k_harmonics, self.delta, self.n_starts, self.seed)
        trials, p_fa = check_roc_params(self.trials, self.p_fa_grid)
        for name, value in dict(
            k_harmonics=k, n_starts=n, seed=seed, trials=trials, energy_list=energies,
            p_fa_grid=p_fa, noise_params=dict(self.noise_params),
            clutter_params=dict(self.clutter_params),
        ).items():
            object.__setattr__(self, name, value)

    def scenario(self, energy: float) -> Scenario:
        grid = make_grid(self.band_width, self.duration)
        noise = build_parametric_psd(self.noise_kind, self.noise_params, grid)
        clutter = build_parametric_psd(self.clutter_kind, self.clutter_params, grid)
        return Scenario(noise, clutter, self.target_variance, energy)

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        return {**d, "energy_list": list(self.energy_list), "p_fa_grid": list(self.p_fa_grid)}

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        extra = set(d) - {f.name for f in dataclasses.fields(cls)}
        if extra:
            raise ValueError(f"unknown config keys: {sorted(extra, key=str)}")
        return cls(**d)

    def content_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def load_config(path: str | Path) -> ExperimentConfig:
    with open(path) as fh:
        try:
            data = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ValueError(f"config {path} is not valid YAML: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"config {path} must be a mapping")
    return ExperimentConfig.from_dict(data)


def summarize_boxplot(d2_samples) -> dict:
    """Five-number summary plus 1.5*IQR outliers (type-7 quartiles,
    defined for any nonempty sample)."""
    x = np.asarray(d2_samples, dtype=float)
    if x.size == 0:
        raise ValueError("need at least one sample for a box summary")
    q1, med, q3 = np.percentile(x, [25, 50, 75])
    iqr = q3 - q1
    lo, hi = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    outliers = x[(x < lo) | (x > hi)]
    return {
        "min": float(x.min()),
        "q1": float(q1),
        "median": float(med),
        "q3": float(q3),
        "max": float(x.max()),
        "outliers": sorted(float(v) for v in outliers),
    }


def _write_csv(path: Path, header, fmt: str, rows) -> None:
    """CSV of a ``header`` line, then one line ``fmt % row`` per row;
    ``%.12g`` in ``fmt`` prints what :func:`_f` prints."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(fmt % tuple(row) + "\n" for row in rows)


def emit_esd_table(path: str | Path, grid, noise, clutter, mi_esds, mtsfm_esds) -> None:
    """CSV of the scene PSDs, the per-energy design ESDs and the MTSFM
    ESDs of the fitted energies.

    ``mi_esds`` and ``mtsfm_esds`` map energy -> SpectralDensity.
    """
    energies = sorted(mi_esds)
    fitted = sorted(mtsfm_esds)
    header = ["f", "P_n", "P_h"]
    header += [f"E_s_E{_f(e)}" for e in energies]
    header += [f"mtsfm_esd_E{_f(e)}" for e in fitted]
    columns = [grid.bin_freqs, noise.values, clutter.values]
    columns += [mi_esds[e].values for e in energies]
    columns += [mtsfm_esds[e].values for e in fitted]
    fmt = ",".join([_CELL] * len(columns))
    _write_csv(path, header, fmt, np.column_stack(columns).tolist())


def _design(config: ExperimentConfig, scenario: Scenario):
    """``design_mi(scenario)``, any error noted with the scene and energy;
    a note keeps the exception's type and fields, whatever they are."""
    try:
        return design_mi(scenario)
    except Exception as exc:
        exc.add_note(f"(scenario {config.clutter_kind}, E={scenario.energy:g})")
        raise


def run_experiment(config: ExperimentConfig, *, design_only: bool = False) -> tuple:
    """Execute the pipeline for every energy in the sweep, then write
    ``esd_table.csv``, ``summary.json`` and, after a fit, ``fit_E*.csv``.

    Returns one record dict per energy, as written to ``summary.json``;
    only a fit adds ``d2_box``, ``best_start_index``, ``best_beta``,
    ``best_d2`` and ``best_objective``, of the start in the first row of
    ``fit_E*.csv``. Nothing is written unless every energy runs.
    """
    scene = config.scenario(config.energy_list[0])
    grid = scene.grid

    records = []
    mi_esds: dict = {}
    mtsfm_esds: dict = {}
    fits: dict = {}
    for energy in config.energy_list:
        scenario = scene.with_energy(energy)
        design = _design(config, scenario)
        mi_esds[energy] = design.esd
        d2_mi = detection_metric(design.esd, scenario)
        target = solve_ofdm_coeffs(design.esd, grid, design.achieved_energy)
        kappa = support_halfwidth(target)

        beta_rms = rms_bandwidth(design.esd, energy)
        lfm = match_rms_bandwidth(beta_rms, config.duration, energy, grid)
        record = {
            "energy": energy,
            "lambda": design.lagrange_lambda,
            "kappa": kappa,
            "d2_mi": d2_mi,
            "d2_lfm": detection_metric(lfm_esd(lfm, grid), scenario),
            "lfm_sweep_bandwidth": lfm.sweep_bandwidth,
        }
        records.append(record)
        if design_only:
            continue

        results = fit(
            target,
            config.k_harmonics,
            config.delta,
            config.n_starts,
            config.seed,
            scenario=scenario,
        )
        fits[energy] = results
        best = results[0]
        best_wave = MtsfmWaveform(config.duration, energy, best.beta)
        mtsfm_esds[energy] = esd_on_grid(best_wave, grid)
        record["d2_box"] = summarize_boxplot([r.d_squared_achieved for r in results])
        record["best_start_index"] = best.start_index
        record["best_beta"] = list(best.beta)
        record["best_d2"] = best.d_squared_achieved
        record["best_objective"] = best.objective

    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for energy, results in fits.items():
        rows = [
            (r.start_index, r.objective, r.constraint_value, r.d_squared_achieved,
             r.converged, r.status)
            for r in results
        ]
        _write_csv(out / f"fit_E{_f(energy)}.csv", _FIT_HEADER, _FIT_FMT, rows)
    emit_esd_table(
        out / "esd_table.csv", grid, scene.noise_psd, scene.channel_psd,
        mi_esds, mtsfm_esds,
    )
    summary = {
        "provenance": {
            "config_hash": config.content_hash(),
            "seed": config.seed,
            "version": __version__,
        },
        "records": records,
    }
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return tuple(records)


def run_roc(config: ExperimentConfig, energy: float | None = None) -> Path:
    """Monte Carlo ROC validation of the MI design at one energy; writes
    ``roc.csv`` with analytic and empirical detection probabilities.

    The ``stderr`` column is the standard error of the empirical P_D,
    including the noise of its empirical H0-quantile threshold (see
    :class:`~miwave.detection.MonteCarloRoc`). ``out_dir`` is created
    only after the Monte Carlo has run."""
    energy = float(energy if energy is not None else config.energy_list[0])
    scenario = config.scenario(energy)
    design = _design(config, scenario)
    d2 = detection_metric(design.esd, scenario)
    s_bins = np.sqrt(design.esd.values)
    mc = monte_carlo_roc(
        s_bins, scenario, config.trials, config.seed, config.p_fa_grid
    )
    pairs = analytic_roc(d2, config.p_fa_grid)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "roc.csv"
    rows = [(*pair, p_hat, se) for pair, p_hat, se in zip(pairs, mc.p_d, mc.p_d_stderr)]
    _write_csv(
        path, ["p_fa", "p_d_analytic", "p_d_empirical", "stderr"],
        ",".join([_CELL] * 4), rows,
    )
    return path
