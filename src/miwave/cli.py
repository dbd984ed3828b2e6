"""Command-line entry point.

Subcommands:
  design  water-fill the MI ESD only and emit the ESD table
  fit     run the full design -> multistart MTSFM fit -> LFM pipeline
  roc     Monte Carlo validation of the analytic ROC
  report  summarize a fit CSV: d^2 quartiles and the objective of its
          first row, the start that summary.json calls best

Exit codes: 0 success, 2 config error; a config error writes nothing.
README.md ("Command line") lists every config error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

from .experiment import (
    ExperimentConfig,
    load_config,
    run_experiment,
    run_roc,
    summarize_boxplot,
)

EXIT_OK = 0
EXIT_CONFIG = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="miwave",
        description="Matched-illumination waveform design and evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="YAML experiment config")
        p.add_argument("--seed", type=int, help="override config seed")
        p.add_argument("--out", dest="out_dir", metavar="OUT",
                       help="override config output directory")

    p_design = sub.add_parser("design", help="MI water-filling design only")
    add_common(p_design)

    p_fit = sub.add_parser("fit", help="full design/fit/baseline pipeline")
    add_common(p_fit)
    p_fit.add_argument("--starts", dest="n_starts", metavar="STARTS", type=int,
                       help="override number of fit starts")

    p_roc = sub.add_parser("roc", help="Monte Carlo ROC validation")
    add_common(p_roc)
    p_roc.add_argument("--trials", type=int, help="override Monte Carlo trials")
    p_roc.add_argument("--energy", type=float, help="energy value to validate")

    p_report = sub.add_parser("report", help="summarize a fit report CSV")
    p_report.add_argument("fit_csv", help="fit_E*.csv produced by the fit command")
    return parser


def _report(fit_csv: str) -> None:
    with open(fit_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise ValueError(f"{fit_csv} contains no fit rows")
    d2 = [float(r["d_squared"]) for r in rows]
    converged = sum(int(r["converged"]) for r in rows)
    summary = {
        "n_starts": len(rows),
        "n_converged": converged,
        "d_squared": summarize_boxplot(d2),
        # the file's first row is the best start, as in summary.json
        "best_objective": float(rows[0]["objective"]),
    }
    json.dump(summary, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _describe(exc: BaseException) -> str:
    """The exception's message followed by any notes added on the way up."""
    return " ".join([str(exc), *getattr(exc, "__notes__", ())])


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "report":
        try:
            _report(args.fit_csv)
        except (OSError, ValueError, KeyError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        return EXIT_OK

    # a flag's dest names the config field it overrides
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    overrides = {k: v for k, v in vars(args).items() if k in fields and v is not None}
    try:
        config = load_config(args.config, **overrides)
    except (OSError, ValueError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        if args.command == "roc":
            path = run_roc(config, args.energy)
        else:
            design_only = args.command == "design"
            run_experiment(config, design_only=design_only)
            path = Path(config.out_dir) / ("esd_table.csv" if design_only else "summary.json")
        print(f"wrote {path}")
    except (OSError, ValueError, MemoryError) as exc:
        # a count too large to allocate for fails before anything is written
        print(f"config error: {_describe(exc)}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
