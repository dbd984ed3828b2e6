import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import miwave.experiment
import miwave.fitting
from miwave import OfdmTarget, analytic_roc, design_mi, detection_metric, fit, monte_carlo_roc
from miwave.cli import EXIT_CONFIG, EXIT_OK, main
from miwave.experiment import (
    ExperimentConfig,
    load_config,
    run_experiment,
    run_roc,
    summarize_boxplot,
)
from miwave.spectral import MAX_BINS

from conftest import dump_config


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

_DESIGN_KEYS = frozenset(
    ["energy", "lambda", "kappa", "d2_mi", "d2_lfm", "lfm_sweep_bandwidth"]
)


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def smoke_config(out_dir, **overrides):
    base = dict(
        noise_kind="noise_valley",
        noise_params={"n_min": 0.05, "n_max": 1.0},
        clutter_kind="clutter_notch",
        clutter_params={"level": 1.0, "notch_depth": 0.9, "notch_width": 2.0},
        band_width=10.0,
        duration=1.0,
        target_variance=1.0,
        energy_list=(0.5, 2.0),
        k_harmonics=4,
        delta=0.2,
        n_starts=5,
        seed=0,
        trials=2000,
        p_fa_grid=(0.01, 0.1),
        out_dir=str(out_dir),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_round_trip(self, tmp_path):
        cfg = smoke_config(tmp_path / "out")
        path = tmp_path / "cfg.yaml"
        dump_config(cfg, path)
        assert load_config(path) == cfg

    @pytest.mark.parametrize("libyaml", [
        False,
        pytest.param(True, marks=pytest.mark.skipif(
            not yaml.__with_libyaml__, reason="PyYAML built without libyaml")),
    ])
    def test_either_yaml_loader_reads_alike(self, tmp_path, monkeypatch, capsys, libyaml):
        # load_config takes libyaml's loader where PyYAML has it
        smoke = tmp_path / "smoke.yaml"
        dump_config(smoke_config(tmp_path / "out"), smoke)
        paths = (CONFIG_DIR / "clutter_notch.yaml", CONFIG_DIR / "clutter_peak.yaml", smoke)
        want = [ExperimentConfig(**yaml.safe_load(p.read_text())) for p in paths]
        used = []
        yaml_load = yaml.load

        def load(stream, Loader):
            used.append(Loader)
            return yaml_load(stream, Loader=Loader)

        monkeypatch.setattr(yaml, "__with_libyaml__", libyaml)
        monkeypatch.setattr(yaml, "load", load)
        assert [load_config(p) for p in paths] == want
        bad = tmp_path / "bad.yaml"
        bad.write_text("noise_kind: [unclosed\n")
        assert main(["design", "--config", str(bad)]) == EXIT_CONFIG
        assert "bad.yaml is not valid YAML" in capsys.readouterr().err
        assert used == [yaml.CSafeLoader if libyaml else yaml.SafeLoader] * 4

    def test_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "bad.yaml"
        cfg = smoke_config(tmp_path / "out")
        d = cfg.to_dict()
        d["typo_key"] = 1
        path.write_text(yaml.safe_dump(d))
        with pytest.raises(ValueError, match="unknown config keys"):
            load_config(path)

    def test_rejects_unknown_keys_of_mixed_types(self, tmp_path):
        # YAML reads the key 1 as an int, which does not sort against a str
        path = tmp_path / "bad.yaml"
        d = smoke_config(tmp_path / "out").to_dict()
        path.write_text(yaml.safe_dump(d) + "1: 2\nbogus: 3\n")
        with pytest.raises(ValueError, match=re.escape("unknown config keys: [1, 'bogus']")):
            load_config(path)

    def test_rejects_bad_energy_list(self, tmp_path):
        with pytest.raises(ValueError):
            smoke_config(tmp_path, energy_list=())
        with pytest.raises(ValueError):
            smoke_config(tmp_path, energy_list=(1.0, -2.0))
        with pytest.raises(ValueError, match="energy_list must not repeat"):
            smoke_config(tmp_path, energy_list=(2.0, 2.0))

    @pytest.mark.parametrize("field", ["trials", "n_starts", "k_harmonics", "seed"])
    @pytest.mark.parametrize("value", [3.0, "1e5", True])
    def test_rejects_non_integer_counts(self, tmp_path, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            smoke_config(tmp_path, **{field: value})

    @pytest.mark.parametrize(
        "p_fa_grid", [(0.1, 1.0), (0.0, 0.1), (-0.1,), (float("nan"),), (), ("0.1",)]
    )
    def test_rejects_p_fa_outside_unit_interval(self, tmp_path, p_fa_grid):
        with pytest.raises(ValueError, match="p_fa_grid"):
            smoke_config(tmp_path, p_fa_grid=p_fa_grid)

    def test_one_expected_false_alarm_is_accepted(self, tmp_path):
        # the boundary of the p_fa_grid rule: p_fa*trials = 1 runs
        cfg = smoke_config(tmp_path / "out", trials=1000, p_fa_grid=(0.001, 0.1))
        rows = [[float(v) for v in line.split(",")]
                for line in run_roc(cfg).read_text().splitlines()[1:]]
        assert [r[0] for r in rows] == [0.001, 0.1]
        assert np.all(np.isfinite(rows))

    @pytest.mark.parametrize("seed", [-1, -(2**40)])
    def test_rejects_negative_seed(self, tmp_path, seed):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            smoke_config(tmp_path, seed=seed)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("k_harmonics", 0, "k_harmonics must be >= 1"),
            ("k_harmonics", -3, "k_harmonics must be >= 1"),
            ("delta", 0.0, "delta must lie in"),
            ("delta", 1.0, "delta must lie in"),
            ("delta", -0.2, "delta must lie in"),
            ("trials", 999, "trials must be >= 1000"),
            ("trials", 0, "trials must be >= 1000"),
            ("p_fa_grid", (4.9e-4, 0.1), "p_fa_grid times trials must be at least 1"),
        ],
    )
    def test_rejects_out_of_range_fit_and_roc_fields(
        self, tmp_path, field, value, message
    ):
        with pytest.raises(ValueError, match=message):
            smoke_config(tmp_path, **{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("k_harmonics", 0), ("k_harmonics", 2.5), ("delta", 1.5),
            ("delta", float("nan")), ("n_starts", 0), ("n_starts", 2.5),
            ("trials", 999), ("trials", 1e5), ("p_fa_grid", ()),
            ("p_fa_grid", (float("nan"),)), ("p_fa_grid", (0.1, 1.0)),
            ("p_fa_grid", (1e-10, 0.1)),
        ],
    )
    def test_config_and_library_refuse_alike(self, tmp_path, field, value):
        # the config calls the owners of the fit and ROC rules
        fit_args = dict(k_harmonics=4, delta=0.2, n_starts=1, seed=0)
        scene = smoke_config(tmp_path).scenario(1.0)
        with pytest.raises(ValueError) as lib:
            if field in fit_args:
                target = OfdmTarget(np.ones(3) / np.sqrt(3), 1.0)
                fit(target, **{**fit_args, field: value}, scenario=scene)
            else:
                roc_args = {**dict(trials=2000, p_fa_grid=(0.1,)), field: value}
                monte_carlo_roc(scene.noise_psd, scene, seed=0, **roc_args)
        with pytest.raises(ValueError) as cfg:
            smoke_config(tmp_path, **{field: value})
        assert str(cfg.value) == str(lib.value)
        assert field in str(lib.value)

    def test_integer_counts_stored_as_int(self, tmp_path):
        cfg = smoke_config(tmp_path, trials=np.int64(3000), seed=np.int32(4))
        assert type(cfg.trials) is int and cfg.trials == 3000
        assert type(cfg.seed) is int and cfg.seed == 4

    def test_content_hash_tracks_content(self, tmp_path):
        a = smoke_config(tmp_path / "out")
        assert a.content_hash() == smoke_config(tmp_path / "out").content_hash()
        # where a run is written is not what it computes
        assert a.content_hash() == smoke_config(tmp_path / "elsewhere").content_hash()
        changed = dict(
            noise_kind="flat", noise_params={"n_min": 0.1, "n_max": 1.0},
            clutter_kind="flat", clutter_params={"level": 1.0},
            band_width=12.0, duration=2.0, target_variance=2.0, energy_list=(0.5, 4.0),
            k_harmonics=5, delta=0.3, n_starts=6, seed=1, trials=3000,
            p_fa_grid=(0.01, 0.2),
        )
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert set(changed) == fields - {"out_dir"}
        for name, value in changed.items():
            other = smoke_config(tmp_path / "out", **{name: value})
            assert other.content_hash() != a.content_hash(), name

    def test_p_fa_grid_default(self, tmp_path):
        d = smoke_config(tmp_path / "out").to_dict()
        del d["p_fa_grid"]
        assert ExperimentConfig(**d).p_fa_grid == (0.001, 0.01, 0.1)


class TestBoxplot:
    def test_small_example(self):
        box = summarize_boxplot([1, 2, 3, 4, 5])
        assert box["median"] == 3
        assert box["q1"] == 2 and box["q3"] == 4
        assert box["outliers"] == []

    def test_constant_list(self):
        box = summarize_boxplot([2.0] * 8)
        assert box["min"] == box["max"] == 2.0
        assert box["outliers"] == []

    def test_outlier_flagged(self):
        box = summarize_boxplot([1, 2, 3, 4, 100])
        assert box["outliers"] == [100.0]
        # q1 = 2, q3 = 4: the upper fence 4 + 1.5*(q3 - q1) = 7 flags 10
        assert summarize_boxplot([1, 2, 3, 4, 10])["outliers"] == [10.0]

    def test_three_samples(self):
        box = summarize_boxplot([3, 1, 2])
        assert (box["q1"], box["median"], box["q3"]) == (1.5, 2.0, 2.5)
        assert box["min"] == 1 and box["max"] == 3

    def test_too_few(self):
        with pytest.raises(ValueError):
            summarize_boxplot([])


# every cell kind the outputs hold: signed zeros, a subnormal, tiny and
# huge magnitudes, integral floats, and values that need all 12 digits
_CELLS = [
    0.0, -0.0, 5e-324, 1e-13, 1e300, 3.0, -17.0, 1e12, 123456789012.0,
    2.0**53, 0.1, 1.0 / 3.0, np.float64(-2.5e-7), float("inf"), float("nan"),
]


def _cell(x):
    return format(float(x), ".12g")


class TestWriteCsv:
    def test_float_cells_match_per_cell_format(self, tmp_path):
        rows = [_CELLS[i : i + 3] for i in range(len(_CELLS) - 2)]
        path = tmp_path / "t.csv"
        miwave.experiment._write_csv(path, ["a", "b", "c"], "%.12g,%.12g,%.12g", rows)
        want = "a,b,c\n" + "".join(",".join(map(_cell, row)) + "\n" for row in rows)
        assert path.read_bytes() == want.encode()

    def test_fit_row(self, tmp_path):
        status = "CONVERGENCE: NORM OF PROJECTED GRADIENT <= G_TOL"
        row = (7, 1.0 / 3.0, -0.0, 5e-324, True, status)
        path = tmp_path / "fit.csv"
        experiment = miwave.experiment
        experiment._write_csv(path, experiment._FIT_HEADER, experiment._FIT_FMT, [row])
        header, line = path.read_text().splitlines()
        assert header.split(",")[-2:] == ["converged", "optimizer_status"]
        assert line == f"7,{_cell(1.0 / 3.0)},-0,{_cell(5e-324)},1,{status}"


class TestRunExperiment:
    def test_smoke_pipeline(self, tmp_path):
        cfg = smoke_config(tmp_path / "out")
        records = run_experiment(cfg)
        out = Path(cfg.out_dir)
        assert (out / "esd_table.csv").exists()
        assert (out / "summary.json").exists()
        for e in cfg.energy_list:
            assert (out / f"fit_E{e:.12g}.csv").exists()
        # every MTSFM d^2 stays below the MI bound
        for rec, e in zip(records, cfg.energy_list):
            sc = cfg.scenario(e)
            d2_star = detection_metric(design_mi(sc).esd, sc)
            assert rec["d2_mi"] == pytest.approx(d2_star, rel=1e-9)
            assert rec["best_d2"] <= d2_star + 1e-9

    def test_esd_table_shape(self, tmp_path):
        cfg = smoke_config(tmp_path / "out")
        run_experiment(cfg, design_only=True)
        lines = (Path(cfg.out_dir) / "esd_table.csv").read_text().splitlines()
        header = lines[0].split(",")
        grid_bins = cfg.scenario(1.0).grid.num_bins
        assert len(lines) == grid_bins + 1
        assert header == ["f", "P_n", "P_h"] + [
            f"E_s_E{e:.12g}" for e in cfg.energy_list
        ]

    def test_summary_provenance(self, tmp_path):
        cfg = smoke_config(tmp_path / "out")
        records = run_experiment(cfg, design_only=True)
        text = (Path(cfg.out_dir) / "summary.json").read_text()
        summary = json.loads(text, parse_constant=_reject_constant)
        assert summary["provenance"]["config_hash"] == cfg.content_hash()
        assert summary["provenance"]["seed"] == cfg.seed
        # a design run carries the design keys only
        assert summary["records"] == list(records)
        assert {frozenset(r) for r in records} == {_DESIGN_KEYS}
        assert sorted(p.name for p in Path(cfg.out_dir).iterdir()) == [
            "esd_table.csv", "summary.json"
        ]

    @pytest.mark.parametrize("name", ["clutter_notch", "clutter_peak"])
    def test_esd_table_holds_the_scored_mtsfm_esd(self, monkeypatch, tmp_path, name):
        # fit scores each start at the design's achieved energy; the best
        # start's ESD in esd_table.csv is the one that scored best_d2
        written = {}
        emit = miwave.experiment.emit_esd_table

        def captured(path, grid, noise, clutter, mi_esds, mtsfm_esds):
            written.update(mtsfm_esds)
            emit(path, grid, noise, clutter, mi_esds, mtsfm_esds)

        monkeypatch.setattr(miwave.experiment, "emit_esd_table", captured)
        cfg = dataclasses.replace(
            load_config(CONFIG_DIR / f"{name}.yaml"), n_starts=6, out_dir=str(tmp_path),
        )
        records = run_experiment(cfg)
        assert sorted(written) == sorted(cfg.energy_list)
        for rec in records:
            esd = written[rec["energy"]]
            assert detection_metric(esd, cfg.scenario(rec["energy"])) == rec["best_d2"]

    def test_summary_names_best_start(self, tmp_path):
        cfg = smoke_config(tmp_path / "out")
        records = run_experiment(cfg)
        for rec in records:
            rows = _csv_rows(Path(cfg.out_dir) / f"fit_E{rec['energy']:.12g}.csv")
            assert rec["best_start_index"] == int(rows[0]["start_index"])

    def test_roc_output(self, tmp_path):
        cfg = smoke_config(tmp_path / "out")
        path = run_roc(cfg, 2.0)
        lines = path.read_text().splitlines()
        assert lines[0] == "p_fa,p_d_analytic,p_d_empirical,stderr"
        assert len(lines) == 1 + len(cfg.p_fa_grid)
        for line in lines[1:]:
            p_fa, p_d, p_hat, se = map(float, line.split(","))
            assert 0 < p_fa < 1 and 0 <= p_hat <= 1
            assert p_d >= p_fa

    def test_roc_analytic_column_is_analytic_roc(self, tmp_path):
        cfg = smoke_config(tmp_path / "out", p_fa_grid=(0.001, 0.01, 0.1, 0.5))
        scene = cfg.scenario(2.0)
        d2 = detection_metric(design_mi(scene).esd, scene)
        rows = _csv_rows(run_roc(cfg, 2.0))
        assert [r["p_fa"] for r in rows] == [f"{p:.12g}" for p in cfg.p_fa_grid]
        want = [f"{p_d:.12g}" for _, p_d in analytic_roc(d2, cfg.p_fa_grid)]
        assert [r["p_d_analytic"] for r in rows] == want


class TestCli:
    def _write_cfg(self, tmp_path, **overrides):
        cfg = smoke_config(tmp_path / "out", **overrides)
        path = tmp_path / "cfg.yaml"
        dump_config(cfg, path)
        return cfg, path

    def test_design_subcommand(self, tmp_path, capsys):
        cfg, path = self._write_cfg(tmp_path)
        assert main(["design", "--config", str(path)]) == EXIT_OK
        assert "esd_table.csv" in capsys.readouterr().out
        assert (Path(cfg.out_dir) / "esd_table.csv").exists()

    def test_fit_subcommand_with_overrides(self, tmp_path, capsys):
        cfg, path = self._write_cfg(tmp_path)
        alt_out = tmp_path / "alt"
        code = main(
            ["fit", "--config", str(path), "--out", str(alt_out), "--starts", "3"]
        )
        assert code == EXIT_OK
        fit_csv = alt_out / "fit_E0.5.csv"
        assert len(fit_csv.read_text().splitlines()) == 1 + 3
        # fewer than 5 starts still get a box summary, in the run and in report
        text = (alt_out / "summary.json").read_text()
        for rec in json.loads(text, parse_constant=_reject_constant)["records"]:
            assert set(rec["d2_box"]) == {"min", "q1", "median", "q3", "max", "outliers"}
        capsys.readouterr()
        assert main(["report", str(fit_csv)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["n_starts"] == 3

    def test_roc_subcommand(self, tmp_path):
        cfg, path = self._write_cfg(tmp_path)
        code = main(["roc", "--config", str(path), "--trials", "1500"])
        assert code == EXIT_OK
        assert (Path(cfg.out_dir) / "roc.csv").exists()

    def test_report_subcommand(self, tmp_path, capsys):
        cfg, path = self._write_cfg(tmp_path)
        assert main(["fit", "--config", str(path)]) == EXIT_OK
        capsys.readouterr()
        fit_csv = Path(cfg.out_dir) / "fit_E2.csv"
        assert main(["report", str(fit_csv)]) == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["n_starts"] == cfg.n_starts
        assert "d_squared" in summary

    def test_report_best_objective_is_the_best_start(self, tmp_path, capsys):
        # on this scene the best start by d^2 (the first row) is not the
        # one of least objective; report follows summary.json's choice
        d = yaml.safe_load((CONFIG_DIR / "clutter_peak.yaml").read_text())
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump({**d, "energy_list": [1.0]}))
        out = tmp_path / "out"
        argv = ["fit", "--config", str(path), "--starts", "6", "--out", str(out)]
        assert main(argv) == EXIT_OK
        capsys.readouterr()
        assert main(["report", str(out / "fit_E1.csv")]) == EXIT_OK
        reported = json.loads(capsys.readouterr().out)["best_objective"]
        rows = list(csv.DictReader((out / "fit_E1.csv").read_text().splitlines()))
        (record,) = json.loads((out / "summary.json").read_text())["records"]
        assert reported == float(rows[0]["objective"])
        assert reported == pytest.approx(record["best_objective"], rel=1e-11)
        assert reported > min(float(r["objective"]) for r in rows)

    def test_grid_above_cap_is_config_error(self, tmp_path, capsys):
        # one bin over the cap: refused before any array is made
        text = (CONFIG_DIR / "clutter_notch.yaml").read_text()
        text = re.sub(r"^band_width: .*$", f"band_width: {MAX_BINS}", text, flags=re.M)
        path = tmp_path / "cfg.yaml"
        path.write_text(text)
        code = main(["design", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert f"W*T must be finite and at most {MAX_BINS - 1}" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.yaml"]

    @pytest.mark.parametrize("command", ["design", "fit", "roc"])
    def test_overflowing_grid_is_config_error(self, tmp_path, capsys, command):
        # W and T are finite, but W*T overflows to inf
        text = (CONFIG_DIR / "clutter_notch.yaml").read_text()
        for key in ("band_width", "duration"):
            text = re.sub(rf"^{key}: .*$", f"{key}: 1.0e+200", text, flags=re.M)
        path = tmp_path / "cfg.yaml"
        path.write_text(text)
        code = main([command, "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert "W*T must be finite" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.yaml"]

    def test_missing_config_is_config_error(self, tmp_path, capsys):
        code = main(["design", "--config", str(tmp_path / "nope.yaml")])
        assert code == EXIT_CONFIG

    def test_invalid_config_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("- just\n- a list\n")
        assert main(["design", "--config", str(path)]) == EXIT_CONFIG

    @pytest.mark.parametrize("trials", ["100000.0", "1e5"])
    def test_non_integer_trials_is_config_error(self, tmp_path, capsys, trials):
        # YAML reads 100000.0 as a float and 1e5 as a string
        cfg, path = self._write_cfg(tmp_path)
        text = path.read_text()
        assert "trials: 2000\n" in text
        path.write_text(text.replace("trials: 2000\n", f"trials: {trials}\n"))
        assert main(["roc", "--config", str(path)]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["design", "roc"])
    @pytest.mark.parametrize(
        "params",
        [
            {"clutter_params": {"level": 1.0, "notch_depth": 0.9, "bogus": 1}},
            {"noise_params": {"n_min": "abc"}},
            {"clutter_kind": "custom_table", "clutter_params": {"freqs": [-5.0, 5.0]}},
        ],
    )
    def test_bad_psd_params_are_config_errors(self, tmp_path, capsys, command, params):
        cfg, path = self._write_cfg(tmp_path, **params)
        assert main([command, "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err
        if "clutter_kind" in params:
            # a required parameter that the config lacks is named with its kind
            assert "PSD kind 'custom_table'" in err and "'values'" in err
        assert not Path(cfg.out_dir).exists()

    @pytest.mark.parametrize(
        "command, key, literal",
        [
            ("design", "band_width", "abc"),
            ("fit", "delta", "abc"),
            ("design", "duration", "1e-9"),  # YAML reads this as a string
            ("design", "band_width", ".inf"),
            ("design", "duration", ".inf"),
            ("design", "out_dir", "5"),
            ("design", "target_variance", ".nan"),
            ("design", "energy_list", "[.nan]"),
        ],
    )
    def test_bad_scene_fields_are_config_errors(
        self, tmp_path, capsys, monkeypatch, command, key, literal
    ):
        monkeypatch.chdir(tmp_path)
        d = smoke_config("out").to_dict()
        del d[key]
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(d) + f"{key}: {literal}\n")
        assert main([command, "--config", str(path)]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.yaml"]

    def test_unwritable_out_is_config_error(self, tmp_path, capsys):
        cfg, path = self._write_cfg(tmp_path)
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "sub"
        assert main(["design", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        assert blocker.is_file()

    @pytest.mark.parametrize("command", ["design", "fit", "roc"])
    def test_p_fa_grid_at_one_is_config_error(self, tmp_path, capsys, command):
        cfg, path = self._write_cfg(tmp_path)
        path.write_text(yaml.safe_dump({**cfg.to_dict(), "p_fa_grid": [0.1, 1.0]}))
        assert main([command, "--config", str(path)]) == EXIT_CONFIG
        assert "p_fa_grid" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, key, literal, message",
        [
            (["design", "--seed", "-1"], None, None, "seed must be >= 0"),
            (["design"], "seed", "-1", "seed must be >= 0"),
            (["fit"], "energy_list", "[2.0, 2.0]", "energy_list must not repeat"),
            # both would write fit_E1.csv and the same esd_table.csv columns
            (["fit"], "energy_list", "[1.0, 1.0000000000001]", "energy_list must not repeat"),
            (["design"], "clutter_params", "{level: 1.0, notch_depth: 0.9, notch_width: 0}",
             "notch_width must be finite and positive"),
            (["roc"], "p_fa_grid", "[]", "p_fa_grid must be nonempty"),
            (["roc"], "p_fa_grid", "['0.1']", "p_fa_grid must be a number"),
            (["design"], "k_harmonics", "0", "k_harmonics must be >= 1"),
            (["fit"], "k_harmonics", "0", "k_harmonics must be >= 1"),
            (["roc"], "k_harmonics", "0", "k_harmonics must be >= 1"),
            (["design"], "delta", "1.5", "delta must lie in (0, 1)"),
            (["fit"], "delta", "0.0", "delta must lie in (0, 1)"),
            (["design"], "trials", "999", "trials must be >= 1000"),
            (["roc"], "trials", "999", "trials must be >= 1000"),
            (["roc", "--trials", "999"], None, None, "trials must be >= 1000"),
            (["design"], "noise_kind", "[unclosed", "cfg.yaml is not valid YAML"),
            (["design"], "noise_params", "5", "noise_params must be a mapping"),
            (["design"], "noise_params", "[1, 2]", "noise_params must be a mapping"),
            (["design"], "clutter_params", "5", "clutter_params must be a mapping"),
            (["design"], "clutter_params", "[1, 2]", "clutter_params must be a mapping"),
            (["design"], "band_width", str(10**400), "band_width must be finite"),
            # below one expected false alarm the threshold is the sample maximum
            (["roc"], "p_fa_grid", "[1.0e-10, 0.1]", "p_fa_grid times trials must be at least 1"),
            (["roc"], "p_fa_grid", "[1.0e-200]", "p_fa_grid times trials must be at least 1"),
            (["roc", "--trials", "1000"], "p_fa_grid", "[0.0009]",
             "p_fa_grid times trials must be at least 1"),
            # counts past any address space: the first array fails at once
            (["roc", "--trials", str(10**14)], None, None, "config error: Unable to allocate"),
            (["fit"], "k_harmonics", str(10**14), "config error: Unable to allocate"),
        ],
        ids=[
            "seed-flag", "seed-key", "repeated-energy", "energies-print-alike",
            "zero-notch-width", "empty-p_fa", "string-p_fa",
            "k0-design", "k0-fit", "k0-roc", "delta-design", "delta-fit",
            "trials-design", "trials-roc", "trials-flag", "yaml-syntax",
            "noise_params-int", "noise_params-list", "clutter_params-int",
            "clutter_params-list", "band_width-past-float", "p_fa-1e-10", "p_fa-1e-200",
            "p_fa-trials-flag", "roc-trials-past-memory", "fit-k-past-memory",
        ],
    )
    def test_config_value_errors_write_nothing(
        self, tmp_path, capsys, argv, key, literal, message
    ):
        cfg, path = self._write_cfg(tmp_path)
        if key is not None:
            d = cfg.to_dict()
            del d[key]
            path.write_text(yaml.safe_dump(d) + f"{key}: {literal}\n")
        code = main([*argv, "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.yaml"]

    def test_a_flag_mends_the_file_it_overrides(self, tmp_path):
        # the file alone breaks trials >= 1000; the flag applies before
        # the check, and the run is the one of a file holding the flag's value
        cfg, path = self._write_cfg(tmp_path)
        good = tmp_path / "good.yaml"
        good.write_text(path.read_text())
        path.write_text(yaml.safe_dump({**cfg.to_dict(), "trials": 999}))
        mended = load_config(path, trials=2000, seed=3)
        assert mended == dataclasses.replace(load_config(good), seed=3)
        assert mended.content_hash() == dataclasses.replace(cfg, seed=3).content_hash()
        outs = {}
        for name, p in (("mended", path), ("good", good)):
            outs[name] = tmp_path / name
            argv = ["roc", "--config", str(p), "--out", str(outs[name])]
            assert main([*argv, "--trials", "2000"]) == EXIT_OK
        assert (outs["mended"] / "roc.csv").read_bytes() == (outs["good"] / "roc.csv").read_bytes()

    def test_a_config_error_names_the_flag_value(self, tmp_path, capsys):
        cfg, path = self._write_cfg(tmp_path)
        d = {**cfg.to_dict(), "trials": 100000, "p_fa_grid": [1.0e-10, 0.1]}
        path.write_text(yaml.safe_dump(d))
        argv = ["roc", "--config", str(path), "--trials", "2000", "--out", str(tmp_path / "o")]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "p_fa_grid times trials must be at least 1, got p_fa 1e-10 at trials 2000" in err
        assert "100000" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.yaml"]

    @pytest.mark.parametrize(
        "kind, params, message",
        [
            ("flat", {"level": np.nan}, "level must be finite and nonnegative"),
            ("clutter_peak", {"osc_cycles": np.inf}, "osc_cycles must be finite"),
            ("custom_table", {"freqs": [-10.0, 0.0, np.inf], "values": [1.0, 2.0, 3.0]},
             "freqs must be finite"),
            ("custom_table", {"freqs": [-10.0, np.nan, 10.0], "values": [1.0, 1.0, 1.0]},
             "freqs must be finite"),
            ("flat", {"level": True}, "level must be a number"),
            ("clutter_notch", {"level": 1.0, "notch_depth": True, "notch_width": 2.0},
             "notch_depth must be a number"),
            ("custom_table", {"freqs": [-10.0, 0.0, 10.0], "values": [1.0, True, 1.0]},
             "values must be a number"),
            ("flat", {"level": 10**400}, "level must be finite and nonnegative"),
        ],
        ids=["flat-level-nan", "osc_cycles-inf", "freqs-inf", "freqs-nan",
             "flat-level-bool", "notch_depth-bool", "values-bool", "flat-level-past-float"],
    )
    def test_bad_psd_values_are_named_config_errors(
        self, tmp_path, capsys, kind, params, message
    ):
        cfg, path = self._write_cfg(tmp_path, clutter_kind=kind, clutter_params=params)
        code = main(["design", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.yaml"]

    def test_unbounded_scenario_is_config_error(self, tmp_path, capsys):
        # a clutter notch of depth 1.0 zeroes P_h where the design wants
        # energy; the scenario itself is invalid, so this is a config error
        cfg, path = self._write_cfg(
            tmp_path,
            clutter_params={"level": 1.0, "notch_depth": 1.0, "notch_width": 2.0},
        )
        assert main(["design", "--config", str(path)]) == EXIT_CONFIG
        assert not Path(cfg.out_dir).exists()

    @pytest.mark.parametrize("p_h", [1e-20, 5e-324])
    def test_tiny_channel_bin_is_config_error(self, tmp_path, capsys, p_h):
        # the DC bin of this table is too small for the water level to
        # meet E (1e-20) or for P_n/P_h to be finite (5e-324)
        cfg, path = self._write_cfg(
            tmp_path,
            band_width=20.0,
            clutter_kind="custom_table",
            clutter_params={
                "freqs": [-10.0, -1.0, 0.0, 1.0, 10.0],
                "values": [0.5, 0.5, p_h, 0.5, 0.5],
            },
            energy_list=(2.0,),
        )
        assert main(["design", "--config", str(path)]) == EXIT_CONFIG
        assert "(scenario custom_table, E=2)" in capsys.readouterr().err
        assert not Path(cfg.out_dir).exists()

    def test_design_error_keeps_type_and_names_scene(
        self, tmp_path, capsys, monkeypatch
    ):
        # an error type whose constructor takes more than a message must
        # reach the caller as itself, with the scenario and energy added
        class CodedError(ValueError):
            def __init__(self, code, detail):
                super().__init__(f"code {code}: {detail}")
                self.code = code

        def failing_design(scenario):
            raise CodedError(7, "no design")

        monkeypatch.setattr(miwave.experiment, "design_mi", failing_design)
        cfg, path = self._write_cfg(tmp_path)
        with pytest.raises(CodedError) as info:
            run_experiment(cfg, design_only=True)
        assert info.value.code == 7
        assert info.value.__notes__ == ["(scenario clutter_notch, E=0.5)"]
        assert main(["design", "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "code 7: no design (scenario clutter_notch, E=0.5)" in err
        # roc designs through the same helper, so its error names the scene too
        with pytest.raises(CodedError) as info:
            run_roc(cfg, 2.0)
        assert info.value.__notes__ == ["(scenario clutter_notch, E=2)"]
        assert main(["roc", "--config", str(path), "--energy", "2"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "code 7: no design (scenario clutter_notch, E=2)" in err
        assert not Path(cfg.out_dir).exists()

    def test_fit_csv_status_explains_converged(self, tmp_path, monkeypatch):
        # converged is 1 exactly when the optimizer's termination message
        # is a CONVERGENCE one; a one-iteration cap makes starts stop early
        cfg, path = self._write_cfg(tmp_path)
        statuses = {}
        full = miwave.fitting.MAX_ITER
        for max_iter in (full, 1):
            monkeypatch.setattr(miwave.fitting, "MAX_ITER", max_iter)
            out = tmp_path / f"iter{max_iter}"
            assert main(["fit", "--config", str(path), "--out", str(out)]) == EXIT_OK
            for fit_csv in sorted(out.glob("fit_E*.csv")):
                with open(fit_csv, newline="") as fh:
                    reader = csv.DictReader(fh)
                    assert reader.fieldnames[-2:] == ["converged", "optimizer_status"]
                    for row in reader:
                        status = row["optimizer_status"]
                        assert (row["converged"] == "1") == status.startswith(
                            "CONVERGENCE: "
                        )
                        statuses.setdefault(max_iter, set()).add(status)
        assert any(s.startswith("CONVERGENCE: ") for s in statuses[full])
        assert "STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT" in statuses[1]

    @pytest.mark.parametrize("energy", ["nan", "inf", "-inf"])
    def test_non_finite_roc_energy_is_config_error(self, tmp_path, capsys, energy):
        cfg, path = self._write_cfg(tmp_path)
        assert main(["roc", "--config", str(path), f"--energy={energy}"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"energy must be finite and positive, got {float(energy)!r}" in err
        assert not Path(cfg.out_dir).exists()

    def test_report_on_missing_file(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "none.csv")]) == EXIT_CONFIG

    def test_report_on_header_only_file(self, tmp_path, capsys):
        path = tmp_path / "fit_E1.csv"
        path.write_text(",".join(miwave.experiment._FIT_HEADER) + "\n")
        assert main(["report", str(path)]) == EXIT_CONFIG
        assert f"{path} contains no fit rows" in capsys.readouterr().err

    def test_seed_override_changes_hash(self, tmp_path):
        cfg, path = self._write_cfg(tmp_path)
        out_a, out_b = tmp_path / "sa", tmp_path / "sb"
        main(["fit", "--config", str(path), "--out", str(out_a), "--seed", "0"])
        main(["fit", "--config", str(path), "--out", str(out_b), "--seed", "5"])
        a = json.loads((out_a / "summary.json").read_text())
        b = json.loads((out_b / "summary.json").read_text())
        hash_a = a["provenance"]["config_hash"]
        hash_b = b["provenance"]["config_hash"]
        assert hash_a != hash_b


_PSD_KINDS = st.one_of(
    st.sampled_from(
        ["flat", "noise_valley", "clutter_peak", "clutter_notch", "custom_table"]
    ),
    st.sampled_from(["bogus", None, ["flat"]]),
)
_PSD_PARAMS = st.dictionaries(
    st.sampled_from(
        ["level", "n_min", "n_max", "floor", "notch_depth", "peak_width",
         "freqs", "values", "bogus", "x"]
    ),
    st.one_of(
        st.none(),
        st.text(alphabet="ab1e.-", max_size=4),
        st.floats(-2.0, 2.0),
        st.lists(st.floats(-2.0, 2.0), max_size=3),
    ),
    max_size=3,
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    noise_kind=_PSD_KINDS,
    noise_params=_PSD_PARAMS,
    clutter_kind=_PSD_KINDS,
    clutter_params=_PSD_PARAMS,
)
def test_malformed_psd_params_exit_cleanly(
    noise_kind, noise_params, clutter_kind, clutter_params
):
    # unknown kinds, and unknown keys, strings and None in the PSD
    # parameters, are config errors (exit 2), never an uncaught exception
    with tempfile.TemporaryDirectory() as tmp:
        cfg = smoke_config(Path(tmp) / "out").to_dict()
        cfg.update(
            noise_kind=noise_kind,
            noise_params=noise_params,
            clutter_kind=clutter_kind,
            clutter_params=clutter_params,
        )
        path = Path(tmp) / "cfg.yaml"
        path.write_text(yaml.safe_dump(cfg))
        assert main(["design", "--config", str(path)]) in (EXIT_OK, EXIT_CONFIG)


_ZERO_CHANNEL_CLUTTER = st.one_of(
    st.builds(
        lambda width: ("clutter_notch",
                       {"level": 1.0, "notch_depth": 1.0, "notch_width": width}),
        st.floats(0.1, 5.0),
    ),
    st.builds(
        lambda values, zero_at: (
            "custom_table",
            {
                "freqs": [-1e3 + 2e3 * i / (len(values) - 1) for i in range(len(values))],
                "values": values[:zero_at] + [0.0] + values[zero_at + 1:],
            },
        ),
        st.lists(st.floats(0.0, 2.0), min_size=3, max_size=6),
        st.integers(0, 2),
    ),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    log_energies=st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=3),
    duration=st.sampled_from([0.5, 1.0, 2.0]),
    wt=st.floats(2.0, 500.0),
    clutter=_ZERO_CHANNEL_CLUTTER,
)
def test_design_fuzz_finite_or_config_error(log_energies, duration, wt, clutter):
    # E log-uniform in [1e-4, 1e4], W*T in [2, 500] and clutter with
    # zero-channel bins: either every output is finite, or exit 2 and
    # nothing is written; a repeated energy is a config error too
    clutter_kind, clutter_params = clutter
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        cfg = smoke_config(
            out,
            band_width=wt / duration,
            duration=duration,
            clutter_kind=clutter_kind,
            clutter_params=clutter_params,
        ).to_dict()
        cfg["energy_list"] = [10.0**x for x in log_energies]
        path = Path(tmp) / "cfg.yaml"
        path.write_text(yaml.safe_dump(cfg))
        code = main(["design", "--config", str(path)])
        assert code in (EXIT_OK, EXIT_CONFIG)
        if code == EXIT_CONFIG:
            assert not out.exists()
            return
        json.loads((out / "summary.json").read_text(), parse_constant=_reject_constant)
        lines = (out / "esd_table.csv").read_text().splitlines()
        cells = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert np.all(np.isfinite(cells))


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _assert_finite_cells(rows, text_columns=()):
    assert rows
    cells = [float(v) for row in rows for k, v in row.items() if k not in text_columns]
    assert np.all(np.isfinite(cells))


# the ranges of test_design_fuzz_finite_or_config_error, one energy a
# case; clutter also without zero-channel bins, so that more cases run
_FUZZ_SCENES = dict(
    log_energy=st.floats(-4.0, 4.0),
    duration=st.sampled_from([0.5, 1.0, 2.0]),
    wt=st.floats(2.0, 500.0),
    clutter=st.one_of(
        _ZERO_CHANNEL_CLUTTER,
        st.builds(
            lambda depth, width: ("clutter_notch",
                                  {"level": 1.0, "notch_depth": depth, "notch_width": width}),
            st.floats(0.0, 0.99),
            st.floats(0.1, 5.0),
        ),
    ),
)


def _fuzz_config(tmp, duration, wt, clutter, **overrides):
    clutter_kind, clutter_params = clutter
    out = Path(tmp) / "out"
    cfg = smoke_config(
        out,
        band_width=wt / duration,
        duration=duration,
        clutter_kind=clutter_kind,
        clutter_params=clutter_params,
        **overrides,
    )
    path = Path(tmp) / "cfg.yaml"
    dump_config(cfg, path)
    return out, path


@settings(max_examples=150, deadline=None, derandomize=True)
@given(k_harmonics=st.integers(1, 3), **_FUZZ_SCENES)
def test_fit_fuzz_finite_or_config_error(k_harmonics, log_energy, duration, wt, clutter):
    # one start of a small-K fit: either every output is finite, or
    # exit 2 and nothing is written
    with tempfile.TemporaryDirectory() as tmp:
        out, path = _fuzz_config(
            tmp, duration, wt, clutter,
            energy_list=(10.0**log_energy,), k_harmonics=k_harmonics, n_starts=1,
        )
        code = main(["fit", "--config", str(path)])
        assert code in (EXIT_OK, EXIT_CONFIG)
        if code == EXIT_CONFIG:
            assert not out.exists()
            return
        json.loads((out / "summary.json").read_text(), parse_constant=_reject_constant)
        _assert_finite_cells(_csv_rows(out / "esd_table.csv"))
        (fit_csv,) = out.glob("fit_E*.csv")
        _assert_finite_cells(_csv_rows(fit_csv), text_columns=("optimizer_status",))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(trials=st.integers(900, 2000), **_FUZZ_SCENES)
def test_roc_fuzz_finite_or_config_error(trials, log_energy, duration, wt, clutter):
    # the energy comes through the --energy override, which bypasses the
    # config's energy_list checks
    with tempfile.TemporaryDirectory() as tmp:
        out, path = _fuzz_config(tmp, duration, wt, clutter)
        # the drawn count goes into the YAML as it is, so that the config
        # loader, not this test, meets the counts below 1000
        text = path.read_text()
        assert "trials: 2000\n" in text
        path.write_text(text.replace("trials: 2000\n", f"trials: {trials}\n"))
        code = main(["roc", "--config", str(path), "--energy", repr(10.0**log_energy)])
        assert code in (EXIT_OK, EXIT_CONFIG)
        if code == EXIT_CONFIG:
            assert not out.exists()
            return
        _assert_finite_cells(_csv_rows(out / "roc.csv"))


# run in a fresh interpreter, since this test process has imported scipy;
# the last stdout line lists the scipy modules loaded
_SCIPY_CHECK = """
import sys
import miwave.cli
if sys.argv[1:]:
    assert miwave.cli.main(sys.argv[1:]) == 0
print(" ".join(m for m in ("scipy", "scipy.optimize") if m in sys.modules))
"""


@pytest.mark.parametrize(
    "command",
    [[], ["design"], ["roc", "--trials", "1000"], ["fit", "--starts", "1"]],
    ids=["import", "design", "roc", "fit"],
)
def test_no_command_imports_scipy(tmp_path, command):
    argv = []
    if command:
        config = CONFIG_DIR / "clutter_notch.yaml"
        argv = [command[0], "--config", str(config), "--out", str(tmp_path), *command[1:]]
    src = str(Path(miwave.experiment.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_CHECK, *argv],
        capture_output=True, text=True, env=env, check=True,
    )
    assert proc.stdout.splitlines()[-1] == ""


def test_clamp_warning_names_no_source_file(tmp_path):
    # stderr logs are compared byte for byte across versions, so the clamp
    # warning must not carry the file and line of the code that called it
    config = load_config(CONFIG_DIR / "clutter_peak.yaml")
    path = tmp_path / "clamp.yaml"
    config = dataclasses.replace(config, energy_list=(8.0,), out_dir=str(tmp_path / "out"))
    dump_config(config, path)
    src = str(Path(miwave.experiment.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "miwave.cli", "design", "--config", str(path)],
        capture_output=True, text=True, env=env, check=True,
    )
    assert "clamping the comparator" in proc.stderr
    assert ".py" not in proc.stderr, proc.stderr
