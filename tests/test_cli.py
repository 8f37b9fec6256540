import csv
import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import drycss
import drycss.cli as cli
from drycss import opportunity
from drycss.bundles import load_model_bundle, save_model_bundle
from drycss.errors import DataError, NumericalError, read_json
from drycss.grid import (SLAB_STEPS, VARIABLES, ClimateCube, GridSpec, TimeAxis,
                         content_digest, load_cube, load_grids, load_ndvi, save_cube,
                         save_grids, series_products, sha256_file)
from drycss.neural import ClassifierModel, DenseLayer, DenseNet, build_classifier
from drycss.opportunity import find_analog
from drycss.pipeline import (Calibration, EnsembleScorer, LabeledSample, load_samples,
                             save_samples)
from helpers import pixel_series, reference_series_products, rfft_ensemble_scores
from test_desk import pixel_vectors


class TestPgm:
    def read(self, path):
        data = path.read_bytes()
        header, rest = data.split(b"255\n", 1)
        magic, dims = header.decode().split("\n")[:2]
        w, h = map(int, dims.split())
        return magic, np.frombuffer(rest, dtype=np.uint8).reshape(h, w)

    def test_full_range_mapping(self, tmp_path):
        vals = np.array([[0.0, 0.5], [1.0, 0.25]])
        cli.write_pgm(tmp_path / "a.pgm", vals)
        magic, img = self.read(tmp_path / "a.pgm")
        assert magic == "P5"
        assert img[0, 0] == 0 and img[1, 0] == 255
        assert img[0, 1] == 128  # 0.5 of range, rounded

    def test_nan_black_constant_gray(self, tmp_path):
        cli.write_pgm(tmp_path / "a.pgm", np.array([[np.nan, 0.7], [0.7, 0.7]]))
        _, img = self.read(tmp_path / "a.pgm")
        assert img[0, 0] == 0
        assert img[0, 1] == img[1, 1] == 128

    def test_all_nan(self, tmp_path):
        cli.write_pgm(tmp_path / "a.pgm", np.full((2, 2), np.nan))
        _, img = self.read(tmp_path / "a.pgm")
        assert (img == 0).all()


class TestConfigPlumbing:
    def test_int_list(self):
        assert cli._int_list("2, 4,8") == (2, 4, 8)
        assert cli._int_list([2, 4]) == (2, 4)
        with pytest.raises(ValueError):
            cli._int_list("")

    def test_cfg_precedence(self):
        def count(flag, config):
            return cli._resolve(SimpleNamespace(count=flag), config, "candidates")["count"]

        config = {"candidates": {"count": 3}, "count": 2}
        assert count(7, config) == 7
        assert count(None, config) == 3
        assert count(None, {"count": 2}) == 2
        assert count(None, {}) == opportunity.DEFAULT_CANDIDATE_COUNT

    def test_cfg_cast_and_check(self):
        args = SimpleNamespace(count=None)
        with pytest.raises(cli.UsageError, match="bad value"):
            cli._resolve(args, {"count": "soon"}, "candidates")
        with pytest.raises(cli.UsageError, match="out of range"):
            cli._resolve(args, {"count": 0}, "candidates")
        for value in (float("inf"), float("nan"), -1):  # fit_blup takes a positive number
            with pytest.raises(cli.UsageError, match="out of range"):
                cli._resolve(args, {"blup_lambda": value}, "train")

    def test_jobs_resolution(self, monkeypatch):
        def jobs(flag, config):
            return cli._resolve(SimpleNamespace(jobs=flag), config, "train")["jobs"]

        monkeypatch.delenv("DRYCSS_JOBS", raising=False)
        assert jobs(4, {}) == 4
        assert jobs(None, {"train": {"jobs": 2}}) == 2
        assert jobs(None, {"jobs": 3}) == 3
        assert jobs(None, {}) == 1
        monkeypatch.setenv("DRYCSS_JOBS", "5")
        assert jobs(None, {}) == 5
        monkeypatch.setenv("DRYCSS_JOBS", "many")
        with pytest.raises(cli.UsageError, match="integer"):
            jobs(None, {})
        monkeypatch.setenv("DRYCSS_JOBS", "0")
        with pytest.raises(cli.UsageError, match="at least 1"):
            jobs(None, {})

    def test_help_prints_each_default(self, capsys):
        for stage, row in cli.STAGES.items():
            with pytest.raises(SystemExit) as exc:
                cli.main([stage, "--help"])
            assert exc.value.code == 0
            text = " ".join(capsys.readouterr().out.split())
            for opt in row.options:
                assert "--" + opt.key.replace("_", "-") in text
                if opt.default is None:
                    continue
                shown = (",".join(str(v) for v in opt.default)
                         if isinstance(opt.default, tuple) else str(opt.default))
                assert f"{shown})" in text, (stage, opt.key)

    def test_load_config_errors(self, tmp_path):
        with pytest.raises(cli.UsageError, match="not found"):
            cli._load_config(str(tmp_path / "nope.json"))
        p = tmp_path / "c.json"
        p.write_text("[1, 2]")
        with pytest.raises(cli.UsageError, match="object"):
            cli._load_config(str(p))
        p.write_text("{bad")
        with pytest.raises(cli.UsageError, match="JSON"):
            cli._load_config(str(p))

    @pytest.mark.parametrize("config", [{"synth": ["grid_size", 12]}, {"train": 5}],
                             ids=["own-section", "other-section"])
    def test_config_section_not_an_object_is_1(self, tmp_path, capsys, config):
        """A stage section that is not an object used to be ignored
        without a word, and synth built the default world."""
        p = tmp_path / "c.json"
        p.write_text(json.dumps(config))
        ws = tmp_path / "ws"
        assert cli.main(["synth", "--out", str(ws), "--config", str(p)] + SYNTH_FLAGS) == 1
        section = next(iter(config))
        assert f"config section {section!r} in {p}" in capsys.readouterr().err
        assert not ws.exists()

    def test_config_that_is_a_directory_or_not_utf8_is_1(self, tmp_path, capsys):
        """Both used to end in a traceback (IsADirectoryError, UnicodeDecodeError)."""
        (tmp_path / "bad.json").write_bytes(b"\xff\xfe{")
        for name, says in (("", "not found"), ("bad.json", "not valid JSON")):
            argv = ["synth", "--out", str(tmp_path / "ws"), "--config", str(tmp_path / name)]
            assert cli.main(argv) == 1
            assert says in capsys.readouterr().err

    @pytest.mark.parametrize("config, key", [
        ({"train": {"epoch": 5}}, "'epoch' in section 'train'"),
        ({"sed": 3}, "'sed'"),
        ({"features": {"seed": 3}}, "'seed' in section 'features'"),
    ], ids=["section-typo", "top-level-typo", "option-of-another-stage"])
    def test_unknown_config_key_is_1(self, tmp_path, capsys, config, key):
        """A key no stage reads used to be ignored without a word: the
        run trained 1,000 epochs, or used seed 0."""
        p = tmp_path / "c.json"
        p.write_text(json.dumps(config))
        ws = tmp_path / "ws"
        assert cli.main(["synth", "--out", str(ws), "--config", str(p)] + SYNTH_FLAGS) == 1
        err = capsys.readouterr().err
        assert f"unknown config key {key}" in err and str(p) in err
        assert not ws.exists()

    @pytest.mark.parametrize("stage, key, value", [
        ("train", "epochs", None), ("train", "epochs", 2.9), ("train", "epochs", True),
        ("train", "epochs", "5"), ("train", "blup_sizes", [2.7]),
        ("train", "blup_sizes", [2, True]), ("train", "learning_rate", True),
        ("train", "blup_lambda", False), ("predict", "jobs", None),
        ("candidates", "min_spacing_km", None), ("candidates", "min_spacing_km", "9"),
        ("train", "blup_lambda", "0.5"), ("train", "learning_rate", "0.01"),
        ("candidates", "rules", 5), ("train", "blup_sizes", "2,4"), ("train", "blup_sizes", []),
    ])
    def test_config_value_is_cast_as_strictly_as_json(self, tmp_path, capsys, stage, key,
                                                       value):
        """A null used to skip the cast and end in a TypeError, and 2.9,
        true and [2.7] were truncated to 2, 1 and (2,); a numeric string was
        taken as a number, a number as a string, and [] ended in a traceback.
        Config values go through the readers of workspace JSON."""
        p = tmp_path / "c.json"
        p.write_text(json.dumps({stage: {key: value}}))
        assert cli.main([stage, "--out", str(tmp_path / "ws"), "--config", str(p)]) == 1
        assert f"bad value for {stage}.{key}: {value!r}" in capsys.readouterr().err

    def test_config_null_leaves_an_option_without_default_unset(self, monkeypatch):
        monkeypatch.setenv("DRYCSS_JOBS", "3")
        config = {"analogs": {"max_climate_distance": None}, "exclude": None,
                  "train": {"jobs": 2, "epochs": 4}}
        assert cli._resolve(SimpleNamespace(), config, "analogs")["max_climate_distance"] is None
        assert cli._resolve(SimpleNamespace(), config, "analogs")["exclude"] is None
        opts = cli._resolve(SimpleNamespace(epochs="7"), config, "train")
        assert (opts["jobs"], opts["epochs"]) == (2, 7)  # flags still parse strings


SYNTH_FLAGS = ["--grid-size", "12", "--steps", "64", "--counts", "8,8,3,3",
               "--seed", "3"]
TRAIN_FLAGS = ["--blup-sizes", "2", "--nn-sizes", "4", "--repetitions", "1",
               "--epochs", "5"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One tiny end-to-end CLI run shared by the stage assertions."""
    ws = tmp_path_factory.mktemp("ws")
    stages = [
        ["synth", "--out", str(ws)] + SYNTH_FLAGS,
        ["features", "--out", str(ws)],
        ["train", "--out", str(ws)] + TRAIN_FLAGS,
        ["predict", "--out", str(ws)],
        ["calibrate", "--out", str(ws)],
        ["opportunity", "--out", str(ws)],
        ["candidates", "--out", str(ws), "--count", "5"],
        ["analogs", "--out", str(ws)],
        ["report", "--out", str(ws)],
    ]
    for argv in stages:
        code = cli.main(argv)
        assert code == 0, f"stage {argv[0]} exited {code}"
    return ws


class TestChain:
    def test_artifacts_exist(self, workspace):
        for rel in ("cube/meta.json", "ndvi/meta.json", "samples.csv",
                    "features/d2m.f32", "features/tp.f32", "runs/metrics.csv",
                    "runs/blup_2_0/model.json", "runs/nn_4_0/model.json",
                    "maps/css/combined.f32", "calibration.json",
                    "reclassification.csv", "maps/opportunity/opportunity.f32",
                    "candidates.csv", "analogs.csv", "uplift.json",
                    "report/css_combined.pgm", "report/iou.json",
                    "report/metrics.csv", "report/rankings.csv"):
            assert (workspace / rel).exists(), rel

    def test_every_file_is_a_document_an_image_or_a_listed_array(self, workspace):
        """The workspace holds JSON, CSV, PGM and raw float32 only, and every
        .f32 outside runs/ is one its directory's meta.json lists, in the
        order of the digest recorded there."""
        listed = {"drycss-cube": lambda m: m["variables"] + ["mask"],
                  "drycss-ndvi": lambda m: [f"{y}_{d}" for y, d in m["observations"]],
                  "drycss-grids": lambda m: m["names"],
                  "drycss-features": lambda m: m["variables"]}
        files = sorted(p.relative_to(workspace) for p in workspace.rglob("*") if p.is_file())
        assert [rel for rel in files
                if rel.suffix not in (".json", ".csv", ".pgm", ".f32")] == []
        dirs = {rel.parent for rel in files if rel.suffix == ".f32" and rel.parts[0] != "runs"}
        assert {d.as_posix() for d in dirs} >= {"cube", "ndvi", "truth", "features", "maps/css"}
        for d in dirs:
            meta = json.loads((workspace / d / "meta.json").read_text())
            names = [f"{name}.f32" for name in listed[meta["format"]](meta)]
            assert sorted(names) == sorted(rel.name for rel in files
                                           if rel.parent == d and rel.suffix == ".f32"), d
            assert meta["digest"] == content_digest(workspace / d, names), d

    def test_manifest_records_every_stage(self, workspace):
        doc = json.loads((workspace / "manifest.json").read_text())
        assert set(doc["stages"]) == {"synth", "features", "train", "predict",
                                      "calibrate", "opportunity", "candidates",
                                      "analogs", "report"}
        synth = doc["stages"]["synth"]
        assert synth["config"]["grid_size"] == 12
        assert synth["artifacts"] == ["cube", "ndvi", "samples.csv", "truth"]
        assert "completed_utc" in synth

    def test_samples_match_requested_counts(self, workspace):
        from drycss.pipeline import load_samples
        samples = load_samples(workspace / "samples.csv")
        by_cat = {}
        for s in samples:
            by_cat[s.category] = by_cat.get(s.category, 0) + 1
        assert by_cat == {"HiSuit-HiVeg": 8, "LoSuit-LoVeg": 8,
                         "LoSuit-HiVeg": 3, "HiSuit-LoVeg": 3}

    def test_metrics_table_covers_grid(self, workspace):
        with open(workspace / "runs" / "metrics.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert [(r["kind"], r["size"]) for r in rows] == [("blup", "2"),
                                                          ("nn", "4")]
        assert all(float(r["val_rmse_mean"]) >= 0 for r in rows)

    def test_candidates_table(self, workspace):
        with open(workspace / "candidates.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert 1 <= len(rows) <= 5
        assert [int(r["rank"]) for r in rows] == list(range(1, len(rows) + 1))
        opp = [float(r["opportunity"]) for r in rows]
        assert opp == sorted(opp, reverse=True)
        assert all(o > 0 for o in opp)
        assert all(r["retained"] == "" for r in rows)  # no filtering requested

    def test_rerun_without_force_refuses(self, workspace, capsys):
        code = cli.main(["synth", "--out", str(workspace)] + SYNTH_FLAGS)
        assert code == 2
        assert "already exists" in capsys.readouterr().err

    def test_rerun_predict_with_force(self, workspace):
        before = (workspace / "maps" / "css" / "combined.f32").read_bytes()
        code = cli.main(["predict", "--out", str(workspace), "--force"])
        assert code == 0
        after = (workspace / "maps" / "css" / "combined.f32").read_bytes()
        assert before == after


def copy_workspace(workspace, tmp_path):
    ws = tmp_path / "ws"
    shutil.copytree(workspace, ws)
    return ws


def run(ws, stage, *tail):
    return cli.main([stage, "--out", str(ws), "--force", *tail])


class TestStageGraph:
    def test_table_is_an_upstream_first_graph(self):
        """Every need and optional read is made by its named producer, and
        every producer comes before its consumers in STAGES, so the graph is
        acyclic and table order is upstream first."""
        order = list(cli.STAGES)
        for name, row in cli.STAGES.items():
            for rel, producer in {**row.needs, **row.reads}.items():
                made = cli.STAGES[producer].makes  # runs/metrics.csv is under runs
                assert any(rel == m or rel.startswith(m + "/") for m in made), (name, rel)
                assert order.index(producer) < order.index(name), (name, producer)
        assert [n for n, row in cli.STAGES.items() if not row.needs] == ["synth"]

    def test_cube_swap_refuses_downstream(self, workspace, tmp_path, capsys):
        ws = copy_workspace(workspace, tmp_path)
        samples = (ws / "samples.csv").read_bytes()
        assert run(ws, "synth", *SYNTH_FLAGS[:-1], "4") == 0
        for stage in ("predict", "analogs"):
            assert run(ws, stage) == 2
            assert "rerun `drycss features`" in capsys.readouterr().err
        (ws / "samples.csv").write_bytes(samples)  # only the cube differs now
        assert run(ws, "predict") == 2
        err = capsys.readouterr().err
        assert "cube/meta.json changed" in err and "rerun `drycss features`" in err

    def test_calibration_from_other_models_is_refused(self, workspace, tmp_path, capsys):
        ws = copy_workspace(workspace, tmp_path)
        assert run(ws, "train", *TRAIN_FLAGS, "--seed", "1") == 0
        assert run(ws, "predict") == 0
        assert run(ws, "opportunity") == 2
        err = capsys.readouterr().err
        assert "maps/css/meta.json changed" in err and "rerun `drycss calibrate`" in err

    def test_calibration_needs_the_current_map(self, workspace, tmp_path, capsys):
        """calibrate reads the samples' scores from maps/css, so new models
        without a new map are refused as a stale map, not scored afresh."""
        ws = copy_workspace(workspace, tmp_path)
        assert run(ws, "train", *TRAIN_FLAGS, "--seed", "1") == 0
        assert run(ws, "calibrate") == 2
        err = capsys.readouterr().err
        assert "runs/meta.json changed" in err and "rerun `drycss predict`" in err
        assert "Traceback" not in err
        assert run(ws, "predict") == 0
        assert run(ws, "calibrate") == 0

    def test_changed_candidates_input_is_refused(self, workspace, tmp_path, capsys):
        ws = copy_workspace(workspace, tmp_path)
        assert run(ws, "opportunity", "--years", "2020") == 0
        assert run(ws, "analogs") == 2
        err = capsys.readouterr().err
        assert "maps/opportunity/meta.json changed" in err
        assert "rerun `drycss candidates`" in err

    def test_identical_rewrite_keeps_downstream_current(self, workspace, tmp_path):
        ws = copy_workspace(workspace, tmp_path)
        assert run(ws, "predict") == 0
        for stage in ("analogs", "opportunity", "candidates", "analogs"):
            assert run(ws, stage) == 0, stage

    def test_force_clears_output_directories(self, workspace, tmp_path):
        ws = copy_workspace(workspace, tmp_path)
        assert run(ws, "train", "--blup-sizes", "2", "--nn-sizes", "8",
                   "--repetitions", "1", "--epochs", "5") == 0
        assert sorted(p.name for p in (ws / "runs").iterdir() if p.is_dir()) == \
            ["blup_2_0", "nn_8_0"]

    def test_failed_force_run_leaves_no_outputs_or_record(self, workspace, tmp_path):
        ws = copy_workspace(workspace, tmp_path)
        assert run(ws, "analogs", "--channels", "9999") == 1
        for rel in cli.STAGES["analogs"].makes:
            assert not (ws / rel).exists(), rel
        assert "analogs" not in json.loads((ws / "manifest.json").read_text())["stages"]
        assert cli.main(["analogs", "--out", str(ws)]) == 0

    def test_hand_supplied_inputs_need_no_record(self, workspace, tmp_path):
        ws = tmp_path / "ws"
        for rel in ("cube", "ndvi"):
            shutil.copytree(workspace / rel, ws / rel)
        shutil.copy(workspace / "samples.csv", ws / "samples.csv")
        assert run(ws, "features") == 0
        assert run(ws, "train", *TRAIN_FLAGS) == 0

    def test_report_refuses_stale_optional_inputs(self, workspace, tmp_path, capsys):
        """New CSS maps beside the opportunity maps and reclassification
        scores of the old models: report names the first stage to rerun."""
        ws = copy_workspace(workspace, tmp_path)
        assert run(ws, "train", *TRAIN_FLAGS, "--seed", "5") == 0
        assert run(ws, "predict") == 0
        assert run(ws, "report") == 2
        err = capsys.readouterr().err
        assert "maps/css/meta.json changed" in err and "rerun `drycss calibrate`" in err

    def test_report_after_predict_stamps_what_it_found(self, workspace, tmp_path):
        ws = copy_workspace(workspace, tmp_path)
        manifest = json.loads((ws / "manifest.json").read_text())
        for stage in ("calibrate", "opportunity", "candidates", "analogs", "report"):
            del manifest["stages"][stage]
            for rel in cli.STAGES[stage].makes:
                (shutil.rmtree if (ws / rel).is_dir() else os.remove)(ws / rel)
        (ws / "manifest.json").write_text(json.dumps(manifest))
        assert run(ws, "report") == 0
        manifest = json.loads((ws / "manifest.json").read_text())
        assert sorted(manifest["stages"]["report"]["inputs"]) == ["maps/css",
                                                                 "runs/metrics.csv"]
        assert not (ws / "report" / "rankings.csv").exists()

    def test_missing_upstream_record_is_refused(self, workspace, tmp_path, capsys):
        ws = copy_workspace(workspace, tmp_path)
        manifest = json.loads((ws / "manifest.json").read_text())
        del manifest["stages"]["train"]
        (ws / "manifest.json").write_text(json.dumps(manifest))
        assert run(ws, "predict") == 2
        err = capsys.readouterr().err
        assert "recorded no hash" in err and "rerun `drycss train`" in err


class TestExitCodes:
    def test_missing_input_is_2(self, tmp_path, capsys):
        code = cli.main(["features", "--out", str(tmp_path)])
        assert code == 2
        assert "drycss synth" in capsys.readouterr().err

    def test_bad_flag_value_is_1(self, tmp_path, capsys):
        code = cli.main(["synth", "--out", str(tmp_path), "--grid-size", "3"])
        assert code == 1
        assert "out of range" in capsys.readouterr().err

    def test_unknown_stage_is_1(self, capsys):
        code = cli.main(["transmogrify", "--out", "x"])
        assert code == 1

    def test_no_command_prints_help(self, capsys):
        assert cli.main([]) == 1
        assert "stage" in capsys.readouterr().out

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0

    def test_module_entry_point(self):
        src = str(Path(drycss.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-m", "drycss", "--help"],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert "usage: drycss" in done.stdout and "analogs" in done.stdout

    def test_numerical_failure_is_3(self, tmp_path, monkeypatch, capsys):
        ws = tmp_path / "ws"
        assert cli.main(["synth", "--out", str(ws)] + SYNTH_FLAGS) == 0
        assert cli.main(["features", "--out", str(ws)]) == 0

        def boom(*a, **kw):
            raise NumericalError("training diverged", epoch=3)

        monkeypatch.setattr(cli, "run_training_grid", boom)
        code = cli.main(["train", "--out", str(ws)] + TRAIN_FLAGS)
        assert code == 3
        assert "numerical error" in capsys.readouterr().err

    def test_missing_config_file_is_1(self, tmp_path, capsys):
        code = cli.main(["synth", "--out", str(tmp_path),
                         "--config", str(tmp_path / "no.json")])
        assert code == 1

    @pytest.mark.parametrize("stage, rel", [("opportunity", "maps/css/meta.json"),
                                            ("calibrate", "features/meta.json")])
    def test_truncated_metadata_is_2(self, workspace, tmp_path, capsys, stage, rel):
        ws = copy_workspace(workspace, tmp_path)
        meta = ws / rel
        meta.write_text(meta.read_text()[:20])
        assert cli.main([stage, "--out", str(ws), "--force"]) == 2
        assert "corrupt" in capsys.readouterr().err

    @pytest.mark.parametrize("stage, rel, key",
                             [("calibrate", "maps/css/meta.json", "grid"),
                              ("train", "features/meta.json", "variables")])
    def test_metadata_without_entry_is_2(self, workspace, tmp_path, capsys,
                                         stage, rel, key):
        ws = copy_workspace(workspace, tmp_path)
        meta = json.loads((ws / rel).read_text())
        del meta[key]
        (ws / rel).write_text(json.dumps(meta))
        argv = [stage, "--out", str(ws), "--force"]
        assert cli.main(argv + (TRAIN_FLAGS if stage == "train" else [])) == 2
        assert repr(key) in capsys.readouterr().err

    def test_stale_feature_cache_is_2(self, workspace, tmp_path, capsys):
        ws = copy_workspace(workspace, tmp_path)
        other_seed = SYNTH_FLAGS[:-1] + ["4"]
        assert cli.main(["synth", "--out", str(ws), "--force"] + other_seed) == 0
        for stage in ("train", "calibrate"):
            argv = [stage, "--out", str(ws), "--force"]
            assert cli.main(argv + (TRAIN_FLAGS if stage == "train" else [])) == 2
            err = capsys.readouterr().err
            assert "samples.csv changed" in err and "rerun `drycss features`" in err
        assert cli.main(["features", "--out", str(ws), "--force"]) == 0
        assert cli.main(["train", "--out", str(ws), "--force"] + TRAIN_FLAGS) == 0

    def test_stale_model_bundles_are_2(self, workspace, tmp_path, capsys):
        ws = copy_workspace(workspace, tmp_path)
        other_seed = SYNTH_FLAGS[:-1] + ["4"]
        assert cli.main(["synth", "--out", str(ws), "--force"] + other_seed) == 0
        assert cli.main(["features", "--out", str(ws), "--force"]) == 0
        for stage in ("predict", "calibrate"):
            assert cli.main([stage, "--out", str(ws), "--force"]) == 2
            err = capsys.readouterr().err
            assert "features/meta.json changed" in err and "rerun `drycss train`" in err
        manifest = json.loads((ws / "manifest.json").read_text())
        del manifest["stages"]["train"]["inputs"]  # bundles trained before hashes
        (ws / "manifest.json").write_text(json.dumps(manifest))
        assert cli.main(["predict", "--out", str(ws), "--force"]) == 2
        err = capsys.readouterr().err
        assert "recorded no hash" in err and "rerun `drycss train`" in err
        assert cli.main(["train", "--out", str(ws), "--force"] + TRAIN_FLAGS) == 0
        for stage in ("predict", "calibrate"):
            assert cli.main([stage, "--out", str(ws), "--force"]) == 0

    def test_version_1_model_bundle_is_2(self, workspace, tmp_path, capsys):
        """Version 1 also held the decoder; version 2 stored each size
        beside the arrays that give it."""
        ws = copy_workspace(workspace, tmp_path)
        path = ws / "runs" / "nn_4_0" / "model.json"
        doc = json.loads(path.read_text())
        for version in (1, 2):
            doc["version"] = version
            path.write_text(json.dumps(doc))
            assert cli.main(["predict", "--out", str(ws), "--force"]) == 2
            assert "unsupported model bundle format/version" in capsys.readouterr().err

    @pytest.mark.parametrize("stage, rel, change", [
        ("features", "cube/meta.json", lambda m: m["grid"].update(n_lat="abc")),
        ("features", "cube/meta.json", lambda m: m.update(time=[1, 2])),
        ("opportunity", "ndvi/meta.json", lambda m: m["observations"][0].pop()),
    ], ids=["grid-not-a-number", "time-a-list", "observation-without-doy"])
    def test_malformed_directory_metadata_is_2(self, workspace, tmp_path, capsys,
                                               stage, rel, change):
        ws = copy_workspace(workspace, tmp_path)
        meta = json.loads((ws / rel).read_text())
        change(meta)
        (ws / rel).write_text(json.dumps(meta))
        assert run(ws, stage) == 2
        err = capsys.readouterr().err
        assert "malformed" in err and rel in err

    @pytest.mark.parametrize("stage, rel", [
        ("features", "cube/meta.json"), ("opportunity", "ndvi/meta.json"),
        ("calibrate", "maps/css/meta.json"), ("train", "features/meta.json")])
    def test_directory_metadata_of_another_version_is_2(self, workspace, tmp_path, capsys,
                                                        stage, rel):
        """read_meta used to read no version, so a version 2 loaded as 1."""
        ws = copy_workspace(workspace, tmp_path)
        meta = json.loads((ws / rel).read_text())
        meta["version"] = 2
        (ws / rel).write_text(json.dumps(meta))
        assert run(ws, stage, *(TRAIN_FLAGS if stage == "train" else [])) == 2
        err = capsys.readouterr().err
        assert f"{ws / rel} is not " in err and "metadata of version 1" in err

    @pytest.mark.parametrize("stage, rel", [("features", "cube/t2m.f32"),
                                            ("predict", "cube/t2m.f32"),
                                            ("opportunity", "ndvi/2020_100.f32")])
    def test_damaged_data_file_is_2(self, workspace, tmp_path, capsys, stage, rel):
        """An empty file, a partial value and a directory in a data
        file's place each exit 2 naming the file; they used to end in
        a ValueError or IsADirectoryError traceback."""
        ws = copy_workspace(workspace, tmp_path)
        path = ws / rel
        intact = path.read_bytes()
        for damage in (lambda: path.write_bytes(b""), lambda: path.write_bytes(b"12345"),
                       lambda: (path.unlink(), path.mkdir())):
            damage()
            assert run(ws, stage) == 2
            assert f"{path}: file holds" in capsys.readouterr().err
            if path.is_dir():
                path.rmdir()
            path.write_bytes(intact)
        assert run(ws, stage) == 0

    def test_damaged_stored_mask_is_2(self, workspace, tmp_path, capsys):
        """A stored mask that is missing, of the wrong size or holding a
        value other than 0 and 1 makes `predict` exit 2 naming it."""
        ws = copy_workspace(workspace, tmp_path)
        path = ws / "cube" / "mask.f32"
        intact = path.read_bytes()
        half = np.fromfile(path, dtype="<f4")
        half[7] = 0.5
        for damage, message in ((path.unlink, "missing data file mask.f32"),
                                (lambda: path.write_bytes(intact[:-4]), f"{path}: file holds"),
                                (lambda: half.tofile(path), f"{path} holds values other than")):
            damage()
            assert run(ws, "predict") == 2
            err = capsys.readouterr().err
            assert message in err and "Traceback" not in err
            path.write_bytes(intact)
        assert run(ws, "predict") == 0

    def test_nan_at_a_valid_pixel_is_2(self, workspace, tmp_path, capsys):
        """A load reads the stored mask and scans no value, so a NaN written
        into one variable file at a valid pixel (a sample's) is refused
        where it is read: by the slab reader of `analogs` and `predict`
        and by the gather of `features`, which has saved the first 20
        variables' files when it meets tp. None of them leaves an output."""
        ws = copy_workspace(workspace, tmp_path)
        cube = load_cube(ws / "cube")
        s = load_samples(ws / "samples.csv")[0]
        assert cube.mask[s.iy, s.ix]
        path = ws / "cube" / "tp.f32"
        values = np.fromfile(path, dtype="<f4").reshape(cube.values["tp"].shape)
        values[9, s.iy, s.ix] = np.nan
        values.tofile(path)
        for stage in ("analogs", "predict", "features"):
            assert run(ws, stage) == 2, stage
            err = capsys.readouterr().err
            assert "variable tp" in err and "rerun `drycss synth`" in err, stage
            assert "Traceback" not in err
            assert [rel for rel in cli.STAGES[stage].makes if (ws / rel).exists()] == []
        assert not (ws / "features").exists()

    def test_failed_stage_leaves_none_of_its_outputs(self, workspace, tmp_path, capsys):
        """report writes its CSS heatmaps before it reads maps/opportunity,
        so a cut opportunity.f32 fails it after it wrote some; they go with
        the failure, and once the file is mended report runs without --force."""
        ws = copy_workspace(workspace, tmp_path)
        path = ws / "maps" / "opportunity" / "opportunity.f32"
        intact = path.read_bytes()
        path.write_bytes(intact[:100])
        assert run(ws, "report") == 2
        assert f"{path}: file holds 25 values" in capsys.readouterr().err
        assert not (ws / "report").exists()
        path.write_bytes(intact)
        assert cli.main(["report", "--out", str(ws)]) == 0
        assert sorted(p.name for p in (ws / "report").iterdir()) == \
            sorted(p.name for p in (workspace / "report").iterdir())

    @pytest.mark.parametrize("damage", ["nan", "cut"])
    def test_css_map_without_a_finite_sample_score_is_2(self, workspace, tmp_path, capsys,
                                                        damage):
        """calibrate reads the samples' scores from maps/css. A NaN written
        into combined.f32 at a sample's pixel, or a set cut to fewer rows
        than the cube, which leaves the northernmost sample off the map,
        exits 2 naming the sample."""
        ws = copy_workspace(workspace, tmp_path)
        path, samples = ws / "maps" / "css", load_samples(ws / "samples.csv")
        if damage == "nan":
            s = samples[0]
            values = np.fromfile(path / "combined.f32", dtype="<f4")
            values[s.iy * 12 + s.ix] = np.nan
            values.tofile(path / "combined.f32")
        else:
            s = max(samples, key=lambda s: s.iy)
            spec, grids = load_grids(path)
            cut = dataclasses.replace(spec, n_lat=s.iy,
                                      lat_max=spec.lat_min + (s.iy - 1) * spec.dlat)
            shutil.rmtree(path)
            save_grids(path, cut, {name: grid[:s.iy] for name, grid in grids.items()})
        assert run(ws, "calibrate") == 2
        err = capsys.readouterr().err
        assert f"{path} holds no finite score of sample {s.site_id} at node " \
               f"({s.iy}, {s.ix}); rerun `drycss predict`" in err and "Traceback" not in err

    @pytest.mark.parametrize("name", ["../ndvi/2020_100", "mask"], ids=["path", "reserved"])
    def test_variable_not_a_file_stem_is_2(self, workspace, tmp_path, capsys, name):
        """A cube's variable codes name its files: a path, or the stored
        mask's reserved stem, in cube/meta.json is refused before any
        file is opened by that name."""
        ws = copy_workspace(workspace, tmp_path)
        meta_path = ws / "cube" / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["variables"][3] = name
        meta_path.write_text(json.dumps(meta))
        assert run(ws, "features") == 2
        err = capsys.readouterr().err
        assert f"bad variable name {name!r}" in err and "Traceback" not in err

    @staticmethod
    def cut_to_one_bin(doc):
        doc.update({key: [row[:1] for row in doc[key]] for key in
                    ("bins", "mean_re", "std_re", "mean_im", "std_im")})

    @pytest.mark.parametrize("run_id, change, message", [
        ("blup_2_0", cut_to_one_bin, "weights.f32: file holds 92 values, expected 46 "),
        ("nn_4_0", cut_to_one_bin, "do not chain from the 46 features"),
        ("nn_4_0", lambda doc: doc["bins"][0].__setitem__(0, doc["bins"][0][0] + 0.9),
         "bad or missing bins: 0.9 is not an integer"),
    ], ids=["blup-weights", "encoder-width", "fractional-bin"])
    def test_bundle_disagreeing_with_its_feature_tables_is_2(
            self, workspace, tmp_path, capsys, run_id, change, message):
        ws = copy_workspace(workspace, tmp_path)
        path = ws / "runs" / run_id / "features.json"
        doc = json.loads(path.read_text())
        change(doc)
        path.write_text(json.dumps(doc))
        assert run(ws, "predict") == 2
        assert message in capsys.readouterr().err

    def test_classifier_not_taking_the_codes_is_2(self, workspace, tmp_path, capsys):
        ws = copy_workspace(workspace, tmp_path)
        bundle = ws / "runs" / "nn_4_0"
        model = load_model_bundle(bundle)
        model.classifier = ClassifierModel(build_classifier(5, np.random.default_rng(0)))
        shutil.rmtree(bundle)
        save_model_bundle(model, bundle)
        assert run(ws, "predict") == 2
        assert "do not chain" in capsys.readouterr().err

    def test_classifier_of_two_outputs_is_2(self, workspace, tmp_path, capsys):
        """Scoring reads one output; a head that makes two is refused,
        not read at its first column."""
        ws = copy_workspace(workspace, tmp_path)
        bundle = ws / "runs" / "nn_4_0"
        model = load_model_bundle(bundle)
        layers = build_classifier(4, np.random.default_rng(0)).layers[:-1]
        model.classifier = ClassifierModel(DenseNet(
            layers + [DenseLayer(32, 2, "linear", batch_norm=False)]))
        shutil.rmtree(bundle)
        save_model_bundle(model, bundle)
        assert run(ws, "predict") == 2
        assert "to one output" in capsys.readouterr().err

    @pytest.mark.parametrize("drop", ["seed", "name", "topology"])
    def test_malformed_model_metadata_is_2(self, workspace, tmp_path, capsys, drop):
        ws = copy_workspace(workspace, tmp_path)
        path = ws / "runs" / "nn_4_0" / "model.json"
        doc = json.loads(path.read_text())
        del (doc if drop == "seed" else doc["sections"][0])[drop]
        path.write_text(json.dumps(doc))
        assert run(ws, "predict") == 2
        err = capsys.readouterr().err
        assert "malformed model metadata" in err and repr(drop) in err

    @pytest.mark.parametrize("value", ["no", 1], ids=["string", "integer"])
    def test_batch_norm_not_a_bool_is_2(self, workspace, tmp_path, capsys, value):
        """A topology's batch_norm is a JSON bool: one that is truthy but
        not true would load as batch norm on, and the weights fit."""
        ws = copy_workspace(workspace, tmp_path)
        path = ws / "runs" / "nn_4_0" / "model.json"
        doc = json.loads(path.read_text())
        clf = next(s for s in doc["sections"] if s["name"] == "classifier")
        clf["topology"][0]["batch_norm"] = value
        path.write_text(json.dumps(doc))
        assert run(ws, "predict") == 2
        err = capsys.readouterr().err
        assert "malformed model metadata" in err and f"batch_norm: {value!r}" in err

    @pytest.mark.parametrize("run_id, damage, message", [
        ("nn_4_0", lambda p: p.write_bytes(p.read_bytes()[:-4]), "weights.f32: file holds"),
        ("blup_2_0", lambda p: p.write_bytes(p.read_bytes() + bytes(4)),
         "weights.f32: file holds 93 values, expected 92 "),
        ("blup_2_0", lambda p: p.unlink(), "is missing data file weights.f32"),
    ], ids=["truncated", "padded", "missing"])
    def test_damaged_weights_are_2(self, workspace, tmp_path, capsys, run_id, damage,
                                   message):
        """The feature tables and the topologies fix the size weights.f32
        is read at: 23 variables x 2 bins x (re, im) for blup_2_0."""
        ws = copy_workspace(workspace, tmp_path)
        damage(ws / "runs" / run_id / "weights.f32")
        assert run(ws, "predict") == 2
        err = capsys.readouterr().err
        assert message in err and run_id in err and "Traceback" not in err


def rewrite_block(change):
    """A damage that rewrites one variable's features/<var>.f32, raw
    float32 [samples, 64 steps], as the raw bytes of change(block)."""
    def damage(path):
        change(np.fromfile(path, dtype="<f4").reshape(-1, 64)).tofile(path)
    return damage


def one_nan(block):
    block[1, 3] = np.nan
    return block


def older_layout(path):
    """features/ as written before one file per variable: every block
    stacked into one series.f32 [samples, variables, steps]."""
    meta = json.loads((path.parent / "meta.json").read_text())
    files = [path.parent / f"{var}.f32" for var in meta["variables"]]
    np.stack([np.fromfile(f, dtype="<f4").reshape(-1, 64) for f in files],
             axis=1).tofile(path.parent / "series.f32")
    for f in files:
        f.unlink()


class TestWorkspaceTables:
    """Each stage table a user may edit by hand, and the model list in
    runs/meta.json, fail as exit 2 naming the file, never as a traceback;
    train refuses impossible sizes with exit 1 before any run starts."""

    def test_runs_meta_lists_the_models_in_grid_order(self, workspace):
        meta = json.loads((workspace / "runs" / "meta.json").read_text())
        assert meta["models"] == ["blup_2_0", "nn_4_0"]

    def test_missing_listed_bundle_is_2(self, workspace, tmp_path, capsys):
        ws = copy_workspace(workspace, tmp_path)
        shutil.rmtree(ws / "runs" / "nn_4_0")
        assert run(ws, "predict") == 2
        err = capsys.readouterr().err
        assert "nn_4_0" in err and "listed in" in err and "rerun `drycss train`" in err

    def test_repeated_listed_bundle_is_2(self, workspace, tmp_path, capsys):
        """A model listed twice would count twice in the ensemble mean."""
        ws = copy_workspace(workspace, tmp_path)
        path = ws / "runs" / "meta.json"
        meta = json.loads(path.read_text())
        meta["models"].append("nn_4_0")
        path.write_text(json.dumps(meta))
        assert run(ws, "predict") == 2
        assert f"{path} repeats model nn_4_0" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", ["../elsewhere", "../runs/nn_4_0", "nn_4_0/", ".", "..", ""])
    def test_listed_bundle_not_a_plain_name_is_2(self, workspace, tmp_path, capsys, entry):
        """A models entry is a bundle's name under runs/: a path would load
        a bundle from elsewhere, or count one bundle twice."""
        ws = copy_workspace(workspace, tmp_path)
        shutil.copytree(ws / "runs" / "nn_4_0", ws / "elsewhere")
        path = ws / "runs" / "meta.json"
        meta = json.loads(path.read_text())
        meta["models"] = [entry, "nn_4_0"]
        path.write_text(json.dumps(meta))
        assert run(ws, "predict") == 2
        assert (f"{path} lists {entry!r}, not the name of a bundle under {ws / 'runs'}"
                in capsys.readouterr().err)
        assert not (ws / "maps" / "css").exists()

    def test_runs_meta_without_model_list_is_2(self, workspace, tmp_path, capsys):
        ws = copy_workspace(workspace, tmp_path)
        meta = json.loads((ws / "runs" / "meta.json").read_text())
        del meta["models"]
        (ws / "runs" / "meta.json").write_text(json.dumps(meta))
        assert run(ws, "predict") == 2
        err = capsys.readouterr().err
        assert f"malformed runs metadata {ws / 'runs' / 'meta.json'}: bad or missing 'models'" in err

    @pytest.mark.parametrize("flags, message", [
        (["--blup-sizes", "4,4"], "train.blup_sizes=(4, 4) out of range (positive, distinct)"),
        (["--nn-sizes", "4,8,4"], "train.nn_sizes=(4, 8, 4) out of range"),
        (["--blup-sizes", "2,40"], "train.blup_sizes=40 exceeds 33 bins per variable"),
        (["--nn-feature-bins", "40"], "train.nn_feature_bins=40 exceeds 33 bins per variable"),
        (["--nn-sizes", "500"], "train.nn_sizes=500 exceeds 184 network input features"),
        (["--holdout-fraction", "0.95"],
         "train.holdout_fraction=0.95 leaves 1 of 22 samples to train on"),
    ], ids=["duplicate-blup", "duplicate-nn", "blup-above-spectrum",
            "feature-bins-above-spectrum", "latent-above-inputs", "holdout-leaves-one-row"])
    def test_train_checks_sizes_before_any_run(self, workspace, tmp_path, capsys,
                                                flags, message):
        """64 steps give 33 bins; 23 variables x 4 bins x (re, im) give 184
        network inputs; holding out 0.95 of 22 samples holds out 21."""
        ws = copy_workspace(workspace, tmp_path)
        shutil.rmtree(ws / "runs")
        assert cli.main(["train", "--out", str(ws), *TRAIN_FLAGS, *flags]) == 1
        assert message in capsys.readouterr().err
        assert not (ws / "runs").exists()  # no run started

    @staticmethod
    def edit_candidates(ws, change):
        path = ws / "candidates.csv"
        with open(path, newline="") as f:
            rows = list(csv.DictReader(f))
        for row in rows:
            change(row)
        with open(path, "w", newline="") as f:
            w = csv.DictWriter(f, fieldnames=list(rows[0]))
            w.writeheader()
            w.writerows(rows)

    @pytest.mark.parametrize("change", [
        lambda row: row.update(score=row.pop("css")),  # renamed column
        lambda row: row.update(lat="north"),
        lambda row: row.update(iy="12"),  # the grid has rows 0..11
    ], ids=["renamed-column", "not-a-number", "outside-grid"])
    def test_damaged_candidates_table_is_2(self, workspace, tmp_path, capsys, change):
        ws = copy_workspace(workspace, tmp_path)
        self.edit_candidates(ws, change)
        assert run(ws, "analogs") == 2
        assert "candidates.csv" in capsys.readouterr().err

    def test_damaged_reclassification_table_is_2(self, workspace, tmp_path, capsys):
        ws = copy_workspace(workspace, tmp_path)
        path = ws / "reclassification.csv"
        lines = path.read_text().splitlines(keepends=True)
        i = next(i for i, line in enumerate(lines) if ",HiSuit-HiVeg," in line)
        cells = lines[i].split(",")
        cells[3] = "green"  # the ndvi column
        lines[i] = ",".join(cells)
        path.write_text("".join(lines))
        assert run(ws, "report") == 2
        err = capsys.readouterr().err
        assert "malformed reclassification table" in err and "reclassification.csv" in err

    @pytest.mark.parametrize("text", [
        lambda doc: json.dumps(dict(doc, slope="abc")),
        lambda doc: json.dumps([doc["slope"], doc["intercept"]]),
        lambda doc: json.dumps(dict(doc, slope=float("nan"))),  # read back as NaN
        lambda doc: json.dumps(dict(doc, intercept=float("-inf"))),
    ], ids=["slope-not-a-number", "json-list", "slope-nan", "intercept-infinite"])
    def test_damaged_calibration_is_2(self, workspace, tmp_path, capsys, text):
        ws = copy_workspace(workspace, tmp_path)
        path = ws / "calibration.json"
        path.write_text(text(json.loads(path.read_text())))
        assert run(ws, "opportunity") == 2
        err = capsys.readouterr().err
        assert "malformed calibration" in err and "calibration.json" in err

    def test_calibration_with_nan_r2_is_read(self, workspace, tmp_path):
        """fit_calibration writes r2 = NaN when the NDVI has no variance."""
        ws = copy_workspace(workspace, tmp_path)
        path = ws / "calibration.json"
        path.write_text(json.dumps(dict(json.loads(path.read_text()), r2=float("nan"))))
        assert run(ws, "opportunity") == 0

    SIZE = "lacks tp.f32 of 22 x 64 float32 values"

    @pytest.mark.parametrize("damage, message", [
        (lambda path: path.rename(path.with_suffix(".npy")), "lacks tp.f32"),
        (older_layout, "lacks d2m.f32"),
        (lambda path: path.write_bytes(path.read_bytes()[:-16]), SIZE),
        (lambda path: path.write_bytes(b""), SIZE),
        (rewrite_block(lambda b: b[:, :5]), SIZE),
        (rewrite_block(lambda b: b.astype(np.complex64)), SIZE),
        (rewrite_block(lambda b: b.astype(np.float64)), SIZE),
        (rewrite_block(one_nan), "does not match the digest"),
        (rewrite_block(lambda b: b[::-1]), "does not match the digest"),  # same size
    ], ids=["missing", "older-layout", "truncated", "empty", "wrong-shape", "complex64",
            "float64", "nan", "reversed-rows"])
    def test_damaged_feature_cache_is_2(self, workspace, tmp_path, capsys, damage, message):
        """Damage to one variable's file, tp.f32 (the 21st), or a features/
        that holds only the older series.f32: a missing file or one of
        another size is named, and any other edit fails the digest, before
        train reads a block."""
        ws = copy_workspace(workspace, tmp_path)
        damage(ws / "features" / "tp.f32")
        assert run(ws, "train", *TRAIN_FLAGS) == 2
        err = capsys.readouterr().err
        assert f"feature cache {ws / 'features'} {message}" in err
        assert "rerun `drycss features`" in err and "Traceback" not in err
        assert not (ws / "runs").exists()  # refused before train writes

    def test_feature_variables_of_another_count_is_2(self, workspace, tmp_path, capsys):
        """The digest covers the files that features/meta.json names, in
        order, so a list one name short is refused by the digest (calibrate
        already refuses the edited stamp as newer than the runs)."""
        ws = copy_workspace(workspace, tmp_path)
        path = ws / "features" / "meta.json"
        doc = json.loads(path.read_text())
        doc["variables"] = doc["variables"][:-1]
        path.write_text(json.dumps(doc))
        assert run(ws, "train", *TRAIN_FLAGS) == 2
        err = capsys.readouterr().err
        assert "does not match the digest" in err and "rerun `drycss features`" in err
        assert not (ws / "runs").exists()

    def test_feature_steps_other_than_the_files_hold_is_2(self, workspace, tmp_path, capsys):
        """A time axis in features/meta.json that its files do not hold
        used to fail inside the block loop, without naming the stage to
        rerun."""
        ws = copy_workspace(workspace, tmp_path)
        path = ws / "features" / "meta.json"
        doc = json.loads(path.read_text())
        doc["time"]["n_steps"] = 60
        path.write_text(json.dumps(doc))
        assert run(ws, "train", *TRAIN_FLAGS) == 2
        err = capsys.readouterr().err
        assert (f"feature cache {ws / 'features'} lacks d2m.f32 of 22 x 60 float32 values; "
                "rerun `drycss features`") in err
        assert not (ws / "runs").exists()

    def test_repeated_sample_site_is_2(self, workspace, tmp_path, capsys):
        """report keys its rankings by site id; features, the first stage
        to read samples.csv, refuses a table that repeats one."""
        ws = copy_workspace(workspace, tmp_path)
        path = ws / "samples.csv"
        lines = path.read_text().splitlines(keepends=True)
        site = lines[1].split(",")[0]
        lines[3] = ",".join([site] + lines[3].split(",")[1:])  # the third row
        path.write_text("".join(lines))
        assert run(ws, "features") == 2
        err = capsys.readouterr().err
        assert f"{path} repeats site_id {site}" in err and "Traceback" not in err

    @pytest.mark.parametrize("label", ["nan", "inf", "-inf"])
    def test_non_finite_label_is_2(self, workspace, tmp_path, capsys, label):
        """features, the first stage to read samples.csv, refuses a label
        that is not finite, naming the file and line; train used to end
        in a ValueError traceback from the ridge fit."""
        ws = copy_workspace(workspace, tmp_path)
        path = ws / "samples.csv"
        lines = path.read_text().splitlines(keepends=True)
        assert lines[0].split(",")[6] == "label"
        cells = lines[2].split(",")
        cells[6] = label
        lines[2] = ",".join(cells)  # the second row, line 3
        path.write_text("".join(lines))
        assert run(ws, "features") == 2
        err = capsys.readouterr().err
        assert f"malformed samples table {path}, line 3: bad or missing label: " \
               f"{label!r} is not finite" in err and "Traceback" not in err
        assert not (ws / "features").exists()

    def test_repeated_reclassification_site_is_2(self, workspace, tmp_path, capsys):
        ws = copy_workspace(workspace, tmp_path)
        path = ws / "reclassification.csv"
        lines = path.read_text().splitlines(keepends=True)
        rows = [i for i, line in enumerate(lines) if ",HiSuit-HiVeg," in line]
        site = lines[rows[0]].split(",")[0]
        lines[rows[1]] = ",".join([site] + lines[rows[1]].split(",")[1:])
        path.write_text("".join(lines))
        assert run(ws, "report") == 2
        err = capsys.readouterr().err
        assert f"{path} repeats site_id {site}" in err and "Traceback" not in err

    def test_sample_off_its_node_is_2(self, workspace, tmp_path, capsys):
        """features scores the node nearest a sample's (lat, lon); a
        samples.csv whose (iy, ix) names another node is refused."""
        ws = copy_workspace(workspace, tmp_path)
        path = ws / "samples.csv"
        lines = path.read_text().splitlines(keepends=True)
        cells = lines[1].split(",")
        site, iy = cells[0], int(cells[3])
        cells[3] = str((iy + 5) % 12)  # the iy column, another row of the 12x12 grid
        lines[1] = ",".join(cells)
        path.write_text("".join(lines))
        assert run(ws, "features") == 2
        err = capsys.readouterr().err
        assert f"sample {site} at" in err and "nearest node" in err

    def test_sample_outside_grid_or_masked_is_2(self, workspace, tmp_path, capsys):
        """features refuses a sample off the grid, and one whose pixel the
        stored mask marks invalid."""
        ws = copy_workspace(workspace, tmp_path)
        s = load_samples(ws / "samples.csv")[0]
        mask_path = ws / "cube" / "mask.f32"
        mask = np.fromfile(mask_path, dtype="<f4")
        mask[s.iy * 12 + s.ix] = 0.0
        mask.tofile(mask_path)
        assert run(ws, "features") == 2
        assert f"sample {s.site_id} at ({s.lat}, {s.lon}) lies at masked pixel " \
               f"({s.iy}, {s.ix})" in capsys.readouterr().err
        path = ws / "samples.csv"
        path.write_text(path.read_text().replace(f"{s.site_id},{s.lat},", f"{s.site_id},99.0,"))
        assert run(ws, "features") == 2
        assert f"sample {s.site_id} at (99.0, {s.lon}) lies outside the grid" \
            in capsys.readouterr().err


class TestFractionalCounts:
    """A count or version in workspace metadata that is not an integer
    exits 2 naming its file; int() used to truncate a count and the stage
    went on, and a version of 3.0 loaded as 3."""

    @pytest.mark.parametrize("stage, rel, change, name", [
        ("predict", "runs/blup_2_0/features.json", lambda d: d.update(n_steps=64.9),
         "n_steps in features.json"),
        ("predict", "runs/nn_4_0/model.json", lambda d: d.update(seed=4.5),
         "seed in model.json"),
        ("features", "cube/meta.json", lambda d: d["grid"].update(n_lat=12.5),
         "n_lat: 12.5"),
        ("features", "cube/meta.json", lambda d: d["time"].update(n_steps=64.9),
         "n_steps: 64.9"),
        ("opportunity", "ndvi/meta.json",
         lambda d: d["observations"][0].__setitem__(1, d["observations"][0][1] + 0.5),
         "observations: 40.5"),
        ("opportunity", "calibration.json", lambda d: d.update(n=64.9),
         "malformed calibration"),
        ("predict", "runs/nn_4_0/model.json", lambda d: d.update(version=3.0), "version: 3.0"),
        ("predict", "runs/nn_4_0/features.json", lambda d: d.update(version=2.0),
         "version: 2.0"),
        ("features", "cube/meta.json", lambda d: d.update(version=1.0), "version: 1.0"),
    ], ids=["bundle-features", "bundle-model", "grid", "time-axis", "ndvi-observation",
            "calibration", "model-version", "feature-table-version", "metadata-version"])
    def test_fractional_count_is_2(self, workspace, tmp_path, capsys, stage, rel,
                                   change, name):
        ws = copy_workspace(workspace, tmp_path)
        doc = json.loads((ws / rel).read_text())
        change(doc)
        (ws / rel).write_text(json.dumps(doc))
        assert run(ws, stage) == 2
        err = capsys.readouterr().err
        assert "is not an integer" in err and name in err
        assert str(ws / rel) in err


def restamp(ws, path):
    """Record path's new stamp wherever a stage recorded its old one, so
    that only the stage that parses path sees the change."""
    manifest = json.loads((ws / "manifest.json").read_text())
    for record in manifest["stages"].values():
        for rel in record["inputs"]:
            if cli._stamp_file(ws, rel) == path:
                record["inputs"][rel] = sha256_file(path)
    (ws / "manifest.json").write_text(json.dumps(manifest))


class TestJsonDocuments:
    """Every JSON document the CLI reads goes through errors.read_json: a
    document of another shape exits 2 naming its file, never as a
    traceback."""

    DOCUMENTS = [("manifest.json", "train"), ("cube/meta.json", "features"),
                 ("ndvi/meta.json", "opportunity"), ("maps/css/meta.json", "report"),
                 ("features/meta.json", "train"), ("runs/meta.json", "predict"),
                 ("calibration.json", "opportunity"), ("runs/nn_4_0/model.json", "predict"),
                 ("runs/blup_2_0/features.json", "predict"), ("rules.json", "candidates")]

    @staticmethod
    def run_with(ws, rel, stage, doc):
        """Write doc as ws/rel and run the stage that reads it; rules.json
        is passed to candidates as --rules."""
        path = ws / rel
        path.write_text(json.dumps(doc))
        if rel != "manifest.json":
            restamp(ws, path)
        tail = {"train": TRAIN_FLAGS, "candidates": ["--count", "5", "--rules", str(path)]}
        return path, run(ws, stage, *tail.get(stage, []))

    @pytest.mark.parametrize("doc", [[], 5, "x"], ids=["list", "number", "string"])
    @pytest.mark.parametrize("rel, stage", DOCUMENTS, ids=[rel for rel, _ in DOCUMENTS])
    def test_document_of_another_shape_is_2(self, workspace, tmp_path, capsys,
                                            rel, stage, doc):
        ws = copy_workspace(workspace, tmp_path)
        path, code = self.run_with(ws, rel, stage, doc)
        if rel == "rules.json" and doc == []:
            assert code == 0  # an empty rule set, which keeps every candidate
        else:
            assert code == 2 and str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [
        [], {"stages": []}, {"stages": {"features": "x"}},
        {"stages": {"features": {"inputs": ["cube"]}}},
    ], ids=["list", "stages-list", "record-string", "inputs-list"])
    def test_malformed_manifest_is_2(self, workspace, tmp_path, capsys, doc):
        ws = copy_workspace(workspace, tmp_path)
        path, code = self.run_with(ws, "manifest.json", "train", doc)
        assert code == 2
        assert f"malformed manifest {path}" in capsys.readouterr().err

    @pytest.mark.parametrize("names", [5, ["combined", 7], ["../../cube/t2m"]],
                             ids=["number", "not-a-name", "outside-the-set"])
    def test_grid_names_that_save_grids_refuses_are_2(self, workspace, tmp_path, capsys,
                                                      names):
        ws = copy_workspace(workspace, tmp_path)
        doc = json.loads((ws / "maps" / "css" / "meta.json").read_text())
        path, code = self.run_with(ws, "maps/css/meta.json", "report", dict(doc, names=names))
        assert code == 2
        err = capsys.readouterr().err
        assert f"malformed grid metadata {path}: bad or missing names" in err

    @pytest.mark.parametrize("field", [["accessibility"], 5, ""], ids=["list", "number", "empty"])
    def test_rule_field_that_is_not_a_name_is_2(self, workspace, tmp_path, capsys, field):
        """A list field used to end in a TypeError in filter_candidates, and
        a numeric one excluded every candidate without a word."""
        ws = copy_workspace(workspace, tmp_path)
        path, code = self.run_with(ws, "rules.json", "candidates",
                                   [{"field": field, "op": "eq", "value": "x"}])
        assert code == 2
        err = capsys.readouterr().err
        assert f"malformed rule 0 in {path}" in err and repr(field) in err

    # one value of each JSON type: a number and a string, not a count, so
    # that neither a float() nor an int() reading passes it
    JSON_VALUES = {"null": None, "bool": True, "number": 0.5, "string": "0.5",
                   "array": [], "object": {}}
    # (document, path of a value in it): why no reader reads it
    UNREAD = {
        ("cube/meta.json", ("digest",)): "stamped by main as part of meta.json; ROADMAP item 8",
        ("ndvi/meta.json", ("digest",)): "stamped by main as part of meta.json; ROADMAP item 8",
        ("maps/css/meta.json", ("digest",)):
            "stamped by main as part of meta.json; ROADMAP item 8",
        ("runs/meta.json", ("digest",)): "stamped by main as part of meta.json; ROADMAP item 8",
        ("calibration.json", ("category_means",)): "written for the reader of the workspace",
    }

    @staticmethod
    def json_type(value):
        return ("null" if value is None else "bool" if isinstance(value, bool)
                else "number" if isinstance(value, (int, float))
                else "string" if isinstance(value, str)
                else "array" if isinstance(value, list) else "object")

    @classmethod
    def paths(cls, doc, path=()):
        """The path of every value below the root of a JSON document,
        containers as well as leaves."""
        items = (doc.items() if isinstance(doc, dict)
                 else enumerate(doc) if isinstance(doc, list) else ())
        for key, value in items:
            yield path + (key,)
            yield from cls.paths(value, path + (key,))

    def test_every_value_of_another_json_type_is_2(self, workspace, tmp_path):
        """Each value of the ten documents that stages read, replaced by a
        value of each other JSON type, is refused by the document's reader
        with a DataError; float(), str() and np.asarray used to take a
        boolean or a numeric string as a number, and any value as a string."""
        ws = copy_workspace(workspace, tmp_path)
        train_ws, predict_ws = tmp_path / "train", tmp_path / "predict"
        shutil.copytree(ws / "features", train_ws / "features")
        shutil.copy(ws / "samples.csv", train_ws)
        for rel in ("cube", "runs"):
            shutil.copytree(ws / rel, predict_ws / rel)
        args = cli.build_parser().parse_args(["train", "--out", str(train_ws)] + TRAIN_FLAGS)
        train_opts = cli._resolve(args, {}, "train")

        def cleared(read, made):  # a reader that writes, its outputs removed after
            def call():
                try:
                    read()
                finally:
                    shutil.rmtree(made, ignore_errors=True)
            return call

        readers = {  # document -> (workspace, its reader)
            "cube/meta.json": (ws, lambda: load_cube(ws / "cube")),
            "ndvi/meta.json": (ws, lambda: load_ndvi(ws / "ndvi")),
            "maps/css/meta.json": (ws, lambda: load_grids(ws / "maps" / "css")),
            "features/meta.json": (train_ws, cleared(
                lambda: cli.cmd_train(train_ws, dict(train_opts)), train_ws / "runs")),
            "runs/meta.json": (predict_ws, cleared(
                lambda: cli.cmd_predict(predict_ws, {"jobs": 1}), predict_ws / "maps")),
            "calibration.json": (ws, lambda: read_json(
                ws / "calibration.json", "calibration", Calibration.from_dict)),
            **{f"runs/{run_id}/{name}": (ws, lambda run_id=run_id: load_model_bundle(
                ws / "runs" / run_id))
               for run_id in ("blup_2_0", "nn_4_0") for name in ("model.json", "features.json")},
        }
        mutations, loaded = 0, []
        for rel, (root, read) in readers.items():
            path = root / rel
            text = path.read_text()
            read()  # the document as written loads
            for where in self.paths(json.loads(text)):
                if any((rel, where[:n]) in self.UNREAD for n in range(len(where) + 1)):
                    continue
                for kind, value in self.JSON_VALUES.items():
                    doc = json.loads(text)
                    parent = doc
                    for key in where[:-1]:
                        parent = parent[key]
                    if self.json_type(parent[where[-1]]) == kind:
                        continue
                    parent[where[-1]] = value
                    path.write_text(json.dumps(doc))
                    mutations += 1
                    try:
                        read()
                        loaded.append((rel, where, kind))
                    except DataError:
                        pass
            path.write_text(text)
        assert mutations > 400
        assert not loaded, f"{len(loaded)} of {mutations} loaded: {loaded}"

    @pytest.mark.parametrize("flag", ["--rules", "--attributes"])
    def test_directory_in_place_of_a_file_is_2(self, workspace, tmp_path, capsys, flag):
        """read_json and read_table used to end in an IsADirectoryError."""
        ws = copy_workspace(workspace, tmp_path)
        assert run(ws, "candidates", "--count", "5", flag, str(tmp_path)) == 2
        assert f"not found: {tmp_path}" in capsys.readouterr().err


def nan_weight(path):
    weights = np.fromfile(path, dtype="<f4")
    weights[3] = np.nan
    weights.tofile(path)


def edit_json(path, change):
    doc = json.loads(path.read_text())
    change(doc)
    path.write_text(json.dumps(doc))  # NaN and Infinity as JSON reads them


class TestNonFiniteRecords:
    """A non-finite number in a model bundle exits 2 naming its file;
    scoring used to carry it into all-NaN maps, or blame the series.
    calibration.json: see test_damaged_calibration_is_2."""

    @pytest.mark.parametrize("run_id, name, change, message", [
        ("nn_4_0", "weights.f32", nan_weight, "holds a non-finite weight"),
        ("blup_2_0", "weights.f32", nan_weight, "holds a non-finite weight"),
        ("blup_2_0", "model.json",
         lambda p: edit_json(p, lambda d: d.update(intercept=float("nan"))),
         "intercept in model.json: nan is not finite"),
        ("blup_2_0", "model.json",
         lambda p: edit_json(p, lambda d: d.update({"lambda": float("inf")})),
         "lambda in model.json: inf is not finite"),
        ("nn_4_0", "features.json",
         lambda p: edit_json(p, lambda d: d["mean_re"][0].__setitem__(0, float("nan"))),
         "mean_re: nan is not finite"),
        ("blup_2_0", "features.json",
         lambda p: edit_json(p, lambda d: d["std_im"][1].__setitem__(0, 0.0)),
         "std_im holds a std that is not positive"),
    ], ids=["nn-weight", "blup-weight", "intercept", "lambda", "mean-table", "zero-std"])
    def test_non_finite_bundle_is_2(self, workspace, tmp_path, capsys, run_id, name,
                                    change, message):
        ws = copy_workspace(workspace, tmp_path)
        change(ws / "runs" / run_id / name)
        assert run(ws, "predict") == 2
        err = capsys.readouterr().err
        assert message in err and run_id in err and name in err


class TestGridSets:
    """A grid set that lacks a grid a stage reads exits 2 naming the grid
    and the set; the stage used to end in a KeyError."""

    @pytest.mark.parametrize("stage, rel, name", [
        ("opportunity", "maps/css", "combined"),
        ("candidates", "maps/opportunity", "opportunity"),
        ("candidates", "maps/css", "combined"),
        ("analogs", "maps/opportunity", "ndvi_summer"),
    ], ids=["opportunity", "candidates-opportunity", "candidates-css", "analogs"])
    def test_missing_grid_is_2(self, workspace, tmp_path, capsys, stage, rel, name):
        ws = copy_workspace(workspace, tmp_path)
        path = ws / rel
        spec, grids = load_grids(path)
        del grids[name]
        shutil.rmtree(path)
        save_grids(path, spec, grids)
        # a stage that recorded the old set as its input records the new
        # one, so only the missing grid is wrong
        manifest = json.loads((ws / "manifest.json").read_text())
        for record in manifest["stages"].values():
            if rel in record["inputs"]:
                record["inputs"][rel] = sha256_file(path / "meta.json")
        (ws / "manifest.json").write_text(json.dumps(manifest))
        assert run(ws, stage) == 2
        assert f"no {name!r} grid in {path}" in capsys.readouterr().err


class TestStageArithmetic:
    def test_feature_digest_is_content_digest_of_the_cache(self, workspace):
        meta = json.loads((workspace / "features" / "meta.json").read_text())
        assert meta["digest"] == content_digest(workspace / "features",
                                                [f"{var}.f32" for var in meta["variables"]])

    def test_reclassification_scores_match_the_css_map(self, workspace):
        """calibrate reads each kind's score at the sample's pixel of its
        CSS map, so every score column holds the map's values exactly."""
        _, css = load_grids(workspace / "maps" / "css")
        with open(workspace / "reclassification.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        samples = load_samples(workspace / "samples.csv")
        assert sorted(k for k in rows[0] if k.startswith("score_")) == \
            sorted(f"score_{name}" for name in css)
        assert [int(r["site_id"]) for r in rows] == [s.site_id for s in samples]
        for r, s in zip(rows, samples):
            for name, grid in css.items():
                assert float(r[f"score_{name}"]) == float(grid[s.iy, s.ix]), (name, s.site_id)


class TestFeatureGather:
    def test_peak_memory_stays_well_under_the_series(self, tmp_path):
        """`features` gathers and saves one variable's [samples, steps]
        block at a time: on a 12x12 cube of 1,024 steps with a sample at
        every pixel, the traced peak stays under a quarter of the whole
        series' 13.6 MB (the cube's values are mapped, not traced)."""
        spec = GridSpec(lat_min=20.0, lat_max=21.1, lon_min=40.0, lon_max=41.1,
                        n_lat=12, n_lon=12)
        taxis = TimeAxis(start="2020-01-01T00:00:00Z", step_hours=3.0, n_steps=1024)
        rng = np.random.default_rng(5)
        save_cube(ClimateCube(spec=spec, time=taxis, variables=VARIABLES, values={
            var: rng.standard_normal((1024, 12, 12), dtype=np.float32) for var in VARIABLES}),
            tmp_path / "cube")
        save_samples([LabeledSample(i, *spec.node(iy, ix), iy, ix, "HiSuit-HiVeg", 1.0, 0.5)
                      for i, (iy, ix) in enumerate(np.ndindex(spec.shape))],
                     tmp_path / "samples.csv")
        tracemalloc.start()
        try:
            assert cli.main(["features", "--out", str(tmp_path)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        series_bytes = 144 * len(VARIABLES) * 1024 * 4
        assert peak < series_bytes / 4, f"peak {peak / 1e6:.1f} MB of {series_bytes / 1e6:.1f} MB"


class TestSlabBoundary:
    def test_products_cross_slabs_alike(self, tmp_path):
        """On a chain of three slabs, the last partial (so the order of
        the slab sums shows in the bytes), with one grid row all
        invalid: series_products gives the bytes of a fresh array per
        slab (helpers.reference_series_products) for any worker count on
        the memory-mapped and the in-memory cube, and on the all-valid
        cube before the row is masked; `predict --jobs 1` and `--jobs 2`
        write the same maps, and the map matches each model scored from
        the full FFT."""
        ws, T = tmp_path / "ws", 2 * SLAB_STEPS + 37
        assert cli.main(["synth", "--out", str(ws), "--grid-size", "12", "--steps", str(T),
                         "--counts", "8,8,3,3", "--seed", "3"]) == 0
        row = min(set(range(12)) - {s.iy for s in load_samples(ws / "samples.csv")})
        cube = load_cube(ws / "cube")
        values = {var: np.array(cube.values[var]) for var in cube.variables}
        whole = ClimateCube(spec=cube.spec, time=cube.time, variables=cube.variables,
                            values={**values, "t2m": values["t2m"].copy()})
        values["t2m"][T - 1, row] = np.nan  # in the last, partial slab
        memory = ClimateCube(spec=cube.spec, time=cube.time, variables=cube.variables,
                             values=values)
        shutil.rmtree(ws / "cube")
        save_cube(memory, ws / "cube")
        for stage, *tail in (["features"], ["train", *TRAIN_FLAGS], ["predict"]):
            assert cli.main([stage, "--out", str(ws)] + tail) == 0, stage
        css_dir = ws / "maps" / "css"
        first = {p.name: p.read_bytes() for p in css_dir.iterdir()}
        assert run(ws, "predict", "--jobs", "2") == 0
        assert {p.name: p.read_bytes() for p in css_dir.iterdir()} == first

        mapped = load_cube(ws / "cube")
        assert not mapped.mask[row].any() and mapped.mask.sum() == 132
        models = [load_model_bundle(ws / "runs" / run_id) for run_id in ("blup_2_0", "nn_4_0")]
        rows = EnsembleScorer(models).time_rows
        assert whole.mask.all()
        masked = [p.tobytes() for p in reference_series_products(mapped, rows)]
        for cube, expect in ((mapped, masked), (memory, masked),
                             (whole, [p.tobytes() for p in reference_series_products(whole, rows)])):
            for jobs in (1, 2, 4):
                assert [p.tobytes() for p in series_products(cube, rows, jobs)] == expect

        _, css = load_grids(css_dir)
        iy, ix, series = pixel_series(mapped, 0, 12)
        for name, scores in rfft_ensemble_scores(models, series).items():
            assert np.isnan(css[name][row]).all()
            np.testing.assert_allclose(css[name][iy, ix], scores, rtol=1e-6, atol=1e-6)


class TestAnalogVectors:
    def test_rows_match_search_on_fft_vectors(self, tmp_path):
        """analogs computes only the low bins it keeps; the oracle takes
        them from the full FFT of every valid pixel of a masked grid."""
        ws = tmp_path / "ws"
        for stage, *tail in (["synth", *SYNTH_FLAGS, "--invalid-fraction", "0.15"],
                             ["features"], ["train", *TRAIN_FLAGS], ["predict"],
                             ["calibrate"], ["opportunity"],
                             ["candidates", "--count", "5"], ["analogs"]):
            assert cli.main([stage, "--out", str(ws)] + tail) == 0, stage
        cube = load_cube(ws / "cube")
        assert not cube.mask.all()
        vectors = pixel_vectors(SimpleNamespace(spec=cube.spec, cube=cube), 32)
        _, opp = load_grids(ws / "maps" / "opportunity")
        sites = cli._read_candidates(ws / "candidates.csv")
        with open(ws / "analogs.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert [int(r["site"]) for r in rows] == [s.rank for s in sites]
        n_matched = 0
        for site, row in zip(sites, rows):
            res, _ = find_analog(site, vectors, cube.spec, opp["ndvi_summer"])
            if not hasattr(res, "analog_ndvi"):
                assert row["analog_lat"] == ""
                continue
            n_matched += 1
            node = cube.spec.nearest(float(row["analog_lat"]), float(row["analog_lon"]))
            assert node == (res.iy, res.ix)
            assert float(row["climate_distance"]) == pytest.approx(
                res.climate_distance, rel=1e-9)
        assert n_matched >= 1


class TestConfigFile:
    def test_config_supplies_stage_values(self, workspace, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"candidates": {"count": 3,
                                                  "min_spacing_km": 0.0}}))
        code = cli.main(["candidates", "--out", str(workspace),
                         "--config", str(cfg), "--force"])
        assert code == 0
        with open(workspace / "candidates.csv", newline="") as f:
            assert len(list(csv.DictReader(f))) == 3

    def test_flag_overrides_config(self, workspace, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"candidates": {"count": 3,
                                                  "min_spacing_km": 0.0}}))
        code = cli.main(["candidates", "--out", str(workspace),
                         "--config", str(cfg), "--count", "2", "--force"])
        assert code == 0
        with open(workspace / "candidates.csv", newline="") as f:
            assert len(list(csv.DictReader(f))) == 2


class TestDefaults:
    def test_unflagged_run_records_library_defaults(self, workspace, tmp_path,
                                                    monkeypatch):
        monkeypatch.delenv("DRYCSS_JOBS", raising=False)
        ws = copy_workspace(workspace, tmp_path)
        for stage in ("predict", "candidates", "analogs"):
            assert cli.main([stage, "--out", str(ws), "--force"]) == 0
        stages = json.loads((ws / "manifest.json").read_text())["stages"]
        assert stages["predict"]["config"] == {"jobs": 1}
        assert stages["candidates"]["config"] == {
            "count": opportunity.DEFAULT_CANDIDATE_COUNT,
            "min_spacing_km": opportunity.DEFAULT_MIN_SPACING_KM,
            "attributes": None, "join": "site", "rules": None}
        assert stages["analogs"]["config"] == {
            "channels": 32, "max_climate_distance": None,
            "distance_percentile": opportunity.DEFAULT_DISTANCE_PERCENTILE,
            "ndvi_margin": opportunity.DEFAULT_NDVI_MARGIN, "exclude": None}


class TestExclusion:
    def analog_of(self, ws, site):
        with open(ws / "analogs.csv", newline="") as f:
            row = next(r for r in csv.DictReader(f) if r["site"] == str(site))
        return row["analog_lat"], row["analog_lon"]

    def test_excluded_pixel_moves_the_analog(self, workspace, tmp_path):
        ws = copy_workspace(workspace, tmp_path)
        assert cli.main(["candidates", "--out", str(ws), "--count", "5",
                         "--force"]) == 0
        assert cli.main(["analogs", "--out", str(ws), "--force"]) == 0
        lat, lon = self.analog_of(ws, 1)
        assert lat and lon, "site 1 has no unconstrained analog"

        spec, _ = load_grids(ws / "maps" / "css")
        mask = np.zeros(spec.shape)
        mask[spec.nearest(float(lat), float(lon))] = 1.0
        save_grids(tmp_path / "excl", spec, {"exclusion": mask})
        assert cli.main(["analogs", "--out", str(ws), "--force",
                         "--exclude", str(tmp_path / "excl")]) == 0
        moved_lat, moved_lon = self.analog_of(ws, 1)
        assert moved_lat and (moved_lat, moved_lon) != (lat, lon)

    def test_mismatched_exclusion_grid_is_2(self, workspace, tmp_path, capsys):
        ws = copy_workspace(workspace, tmp_path)
        small = GridSpec(lat_min=20.0, lat_max=20.4, lon_min=40.0, lon_max=40.4,
                         n_lat=5, n_lon=5)
        save_grids(tmp_path / "excl", small, {"exclusion": np.ones(small.shape)})
        assert cli.main(["analogs", "--out", str(ws), "--force",
                         "--exclude", str(tmp_path / "excl")]) == 2
        assert "does not match" in capsys.readouterr().err

    def test_shifted_exclusion_grid_is_2(self, workspace, tmp_path, capsys):
        """An exclusion grid of the cube's shape 5 degrees north shares no
        node with it; it used to exclude every pixel, and analogs found
        nothing and exited 0."""
        ws = copy_workspace(workspace, tmp_path)
        spec, _ = load_grids(ws / "maps" / "css")
        north = dataclasses.replace(spec, lat_min=spec.lat_min + 5.0,
                                    lat_max=spec.lat_max + 5.0)
        save_grids(tmp_path / "excl", north, {"exclusion": np.ones(north.shape)})
        assert cli.main(["analogs", "--out", str(ws), "--force",
                         "--exclude", str(tmp_path / "excl")]) == 2
        err = " ".join(capsys.readouterr().err.split())
        assert f"exclusion grid {north} does not match the cube grid {spec}" in err


class TestFiltering:
    def test_attributes_and_rules_flow_to_analogs(self, workspace, tmp_path):
        code = cli.main(["candidates", "--out", str(workspace), "--count", "4",
                         "--min-spacing-km", "0", "--force"])
        assert code == 0
        with open(workspace / "candidates.csv", newline="") as f:
            n_sites = len(list(csv.DictReader(f)))
        assert n_sites >= 2

        attrs = tmp_path / "attrs.csv"
        with open(attrs, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["site", "status"])
            for rank in range(1, n_sites + 1):
                w.writerow([rank, "keep" if rank % 2 else "drop"])
        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps([{"field": "status", "op": "eq",
                                      "value": "keep"}]))

        code = cli.main(["candidates", "--out", str(workspace), "--count",
                         str(n_sites), "--min-spacing-km", "0",
                         "--attributes", str(attrs), "--rules", str(rules),
                         "--force"])
        assert code == 0
        with open(workspace / "candidates.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert [r["retained"] for r in rows] == \
            ["True" if int(r["rank"]) % 2 else "False" for r in rows]
        assert all(r["attr_status"] in ("keep", "drop") for r in rows)

        code = cli.main(["analogs", "--out", str(workspace), "--force"])
        assert code == 0
        with open(workspace / "analogs.csv", newline="") as f:
            analog_rows = list(csv.DictReader(f))
        kept = [int(r["rank"]) for r in rows if r["retained"] == "True"]
        assert [int(r["site"]) for r in analog_rows] == kept
