import csv
import json
import shutil
from types import SimpleNamespace

import numpy as np
import pytest

import drycss.cli as cli
from drycss import opportunity
from drycss.errors import NumericalError
from drycss.grid import GridSpec, load_grids, save_grids


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
        args = SimpleNamespace(count=7)
        config = {"candidates": {"count": 3}, "count": 2}
        assert cli._cfg(args, config, "candidates", "count", 1, int) == 7
        args.count = None
        assert cli._cfg(args, config, "candidates", "count", 1, int) == 3
        assert cli._cfg(args, {"count": 2}, "candidates", "count", 1, int) == 2
        assert cli._cfg(args, {}, "candidates", "count", 1, int) == 1

    def test_cfg_cast_and_check(self):
        args = SimpleNamespace(count=None)
        with pytest.raises(cli.UsageError, match="bad value"):
            cli._cfg(args, {"count": "soon"}, "s", "count", 1, int)
        with pytest.raises(cli.UsageError, match="out of range"):
            cli._cfg(args, {"count": 0}, "s", "count", 1, int,
                     lambda v: v >= 1, ">= 1")

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
        for stage, (_, _, options) in cli.STAGES.items():
            with pytest.raises(SystemExit) as exc:
                cli.main([stage, "--help"])
            assert exc.value.code == 0
            text = " ".join(capsys.readouterr().out.split())
            for opt in options:
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
                    "features/coeffs.npy", "runs/metrics.csv",
                    "runs/blup_2_0/model.json", "runs/nn_4_0/model.json",
                    "maps/css/combined.f32", "calibration.json",
                    "reclassification.csv", "maps/opportunity/opportunity.f32",
                    "candidates.csv", "analogs.csv", "uplift.json",
                    "report/css_combined.pgm", "report/iou.json",
                    "report/metrics.csv", "report/rankings.csv"):
            assert (workspace / rel).exists(), rel

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
