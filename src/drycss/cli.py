"""drycss command line: stage-by-stage batch pipeline over a workspace.

    drycss synth --out ws          make a synthetic cube + NDVI + samples
    drycss features --out ws       per-sample DFT coefficients
    drycss train --out ws          BLUP/NN training grid -> model bundles
    drycss predict --out ws        CSS maps (per kind + combined)
    drycss calibrate --out ws      reclassification scores + NDVI calibration
    drycss opportunity --out ws    calibrated-CSS-minus-NDVI map
    drycss candidates --out ws     spaced candidate sites (+ rule filtering)
    drycss analogs --out ws        climate-analog matches per candidate
    drycss report --out ws         heatmaps, uplift and overlap summaries

Each stage records itself and its resolved options in ws/manifest.json
and refuses to run when its upstream artifacts are missing (exit 2) or
its outputs exist without --force. Bad flags or config exit 1;
numerical failures exit 3. All numeric artifacts are byte-deterministic
for a fixed seed; the manifest differs in timestamps only.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import opportunity, pipeline, synth
from .bundles import load_model_bundle, save_model_bundle
from .errors import DataError, NumericalError, read_json
from .grid import (GridSpec, TimeAxis, extract_series, load_cube, load_grids,
                   load_ndvi, pixel_series, regrid_ndvi, save_cube, save_grids,
                   save_ndvi)
from .neural import TrainParams
from .opportunity import (CandidateSite, default_rules, extract_candidates,
                          filter_candidates, find_analog, join_attributes,
                          load_attribute_table, load_rules, opportunity_map,
                          uplift_report)
from .pipeline import (BLOCK_ROWS, Calibration, GridSettings, aggregate_metrics,
                       category_means, derive_seed, ensemble_scores,
                       fit_calibration, load_samples, map_agreement_iou,
                       predict_map, ranking_overlap, run_training_grid,
                       save_run_record, save_samples)
from .spectral import dft_coefficients, truncated_coefficients


class UsageError(Exception):
    """Bad flags or configuration; exits 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems; this tool reserves 2 for
    # missing inputs, so route usage failures to exit 1 instead
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _stamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def _load_manifest(out: Path) -> dict:
    path = out / "manifest.json"
    if not path.exists():
        return {"stages": {}}
    return read_json(path, "manifest")


def _record_stage(out: Path, stage: str, config: dict, artifacts: list[str]) -> None:
    manifest = _load_manifest(out)
    manifest.setdefault("stages", {})[stage] = {
        "completed_utc": _stamp(),
        "config": config,
        "artifacts": sorted(artifacts),
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _require(path: Path, what: str, producer: str) -> Path:
    if not path.exists():
        raise DataError(f"{what} not found: {path} (run `drycss {producer}` first)")
    return path


def _refuse_existing(path: Path, force: bool) -> None:
    if path.exists() and not force:
        raise DataError(f"output already exists: {path} (rerun with --force)")


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    p = Path(path)
    if not p.exists():
        raise UsageError(f"config file not found: {p}")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as e:
        raise UsageError(f"config file {p} is not valid JSON: {e}")
    if not isinstance(doc, dict):
        raise UsageError(f"config file {p} must hold a JSON object")
    return doc


def _int_list(text) -> tuple[int, ...]:
    if isinstance(text, (list, tuple)):
        return tuple(int(v) for v in text)
    parts = [p.strip() for p in str(text).split(",") if p.strip()]
    if not parts:
        raise ValueError("empty list")
    return tuple(int(p) for p in parts)


def _shrinkage(value) -> str | float:
    return value if value in ("auto", "loo") else float(value)


# what each cast accepts, for the "bad value" error
_EXPECTED = {int: "an integer", float: "a number",
             _int_list: "comma-separated integers", _shrinkage: "auto, loo or a number"}


def _cfg(args, config: dict, stage: str, name: str, default, cast=None,
         check=None, describe=""):
    """Flag value, else config[stage][name] or config[name], else default."""
    value = getattr(args, name, None)
    if value is None:
        section = config.get(stage, {})
        if isinstance(section, dict) and name in section:
            value = section[name]
        elif name in config:
            value = config[name]
        else:
            value = default
    if value is None:
        return None
    if cast is not None:
        try:
            value = cast(value)
        except (TypeError, ValueError):
            expected = f" (expected {_EXPECTED[cast]})" if cast in _EXPECTED else ""
            raise UsageError(f"bad value for {stage}.{name}: {value!r}{expected}")
    if check is not None and not check(value):
        raise UsageError(f"{stage}.{name}={value!r} out of range ({describe})")
    return value


def write_pgm(path: Path, values: np.ndarray) -> None:
    """8-bit P5 grayscale; full range maps min->0, max->255, NaN -> 0."""
    v = np.asarray(values, dtype=np.float64)
    finite = np.isfinite(v)
    img = np.zeros(v.shape, dtype=np.uint8)
    if finite.any():
        lo = float(v[finite].min())
        hi = float(v[finite].max())
        if hi > lo:
            img[finite] = np.round((v[finite] - lo) / (hi - lo) * 255.0).astype(np.uint8)
        else:
            img[finite] = 128
    header = f"P5\n{v.shape[1]} {v.shape[0]}\n255\n".encode("ascii")
    path.write_bytes(header + img.tobytes())


# ---------------------------------------------------------------------------
# stages: each takes the workspace, its resolved options and --force, and
# returns the artifacts it wrote; main records both in the manifest


def cmd_synth(out: Path, opts: dict, force: bool) -> list[str]:
    out.mkdir(parents=True, exist_ok=True)
    for target in (out / "cube", out / "ndvi", out / "truth", out / "samples.csv"):
        _refuse_existing(target, force)

    n, seed, counts = opts["grid_size"], opts["seed"], opts["counts"]
    spec = GridSpec(lat_min=20.0, lat_max=20.0 + 0.1 * (n - 1),
                    lon_min=40.0, lon_max=40.0 + 0.1 * (n - 1), n_lat=n, n_lon=n)
    time = TimeAxis(start="2020-01-01T00:00:00Z", step_hours=3.0,
                    n_steps=opts["steps"])
    cube, suitability = synth.synth_cube(spec, time, seed=seed,
                                         invalid_fraction=opts["invalid_fraction"])
    raster, irrigated, degraded = synth.synth_ndvi(
        spec, suitability, seed=derive_seed(seed, "synth", "ndvi"),
        n_irrigated=counts[2] + 6, n_degraded=counts[3] + 6)
    summer = regrid_ndvi(raster, spec, years=synth.DEFAULT_NDVI_YEARS)
    samples = synth.sample_reference_sites(
        spec, suitability, summer, irrigated, degraded,
        counts=dict(zip(synth.CATEGORIES, counts)),
        seed=derive_seed(seed, "synth", "sites"),
        min_spacing_km=opts["min_spacing_km"])

    save_cube(cube, out / "cube", force=force)
    save_ndvi(raster, out / "ndvi", force=force)
    save_grids(out / "truth", spec,
               {"suitability": suitability,
                "irrigated": irrigated.astype(np.float64),
                "degraded": degraded.astype(np.float64)}, force=force)
    save_samples(samples, out / "samples.csv")
    print(f"synth: {n}x{n} cube, {len(raster.observations)} NDVI "
          f"observations, {len(samples)} samples -> {out}")
    return ["cube", "ndvi", "truth", "samples.csv"]


def cmd_features(out: Path, opts: dict, force: bool) -> list[str]:
    cube_dir = _require(out / "cube", "climate cube", "synth")
    samples_path = _require(out / "samples.csv", "samples table", "synth")
    feat_dir = out / "features"
    _refuse_existing(feat_dir / "coeffs.npy", force)

    cube = load_cube(cube_dir, mmap=True)
    samples = load_samples(samples_path)
    coeffs = np.empty((len(samples), len(cube.variables),
                       cube.time.n_steps // 2 + 1), dtype=np.complex128)
    for i, s in enumerate(samples):
        series, _ = extract_series(cube, s.lat, s.lon)
        coeffs[i] = dft_coefficients(series)
    feat_dir.mkdir(parents=True, exist_ok=True)
    np.save(feat_dir / "coeffs.npy", coeffs)
    meta = {"n_samples": len(samples), "n_steps": cube.time.n_steps,
            "variables": list(cube.variables)}
    (feat_dir / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    print(f"features: {coeffs.shape[0]} samples x {coeffs.shape[1]} variables "
          f"x {coeffs.shape[2]} bins -> {feat_dir}")
    return ["features/coeffs.npy", "features/meta.json"]


def _read_features(out: Path):
    feat_dir = _require(out / "features", "feature cache", "features")
    coeffs = np.load(_require(feat_dir / "coeffs.npy", "feature cache", "features"))
    return coeffs, read_json(feat_dir / "meta.json", "feature metadata")


def cmd_train(out: Path, opts: dict, force: bool) -> list[str]:
    coeffs, meta = _read_features(out)
    samples = load_samples(_require(out / "samples.csv", "samples table", "synth"))
    if len(samples) != coeffs.shape[0]:
        raise DataError(
            f"feature cache has {coeffs.shape[0]} rows for {len(samples)} samples; "
            "rerun `drycss features`")
    runs_dir = out / "runs"
    _refuse_existing(runs_dir, force)

    labels = np.array([s.label for s in samples])
    settings = GridSettings(
        variables=tuple(meta["variables"]), n_steps=int(meta["n_steps"]),
        holdout_fraction=opts["holdout_fraction"],
        nn_feature_bins=opts["nn_feature_bins"], blup_lambda=opts["blup_lambda"],
        train_params=TrainParams(learning_rate=opts["learning_rate"],
                                 epochs=opts["epochs"]))
    runs, models = run_training_grid(
        coeffs, labels, settings, blup_sizes=opts["blup_sizes"],
        nn_sizes=opts["nn_sizes"], repetitions=opts["repetitions"],
        root_seed=opts["seed"], jobs=opts["jobs"])

    runs_dir.mkdir(parents=True, exist_ok=True)
    for run, model in zip(runs, models):
        run_dir = runs_dir / run.run_id
        if model is not None:
            save_model_bundle(model, run_dir, force=force)
        else:
            run_dir.mkdir(parents=True, exist_ok=True)
        save_run_record(run, run_dir / "predictions.json")

    rows = aggregate_metrics(runs)
    with open(runs_dir / "metrics.csv", "w", newline="") as f:
        w = csv.writer(f)
        header = list(rows[0].keys())
        w.writerow(header)
        for row in rows:
            w.writerow([row[h] if isinstance(row[h], (str, int)) else repr(row[h])
                        for h in header])

    n_failed = sum(1 for r in runs if r.failed)
    print(f"train: {len(runs)} runs ({n_failed} failed) -> {runs_dir}")
    return ["runs"]


def _sorted_run_dirs(runs_dir: Path) -> list[Path]:
    dirs = []
    for p in runs_dir.iterdir():
        if not p.is_dir():
            continue
        parts = p.name.rsplit("_", 2)
        if len(parts) != 3:
            continue
        kind, size, rep = parts
        try:
            dirs.append(((0 if kind == "blup" else 1, int(size), int(rep)), p))
        except ValueError:
            continue
    return [p for _, p in sorted(dirs)]


def _load_models(runs_dir: Path):
    models = []
    for run_dir in _sorted_run_dirs(runs_dir):
        if (run_dir / "model.json").exists():
            models.append(load_model_bundle(run_dir))
    if not models:
        raise DataError(f"no model bundles under {runs_dir} (run `drycss train` first)")
    return models


def cmd_predict(out: Path, opts: dict, force: bool) -> list[str]:
    cube = load_cube(_require(out / "cube", "climate cube", "synth"), mmap=True)
    models = _load_models(_require(out / "runs", "training runs", "train"))
    css_dir = out / "maps" / "css"
    _refuse_existing(css_dir, force)

    maps = predict_map(models, cube, jobs=opts["jobs"])
    save_grids(css_dir, cube.spec, maps, force=force)
    print(f"predict: {len(models)} models -> {css_dir} ({', '.join(sorted(maps))})")
    return [f"maps/css/{name}.f32" for name in sorted(maps)]


def cmd_calibrate(out: Path, opts: dict, force: bool) -> list[str]:
    coeffs, _ = _read_features(out)
    samples = load_samples(_require(out / "samples.csv", "samples table", "synth"))
    models = _load_models(_require(out / "runs", "training runs", "train"))
    _refuse_existing(out / "calibration.json", force)

    scores = ensemble_scores(models, coeffs)
    cal = fit_calibration(samples, scores["combined"])

    with open(out / "reclassification.csv", "w", newline="") as f:
        w = csv.writer(f)
        names = sorted(k for k in scores if k != "combined") + ["combined"]
        w.writerow(["site_id", "category", "label", "ndvi"]
                   + [f"score_{n}" for n in names])
        for i, s in enumerate(samples):
            w.writerow([s.site_id, s.category, repr(s.label), repr(s.ndvi)]
                       + [repr(float(scores[n][i])) for n in names])
    doc = cal.to_dict()
    doc["category_means"] = category_means(samples, scores["combined"])
    (out / "calibration.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"calibrate: slope={cal.slope:.4f} intercept={cal.intercept:.4f} "
          f"r2={cal.r2:.3f} on {cal.n} samples")
    return ["calibration.json", "reclassification.csv"]


def cmd_opportunity(out: Path, opts: dict, force: bool) -> list[str]:
    spec, css_maps = load_grids(_require(out / "maps" / "css", "CSS maps", "predict"))
    raster = load_ndvi(_require(out / "ndvi", "NDVI stack", "synth"))
    cal = Calibration.from_dict(read_json(
        _require(out / "calibration.json", "calibration", "calibrate"), "calibration"))
    if opts["years"] is None:  # the manifest records the years actually used
        opts["years"] = sorted({obs.year for obs in raster.observations})
    opp_dir = out / "maps" / "opportunity"
    _refuse_existing(opp_dir, force)

    summer = regrid_ndvi(raster, spec, years=opts["years"])
    opp = opportunity_map(css_maps["combined"], summer, cal)
    save_grids(opp_dir, spec, {"opportunity": opp, "ndvi_summer": summer}, force=force)
    n_pos = int(np.sum(np.isfinite(opp) & (opp > 0)))
    print(f"opportunity: {n_pos} pixels with positive opportunity -> {opp_dir}")
    return ["maps/opportunity/opportunity.f32", "maps/opportunity/ndvi_summer.f32"]


def _candidate_fieldnames(sites: list[CandidateSite]) -> list[str]:
    attr_keys = sorted({k for s in sites for k in s.attributes})
    return (["rank", "lat", "lon", "iy", "ix", "opportunity", "css", "ndvi",
             "retained", "missing_attributes"] + [f"attr_{k}" for k in attr_keys])


def _write_candidates(path: Path, sites: list[CandidateSite]) -> None:
    fields = _candidate_fieldnames(sites)
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(fields)
        for s in sites:
            row = [s.rank, repr(s.lat), repr(s.lon), s.iy, s.ix,
                   repr(s.opportunity), repr(s.css), repr(s.ndvi),
                   "" if s.retained is None else str(s.retained),
                   str(s.missing_attributes)]
            for fname in fields[10:]:
                row.append(s.attributes.get(fname[5:], ""))
            w.writerow(row)


def _read_candidates(path: Path) -> list[CandidateSite]:
    if not path.exists():
        raise DataError(f"candidates table not found: {path} "
                        "(run `drycss candidates` first)")
    sites = []
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            attrs = {k[5:]: v for k, v in row.items() if k.startswith("attr_") and v}
            retained = row.get("retained", "")
            sites.append(CandidateSite(
                rank=int(row["rank"]), lat=float(row["lat"]), lon=float(row["lon"]),
                iy=int(row["iy"]), ix=int(row["ix"]),
                opportunity=float(row["opportunity"]), css=float(row["css"]),
                ndvi=float(row["ndvi"]),
                attributes=attrs,
                retained=None if retained == "" else retained == "True",
                missing_attributes=row.get("missing_attributes") == "True"))
    if not sites:
        raise DataError(f"candidates table is empty: {path}")
    return sites


def cmd_candidates(out: Path, opts: dict, force: bool) -> list[str]:
    spec, opp_maps = load_grids(_require(out / "maps" / "opportunity",
                                         "opportunity map", "opportunity"))
    _, css_maps = load_grids(_require(out / "maps" / "css", "CSS maps", "predict"))
    path = out / "candidates.csv"
    _refuse_existing(path, force)

    sites = extract_candidates(opp_maps["opportunity"], spec,
                               css=css_maps["combined"],
                               ndvi=opp_maps["ndvi_summer"],
                               count=opts["count"],
                               min_spacing_km=opts["min_spacing_km"])
    filtered = None
    if opts["attributes"]:
        join_attributes(sites, load_attribute_table(opts["attributes"]),
                        key=opts["join"])
    if opts["attributes"] or opts["rules"]:
        rules = load_rules(opts["rules"]) if opts["rules"] else default_rules()
        filtered = filter_candidates(sites, rules)

    _write_candidates(path, sites)
    if filtered is None:
        print(f"candidates: {len(sites)} sites (no attribute filtering) -> {path}")
    else:
        print(f"candidates: {len(sites)} sites, {len(filtered)} retained -> {path}")
    return ["candidates.csv"]


def cmd_analogs(out: Path, opts: dict, force: bool) -> list[str]:
    cube = load_cube(_require(out / "cube", "climate cube", "synth"), mmap=True)
    _, opp_maps = load_grids(_require(out / "maps" / "opportunity",
                                      "opportunity map", "opportunity"))
    sites = _read_candidates(out / "candidates.csv")
    channels = opts["channels"]
    _refuse_existing(out / "analogs.csv", force)

    # only sites that survived filtering, or all if filtering never ran
    any_filtered = any(s.retained is not None for s in sites)
    targets = [s for s in sites if s.retained] if any_filtered else sites
    if not targets:
        raise DataError("no retained candidates to match; relax the rules")

    max_chan = cube.time.n_steps // 2 + 1
    if channels > max_chan:
        raise UsageError(f"analogs.channels={channels} exceeds {max_chan} bins")

    exclusion = None
    if opts["exclude"]:
        espec, egrids = load_grids(Path(opts["exclude"]))
        if espec.shape != cube.spec.shape:
            raise DataError("exclusion grid shape does not match cube grid")
        if "exclusion" not in egrids:
            raise DataError(f"no 'exclusion' grid in {opts['exclude']}")
        exclusion = egrids["exclusion"] > 0.5

    vectors = np.full(cube.spec.shape + (len(cube.variables) * channels * 2,), np.nan)
    for r0 in range(0, cube.spec.n_lat, BLOCK_ROWS):
        rows, cols, series = pixel_series(cube, r0, r0 + BLOCK_ROWS)
        if rows.size:
            vectors[rows, cols] = truncated_coefficients(dft_coefficients(series),
                                                         channels)

    ndvi = opp_maps["ndvi_summer"]
    results = []
    dist_grids = {}
    for site in targets:
        res, dist = find_analog(site, vectors, cube.spec, ndvi,
                                exclusion=exclusion,
                                max_climate_distance=opts["max_climate_distance"],
                                distance_percentile=opts["distance_percentile"],
                                ndvi_margin=opts["ndvi_margin"])
        results.append(res)
        dist_grids[f"dist_site_{site.rank}"] = dist

    report = uplift_report(results)
    with open(out / "analogs.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["site", "candidate_lat", "candidate_lon", "analog_lat",
                    "analog_lon", "climate_distance", "spatial_km",
                    "candidate_ndvi", "analog_ndvi", "ratio", "note"])
        by_rank = {s.rank: s for s in targets}
        for res, row in zip(results, report.rows):
            site = by_rank[row["site"]]
            if hasattr(res, "analog_ndvi"):
                w.writerow([row["site"], repr(site.lat), repr(site.lon),
                            repr(res.lat), repr(res.lon),
                            repr(res.climate_distance), repr(res.spatial_km),
                            repr(res.candidate_ndvi), repr(res.analog_ndvi),
                            "" if row["ratio"] is None else repr(row["ratio"]),
                            row["note"]])
            else:
                w.writerow([row["site"], repr(site.lat), repr(site.lon),
                            "", "", "", "", "", "", "", row["note"]])
    save_grids(out / "maps" / "analogs", cube.spec, dist_grids, force=force)
    uplift_doc = {"rows": list(report.rows),
                  "mean_of_ratios": report.mean_of_ratios,
                  "ratio_of_means": report.ratio_of_means,
                  "n_used": report.n_used, "n_skipped": report.n_skipped}
    (out / "uplift.json").write_text(json.dumps(uplift_doc, indent=2, sort_keys=True) + "\n")
    print(f"analogs: {report.n_used} matches over {len(targets)} candidates; "
          f"mean of ratios {report.mean_of_ratios:.3f}, "
          f"ratio of means {report.ratio_of_means:.3f}")
    return ["analogs.csv", "uplift.json", "maps/analogs"]


def cmd_report(out: Path, opts: dict, force: bool) -> list[str]:
    report_dir = out / "report"
    _refuse_existing(report_dir, force)
    report_dir.mkdir(parents=True, exist_ok=True)
    written = []

    _, css_maps = load_grids(_require(out / "maps" / "css", "CSS maps", "predict"))
    for name, grid in sorted(css_maps.items()):
        write_pgm(report_dir / f"css_{name}.pgm", grid)
        written.append(f"report/css_{name}.pgm")
    if "blup" in css_maps and "nn" in css_maps:
        iou = map_agreement_iou(css_maps["blup"], css_maps["nn"])
        (report_dir / "iou.json").write_text(
            json.dumps({"blup_vs_nn_iou_at_0.5": iou}, indent=2, sort_keys=True) + "\n")
        written.append("report/iou.json")

    opp_dir = out / "maps" / "opportunity"
    if opp_dir.exists():
        _, opp_maps = load_grids(opp_dir)
        for name, grid in sorted(opp_maps.items()):
            write_pgm(report_dir / f"{name}.pgm", grid)
            written.append(f"report/{name}.pgm")

    analog_dir = out / "maps" / "analogs"
    if analog_dir.exists():
        _, dist_maps = load_grids(analog_dir)
        for name, grid in sorted(dist_maps.items()):
            write_pgm(report_dir / f"{name}.pgm", grid)
            written.append(f"report/{name}.pgm")

    metrics_path = out / "runs" / "metrics.csv"
    if metrics_path.exists():
        (report_dir / "metrics.csv").write_text(metrics_path.read_text())
        written.append("report/metrics.csv")

    recls_path = out / "reclassification.csv"
    if recls_path.exists():
        samples = load_samples(out / "samples.csv")
        with open(recls_path, newline="") as f:
            rows = list(csv.DictReader(f))
        vegetated = [r for r, s in zip(rows, samples)
                     if s.category == "HiSuit-HiVeg"]
        if len(vegetated) >= 2:
            n = min(20, len(vegetated))
            ids = [int(r["site_id"]) for r in vegetated]
            rankings = {"ndvi": {i: float(r["ndvi"]) for i, r in zip(ids, vegetated)}}
            for name in ("blup", "nn", "combined"):
                col = f"score_{name}"
                if col in vegetated[0]:
                    rankings[name] = {i: float(r[col]) for i, r in zip(ids, vegetated)}
            overlap = ranking_overlap(rankings, n=n)
            with open(report_dir / "rankings.csv", "w", newline="") as f:
                w = csv.writer(f)
                w.writerow(["end", "subset", "count"])
                for end in ("top", "bottom"):
                    for combo in sorted(overlap[end]):
                        w.writerow([end, "+".join(combo), overlap[end][combo]])
            written.append("report/rankings.csv")

    print(f"report: {len(written)} artifacts -> {report_dir}")
    return written


# ---------------------------------------------------------------------------
# stage options: each is declared once here and feeds both the flag with
# its help text and config resolution


class Opt(NamedTuple):
    key: str                      # config key; the flag is --key with dashes
    default: object               # None: unset, the stage decides
    cast: Callable
    help: str
    check: tuple = (None, "")     # (predicate, the values it allows)
    env: str | None = None        # consulted after config, before default


def _at_least(lo):
    return (lambda v: v >= lo, f"at least {lo}")


_POSITIVE_LIST = (lambda v: all(s >= 1 for s in v), "positive")
_JOBS = Opt("jobs", 1, int, "worker count", _at_least(1), env="DRYCSS_JOBS")

STAGES: dict[str, tuple[Callable, str, list[Opt]]] = {
    "synth": (cmd_synth, "generate a synthetic cube, NDVI stack, and samples", [
        Opt("seed", 0, int, "synthesis seed", _at_least(0)),
        Opt("grid_size", synth.DESK_GRID.n_lat, int, "nodes per grid side",
            _at_least(8)),
        Opt("steps", synth.DESK_TIME.n_steps, int, "3-hourly time steps",
            _at_least(16)),
        Opt("invalid_fraction", 0.0, float, "fraction of masked pixels",
            (lambda v: 0.0 <= v < 1.0, "in [0, 1)")),
        Opt("counts", tuple(synth.DEFAULT_COUNTS[c] for c in synth.CATEGORIES),
            _int_list, "site counts " + ",".join(synth.CATEGORIES),
            (lambda v: len(v) == 4 and all(c >= 1 for c in v),
             "four positive integers")),
        Opt("min_spacing_km", opportunity.DEFAULT_MIN_SPACING_KM, float,
            "minimum site spacing", _at_least(0)),
    ]),
    "features": (cmd_features, "extract per-sample DFT coefficients", []),
    "train": (cmd_train, "train the BLUP/NN model grid", [
        Opt("blup_sizes", pipeline.DEFAULT_BLUP_SIZES, _int_list,
            "retained bins per variable", _POSITIVE_LIST),
        Opt("nn_sizes", pipeline.DEFAULT_NN_SIZES, _int_list,
            "autoencoder latent sizes", _POSITIVE_LIST),
        Opt("repetitions", pipeline.DEFAULT_REPETITIONS, int,
            "holdout repetitions per cell", _at_least(1)),
        Opt("seed", 0, int, "root seed", _at_least(0)),
        Opt("holdout_fraction", pipeline.DEFAULT_HOLDOUT_FRACTION, float,
            "validation share", (lambda v: 0.0 < v < 1.0, "in (0, 1)")),
        Opt("epochs", TrainParams.epochs, int, "network training epochs",
            _at_least(1)),
        Opt("learning_rate", TrainParams.learning_rate, float, "Adam learning rate",
            (lambda v: v > 0, "> 0")),
        Opt("nn_feature_bins", pipeline.DEFAULT_NN_FEATURE_BINS, int,
            "retained bins per variable for networks", _at_least(1)),
        Opt("blup_lambda", GridSettings.blup_lambda, _shrinkage,
            "shrinkage: auto (= feature count), loo, or a number",
            (lambda v: isinstance(v, str) or v > 0, "auto, loo or > 0")),
        _JOBS,
    ]),
    "predict": (cmd_predict, "score every pixel into CSS maps", [_JOBS]),
    "calibrate": (cmd_calibrate, "reclassification scores + NDVI calibration", []),
    "opportunity": (cmd_opportunity, "calibrated CSS minus NDVI map", [
        Opt("years", None, _int_list,
            "NDVI years to average; every year in the stack when unset"),
    ]),
    "candidates": (cmd_candidates, "extract spaced opportunity peaks", [
        Opt("count", opportunity.DEFAULT_CANDIDATE_COUNT, int,
            "number of candidates", _at_least(1)),
        Opt("min_spacing_km", opportunity.DEFAULT_MIN_SPACING_KM, float,
            "great-circle spacing", _at_least(0)),
        Opt("attributes", None, str, "CSV of site attributes to join"),
        Opt("join", "site", str, "attribute join key, site or coords",
            (lambda v: v in ("site", "coords"), "site or coords")),
        Opt("rules", None, str,
            "JSON rules file; the packaged accessibility rules when only "
            "--attributes is given, no filtering when neither is"),
    ]),
    "analogs": (cmd_analogs, "match candidates to intact climate analogs", [
        Opt("channels", 32, int, "lowest-frequency bins per variable",
            _at_least(1)),
        Opt("max_climate_distance", None, float,
            "absolute distance cap; the percentile rule when unset",
            (lambda v: v > 0, "> 0")),
        Opt("distance_percentile", opportunity.DEFAULT_DISTANCE_PERCENTILE, float,
            "percentile of the distance map used as cap",
            (lambda v: 0.0 < v <= 100.0, "in (0, 100]")),
        Opt("ndvi_margin", opportunity.DEFAULT_NDVI_MARGIN, float,
            "required NDVI improvement", _at_least(0)),
        Opt("exclude", None, str,
            "grid directory whose 'exclusion' grid masks pixels out of the search"),
    ]),
    "report": (cmd_report, "render heatmaps and summary tables", []),
}


def _resolve(args, config: dict, stage: str) -> dict:
    """Every option of a stage, resolved and checked."""
    return {o.key: _cfg(args, config, stage, o.key,
                        os.environ.get(o.env, o.default) if o.env else o.default,
                        o.cast, *o.check)
            for o in STAGES[stage][2]}


def _help(o: Opt) -> str:
    if o.default is None:
        return o.help
    shown = (",".join(map(str, o.default)) if isinstance(o.default, tuple)
             else str(o.default))
    if o.env:
        shown = f"${o.env} or {shown}"
    return f"{o.help} (default {shown})"


def build_parser() -> _Parser:
    parser = _Parser(
        prog="drycss",
        description="Climate suitability pipeline: synthetic data, spectral "
                    "features, BLUP/NN ensembles, CSS and opportunity maps, "
                    "candidate sites, and climate analogs.")
    sub = parser.add_subparsers(dest="command", metavar="stage")
    for name, (_, help_text, options) in STAGES.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--out", required=True, help="workspace directory")
        p.add_argument("--config", default=None,
                       help="JSON config file; flags override it")
        p.add_argument("--force", action="store_true",
                       help="overwrite existing stage outputs")
        for o in options:
            p.add_argument("--" + o.key.replace("_", "-"), default=None, help=_help(o))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.print_help()
            return 1
        opts = _resolve(args, _load_config(args.config), args.command)
        out = Path(args.out)
        artifacts = STAGES[args.command][0](out, opts, args.force)
        _record_stage(out, args.command, opts, artifacts)
        return 0
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (DataError, FileNotFoundError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except NumericalError as e:
        print(f"numerical error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
