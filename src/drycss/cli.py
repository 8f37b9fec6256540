"""drycss command line: stage-by-stage batch pipeline over a workspace.

    drycss synth --out ws          make a synthetic cube + NDVI + samples
    drycss features --out ws       per-sample climate series
    drycss train --out ws          BLUP/NN training grid -> model bundles
    drycss predict --out ws        CSS maps (per kind + combined)
    drycss calibrate --out ws      reclassification scores + NDVI calibration
    drycss opportunity --out ws    calibrated-CSS-minus-NDVI map
    drycss candidates --out ws     spaced candidate sites (+ rule filtering)
    drycss analogs --out ws        climate-analog matches per candidate
    drycss report --out ws         heatmaps, uplift and overlap summaries

`STAGES` declares each stage once: its options, the workspace paths it
reads (`needs`, and `reads` used only when present, each with the stage
that writes it) and the paths it writes (`makes`). From that table
`main` runs every stage the same way:

1. every need must exist (exit 2, "run `drycss <producer>` first");
2. every stage upstream of it (the producers of its needs and reads, and
   theirs), taken in table order, must have recorded in ws/manifest.json
   the current stamp of each of its own needs, or the first that did not
   is named (exit 2, "rerun `drycss <stage>`");
3. existing outputs are refused without --force (exit 2), and with it
   removed, and the stage's manifest record dropped, before it runs;
4. the stage runs, and if it raises, what it wrote of its outputs is removed;
5. its options, outputs and the stamps of its inputs go into the manifest.

A stamp is the sha256 of a file, or of a directory's meta.json, which
holds a digest of the directory's data. Only `synth` is a source stage,
so a hand-supplied cube, NDVI stack or samples table needs no record.
Bad flags or config exit 1; numerical failures exit 3. All numeric
artifacts are byte-deterministic for a fixed seed; the manifest differs
in timestamps only.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import opportunity, pipeline, synth
from .bundles import load_model_bundle, save_model_bundle
from .errors import (DataError, NumericalError, check_distinct, json_int, json_names,
                     json_number, json_str, read_json, read_table, write_json, write_table)
from .grid import (GridSpec, TimeAxis, content_digest, load_cube, load_grids, load_ndvi,
                   read_f32, read_meta, regrid_ndvi, save_cube, save_dir, save_grids, save_ndvi,
                   series_products, sha256_file)
from .neural import TrainParams
from .opportunity import (AnalogMatch, CandidateSite, default_rules, extract_candidates,
                          filter_candidates, find_analog, join_attributes,
                          load_attribute_table, load_rules, opportunity_map,
                          uplift_report)
from .pipeline import (Calibration, GridSettings, aggregate_metrics, category_means,
                       derive_seed, fit_calibration, load_samples, map_agreement_iou,
                       predict_map, ranking_overlap, run_training_grid, sample_series,
                       save_run_record, save_samples, validation_rows)
from .spectral import dft_basis, n_bins, truncated_coefficients

dft_coefficients = pipeline.dft_coefficients  # bench/spans.py wraps it here (test_tracer)
ensemble_scores = pipeline.ensemble_scores  # bench/spans.py wraps it here (test_tracer)


class UsageError(Exception):
    """Bad flags or configuration; exits 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems; this tool reserves 2 for
    # missing inputs, so route usage failures to exit 1 instead
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _stamp_file(out: Path, rel: str) -> Path:
    path = out / rel
    return path / "meta.json" if path.is_dir() else path


def _stamp(out: Path, rel: str, producer: str) -> str:
    """sha256 of the workspace file rel, or of its meta.json when rel is a
    directory; the meta.json must parse, so a corrupt one is reported as
    corrupt rather than as changed."""
    path = _stamp_file(out, rel)
    if not path.exists():
        raise DataError(f"{rel} not found: {path} (run `drycss {producer}` first)")
    if path.name == "meta.json":
        read_json(path, f"{rel} metadata")
    return sha256_file(path)


def _check_upstream(out: Path, producers, records: dict) -> None:
    """Refuse to run a stage unless each producer of its inputs, and each
    stage upstream of them, recorded the current stamp of each of its
    needs. Upstream stages are checked in STAGES order, upstream first,
    so the refusal names the first stage to rerun."""
    upstream = set(producers)
    for name in reversed(STAGES):  # each producer comes before its consumers
        if name in upstream:
            upstream.update(STAGES[name].needs.values())
    for name, row in STAGES.items():
        if name not in upstream:
            continue
        recorded = records.get(name, {}).get("inputs", {})
        for rel, producer in row.needs.items():
            if recorded.get(rel) != _stamp(out, rel, producer):
                changed = _stamp_file(out, rel).relative_to(out)
                raise DataError(
                    f"stale {', '.join(row.makes)}: {changed} changed since the last "
                    f"`drycss {name}`, or that run recorded no hash of it; "
                    f"rerun `drycss {name}`")


def _manifest(doc) -> dict:
    """manifest.json as main uses it: stages of record objects with inputs objects."""
    records = doc["stages"]
    if not (isinstance(records, dict) and all(isinstance(r, dict) for r in records.values())):
        raise TypeError("stages: not an object of record objects")
    if not all(isinstance(r.get("inputs", {}), dict) for r in records.values()):
        raise TypeError("inputs: not an object")
    return doc


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    p = Path(path)
    if not p.is_file():  # a directory too
        raise UsageError(f"config file not found: {p}")
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    except ValueError as e:  # JSONDecodeError and UnicodeDecodeError
        raise UsageError(f"config file {p} is not valid JSON: {e}")
    if not isinstance(doc, dict):
        raise UsageError(f"config file {p} must hold a JSON object")
    every = {o.key for row in STAGES.values() for o in row.options}
    for key, value in doc.items():
        if key not in STAGES and key not in every:
            raise UsageError(f"unknown config key {key!r} in {p}: not a stage or an option")
        if key in STAGES and not isinstance(value, dict):
            raise UsageError(f"config section {key!r} in {p} must be a JSON object, "
                             f"not {value!r}")
        for name in sorted(value) if key in STAGES else []:
            if name not in {o.key for o in STAGES[key].options}:
                raise UsageError(f"unknown config key {name!r} in section {key!r} of {p}")
    return doc


def _int_list(values) -> tuple[int, ...]:
    """A flag's comma-separated integers, or a tuple of integers; not empty."""
    if isinstance(values, str):
        values = [int(p) for p in values.split(",") if p.strip()]
    if not values:
        raise ValueError("empty list")
    return tuple(values)


def _shrinkage(value, number=float) -> str | float:
    return value if value in ("auto", "loo") else number(value)


# each cast's reader of a config value, one of the readers of workspace JSON,
# and what both accept, for the "bad value" error; a list reader iterates the
# value, so a string or an object yields strings, which json_int refuses
_CONFIG_READERS = {
    int: (json_int, "an integer"), float: (json_number, "a number"), str: (json_str, "a string"),
    _int_list: (lambda value, key: _int_list(tuple(json_int(v, key) for v in value)),
                "a list of integers, comma-separated in a flag"),
    _shrinkage: (lambda value, key: _shrinkage(value, lambda v: json_number(v, key)),
                 "auto, loo or a number")}


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
# stages: each takes the workspace and its resolved options; main has
# checked its inputs, and refused or cleared its outputs, before it runs


def cmd_synth(out: Path, opts: dict) -> None:
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

    save_cube(cube, out / "cube")
    save_ndvi(raster, out / "ndvi")
    save_grids(out / "truth", spec,
               {"suitability": suitability,
                "irrigated": irrigated.astype(np.float64),
                "degraded": degraded.astype(np.float64)})
    save_samples(samples, out / "samples.csv")
    print(f"synth: {n}x{n} cube, {len(raster.observations)} NDVI "
          f"observations, {len(samples)} samples -> {out}")


def cmd_features(out: Path, opts: dict) -> None:
    cube = load_cube(out / "cube")
    samples = load_samples(out / "samples.csv")
    feat_dir = out / "features"
    save_dir(feat_dir, {"format": "drycss-features", "grid": cube.spec.to_dict(),
                        "time": cube.time.to_dict(), "variables": list(cube.variables)},
             zip(cube.variables, sample_series(cube, samples)))
    print(f"features: {len(samples)} samples x {len(cube.variables)} variables "
          f"x {cube.time.n_steps} steps -> {feat_dir}")


def cmd_train(out: Path, opts: dict) -> None:
    feat_dir = out / "features"
    samples = load_samples(out / "samples.csv")
    _, (time, variables, digest) = read_meta(
        feat_dir, "drycss-features", "feature", lambda meta: (
            TimeAxis.from_dict(meta["time"]), json_names(meta["variables"], "variables"),
            meta["digest"]))
    n, fraction = len(samples), opts["holdout_fraction"]
    names = [f"{var}.f32" for var in variables]  # float32 [n, steps], checked before any read
    lacking = [name for name in names if not (feat_dir / name).is_file()
               or (feat_dir / name).stat().st_size != 4 * n * time.n_steps]
    if lacking or content_digest(feat_dir, names) != digest:
        problem = (f"lacks {lacking[0]} of {n} x {time.n_steps} float32 values" if lacking
                   else "does not match the digest in its meta.json")
        raise DataError(f"feature cache {feat_dir} {problem}; rerun `drycss features`")
    bins, n_inputs = n_bins(time.n_steps), len(variables) * opts["nn_feature_bins"] * 2
    for key, value, limit, what in (
            ("blup_sizes", max(opts["blup_sizes"]), bins, "bins per variable"),
            ("nn_feature_bins", opts["nn_feature_bins"], bins, "bins per variable"),
            ("nn_sizes", max(opts["nn_sizes"]), n_inputs, "network input features")):
        if value > limit:
            raise UsageError(f"train.{key}={value} exceeds {limit} {what}")
    n_train = n - validation_rows(n, fraction)
    if n_train < 2:
        raise UsageError(f"train.holdout_fraction={fraction} leaves {n_train} of {n} "
                         "samples to train on; a run needs at least 2")
    labels = np.array([s.label for s in samples])
    settings = GridSettings(
        variables=variables, n_steps=time.n_steps,
        holdout_fraction=opts["holdout_fraction"],
        nn_feature_bins=opts["nn_feature_bins"], blup_lambda=opts["blup_lambda"],
        train_params=TrainParams(learning_rate=opts["learning_rate"],
                                 epochs=opts["epochs"]))
    blocks = (read_f32(feat_dir, var, (n, time.n_steps), mmap=True) for var in variables)
    runs, models = run_training_grid(
        blocks, labels, settings, blup_sizes=opts["blup_sizes"], nn_sizes=opts["nn_sizes"],
        repetitions=opts["repetitions"], root_seed=opts["seed"], jobs=opts["jobs"])

    runs_dir = out / "runs"
    for run, model in zip(runs, models):
        run_dir = runs_dir / run.run_id
        if model is not None:
            save_model_bundle(model, run_dir)
        else:
            run_dir.mkdir(parents=True, exist_ok=True)
        save_run_record(run, run_dir / "predictions.json")

    rows = aggregate_metrics(runs)
    write_table(runs_dir / "metrics.csv", list(rows[0]), (row.values() for row in rows))
    write_json(runs_dir / "meta.json", {
        "models": [run.run_id for run, model in zip(runs, models) if model is not None],
        "digest": content_digest(runs_dir, sorted(
            p.relative_to(runs_dir).as_posix() for p in runs_dir.rglob("*") if p.is_file()))})

    n_failed = sum(1 for r in runs if r.failed)
    print(f"train: {len(runs)} runs ({n_failed} failed) -> {runs_dir}")


def cmd_predict(out: Path, opts: dict) -> None:
    cube = load_cube(out / "cube")
    runs_dir = out / "runs"
    meta_path = runs_dir / "meta.json"  # the bundles in grid order
    ids = read_json(meta_path, "runs metadata", lambda meta: json_names(meta["models"], "models"))
    if not ids:
        raise DataError(f"no model bundles under {runs_dir}: every training run failed")
    check_distinct(ids, "model", meta_path)
    for run_id in ids:
        if not (runs_dir / run_id).is_dir():
            raise DataError(f"model bundle {runs_dir / run_id} listed in {meta_path} "
                            "is missing; rerun `drycss train`")
    models = [load_model_bundle(runs_dir / run_id) for run_id in ids]
    css_dir = out / "maps" / "css"
    maps = predict_map(models, cube, jobs=opts["jobs"])
    save_grids(css_dir, cube.spec, maps)
    print(f"predict: {len(models)} models -> {css_dir} ({', '.join(sorted(maps))})")


def cmd_calibrate(out: Path, opts: dict) -> None:
    samples = load_samples(out / "samples.csv")
    css_dir = out / "maps" / "css"
    spec, maps = load_grids(css_dir)
    if "combined" not in maps:
        raise DataError(f"no 'combined' grid in {css_dir}")
    for s in samples:  # features placed each at a valid node of the cube predict scored
        if not (0 <= s.iy < spec.n_lat and 0 <= s.ix < spec.n_lon
                and all(np.isfinite(grid[s.iy, s.ix]) for grid in maps.values())):
            raise DataError(f"{css_dir} holds no finite score of sample {s.site_id} at "
                            f"node ({s.iy}, {s.ix}); rerun `drycss predict`")
    iy, ix = [s.iy for s in samples], [s.ix for s in samples]
    scores = {name: grid[iy, ix].astype(np.float64) for name, grid in maps.items()}
    cal = fit_calibration(samples, scores["combined"])

    names = sorted(k for k in scores if k != "combined") + ["combined"]
    write_table(out / "reclassification.csv",
                ["site_id", "category", "label", "ndvi"] + [f"score_{n}" for n in names],
                ([s.site_id, s.category, s.label, s.ndvi] + [scores[n][i] for n in names]
                 for i, s in enumerate(samples)))
    doc = cal.to_dict()
    doc["category_means"] = category_means(samples, scores["combined"])
    write_json(out / "calibration.json", doc)
    print(f"calibrate: slope={cal.slope:.4f} intercept={cal.intercept:.4f} "
          f"r2={cal.r2:.3f} on {cal.n} samples")


def _named_grids(path: Path, *names: str):
    """The grid set at path: its spec and the grids called names, in
    order. A set that lacks one is a DataError naming it."""
    spec, grids = load_grids(path)
    for name in names:
        if name not in grids:
            raise DataError(f"no {name!r} grid in {path}")
    return spec, [grids[name] for name in names]


def cmd_opportunity(out: Path, opts: dict) -> None:
    spec, (css,) = _named_grids(out / "maps" / "css", "combined")
    raster = load_ndvi(out / "ndvi")
    cal = read_json(out / "calibration.json", "calibration", Calibration.from_dict)
    if opts["years"] is None:  # the manifest records the years actually used
        opts["years"] = sorted({obs.year for obs in raster.observations})
    opp_dir = out / "maps" / "opportunity"
    summer = regrid_ndvi(raster, spec, years=opts["years"])
    opp = opportunity_map(css, summer, cal)
    save_grids(opp_dir, spec, {"opportunity": opp, "ndvi_summer": summer})
    n_pos = int(np.sum(np.isfinite(opp) & (opp > 0)))
    print(f"opportunity: {n_pos} pixels with positive opportunity -> {opp_dir}")


def _write_candidates(path: Path, sites: list[CandidateSite]) -> None:
    keys = sorted({k for s in sites for k in s.attributes})
    write_table(path, ["rank", "lat", "lon", "iy", "ix", "opportunity", "css", "ndvi",
                       "retained", "missing_attributes"] + [f"attr_{k}" for k in keys],
                ([s.rank, s.lat, s.lon, s.iy, s.ix, s.opportunity, s.css, s.ndvi,
                  s.retained, s.missing_attributes] + [s.attributes.get(k) for k in keys]
                 for s in sites))


def _read_candidates(path: Path) -> list[CandidateSite]:
    sites = read_table(path, "candidates table", lambda r: CandidateSite(
        rank=int(r["rank"]), lat=float(r["lat"]), lon=float(r["lon"]),
        iy=int(r["iy"]), ix=int(r["ix"]), opportunity=float(r["opportunity"]),
        css=float(r["css"]), ndvi=float(r["ndvi"]),
        attributes={k[5:]: v for k, v in r.items() if str(k).startswith("attr_") and v},
        retained=None if r.get("retained", "") == "" else r["retained"] == "True",
        missing_attributes=r.get("missing_attributes") == "True"))
    if not sites:
        raise DataError(f"candidates table is empty: {path}")
    return sites


def cmd_candidates(out: Path, opts: dict) -> None:
    spec, (opp, ndvi) = _named_grids(out / "maps" / "opportunity",
                                     "opportunity", "ndvi_summer")
    _, (css,) = _named_grids(out / "maps" / "css", "combined")
    path = out / "candidates.csv"
    sites = extract_candidates(opp, spec, css=css, ndvi=ndvi, count=opts["count"],
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


def cmd_analogs(out: Path, opts: dict) -> None:
    cube = load_cube(out / "cube")
    _, (ndvi,) = _named_grids(out / "maps" / "opportunity", "ndvi_summer")
    sites = _read_candidates(out / "candidates.csv")
    channels = opts["channels"]

    # only sites that survived filtering, or all if filtering never ran
    any_filtered = any(s.retained is not None for s in sites)
    targets = [s for s in sites if s.retained] if any_filtered else sites
    if not targets:
        raise DataError("no retained candidates to match; relax the rules")
    for s in targets:
        if not (0 <= s.iy < cube.spec.n_lat and 0 <= s.ix < cube.spec.n_lon):
            raise DataError(f"candidate {s.rank} in {out / 'candidates.csv'} lies at node "
                            f"({s.iy}, {s.ix}), outside the {cube.spec.n_lat}x"
                            f"{cube.spec.n_lon} grid")

    max_chan = n_bins(cube.time.n_steps)
    if channels > max_chan:
        raise UsageError(f"analogs.channels={channels} exceeds {max_chan} bins")

    exclusion = None
    if opts["exclude"]:
        espec, (excluded,) = _named_grids(Path(opts["exclude"]), "exclusion")
        if espec != cube.spec:
            raise DataError(f"exclusion grid {espec} does not match the cube grid {cube.spec}")
        exclusion = excluded > 0.5

    # only bins 0..channels-1 are kept, so only those are computed, per variable
    T, width = cube.time.n_steps, channels * 2
    vectors = np.full(cube.spec.shape + (len(cube.variables) * width,), np.nan)
    basis = dft_basis(T, range(channels)).T
    for vi, parts in enumerate(series_products(cube, [basis] * len(cube.variables))):
        coeffs = (parts[:channels] + 1j * parts[channels:]).T[:, None] / T
        vectors[cube.mask, vi * width:(vi + 1) * width] = truncated_coefficients(coeffs, channels)

    results, dists = zip(*(find_analog(site, vectors, cube.spec, ndvi, exclusion=exclusion,
                                       max_climate_distance=opts["max_climate_distance"],
                                       distance_percentile=opts["distance_percentile"],
                                       ndvi_margin=opts["ndvi_margin"])
                           for site in targets))
    report = uplift_report(results)  # rows in target order, like results
    write_table(out / "analogs.csv",
                ["site", "candidate_lat", "candidate_lon", "analog_lat", "analog_lon",
                 "climate_distance", "spatial_km", "candidate_ndvi", "analog_ndvi",
                 "ratio", "note"],
                ([s.rank, s.lat, s.lon]
                 + ([m.lat, m.lon, m.climate_distance, m.spatial_km, m.candidate_ndvi,
                     m.analog_ndvi] if isinstance(m, AnalogMatch) else [None] * 6)
                 + [row["ratio"], row["note"]]
                 for s, m, row in zip(targets, results, report.rows)))
    save_grids(out / "maps" / "analogs", cube.spec,
               {f"dist_site_{s.rank}": dist for s, dist in zip(targets, dists)})
    write_json(out / "uplift.json", asdict(report))
    print(f"analogs: {report.n_used} matches over {len(targets)} candidates; "
          f"mean of ratios {report.mean_of_ratios:.3f}, "
          f"ratio of means {report.ratio_of_means:.3f}")


def cmd_report(out: Path, opts: dict) -> None:
    report_dir = out / "report"
    report_dir.mkdir()

    _, css_maps = load_grids(out / "maps" / "css")
    for name, grid in sorted(css_maps.items()):
        write_pgm(report_dir / f"css_{name}.pgm", grid)
    if "blup" in css_maps and "nn" in css_maps:
        iou = map_agreement_iou(css_maps["blup"], css_maps["nn"])
        write_json(report_dir / "iou.json", {"blup_vs_nn_iou_at_0.5": iou})

    for maps_dir in (out / "maps" / "opportunity", out / "maps" / "analogs"):
        if maps_dir.exists():
            for name, grid in sorted(load_grids(maps_dir)[1].items()):
                write_pgm(report_dir / f"{name}.pgm", grid)

    metrics_path = out / "runs" / "metrics.csv"
    if metrics_path.exists():
        (report_dir / "metrics.csv").write_text(metrics_path.read_text())

    recls_path = out / "reclassification.csv"
    if recls_path.exists():
        # per row: its category, site id, and NDVI and scores by ranking name
        rows = read_table(recls_path, "reclassification table", lambda r: (
            r["category"], int(r["site_id"]),
            {str(k).removeprefix("score_"): float(v) for k, v in r.items()
             if k == "ndvi" or str(k).startswith("score_")}))
        check_distinct((i for _, i, _ in rows), "site_id", recls_path)
        vegetated = [(i, values) for cat, i, values in rows if cat == "HiSuit-HiVeg"]
        if len(vegetated) >= 2:
            rankings = {name: {i: values[name] for i, values in vegetated}
                        for name in vegetated[0][1]}
            overlap = ranking_overlap(rankings, n=min(20, len(vegetated)))
            write_table(report_dir / "rankings.csv", ["end", "subset", "count"],
                        ([end, "+".join(combo), overlap[end][combo]]
                         for end in ("top", "bottom") for combo in sorted(overlap[end])))

    print(f"report: {len(list(report_dir.iterdir()))} artifacts -> {report_dir}")


# ---------------------------------------------------------------------------
# the stage table: each option is declared once here and feeds both the
# flag with its help text and config resolution; needs and makes are the
# stage graph that main checks


class Opt(NamedTuple):
    key: str                      # config key; the flag is --key with dashes
    default: object               # None: unset, the stage decides
    cast: Callable
    help: str
    check: tuple = (None, "")     # (predicate, the values it allows)
    env: str | None = None        # consulted after config, before default


def _at_least(lo):
    return (lambda v: v >= lo, f"at least {lo}")


_DISTINCT_SIZES = (lambda v: min(v) >= 1 and len(set(v)) == len(v), "positive, distinct")
_JOBS = Opt("jobs", 1, int, "worker count", _at_least(1), env="DRYCSS_JOBS")


class Stage(NamedTuple):
    run: Callable                 # (workspace, resolved options) -> None
    help: str
    options: list[Opt]
    needs: dict[str, str]         # workspace path read -> the stage that makes it
    makes: tuple[str, ...]        # workspace paths written
    reads: dict[str, str] = {}    # like needs, but read only when present


STAGES: dict[str, Stage] = {
    "synth": Stage(cmd_synth, "generate a synthetic cube, NDVI stack, and samples", [
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
    ], {}, ("cube", "ndvi", "truth", "samples.csv")),
    "features": Stage(cmd_features, "gather each reference sample's climate series", [],
                      {"samples.csv": "synth", "cube": "synth"}, ("features",)),
    "train": Stage(cmd_train, "train the BLUP/NN model grid", [
        Opt("blup_sizes", pipeline.DEFAULT_BLUP_SIZES, _int_list,
            "retained bins per variable", _DISTINCT_SIZES),
        Opt("nn_sizes", pipeline.DEFAULT_NN_SIZES, _int_list,
            "autoencoder latent sizes", _DISTINCT_SIZES),
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
            (lambda v: isinstance(v, str) or 0 < v < float("inf"),
             "auto, loo or a positive number")),
        _JOBS,
    ], {"features": "features", "samples.csv": "synth"}, ("runs",)),
    "predict": Stage(cmd_predict, "score every pixel into CSS maps", [_JOBS],
                     {"cube": "synth", "runs": "train"}, ("maps/css",)),
    "calibrate": Stage(cmd_calibrate, "reclassification scores + NDVI calibration", [],
                       {"maps/css": "predict", "samples.csv": "synth"},
                       ("calibration.json", "reclassification.csv")),
    "opportunity": Stage(cmd_opportunity, "calibrated CSS minus NDVI map", [
        Opt("years", None, _int_list,
            "NDVI years to average; every year in the stack when unset"),
    ], {"maps/css": "predict", "ndvi": "synth", "calibration.json": "calibrate"},
        ("maps/opportunity",)),
    "candidates": Stage(cmd_candidates, "extract spaced opportunity peaks", [
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
    ], {"maps/opportunity": "opportunity", "maps/css": "predict"}, ("candidates.csv",)),
    "analogs": Stage(cmd_analogs, "match candidates to intact climate analogs", [
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
    ], {"cube": "synth", "maps/opportunity": "opportunity", "candidates.csv": "candidates"},
        ("analogs.csv", "uplift.json", "maps/analogs")),
    "report": Stage(cmd_report, "render heatmaps and summary tables", [],
                    {"maps/css": "predict"}, ("report",),
                    {"maps/opportunity": "opportunity", "maps/analogs": "analogs",
                     "runs/metrics.csv": "train", "reclassification.csv": "calibrate"}),
}


def _resolve(args, config: dict, stage: str) -> dict:
    """Every option of a stage, resolved and checked: the flag, else
    config[stage][key] or config[key], else the option's environment
    variable, else its default."""
    section = config.get(stage, {})
    opts = {}
    for o in STAGES[stage].options:
        value = getattr(args, o.key, None)
        from_config = value is None and (o.key in section or o.key in config)
        if from_config:  # null leaves an option without a default unset
            value = section.get(o.key, config.get(o.key))
        elif value is None:
            value = os.environ.get(o.env, o.default) if o.env else o.default
        if value is not None or from_config and o.default is not None:
            try:
                read, expected = _CONFIG_READERS[o.cast]
                value = read(value, o.key) if from_config else o.cast(value)
            except (TypeError, ValueError):
                raise UsageError(f"bad value for {stage}.{o.key}: {value!r} (expected {expected})")
            check, allowed = o.check
            if check is not None and not check(value):
                raise UsageError(f"{stage}.{o.key}={value!r} out of range ({allowed})")
        opts[o.key] = value
    return opts


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
    for name, stage in STAGES.items():
        p = sub.add_parser(name, help=stage.help)
        p.add_argument("--out", required=True, help="workspace directory")
        p.add_argument("--config", default=None,
                       help="JSON config file; flags override it")
        p.add_argument("--force", action="store_true",
                       help="replace existing stage outputs")
        for o in stage.options:
            p.add_argument("--" + o.key.replace("_", "-"), default=None, help=_help(o))
    return parser


def _remove(out: Path, makes) -> None:
    """Remove each of a stage's outputs that exists."""
    for path in (out / rel for rel in makes):
        if path.is_dir():
            shutil.rmtree(path)
        elif path.exists():
            path.unlink()


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.print_help()
            return 1
        stage = STAGES[args.command]
        opts = _resolve(args, _load_config(args.config), args.command)
        out = Path(args.out)
        producers = {**stage.needs, **{rel: producer for rel, producer in stage.reads.items()
                                       if (out / rel).exists()}}
        inputs = {rel: _stamp(out, rel, producer) for rel, producer in producers.items()}
        manifest_path = out / "manifest.json"
        manifest = (read_json(manifest_path, "manifest", _manifest) if manifest_path.exists()
                    else {"stages": {}})
        records = manifest["stages"]
        _check_upstream(out, producers.values(), records)
        for path in (out / rel for rel in stage.makes):
            if path.exists() and not args.force:
                raise DataError(f"output already exists: {path} (rerun with --force)")
        _remove(out, stage.makes)  # --force: nothing of an earlier run survives
        if records.pop(args.command, None) is not None:  # nor its record
            write_json(manifest_path, manifest)
        try:
            stage.run(out, opts)
        except BaseException:  # nor anything of a run that failed
            _remove(out, stage.makes)
            raise
        records[args.command] = {
            "completed_utc": datetime.now(timezone.utc).isoformat(),
            "config": opts, "artifacts": sorted(stage.makes), "inputs": inputs}
        write_json(manifest_path, manifest)
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
