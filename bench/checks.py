"""Correctness checks on a finished workspace, made apart from drycss.

Nothing here imports the package. Workspace files are read with plain
numpy and csv, and each expected value is recomputed from the method's
definition: numpy's FFT or an explicit DFT basis for the spectra, dot
products and an explicit matmul / batch-norm / ReLU pass for the models,
brute-force haversine and brute-force search for candidates and analogs.
Each check appends a message to `failures` instead of raising, so one
run reports every fault it finds.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

# recovery bounds; see README for why the out-of-fold floor sits below
# the acceptance fixture's 0.8
CSS_MAP_R_MIN = 0.8
OOF_VAL_R_MIN = 0.5

# the method's constants, as the paper and the CLI defaults define them
BN_EPS = 1e-5
CALIBRATION_CATEGORIES = ("HiSuit-HiVeg", "LoSuit-LoVeg")
MIN_SPACING_KM = 9.0
EARTH_RADIUS_KM = 6371.0
ANALOG_CHANNELS = 32
DISTANCE_PERCENTILE = 10.0
NDVI_MARGIN = 0.02
# sites the published Table S4 keeps under the packaged rules
PUBLISHED_RETAINED = {3, 4, 5, 7, 9, 14, 15, 16, 18, 19, 21, 22, 24}

SAMPLED_PIXELS = 12


def close(a, b, rtol=1e-6, atol=1e-6) -> bool:
    return bool(np.all(np.abs(np.asarray(a) - np.asarray(b))
                       <= atol + rtol * np.abs(np.asarray(b))))


def pearson(a, b) -> float:
    a = np.asarray(a, dtype=np.float64) - np.mean(a)
    b = np.asarray(b, dtype=np.float64) - np.mean(b)
    return float(np.sum(a * b) / math.sqrt(np.sum(a * a) * np.sum(b * b)))


def haversine_km(lat1, lon1, lat2, lon2):
    p1, p2 = np.radians(lat1), np.radians(lat2)
    dp, dl = p2 - p1, np.radians(np.asarray(lon2) - np.asarray(lon1))
    h = np.sin(dp / 2) ** 2 + np.cos(p1) * np.cos(p2) * np.sin(dl / 2) ** 2
    return 2 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.minimum(h, 1.0)))


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def read_grids(path: Path) -> tuple[dict, dict[str, np.ndarray]]:
    meta = json.loads((path / "meta.json").read_text())
    g = meta["grid"]
    shape = (g["n_lat"], g["n_lon"])
    return g, {name: np.fromfile(path / f"{name}.f32", dtype="<f4")
               .reshape(shape).astype(np.float64) for name in meta["names"]}


def node(g: dict, iy: int, ix: int) -> tuple[float, float]:
    dlat = (g["lat_max"] - g["lat_min"]) / (g["n_lat"] - 1)
    dlon = (g["lon_max"] - g["lon_min"]) / (g["n_lon"] - 1)
    return g["lat_min"] + iy * dlat, g["lon_min"] + ix * dlon


# ---------------------------------------------------------------------------
# recovery


def css_map_r(ws: Path) -> float:
    _, css = read_grids(ws / "maps" / "css")
    _, truth = read_grids(ws / "truth")
    a, b = css["combined"], truth["suitability"]
    ok = np.isfinite(a) & np.isfinite(b)
    return pearson(a[ok], b[ok])


def oof_val_r(ws: Path) -> float:
    """Each sample's mean score over the runs that held it out, against
    its label, over the samples some run held out."""
    labels = np.array([float(r["label"]) for r in read_csv(ws / "samples.csv")])
    sums = np.zeros(labels.size)
    held = np.zeros(labels.size)
    for path in sorted((ws / "runs").glob("*/predictions.json")):
        rec = json.loads(path.read_text())
        if rec["failed"]:
            continue
        val = np.asarray(rec["val_ids"], dtype=int)
        sums[val] += np.asarray(rec["scores"])[val]
        held[val] += 1
    seen = held > 0
    return pearson(sums[seen] / held[seen], labels[seen])


# ---------------------------------------------------------------------------
# model bundles, re-evaluated by hand


def load_bundles(ws: Path) -> list[dict]:
    models = []
    for d in sorted((ws / "runs").iterdir()):
        if not (d / "model.json").exists():
            continue
        doc = json.loads((d / "model.json").read_text())
        feat = json.loads((d / "features.json").read_text())
        w = np.fromfile(d / "weights.f32", dtype="<f4").astype(np.float64)
        model = {"kind": doc["kind"], "bins": np.asarray(feat["bins"]),
                 "norm": [np.asarray(feat[k]) for k in
                          ("mean_re", "std_re", "mean_im", "std_im")]}
        if doc["kind"] == "blup":
            model["intercept"], model["effects"] = doc["intercept"], w
        else:
            model["nets"] = unpack_nets(doc["sections"], w)
        models.append(model)
    return models


def unpack_nets(sections: list[dict], w: np.ndarray) -> dict[str, list[dict]]:
    """Weights are section-major; within a section W, b (gamma, beta)
    per layer, then running mean/var of each batch-norm layer."""
    pos = 0

    def take(n):
        nonlocal pos
        pos += n
        return w[pos - n:pos]

    nets = {}
    for sec in sections:
        layers = []
        for t in sec["topology"]:
            layer = {"W": take(t["n_in"] * t["n_out"]).reshape(t["n_in"], t["n_out"]),
                     "b": take(t["n_out"]), "relu": t["activation"] == "relu",
                     "bn": t["batch_norm"]}
            if layer["bn"]:
                layer["gamma"], layer["beta"] = take(t["n_out"]), take(t["n_out"])
            layers.append(layer)
        for layer in layers:
            if layer["bn"]:
                layer["mean"], layer["var"] = take(layer["b"].size), take(layer["b"].size)
        nets[sec["name"]] = layers
    if pos != w.size:
        raise ValueError(f"weights hold {w.size} values, topology uses {pos}")
    return nets


def model_score(model: dict, c: np.ndarray) -> float:
    """Score one pixel from its spectrum c [n_variables, n_bins]."""
    bins = model["bins"]
    sel = c[np.arange(bins.shape[0])[:, None], bins]
    mean_re, std_re, mean_im, std_im = model["norm"]
    x = np.stack([(sel.real - mean_re) / std_re,
                  (sel.imag - mean_im) / std_im], axis=-1).ravel()
    if model["kind"] == "blup":
        return float(model["intercept"] + x @ model["effects"])
    h = x
    for name in ("encoder", "classifier"):
        for layer in model["nets"][name]:
            h = h @ layer["W"] + layer["b"]
            if layer["bn"]:
                h = ((h - layer["mean"]) / np.sqrt(layer["var"] + BN_EPS)
                     * layer["gamma"] + layer["beta"])
            if layer["relu"]:
                h = np.maximum(h, 0.0)
    return float(h[0])


# ---------------------------------------------------------------------------
# one pass over the cube


def cube_pass(ws: Path, pixels: list[tuple[int, int]], channels: int):
    """Series at the given pixels [n, variables, T] and, when channels >
    0, each pixel's low-bin climate vector [n_lat, n_lon, d] from an
    explicit DFT basis (NaN at invalid pixels)."""
    meta = json.loads((ws / "cube" / "meta.json").read_text())
    g, T = meta["grid"], meta["time"]["n_steps"]
    H, W = g["n_lat"], g["n_lon"]
    variables = meta["variables"]
    series = np.empty((len(pixels), len(variables), T))
    vectors = None
    if channels:
        t = np.arange(T)[:, None] * np.arange(channels)[None, :] * (2 * np.pi / T)
        basis = np.empty((T, channels, 2))
        basis[..., 0] = np.cos(t) / T
        basis[..., 1] = -np.sin(t) / T
        basis = basis.reshape(T, 2 * channels)
        vectors = np.empty((H * W, len(variables), 2 * channels))
    valid = np.ones(H * W, dtype=bool)
    for vi, var in enumerate(variables):
        x = np.fromfile(ws / "cube" / f"{var}.f32", dtype="<f4").reshape(T, H * W)
        for pi, (iy, ix) in enumerate(pixels):
            series[pi, vi] = x[:, iy * W + ix]
        valid &= ~np.isnan(x).any(axis=0)
        if channels:
            vectors[:, vi, :] = (basis.T @ x.astype(np.float64)).T
    if channels:
        vectors = vectors.reshape(H, W, -1)
        vectors[~valid.reshape(H, W)] = np.nan
    return series, vectors


def check_sampled_pixels(ws: Path, series: np.ndarray, pixels, failures: list) -> None:
    """CSS at sampled pixels, recomputed from the bundles, against the maps."""
    _, css = read_grids(ws / "maps" / "css")
    models = load_bundles(ws)
    spectra = np.fft.rfft(series, axis=-1) / series.shape[-1]
    for (iy, ix), c in zip(pixels, spectra):
        scores = {"blup": [], "nn": []}
        for m in models:
            scores[m["kind"]].append(model_score(m, c))
        expect = {k: np.mean(v) for k, v in scores.items() if v}
        expect["combined"] = np.mean(scores["blup"] + scores["nn"])
        for name, value in expect.items():
            if not close(css[name][iy, ix], value):
                failures.append(f"css {name} at ({iy},{ix}): map "
                                f"{css[name][iy, ix]!r}, recomputed {value!r}")


def sample_pixels(ws: Path, seed: int) -> list[tuple[int, int]]:
    _, css = read_grids(ws / "maps" / "css")
    flat = np.flatnonzero(np.isfinite(css["combined"]).ravel())
    pick = np.random.default_rng(seed).choice(flat, size=min(SAMPLED_PIXELS, flat.size),
                                               replace=False)
    return [divmod(int(p), css["combined"].shape[1]) for p in np.sort(pick)]


# ---------------------------------------------------------------------------
# calibration, opportunity, candidates, analogs


def check_calibration(ws: Path, failures: list) -> dict:
    cal = json.loads((ws / "calibration.json").read_text())
    rows = read_csv(ws / "reclassification.csv")
    samples = read_csv(ws / "samples.csv")
    _, css = read_grids(ws / "maps" / "css")
    for row, s in zip(rows, samples):
        score = float(row["score_combined"])
        if not close(css["combined"][int(s["iy"]), int(s["ix"])], score):
            failures.append(f"reclassification score of site {s['site_id']} "
                            f"{score!r} differs from the CSS map")
    pick = [r for r in rows if r["category"] in CALIBRATION_CATEGORIES]
    x = np.array([float(r["score_combined"]) for r in pick])
    y = np.array([float(r["ndvi"]) for r in pick])
    slope = np.sum((x - x.mean()) * (y - y.mean())) / np.sum((x - x.mean()) ** 2)
    intercept = y.mean() - slope * x.mean()
    if not (close(cal["slope"], slope, 1e-9, 1e-12)
            and close(cal["intercept"], intercept, 1e-9, 1e-12)):
        failures.append(f"calibration line {cal['slope']}, {cal['intercept']} "
                        f"differs from least squares {slope}, {intercept}")
    return cal


def check_opportunity(ws: Path, cal: dict, failures: list) -> None:
    _, css = read_grids(ws / "maps" / "css")
    _, opp = read_grids(ws / "maps" / "opportunity")
    expect = cal["slope"] * css["combined"] + cal["intercept"] - opp["ndvi_summer"]
    got = opp["opportunity"]
    if not (np.array_equal(np.isfinite(got), np.isfinite(expect))
            and close(got[np.isfinite(got)], expect[np.isfinite(got)])):
        failures.append("opportunity map is not calibrated CSS minus summer NDVI")


def check_candidates(ws: Path, count: int, failures: list) -> list[dict]:
    g, opp = read_grids(ws / "maps" / "opportunity")
    _, css = read_grids(ws / "maps" / "css")
    rows = read_csv(ws / "candidates.csv")
    values = [float(r["opportunity"]) for r in rows]
    if [int(r["rank"]) for r in rows] != list(range(1, len(rows) + 1)):
        failures.append("candidate ranks are not 1..n")
    if any(v <= 0 for v in values) or any(a < b for a, b in zip(values, values[1:])):
        failures.append("candidate opportunity is not positive and non-increasing")
    lat = np.array([float(r["lat"]) for r in rows])
    lon = np.array([float(r["lon"]) for r in rows])
    for i in range(len(rows)):
        for j in range(i):
            d = float(haversine_km(lat[i], lon[i], lat[j], lon[j]))
            if d < MIN_SPACING_KM:
                failures.append(f"candidates {j + 1} and {i + 1} are {d:.3f} km apart")
    # greedy order: each site is the best pixel still outside every
    # earlier site's spacing radius
    H, W = opp["opportunity"].shape
    lats, lons = np.meshgrid([node(g, iy, 0)[0] for iy in range(H)],
                             [node(g, 0, ix)[1] for ix in range(W)], indexing="ij")
    alive = np.isfinite(opp["opportunity"]) & (opp["opportunity"] > 0)
    for r, v in zip(rows, values):
        iy, ix = int(r["iy"]), int(r["ix"])
        best = opp["opportunity"][alive].max() if alive.any() else None
        if not (alive[iy, ix] and v == opp["opportunity"][iy, ix] == best):
            failures.append(f"candidate {r['rank']} is not the best remaining pixel")
        if not close((float(r["lat"]), float(r["lon"])), node(g, iy, ix), 0, 1e-9):
            failures.append(f"candidate {r['rank']} coordinates are off its node")
        if not (close(float(r["css"]), css["combined"][iy, ix])
                and close(float(r["ndvi"]), opp["ndvi_summer"][iy, ix])):
            failures.append(f"candidate {r['rank']} css/ndvi differ from the maps")
        alive &= haversine_km(float(r["lat"]), float(r["lon"]), lats, lons) >= MIN_SPACING_KM
    if len(rows) != count and alive.any():
        failures.append(f"{len(rows)} candidates, {count} asked and pixels remain")
    return rows


def check_retained(rows: list[dict], failures: list) -> None:
    ranks = {int(r["rank"]) for r in rows}
    kept = {int(r["rank"]) for r in rows if r["retained"] == "True"}
    if kept != PUBLISHED_RETAINED & ranks:
        failures.append(f"retained {sorted(kept)}, published rules keep "
                        f"{sorted(PUBLISHED_RETAINED & ranks)}")


def check_analogs(ws: Path, rows: list[dict], vectors: np.ndarray,
                  failures: list) -> None:
    g, opp = read_grids(ws / "maps" / "opportunity")
    ndvi = opp["ndvi_summer"]
    filtered = any(r["retained"] for r in rows)
    targets = [r for r in rows if r["retained"] == "True"] if filtered else rows
    found = read_csv(ws / "analogs.csv")
    if [int(a["site"]) for a in found] != [int(r["rank"]) for r in targets]:
        failures.append("analogs.csv does not list the retained candidates in order")
        return
    H, W = ndvi.shape
    rr, cc = np.meshgrid(np.arange(H), np.arange(W), indexing="ij")
    for r, a in zip(targets, found):
        iy, ix = int(r["iy"]), int(r["ix"])
        dist = np.sqrt(np.sum((vectors - vectors[iy, ix]) ** 2, axis=-1))
        eligible = np.isfinite(dist) & np.isfinite(ndvi)
        eligible[iy, ix] = False
        cap = np.percentile(dist[eligible], DISTANCE_PERCENTILE)
        green = eligible & (dist <= cap) & (ndvi >= float(r["ndvi"]) + NDVI_MARGIN)
        if not green.any():
            if a["analog_lat"]:
                failures.append(f"site {a['site']}: analog reported, none qualifies")
            continue
        k = np.lexsort((cc[green], rr[green], dist[green], -ndvi[green]))[0]
        by, bx = int(rr[green][k]), int(cc[green][k])
        ok = (a["analog_lat"] != ""
              and close((float(a["analog_lat"]), float(a["analog_lon"])),
                        node(g, by, bx), 0, 1e-9)
              and close(float(a["climate_distance"]), dist[by, bx], 1e-6, 1e-9)
              and float(a["analog_ndvi"]) == ndvi[by, bx]
              and float(a["analog_ndvi"]) >= float(a["candidate_ndvi"]) + NDVI_MARGIN)
        if not ok:
            failures.append(f"site {a['site']}: analog {a['analog_lat']},"
                            f"{a['analog_lon']} is not the greenest pixel within "
                            f"the distance cap (expected node {by},{bx})")


def check_uplift(ws: Path, failures: list) -> None:
    found = read_csv(ws / "analogs.csv")
    uplift = json.loads((ws / "uplift.json").read_text())
    used = [a for a in found if a["ratio"]]
    cand = np.array([float(a["candidate_ndvi"]) for a in used])
    analog = np.array([float(a["analog_ndvi"]) for a in used])
    ratios = np.array([float(a["ratio"]) for a in used])
    if not close(ratios, analog / cand, 1e-12, 0):
        failures.append("analogs.csv ratios are not analog over candidate NDVI")
    if used and not (close(uplift["mean_of_ratios"], ratios.mean(), 1e-12, 0)
                     and close(uplift["ratio_of_means"],
                               analog.mean() / cand.mean(), 1e-12, 0)
                     and uplift["n_used"] == len(used)):
        failures.append("uplift.json aggregates do not follow from analogs.csv")


# ---------------------------------------------------------------------------


def check_workspace(ws: Path, seed: int, candidates: int | None
                    ) -> tuple[dict[str, float], list[str]]:
    """Recovery metrics plus every check that applies to the stages run.

    candidates is the count asked of `drycss candidates`, or None when
    the workload stops at calibration."""
    failures: list[str] = []
    quality = {"css_map_r": css_map_r(ws), "oof_val_r": oof_val_r(ws)}
    if not quality["css_map_r"] >= CSS_MAP_R_MIN:
        failures.append(f"css_map_r {quality['css_map_r']:.4f} < {CSS_MAP_R_MIN}")
    if not quality["oof_val_r"] >= OOF_VAL_R_MIN:
        failures.append(f"oof_val_r {quality['oof_val_r']:.4f} < {OOF_VAL_R_MIN}")
    pixels = sample_pixels(ws, seed)
    series, vectors = cube_pass(ws, pixels, ANALOG_CHANNELS if candidates else 0)
    check_sampled_pixels(ws, series, pixels, failures)
    cal = check_calibration(ws, failures)
    if candidates:
        check_opportunity(ws, cal, failures)
        rows = check_candidates(ws, candidates, failures)
        if any(r["retained"] for r in rows):
            check_retained(rows, failures)
        check_analogs(ws, rows, vectors, failures)
        check_uplift(ws, failures)
    return quality, failures
