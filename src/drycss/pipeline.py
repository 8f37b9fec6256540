"""Training grid, ensembling, CSS maps, calibration, and agreement stats.

A "run" is one (model kind, model size, repetition) cell: draw a
randomized 90/10 holdout, fit frequency selection and normalization on
the training split only, train the model, score every sample, record
train/val RMSE and Pearson r. The ensemble score of a pixel or sample
is the unweighted mean over trained models.

Every random draw flows from one root seed through a documented
derivation: seed = low 63 bits of sha256(repr((root, part, ...))).
Reruns and any worker count reproduce identical bytes because workers
only compute; the parent writes everything in canonical grid order.
"""

from __future__ import annotations

import csv
import hashlib
import json
import warnings
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import multiprocessing
import numpy as np

from .blup import fit_blup, select_lambda_loo
from .bundles import TrainedModel
from .errors import DataError, NumericalError, read_json
from .grid import ClimateCube, pixel_series
from .neural import TrainParams, train_autoencoder, train_classifier
from .spectral import (FrequencySelection, dft_coefficients, fit_normalization,
                       project, select_frequencies)

VEG_THRESHOLD = 0.15
CSS_THRESHOLD = 0.5

DEFAULT_BLUP_SIZES = (2, 4, 8, 16, 32, 64)
DEFAULT_NN_SIZES = (4, 8, 16, 32, 64)
DEFAULT_REPETITIONS = 10
DEFAULT_HOLDOUT_FRACTION = 0.1
DEFAULT_NN_FEATURE_BINS = 4

# grid rows per map-scoring block; fixed so output bytes do not depend
# on the worker count
BLOCK_ROWS = 2


def derive_seed(root: int, *parts) -> int:
    """Deterministic child seed from a root seed and a label path."""
    digest = hashlib.sha256(repr((int(root),) + tuple(parts)).encode()).digest()
    return int.from_bytes(digest[:8], "little") & (2 ** 63 - 1)


# ---------------------------------------------------------------------------
# samples


@dataclass
class LabeledSample:
    site_id: int
    lat: float
    lon: float
    iy: int
    ix: int
    category: str
    label: float  # 1.0 restored/suitable, 0.0 unsuitable
    ndvi: float   # growing-season mean at the site pixel


def save_samples(samples: list[LabeledSample], path: str | Path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["site_id", "lat", "lon", "iy", "ix", "category", "label", "ndvi"])
        for s in samples:
            w.writerow([s.site_id, repr(s.lat), repr(s.lon), s.iy, s.ix,
                        s.category, repr(s.label), repr(s.ndvi)])


def load_samples(path: str | Path) -> list[LabeledSample]:
    path = Path(path)
    if not path.exists():
        raise DataError(f"samples file not found: {path}")
    samples = []
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            try:
                samples.append(LabeledSample(
                    site_id=int(row["site_id"]), lat=float(row["lat"]),
                    lon=float(row["lon"]), iy=int(row["iy"]), ix=int(row["ix"]),
                    category=row["category"], label=float(row["label"]),
                    ndvi=float(row["ndvi"])))
            except (KeyError, ValueError) as e:
                raise DataError(f"malformed samples row in {path}: {e}") from None
    if not samples:
        raise DataError(f"samples file is empty: {path}")
    return samples


# ---------------------------------------------------------------------------
# metrics


def rmse(a, b) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.size == 0:
        raise ValueError("empty input")
    return float(np.sqrt(np.mean((a - b) ** 2)))


def pearson_r(a, b) -> float:
    """Pearson correlation; zero variance on either side gives NaN,
    never an exception. Non-finite inputs propagate to NaN."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.size < 2:
        return float("nan")
    ac = a - a.mean()
    bc = b - b.mean()
    denom = np.sqrt(np.sum(ac ** 2) * np.sum(bc ** 2))
    if not np.isfinite(denom) or denom == 0.0:
        return float("nan")
    return float(np.sum(ac * bc) / denom)


def holdout_split(n: int, fraction: float, rng: np.random.Generator
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Random train/validation index split; fraction goes to validation."""
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"holdout fraction outside (0, 1): {fraction}")
    if n < 2:
        raise ValueError("need at least 2 samples to split")
    n_val = min(max(1, int(round(fraction * n))), n - 1)
    perm = rng.permutation(n)
    val = np.sort(perm[:n_val])
    train = np.sort(perm[n_val:])
    return train, val


def compute_run_metrics(scores: np.ndarray, labels: np.ndarray,
                        train_idx, val_idx) -> dict[str, float]:
    train_idx = np.asarray(train_idx, dtype=np.intp)
    val_idx = np.asarray(val_idx, dtype=np.intp)
    return {
        "train_rmse": rmse(scores[train_idx], labels[train_idx]),
        "val_rmse": rmse(scores[val_idx], labels[val_idx]),
        "train_r": pearson_r(scores[train_idx], labels[train_idx]),
        "val_r": pearson_r(scores[val_idx], labels[val_idx]),
    }


# ---------------------------------------------------------------------------
# training runs


@dataclass
class TrainingRun:
    kind: str
    size: int
    repetition: int
    seed: int
    train_ids: list[int] = field(default_factory=list)
    val_ids: list[int] = field(default_factory=list)
    scores: np.ndarray | None = None  # every sample, sample order
    metrics: dict[str, float] = field(default_factory=dict)
    failed: bool = False
    error: str = ""

    @property
    def run_id(self) -> str:
        return f"{self.kind}_{self.size}_{self.repetition}"


def save_run_record(run: TrainingRun, path: str | Path) -> None:
    doc = {
        "kind": run.kind, "size": run.size, "repetition": run.repetition,
        "seed": run.seed, "train_ids": list(map(int, run.train_ids)),
        "val_ids": list(map(int, run.val_ids)),
        "scores": [float(s) for s in (run.scores if run.scores is not None else [])],
        "metrics": {k: float(v) for k, v in run.metrics.items()},
        "failed": run.failed, "error": run.error,
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_run_record(path: str | Path) -> TrainingRun:
    path = Path(path)
    if not path.exists():
        raise DataError(f"run record not found: {path}")
    doc = read_json(path, "run record")
    scores = np.asarray(doc.get("scores", []), dtype=np.float64)
    return TrainingRun(
        kind=doc["kind"], size=int(doc["size"]), repetition=int(doc["repetition"]),
        seed=int(doc["seed"]), train_ids=[int(i) for i in doc.get("train_ids", [])],
        val_ids=[int(i) for i in doc.get("val_ids", [])],
        scores=scores if scores.size else None,
        metrics=dict(doc.get("metrics", {})), failed=bool(doc.get("failed", False)),
        error=doc.get("error", ""))


@dataclass
class GridSettings:
    """Everything a single training run needs besides its cell address."""

    variables: tuple[str, ...]
    n_steps: int
    holdout_fraction: float = DEFAULT_HOLDOUT_FRACTION
    nn_feature_bins: int = DEFAULT_NN_FEATURE_BINS
    blup_lambda: str | float = "auto"  # "auto" (= n features), "loo", or a number
    train_params: TrainParams = field(default_factory=TrainParams)


def train_one_run(coeffs: np.ndarray, labels: np.ndarray, kind: str, size: int,
                  repetition: int, run_seed: int, settings: GridSettings
                  ) -> tuple[TrainingRun, TrainedModel]:
    """Fit one grid cell. Selection and normalization use only the
    training split; every sample is scored with the fitted model."""
    n = coeffs.shape[0]
    split_rng = np.random.default_rng(derive_seed(run_seed, "split"))
    train_idx, val_idx = holdout_split(n, settings.holdout_fraction, split_rng)

    k = size if kind == "blup" else settings.nn_feature_bins
    selection = select_frequencies(coeffs[train_idx], settings.variables, k,
                                   settings.n_steps)
    norm = fit_normalization(coeffs[train_idx], selection)
    X = project(coeffs, selection, norm)
    y = np.asarray(labels, dtype=np.float64)

    if kind == "blup":
        lam = settings.blup_lambda
        if lam == "auto":
            lam_value = None
        elif lam == "loo":
            lam_value, _ = select_lambda_loo(X[train_idx], y[train_idx])
        else:
            lam_value = float(lam)
        fitted = fit_blup(X[train_idx], y[train_idx], lam=lam_value)
        model = TrainedModel(kind="blup", size=size, repetition=repetition,
                             seed=run_seed, selection=selection, norm=norm,
                             blup=fitted)
    elif kind == "nn":
        ae = train_autoencoder(X[train_idx], latent_dim=size,
                               n_variables=len(settings.variables),
                               params=settings.train_params,
                               seed=derive_seed(run_seed, "autoencoder"))
        clf = train_classifier(ae.encode(X[train_idx]), y[train_idx],
                               params=settings.train_params,
                               seed=derive_seed(run_seed, "classifier"))
        model = TrainedModel(kind="nn", size=size, repetition=repetition,
                             seed=run_seed, selection=selection, norm=norm,
                             autoencoder=ae, classifier=clf)
    else:
        raise ValueError(f"unknown model kind: {kind!r}")

    scores = model.score_features(X)
    run = TrainingRun(kind=kind, size=size, repetition=repetition, seed=run_seed,
                      train_ids=[int(i) for i in train_idx],
                      val_ids=[int(i) for i in val_idx],
                      scores=scores,
                      metrics=compute_run_metrics(scores, y, train_idx, val_idx))
    return run, model


def enumerate_grid(blup_sizes, nn_sizes, repetitions) -> list[tuple[str, int, int]]:
    """Canonical run order: blup cells first, then nn, sizes then reps."""
    cells = []
    for size in blup_sizes:
        for rep in range(repetitions):
            cells.append(("blup", int(size), rep))
    for size in nn_sizes:
        for rep in range(repetitions):
            cells.append(("nn", int(size), rep))
    return cells


# worker context for forked training processes; set by run_training_grid
_GRID_CONTEXT: dict = {}


def _grid_worker(cell):
    kind, size, rep, run_seed = cell
    ctx = _GRID_CONTEXT
    try:
        run, model = train_one_run(ctx["coeffs"], ctx["labels"], kind, size, rep,
                                   run_seed, ctx["settings"])
        return run, model
    except NumericalError as e:
        run = TrainingRun(kind=kind, size=size, repetition=rep, seed=run_seed,
                          failed=True, error=str(e))
        return run, None


def run_training_grid(coeffs: np.ndarray, labels: np.ndarray,
                      settings: GridSettings,
                      blup_sizes=DEFAULT_BLUP_SIZES, nn_sizes=DEFAULT_NN_SIZES,
                      repetitions: int = DEFAULT_REPETITIONS,
                      root_seed: int = 0, jobs: int = 1
                      ) -> tuple[list[TrainingRun], list[TrainedModel | None]]:
    """Train every grid cell; diverged runs are recorded, not fatal.

    jobs > 1 fans cells out to forked worker processes; results come
    back to the parent which keeps canonical order, so outputs do not
    depend on the worker count.
    """
    coeffs = np.asarray(coeffs)
    labels = np.asarray(labels, dtype=np.float64)
    if coeffs.ndim != 3 or coeffs.shape[0] != labels.shape[0]:
        raise ValueError(
            f"coefficient block {coeffs.shape} does not match labels {labels.shape}")
    cells = [(kind, size, rep, derive_seed(root_seed, kind, size, rep))
             for kind, size, rep in enumerate_grid(blup_sizes, nn_sizes, repetitions)]

    global _GRID_CONTEXT
    _GRID_CONTEXT = {"coeffs": coeffs, "labels": labels, "settings": settings}
    try:
        if jobs > 1 and "fork" in multiprocessing.get_all_start_methods():
            ctx = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(max_workers=jobs, mp_context=ctx) as pool:
                results = list(pool.map(_grid_worker, cells))
        else:
            if jobs > 1:
                warnings.warn("fork start method unavailable; training serially")
            results = [_grid_worker(cell) for cell in cells]
    finally:
        _GRID_CONTEXT = {}

    runs = [r for r, _ in results]
    models = [m for _, m in results]
    for run in runs:
        if run.failed:
            warnings.warn(f"run {run.run_id} diverged and was excluded: {run.error}")
    return runs, models


def aggregate_metrics(runs: list[TrainingRun]) -> list[dict]:
    """Mean/std of each metric per (kind, size) cell over its repetitions."""
    by_cell: dict[tuple[str, int], list[TrainingRun]] = {}
    order: list[tuple[str, int]] = []
    for run in runs:
        key = (run.kind, run.size)
        if key not in by_cell:
            by_cell[key] = []
            order.append(key)
        by_cell[key].append(run)
    rows = []
    for kind, size in order:
        cell = by_cell[(kind, size)]
        ok = [r for r in cell if not r.failed]
        row = {"kind": kind, "size": size, "n_runs": len(cell),
               "n_failed": len(cell) - len(ok)}
        for metric in ("train_rmse", "val_rmse", "train_r", "val_r"):
            vals = np.array([r.metrics[metric] for r in ok], dtype=np.float64)
            vals = vals[np.isfinite(vals)]
            row[f"{metric}_mean"] = float(vals.mean()) if vals.size else float("nan")
            row[f"{metric}_std"] = (float(vals.std(ddof=1)) if vals.size > 1
                                    else float("nan"))
        rows.append(row)
    return rows


def out_of_fold_scores(runs: list[TrainingRun], n_samples: int) -> np.ndarray:
    """Each sample's mean score over the runs that held it out; NaN when
    no run ever held the sample out."""
    sums = np.zeros(n_samples)
    counts = np.zeros(n_samples)
    for run in runs:
        if run.failed or run.scores is None:
            continue
        idx = np.asarray(run.val_ids, dtype=np.intp)
        sums[idx] += run.scores[idx]
        counts[idx] += 1
    out = np.full(n_samples, np.nan)
    np.divide(sums, counts, out=out, where=counts > 0)
    return out


# ---------------------------------------------------------------------------
# reclassification and calibration


def ensemble_scores(models: list[TrainedModel | None], coeffs: np.ndarray
                    ) -> dict[str, np.ndarray]:
    """Mean score per kind plus the all-model "combined" mean."""
    live = [m for m in models if m is not None]
    if not live:
        raise DataError("no trained models to ensemble")
    by_kind: dict[str, list[np.ndarray]] = {}
    everything = []
    for model in live:
        s = model.score_coefficients(coeffs)
        by_kind.setdefault(model.kind, []).append(s)
        everything.append(s)
    out = {kind: np.mean(rows, axis=0) for kind, rows in by_kind.items()}
    out["combined"] = np.mean(everything, axis=0)
    return out


def category_means(samples: list[LabeledSample], scores: np.ndarray
                   ) -> dict[str, float]:
    means: dict[str, float] = {}
    cats = sorted({s.category for s in samples})
    for cat in cats:
        idx = [i for i, s in enumerate(samples) if s.category == cat]
        means[cat] = float(np.mean(scores[idx]))
    return means


CALIBRATION_CATEGORIES = ("HiSuit-HiVeg", "LoSuit-LoVeg")


@dataclass(frozen=True)
class Calibration:
    """NDVI ~ slope * score + intercept, fit on the two class categories."""

    slope: float
    intercept: float
    r2: float
    n: int

    def apply(self, scores: np.ndarray) -> np.ndarray:
        return self.slope * np.asarray(scores, dtype=np.float64) + self.intercept

    def to_dict(self) -> dict:
        return {"slope": self.slope, "intercept": self.intercept,
                "r2": self.r2, "n": self.n}

    @classmethod
    def from_dict(cls, d: dict) -> "Calibration":
        try:
            return cls(slope=float(d["slope"]), intercept=float(d["intercept"]),
                       r2=float(d["r2"]), n=int(d["n"]))
        except KeyError as e:
            raise DataError(f"calibration missing field {e}") from None


def fit_calibration(samples: list[LabeledSample], scores: np.ndarray,
                    categories=CALIBRATION_CATEGORIES) -> Calibration:
    """Least squares NDVI-on-score line over the given categories."""
    idx = [i for i, s in enumerate(samples) if s.category in categories]
    if len(idx) < 2:
        raise DataError(
            f"calibration needs at least 2 samples in categories {categories}, "
            f"got {len(idx)}")
    x = np.asarray(scores, dtype=np.float64)[idx]
    y = np.array([samples[i].ndvi for i in idx], dtype=np.float64)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise DataError("non-finite values in calibration inputs")
    xc = x - x.mean()
    sxx = float(np.sum(xc ** 2))
    if sxx == 0.0:
        raise DataError("degenerate calibration: scores have zero variance")
    slope = float(np.sum(xc * (y - y.mean())) / sxx)
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (slope * x + intercept)
    syy = float(np.sum((y - y.mean()) ** 2))
    r2 = float("nan") if syy == 0.0 else 1.0 - float(np.sum(resid ** 2)) / syy
    return Calibration(slope=slope, intercept=intercept, r2=r2, n=len(idx))


# ---------------------------------------------------------------------------
# map prediction


def predict_map(models: list[TrainedModel | None], cube: ClimateCube,
                jobs: int = 1) -> dict[str, np.ndarray]:
    """Score every valid pixel with each model; returns per-kind mean
    maps plus "combined" (mean over models). Invalid pixels are NaN.

    Work is split into BLOCK_ROWS-high row blocks regardless of jobs,
    so floating-point accumulation order and therefore output bytes do
    not depend on the worker count.
    """
    live = [m for m in models if m is not None]
    if not live:
        raise DataError("no trained models to predict with")
    variables = cube.variables
    for m in live:
        if m.selection.variables != variables:
            raise DataError(
                f"model {m.model_id} was fit on variables {m.selection.variables}, "
                f"cube has {variables}")
        if m.selection.n_steps != cube.time.n_steps:
            raise DataError(
                f"model {m.model_id} expects {m.selection.n_steps} time steps, "
                f"cube has {cube.time.n_steps}")

    H, W = cube.spec.shape
    kinds = sorted({m.kind for m in live})
    out = {kind: np.full((H, W), np.nan) for kind in kinds}
    out["combined"] = np.full((H, W), np.nan)

    def do_block(r0: int) -> None:
        rows, cols, series = pixel_series(cube, r0, r0 + BLOCK_ROWS)
        if rows.size == 0:
            return
        coeffs = dft_coefficients(series)
        kind_sums = {kind: np.zeros(rows.size) for kind in kinds}
        total = np.zeros(rows.size)
        for m in live:
            s = m.score_coefficients(coeffs)
            kind_sums[m.kind] += s
            total += s
        n_by_kind = {kind: sum(1 for m in live if m.kind == kind) for kind in kinds}
        for kind in kinds:
            out[kind][rows, cols] = kind_sums[kind] / n_by_kind[kind]
        out["combined"][rows, cols] = total / len(live)

    starts = list(range(0, H, BLOCK_ROWS))
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            list(pool.map(do_block, starts))
    else:
        for r0 in starts:
            do_block(r0)
    return out


# ---------------------------------------------------------------------------
# agreement statistics


def map_agreement_iou(a: np.ndarray, b: np.ndarray,
                      threshold: float = CSS_THRESHOLD) -> float:
    """IoU of the suitable regions (score >= threshold) of two maps.

    Pixels non-finite in either map are ignored; an empty union gives
    the NaN sentinel.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DataError(f"maps are misaligned: {a.shape} vs {b.shape}")
    valid = np.isfinite(a) & np.isfinite(b)
    A = (a >= threshold) & valid
    B = (b >= threshold) & valid
    union = int(np.sum(A | B))
    if union == 0:
        return float("nan")
    return float(np.sum(A & B)) / union


def ranking_overlap(rankings: dict[str, dict[int, float]], n: int = 20
                    ) -> dict[str, dict[tuple[str, ...], int]]:
    """UpSet-style exclusive intersection counts of top-n and bottom-n.

    rankings maps a name to {id: score}; every ranking must cover the
    same id set. Ties break toward the smaller id. For each non-empty
    subset S of names, the count is the number of ids in every end-set
    of S and in none outside S.
    """
    from itertools import combinations

    if not rankings:
        raise ValueError("no rankings given")
    names = list(rankings)
    ids = set(rankings[names[0]])
    for name in names[1:]:
        if set(rankings[name]) != ids:
            raise ValueError(f"ranking {name!r} covers a different id set")
    if not 1 <= n <= len(ids):
        raise ValueError(f"n={n} outside [1, {len(ids)}]")

    def end_set(name: str, bottom: bool) -> set[int]:
        scores = rankings[name]
        if bottom:
            order = sorted(ids, key=lambda i: (scores[i], i))
        else:
            order = sorted(ids, key=lambda i: (-scores[i], i))
        return set(order[:n])

    result: dict[str, dict[tuple[str, ...], int]] = {}
    for end, bottom in (("top", False), ("bottom", True)):
        sets = {name: end_set(name, bottom) for name in names}
        counts: dict[tuple[str, ...], int] = {}
        for r in range(1, len(names) + 1):
            for combo in combinations(names, r):
                members = set.intersection(*(sets[c] for c in combo))
                for other in names:
                    if other not in combo:
                        members -= sets[other]
                counts[combo] = len(members)
        result[end] = counts
    return result
