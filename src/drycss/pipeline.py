"""Training grid, ensembling, CSS maps, calibration, and agreement stats.

A "run" is one (model kind, model size, repetition) cell: draw a
randomized 90/10 holdout, fit frequency selection and normalization on
the training split only, train the model, score every sample, record
train/val RMSE and Pearson r. The ensemble score of a pixel or sample
is the unweighted mean over trained models. One EnsembleScorer computes
it for map pixels and reference samples alike, from the products of
their series with its rows: the BLUP models as one kernel per variable,
the networks from only the bins they read.

Every random draw flows from one root seed through a documented
derivation: seed = low 63 bits of sha256(repr((root, part, ...))).
Reruns and any worker count reproduce identical bytes because workers
only compute; the parent writes everything in canonical grid order.
"""

from __future__ import annotations

import functools
import hashlib
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, astuple, dataclass, field, fields
from pathlib import Path

import multiprocessing
import numpy as np

from .blup import fit_blup
from .bundles import TrainedModel
from .errors import (DataError, NumericalError, check_distinct, json_finite, json_int,
                     read_table, write_json, write_table)
from .grid import SLAB_STEPS, ClimateCube, series_products
from .neural import TrainParams, train_autoencoder, train_classifier
from .spectral import (FrequencySelection, bin_energies, dft_basis, dft_coefficients,
                       fit_normalization, n_bins, project, select_frequencies, union_bins)

VEG_THRESHOLD = 0.15
CSS_THRESHOLD = 0.5

DEFAULT_BLUP_SIZES = (2, 4, 8, 16, 32, 64)
DEFAULT_NN_SIZES = (4, 8, 16, 32, 64)
DEFAULT_REPETITIONS = 10
DEFAULT_HOLDOUT_FRACTION = 0.1
DEFAULT_NN_FEATURE_BINS = 4


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
    """One row per sample, the columns in field order."""
    write_table(path, [f.name for f in fields(LabeledSample)], map(astuple, samples))


def load_samples(path: str | Path) -> list[LabeledSample]:
    samples = read_table(path, "samples table", lambda r: LabeledSample(
        site_id=int(r["site_id"]), lat=float(r["lat"]), lon=float(r["lon"]),
        iy=int(r["iy"]), ix=int(r["ix"]), category=r["category"],
        label=json_finite(r["label"], "label"), ndvi=float(r["ndvi"])))
    if not samples:
        raise DataError(f"samples table is empty: {path}")
    check_distinct((s.site_id for s in samples), "site_id", path)
    return samples


def sample_series(cube: ClimateCube, samples: list[LabeledSample]):
    """Yield per variable, in cube order, the samples' pixel series
    [n_samples, n_steps] as float32: the cube's own values, half the size
    of their spectra, gathered from SLAB_STEPS-step slabs of one lookup
    that is dropped before the block is yielded. A sample off the grid, at
    a masked pixel or off the node nearest its (lat, lon) is a DataError
    naming it before the first block; a non-finite value gathered is one
    naming its variable and sample."""
    spec, T = cube.spec, cube.time.n_steps
    for s in samples:
        node, where = spec.nearest(s.lat, s.lon), f"sample {s.site_id} at ({s.lat}, {s.lon})"
        if not spec.contains(s.lat, s.lon):
            raise DataError(f"{where} lies outside the grid")
        if not cube.mask[node]:
            raise DataError(f"{where} lies at masked pixel {node}")
        if node != (s.iy, s.ix):
            raise DataError(f"{where} lies nearest node {node}, not its ({s.iy}, {s.ix})")
    flat = [s.iy * spec.n_lon + s.ix for s in samples]
    for var in cube.variables:
        values = cube.values[var].reshape(T, -1)
        block = np.empty((len(samples), T), dtype=np.float32)
        for t0 in range(0, T, SLAB_STEPS):
            block[:, t0:t0 + SLAB_STEPS] = values[t0:t0 + SLAB_STEPS][:, flat].T
        del values
        bad = np.flatnonzero(~np.isfinite(block).all(axis=1))
        if bad.size:
            s = samples[bad[0]]
            raise DataError(f"variable {var} is not finite at sample {s.site_id}, pixel "
                            f"({s.iy}, {s.ix}); rerun `drycss synth`")
        yield block


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


def validation_rows(n: int, fraction: float) -> int:
    """How many of n samples holdout_split holds out: the fraction's
    share, rounded, leaving at least one row on either side."""
    return min(max(1, int(round(fraction * n))), n - 1)


def holdout_split(n: int, fraction: float, rng: np.random.Generator
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Random train/validation index split; fraction goes to validation."""
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"holdout fraction outside (0, 1): {fraction}")
    if n < 2:
        raise ValueError("need at least 2 samples to split")
    n_val = validation_rows(n, fraction)
    perm = rng.permutation(n)
    return np.sort(perm[n_val:]), np.sort(perm[:n_val])


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
    write_json(path, doc)


@dataclass
class GridSettings:
    """Everything a single training run needs besides its cell address."""

    variables: tuple[str, ...]
    n_steps: int
    holdout_fraction: float = DEFAULT_HOLDOUT_FRACTION
    nn_feature_bins: int = DEFAULT_NN_FEATURE_BINS
    blup_lambda: str | float = "auto"  # fit_blup's lam: "auto", "loo" or a number
    train_params: TrainParams = field(default_factory=TrainParams)


def train_one_run(selected: np.ndarray, selection: FrequencySelection,
                  split: tuple[np.ndarray, np.ndarray], labels: np.ndarray,
                  kind: str, size: int, repetition: int, run_seed: int,
                  settings: GridSettings) -> tuple[TrainingRun, TrainedModel]:
    """Fit one grid cell on every sample's `selection` bins [n_samples,
    n_variables, k], the selection ranked on the training rows of its
    (train, validation) `split`. Normalization uses only the training
    rows; every sample is scored with the fitted model."""
    train_idx, val_idx = split
    norm = fit_normalization(selected[train_idx])
    X = project(selected, norm)
    y = np.asarray(labels, dtype=np.float64)

    if kind == "blup":
        fitted = fit_blup(X[train_idx], y[train_idx], lam=settings.blup_lambda)
        model = TrainedModel(kind="blup", repetition=repetition, seed=run_seed,
                             selection=selection, norm=norm, blup=fitted)
    elif kind == "nn":
        ae = train_autoencoder(X[train_idx], latent_dim=size,
                               n_variables=len(settings.variables),
                               params=settings.train_params,
                               seed=derive_seed(run_seed, "autoencoder"))
        clf = train_classifier(ae.encode(X[train_idx]), y[train_idx],
                               params=settings.train_params,
                               seed=derive_seed(run_seed, "classifier"))
        model = TrainedModel(kind="nn", repetition=repetition, seed=run_seed,
                             selection=selection, norm=norm, autoencoder=ae, classifier=clf)
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
    return [(kind, int(size), rep) for kind, sizes in (("blup", blup_sizes), ("nn", nn_sizes))
            for size in sizes for rep in range(repetitions)]


# worker context for forked training processes; set by run_training_grid
_GRID_CONTEXT: dict = {}


def _grid_worker(r: int):
    ctx = _GRID_CONTEXT
    kind, size, rep, run_seed = ctx["cells"][r]
    try:
        return train_one_run(ctx["union"][:, ctx["gathers"][r]], ctx["selections"][r],
                             ctx["splits"][r], ctx["labels"], kind, size, rep, run_seed,
                             ctx["settings"])
    except NumericalError as e:
        run = TrainingRun(kind=kind, size=size, repetition=rep, seed=run_seed,
                          failed=True, error=str(e))
        return run, None


def run_training_grid(blocks, labels: np.ndarray, settings: GridSettings,
                      blup_sizes=DEFAULT_BLUP_SIZES, nn_sizes=DEFAULT_NN_SIZES,
                      repetitions: int = DEFAULT_REPETITIONS,
                      root_seed: int = 0, jobs: int = 1
                      ) -> tuple[list[TrainingRun], list[TrainedModel | None]]:
    """Train every grid cell on the samples' series, which `blocks` yields
    per variable in settings.variables order, [n_samples, n_steps] each;
    diverged runs are recorded, not fatal. After every run's holdout
    split is drawn, one FFT per block gives the samples' bin_energies,
    each run ranks the block's bins from the sum of its training rows
    over n_train, and only the block's coefficients at the union of all
    runs' bins are kept, from which each run gathers its own. A block is
    dropped before the next is asked for, so `blocks` may refill one buffer.
    jobs > 1 fans cells out to forked worker processes; results come
    back to the parent which keeps canonical order, so outputs do not
    depend on the worker count.
    """
    labels = np.asarray(labels, dtype=np.float64)
    V, T = len(settings.variables), settings.n_steps
    cells = [(kind, size, rep, derive_seed(root_seed, kind, size, rep))
             for kind, size, rep in enumerate_grid(blup_sizes, nn_sizes, repetitions)]
    splits = [holdout_split(len(labels), settings.holdout_fraction,
                            np.random.default_rng(derive_seed(run_seed, "split")))
              for *_, run_seed in cells]
    ks = [size if kind == "blup" else settings.nn_feature_bins for kind, size, *_ in cells]

    ranked, union = [], []  # per variable: each run's selection, the union's coefficients
    for block in blocks:
        v = len(ranked)
        if v == V:
            raise ValueError(f"more than {V} series blocks for {V} variables")
        if labels.ndim != 1 or np.shape(block) != (len(labels), T):
            raise ValueError(f"series block {v} shaped {np.shape(block)} does not match "
                             f"labels shaped {labels.shape} over {T} steps")
        coeffs = dft_coefficients(block)
        e = bin_energies(coeffs, T)
        ranked.append([select_frequencies(e[train_idx].sum(axis=0)[None] / len(train_idx),
                                          settings.variables[v:v + 1], k, T)
                       for k, (train_idx, _) in zip(ks, splits)])
        [bins], _ = union_bins(ranked[-1], 1)
        union.append(coeffs[:, bins])
        del block, coeffs, e
    if len(ranked) != V:
        raise ValueError(f"{len(ranked)} series blocks for {V} variables")
    selections = [FrequencySelection(settings.variables,
                                     np.concatenate([r[i].bins for r in ranked]), T)
                  for i in range(len(cells))]
    union = np.concatenate(union, axis=1)
    _, gathers = union_bins(selections, V)

    global _GRID_CONTEXT
    _GRID_CONTEXT = {"cells": cells, "splits": splits, "selections": selections,
                     "union": union, "gathers": gathers, "labels": labels,
                     "settings": settings}
    try:
        if jobs > 1 and "fork" in multiprocessing.get_all_start_methods():
            ctx = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(max_workers=jobs, mp_context=ctx) as pool:
                results = list(pool.map(_grid_worker, range(len(cells))))
        else:
            if jobs > 1:
                warnings.warn("fork start method unavailable; training serially")
            results = [_grid_worker(r) for r in range(len(cells))]
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
    by_cell: dict[tuple[str, int], list[TrainingRun]] = {}  # in first-run order
    for run in runs:
        by_cell.setdefault((run.kind, run.size), []).append(run)
    rows = []
    for (kind, size), cell in by_cell.items():
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


# ---------------------------------------------------------------------------
# reclassification and calibration


class EnsembleScorer:
    """The live models of an ensemble, reduced to what scoring reads, so
    that a map pixel and a reference sample are scored from their series'
    products with `time_rows` by one arithmetic. Every live model must
    share `variables` and `n_steps`, which callers compare with their data.

    BLUP half: a BLUP model scores intercept + sum(effects * (part -
    mean) / std) over the real and imaginary parts of its bins, which is
    linear in the spectrum. Summed over the BLUP models that is `const`
    plus the dot of the spectrum with one complex weight table
    [n_variables, n_bins] (real weights on real parts, imaginary on
    imaginary), and so, in the time domain, `const` plus one length-T
    kernel per variable dotted with its series; the kernels are one
    inverse real FFT of the table. The imaginary parts of bin 0 and of
    the even-T Nyquist bin are identically 0 and get weight 0, so their
    floored 1e-12 std adds nothing.

    Network half: per variable, the sorted union of the bins the
    networks read (`union_bins`, as `run_training_grid` takes it); each
    network gathers its bins from the union coefficients and
    standardizes them with `project`.
    """

    def __init__(self, models: list[TrainedModel | None]):
        self.models = [m for m in models if m is not None]
        if not self.models:
            raise DataError("no trained models to ensemble")
        first = self.models[0]
        self.variables, self.n_steps = first.selection.variables, first.selection.n_steps
        for m in self.models:
            if (m.selection.variables, m.selection.n_steps) != (self.variables, self.n_steps):
                raise DataError(f"model {m.model_id} was fit on other variables or time "
                                f"steps than model {first.model_id}")
        V, T = len(self.variables), self.n_steps
        self.kinds = sorted({m.kind for m in self.models})
        self.const = 0.0
        self.weights = np.zeros((V, n_bins(T)), dtype=np.complex128)
        for m in self.models:
            if m.kind == "blup":
                effects = m.blup.effects.reshape(V, m.selection.k, 2)
                w_re = effects[..., 0] / m.norm.std_re
                w_im = effects[..., 1] / m.norm.std_im
                self.const += (m.blup.intercept - np.sum(w_re * m.norm.mean_re)
                               - np.sum(w_im * m.norm.mean_im))
                np.add.at(self.weights, (np.arange(V)[:, None], m.selection.bins),
                          w_re + 1j * w_im)
        self.weights.imag[:, 0] = 0.0
        if T % 2 == 0:
            self.weights.imag[:, -1] = 0.0

        self.nets = [m for m in self.models if m.kind == "nn"]
        self.unions, self.gathers = union_bins([m.selection for m in self.nets], V)

    @functools.cached_property
    def time_rows(self) -> list[np.ndarray]:
        """Per variable, rows [1 + 2U, T]: T times the BLUP kernel, then
        the cos/-sin basis of the union's U bins. The inverse FFT is
        unscaled ("forward" puts the 1/T on the forward side), and the
        interior bins are halved because irfft counts each of them twice."""
        T = self.n_steps
        table = self.weights.copy()
        table[:, 1:(T + 1) // 2] /= 2.0
        kernels = np.fft.irfft(table, n=T, axis=-1, norm="forward")
        return [np.vstack([kernel, dft_basis(T, union).T])
                for kernel, union in zip(kernels, self.unions)]

    def from_products(self, products) -> dict[str, np.ndarray]:
        """Scores from the products `rows @ series` that `products` yields
        per variable, in model variable order, for `rows` in `time_rows`
        and time-major series [n_steps, n]: the [1 + 2U, n] products
        divided by T, then the BLUP sum, each network's score in model
        order, and the per-kind and all-model "combined" means. The
        products must be finite; their producers check them."""
        blup, union = self.const, []
        for product in products:
            parts = product / self.n_steps
            u = (parts.shape[0] - 1) // 2
            blup = blup + parts[0]
            union.append((parts[1:1 + u] + 1j * parts[1 + u:]).T)
        union = np.concatenate(union, axis=1)
        sums = {"blup": blup, "nn": 0.0}
        total = blup
        for m, gather in zip(self.nets, self.gathers):
            s = m.score_features(project(union[:, gather], m.norm))
            sums["nn"] = sums["nn"] + s
            total = total + s
        out = {kind: sums[kind] / sum(m.kind == kind for m in self.models)
               for kind in self.kinds}
        out["combined"] = total / len(self.models)
        return out


def ensemble_scores(models: list[TrainedModel | None], series: np.ndarray
                    ) -> dict[str, np.ndarray]:
    """Mean score per kind plus the all-model "combined" mean of sample
    series [n, n_variables, n_steps], with the arithmetic `predict_map`
    uses (EnsembleScorer.from_products); each variable's products come
    from one matmul over all steps."""
    scorer, series = EnsembleScorer(models), np.asarray(series)
    V = len(scorer.variables)
    if series.ndim != 3 or series.shape[1:] != (V, scorer.n_steps):
        raise ValueError(f"series shaped {series.shape}, models expect [n, {V}, "
                         f"{scorer.n_steps}]")
    if not np.all(np.isfinite(series)):
        raise ValueError("series contains non-finite values")
    return scorer.from_products(
        [rows @ np.ascontiguousarray(series[:, v].T, dtype=np.float64)
         for v, rows in enumerate(scorer.time_rows)])


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
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "Calibration":
        return cls(slope=json_finite(d["slope"], "slope"),
                   intercept=json_finite(d["intercept"], "intercept"),
                   r2=float(d["r2"]), n=json_int(d["n"], "n"))


def fit_calibration(samples: list[LabeledSample], scores: np.ndarray) -> Calibration:
    """Least squares NDVI-on-score line over CALIBRATION_CATEGORIES."""
    idx = [i for i, s in enumerate(samples) if s.category in CALIBRATION_CATEGORIES]
    if len(idx) < 2:
        raise DataError(
            f"calibration needs at least 2 samples in categories {CALIBRATION_CATEGORIES}, "
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

    Scoring reads the series, not their spectra: per variable, the
    products of the ensemble's BLUP kernel and the networks' union bins
    with every valid pixel's series (grid.series_products, over `jobs`
    threads), then EnsembleScorer.from_products.
    """
    scorer = EnsembleScorer(models)
    if (scorer.variables, scorer.n_steps) != (cube.variables, cube.time.n_steps):
        raise DataError(f"models were fit on variables {scorer.variables} over "
                        f"{scorer.n_steps} time steps, cube has {cube.variables} over "
                        f"{cube.time.n_steps}")
    scores = scorer.from_products(series_products(cube, scorer.time_rows, jobs))
    out = {}
    for name, values in scores.items():
        out[name] = np.full(cube.spec.shape, np.nan)
        out[name][cube.mask] = values
    return out


# ---------------------------------------------------------------------------
# agreement statistics


def map_agreement_iou(a: np.ndarray, b: np.ndarray) -> float:
    """IoU of the suitable regions (score >= CSS_THRESHOLD) of two maps.

    Pixels non-finite in either map are ignored; an empty union gives
    the NaN sentinel.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DataError(f"maps are misaligned: {a.shape} vs {b.shape}")
    valid = np.isfinite(a) & np.isfinite(b)
    A = (a >= CSS_THRESHOLD) & valid
    B = (b >= CSS_THRESHOLD) & valid
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
