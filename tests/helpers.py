"""Independent oracles used by the unit and acceptance tests."""

from __future__ import annotations

from itertools import combinations

import numpy as np


def naive_dft(x: np.ndarray) -> np.ndarray:
    """One-sided DFT by the definition, O(T^2), 1/T scaling."""
    x = np.asarray(x, dtype=np.float64)
    T = x.shape[-1]
    out = np.empty(T // 2 + 1, dtype=np.complex128)
    for k in range(T // 2 + 1):
        acc = 0.0 + 0.0j
        for t in range(T):
            acc += x[t] * np.exp(-2j * np.pi * k * t / T)
        out[k] = acc / T
    return out


def amplitudes(coeffs: np.ndarray, n_steps: int) -> np.ndarray:
    """Physical amplitude per one-sided bin: the modulus, doubled for
    every bin but DC and (even T) Nyquist."""
    if coeffs.shape[-1] != n_steps // 2 + 1:
        raise ValueError(
            f"coefficient axis has {coeffs.shape[-1]} bins, expected {n_steps // 2 + 1}")
    double = np.full(coeffs.shape[-1], 2.0)
    double[0] = 1.0
    if n_steps % 2 == 0:
        double[-1] = 1.0
    return np.abs(coeffs) * double


def reconstruct_subset(coeffs: np.ndarray, n_steps: int, subset) -> np.ndarray:
    """Literal time-domain signal using only the given one-sided bins."""
    kept = np.zeros(coeffs.shape[-1], dtype=np.complex128)
    for b in subset:
        kept[b] = coeffs[b]
    return np.fft.irfft(kept * n_steps, n=n_steps)


def brute_force_best_bins(x: np.ndarray, k: int):
    """Exhaustive best k-subset of bins by time-domain residual energy."""
    x = np.asarray(x, dtype=np.float64)
    T = x.shape[-1]
    coeffs = np.fft.rfft(x) / T
    best_err = np.inf
    best = None
    for subset in combinations(range(T // 2 + 1), k):
        resid = x - reconstruct_subset(coeffs, T, subset)
        err = float(np.sum(resid ** 2))
        if err < best_err - 1e-15:
            best_err = err
            best = subset
    return frozenset(best), best_err


def auc(scores, labels) -> float:
    """Area under the ROC curve via the rank-sum identity."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if pos.size == 0 or neg.size == 0:
        raise ValueError("need both classes")
    wins = 0.0
    for p in pos:
        wins += np.sum(p > neg) + 0.5 * np.sum(p == neg)
    return float(wins / (pos.size * neg.size))


def pairwise_min_km(lats, lons) -> float:
    """Smallest pairwise great-circle distance, brute force haversine."""
    lats = np.radians(np.asarray(lats, dtype=np.float64))
    lons = np.radians(np.asarray(lons, dtype=np.float64))
    best = np.inf
    for i in range(len(lats)):
        for j in range(i + 1, len(lats)):
            dlat = lats[j] - lats[i]
            dlon = lons[j] - lons[i]
            a = (np.sin(dlat / 2) ** 2
                 + np.cos(lats[i]) * np.cos(lats[j]) * np.sin(dlon / 2) ** 2)
            d = 2 * 6371.0 * np.arcsin(np.sqrt(a))
            best = min(best, d)
    return best


def pixel_series(cube, r0: int, r1: int):
    """Valid pixels of grid rows r0..r1-1 as (rows, cols, series), by a
    two-index gather: series is float64 [n_pixels, n_variables, n_steps]
    in row-major pixel order; rows and cols index the full grid."""
    flat = np.flatnonzero(cube.mask[r0:r1])
    W = cube.spec.n_lon
    rows, cols = r0 + flat // W, flat % W
    series = np.empty((flat.size, len(cube.variables), cube.time.n_steps))
    for vi, var in enumerate(cube.variables):
        series[:, vi, :] = cube.values[var][:, rows, cols].T
    return rows, cols, series


def rfft_ensemble_scores(models, series):
    """Per-kind mean scores and the all-model "combined" mean of series
    [n, n_variables, n_steps]: the full rfft, then each model's own
    score_coefficients, summed in model order."""
    coeffs = np.fft.rfft(np.asarray(series, dtype=np.float64), axis=-1) / series.shape[-1]
    live = [m for m in models if m is not None]
    scores = [m.score_coefficients(coeffs) for m in live]
    out = {}
    for kind in sorted({m.kind for m in live}):
        picked = [s for s, m in zip(scores, live) if m.kind == kind]
        out[kind] = sum(picked, np.zeros(len(coeffs))) / len(picked)
    out["combined"] = sum(scores, np.zeros(len(coeffs))) / len(live)
    return out
