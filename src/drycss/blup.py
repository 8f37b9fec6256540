"""Ridge regression of labels on spectral features (RR-BLUP form).

Treats every feature as a random effect with a shared shrinkage
parameter: solve (X'X + lambda I) beta = X'(y - ybar), intercept fixed
at ybar. When features outnumber samples the equivalent dual system
beta = X'(XX' + lambda I)^{-1}(y - ybar) is solved instead; the two
routes agree to numerical precision and tests hold them to 1e-8.
"""

from __future__ import annotations

import numbers

import numpy as np
from scipy.linalg import cho_factor, cho_solve, LinAlgError

from .errors import NumericalError

# lambda grid for leave-one-out selection, in multiples of n_features
LOO_GRID = (0.01, 0.1, 1.0, 10.0, 100.0)


def _validate_xy(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    if y.shape != (X.shape[0],):
        raise ValueError(f"y shape {y.shape} does not match X rows {X.shape[0]}")
    if X.shape[0] < 2:
        raise ValueError("need at least 2 samples")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise ValueError("non-finite values in training data")
    return X, y


class BlupModel:
    """Fitted ridge model: effects per feature plus an intercept."""

    def __init__(self, effects: np.ndarray, intercept: float, lam: float):
        self.effects = np.asarray(effects, dtype=np.float64)
        self.intercept = float(intercept)
        self.lam = float(lam)

    @property
    def n_features(self) -> int:
        return self.effects.shape[0]


def _ridge_solve(G, lam, rhs, system):
    """Solve (G + lam I) Z = rhs by Cholesky, updating G's diagonal in
    place. The one factorization of this module: an indefinite system is
    a NumericalError naming it."""
    G[np.diag_indices(G.shape[0])] += lam
    try:
        return cho_solve(cho_factor(G, lower=True), rhs)
    except LinAlgError as e:
        raise NumericalError(f"ridge {system} system not positive definite",
                             lam=lam) from e


def fit_blup(X: np.ndarray, y: np.ndarray, lam: str | float = "auto",
             route: str = "auto") -> BlupModel:
    """Fit ridge effects.

    lam: "auto" is the feature count; "loo" picks from LOO_GRID by
    select_lambda_loo on these rows; a number must be positive.
    route: "auto" picks the dual solve when features outnumber
    samples; "primal"/"dual" force one (they agree, kept for checks).
    """
    X, y = _validate_xy(X, y)
    n, p = X.shape
    if lam == "auto":
        lam = float(p)
    elif lam == "loo":
        lam, _ = select_lambda_loo(X, y)
    elif not (isinstance(lam, numbers.Real) and 0 < lam < np.inf):
        raise ValueError(f"shrinkage must be auto, loo or a positive number, got {lam!r}")
    ybar = float(y.mean())
    yc = y - ybar
    if route == "auto":
        route = "dual" if p > n else "primal"
    if route == "primal":
        effects = _ridge_solve(X.T @ X, lam, X.T @ yc, "primal")
    elif route == "dual":
        effects = X.T @ _ridge_solve(X @ X.T, lam, yc, "dual")
    else:
        raise ValueError(f"unknown route: {route!r}")
    return BlupModel(effects=effects, intercept=ybar, lam=lam)


def predict_blup(model: BlupModel, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    if X.shape[1] != model.n_features:
        raise ValueError(
            f"X has {X.shape[1]} features, model expects {model.n_features}")
    return model.intercept + X @ model.effects


def loo_rmse(X: np.ndarray, y: np.ndarray, lam: float) -> float:
    """Exact leave-one-out RMSE of the centered ridge fit.

    With A = (K + lam I)^{-1}, I - K A = lam A, so the LOO residual at
    sample i, (yc - H yc)_i / (1 - H_ii) for the hat matrix H = K A and
    yc = y - mean(y), is (A yc)_i / A_ii: no hat matrix, and no
    1 - H_ii that cancels at small lam. The intercept is held at the
    full-sample mean, matching how the model is deployed.
    """
    X, y = _validate_xy(X, y)
    return _loo_rmse(X @ X.T, y - y.mean(), lam)


def _loo_rmse(K: np.ndarray, yc: np.ndarray, lam: float) -> float:
    """loo_rmse from K = X X' and the centered labels; K is not changed."""
    A = _ridge_solve(K.copy(), lam, np.eye(K.shape[0]), "LOO")
    resid = (A @ yc) / np.diag(A)
    return float(np.sqrt(np.mean(resid ** 2)))


def select_lambda_loo(X: np.ndarray, y: np.ndarray) -> tuple[float, dict[float, float]]:
    """Pick lambda from the multiplicative LOO_GRID by LOO RMSE.

    Grid entries are multiples of the feature count; every entry
    solves on one Gram matrix. Returns the best lambda and the full
    {lambda: rmse} table; ties go to the smaller lambda.
    """
    X, y = _validate_xy(X, y)
    K, yc, p = X @ X.T, y - y.mean(), X.shape[1]
    table = {mult * p: _loo_rmse(K, yc, mult * p) for mult in LOO_GRID}
    best = min(sorted(table), key=lambda l: table[l])
    return best, table
