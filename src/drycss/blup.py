"""Ridge regression of labels on spectral features (RR-BLUP form).

Treats every feature as a random effect with a shared shrinkage
parameter: solve (X'X + lambda I) beta = X'(y - ybar), intercept fixed
at ybar. When features outnumber samples the equivalent dual system
beta = X'(XX' + lambda I)^{-1}(y - ybar) is solved instead; the two
routes agree to numerical precision and tests hold them to 1e-8.
"""

from __future__ import annotations

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


def _solve_primal(X, yc, lam):
    p = X.shape[1]
    A = X.T @ X
    A[np.diag_indices(p)] += lam
    try:
        return cho_solve(cho_factor(A, lower=True), X.T @ yc)
    except LinAlgError as e:
        raise NumericalError("ridge normal equations not positive definite",
                             route="primal", lam=lam) from e


def _solve_dual(X, yc, lam):
    n = X.shape[0]
    K = X @ X.T
    K[np.diag_indices(n)] += lam
    try:
        alpha = cho_solve(cho_factor(K, lower=True), yc)
    except LinAlgError as e:
        raise NumericalError("ridge dual system not positive definite",
                             route="dual", lam=lam) from e
    return X.T @ alpha


def fit_blup(X: np.ndarray, y: np.ndarray, lam: float | None = None,
             route: str = "auto") -> BlupModel:
    """Fit ridge effects; lam defaults to the feature count.

    route: "auto" picks the dual solve when features outnumber
    samples; "primal"/"dual" force one (they agree, kept for checks).
    """
    X, y = _validate_xy(X, y)
    n, p = X.shape
    if lam is None:
        lam = float(p)
    if lam <= 0:
        raise ValueError(f"shrinkage must be positive, got {lam}")
    ybar = float(y.mean())
    yc = y - ybar
    if route == "auto":
        route = "dual" if p > n else "primal"
    if route == "primal":
        effects = _solve_primal(X, yc, lam)
    elif route == "dual":
        effects = _solve_dual(X, yc, lam)
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

    Uses the dual hat matrix H = K (K + lam I)^{-1}; the LOO residual
    at sample i is (y_i - yhat_i) / (1 - H_ii). The intercept is held
    at the full-sample mean, matching how the model is deployed.
    """
    X, y = _validate_xy(X, y)
    n = X.shape[0]
    yc = y - y.mean()
    K = X @ X.T
    Kl = K.copy()
    Kl[np.diag_indices(n)] += lam
    try:
        cf = cho_factor(Kl, lower=True)
    except LinAlgError as e:
        raise NumericalError("LOO dual system not positive definite", lam=lam) from e
    H = K @ cho_solve(cf, np.eye(n))
    resid = (yc - H @ yc) / (1.0 - np.diag(H))
    return float(np.sqrt(np.mean(resid ** 2)))


def select_lambda_loo(X: np.ndarray, y: np.ndarray) -> tuple[float, dict[float, float]]:
    """Pick lambda from the multiplicative LOO_GRID by LOO RMSE.

    Grid entries are multiples of the feature count. Returns the best
    lambda and the full {lambda: rmse} table; ties go to the smaller
    lambda.
    """
    X, y = _validate_xy(X, y)
    p = X.shape[1]
    table = {}
    for mult in LOO_GRID:
        lam = mult * p
        table[lam] = loo_rmse(X, y, lam)
    best = min(sorted(table), key=lambda l: table[l])
    return best, table
