"""Independent oracles used by the unit and acceptance tests."""

from __future__ import annotations

from itertools import combinations

import numpy as np

from drycss.neural import (_BN_EPS, _BN_MOMENTUM, Adam, DenseNet, _block_dropout_augment,
                           _loss_and_grad, build_autoencoder, build_classifier)


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


# ---------------------------------------------------------------------------
# reference network training: backprop as first written, with a fresh
# array per gradient, np.mean/np.var, z - mu formed wherever it is used,
# one concatenated gradient vector per step and the input gradient of
# every layer; DenseNet.backward and _train_net must match it bit for bit


def reference_forward(net, x, training):
    """(output, per-layer caches), updating the running statistics in
    training mode."""
    caches = []
    for layer in net.layers:
        z = x @ layer.W + layer.b
        cache = {"x": x, "z": z}
        if layer.batch_norm:
            if training:
                mu = z.mean(axis=0)
                var = z.var(axis=0)
                layer.run_mean[:] = (1.0 - _BN_MOMENTUM) * layer.run_mean + _BN_MOMENTUM * mu
                layer.run_var[:] = (1.0 - _BN_MOMENTUM) * layer.run_var + _BN_MOMENTUM * var
            else:
                mu = layer.run_mean
                var = layer.run_var
            inv = 1.0 / np.sqrt(var + _BN_EPS)
            zh = (z - mu) * inv
            u = layer.gamma * zh + layer.beta
            cache.update(mu=mu, inv=inv, zh=zh, batch_stats=training)
        else:
            u = z
        cache["u"] = u
        x = np.maximum(u, 0.0) if layer.activation == "relu" else u
        caches.append(cache)
    return x, caches


def reference_backward(net, dout, caches):
    """The loss gradient in `theta`'s layout, as a new vector."""
    grads = [None] * len(net.layers)
    dx = dout
    for i in range(len(net.layers) - 1, -1, -1):
        layer, cache = net.layers[i], caches[i]
        u = cache["u"]
        du = dx * (u > 0.0) if layer.activation == "relu" else dx
        g = {}
        if layer.batch_norm:
            zh, inv = cache["zh"], cache["inv"]
            g["gamma"] = np.sum(du * zh, axis=0)
            g["beta"] = np.sum(du, axis=0)
            dzh = du * layer.gamma
            if cache["batch_stats"]:
                m = du.shape[0]
                z, mu = cache["z"], cache["mu"]
                dvar = np.sum(dzh * (z - mu) * -0.5 * inv ** 3, axis=0)
                dmu = np.sum(-dzh * inv, axis=0) + dvar * np.mean(-2.0 * (z - mu), axis=0)
                dz = dzh * inv + dvar * 2.0 * (z - mu) / m + dmu / m
            else:
                dz = dzh * inv
        else:
            dz = du
        g["W"] = cache["x"].T @ dz
        g["b"] = np.sum(dz, axis=0)
        dx = dz @ layer.W.T
        grads[i] = [g[name] for name in layer.param_names]
    return np.concatenate([g.ravel() for glist in grads for g in glist])


def reference_train(net, X, Y, params, rng, loss, augment=None):
    """Minibatch Adam training with the reference forward and backward,
    gathering inputs and targets separately; returns the trajectory."""
    n = X.shape[0]
    bs = min(params.batch_size, n)
    adam = Adam(net.theta, params.learning_rate)
    trajectory = []
    for _ in range(params.epochs):
        order = rng.permutation(n)
        losses = []
        for s in range(0, n, bs):
            idx = order[s:s + bs]
            xb = X[idx]
            if augment is not None:
                xb = augment(xb, rng)
            pred, caches = reference_forward(net, xb, training=True)
            lval, dpred = _loss_and_grad(pred, Y[idx], loss)
            adam.step(reference_backward(net, dpred, caches))
            losses.append(lval)
        trajectory.append(sum(losses) / len(losses))
    return trajectory


def reference_autoencoder(X, latent_dim, n_variables, params, seed):
    """(encoder, decoder, trajectory, final_loss) of train_autoencoder's
    recipe under the reference training; the decoder, which the package
    does not keep, maps codes back to reconstructions."""
    rng = np.random.default_rng(seed)
    net, n_encoder = build_autoencoder(X.shape[1], latent_dim, rng)
    augment = _block_dropout_augment(n_variables, X.shape[1] // n_variables, params)
    trajectory = reference_train(net, X, X, params, rng, "mse", augment)
    final = float(np.mean((reference_forward(net, X, False)[0] - X) ** 2))
    return (DenseNet(net.layers[:n_encoder]), DenseNet(net.layers[n_encoder:]),
            trajectory, final)


def reference_classifier(Z, y, params, seed):
    """(net, trajectory) of train_classifier's recipe under the
    reference training."""
    rng = np.random.default_rng(seed)
    net = build_classifier(Z.shape[1], rng)
    return net, reference_train(net, Z, y[:, None], params, rng, "rmse")
