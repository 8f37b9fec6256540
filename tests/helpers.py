"""Independent oracles used by the unit and acceptance tests."""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from itertools import combinations

import numpy as np

import drycss.pipeline as pipeline
from drycss.blup import _loo_rmse
from drycss.errors import DataError, NumericalError, read_table
from drycss.grid import SLAB_STEPS, VARIABLES, ClimateCube
from drycss.neural import (_BN_EPS, _BN_MOMENTUM, Adam, DenseNet, _block_dropout_augment,
                           _loss_and_grad, build_autoencoder, build_classifier)
from drycss.opportunity import parse_coordinate
from drycss.spectral import bin_energies, dft_coefficients, n_bins, select_frequencies
from drycss.synth import (DAY_HOURS, SUITABILITY_GAIN, VARIABLE_SCALES, YEAR_HOURS,
                          _smooth_field)


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


def loo_rmse(X, y, lam) -> float:
    """The package's leave-one-out RMSE of the ridge fit of y on X at
    lam, through the sample kernel K = X X' that `select_lambda_loo` forms."""
    X, y = np.asarray(X, dtype=np.float64), np.asarray(y, dtype=np.float64)
    return _loo_rmse(X @ X.T, y - y.mean(), lam)


def out_of_fold_scores(runs, n_samples: int) -> np.ndarray:
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


def sample_coefficients(series: np.ndarray) -> np.ndarray:
    """DFT coefficients of sample series [n_samples, n_variables,
    n_steps], [n_samples, n_variables, n_bins(n_steps)] complex128, one
    sample at a time."""
    coeffs = np.empty(series.shape[:-1] + (n_bins(series.shape[-1]),), dtype=np.complex128)
    for i, x in enumerate(series):
        coeffs[i] = dft_coefficients(x)
    return coeffs


def selected_coefficients(coeffs: np.ndarray, selection) -> np.ndarray:
    """The selection's bins of coefficients [..., n_variables, n_bins],
    as [..., n_variables, k] in ranking order."""
    coeffs = np.asarray(coeffs)
    if coeffs.shape[-2] != len(selection.variables):
        raise ValueError(
            f"coefficients carry {coeffs.shape[-2]} variables, "
            f"selection has {len(selection.variables)}")
    if coeffs.shape[-1] != n_bins(selection.n_steps):
        raise ValueError(
            f"coefficient axis has {coeffs.shape[-1]} bins, "
            f"expected {n_bins(selection.n_steps)}")
    idx = selection.bins
    return np.take_along_axis(coeffs, idx.reshape((1,) * (coeffs.ndim - 2) + idx.shape),
                              axis=-1)


def reference_training_grid(series, labels, settings, blup_sizes, nn_sizes, repetitions,
                            root_seed):
    """run_training_grid as the whole-spectrum path: every sample's full
    spectrum held at once, one per-sample bin_energies table, each run
    ranking from the mean of its training rows of that table and taking
    its bins from the full spectrum; runs trained serially through
    pipeline.train_one_run, a NumericalError recorded as a failed run."""
    coeffs = sample_coefficients(np.asarray(series))
    energies = bin_energies(coeffs, settings.n_steps)
    labels = np.asarray(labels, dtype=np.float64)
    runs, models = [], []
    for kind, size, rep in pipeline.enumerate_grid(blup_sizes, nn_sizes, repetitions):
        run_seed = pipeline.derive_seed(root_seed, kind, size, rep)
        split = pipeline.holdout_split(len(labels), settings.holdout_fraction,
                                       np.random.default_rng(
                                           pipeline.derive_seed(run_seed, "split")))
        k = size if kind == "blup" else settings.nn_feature_bins
        selection = select_frequencies(energies[split[0]].mean(axis=0), settings.variables,
                                       k, settings.n_steps)
        try:
            run, model = pipeline.train_one_run(
                selected_coefficients(coeffs, selection), selection, split, labels, kind,
                size, rep, run_seed, settings)
        except NumericalError as e:
            run, model = pipeline.TrainingRun(kind=kind, size=size, repetition=rep,
                                              seed=run_seed, failed=True, error=str(e)), None
        runs.append(run)
        models.append(model)
    return runs, models


_TABLES = resources.files("drycss.data")


def load_table_s4() -> list[dict[str, str]]:
    """The packaged 25-row candidate attribute fixture."""
    return read_table(_TABLES / "table_s4.csv", "Table S4 fixture")


def load_table_s5() -> list[dict]:
    """The packaged 13-row candidate/analog pair fixture, coordinates in
    decimal degrees."""
    return read_table(_TABLES / "table_s5.csv", "Table S5 fixture", lambda r: {
        "site": int(r["site"]),
        **{key: parse_coordinate(r[key]) for key in
           ("selected_lat", "selected_lon", "intact_lat", "intact_lon")},
        **{key: float(r[key]) for key in
           ("predicted_ndvi", "intact_ndvi", "climate_distance", "spatial_km")}})


def reference_synth_cube(spec, time, seed: int = 0, invalid_fraction: float = 0.0):
    """synth_cube as whole-array float64 expressions, one per variable: the
    oracle that the slab-wise synthesis must match byte for byte."""
    if not 0.0 <= invalid_fraction < 1.0:
        raise DataError(f"invalid_fraction out of range: {invalid_fraction}")
    rng = np.random.default_rng(seed)
    t = time.hours
    w_ann = 2.0 * np.pi / YEAR_HOURS
    w_diu = 2.0 * np.pi / DAY_HOURS

    values: dict[str, np.ndarray] = {}
    ann_shapes: dict[str, np.ndarray] = {}
    for var in VARIABLES:
        base_scale, ann_scale, diu_scale, noise_std = VARIABLE_SCALES[var]
        shape_base = _smooth_field(rng, spec.shape)
        shape_ann = _smooth_field(rng, spec.shape)
        shape_diu = _smooth_field(rng, spec.shape)
        ph_ann = rng.uniform(0.0, 2.0 * np.pi)
        ph_diu = rng.uniform(0.0, 2.0 * np.pi)
        ann_shapes[var] = shape_ann

        base = base_scale * (0.85 + 0.3 * shape_base)
        ann_amp = ann_scale * (0.5 + shape_ann)
        diu_amp = diu_scale * (0.5 + shape_diu)
        arr = (base[None, :, :]
               + ann_amp[None, :, :] * np.sin(w_ann * t + ph_ann)[:, None, None]
               + diu_amp[None, :, :] * np.sin(w_diu * t + ph_diu)[:, None, None]
               + noise_std * rng.standard_normal((time.n_steps,) + spec.shape))
        values[var] = arr.astype(np.float32)

    contrast = ann_shapes["tp"] - ann_shapes["t2m"]
    suitability = 1.0 / (1.0 + np.exp(-SUITABILITY_GAIN * contrast))

    bad = np.zeros(spec.shape, dtype=bool)
    if invalid_fraction > 0.0:
        n_bad = int(round(invalid_fraction * spec.n_lat * spec.n_lon))
        flat = rng.choice(spec.n_lat * spec.n_lon, size=n_bad, replace=False)
        bad.flat[flat] = True
        for var in VARIABLES:
            values[var][:, bad] = np.nan
        suitability = suitability.copy()
        suitability[bad] = np.nan

    cube = ClimateCube(spec=spec, time=time, variables=VARIABLES, values=values,
                       mask=~bad)
    return cube, suitability


def extract_series(cube, lat: float, lon: float) -> tuple[np.ndarray, tuple[int, int]]:
    """Time series of every variable at the grid node nearest a point.

    Returns (series, (iy, ix)) where series is float64
    [n_variables, n_steps] in cube variable order. Points outside the
    grid extent and masked pixels are errors, not NaN rows.
    """
    if not cube.spec.contains(lat, lon):
        raise DataError(
            f"point ({lat}, {lon}) outside grid extent "
            f"[{cube.spec.lat_min}, {cube.spec.lat_max}] x "
            f"[{cube.spec.lon_min}, {cube.spec.lon_max}]")
    iy, ix = cube.spec.nearest(lat, lon)
    if not cube.mask[iy, ix]:
        raise DataError(f"point ({lat}, {lon}) maps to masked pixel ({iy}, {ix})")
    series = np.empty((len(cube.variables), cube.time.n_steps), dtype=np.float64)
    for i, var in enumerate(cube.variables):
        series[i] = cube.values[var][:, iy, ix]
    return series, (iy, ix)


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


def reference_series_products(cube, rows) -> list[np.ndarray]:
    """grid.series_products with a fresh array per slab: per variable, each
    SLAB_STEPS-step slab compressed to the mask's valid columns, cast to
    float64, and rows[v] @ slab added in time order."""
    T, keep = cube.time.n_steps, cube.mask.ravel()
    out = []
    for var, r in zip(cube.variables, rows):
        values = cube.values[var].reshape(T, -1)
        acc = np.zeros((r.shape[0], np.count_nonzero(keep)))
        for t0 in range(0, T, SLAB_STEPS):
            slab = values[t0:t0 + SLAB_STEPS].compress(keep, axis=1).astype(np.float64)
            acc += r[:, t0:t0 + SLAB_STEPS] @ slab
        out.append(acc)
    return out


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


# ---------------------------------------------------------------------------
# gradient verification: central finite differences of the evaluation-mode
# loss, where batch norm applies its running statistics, so the loss is a
# fixed differentiable function of the weights. `reference_gradient_check`
# probes one parameter at a time; `gradient_check` must give its result.


@dataclass(frozen=True)
class GradCheckResult:
    max_rel_error: float
    n_checked: int
    n_excluded: int


def _relu_signature(net: DenseNet, caches: list[dict]) -> bytes:
    bits = []
    for layer, cache in zip(net.layers, caches):
        if layer.activation == "relu":
            bits.append((cache["u"] > 0.0).ravel())
    if not bits:
        return b""
    return np.packbits(np.concatenate(bits)).tobytes()


def reference_gradient_check(net: DenseNet, X: np.ndarray, Y: np.ndarray,
                             loss: str = "mse", step: float = 1e-3) -> GradCheckResult:
    """Backprop gradients vs central finite differences, all parameters.

    Each probe perturbs one entry of `theta` in place and restores it.
    The net runs in evaluation mode, so batch norm uses its running
    statistics and the loss is a fixed differentiable function of the
    weights. Parameters whose +-step evaluations land on different ReLU
    activation patterns are excluded: finite differences are invalid
    across the kink. With continuous random inputs exclusions are rare
    and counted in the result.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)

    def eval_loss():
        pred, caches = net.forward(X, want_cache=True)
        lval, _ = _loss_and_grad(pred, Y, loss)
        return lval, _relu_signature(net, caches)

    pred, caches = net.forward(X, want_cache=True)
    _, dpred = _loss_and_grad(pred, Y, loss)
    analytic = net.backward(dpred, caches)

    theta = net.theta
    max_rel = 0.0
    n_checked = 0
    n_excluded = 0
    for i in range(theta.size):
        orig = theta[i]
        theta[i] = orig + step
        lp, sig_p = eval_loss()
        theta[i] = orig - step
        lm, sig_m = eval_loss()
        theta[i] = orig
        if sig_p != sig_m:
            n_excluded += 1
            continue
        fd = (lp - lm) / (2.0 * step)
        denom = max(abs(fd), abs(analytic[i]))
        err = abs(fd - analytic[i])
        rel = err if denom < 1e-10 else err / denom
        max_rel = max(max_rel, rel)
        n_checked += 1
    return GradCheckResult(max_rel_error=max_rel, n_checked=n_checked,
                          n_excluded=n_excluded)


# floats in one batch of stacked probe activations, at the widest layer they pass
_BATCH_FLOATS = 1 << 20


def _probed_columns(layer, cache, name: str, k: np.ndarray, step: float):
    """(u, a, j): column j of the layer's pre-activation u and activation
    a, each [len(k), 2, rows], under the probes of entries k of its array
    `name` at +step and -step. A probe on W[i, j], b[j], gamma[j] or
    beta[j] changes only column j, computed here with the layer's own
    arithmetic; for W that is one dot product per row, whose rounding
    may differ from the layer's matmul in the last bits."""
    j = k % layer.n_out
    W, b = layer.W, layer.b

    def shifted(v):  # [len(k), 2, 1]: v + step and v - step, as the loop sets them
        return np.stack([v + step, v - step], axis=-1)[..., None]

    if name == "W":
        cols = np.repeat(W[:, j].T[:, None, :], 2, axis=1)  # [len(k), 2, n_in]
        cols[np.arange(len(k)), :, k // layer.n_out] = shifted(W.ravel()[k])[..., 0]
        z = cols @ cache["x"].T + b[j][:, None, None]
    elif name == "b":
        z = (cache["x"] @ W).T[j][:, None, :] + shifted(b[j])
    if not layer.batch_norm:
        u = z
    else:
        gamma, beta = layer.gamma[j][:, None, None], layer.beta[j][:, None, None]
        if name in ("W", "b"):
            zh = (z - layer.run_mean[j][:, None, None]) * cache["inv"][j][:, None, None]
        else:
            zh = cache["zh"].T[j][:, None, :]
            if name == "gamma":
                gamma = shifted(layer.gamma[j])
            else:
                beta = shifted(layer.beta[j])
        u = gamma * zh + beta
    return u, (np.maximum(u, 0.0) if layer.activation == "relu" else u), j


def gradient_check(net: DenseNet, X: np.ndarray, Y: np.ndarray,
                   loss: str = "mse", step: float = 1e-3) -> GradCheckResult:
    """reference_gradient_check's audit of every parameter, with its
    step, exclusion rule, relative error and result, a batch of probes
    at a time.

    In evaluation mode batch norm is a fixed per-column affine map, so a
    probe on a layer's W[i, j], b[j], gamma[j] or beta[j] changes only
    column j of that layer's output: that column is recomputed per probe
    and the others are taken from one unperturbed forward pass. The
    probes' activations then pass every later layer together, stacked
    as [probes, rows, width] so that each probe's rows see the matmul
    the loop's forward pass makes, and each probe's loss and ReLU
    signature come from its own rows. `theta` is never written.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    pred, caches = net.forward(X, want_cache=True)
    _, dpred = _loss_and_grad(pred, Y, loss)
    analytic = net.backward(dpred, caches)
    losses = np.full((analytic.size, 2), np.nan)  # at +step, at -step
    flipped = np.zeros(analytic.size, dtype=bool)  # ReLU signatures differ
    start = 0
    for li, (layer, cache) in enumerate(zip(net.layers, caches)):
        out = np.maximum(cache["u"], 0.0) if layer.activation == "relu" else cache["u"]
        per = max(1, _BATCH_FLOATS // (2 * len(X) * max(l.n_out for l in net.layers[li:])))
        for name in layer.param_names:
            size = getattr(layer, name).size
            for k0 in range(0, size, per):
                k = np.arange(k0, min(size, k0 + per))
                u, a, j = _probed_columns(layer, cache, name, k, step)
                bits = [(u > 0.0).reshape(len(k), 2, -1)] if layer.activation == "relu" else []
                h = np.repeat(out[None, None], 2, axis=1).repeat(len(k), axis=0)
                h[np.arange(len(k)), :, :, j] = a
                h = h.reshape(-1, *out.shape)
                for nxt in net.layers[li + 1:]:
                    h, c = nxt.forward(h, training=False)
                    if nxt.activation == "relu":
                        bits.append((c["u"] > 0.0).reshape(len(k), 2, -1))
                sq = ((h.reshape(len(k), 2, *pred.shape) - Y) ** 2).reshape(len(k), 2, -1)
                mse = np.add.reduce(sq, axis=-1) / sq.shape[-1]  # np.mean's sum and divide
                losses[start + k] = mse if loss == "mse" else np.sqrt(mse)
                if bits:
                    flipped[start + k] = np.concatenate(
                        [bit[:, 0] != bit[:, 1] for bit in bits], axis=1).any(axis=1)
            start += size
    fd = (losses[:, 0] - losses[:, 1]) / (2.0 * step)
    denom = np.maximum(np.abs(fd), np.abs(analytic))
    err = np.abs(fd - analytic)
    rel = np.divide(err, denom, out=err.copy(), where=denom >= 1e-10)
    kept = ~flipped
    return GradCheckResult(max_rel_error=float(rel[kept].max(initial=0.0)),
                           n_checked=int(kept.sum()), n_excluded=int(flipped.sum()))
