"""Minimal dense networks in numpy: denoising autoencoder + regressor.

Everything (layers, batch norm, Adam, backprop) is implemented here in
float64 so gradients can be audited against central finite differences;
that audit, `gradient_check`, lives with the other oracles in
`tests/helpers.py`.

Autoencoders are hourglass-shaped: hidden widths halve from the input
dimension down to the latent size, the decoder mirrors the encoder.
Hidden layers are Dense -> BatchNorm -> ReLU; latent and output layers
are plain linear. Training corrupts inputs with Gaussian noise and
per-variable block dropout (one whole variable's coefficient block
zeroed) while the reconstruction target stays clean.

The suitability head maps latent codes through 64 -> 32 -> 1 with a
linear output, trained under RMSE loss.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, json_int

_BN_EPS = 1e-5
_BN_MOMENTUM = 0.1
_ADAM_BETAS = (0.9, 0.999)
_ADAM_EPS = 1e-8


@dataclass
class TrainParams:
    learning_rate: float = 1e-3
    batch_size: int = 32
    epochs: int = 1000
    noise_std: float = 0.05
    dropout_rate: float = 0.1

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive: {self.learning_rate}")
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch_size and epochs must be at least 1")
        if not 0.0 <= self.dropout_rate <= 1.0:
            raise ValueError(f"dropout_rate outside [0, 1]: {self.dropout_rate}")
        if self.noise_std < 0:
            raise ValueError(f"noise_std must be non-negative: {self.noise_std}")


class DenseLayer:
    """x @ W + b, optional batch norm, then ReLU or identity."""

    def __init__(self, n_in: int, n_out: int, activation: str = "relu",
                 batch_norm: bool = True, rng: np.random.Generator | None = None):
        if activation not in ("relu", "linear"):
            raise ValueError(f"unknown activation: {activation!r}")
        if not isinstance(batch_norm, bool):  # a truthy "no" read from JSON is not on
            raise ValueError(f"batch_norm: {batch_norm!r} is not true or false")
        self.n_in = n_in
        self.n_out = n_out
        self.activation = activation
        self.batch_norm = batch_norm
        rng = rng or np.random.default_rng(0)
        scale = np.sqrt(2.0 / n_in) if activation == "relu" else np.sqrt(1.0 / n_in)
        self.W = rng.normal(0.0, scale, size=(n_in, n_out))
        self.b = np.zeros(n_out)
        if batch_norm:
            self.gamma = np.ones(n_out)
            self.beta = np.zeros(n_out)
            self.run_mean = np.zeros(n_out)
            self.run_var = np.ones(n_out)
        # trainable parameters in canonical order; batch-norm running statistics
        self.param_names = ("W", "b", "gamma", "beta") if batch_norm else ("W", "b")
        self.state_names = ("run_mean", "run_var") if batch_norm else ()

    def forward(self, x: np.ndarray, training: bool):
        z = x @ self.W + self.b
        cache = {"x": x}
        if self.batch_norm:
            if training:
                # np.mean and np.var's own arithmetic, centring z once
                mu = np.add.reduce(z, axis=0) / len(z)
                zc = z - mu
                var = np.add.reduce(np.square(zc), axis=0) / len(z)
                # in place: the statistics are views into the net's state
                for stat, batch in ((self.run_mean, mu), (self.run_var, var)):
                    stat *= 1.0 - _BN_MOMENTUM
                    stat += _BN_MOMENTUM * batch
            else:
                zc = z - self.run_mean
                var = self.run_var
            inv = 1.0 / np.sqrt(var + _BN_EPS)
            zh = zc * inv
            u = self.gamma * zh + self.beta
            cache.update(zc=zc, inv=inv, zh=zh, batch_stats=training)
        else:
            u = z
        cache["u"] = u
        a = np.maximum(u, 0.0) if self.activation == "relu" else u
        return a, cache

    def backward(self, da: np.ndarray, cache: dict, grads: list, need_dx: bool):
        """Write the parameter gradients into `grads` (views in `param_names`
        order); return the input's gradient, or None without `need_dx`."""
        u = cache["u"]
        du = da * (u > 0.0) if self.activation == "relu" else da
        if self.batch_norm:
            zh, inv = cache["zh"], cache["inv"]
            np.add.reduce(du * zh, axis=0, out=grads[2])  # gamma
            np.add.reduce(du, axis=0, out=grads[3])  # beta
            dzh = du * self.gamma
            if cache["batch_stats"]:
                m, zc = du.shape[0], cache["zc"]
                dvar = np.add.reduce(dzh * zc * -0.5 * inv ** 3, axis=0)
                dmu = (np.add.reduce(-dzh * inv, axis=0)
                       + dvar * (np.add.reduce(-2.0 * zc, axis=0) / m))
                dz = dzh * inv + dvar * 2.0 * zc / m + dmu / m
            else:
                dz = dzh * inv
        else:
            dz = du
        np.matmul(cache["x"].T, dz, out=grads[0])  # W
        np.add.reduce(dz, axis=0, out=grads[1])  # b
        return dz @ self.W.T if need_dx else None


def _views(layers: list[DenseLayer], names: str, flat: np.ndarray) -> list[list[np.ndarray]]:
    """Per layer, views into `flat` shaped like its arrays under `names`: the canonical layout."""
    arrays = [[getattr(layer, name) for name in getattr(layer, names)] for layer in layers]
    parts = iter(np.split(flat, np.cumsum([a.size for mine in arrays for a in mine], dtype=int)))
    return [[next(parts).reshape(a.shape) for a in mine] for mine in arrays]


def _pack(layers: list[DenseLayer], names: str) -> np.ndarray:
    """Copy the arrays each layer lists under `names` into one float64
    vector in the canonical layout, and rebind them as views into it."""
    flat = np.concatenate([getattr(l, n).ravel() for l in layers
                           for n in getattr(l, names)] or [np.empty(0)])
    for layer, views in zip(layers, _views(layers, names, flat)):
        for name, view in zip(getattr(layer, names), views):
            setattr(layer, name, view)
    return flat


class DenseNet:
    """A stack of DenseLayers whose arrays are views into two flat vectors:
    `theta`, the trainable parameters in canonical layer order, and
    `state`, the batch-norm running statistics. Building a DenseNet moves
    its layers' arrays into its own vectors; `backward` writes `grad`."""

    def __init__(self, layers: list[DenseLayer]):
        if not layers:
            raise ValueError("network needs at least one layer")
        self.layers = layers
        self.theta = _pack(layers, "param_names")
        self.state = _pack(layers, "state_names")
        self.grad = np.zeros_like(self.theta)
        self._grads = _views(layers, "param_names", self.grad)

    def forward(self, x: np.ndarray, training: bool = False, want_cache: bool = False):
        caches = [] if want_cache else None
        for layer in self.layers:
            x, cache = layer.forward(x, training=training)
            if want_cache:
                caches.append(cache)
        return (x, caches) if want_cache else x

    def backward(self, dout: np.ndarray, caches: list[dict]) -> np.ndarray:
        """The loss gradient in `theta`'s layout, in `self.grad`: the next call overwrites it."""
        dx = dout
        for i in range(len(self.layers) - 1, -1, -1):
            dx = self.layers[i].backward(dx, caches[i], self._grads[i], need_dx=i > 0)
        return self.grad

    def topology(self) -> list[dict]:
        return [{"n_in": l.n_in, "n_out": l.n_out, "activation": l.activation,
                 "batch_norm": l.batch_norm} for l in self.layers]

    @classmethod
    def from_topology(cls, topo: list[dict]) -> "DenseNet":
        return cls([DenseLayer(json_int(t["n_in"], "n_in"), json_int(t["n_out"], "n_out"),
                               t["activation"], t["batch_norm"]) for t in topo])


# ---------------------------------------------------------------------------
# loss and optimizer


def _loss_and_grad(pred: np.ndarray, target: np.ndarray, kind: str):
    diff = pred - target
    mse = float(np.mean(diff ** 2))
    if kind == "mse":
        return mse, 2.0 * diff / diff.size
    if kind == "rmse":
        rmse = np.sqrt(mse)
        return rmse, diff / (diff.size * max(rmse, 1e-12))
    raise ValueError(f"unknown loss: {kind!r}")


class Adam:
    """Adam (beta1 0.9, beta2 0.999, eps 1e-8) with the standard bias
    correction, updating the flat parameter vector `theta` in place."""

    def __init__(self, theta: np.ndarray, lr: float):
        self.theta = theta
        self.lr = lr
        self.m = np.zeros_like(theta)
        self.v = np.zeros_like(theta)
        # scratch vectors: temporaries of theta's size would be fresh
        # allocations every step, whose page faults cost more than the math
        self._s, self._u = np.empty_like(theta), np.empty_like(theta)
        self.t = 0

    def step(self, grad: np.ndarray) -> None:
        """theta -= lr * (m / c1) / (sqrt(v / c2) + eps)"""
        self.t += 1
        b1, b2 = _ADAM_BETAS
        m, v, s, u = self.m, self.v, self._s, self._u
        m *= b1
        m += np.multiply(grad, 1.0 - b1, out=s)
        v *= b2
        v += np.multiply(np.multiply(grad, 1.0 - b2, out=s), grad, out=s)
        np.sqrt(np.divide(v, 1.0 - b2 ** self.t, out=s), out=s)
        s += _ADAM_EPS
        np.multiply(np.divide(m, 1.0 - b1 ** self.t, out=u), self.lr, out=u)
        self.theta -= np.divide(u, s, out=u)


# ---------------------------------------------------------------------------
# architectures


def hourglass_widths(n_features: int, latent_dim: int) -> list[int]:
    """Encoder hidden widths: halve from the input until the latent size."""
    widths = []
    w = n_features // 2
    while w > latent_dim:
        widths.append(w)
        w //= 2
    return widths


def _stack(n_in: int, hidden, n_out: int, rng: np.random.Generator) -> list[DenseLayer]:
    """Dense -> BN -> ReLU layers through the hidden widths, then a linear
    layer to n_out, drawn from rng in that order."""
    widths = [n_in, *hidden]
    return ([DenseLayer(a, b, "relu", batch_norm=True, rng=rng)
             for a, b in zip(widths, widths[1:])]
            + [DenseLayer(widths[-1], n_out, "linear", batch_norm=False, rng=rng)])


def build_autoencoder(n_features: int, latent_dim: int,
                      rng: np.random.Generator) -> tuple[DenseNet, int]:
    """Returns (net, n_encoder_layers); encoder ends at the latent layer."""
    if not 1 <= latent_dim <= n_features:
        raise ValueError(f"latent_dim {latent_dim} outside [1, {n_features}]")
    widths = hourglass_widths(n_features, latent_dim)
    encoder = _stack(n_features, widths, latent_dim, rng)
    decoder = _stack(latent_dim, widths[::-1], n_features, rng)
    return DenseNet(encoder + decoder), len(encoder)


CLASSIFIER_HIDDEN = (64, 32)


def build_classifier(latent_dim: int, rng: np.random.Generator) -> DenseNet:
    return DenseNet(_stack(latent_dim, CLASSIFIER_HIDDEN, 1, rng))


# ---------------------------------------------------------------------------
# training


def _train_net(net: DenseNet, X: np.ndarray, Y: np.ndarray, params: TrainParams,
               rng: np.random.Generator, loss: str, augment=None) -> list[float]:
    n = X.shape[0]
    bs = min(params.batch_size, n)
    adam = Adam(net.theta, params.learning_rate)
    trajectory = []
    for epoch in range(params.epochs):
        order = rng.permutation(n)
        total = 0.0
        batches = 0
        for s in range(0, n, bs):
            idx = order[s:s + bs]
            xb = X[idx]
            # augment returns a new array, so the gathered rows stay clean
            yb = xb if Y is X else Y[idx]
            if augment is not None:
                xb = augment(xb, rng)
            pred, caches = net.forward(xb, training=True, want_cache=True)
            lval, dpred = _loss_and_grad(pred, yb, loss)
            if not np.isfinite(lval):
                raise NumericalError("training diverged", epoch=epoch,
                                     learning_rate=params.learning_rate, loss=loss)
            adam.step(net.backward(dpred, caches))
            total += lval
            batches += 1
        trajectory.append(total / batches)
    return trajectory


def _block_dropout_augment(n_variables: int, block: int, params: TrainParams):
    def augment(xb: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        xb = xb + params.noise_std * rng.standard_normal(xb.shape)
        drop = rng.random(xb.shape[0]) < params.dropout_rate
        which = rng.integers(0, n_variables, size=xb.shape[0])
        for r in np.flatnonzero(drop):
            xb[r, which[r] * block:(which[r] + 1) * block] = 0.0
        return xb
    return augment


@dataclass
class AutoencoderModel:
    encoder: DenseNet
    trajectory: list[float] = field(repr=False, default_factory=list)
    final_loss: float = float("nan")

    def encode(self, X: np.ndarray) -> np.ndarray:
        return self.encoder.forward(np.asarray(X, dtype=np.float64))


def train_autoencoder(X: np.ndarray, latent_dim: int, n_variables: int,
                      params: TrainParams, seed: int) -> AutoencoderModel:
    """Denoising autoencoder on feature rows grouped into variable blocks.

    X is [n_samples, n_features] with n_features divisible by
    n_variables; dropout zeroes one variable's whole block per
    corrupted sample. Raises NumericalError when the loss goes
    non-finite, reporting epoch and learning rate.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError(f"X must be [n>=2, features], got {X.shape}")
    if X.shape[1] % n_variables != 0:
        raise ValueError(
            f"feature count {X.shape[1]} not divisible into {n_variables} variable blocks")
    rng = np.random.default_rng(seed)
    net, n_encoder = build_autoencoder(X.shape[1], latent_dim, rng)
    augment = _block_dropout_augment(n_variables, X.shape[1] // n_variables, params)
    trajectory = _train_net(net, X, X, params, rng, "mse", augment)
    clean = net.forward(X)
    final = float(np.mean((clean - X) ** 2))
    return AutoencoderModel(encoder=DenseNet(net.layers[:n_encoder]), trajectory=trajectory,
                            final_loss=final)


@dataclass
class ClassifierModel:
    net: DenseNet
    trajectory: list[float] = field(repr=False, default_factory=list)
    final_rmse: float = float("nan")

    def predict(self, Z: np.ndarray) -> np.ndarray:
        out = self.net.forward(np.asarray(Z, dtype=np.float64))
        return out[:, 0]


def train_classifier(Z: np.ndarray, y: np.ndarray, params: TrainParams,
                     seed: int) -> ClassifierModel:
    """RMSE-trained head from latent codes to a scalar suitability score."""
    Z = np.asarray(Z, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if Z.ndim != 2 or y.shape != (Z.shape[0],):
        raise ValueError(f"bad shapes: Z {Z.shape}, y {y.shape}")
    rng = np.random.default_rng(seed)
    net = build_classifier(Z.shape[1], rng)
    trajectory = _train_net(net, Z, y[:, None], params, rng, "rmse")
    pred = net.forward(Z)[:, 0]
    final = float(np.sqrt(np.mean((pred - y) ** 2)))
    return ClassifierModel(net=net, trajectory=trajectory, final_rmse=final)

