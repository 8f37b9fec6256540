"""On-disk model bundles.

One directory per trained model:

    <run>/
      model.json      kind, size, repetition, seed, solver scalars,
                      and (for networks) per-section topologies
    weights.f32       all weights, little-endian float32, flat
      features.json   versioned frequency selection + normalization

Network weight layout is section-major (encoder, decoder, classifier);
within a section the trainable parameters come first in canonical
layer order, then the batch-norm running statistics. Lengths are
recorded in model.json so a truncated or padded file fails loudly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .blup import BlupModel, predict_blup
from .errors import DataError, read_json
from .neural import AutoencoderModel, ClassifierModel, DenseNet
from .spectral import (FrequencySelection, NormalizationTable, feature_dim,
                       load_feature_tables, project, save_feature_tables)

MODEL_DOC_VERSION = 1

_FLOAT32 = np.dtype("<f4")


@dataclass
class TrainedModel:
    """One fitted suitability model plus the feature tables it expects."""

    kind: str  # "blup" or "nn"
    size: int  # retained bins per variable (blup) or latent dim (nn)
    repetition: int
    seed: int
    selection: FrequencySelection
    norm: NormalizationTable
    blup: BlupModel | None = None
    autoencoder: AutoencoderModel | None = None
    classifier: ClassifierModel | None = None

    def __post_init__(self):
        if self.kind == "blup":
            if self.blup is None:
                raise ValueError("blup model missing its ridge fit")
        elif self.kind == "nn":
            if self.autoencoder is None or self.classifier is None:
                raise ValueError("nn model needs autoencoder and classifier")
        else:
            raise ValueError(f"unknown model kind: {self.kind!r}")

    @property
    def model_id(self) -> str:
        return f"{self.kind}_{self.size}_{self.repetition}"

    def score_features(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != feature_dim(self.selection):
            raise ValueError(
                f"feature matrix shape {X.shape} does not match model input "
                f"{feature_dim(self.selection)}")
        if self.kind == "blup":
            return predict_blup(self.blup, X)
        return self.classifier.predict(self.autoencoder.encode(X))

    def score_coefficients(self, coeffs: np.ndarray) -> np.ndarray:
        """Score [n, n_variables, n_bins] DFT coefficient blocks."""
        return self.score_features(project(coeffs, self.selection, self.norm))


def _net_arrays(net: DenseNet) -> tuple[list[np.ndarray], list[np.ndarray]]:
    return net.params(), net.state_arrays()


def _flat_len(arrays: list[np.ndarray]) -> int:
    return int(sum(a.size for a in arrays))


def save_model_bundle(model: TrainedModel, path: str | Path,
                      force: bool = False) -> None:
    path = Path(path)
    if (path / "model.json").exists() and not force:
        raise DataError(f"model bundle already exists: {path} (use force to overwrite)")
    path.mkdir(parents=True, exist_ok=True)

    doc = {
        "format": "drycss-model",
        "version": MODEL_DOC_VERSION,
        "kind": model.kind,
        "size": model.size,
        "repetition": model.repetition,
        "seed": model.seed,
    }
    chunks: list[np.ndarray] = []
    if model.kind == "blup":
        doc["intercept"] = model.blup.intercept
        doc["lambda"] = model.blup.lam
        doc["n_weights"] = model.blup.n_features
        chunks.append(model.blup.effects)
    else:
        sections = []
        for name, net in (("encoder", model.autoencoder.encoder),
                          ("decoder", model.autoencoder.decoder),
                          ("classifier", model.classifier.net)):
            params, state = _net_arrays(net)
            sections.append({"name": name, "topology": net.topology(),
                             "n_params": _flat_len(params),
                             "n_state": _flat_len(state)})
            chunks.extend(params)
            chunks.extend(state)
        doc["latent_dim"] = model.autoencoder.latent_dim
        doc["sections"] = sections

    flat = (np.concatenate([c.ravel() for c in chunks])
            if chunks else np.empty(0))
    (path / "model.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    flat.astype(_FLOAT32).tofile(path / "weights.f32")
    save_feature_tables(path / "features.json", model.selection, model.norm)


def _fill_net(net: DenseNet, flat: np.ndarray, pos: int,
              n_params: int, n_state: int) -> int:
    params, state = _net_arrays(net)
    if _flat_len(params) != n_params or _flat_len(state) != n_state:
        raise DataError("model bundle topology does not match its weight counts")
    for arr in params + state:
        arr.flat[:] = flat[pos:pos + arr.size]
        pos += arr.size
    return pos


def load_model_bundle(path: str | Path) -> TrainedModel:
    path = Path(path)
    doc_path = path / "model.json"
    if not doc_path.exists():
        raise DataError(f"not a model bundle (no model.json): {path}")
    doc = read_json(doc_path, "model metadata")
    if doc.get("format") != "drycss-model" or doc.get("version") != MODEL_DOC_VERSION:
        raise DataError(
            f"unsupported model bundle format/version in {doc_path}: "
            f"{doc.get('format')!r} v{doc.get('version')!r}")
    weights_path = path / "weights.f32"
    if not weights_path.exists():
        raise DataError(f"model bundle missing weights.f32: {path}")
    flat = np.fromfile(weights_path, dtype=_FLOAT32).astype(np.float64)
    selection, norm = load_feature_tables(path / "features.json")

    kind = doc.get("kind")
    if kind == "blup":
        n = int(doc["n_weights"])
        if flat.size != n:
            raise DataError(
                f"weights.f32 holds {flat.size} values, model declares {n}")
        model = TrainedModel(
            kind="blup", size=int(doc["size"]), repetition=int(doc["repetition"]),
            seed=int(doc["seed"]), selection=selection, norm=norm,
            blup=BlupModel(effects=flat, intercept=float(doc["intercept"]),
                           lam=float(doc["lambda"])))
    elif kind == "nn":
        sections = {s["name"]: s for s in doc.get("sections", [])}
        for name in ("encoder", "decoder", "classifier"):
            if name not in sections:
                raise DataError(f"model bundle missing section {name}: {path}")
        total = sum(s["n_params"] + s["n_state"] for s in sections.values())
        if flat.size != total:
            raise DataError(
                f"weights.f32 holds {flat.size} values, sections declare {total}")
        nets = {}
        pos = 0
        for name in ("encoder", "decoder", "classifier"):
            s = sections[name]
            net = DenseNet.from_topology(s["topology"])
            pos = _fill_net(net, flat, pos, int(s["n_params"]), int(s["n_state"]))
            nets[name] = net
        model = TrainedModel(
            kind="nn", size=int(doc["size"]), repetition=int(doc["repetition"]),
            seed=int(doc["seed"]), selection=selection, norm=norm,
            autoencoder=AutoencoderModel(encoder=nets["encoder"],
                                         decoder=nets["decoder"],
                                         latent_dim=int(doc["latent_dim"])),
            classifier=ClassifierModel(net=nets["classifier"]))
    else:
        raise DataError(f"unknown model kind in {doc_path}: {kind!r}")
    return model
