"""On-disk model bundles.

One directory per trained model, all three files written and read here:

    <run>/
      model.json      format, version, kind, size, repetition, seed,
                      solver scalars and (for networks) per-section
                      topologies
      weights.f32     all weights, little-endian float32, flat
      features.json   the frequency selection and its normalization:
                      version, variables, k, n_steps, bins [V, k] and
                      mean_re, std_re, mean_im, std_im, each [V, k]

Network weight layout is section-major, encoder then classifier; each
section is its net's `theta` (the trainable parameters in canonical
layer order) followed by its `state` (the batch-norm running
statistics). Lengths are recorded in model.json so a truncated or
padded file fails loudly. Version 1 bundles, which also held the
decoder that scoring never uses, are refused. A load checks that every
bin is an integer below n_bins(n_steps), every normalization table is
[V, k] of finite values with positive stds, every weight and solver
scalar is finite, and the weights take the V * k * 2 features the
tables make (a network's layers chaining from there), so a hand-edited
bundle fails here rather than in scoring.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .blup import BlupModel, predict_blup
from .errors import DataError, json_finite, json_int, read_json, write_json
from .neural import AutoencoderModel, ClassifierModel, DenseNet
from .spectral import FrequencySelection, NormalizationTable, feature_dim, n_bins, project

MODEL_DOC_VERSION = 2
FEATURE_DOC_VERSION = 1
_SECTIONS = ("encoder", "classifier")
_NORM_TABLES = ("mean_re", "std_re", "mean_im", "std_im")

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


def save_model_bundle(model: TrainedModel, path: str | Path) -> None:
    """Write model.json, weights.f32 and features.json; an existing
    bundle is refused."""
    path = Path(path)
    if (path / "model.json").exists():
        raise DataError(f"model bundle already exists: {path}")
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
        for name, net in zip(_SECTIONS, (model.autoencoder.encoder, model.classifier.net)):
            sections.append({"name": name, "topology": net.topology(),
                             "n_params": net.theta.size, "n_state": net.state.size})
            chunks += [net.theta, net.state]
        doc["latent_dim"] = model.autoencoder.latent_dim
        doc["sections"] = sections

    flat = np.concatenate(chunks)
    write_json(path / "model.json", doc)
    flat.astype(_FLOAT32).tofile(path / "weights.f32")
    sel = model.selection
    write_json(path / "features.json", {
        "version": FEATURE_DOC_VERSION, "variables": list(sel.variables), "k": sel.k,
        "n_steps": sel.n_steps, "bins": sel.bins.tolist(),
        **{name: getattr(model.norm, name).tolist() for name in _NORM_TABLES}})


def _count(doc: dict, key: str, file: Path) -> int:
    return json_int(doc[key], f"{key} in {file.name}")


def load_model_bundle(path: str | Path) -> TrainedModel:
    path = Path(path)
    doc_path = path / "model.json"
    if not doc_path.exists():
        raise DataError(f"not a model bundle (no model.json): {path}")
    doc = read_json(doc_path, "model metadata")
    found = ((doc.get("format"), doc.get("version")) if isinstance(doc, dict)
             else (None, None))
    if found != ("drycss-model", MODEL_DOC_VERSION):
        raise DataError(
            f"unsupported model bundle format/version in {doc_path}: "
            f"{found[0]!r} v{found[1]!r}")
    weights_path = path / "weights.f32"
    if not weights_path.exists():
        raise DataError(f"model bundle missing weights.f32: {path}")
    feat_path = path / "features.json"
    if not feat_path.exists():
        raise DataError(f"model bundle missing features.json: {path}")
    flat = np.fromfile(weights_path, dtype=_FLOAT32).astype(np.float64)
    if not np.all(np.isfinite(flat)):
        raise DataError(f"{weights_path} holds a non-finite weight")
    feat = read_json(feat_path, "feature tables")

    kind = doc.get("kind")
    if kind not in ("blup", "nn"):
        raise DataError(f"unknown model kind in {doc_path}: {kind!r}")
    try:
        if feat["version"] != FEATURE_DOC_VERSION:
            raise DataError(f"unsupported feature table version {feat['version']!r} in {path}")
        bins = np.asarray(feat["bins"])
        if bins.dtype.kind != "i":
            raise DataError(f"{feat_path}: bins must be JSON integers, not {bins.dtype}")
        selection = FrequencySelection(
            variables=tuple(feat["variables"]), k=_count(feat, "k", feat_path), bins=bins,
            n_steps=_count(feat, "n_steps", feat_path))
        limit = n_bins(selection.n_steps)
        if not np.all((selection.bins >= 0) & (selection.bins < limit)):
            raise DataError(f"{feat_path}: a bin lies outside [0, {limit})")
        tables = {name: np.asarray(feat[name], dtype=np.float64) for name in _NORM_TABLES}
        for name, table in tables.items():
            if table.shape != selection.bins.shape:
                raise DataError(f"{feat_path}: {name} is shaped {table.shape}, "
                                f"not {selection.bins.shape} like the bins")
            if not np.all(np.isfinite(table)):
                raise DataError(f"{feat_path}: {name} holds a non-finite value")
            if name.startswith("std") and not np.all(table > 0):
                raise DataError(f"{feat_path}: {name} holds a std that is not positive")
        norm = NormalizationTable(**tables)
        width = feature_dim(selection)
        fields = dict(kind=kind, selection=selection, norm=norm,
                      **{key: _count(doc, key, doc_path)
                         for key in ("size", "repetition", "seed")})
        if kind == "blup":
            n = _count(doc, "n_weights", doc_path)
            if flat.size != n:
                raise DataError(
                    f"weights.f32 holds {flat.size} values, model declares {n}")
            if n != width:
                raise DataError(f"{doc_path} declares {n} weights, but {feat_path} "
                                f"makes {width} features")
            return TrainedModel(**fields, blup=BlupModel(
                effects=flat,
                intercept=json_finite(doc["intercept"], f"intercept in {doc_path.name}"),
                lam=json_finite(doc["lambda"], f"lambda in {doc_path.name}")))
        sections = {s["name"]: s for s in doc.get("sections", [])}
        for name in _SECTIONS:
            if name not in sections:
                raise DataError(f"model bundle missing section {name}: {path}")
        total = sum(_count(s, key, doc_path) for s in sections.values()
                    for key in ("n_params", "n_state"))
        if flat.size != total:
            raise DataError(
                f"weights.f32 holds {flat.size} values, sections declare {total}")
        nets = {}
        pos = 0
        for name in _SECTIONS:
            s = sections[name]
            net = nets[name] = DenseNet.from_topology(s["topology"])
            if (net.theta.size, net.state.size) != (s["n_params"], s["n_state"]):
                raise DataError("model bundle topology does not match its weight counts")
            for vec in (net.theta, net.state):
                vec[:] = flat[pos:pos + vec.size]
                pos += vec.size
        layers = nets["encoder"].layers + nets["classifier"].layers
        if [l.n_in for l in layers] != [width] + [l.n_out for l in layers[:-1]]:
            raise DataError(f"the layer widths in {doc_path} do not chain from the "
                            f"{width} features that {feat_path} makes")
        return TrainedModel(
            **fields, classifier=ClassifierModel(net=nets["classifier"]),
            autoencoder=AutoencoderModel(encoder=nets["encoder"],
                                         latent_dim=_count(doc, "latent_dim", doc_path)))
    except (KeyError, TypeError, ValueError) as e:
        raise DataError(f"malformed model metadata in {path}: bad or missing {e}") from None
