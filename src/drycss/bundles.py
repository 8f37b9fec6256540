"""On-disk model bundles.

One directory per trained model, all three files written and read here,
the weights through grid's float32 pair (`write_f32`, `read_f32`):

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
from .errors import DataError, json_finite, json_int, json_names, read_json, write_json
from .grid import read_f32, write_f32
from .neural import AutoencoderModel, ClassifierModel, DenseNet
from .spectral import FrequencySelection, NormalizationTable, feature_dim, n_bins, project

MODEL_DOC_VERSION = 2
FEATURE_DOC_VERSION = 1
_SECTIONS = ("encoder", "classifier")
_NORM_TABLES = ("mean_re", "std_re", "mean_im", "std_im")


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

    write_json(path / "model.json", doc)
    write_f32(path, "weights", np.concatenate(chunks))
    sel = model.selection
    write_json(path / "features.json", {
        "version": FEATURE_DOC_VERSION, "variables": list(sel.variables), "k": sel.k,
        "n_steps": sel.n_steps, "bins": sel.bins.tolist(),
        **{name: getattr(model.norm, name).tolist() for name in _NORM_TABLES}})


def load_model_bundle(path: str | Path) -> TrainedModel:
    path = Path(path)
    return read_json(path / "model.json", "model metadata", lambda doc: _model(doc, path))


def _feature_tables(feat, feat_path: Path) -> tuple[FrequencySelection, NormalizationTable]:
    """The frequency selection and normalization of a features.json document."""
    if feat["version"] != FEATURE_DOC_VERSION:
        raise DataError(f"unsupported feature table version {feat['version']!r} in {feat_path}")
    bins = np.asarray(feat["bins"])
    if bins.dtype.kind != "i":
        raise DataError(f"{feat_path}: bins must be JSON integers, not {bins.dtype}")
    selection = FrequencySelection(
        variables=json_names(feat["variables"], "variables"), bins=bins,
        k=json_int(feat["k"], f"k in {feat_path.name}"),
        n_steps=json_int(feat["n_steps"], f"n_steps in {feat_path.name}"))
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
    return selection, NormalizationTable(**tables)


def _model(doc, path: Path) -> TrainedModel:
    """The bundle at path whose model.json holds doc, checked against its
    weights and its feature tables."""
    doc_path = path / "model.json"
    if (doc["format"], doc["version"]) != ("drycss-model", MODEL_DOC_VERSION):
        raise DataError(f"unsupported model bundle format/version in {doc_path}: "
                        f"{doc['format']!r} v{doc['version']!r}")
    kind = doc["kind"]
    if kind == "blup":
        n = json_int(doc["n_weights"], "n_weights in model.json")
    elif kind == "nn":
        sections = {s["name"]: s for s in doc["sections"]}
        for name in _SECTIONS:
            if name not in sections:
                raise DataError(f"model bundle missing section {name}: {path}")
        n = sum(json_int(s[key], f"{key} in model.json") for s in sections.values()
                for key in ("n_params", "n_state"))
    else:
        raise DataError(f"unknown model kind in {doc_path}: {kind!r}")
    flat = read_f32(path, "weights", (n,)).astype(np.float64)
    if not np.all(np.isfinite(flat)):
        raise DataError(f"{path / 'weights.f32'} holds a non-finite weight")
    feat_path = path / "features.json"
    selection, norm = read_json(feat_path, "feature tables",
                                lambda feat: _feature_tables(feat, feat_path))

    width = feature_dim(selection)
    fields = dict(kind=kind, selection=selection, norm=norm,
                  **{key: json_int(doc[key], f"{key} in model.json")
                     for key in ("size", "repetition", "seed")})
    if kind == "blup":
        if n != width:
            raise DataError(f"{doc_path} declares {n} weights, but {feat_path} "
                            f"makes {width} features")
        return TrainedModel(**fields, blup=BlupModel(
            effects=flat, intercept=json_finite(doc["intercept"], "intercept in model.json"),
            lam=json_finite(doc["lambda"], "lambda in model.json")))
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
                                     latent_dim=json_int(doc["latent_dim"],
                                                         "latent_dim in model.json")))
