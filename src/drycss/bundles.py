"""On-disk model bundles.

One directory per trained model, all three files written and read here,
the weights through grid's float32 pair (`write_f32`, `read_f32`):

    <run>/
      model.json      format, version, kind, repetition, seed, and
                      intercept and lambda (ridge) or per-section
                      topologies (networks)
      weights.f32     all weights, little-endian float32, flat
      features.json   the frequency selection and its normalization:
                      version, variables, n_steps, bins [V, k] and
                      mean_re, std_re, mean_im, std_im, each [V, k]

Network weight layout is section-major, encoder then classifier; each
section is its net's `theta` (the trainable parameters in canonical
layer order) followed by its `state` (the batch-norm running
statistics). No size is stored twice: k is the bins' width, a ridge
model has one weight per feature, a network's weight count and latent
width follow from its topology, so weights.f32 is read at exactly the
length those give and a truncated or padded file fails loudly. Earlier
bundle versions (1 held the decoder, 2 stored each size beside its
arrays) are refused. A load checks that every bin is an integer below
n_bins(n_steps), every normalization table is [V, k] of finite values
with positive stds, every weight and solver scalar is finite, and a
network's layers chain from the V * k * 2 features the tables make to
one output, so a hand-edited bundle fails here rather than in scoring.
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

MODEL_DOC_VERSION = 3
FEATURE_DOC_VERSION = 2
_SECTIONS = ("encoder", "classifier")
_NORM_TABLES = ("mean_re", "std_re", "mean_im", "std_im")


@dataclass
class TrainedModel:
    """One fitted suitability model plus the feature tables it expects."""

    kind: str  # "blup" or "nn"
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
        size = (self.selection.k if self.kind == "blup"
                else self.autoencoder.encoder.layers[-1].n_out)
        return f"{self.kind}_{size}_{self.repetition}"

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
        bins = self.selection.bins
        selected = np.asarray(coeffs)[..., np.arange(len(bins))[:, None], bins]
        return self.score_features(project(selected, self.norm))


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
        "repetition": model.repetition,
        "seed": model.seed,
    }
    chunks: list[np.ndarray] = []
    if model.kind == "blup":
        doc["intercept"] = model.blup.intercept
        doc["lambda"] = model.blup.lam
        chunks.append(model.blup.effects)
    else:
        sections = []
        for name, net in zip(_SECTIONS, (model.autoencoder.encoder, model.classifier.net)):
            sections.append({"name": name, "topology": net.topology()})
            chunks += [net.theta, net.state]
        doc["sections"] = sections

    write_json(path / "model.json", doc)
    write_f32(path, "weights", np.concatenate(chunks))
    sel = model.selection
    write_json(path / "features.json", {
        "version": FEATURE_DOC_VERSION, "variables": list(sel.variables),
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
    """The bundle at path whose model.json holds doc, its weights read at
    the length its feature tables and topologies give."""
    doc_path = path / "model.json"
    if (doc["format"], doc["version"]) != ("drycss-model", MODEL_DOC_VERSION):
        raise DataError(f"unsupported model bundle format/version in {doc_path}: "
                        f"{doc['format']!r} v{doc['version']!r}")
    kind = doc["kind"]
    if kind not in ("blup", "nn"):
        raise DataError(f"unknown model kind in {doc_path}: {kind!r}")
    feat_path = path / "features.json"
    selection, norm = read_json(feat_path, "feature tables",
                                lambda feat: _feature_tables(feat, feat_path))
    width = feature_dim(selection)
    nets = []
    if kind == "nn":
        sections = {s["name"]: s["topology"] for s in doc["sections"]}
        for name in _SECTIONS:
            if name not in sections:
                raise DataError(f"model bundle missing section {name}: {path}")
            nets.append(DenseNet.from_topology(sections[name]))
        layers = nets[0].layers + nets[1].layers
        if [l.n_in for l in layers] + [1] != [width] + [l.n_out for l in layers]:
            raise DataError(f"the layer widths in {doc_path} do not chain from the "
                            f"{width} features that {feat_path} makes to one output")
    vecs = [vec for net in nets for vec in (net.theta, net.state)]
    flat = read_f32(path, "weights", (width if kind == "blup" else sum(v.size for v in vecs),))
    if not np.all(np.isfinite(flat)):
        raise DataError(f"{path / 'weights.f32'} holds a non-finite weight")
    fields = dict(kind=kind, selection=selection, norm=norm,
                  **{key: json_int(doc[key], f"{key} in model.json")
                     for key in ("repetition", "seed")})
    if kind == "blup":
        return TrainedModel(**fields, blup=BlupModel(
            effects=flat, intercept=json_finite(doc["intercept"], "intercept in model.json"),
            lam=json_finite(doc["lambda"], "lambda in model.json")))
    pos = 0
    for vec in vecs:
        vec[:] = flat[pos:pos + vec.size]
        pos += vec.size
    return TrainedModel(**fields, autoencoder=AutoencoderModel(encoder=nets[0]),
                        classifier=ClassifierModel(net=nets[1]))
