"""Fourier compression of climate series into fixed-length features.

Coefficients are one-sided DFT bins scaled by 1/T, so bin 0 equals the
series mean and the physical amplitude of an interior bin is twice its
modulus. Ranking uses the mean two-sided spectral energy per bin
(|c|^2 times its two-sided multiplicity), which makes a k-bin prefix
exactly the k-sparse reconstruction with maximal captured energy; for
interior bins the order coincides with amplitude ranking.

Feature vectors interleave the standardized real and imaginary parts
of the selected bins, variable-major, in ranking order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, read_json

FEATURE_DOC_VERSION = 1


def dft_coefficients(series: np.ndarray) -> np.ndarray:
    """One-sided DFT with 1/T scaling along the last axis.

    series must be real and finite; returns complex128 with
    floor(T/2)+1 bins. Coefficient 0 is the mean of the series.
    """
    x = np.asarray(series, dtype=np.float64)
    if x.shape[-1] < 2:
        raise ValueError("series must have at least 2 samples")
    if not np.all(np.isfinite(x)):
        raise ValueError("series contains non-finite values")
    return np.fft.rfft(x, axis=-1) / x.shape[-1]


def n_bins(n_steps: int) -> int:
    return n_steps // 2 + 1


def _multiplicity(n_steps: int) -> np.ndarray:
    """Two-sided bin count per one-sided bin: 1 for DC and (even T) Nyquist."""
    m = np.full(n_bins(n_steps), 2.0)
    m[0] = 1.0
    if n_steps % 2 == 0:
        m[-1] = 1.0
    return m


def amplitudes(coeffs: np.ndarray, n_steps: int) -> np.ndarray:
    """Physical amplitude per bin: modulus, doubled for interior bins."""
    if coeffs.shape[-1] != n_bins(n_steps):
        raise ValueError(
            f"coefficient axis has {coeffs.shape[-1]} bins, expected {n_bins(n_steps)}")
    return np.abs(coeffs) * _multiplicity(n_steps)


def bin_energies(coeffs: np.ndarray, n_steps: int) -> np.ndarray:
    """Two-sided spectral energy per bin, |c|^2 times multiplicity.

    Scaled so n_steps * sum equals the time-domain sum of squares
    (Parseval under the 1/T convention).
    """
    if coeffs.shape[-1] != n_bins(n_steps):
        raise ValueError(
            f"coefficient axis has {coeffs.shape[-1]} bins, expected {n_bins(n_steps)}")
    return (coeffs.real ** 2 + coeffs.imag ** 2) * _multiplicity(n_steps)


def reconstruct(coeffs: np.ndarray, n_steps: int,
                bins=None) -> np.ndarray:
    """Inverse of dft_coefficients, optionally keeping only some bins."""
    c = np.asarray(coeffs, dtype=np.complex128)
    if bins is not None:
        keep = np.zeros(c.shape[-1], dtype=bool)
        keep[list(bins)] = True
        c = np.where(keep, c, 0.0)
    return np.fft.irfft(c * n_steps, n=n_steps, axis=-1)


@dataclass(frozen=True)
class FrequencySelection:
    """Per-variable retained bin indices, in ranking order."""

    variables: tuple[str, ...]
    k: int
    bins: np.ndarray  # int [n_variables, k]
    n_steps: int

    def __post_init__(self):
        if self.bins.shape != (len(self.variables), self.k):
            raise ValueError(f"bins shape {self.bins.shape} != "
                             f"({len(self.variables)}, {self.k})")

    def prefix(self, k: int) -> "FrequencySelection":
        if not 1 <= k <= self.k:
            raise ValueError(f"prefix size {k} outside [1, {self.k}]")
        return FrequencySelection(self.variables, k, self.bins[:, :k].copy(),
                                  self.n_steps)


@dataclass(frozen=True)
class NormalizationTable:
    """Training-set mean/std of the real and imaginary parts, aligned
    with a FrequencySelection's bin order."""

    mean_re: np.ndarray  # [n_variables, k]
    std_re: np.ndarray
    mean_im: np.ndarray
    std_im: np.ndarray


def select_frequencies(coeffs: np.ndarray, variables, k: int,
                       n_steps: int) -> FrequencySelection:
    """Top-k bins per variable by mean spectral energy over samples.

    coeffs is [n_samples, n_variables, n_bins]. Ties break toward the
    lower bin index, which also makes the selection nested: the top-k
    list is a prefix of the top-(k+1) list.
    """
    coeffs = np.asarray(coeffs)
    if coeffs.ndim != 3:
        raise ValueError(f"expected [samples, variables, bins], got shape {coeffs.shape}")
    n_samples, n_vars, nb = coeffs.shape
    if n_samples == 0:
        raise ValueError("no samples to rank frequencies on")
    if len(variables) != n_vars:
        raise ValueError(f"{len(variables)} variable names for {n_vars} coefficient rows")
    if not 1 <= k <= nb:
        raise ValueError(f"k={k} outside [1, {nb}]")
    if nb != n_bins(n_steps):
        raise ValueError(f"coefficient axis has {nb} bins, expected {n_bins(n_steps)}")
    mean_energy = bin_energies(coeffs, n_steps).mean(axis=0)  # [n_vars, nb]
    order = np.lexsort((np.arange(nb)[None, :].repeat(n_vars, 0), -mean_energy), axis=-1)
    return FrequencySelection(tuple(variables), k,
                              np.ascontiguousarray(order[:, :k]), n_steps)


def fit_normalization(coeffs: np.ndarray, selection: FrequencySelection
                      ) -> NormalizationTable:
    """Mean/std of selected coefficients over the training samples.

    Stds are floored at 1e-12 so constant features map to zero rather
    than dividing by zero.
    """
    coeffs = np.asarray(coeffs)
    sel = np.take_along_axis(coeffs, selection.bins[None, :, :], axis=-1)
    floor = 1e-12

    def stats(part):
        return part.mean(axis=0), np.maximum(part.std(axis=0), floor)

    mean_re, std_re = stats(sel.real)
    mean_im, std_im = stats(sel.imag)
    return NormalizationTable(mean_re=mean_re, std_re=std_re,
                              mean_im=mean_im, std_im=std_im)


def project(coeffs: np.ndarray, selection: FrequencySelection,
            norm: NormalizationTable) -> np.ndarray:
    """Coefficients [..., n_variables, n_bins] -> features [..., n_vars*k*2].

    Layout: variable-major, then bins in ranking order, (re, im) pairs.
    """
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
    lead = coeffs.shape[:-2]
    sel = np.take_along_axis(coeffs, idx.reshape((1,) * len(lead) + idx.shape), axis=-1)
    re = (sel.real - norm.mean_re) / norm.std_re
    im = (sel.imag - norm.mean_im) / norm.std_im
    out = np.empty(lead + (len(selection.variables), selection.k, 2))
    out[..., 0] = re
    out[..., 1] = im
    return out.reshape(lead + (len(selection.variables) * selection.k * 2,))


def feature_dim(selection: FrequencySelection) -> int:
    return len(selection.variables) * selection.k * 2


def truncated_coefficients(coeffs: np.ndarray, n_channels: int) -> np.ndarray:
    """Compact per-pixel climate vector for analog search.

    coeffs is [..., n_variables, n_bins]; keeps the raw re/im parts of
    bins 0..n_channels-1, variable-major, (re, im) pairs.
    """
    coeffs = np.asarray(coeffs)
    if not 1 <= n_channels <= coeffs.shape[-1]:
        raise ValueError(f"n_channels={n_channels} outside [1, {coeffs.shape[-1]}]")
    sel = coeffs[..., :n_channels]
    lead = coeffs.shape[:-2]
    out = np.empty(lead + (coeffs.shape[-2], n_channels, 2))
    out[..., 0] = sel.real
    out[..., 1] = sel.imag
    return out.reshape(lead + (coeffs.shape[-2] * n_channels * 2,))


def climate_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean distance between two climate vectors of equal length."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"climate vectors differ in shape: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


# ---------------------------------------------------------------------------
# serialization


def feature_tables_to_doc(selection: FrequencySelection,
                          norm: NormalizationTable) -> dict:
    return {
        "version": FEATURE_DOC_VERSION,
        "variables": list(selection.variables),
        "k": selection.k,
        "n_steps": selection.n_steps,
        "bins": selection.bins.tolist(),
        "mean_re": norm.mean_re.tolist(),
        "std_re": norm.std_re.tolist(),
        "mean_im": norm.mean_im.tolist(),
        "std_im": norm.std_im.tolist(),
    }


def feature_tables_from_doc(doc: dict) -> tuple[FrequencySelection, NormalizationTable]:
    version = doc.get("version")
    if version != FEATURE_DOC_VERSION:
        raise DataError(f"unsupported feature table version: {version!r}")
    try:
        selection = FrequencySelection(
            variables=tuple(doc["variables"]), k=int(doc["k"]),
            bins=np.asarray(doc["bins"], dtype=np.int64),
            n_steps=int(doc["n_steps"]))
        norm = NormalizationTable(
            mean_re=np.asarray(doc["mean_re"], dtype=np.float64),
            std_re=np.asarray(doc["std_re"], dtype=np.float64),
            mean_im=np.asarray(doc["mean_im"], dtype=np.float64),
            std_im=np.asarray(doc["std_im"], dtype=np.float64))
    except (KeyError, ValueError) as e:
        raise DataError(f"malformed feature tables: {e}") from None
    return selection, norm


def save_feature_tables(path: str | Path, selection: FrequencySelection,
                        norm: NormalizationTable) -> None:
    doc = feature_tables_to_doc(selection, norm)
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_feature_tables(path: str | Path) -> tuple[FrequencySelection, NormalizationTable]:
    path = Path(path)
    if not path.exists():
        raise DataError(f"feature tables not found: {path}")
    return feature_tables_from_doc(read_json(path, "feature tables"))
