"""Fourier compression of climate series into fixed-length features.

Coefficients are one-sided DFT bins scaled by 1/T, so bin 0 equals the
series mean and the physical amplitude of an interior bin is twice its
modulus. Ranking uses the mean two-sided spectral energy per bin
(|c|^2 times its two-sided multiplicity), which makes a k-bin prefix
exactly the k-sparse reconstruction with maximal captured energy; for
interior bins the order coincides with amplitude ranking.

Feature vectors interleave the standardized real and imaginary parts
of the selected bins, variable-major, in ranking order.

Any set of bins can also be had without the full spectrum: one real
matmul of the series against a cos/-sin basis of just those bins
(`dft_basis`, over a map through `grid.series_products`). `analogs`
takes its low bins that way, and map scoring the bins its networks read.

This module holds the transforms only; a model bundle's features.json,
which stores a selection and its normalization, belongs to
`drycss.bundles`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def dft_coefficients(series: np.ndarray) -> np.ndarray:
    """One-sided DFT with 1/T scaling along the last axis, by the FFT.

    series must be real and finite; returns complex128 with
    floor(T/2)+1 bins. Coefficient 0 is the mean of the series.
    """
    x = np.asarray(series, dtype=np.float64)
    T = x.shape[-1]
    if T < 2:
        raise ValueError("series must have at least 2 samples")
    if not np.all(np.isfinite(x)):
        raise ValueError("series contains non-finite values")
    return np.fft.rfft(x, axis=-1) / T


def dft_basis(n_steps: int, bins) -> np.ndarray:
    """[n_steps, 2*len(bins)] basis of the given bins: cos columns, then
    -sin columns, so series @ basis / T gives their real and imaginary
    parts.

    The phase of bin b at step t is 2*pi*((b*t) mod T)/T; reducing the
    integer product first keeps full precision for large b*t. The
    imaginary part of bin 0 and of the even-T Nyquist bin is identically
    0; bin 0's sine is exactly 0 already, and the Nyquist sine, whose
    phases are 0 and pi, is set to exactly 0, so both come out as the
    FFT gives them.
    """
    bins = np.asarray(bins, dtype=np.int64)
    n = bins.size
    phase = np.outer(np.arange(n_steps), bins) % n_steps
    phase = phase * (2.0 * np.pi / n_steps)
    basis = np.empty((n_steps, 2 * n))
    np.cos(phase, out=basis[:, :n])
    np.sin(phase, out=basis[:, n:])
    np.negative(basis[:, n:], out=basis[:, n:])
    basis[:, n:][:, 2 * bins == n_steps] = 0.0
    return basis


def n_bins(n_steps: int) -> int:
    return n_steps // 2 + 1


def _multiplicity(n_steps: int) -> np.ndarray:
    """Two-sided bin count per one-sided bin: 1 for DC and (even T) Nyquist."""
    m = np.full(n_bins(n_steps), 2.0)
    m[0] = 1.0
    if n_steps % 2 == 0:
        m[-1] = 1.0
    return m


def bin_energies(coeffs: np.ndarray, n_steps: int) -> np.ndarray:
    """Two-sided spectral energy per bin, |c|^2 times multiplicity.

    Scaled so n_steps * sum equals the time-domain sum of squares
    (Parseval under the 1/T convention).
    """
    if coeffs.shape[-1] != n_bins(n_steps):
        raise ValueError(
            f"coefficient axis has {coeffs.shape[-1]} bins, expected {n_bins(n_steps)}")
    return (coeffs.real ** 2 + coeffs.imag ** 2) * _multiplicity(n_steps)


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


@dataclass(frozen=True)
class NormalizationTable:
    """Training-set mean/std of the real and imaginary parts, aligned
    with a FrequencySelection's bin order."""

    mean_re: np.ndarray  # [n_variables, k]
    std_re: np.ndarray
    mean_im: np.ndarray
    std_im: np.ndarray


def select_frequencies(mean_energy: np.ndarray, variables, k: int,
                       n_steps: int) -> FrequencySelection:
    """Top-k bins per variable by mean spectral energy over samples.

    mean_energy is [n_variables, n_bins], the mean over samples of their
    bin_energies rows. Ties break toward the lower bin index, which also
    makes the selection nested: the top-k list is a prefix of the
    top-(k+1) list.
    """
    mean_energy = np.asarray(mean_energy)
    if mean_energy.ndim != 2:
        raise ValueError(f"expected [variables, bins], got shape {mean_energy.shape}")
    n_vars, nb = mean_energy.shape
    if len(variables) != n_vars:
        raise ValueError(f"{len(variables)} variable names for {n_vars} energy rows")
    if not 1 <= k <= nb:
        raise ValueError(f"k={k} outside [1, {nb}]")
    if nb != n_bins(n_steps):
        raise ValueError(f"energy axis has {nb} bins, expected {n_bins(n_steps)}")
    order = np.argsort(-mean_energy, axis=-1, kind="stable")  # ties: lower bin first
    return FrequencySelection(tuple(variables), k,
                              np.ascontiguousarray(order[:, :k]), n_steps)


def union_bins(selections, n_variables: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per variable, the sorted union of the selections' bins; and per
    selection, the [n_variables, k] positions of its bins in those
    unions laid end to end, so that `flat[..., gather]` of coefficients
    taken at the unions is the selection's bins in ranking order."""
    unions = [np.unique([b for s in selections for b in s.bins[v]]).astype(np.intp)
              for v in range(n_variables)]
    starts = np.cumsum([0] + [u.size for u in unions])
    gathers = [np.stack([starts[v] + np.searchsorted(u, s.bins[v])
                         for v, u in enumerate(unions)]) for s in selections]
    return unions, gathers


def fit_normalization(selected: np.ndarray) -> NormalizationTable:
    """Mean/std of the training samples' selected coefficients
    [n_samples, n_variables, k], in a selection's bin order.

    Stds are floored at 1e-12 so constant features map to zero rather
    than dividing by zero.
    """
    selected = np.asarray(selected)
    floor = 1e-12

    def stats(part):
        return part.mean(axis=0), np.maximum(part.std(axis=0), floor)

    mean_re, std_re = stats(selected.real)
    mean_im, std_im = stats(selected.imag)
    return NormalizationTable(mean_re=mean_re, std_re=std_re,
                              mean_im=mean_im, std_im=std_im)


def project(selected: np.ndarray, norm: NormalizationTable) -> np.ndarray:
    """Selected coefficients [..., n_variables, k], in a selection's bin
    order, -> standardized features [..., n_variables*k*2].

    Layout: variable-major, then bins in ranking order, (re, im) pairs.
    """
    *lead, n_vars, k = selected.shape
    if (n_vars, k) != norm.mean_re.shape:
        raise ValueError(f"selected coefficients [..., {n_vars}, {k}] do not match "
                         f"the normalization's {list(norm.mean_re.shape)}")
    out = np.empty(selected.shape + (2,))
    out[..., 0] = (selected.real - norm.mean_re) / norm.std_re
    out[..., 1] = (selected.imag - norm.mean_im) / norm.std_im
    return out.reshape(tuple(lead) + (n_vars * k * 2,))


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
