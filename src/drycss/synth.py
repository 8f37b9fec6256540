"""Synthetic climate cubes and NDVI stacks with a planted suitability field.

Every variable is base + annual sinusoid + diurnal sinusoid + white
noise, with smoothly varying amplitude fields. The planted suitability
is a logistic function of the contrast between the precipitation and
temperature annual-amplitude shapes, so a spectral model that reads
annual amplitudes can recover it. At the default 3-hourly, one-year
axis (2920 steps) the annual cycle falls exactly in DFT bin 1 and the
diurnal cycle in bin 365.

NDVI tracks suitability (veg = 0.02 + 0.26 * suitability) except at
planted anomalies: irrigated pixels (mid-low suitability, high NDVI)
and degraded pixels (mid-high suitability, low NDVI). Off-season
observations carry a large greening offset so any growing-season
window violation shows up in tests.

The cube is written in CUBE_SLAB_STEPS-step time slabs, so the stage
holds the float32 cube plus two small float64 buffers. The slab size
changes no byte: each element sees the same float64 operations in the
same order, and the normal stream continues across the per-slab draws.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .errors import DataError
from .grid import (SUMMER_DOY, ClimateCube, GridSpec, NdviObservation, NdviRaster,
                   TimeAxis, VARIABLES, great_circle_km)
from .opportunity import DEFAULT_MIN_SPACING_KM
from .pipeline import CSS_THRESHOLD, VEG_THRESHOLD, LabeledSample

YEAR_HOURS = 8760.0
DAY_HOURS = 24.0

# per-variable (base level, annual amplitude, diurnal amplitude, noise std)
VARIABLE_SCALES = {
    "d2m": (285.0, 6.0, 3.0, 0.5),
    "evabs": (1.0e-4, 8.0e-5, 4.0e-5, 5.0e-6),
    "evaow": (6.0e-5, 4.0e-5, 2.0e-5, 3.0e-6),
    "evatc": (9.0e-5, 7.0e-5, 3.0e-5, 4.0e-6),
    "evavt": (7.0e-5, 5.0e-5, 2.0e-5, 3.0e-6),
    "sp": (9.7e4, 4.0e2, 1.5e2, 3.0e1),
    "src": (2.0e-4, 1.5e-4, 5.0e-5, 1.0e-5),
    "sro": (5.0e-5, 4.0e-5, 1.0e-5, 2.0e-6),
    "ssrd": (1.2e6, 4.0e5, 8.0e5, 2.0e4),
    "ssro": (3.0e-5, 2.0e-5, 8.0e-6, 1.5e-6),
    "stl1": (300.0, 10.0, 8.0, 0.4),
    "stl2": (299.0, 8.0, 3.0, 0.2),
    "stl3": (298.0, 5.0, 1.0, 0.1),
    "stl4": (297.0, 3.0, 0.2, 0.05),
    "strd": (1.1e6, 2.0e5, 1.5e5, 1.0e4),
    "swvl1": (0.08, 0.05, 0.01, 2.0e-3),
    "swvl2": (0.09, 0.04, 0.006, 1.5e-3),
    "swvl3": (0.10, 0.03, 0.003, 1.0e-3),
    "swvl4": (0.11, 0.02, 0.001, 8.0e-4),
    "t2m": (299.0, 8.0, 6.0, 0.6),
    "tp": (1.2e-4, 1.0e-4, 2.0e-5, 8.0e-6),
    "u10": (1.0, 1.5, 1.0, 0.3),
    "v10": (-0.5, 1.2, 0.8, 0.25),
}

# logistic gain from amplitude contrast to suitability; kept small enough
# that suitability stays highly correlated with the raw contrast
SUITABILITY_GAIN = 3.5

DESK_GRID = GridSpec(lat_min=20.0, lat_max=23.1, lon_min=40.0, lon_max=43.1,
                     n_lat=32, n_lon=32)
DESK_TIME = TimeAxis(start="2020-01-01T00:00:00Z", step_hours=3.0, n_steps=2920)

# Time steps per slab of synth_cube: its two float64 [slab, pixels] buffers
# are 160 KB each on a 50x50 grid, so every pass over a slab stays in L2.
# On the map world 8-16 steps were fastest; 256-step slabs spill and ran
# about 30 % slower.
CUBE_SLAB_STEPS = 8


def _smooth_field(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    """Random smooth field of six cosine modes, min-max scaled to [0, 1]."""
    u = np.linspace(0.0, 1.0, shape[0])[:, None]
    v = np.linspace(0.0, 1.0, shape[1])[None, :]
    f = np.zeros(shape)
    for _ in range(6):
        fy, fx = rng.uniform(0.4, 2.4, size=2)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        amp = rng.uniform(0.4, 1.0)
        f += amp * np.cos(2.0 * np.pi * (fy * u + fx * v) + phase)
    lo, hi = f.min(), f.max()
    return (f - lo) / (hi - lo)


def synth_cube(spec: GridSpec = DESK_GRID, time: TimeAxis = DESK_TIME,
               seed: int = 0, invalid_fraction: float = 0.0
               ) -> tuple[ClimateCube, np.ndarray]:
    """Generate a cube plus its planted suitability field in [0, 1].

    Pure function of the arguments: identical inputs give bit-identical
    output. invalid_fraction > 0 masks that fraction of pixels (all
    variables NaN there, suitability NaN too). Each variable is filled in
    CUBE_SLAB_STEPS-step slabs through two reused float64 buffers; the
    slab size changes no byte, as the normal stream continues across draws.
    """
    if not 0.0 <= invalid_fraction < 1.0:
        raise DataError(f"invalid_fraction out of range: {invalid_fraction}")
    rng = np.random.default_rng(seed)
    t = time.hours[:, None]
    w_ann = 2.0 * np.pi / YEAR_HOURS
    w_diu = 2.0 * np.pi / DAY_HOURS
    acc = np.empty((CUBE_SLAB_STEPS, spec.n_lat * spec.n_lon))
    x = np.empty_like(acc)

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

        base = base_scale * (0.85 + 0.3 * shape_base.ravel())
        ann_amp = ann_scale * (0.5 + shape_ann.ravel())
        diu_amp = diu_scale * (0.5 + shape_diu.ravel())
        sin_ann = np.sin(w_ann * t + ph_ann)
        sin_diu = np.sin(w_diu * t + ph_diu)
        arr = np.empty((time.n_steps, acc.shape[1]), dtype=np.float32)
        # ((base + ann) + diu) + noise, in float64, rounded once to float32
        for t0 in range(0, time.n_steps, CUBE_SLAB_STEPS):
            rows = slice(t0, t0 + CUBE_SLAB_STEPS)
            out = arr[rows]
            a, b = acc[:len(out)], x[:len(out)]
            np.multiply(ann_amp, sin_ann[rows], out=b)
            np.add(base, b, out=a)
            np.multiply(diu_amp, sin_diu[rows], out=b)
            a += b
            rng.standard_normal(out=b)
            b *= noise_std
            np.add(a, b, out=out, casting="same_kind")
        values[var] = arr.reshape((time.n_steps,) + spec.shape)

    contrast = ann_shapes["tp"] - ann_shapes["t2m"]
    suitability = 1.0 / (1.0 + np.exp(-SUITABILITY_GAIN * contrast))

    bad = np.zeros(spec.shape, dtype=bool)
    if invalid_fraction > 0.0:
        n_bad = int(round(invalid_fraction * spec.n_lat * spec.n_lon))
        flat = rng.choice(spec.n_lat * spec.n_lon, size=n_bad, replace=False)
        bad.flat[flat] = True
        for var in VARIABLES:
            values[var][:, bad] = np.nan
        suitability[bad] = np.nan

    # finite but for the NaN planted at the bad pixels: save_cube does the one scan
    cube = ClimateCube(spec=spec, time=time, variables=VARIABLES, values=values,
                       mask=~bad)
    return cube, suitability


DEFAULT_NDVI_YEARS = (2020, 2021, 2022, 2023, 2024)
SUMMER_DOYS = (100, 140, 180, 220)
OFF_SEASON_DOYS = (40, 300)
OFF_SEASON_BOOST = 0.18


def synth_ndvi(spec: GridSpec, suitability: np.ndarray, seed: int = 0,
               n_irrigated: int = 20, n_degraded: int = 20,
               ) -> tuple[NdviRaster, np.ndarray, np.ndarray]:
    """NDVI stack over DEFAULT_NDVI_YEARS on a twice-finer grid, with
    planted anomalies.

    Returns (raster, irrigated_mask, degraded_mask); masks live on the
    coarse cube grid. Irrigated pixels sit at suitability [0.30, 0.48]
    with high NDVI, degraded at [0.52, 0.70] with low NDVI, so the two
    auxiliary reference categories exist by construction.
    """
    if suitability.shape != spec.shape:
        raise DataError("suitability shape does not match grid")
    rng = np.random.default_rng(seed)
    valid = np.isfinite(suitability)

    def plant(lo, hi, n, taken):
        band = valid & (suitability > lo) & (suitability < hi) & ~taken
        idx = np.flatnonzero(band)
        if idx.size < n:
            raise DataError(
                f"cannot plant {n} anomalies in suitability band ({lo}, {hi}); "
                f"only {idx.size} pixels available")
        pick = rng.choice(idx, size=n, replace=False)
        mask = np.zeros(spec.shape, dtype=bool)
        mask.flat[pick] = True
        return mask

    irrigated = plant(0.30, 0.48, n_irrigated, np.zeros(spec.shape, dtype=bool))
    degraded = plant(0.52, 0.70, n_degraded, irrigated)

    base = 0.02 + 0.26 * np.where(valid, suitability, np.nan)
    base[irrigated] = rng.uniform(0.28, 0.42, size=int(irrigated.sum()))
    base[degraded] = rng.uniform(0.02, 0.06, size=int(degraded.sum()))

    fine = replace(spec, n_lat=2 * spec.n_lat - 1, n_lon=2 * spec.n_lon - 1)  # same extent
    # nearest coarse node per fine node
    iy = np.clip(np.floor((fine.lats - spec.lat_min) / spec.dlat + 0.5), 0, spec.n_lat - 1).astype(int)
    ix = np.clip(np.floor((fine.lons - spec.lon_min) / spec.dlon + 0.5), 0, spec.n_lon - 1).astype(int)
    base_fine = base[np.ix_(iy, ix)]

    observations = []
    for year in DEFAULT_NDVI_YEARS:
        for doy in sorted(SUMMER_DOYS + OFF_SEASON_DOYS):
            v = base_fine + 0.01 * rng.standard_normal(fine.shape)
            if not (SUMMER_DOY[0] <= doy <= SUMMER_DOY[1]):
                v = v + OFF_SEASON_BOOST
            speckle = rng.random(fine.shape) < 0.01
            v = np.clip(v, -0.05, 0.95)
            v[speckle] = np.nan
            observations.append(NdviObservation(year, doy, v.astype(np.float32)))
    raster = NdviRaster(spec=fine, observations=observations)
    return raster, irrigated, degraded


CATEGORIES = ("HiSuit-HiVeg", "LoSuit-LoVeg", "LoSuit-HiVeg", "HiSuit-LoVeg")
DEFAULT_COUNTS = {"HiSuit-HiVeg": 101, "LoSuit-LoVeg": 101,
                  "LoSuit-HiVeg": 14, "HiSuit-LoVeg": 14}


def sample_reference_sites(spec: GridSpec, suitability: np.ndarray,
                           summer_ndvi: np.ndarray,
                           irrigated: np.ndarray, degraded: np.ndarray,
                           counts: dict[str, int] | None = None,
                           seed: int = 0, min_spacing_km: float = DEFAULT_MIN_SPACING_KM):
    """Draw labelled reference sites of all four categories.

    Sites are picked pixel-disjoint with pairwise spacing of at least
    min_spacing_km (greedy over a seeded shuffle, spacing shared across
    categories). Label is 1 for the HiSuit categories. Raises when a
    category cannot reach its count.
    """
    counts = dict(DEFAULT_COUNTS if counts is None else counts)
    rng = np.random.default_rng(seed)
    valid = np.isfinite(suitability) & np.isfinite(summer_ndvi)
    natural = valid & ~irrigated & ~degraded
    hi = suitability > CSS_THRESHOLD
    veg = summer_ndvi >= VEG_THRESHOLD
    eligible = {
        "HiSuit-HiVeg": natural & hi & veg,
        "LoSuit-LoVeg": natural & ~hi & ~veg,
        "LoSuit-HiVeg": irrigated & valid & ~hi & veg,
        "HiSuit-LoVeg": degraded & valid & hi & ~veg,
    }

    samples = []
    taken_lat: list[float] = []
    taken_lon: list[float] = []
    site_id = 0
    for cat in CATEGORIES:
        need = counts[cat]
        idx = np.flatnonzero(eligible[cat])
        order = rng.permutation(idx.size)
        got = 0
        for j in order:
            if got == need:
                break
            iy, ix = divmod(int(idx[j]), spec.n_lon)
            lat, lon = spec.node(iy, ix)
            if taken_lat:
                d = great_circle_km(np.array(taken_lat), np.array(taken_lon), lat, lon)
                if np.min(d) < min_spacing_km:
                    continue
            taken_lat.append(lat)
            taken_lon.append(lon)
            samples.append(LabeledSample(
                site_id=site_id, lat=lat, lon=lon, iy=iy, ix=ix,
                category=cat, label=1.0 if cat.startswith("HiSuit") else 0.0,
                ndvi=float(summer_ndvi[iy, ix])))
            site_id += 1
            got += 1
        if got < need:
            raise DataError(
                f"category {cat}: needed {need} sites, found {got} "
                f"satisfying spacing {min_spacing_km} km")
    return samples
