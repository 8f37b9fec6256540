"""Gridded climate cubes and NDVI stacks on regular lat/lon grids.

On-disk cube layout (one directory per cube):

    cube/
      meta.json     grid spec, time axis, variable codes
      <var>.f32     little-endian float32, [time, lat, lon] row-major

NDVI stacks use the same idea, one grid per observation:

    ndvi/
      meta.json     grid spec plus the observation list
      <year>_<doy>.f32

The no-data sentinel is quiet NaN everywhere. A pixel is invalid when
any variable contains NaN at any time step there; on load every
variable is NaN-filled at invalid pixels so the in-memory invariant
"masked pixels are NaN in all variables, unmasked pixels contain no
NaN" always holds. Infinities are never legal and fail the load,
naming the offending variable.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError, read_json

# ERA5-Land surface variable codes carried by a cube, in canonical order.
VARIABLES = (
    "d2m", "evabs", "evaow", "evatc", "evavt", "sp", "src", "sro",
    "ssrd", "ssro", "stl1", "stl2", "stl3", "stl4", "strd",
    "swvl1", "swvl2", "swvl3", "swvl4", "t2m", "tp", "u10", "v10",
)

EARTH_RADIUS_KM = 6371.0

_FLOAT32 = np.dtype("<f4")


# ---------------------------------------------------------------------------
# grid and time axes


@dataclass(frozen=True)
class GridSpec:
    """Node-registered regular lat/lon grid.

    Node (iy, ix) sits at (lat_min + iy*dlat, lon_min + ix*dlon) with
    the last node exactly on lat_max / lon_max. Latitudes increase
    with iy, longitudes with ix.
    """

    lat_min: float
    lat_max: float
    lon_min: float
    lon_max: float
    n_lat: int
    n_lon: int

    def __post_init__(self):
        if self.n_lat < 2 or self.n_lon < 2:
            raise DataError(f"grid must be at least 2x2, got {self.n_lat}x{self.n_lon}")
        if not (self.lat_max > self.lat_min and self.lon_max > self.lon_min):
            raise DataError("grid extent is empty or inverted")

    @property
    def dlat(self) -> float:
        return (self.lat_max - self.lat_min) / (self.n_lat - 1)

    @property
    def dlon(self) -> float:
        return (self.lon_max - self.lon_min) / (self.n_lon - 1)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_lat, self.n_lon)

    @property
    def lats(self) -> np.ndarray:
        return np.linspace(self.lat_min, self.lat_max, self.n_lat)

    @property
    def lons(self) -> np.ndarray:
        return np.linspace(self.lon_min, self.lon_max, self.n_lon)

    def contains(self, lat: float, lon: float) -> bool:
        return (self.lat_min <= lat <= self.lat_max
                and self.lon_min <= lon <= self.lon_max)

    def nearest(self, lat: float, lon: float) -> tuple[int, int]:
        """Indices of the nearest grid node (no bounds check)."""
        iy = int(np.clip(np.floor((lat - self.lat_min) / self.dlat + 0.5), 0, self.n_lat - 1))
        ix = int(np.clip(np.floor((lon - self.lon_min) / self.dlon + 0.5), 0, self.n_lon - 1))
        return iy, ix

    def node(self, iy: int, ix: int) -> tuple[float, float]:
        return (self.lat_min + iy * self.dlat, self.lon_min + ix * self.dlon)

    def to_dict(self) -> dict:
        return {
            "lat_min": self.lat_min, "lat_max": self.lat_max,
            "lon_min": self.lon_min, "lon_max": self.lon_max,
            "n_lat": self.n_lat, "n_lon": self.n_lon,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GridSpec":
        try:
            return cls(
                lat_min=float(d["lat_min"]), lat_max=float(d["lat_max"]),
                lon_min=float(d["lon_min"]), lon_max=float(d["lon_max"]),
                n_lat=int(d["n_lat"]), n_lon=int(d["n_lon"]),
            )
        except KeyError as e:
            raise DataError(f"grid spec missing field {e}") from None


@dataclass(frozen=True)
class TimeAxis:
    """Uniform time axis: n_steps samples every step_hours from start."""

    start: str  # ISO 8601, informational
    step_hours: float
    n_steps: int

    def __post_init__(self):
        if self.n_steps < 2:
            raise DataError(f"time axis needs at least 2 steps, got {self.n_steps}")
        if self.step_hours <= 0:
            raise DataError(f"non-positive time step: {self.step_hours}")

    @property
    def hours(self) -> np.ndarray:
        return np.arange(self.n_steps) * self.step_hours

    def to_dict(self) -> dict:
        return {"start": self.start, "step_hours": self.step_hours,
                "n_steps": self.n_steps}

    @classmethod
    def from_dict(cls, d: dict) -> "TimeAxis":
        try:
            return cls(start=str(d["start"]), step_hours=float(d["step_hours"]),
                       n_steps=int(d["n_steps"]))
        except KeyError as e:
            raise DataError(f"time axis missing field {e}") from None


# ---------------------------------------------------------------------------
# climate cubes


@dataclass
class ClimateCube:
    """All variables of one region on a shared grid and time axis.

    values maps variable code -> float32 array [n_steps, n_lat, n_lon].
    mask is True at valid pixels.
    """

    spec: GridSpec
    time: TimeAxis
    variables: tuple[str, ...]
    values: dict[str, np.ndarray]
    mask: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        if not self.variables:
            raise DataError("cube has no variables")
        if len(set(self.variables)) != len(self.variables):
            raise DataError("duplicate variable codes in cube")
        shape = (self.time.n_steps, self.spec.n_lat, self.spec.n_lon)
        for var in self.variables:
            if var not in self.values:
                raise DataError(f"missing values for variable {var}")
            if self.values[var].shape != shape:
                raise DataError(
                    f"variable {var} has shape {self.values[var].shape}, expected {shape}")
        if self.mask is None:
            self.mask = compute_valid_mask(self.values, self.variables)
        elif self.mask.shape != self.spec.shape:
            raise DataError(f"mask shape {self.mask.shape} does not match grid {self.spec.shape}")


def compute_valid_mask(values: dict[str, np.ndarray], variables) -> np.ndarray:
    """True where no variable has NaN at any time step."""
    invalid = None
    for var in variables:
        bad = np.isnan(values[var]).any(axis=0)
        invalid = bad if invalid is None else (invalid | bad)
    return ~invalid


def save_cube(cube: ClimateCube, path: str | Path, force: bool = False) -> None:
    """Write a cube directory; refuses to overwrite unless force."""
    path = Path(path)
    if (path / "meta.json").exists() and not force:
        raise DataError(f"cube directory already exists: {path} (use force to overwrite)")
    path.mkdir(parents=True, exist_ok=True)
    meta = {
        "format": "drycss-cube",
        "version": 1,
        "grid": cube.spec.to_dict(),
        "time": cube.time.to_dict(),
        "variables": list(cube.variables),
    }
    (path / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    for var in cube.variables:
        arr = np.ascontiguousarray(cube.values[var], dtype=_FLOAT32)
        arr.tofile(path / f"{var}.f32")


def load_cube(path: str | Path, mmap: bool = False) -> ClimateCube:
    """Read a cube directory written by save_cube.

    With mmap=True arrays are memory-mapped read-only and NOT
    NaN-normalized in place; the mask is still computed and
    authoritative. Invalid pixels of an mmap'd cube may hold partial
    values in some variables.
    """
    path = Path(path)
    meta_path = path / "meta.json"
    if not meta_path.exists():
        raise DataError(f"not a cube directory (no meta.json): {path}")
    meta = read_json(meta_path, "cube metadata")
    if meta.get("format") != "drycss-cube":
        raise DataError(f"{meta_path} is not cube metadata (format={meta.get('format')!r})")
    spec = GridSpec.from_dict(meta["grid"])
    time = TimeAxis.from_dict(meta["time"])
    variables = tuple(meta.get("variables") or ())
    if not variables:
        raise DataError(f"cube {path} declares no variables")

    n = time.n_steps * spec.n_lat * spec.n_lon
    shape = (time.n_steps, spec.n_lat, spec.n_lon)
    values: dict[str, np.ndarray] = {}
    for var in variables:
        f = path / f"{var}.f32"
        if not f.exists():
            raise DataError(f"cube {path} missing data file for variable {var}")
        if mmap:
            arr = np.memmap(f, dtype=_FLOAT32, mode="r")
        else:
            arr = np.fromfile(f, dtype=_FLOAT32)
        if arr.size != n:
            raise DataError(
                f"variable {var}: file holds {arr.size} values, grid expects {n}")
        arr = arr.reshape(shape)
        if np.isinf(arr).any():
            raise DataError(f"variable {var} contains infinite values")
        values[var] = arr

    mask = compute_valid_mask(values, variables)
    if not mmap:
        invalid = ~mask
        if invalid.any():
            for var in variables:
                values[var][:, invalid] = np.nan
    return ClimateCube(spec=spec, time=time, variables=variables, values=values, mask=mask)


def pixel_series(cube: ClimateCube, r0: int, r1: int
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Valid pixels of grid rows r0..r1-1 as (rows, cols, series).

    series is float64 [n_pixels, n_variables, n_steps] in row-major
    pixel order; rows and cols index the full grid.
    """
    flat = np.flatnonzero(cube.mask[r0:r1])
    W = cube.spec.n_lon
    rows, cols = r0 + flat // W, flat % W
    series = np.empty((flat.size, len(cube.variables), cube.time.n_steps))
    for vi, var in enumerate(cube.variables):
        series[:, vi, :] = cube.values[var][:, rows, cols].T
    return rows, cols, series


def extract_series(cube: ClimateCube, lat: float, lon: float
                   ) -> tuple[np.ndarray, tuple[int, int]]:
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


# ---------------------------------------------------------------------------
# NDVI stacks


@dataclass(frozen=True)
class NdviObservation:
    year: int
    doy: int
    values: np.ndarray  # float32 [n_lat, n_lon]


@dataclass
class NdviRaster:
    """A stack of per-date NDVI grids sharing one grid spec."""

    spec: GridSpec
    observations: list[NdviObservation]

    def __post_init__(self):
        seen = set()
        for obs in self.observations:
            if obs.values.shape != self.spec.shape:
                raise DataError(
                    f"NDVI observation {obs.year}_{obs.doy} shape {obs.values.shape} "
                    f"does not match grid {self.spec.shape}")
            if not (1 <= obs.doy <= 366):
                raise DataError(f"NDVI observation day-of-year out of range: {obs.doy}")
            if (obs.year, obs.doy) in seen:
                raise DataError(f"duplicate NDVI observation {obs.year}_{obs.doy}")
            seen.add((obs.year, obs.doy))
            finite = obs.values[np.isfinite(obs.values)]
            if finite.size and (finite.min() < -1.0 or finite.max() > 1.0):
                raise DataError(
                    f"NDVI observation {obs.year}_{obs.doy} has values outside [-1, 1]")
            if np.isinf(obs.values).any():
                raise DataError(f"NDVI observation {obs.year}_{obs.doy} contains infinities")


def save_ndvi(raster: NdviRaster, path: str | Path, force: bool = False) -> None:
    path = Path(path)
    if (path / "meta.json").exists() and not force:
        raise DataError(f"NDVI directory already exists: {path} (use force to overwrite)")
    path.mkdir(parents=True, exist_ok=True)
    meta = {
        "format": "drycss-ndvi",
        "version": 1,
        "grid": raster.spec.to_dict(),
        "observations": [[obs.year, obs.doy] for obs in raster.observations],
    }
    (path / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    for obs in raster.observations:
        arr = np.ascontiguousarray(obs.values, dtype=_FLOAT32)
        arr.tofile(path / f"{obs.year}_{obs.doy}.f32")


def load_ndvi(path: str | Path) -> NdviRaster:
    path = Path(path)
    meta_path = path / "meta.json"
    if not meta_path.exists():
        raise DataError(f"not an NDVI directory (no meta.json): {path}")
    meta = read_json(meta_path, "NDVI metadata")
    if meta.get("format") != "drycss-ndvi":
        raise DataError(f"{meta_path} is not NDVI metadata (format={meta.get('format')!r})")
    spec = GridSpec.from_dict(meta["grid"])
    n = spec.n_lat * spec.n_lon
    observations = []
    for year, doy in meta.get("observations", []):
        f = path / f"{year}_{doy}.f32"
        if not f.exists():
            raise DataError(f"NDVI stack {path} missing observation file {year}_{doy}.f32")
        arr = np.fromfile(f, dtype=_FLOAT32)
        if arr.size != n:
            raise DataError(
                f"NDVI observation {year}_{doy}: file holds {arr.size} values, grid expects {n}")
        observations.append(NdviObservation(int(year), int(doy), arr.reshape(spec.shape)))
    observations.sort(key=lambda o: (o.year, o.doy))
    return NdviRaster(spec=spec, observations=observations)


# growing-season window, day-of-year bounds inclusive
SUMMER_DOY = (80, 256)


def summer_ndvi_mean(raster: NdviRaster, years, window: tuple[int, int] = SUMMER_DOY
                     ) -> np.ndarray:
    """Pixelwise mean NDVI over in-window observations of given years.

    NaN observations are skipped per pixel; a pixel with no valid
    in-window sample is NaN. A requested year with zero in-window
    observations is an error naming that year.
    """
    years = list(years)
    lo, hi = window
    picked: list[np.ndarray] = []
    per_year = {y: 0 for y in years}
    for obs in raster.observations:
        if obs.year in per_year and lo <= obs.doy <= hi:
            per_year[obs.year] += 1
            picked.append(obs.values.astype(np.float64))
    missing = [y for y, c in sorted(per_year.items()) if c == 0]
    if missing:
        raise DataError(
            "no growing-season NDVI observations for year(s): "
            + ", ".join(str(y) for y in missing))
    stack = np.stack(picked)
    count = np.sum(~np.isnan(stack), axis=0)
    total = np.nansum(stack, axis=0)
    out = np.full(raster.spec.shape, np.nan)
    np.divide(total, count, out=out, where=count > 0)
    return out


# ---------------------------------------------------------------------------
# regridding


def block_regrid(values: np.ndarray, source: GridSpec, target: GridSpec) -> np.ndarray:
    """Aggregate a fine grid onto a coarser one by cell-mean.

    Each target cell receives the mean of the source nodes whose
    centers fall inside its footprint (the Voronoi cell of the target
    node, clipped to half a spacing beyond the target extent). NaN
    source nodes are skipped; target cells with no contributor are
    NaN. Requires target spacing >= source spacing and overlapping
    extents.
    """
    if values.shape != source.shape:
        raise DataError(f"values shape {values.shape} does not match source grid {source.shape}")
    eps = 1e-9
    if target.dlat < source.dlat - eps or target.dlon < source.dlon - eps:
        raise DataError(
            f"target grid is finer than source "
            f"(dlat {target.dlat:.6g} < {source.dlat:.6g} or "
            f"dlon {target.dlon:.6g} < {source.dlon:.6g})")
    if (source.lat_max < target.lat_min or source.lat_min > target.lat_max
            or source.lon_max < target.lon_min or source.lon_min > target.lon_max):
        raise DataError("source and target grid extents are disjoint")

    lats = source.lats
    lons = source.lons
    iy_t = np.floor((lats - target.lat_min) / target.dlat + 0.5).astype(int)
    ix_t = np.floor((lons - target.lon_min) / target.dlon + 0.5).astype(int)
    # keep only source centers within half a cell of some target node
    ok_y = (iy_t >= 0) & (iy_t < target.n_lat) & (
        np.abs(lats - (target.lat_min + np.clip(iy_t, 0, target.n_lat - 1) * target.dlat))
        <= target.dlat / 2 + eps)
    ok_x = (ix_t >= 0) & (ix_t < target.n_lon) & (
        np.abs(lons - (target.lon_min + np.clip(ix_t, 0, target.n_lon - 1) * target.dlon))
        <= target.dlon / 2 + eps)

    vals = np.asarray(values, dtype=np.float64)[np.ix_(ok_y, ok_x)]
    flat = iy_t[ok_y][:, None] * target.n_lon + ix_t[ok_x][None, :]
    good = ~np.isnan(vals)
    sums = np.bincount(flat[good].ravel(), weights=vals[good].ravel(),
                       minlength=target.n_lat * target.n_lon)
    counts = np.bincount(flat[good].ravel(), minlength=target.n_lat * target.n_lon)
    out = np.full(target.n_lat * target.n_lon, np.nan)
    np.divide(sums, counts, out=out, where=counts > 0)
    return out.reshape(target.shape)


def regrid_ndvi(raster: NdviRaster, target: GridSpec, years) -> np.ndarray:
    """Growing-season mean NDVI of the given years, on the target spec."""
    return block_regrid(summer_ndvi_mean(raster, years), raster.spec, target)


# ---------------------------------------------------------------------------
# named single grids (CSS maps, opportunity maps, distance maps)


def save_grids(path: str | Path, spec: GridSpec, grids: dict[str, np.ndarray],
               force: bool = False) -> None:
    """Write named 2-D float32 grids sharing one grid spec."""
    path = Path(path)
    if (path / "meta.json").exists() and not force:
        raise DataError(f"grid directory already exists: {path} (use force to overwrite)")
    path.mkdir(parents=True, exist_ok=True)
    for name in grids:
        if not re.fullmatch(r"[A-Za-z0-9_.-]+", name):
            raise DataError(f"bad grid name: {name!r}")
        if grids[name].shape != spec.shape:
            raise DataError(f"grid {name} shape {grids[name].shape} != {spec.shape}")
    meta = {
        "format": "drycss-grids",
        "version": 1,
        "grid": spec.to_dict(),
        "names": sorted(grids),
    }
    (path / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    for name in sorted(grids):
        np.ascontiguousarray(grids[name], dtype=_FLOAT32).tofile(path / f"{name}.f32")


def load_grids(path: str | Path) -> tuple[GridSpec, dict[str, np.ndarray]]:
    path = Path(path)
    meta_path = path / "meta.json"
    if not meta_path.exists():
        raise DataError(f"not a grid directory (no meta.json): {path}")
    meta = read_json(meta_path, "grid metadata")
    if meta.get("format") != "drycss-grids":
        raise DataError(f"{meta_path} is not grid metadata (format={meta.get('format')!r})")
    spec = GridSpec.from_dict(meta["grid"])
    n = spec.n_lat * spec.n_lon
    grids = {}
    for name in meta.get("names", []):
        arr = np.fromfile(path / f"{name}.f32", dtype=_FLOAT32)
        if arr.size != n:
            raise DataError(f"grid {name}: file holds {arr.size} values, expected {n}")
        grids[name] = arr.reshape(spec.shape)
    return spec, grids


# ---------------------------------------------------------------------------
# geometry


def great_circle_km(lat1, lon1, lat2, lon2) -> np.ndarray | float:
    """Haversine great-circle distance in km (vectorized)."""
    lat1, lon1, lat2, lon2 = (np.radians(np.asarray(x, dtype=np.float64))
                              for x in (lat1, lon1, lat2, lon2))
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    a = np.sin(dlat / 2) ** 2 + np.cos(lat1) * np.cos(lat2) * np.sin(dlon / 2) ** 2
    d = 2 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))
    return float(d) if np.ndim(d) == 0 else d
