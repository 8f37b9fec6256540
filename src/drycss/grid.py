"""Gridded climate cubes and NDVI stacks on regular lat/lon grids.

On-disk cube layout (one directory per cube):

    cube/
      meta.json     grid spec, time axis, variable codes, digest
      <var>.f32     little-endian float32, [time, lat, lon] row-major
      mask.f32      little-endian float32 [lat, lon]: 1.0 valid, 0.0 not

NDVI stacks use the same idea, one grid per observation:

    ndvi/
      meta.json     grid spec, observation list, digest
      <year>_<doy>.f32

The digest (`content_digest` of the data files) makes meta.json change
whenever the data does, so it can stand for the whole directory.

Every array the workspace stores is written by `write_f32` and read by
`read_f32`, which checks the file's size first: these directories and
`features/` (one [samples, steps] file per variable) through `save_dir`,
model bundles directly.

Writers refuse a directory that already holds a meta.json; `drycss
--force` clears a stage's outputs before the stage writes them.

The no-data sentinel is quiet NaN everywhere. A pixel is invalid when
any variable contains NaN at any time step there. `save_cube` stores
that mask, refusing an infinity by its variable; `load_cube` reads it
and scans no value, and maps a variable's file afresh, read-only, at
each lookup of `values[var]`: its pages leave the process with the
array, but stay in the page cache, and every pass still reads them.
Invalid pixels keep their stored values, so only the mask says which
are valid; a NaN or infinity at a valid pixel fails where it is read.
"""

from __future__ import annotations

import hashlib
import re
from collections import UserDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError, json_int, json_names, read_json, write_json

# ERA5-Land surface variable codes carried by a cube, in canonical order.
VARIABLES = (
    "d2m", "evabs", "evaow", "evatc", "evavt", "sp", "src", "sro",
    "ssrd", "ssro", "stl1", "stl2", "stl3", "stl4", "strd",
    "swvl1", "swvl2", "swvl3", "swvl4", "t2m", "tp", "u10", "v10",
)

EARTH_RADIUS_KM = 6371.0

_GRID_NAME = re.compile(r"[A-Za-z0-9_.-]+")  # a grid set's grid names, and its file stems

_FLOAT32 = np.dtype("<f4")

SLAB_STEPS = 256  # time steps per slab of series_products; fixed, not an option

MASK = "mask"  # file stem of a cube's stored mask; reserved, so no variable's name


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
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "GridSpec":
        return cls(lat_min=float(d["lat_min"]), lat_max=float(d["lat_max"]),
                   lon_min=float(d["lon_min"]), lon_max=float(d["lon_max"]),
                   n_lat=json_int(d["n_lat"], "n_lat"), n_lon=json_int(d["n_lon"], "n_lon"))


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
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TimeAxis":
        return cls(start=str(d["start"]), step_hours=float(d["step_hours"]),
                   n_steps=json_int(d["n_steps"], "n_steps"))


def read_meta(path: Path, fmt: str, what: str, make):
    """(grid spec, make(meta)) of the meta.json of a cube, NDVI, grid or
    feature directory, read through read_json; metadata of another format is a
    DataError naming the file."""
    meta_path = path / "meta.json"

    def parse(meta):
        if meta["format"] != fmt:
            raise DataError(f"{meta_path} is not {what} metadata (format={meta['format']!r})")
        return GridSpec.from_dict(meta["grid"]), make(meta)
    return read_json(meta_path, f"{what} metadata", parse)


def sha256_file(path: str | Path) -> str:
    """sha256 of a file in 64 KiB reads: flat memory, under glibc's mmap threshold."""
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def content_digest(path: Path, names) -> str:
    """Digest of the named files under path: the sha256 of their
    `sha256sum` listing, in the given order."""
    return _listing_digest((name, sha256_file(path / name)) for name in names)


def _listing_digest(hashes) -> str:
    """sha256 of the `sha256sum` listing of (file name, sha256) pairs."""
    return hashlib.sha256("".join(f"{h}  {name}\n" for name, h in hashes).encode()).hexdigest()


def save_dir(path: str | Path, meta: dict, arrays) -> None:
    """Write each (name, array) pair through write_f32 as it comes, then
    meta.json with the digest of those files; refuses an existing directory."""
    path = Path(path)
    if (path / "meta.json").exists():
        raise DataError(f"directory already exists: {path}")
    path.mkdir(parents=True, exist_ok=True)
    hashes = [(f"{name}.f32", write_f32(path, name, values)) for name, values in arrays]
    meta.update(version=1, digest=_listing_digest(hashes))
    write_json(path / "meta.json", meta)


def write_f32(path: Path, name: str, values: np.ndarray) -> str:
    """Write values as little-endian float32 path/<name>.f32; returns its
    sha256, hashed from the buffer written rather than read back."""
    data = np.ascontiguousarray(values, dtype=_FLOAT32)
    data.tofile(path / f"{name}.f32")
    return hashlib.sha256(data).hexdigest()


def read_f32(path: Path, name: str, shape: tuple, mmap: bool = False) -> np.ndarray:
    """path/<name>.f32 as a float32 array of the given shape; a missing file, or
    one not a regular file of that size, is a DataError naming it, before any read."""
    f = path / f"{name}.f32"
    if not f.exists():
        raise DataError(f"{path} is missing data file {f.name}")
    size = f.stat().st_size if f.is_file() else 0
    if size != _FLOAT32.itemsize * np.prod(shape):
        raise DataError(f"{f}: file holds {size / _FLOAT32.itemsize:.12g} values, "
                        f"expected {np.prod(shape)} for shape {tuple(shape)}")
    arr = np.memmap(f, dtype=_FLOAT32, mode="r") if mmap else np.fromfile(f, dtype=_FLOAT32)
    return arr.reshape(shape)


# ---------------------------------------------------------------------------
# climate cubes


class _MappedValues(UserDict):
    """A cube directory's variables, code -> read_f32 arguments: a lookup checks
    the file and maps it afresh, read-only, so its pages leave with the array."""

    def __getitem__(self, var: str) -> np.ndarray:
        return read_f32(*self.data[var], mmap=True)


@dataclass
class ClimateCube:
    """All variables of one region on a shared grid and time axis.

    values maps variable code (a file stem, not MASK) -> float32 array
    [n_steps, n_lat, n_lon]. mask, True at valid pixels, is computed when not given.
    """

    spec: GridSpec
    time: TimeAxis
    variables: tuple[str, ...]
    values: dict[str, np.ndarray] | _MappedValues
    mask: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if not self.variables:
            raise DataError("cube has no variables")
        if len(set(self.variables)) != len(self.variables):
            raise DataError("duplicate variable codes in cube")
        shape = (self.time.n_steps, self.spec.n_lat, self.spec.n_lon)
        for var in self.variables:
            if not _GRID_NAME.fullmatch(var) or var == MASK:
                raise DataError(f"bad variable name {var!r}: not a file stem, or {MASK!r}")
            if var not in self.values:
                raise DataError(f"missing values for variable {var}")
            if self.values[var].shape != shape:
                raise DataError(
                    f"variable {var} has shape {self.values[var].shape}, expected {shape}")
        if self.mask is None:
            self.mask = compute_valid_mask(self.values, self.variables)


def compute_valid_mask(values: dict[str, np.ndarray], variables) -> np.ndarray:
    """True where no variable has NaN at any time step; an infinity raises
    DataError naming its variable. One full scan per variable: only the
    invalid pixels are searched for infinities."""
    mask = True
    for var in variables:
        finite = np.isfinite(values[var]).all(axis=0)
        if np.isinf(values[var][:, ~finite]).any():
            raise DataError(f"variable {var} contains infinite values")
        mask = mask & finite
    return mask


def save_cube(cube: ClimateCube, path: str | Path) -> None:
    """Write a cube directory with MASK.f32, the compute_valid_mask of the
    values written; refuses to overwrite one."""
    values = {var: cube.values[var] for var in cube.variables}
    save_dir(path, {"format": "drycss-cube", "grid": cube.spec.to_dict(),
                    "time": cube.time.to_dict(), "variables": list(cube.variables)},
             [*values.items(), (MASK, compute_valid_mask(values, cube.variables))])


def load_cube(path: str | Path) -> ClimateCube:
    """Read a cube directory written by save_cube: its stored mask, which is
    authoritative and must hold only 0 and 1, and its variables mapped per lookup."""
    path = Path(path)
    spec, (time, variables) = read_meta(path, "drycss-cube", "cube", lambda meta: (
        TimeAxis.from_dict(meta["time"]), json_names(meta["variables"], "variables")))
    mask = read_f32(path, MASK, spec.shape)
    if not np.isin(mask, (0.0, 1.0)).all():
        raise DataError(f"{path / MASK}.f32 holds values other than 0 and 1")
    shape = (time.n_steps,) + spec.shape
    return ClimateCube(spec=spec, time=time, variables=variables, mask=mask == 1.0,
                       values=_MappedValues({var: (path, var, shape) for var in variables}))


def series_products(cube: ClimateCube, rows, jobs: int = 1):
    """Yield per variable, in cube order, rows[v] @ (its series [n_steps,
    n_valid] at the pixels the mask alone marks valid, row-major) as float64.

    Each variable is read in contiguous SLAB_STEPS-step slabs of one
    lookup of cube.values. Each slab is cast into one float64 buffer that
    the variable's pass reuses: straight from the slab when the mask is
    all-valid (synth's default world), otherwise from a copy compressed
    to the valid columns. Its product goes into a second reused buffer,
    and the slab products are summed in time order. `jobs` threads take
    whole variables, `jobs` at a time as the consumer asks, so the bytes
    do not depend on `jobs` and at most `jobs` variables are mapped at
    once. A NaN or infinity at a valid pixel makes every product of its
    column non-finite (inf * 0 is NaN), so the products are checked
    instead."""
    T = cube.time.n_steps
    keep = cube.mask.ravel()
    n_valid = np.count_nonzero(keep)
    every = n_valid == keep.size  # an all-valid slab needs no compress copy

    def product(var: str, r: np.ndarray) -> np.ndarray:
        values = cube.values[var].reshape(T, -1)
        buf = np.empty((min(SLAB_STEPS, T), n_valid))
        part = np.empty((r.shape[0], n_valid))
        out = np.zeros((r.shape[0], n_valid))
        with np.errstate(invalid="ignore"):  # inf * 0 and inf - inf are NaN
            for t0 in range(0, T, SLAB_STEPS):
                slab = values[t0:t0 + SLAB_STEPS]
                k = slab.shape[0]
                np.copyto(buf[:k], slab if every else slab.compress(keep, axis=1))
                out += np.matmul(r[:, t0:t0 + k], buf[:k], out=part)
        if not np.all(np.isfinite(out)):
            raise DataError(f"variable {var} holds a non-finite value at a valid pixel; "
                            "rerun `drycss synth`")
        return out

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        run = map if jobs == 1 else pool.map  # one job runs here: no worker malloc arena
        for v0 in range(0, len(cube.variables), jobs):
            yield from run(product, cube.variables[v0:v0 + jobs], rows[v0:v0 + jobs])


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


def save_ndvi(raster: NdviRaster, path: str | Path) -> None:
    save_dir(path, {"format": "drycss-ndvi", "grid": raster.spec.to_dict(),
                    "observations": [[o.year, o.doy] for o in raster.observations]},
             ((f"{o.year}_{o.doy}", o.values) for o in raster.observations))


def load_ndvi(path: str | Path) -> NdviRaster:
    path = Path(path)
    spec, dates = read_meta(path, "drycss-ndvi", "NDVI", lambda meta: [
        (json_int(year, "year"), json_int(doy, "doy")) for year, doy in meta["observations"]])
    observations = [NdviObservation(year, doy, read_f32(path, f"{year}_{doy}", spec.shape))
                    for year, doy in dates]
    observations.sort(key=lambda o: (o.year, o.doy))
    return NdviRaster(spec=spec, observations=observations)


# growing-season window, day-of-year bounds inclusive
SUMMER_DOY = (80, 256)


def summer_ndvi_mean(raster: NdviRaster, years) -> np.ndarray:
    """Pixelwise mean NDVI over the SUMMER_DOY observations of given years.

    NaN observations are skipped per pixel; a pixel with no valid
    in-window sample is NaN. A requested year with zero in-window
    observations is an error naming that year.
    """
    years = list(years)
    lo, hi = SUMMER_DOY
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


def save_grids(path: str | Path, spec: GridSpec, grids: dict[str, np.ndarray]) -> None:
    """Write named 2-D float32 grids sharing one grid spec."""
    for name in grids:
        if not _GRID_NAME.fullmatch(name):
            raise DataError(f"bad grid name: {name!r}")
        if grids[name].shape != spec.shape:
            raise DataError(f"grid {name} shape {grids[name].shape} != {spec.shape}")
    save_dir(path, {"format": "drycss-grids", "grid": spec.to_dict(),
                    "names": sorted(grids)},
             ((name, grids[name]) for name in sorted(grids)))


def load_grids(path: str | Path) -> tuple[GridSpec, dict[str, np.ndarray]]:
    path = Path(path)

    def grid_names(meta):  # only names that save_grids accepts
        names = json_names(meta["names"], "names")
        for name in names:
            if not _GRID_NAME.fullmatch(name):
                raise ValueError(f"names: {name!r} is not a grid name")
        return names
    spec, names = read_meta(path, "drycss-grids", "grid", grid_names)
    return spec, {name: read_f32(path, name, spec.shape) for name in names}


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
