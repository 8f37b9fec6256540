"""Opportunity maps, candidate extraction, filtering, and analog search.

The opportunity value of a pixel is calibrated CSS (in NDVI units)
minus observed NDVI: how much greener the climate says the pixel could
be. Candidates are local opportunity peaks extracted greedily with a
minimum great-circle spacing, annotated with site attributes, filtered
through declarative JSON rules, and finally matched to the most
vegetated climatically similar pixel (the "intact analog") to estimate
attainable NDVI uplift.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError, read_json, read_table
from .grid import GridSpec, great_circle_km
from .pipeline import Calibration

DEFAULT_CANDIDATE_COUNT = 25
DEFAULT_MIN_SPACING_KM = 9.0
DEFAULT_DISTANCE_PERCENTILE = 10.0
DEFAULT_NDVI_MARGIN = 0.02
COORD_TOLERANCE_DEG = 0.05  # the farthest a coords-joined attribute row may lie
_DATA = Path(__file__).with_name("data")  # the packaged rules and fixtures


def opportunity_map(css: np.ndarray, ndvi: np.ndarray,
                    calibration: Calibration) -> np.ndarray:
    """Calibrated CSS minus NDVI; NaN wherever either input is NaN."""
    css = np.asarray(css, dtype=np.float64)
    ndvi = np.asarray(ndvi, dtype=np.float64)
    if css.shape != ndvi.shape:
        raise DataError(f"CSS and NDVI grids are misaligned: {css.shape} vs {ndvi.shape}")
    return calibration.apply(css) - ndvi


# ---------------------------------------------------------------------------
# candidate extraction


@dataclass
class CandidateSite:
    rank: int  # 1-based extraction order (descending opportunity)
    lat: float
    lon: float
    iy: int
    ix: int
    opportunity: float
    css: float = float("nan")
    ndvi: float = float("nan")
    attributes: dict[str, str] = field(default_factory=dict)
    retained: bool | None = None
    missing_attributes: bool = False


def extract_candidates(opportunity: np.ndarray, spec: GridSpec,
                       css: np.ndarray | None = None,
                       ndvi: np.ndarray | None = None,
                       count: int = DEFAULT_CANDIDATE_COUNT,
                       min_spacing_km: float = DEFAULT_MIN_SPACING_KM
                       ) -> list[CandidateSite]:
    """Greedy non-maximum suppression over positive opportunity pixels.

    Pixels are visited in descending opportunity (ties: south first,
    then west); each accepted site suppresses everything closer than
    min_spacing_km. Only pixels with opportunity > 0 are eligible. If
    the grid runs out before count sites, the shorter list is returned
    with a warning.
    """
    opportunity = np.asarray(opportunity, dtype=np.float64)
    if opportunity.shape != spec.shape:
        raise DataError(
            f"opportunity shape {opportunity.shape} does not match grid {spec.shape}")
    if count < 1:
        raise DataError(f"candidate count must be at least 1, got {count}")
    if min_spacing_km < 0:
        raise DataError(f"negative spacing: {min_spacing_km}")

    flat = opportunity.ravel()
    eligible = np.flatnonzero(np.isfinite(flat) & (flat > 0.0))
    rows = eligible // spec.n_lon
    cols = eligible % spec.n_lon
    lats = spec.lat_min + rows * spec.dlat
    lons = spec.lon_min + cols * spec.dlon
    order = np.lexsort((cols, rows, -flat[eligible]))

    sites: list[CandidateSite] = []
    alive = np.ones(eligible.size, dtype=bool)
    for j in order:
        if len(sites) == count:
            break
        if not alive[j]:
            continue
        iy, ix = int(rows[j]), int(cols[j])
        sites.append(CandidateSite(
            rank=len(sites) + 1, lat=float(lats[j]), lon=float(lons[j]),
            iy=iy, ix=ix, opportunity=float(flat[eligible[j]]),
            css=float(css[iy, ix]) if css is not None else float("nan"),
            ndvi=float(ndvi[iy, ix]) if ndvi is not None else float("nan")))
        d = great_circle_km(lats[j], lons[j], lats[alive], lons[alive])
        idx_alive = np.flatnonzero(alive)
        alive[idx_alive[d < min_spacing_km]] = False
    if len(sites) < count:
        warnings.warn(
            f"opportunity grid exhausted: requested {count} candidates, "
            f"found {len(sites)}")
    return sites


# ---------------------------------------------------------------------------
# attribute tables and joining


def load_attribute_table(path: str | Path) -> list[dict[str, str]]:
    """CSV table of site attributes; headers become attribute names."""
    return read_table(path, "attribute table")


def join_attributes(sites: list[CandidateSite], rows: list[dict[str, str]],
                    key: str = "site") -> None:
    """Attach attribute rows to candidates, in place.

    With key="site" rows join on the candidate rank; with key="coords"
    a row joins the candidate nearest its lat and lon columns within
    COORD_TOLERANCE_DEG (chebyshev in degrees, DMS strings accepted).
    Two rows landing on one candidate is an error; a row matching no
    candidate is skipped with a warning. An empty table leaves every
    site unannotated.
    """
    if key not in ("site", "coords"):
        raise DataError(f"unknown join key: {key!r}")
    by_rank = {s.rank: s for s in sites}
    claimed: dict[int, int] = {}
    for li, row in enumerate(rows):
        if key == "site":
            try:
                rank = int(str(row.get("site", "")).strip())
            except ValueError:
                raise DataError(f"attribute row {li}: bad site number "
                                f"{row.get('site')!r}") from None
            site = by_rank.get(rank)
            if site is None:
                warnings.warn(f"attribute row {li}: no candidate with site number "
                              f"{rank}; row skipped")
                continue
        elif key == "coords":
            try:
                lat = parse_coordinate(row["lat"])
                lon = parse_coordinate(row["lon"])
            except KeyError as e:
                raise DataError(f"attribute row {li}: missing coordinate column {e}") from None
            best, best_d = None, None
            for s in sites:
                d = max(abs(s.lat - lat), abs(s.lon - lon))
                if d <= COORD_TOLERANCE_DEG and (best_d is None or d < best_d):
                    best, best_d = s, d
            if best is None:
                warnings.warn(
                    f"attribute row {li}: no candidate within "
                    f"{COORD_TOLERANCE_DEG} deg of ({lat:.4f}, {lon:.4f}); row skipped")
                continue
            site = best
        if site.rank in claimed:
            raise DataError(
                f"attribute rows {claimed[site.rank]} and {li} both join "
                f"candidate {site.rank}")
        claimed[site.rank] = li
        site.attributes = {k: v for k, v in row.items()
                           if k not in ("site", "lat", "lon") and k is not None}


# ---------------------------------------------------------------------------
# declarative filtering


_RULE_OPS = ("eq", "ne", "in", "not_in", "gt", "ge", "lt", "le")


@dataclass(frozen=True)
class Rule:
    field: str
    op: str
    value: object

    def __post_init__(self):
        if not (isinstance(self.field, str) and self.field):
            raise DataError(f"rule needs a non-empty field name, not {self.field!r}")
        if self.op not in _RULE_OPS:
            raise DataError(f"unknown rule operator: {self.op!r}")
        if self.op in ("in", "not_in") and not isinstance(self.value, (list, tuple)):
            raise DataError(f"rule {self.field}: {self.op} needs a list value")


def _norm(s) -> str:
    return str(s).strip().casefold()


def _rule_passes(rule: Rule, raw: str) -> bool:
    if rule.op == "eq":
        return _norm(raw) == _norm(rule.value)
    if rule.op == "ne":
        return _norm(raw) != _norm(rule.value)
    if rule.op == "in":
        return _norm(raw) in {_norm(v) for v in rule.value}
    if rule.op == "not_in":
        return _norm(raw) not in {_norm(v) for v in rule.value}
    # numeric comparisons; a non-numeric attribute value fails the rule
    try:
        x = float(raw)
        y = float(rule.value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return False
    return {"gt": x > y, "ge": x >= y, "lt": x < y, "le": x <= y}[rule.op]


def load_rules(path: str | Path) -> list[Rule]:
    return read_json(path, "rules file", lambda doc: rules_from_doc(doc, path))


def rules_from_doc(doc, source="rules document") -> list[Rule]:
    """The rules of a list or {'rules': [...]}; errors name the source."""
    items = doc.get("rules") if isinstance(doc, dict) else doc
    if not isinstance(items, list):
        raise DataError(f"{source} must be a list or {{'rules': [...]}}")
    rules = []
    for i, item in enumerate(items):
        try:
            rules.append(Rule(field=item["field"], op=item["op"], value=item["value"]))
        except (KeyError, TypeError, DataError) as e:
            raise DataError(f"malformed rule {i} in {source}: {e}") from None
    return rules


def default_rules() -> list[Rule]:
    return load_rules(_DATA / "default.rules")


def filter_candidates(sites: list[CandidateSite], rules: list[Rule]
                      ) -> list[CandidateSite]:
    """Keep sites passing every rule (an empty rule set keeps all).

    Sites lacking an attribute referenced by some rule are excluded,
    flagged missing_attributes, and reported with a warning. The
    retained flag is set on every site.
    """
    needed = {r.field for r in rules}
    retained = []
    unannotated = []
    for site in sites:
        missing = needed - set(site.attributes)
        if missing:
            site.missing_attributes = True
            site.retained = False
            unannotated.append(site.rank)
            continue
        ok = all(_rule_passes(r, site.attributes[r.field]) for r in rules)
        site.retained = ok
        if ok:
            retained.append(site)
    if unannotated:
        warnings.warn(
            f"candidates missing rule attributes, excluded from filtering: "
            f"{unannotated}")
    return retained


# ---------------------------------------------------------------------------
# climate analogs


@dataclass(frozen=True)
class AnalogMatch:
    candidate_rank: int
    lat: float
    lon: float
    iy: int
    ix: int
    climate_distance: float
    spatial_km: float
    candidate_ndvi: float
    analog_ndvi: float


@dataclass(frozen=True)
class NoAnalog:
    candidate_rank: int
    reason: str  # the constraint that emptied the search
    n_within_distance: int


def find_analog(site: CandidateSite, vectors: np.ndarray, spec: GridSpec,
                ndvi: np.ndarray, exclusion: np.ndarray | None = None,
                max_climate_distance: float | None = None,
                distance_percentile: float = DEFAULT_DISTANCE_PERCENTILE,
                ndvi_margin: float = DEFAULT_NDVI_MARGIN
                ) -> tuple[AnalogMatch | NoAnalog, np.ndarray]:
    """Most vegetated pixel climatically close to a candidate.

    vectors is [n_lat, n_lon, d] of per-pixel climate vectors. The
    search space is every pixel with finite vector and NDVI, minus the
    candidate pixel and any exclusion mask. The climate threshold
    defaults to the given percentile of the candidate's own distance
    map. The analog must beat the candidate's NDVI by ndvi_margin;
    ties go to the smaller distance, then south, then west. Returns
    (match-or-miss, distance map).
    """
    if vectors.ndim != 3 or vectors.shape[:2] != spec.shape:
        raise DataError(
            f"vector grid shape {vectors.shape} does not match grid {spec.shape}")
    if ndvi.shape != spec.shape:
        raise DataError(f"NDVI shape {ndvi.shape} does not match grid {spec.shape}")
    v0 = vectors[site.iy, site.ix]
    if not np.all(np.isfinite(v0)):
        raise DataError(
            f"candidate {site.rank} sits on a pixel without a climate vector")

    dist = np.sqrt(np.sum((vectors - v0) ** 2, axis=-1))
    eligible = np.isfinite(dist) & np.isfinite(ndvi)
    eligible[site.iy, site.ix] = False
    if exclusion is not None:
        eligible &= ~exclusion
    if not eligible.any():
        return NoAnalog(site.rank, reason="no eligible pixels",
                        n_within_distance=0), dist

    if max_climate_distance is None:
        max_climate_distance = float(
            np.percentile(dist[eligible], distance_percentile))
    within = eligible & (dist <= max_climate_distance)
    n_within = int(within.sum())
    if n_within == 0:
        return NoAnalog(site.rank, reason="max_climate_distance",
                        n_within_distance=0), dist

    green = within & (ndvi >= site.ndvi + ndvi_margin)
    if not green.any():
        return NoAnalog(site.rank, reason="ndvi_margin",
                        n_within_distance=n_within), dist

    flat = np.flatnonzero(green.ravel())
    rows = flat // spec.n_lon
    cols = flat % spec.n_lon
    nd = ndvi.ravel()[flat]
    dd = dist.ravel()[flat]
    best = np.lexsort((cols, rows, dd, -nd))[0]
    iy, ix = int(rows[best]), int(cols[best])
    lat, lon = spec.node(iy, ix)
    return AnalogMatch(
        candidate_rank=site.rank, lat=lat, lon=lon, iy=iy, ix=ix,
        climate_distance=float(dd[best]),
        spatial_km=float(great_circle_km(site.lat, site.lon, lat, lon)),
        candidate_ndvi=float(site.ndvi), analog_ndvi=float(nd[best])), dist


# ---------------------------------------------------------------------------
# uplift accounting


@dataclass(frozen=True)
class UpliftReport:
    rows: tuple[dict, ...]
    mean_of_ratios: float
    ratio_of_means: float
    n_used: int
    n_skipped: int


def uplift_report(results) -> UpliftReport:
    """Attainable-NDVI summary over analog matches.

    Reports both aggregations: the mean of per-site analog/candidate
    ratios and the ratio of column means. Sites without an analog or
    with non-positive candidate NDVI are listed but excluded from both
    aggregates, with the reason noted.
    """
    rows = []
    cand_vals = []
    analog_vals = []
    ratios = []
    for res in results:
        if isinstance(res, NoAnalog):
            rows.append({"site": res.candidate_rank, "candidate_ndvi": None,
                         "analog_ndvi": None, "ratio": None,
                         "note": f"no analog ({res.reason})"})
            continue
        if not res.candidate_ndvi > 0.0:
            rows.append({"site": res.candidate_rank,
                         "candidate_ndvi": res.candidate_ndvi,
                         "analog_ndvi": res.analog_ndvi, "ratio": None,
                         "note": "non-positive candidate NDVI"})
            continue
        ratio = res.analog_ndvi / res.candidate_ndvi
        rows.append({"site": res.candidate_rank,
                     "candidate_ndvi": res.candidate_ndvi,
                     "analog_ndvi": res.analog_ndvi, "ratio": ratio, "note": ""})
        cand_vals.append(res.candidate_ndvi)
        analog_vals.append(res.analog_ndvi)
        ratios.append(ratio)
    n_used = len(ratios)
    return UpliftReport(
        rows=tuple(rows),
        mean_of_ratios=float(np.mean(ratios)) if ratios else float("nan"),
        ratio_of_means=(float(np.mean(analog_vals) / np.mean(cand_vals))
                        if n_used else float("nan")),
        n_used=n_used, n_skipped=len(rows) - n_used)


# ---------------------------------------------------------------------------
# coordinates and packaged fixtures


_DMS_RE = re.compile(
    r"""^\s*(\d+)\s*[°d]\s*(\d+)\s*['′]\s*([0-9.]+)\s*["″]\s*([NSEW])\s*$""")


def parse_coordinate(text: str) -> float:
    """Decimal degrees from either a float string or DMS like
    25°59'35.9"N. South and west come out negative."""
    s = str(text).strip()
    m = _DMS_RE.match(s)
    if m:
        deg, minutes, seconds, hemi = m.groups()
        value = int(deg) + int(minutes) / 60.0 + float(seconds) / 3600.0
        return -value if hemi in ("S", "W") else value
    try:
        return float(s)
    except ValueError:
        raise DataError(f"unparseable coordinate: {text!r}") from None


def load_table_s4() -> list[dict[str, str]]:
    """Packaged 25-row candidate attribute fixture."""
    return read_table(_DATA / "table_s4.csv", "Table S4 fixture")


def load_table_s5() -> list[dict]:
    """Packaged 13-row candidate/analog pair fixture with parsed coords."""
    return read_table(_DATA / "table_s5.csv", "Table S5 fixture", lambda r: {
        "site": int(r["site"]),
        **{key: parse_coordinate(r[key]) for key in
           ("selected_lat", "selected_lon", "intact_lat", "intact_lon")},
        **{key: float(r[key]) for key in
           ("predicted_ndvi", "intact_ndvi", "climate_distance", "spatial_km")}})
