import json
import warnings

import numpy as np
import pytest

from drycss.errors import DataError
from drycss.grid import GridSpec, great_circle_km
from drycss.opportunity import (AnalogMatch, CandidateSite, NoAnalog, Rule,
                                default_rules, extract_candidates,
                                filter_candidates, find_analog,
                                join_attributes, load_attribute_table,
                                load_rules, load_table_s4, load_table_s5,
                                opportunity_map, parse_coordinate,
                                rules_from_doc, uplift_report)
from drycss.pipeline import Calibration
from helpers import pairwise_min_km

SPEC = GridSpec(lat_min=20.0, lat_max=20.9, lon_min=40.0, lon_max=40.9,
                n_lat=10, n_lon=10)
CAL = Calibration(slope=1.0, intercept=0.0, r2=1.0, n=2)


def make_sites(n, **overrides):
    sites = []
    for i in range(n):
        kw = dict(rank=i + 1, lat=20.0 + 0.1 * i, lon=40.0, iy=i, ix=0,
                  opportunity=1.0 - 0.01 * i)
        kw.update(overrides)
        sites.append(CandidateSite(**kw))
    return sites


class TestOpportunityMap:
    def test_calibrated_difference(self):
        css = np.array([[0.8, 0.2], [np.nan, 0.5]])
        ndvi = np.array([[0.1, 0.3], [0.2, np.nan]])
        cal = Calibration(slope=0.5, intercept=0.1, r2=1.0, n=2)
        out = opportunity_map(css, ndvi, cal)
        assert out[0, 0] == pytest.approx(0.5 * 0.8 + 0.1 - 0.1)
        assert out[0, 1] == pytest.approx(0.5 * 0.2 + 0.1 - 0.3)
        assert np.isnan(out[1, 0]) and np.isnan(out[1, 1])

    def test_misaligned(self):
        with pytest.raises(DataError, match="misaligned"):
            opportunity_map(np.zeros((2, 2)), np.zeros((3, 2)), CAL)


class TestExtractCandidates:
    def test_descending_order_and_positive_only(self):
        opp = np.full(SPEC.shape, -1.0)
        opp[1, 1] = 0.3
        opp[5, 5] = 0.9
        opp[8, 2] = 0.6
        opp[0, 0] = np.nan
        with pytest.warns(UserWarning, match="exhausted"):
            sites = extract_candidates(opp, SPEC, count=10, min_spacing_km=0.0)
        assert [(s.iy, s.ix) for s in sites] == [(5, 5), (8, 2), (1, 1)]
        assert [s.rank for s in sites] == [1, 2, 3]
        assert sites[0].opportunity == pytest.approx(0.9)
        assert sites[0].lat == pytest.approx(20.5)
        assert sites[0].lon == pytest.approx(40.5)

    def test_ties_go_south_then_west(self):
        opp = np.zeros(SPEC.shape)
        for iy, ix in [(4, 7), (2, 9), (2, 3), (7, 1)]:
            opp[iy, ix] = 0.5
        sites = extract_candidates(opp, SPEC, count=4, min_spacing_km=0.0)
        assert [(s.iy, s.ix) for s in sites] == [(2, 3), (2, 9), (4, 7), (7, 1)]

    def test_spacing_suppresses_neighbours(self):
        rng = np.random.default_rng(0)
        opp = rng.uniform(0.1, 1.0, SPEC.shape)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # shortfall is fine here
            sites = extract_candidates(opp, SPEC, count=25, min_spacing_km=20.0)
        lats = np.array([s.lat for s in sites])
        lons = np.array([s.lon for s in sites])
        assert pairwise_min_km(lats, lons) >= 20.0
        # and the first site is still the global maximum
        iy, ix = np.unravel_index(np.argmax(opp), opp.shape)
        assert (sites[0].iy, sites[0].ix) == (iy, ix)

    def test_count_cap_and_shortfall_warning(self):
        opp = np.zeros(SPEC.shape)
        opp[0, 0] = 0.5
        opp[9, 9] = 0.4
        sites = extract_candidates(opp, SPEC, count=1, min_spacing_km=0.0)
        assert len(sites) == 1
        with pytest.warns(UserWarning, match="exhausted"):
            sites = extract_candidates(opp, SPEC, count=5, min_spacing_km=0.0)
        assert len(sites) == 2

    def test_annotates_css_and_ndvi(self):
        opp = np.zeros(SPEC.shape)
        opp[3, 4] = 0.7
        css = np.full(SPEC.shape, 0.66)
        ndvi = np.full(SPEC.shape, 0.05)
        (site,) = extract_candidates(opp, SPEC, css=css, ndvi=ndvi, count=1)
        assert site.css == pytest.approx(0.66)
        assert site.ndvi == pytest.approx(0.05)
        (bare,) = extract_candidates(opp, SPEC, count=1)
        assert np.isnan(bare.css) and np.isnan(bare.ndvi)

    def test_validation(self):
        with pytest.raises(DataError, match="match grid"):
            extract_candidates(np.zeros((3, 3)), SPEC)
        with pytest.raises(DataError, match="at least 1"):
            extract_candidates(np.zeros(SPEC.shape), SPEC, count=0)
        with pytest.raises(DataError, match="spacing"):
            extract_candidates(np.zeros(SPEC.shape), SPEC, min_spacing_km=-1)


class TestJoinAttributes:
    def test_site_number_join(self):
        sites = make_sites(3)
        rows = [{"site": "2", "terrain": "Wadi", "accessibility": "Yes"},
                {"site": "1", "terrain": "Plain", "accessibility": "No"}]
        join_attributes(sites, rows, key="site")
        assert sites[0].attributes == {"terrain": "Plain",
                                       "accessibility": "No"}
        assert sites[1].attributes == {"terrain": "Wadi",
                                       "accessibility": "Yes"}
        assert sites[2].attributes == {}

    def test_unknown_site_number_skipped_with_warning(self):
        sites = make_sites(2)
        with pytest.warns(UserWarning, match="no candidate"):
            join_attributes(sites, [{"site": "9", "terrain": "Wadi"}])
        assert sites[0].attributes == {}

    def test_duplicate_claim_is_error(self):
        sites = make_sites(2)
        rows = [{"site": "1", "terrain": "a"}, {"site": "1", "terrain": "b"}]
        with pytest.raises(DataError, match="both join"):
            join_attributes(sites, rows)

    def test_bad_site_number(self):
        with pytest.raises(DataError, match="bad site number"):
            join_attributes(make_sites(1), [{"site": "xx"}])

    def test_coordinate_join_with_dms(self):
        sites = make_sites(2)  # at (20.0, 40.0) and (20.1, 40.0)
        rows = [{"lat": "20°06'00.0\"N", "lon": "40°00'10.0\"E",
                 "terrain": "Wadi"}]
        join_attributes(sites, rows, key="coords")
        assert sites[1].attributes == {"terrain": "Wadi"}
        assert sites[0].attributes == {}

    def test_coordinate_join_respects_tolerance(self):
        sites = make_sites(1)
        with pytest.warns(UserWarning, match="row skipped"):
            join_attributes(sites, [{"lat": "21.0", "lon": "40.0"}], key="coords")
        assert sites[0].attributes == {}

    def test_coordinate_join_missing_column(self):
        with pytest.raises(DataError, match="coordinate column"):
            join_attributes(make_sites(1), [{"lat": "20.0"}], key="coords")

    def test_unknown_key(self):
        with pytest.raises(DataError, match="join key"):
            join_attributes(make_sites(1), [], key="magic")


class TestRules:
    def run_rule(self, rule, value):
        (site,) = make_sites(1)
        site.attributes = {rule.field: value}
        kept = filter_candidates([site], [rule])
        return bool(kept)

    def test_string_ops_casefold_and_strip(self):
        eq = Rule(field="a", op="eq", value="Yes")
        assert self.run_rule(eq, "yes")
        assert self.run_rule(eq, "  YES ")
        assert not self.run_rule(eq, "no")
        ne = Rule(field="a", op="ne", value="City")
        assert self.run_rule(ne, "Wadi")
        assert not self.run_rule(ne, "city")

    def test_membership_ops(self):
        r = Rule(field="a", op="in", value=["Wadi", "Plain"])
        assert self.run_rule(r, "plain")
        assert not self.run_rule(r, "Volcano")
        r = Rule(field="a", op="not_in", value=["City", "Industry"])
        assert self.run_rule(r, "Wadi")
        assert not self.run_rule(r, "INDUSTRY")

    def test_numeric_ops(self):
        assert self.run_rule(Rule("e", "gt", 100), "150")
        assert not self.run_rule(Rule("e", "gt", 100), "100")
        assert self.run_rule(Rule("e", "ge", 100), "100")
        assert self.run_rule(Rule("e", "lt", "2000"), "1500.5")
        assert self.run_rule(Rule("e", "le", 10), "10.0")
        # a non-numeric attribute value fails numeric comparisons
        assert not self.run_rule(Rule("e", "gt", 100), "tall")

    def test_rule_validation(self):
        with pytest.raises(DataError, match="operator"):
            Rule(field="a", op="between", value=1)
        with pytest.raises(DataError, match="list"):
            Rule(field="a", op="in", value="Wadi")
        with pytest.raises(DataError, match="empty field"):
            Rule(field="", op="eq", value="x")
        for field in (["a"], 5, None):
            with pytest.raises(DataError, match="non-empty field name"):
                Rule(field=field, op="eq", value="x")

    def test_doc_parsing(self):
        doc = {"rules": [{"field": "a", "op": "eq", "value": "x"}]}
        rules = rules_from_doc(doc)
        assert rules == [Rule(field="a", op="eq", value="x")]
        assert rules_from_doc(doc["rules"]) == rules
        with pytest.raises(DataError, match="must be a list"):
            rules_from_doc({"other": 1})
        with pytest.raises(DataError, match="malformed rule 0"):
            rules_from_doc([{"field": "a"}])

    def test_load_rules_file(self, tmp_path):
        p = tmp_path / "r.json"
        p.write_text(json.dumps([{"field": "a", "op": "eq", "value": "x"}]))
        assert len(load_rules(p)) == 1
        p.write_text("{bad")
        with pytest.raises(DataError, match="corrupt"):
            load_rules(p)
        with pytest.raises(DataError, match="not found"):
            load_rules(tmp_path / "missing.json")

    def test_default_rules_shape(self):
        rules = default_rules()
        assert [r.field for r in rules] == ["accessibility",
                                            "anthropogenic_influence"]
        assert [r.op for r in rules] == ["eq", "not_in"]


class TestFilterCandidates:
    def test_empty_ruleset_keeps_all(self):
        sites = make_sites(3)
        kept = filter_candidates(sites, [])
        assert len(kept) == 3
        assert all(s.retained is True for s in sites)

    def test_sets_flags_on_every_site(self):
        sites = make_sites(2)
        sites[0].attributes = {"a": "yes"}
        sites[1].attributes = {"a": "no"}
        kept = filter_candidates(sites, [Rule("a", "eq", "yes")])
        assert [s.rank for s in kept] == [1]
        assert sites[0].retained is True and sites[1].retained is False

    def test_missing_attributes_excluded_and_flagged(self):
        sites = make_sites(2)
        sites[0].attributes = {"a": "yes"}
        with pytest.warns(UserWarning, match="missing rule attributes"):
            kept = filter_candidates(sites, [Rule("a", "eq", "yes")])
        assert [s.rank for s in kept] == [1]
        assert sites[1].missing_attributes and sites[1].retained is False
        assert not sites[0].missing_attributes

    def test_packaged_fixture_with_default_rules(self):
        rows = load_table_s4()
        assert len(rows) == 25
        sites = make_sites(25)
        join_attributes(sites, rows, key="site")
        kept = filter_candidates(sites, default_rules())
        assert {s.rank for s in kept} == \
            {3, 4, 5, 7, 9, 14, 15, 16, 18, 19, 21, 22, 24}


class TestFindAnalog:
    def setup_world(self):
        spec = GridSpec(lat_min=0.0, lat_max=0.3, lon_min=10.0, lon_max=10.3,
                        n_lat=4, n_lon=4)
        iy, ix = np.mgrid[0:4, 0:4]
        vectors = np.stack([iy, ix], axis=-1).astype(np.float64)
        ndvi = np.full((4, 4), 0.05)
        site = CandidateSite(rank=1, lat=0.0, lon=10.0, iy=0, ix=0,
                             opportunity=0.5, ndvi=0.1)
        return spec, vectors, ndvi, site

    def test_picks_greenest_within_distance(self):
        spec, vectors, ndvi, site = self.setup_world()
        ndvi[0, 1] = 0.3
        ndvi[1, 0] = 0.5   # same climate distance as (0,1), greener
        ndvi[3, 3] = 0.9   # greener still but climatically far
        res, dist = find_analog(site, vectors, spec, ndvi,
                                max_climate_distance=1.5)
        assert isinstance(res, AnalogMatch)
        assert (res.iy, res.ix) == (1, 0)
        assert res.analog_ndvi == pytest.approx(0.5)
        assert res.candidate_ndvi == pytest.approx(0.1)
        assert res.climate_distance == pytest.approx(1.0)
        lat, lon = spec.node(1, 0)
        assert res.spatial_km == pytest.approx(
            great_circle_km(site.lat, site.lon, lat, lon))
        assert dist[2, 2] == pytest.approx(np.sqrt(8.0))
        assert dist[0, 0] == 0.0

    def test_ndvi_tie_breaks_to_smaller_distance(self):
        spec, vectors, ndvi, site = self.setup_world()
        ndvi[1, 1] = 0.5   # distance sqrt(2)
        ndvi[0, 1] = 0.5   # distance 1, same NDVI
        res, _ = find_analog(site, vectors, spec, ndvi,
                             max_climate_distance=2.0)
        assert (res.iy, res.ix) == (0, 1)

    def test_full_tie_breaks_south_then_west(self):
        spec, vectors, ndvi, site = self.setup_world()
        ndvi[0, 1] = 0.5
        ndvi[1, 0] = 0.5   # identical NDVI and distance
        res, _ = find_analog(site, vectors, spec, ndvi,
                             max_climate_distance=1.5)
        assert (res.iy, res.ix) == (0, 1)

    def test_candidate_pixel_never_matches_itself(self):
        spec, vectors, ndvi, site = self.setup_world()
        ndvi[0, 0] = 0.99
        ndvi[0, 1] = 0.2
        res, _ = find_analog(site, vectors, spec, ndvi,
                             max_climate_distance=1.5)
        assert (res.iy, res.ix) == (0, 1)

    def test_percentile_threshold_limits_reach(self):
        spec, vectors, ndvi, site = self.setup_world()
        ndvi[:] = 0.5  # everything is green enough
        res, dist = find_analog(site, vectors, spec, ndvi,
                                distance_percentile=10.0)
        eligible = np.ones((4, 4), bool)
        eligible[0, 0] = False
        cut = np.percentile(dist[eligible], 10.0)
        assert res.climate_distance <= cut

    def test_margin_must_be_beaten(self):
        spec, vectors, ndvi, site = self.setup_world()
        ndvi[:] = site.ndvi + 0.019  # just under the default 0.02 margin
        res, _ = find_analog(site, vectors, spec, ndvi,
                             max_climate_distance=5.0)
        assert isinstance(res, NoAnalog)
        assert res.reason == "ndvi_margin"
        assert res.n_within_distance == 15

    def test_no_pixel_within_distance(self):
        spec, vectors, ndvi, site = self.setup_world()
        res, _ = find_analog(site, vectors, spec, ndvi,
                             max_climate_distance=0.5)
        assert isinstance(res, NoAnalog)
        assert res.reason == "max_climate_distance"
        assert res.n_within_distance == 0

    def test_exclusion_mask_and_empty_search(self):
        spec, vectors, ndvi, site = self.setup_world()
        ndvi[1, 0] = 0.5
        excl = np.zeros((4, 4), bool)
        excl[1, 0] = True
        ndvi[0, 1] = 0.4
        res, _ = find_analog(site, vectors, spec, ndvi, exclusion=excl,
                             max_climate_distance=1.5)
        assert (res.iy, res.ix) == (0, 1)
        res, _ = find_analog(site, vectors, spec, ndvi,
                             exclusion=np.ones((4, 4), bool))
        assert isinstance(res, NoAnalog)
        assert res.reason == "no eligible pixels"

    def test_nan_pixels_ineligible(self):
        spec, vectors, ndvi, site = self.setup_world()
        ndvi[1, 0] = 0.5
        vectors[1, 0] = np.nan
        ndvi[0, 1] = np.nan
        ndvi[1, 1] = 0.4
        res, _ = find_analog(site, vectors, spec, ndvi,
                             max_climate_distance=2.0)
        assert (res.iy, res.ix) == (1, 1)

    def test_validation(self):
        spec, vectors, ndvi, site = self.setup_world()
        with pytest.raises(DataError, match="vector grid"):
            find_analog(site, vectors[:2], spec, ndvi)
        with pytest.raises(DataError, match="NDVI shape"):
            find_analog(site, vectors, spec, ndvi[:2])
        vectors[0, 0] = np.nan
        with pytest.raises(DataError, match="climate vector"):
            find_analog(site, vectors, spec, ndvi)


class TestUplift:
    def test_both_aggregations(self):
        results = [
            AnalogMatch(1, 0, 0, 0, 0, 1.0, 5.0, candidate_ndvi=0.1,
                        analog_ndvi=0.3),
            AnalogMatch(2, 0, 0, 0, 0, 1.0, 5.0, candidate_ndvi=0.2,
                        analog_ndvi=0.4),
            NoAnalog(3, reason="ndvi_margin", n_within_distance=4),
            AnalogMatch(4, 0, 0, 0, 0, 1.0, 5.0, candidate_ndvi=0.0,
                        analog_ndvi=0.4),
        ]
        rep = uplift_report(results)
        assert rep.n_used == 2 and rep.n_skipped == 2
        assert rep.mean_of_ratios == pytest.approx((3.0 + 2.0) / 2)
        assert rep.ratio_of_means == pytest.approx(0.35 / 0.15)
        assert rep.rows[2]["note"] == "no analog (ndvi_margin)"
        assert rep.rows[3]["note"] == "non-positive candidate NDVI"
        assert rep.rows[0]["ratio"] == pytest.approx(3.0)

    def test_empty_gives_nan(self):
        rep = uplift_report([NoAnalog(1, "no eligible pixels", 0)])
        assert rep.n_used == 0
        assert np.isnan(rep.mean_of_ratios) and np.isnan(rep.ratio_of_means)


class TestCoordinatesAndFixtures:
    def test_parse_coordinate(self):
        assert parse_coordinate("25°59'35.9\"N") == pytest.approx(
            25 + 59 / 60 + 35.9 / 3600)
        assert parse_coordinate("38°00'42.5\"E") == pytest.approx(
            38 + 42.5 / 3600)
        assert parse_coordinate("10°30'00.0\"S") == pytest.approx(-10.5)
        assert parse_coordinate("75°00'00.0\"W") == pytest.approx(-75.0)
        assert parse_coordinate("21.5") == 21.5
        assert parse_coordinate(" -3.25 ") == -3.25
        with pytest.raises(DataError, match="unparseable"):
            parse_coordinate("north of the wadi")

    def test_attribute_table_loader(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("site,terrain\n1,Wadi\n2,Plain\n")
        rows = load_attribute_table(p)
        assert rows == [{"site": "1", "terrain": "Wadi"},
                        {"site": "2", "terrain": "Plain"}]
        with pytest.raises(DataError, match="not found"):
            load_attribute_table(tmp_path / "nope.csv")
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(DataError, match="header"):
            load_attribute_table(empty)

    def test_packaged_tables(self):
        s4 = load_table_s4()
        assert len(s4) == 25
        assert s4[0]["site"] == "1"
        assert set(s4[0]) >= {"site", "accessibility",
                              "anthropogenic_influence", "terrain"}
        s5 = load_table_s5()
        assert len(s5) == 13
        first = s5[0]
        assert first["site"] == 3
        assert first["selected_lat"] == pytest.approx(25 + 59 / 60 + 35.9 / 3600)
        assert first["intact_ndvi"] == pytest.approx(0.1103)
        assert all(r["intact_ndvi"] > r["predicted_ndvi"] for r in s5)
