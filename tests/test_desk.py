"""Workflow behavior on the desk-scale run.

The acceptance suite pins the headline thresholds; these tests walk the
rest of the chain on the same fixture: calibration, the opportunity map,
candidate extraction, and analog matching, checking that each stage
points back at the structures the synthesis planted.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from drycss.opportunity import (extract_candidates, find_analog,
                                opportunity_map, uplift_report)
from drycss.pipeline import ensemble_scores, fit_calibration, map_agreement_iou
from drycss.spectral import dft_coefficients, truncated_coefficients
from helpers import pixel_series

ANALOG_CHANNELS = 32


def pixel_vectors(run, channels):
    """Raw low-frequency coefficient vectors for every grid pixel, from the
    full FFT of each pixel's series, two grid rows at a time."""
    vectors = np.full(run.spec.shape + (len(run.cube.variables) * channels * 2,),
                      np.nan)
    for r0 in range(0, run.spec.n_lat, 2):
        rows, cols, series = pixel_series(run.cube, r0, r0 + 2)
        if rows.size:
            vectors[rows, cols] = truncated_coefficients(dft_coefficients(series),
                                                         channels)
    return vectors


@pytest.fixture(scope="module")
def stages(desk_run):
    scores = ensemble_scores([m for m in desk_run.models if m is not None],
                             desk_run.series)
    cal = fit_calibration(desk_run.samples, scores["combined"])
    opp = opportunity_map(desk_run.maps["combined"], desk_run.summer, cal)
    sites = extract_candidates(opp, desk_run.spec,
                               css=desk_run.maps["combined"],
                               ndvi=desk_run.summer,
                               count=14, min_spacing_km=9.0)
    vectors = pixel_vectors(desk_run, ANALOG_CHANNELS)
    results = [find_analog(s, vectors, desk_run.spec, desk_run.summer)[0]
               for s in sites]
    return SimpleNamespace(scores=scores, cal=cal, opp=opp, sites=sites,
                           results=results, report=uplift_report(results))


class TestCalibration:
    def test_line_is_positive_and_tight(self, desk_run, stages):
        n_class = sum(1 for s in desk_run.samples
                      if s.category in ("HiSuit-HiVeg", "LoSuit-LoVeg"))
        assert stages.cal.n == n_class == 202
        assert stages.cal.slope > 0
        assert stages.cal.r2 > 0.6

    def test_residuals_small_on_intact_pixels(self, desk_run, stages):
        intact = ~(desk_run.irrigated.astype(bool)
                   | desk_run.degraded.astype(bool))
        assert abs(np.nanmedian(stages.opp[intact])) < 0.05


class TestOpportunityMap:
    def test_degraded_pixels_stand_out(self, desk_run, stages):
        deg = desk_run.degraded.astype(bool)
        med_deg = np.nanmedian(stages.opp[deg])
        med_rest = np.nanmedian(stages.opp[~deg])
        assert med_deg > 0
        assert med_deg > med_rest + 0.05

    def test_irrigated_pixels_sit_below_intact(self, desk_run, stages):
        irr = desk_run.irrigated.astype(bool)
        deg = desk_run.degraded.astype(bool)
        intact = ~(irr | deg)
        assert (np.nanmedian(stages.opp[irr])
                < np.nanmedian(stages.opp[intact])
                < np.nanmedian(stages.opp[deg]))


class TestCandidates:
    def test_mostly_planted_degraded_pixels(self, desk_run, stages):
        deg = desk_run.degraded.astype(bool)
        hits = sum(1 for s in stages.sites if deg[s.iy, s.ix])
        assert len(stages.sites) >= 10
        assert hits / len(stages.sites) >= 0.7

    def test_never_on_irrigated_pixels(self, desk_run, stages):
        irr = desk_run.irrigated.astype(bool)
        assert not any(irr[s.iy, s.ix] for s in stages.sites)


class TestAnalogs:
    def test_most_candidates_find_a_match(self, stages):
        assert stages.report.n_used >= 10

    def test_matches_are_greener_and_not_degraded(self, desk_run, stages):
        deg = desk_run.degraded.astype(bool)
        for res in stages.results:
            if not hasattr(res, "analog_ndvi"):
                continue
            assert res.analog_ndvi >= res.candidate_ndvi + 0.02 - 1e-12
            assert not deg[res.iy, res.ix]

    def test_uplift_ratios_exceed_one(self, stages):
        assert stages.report.mean_of_ratios > 1.2
        assert stages.report.ratio_of_means > 1.2


class TestModelAgreement:
    def test_blup_and_nn_maps_mostly_overlap(self, desk_run):
        iou = map_agreement_iou(desk_run.maps["blup"], desk_run.maps["nn"])
        assert iou > 0.6
