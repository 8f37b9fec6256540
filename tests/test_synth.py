import tracemalloc

import numpy as np
import pytest

from drycss import synth

from drycss.errors import DataError
from drycss.grid import GridSpec, TimeAxis, VARIABLES
from drycss.spectral import dft_coefficients
from drycss.synth import (CATEGORIES, DESK_GRID, DESK_TIME, OFF_SEASON_BOOST,
                          SUMMER_DOYS, VARIABLE_SCALES, sample_reference_sites,
                          synth_cube, synth_ndvi)
from helpers import amplitudes, extract_series, pairwise_min_km, reference_synth_cube

SPEC = GridSpec(lat_min=20.0, lat_max=21.5, lon_min=40.0, lon_max=41.5,
                n_lat=16, n_lon=16)
TIME = TimeAxis(start="2020-01-01T00:00:00Z", step_hours=3.0, n_steps=2920)


@pytest.fixture(scope="module")
def world():
    cube, suit = synth_cube(SPEC, TIME, seed=11)
    raster, irr, deg = synth_ndvi(SPEC, suit, seed=12, n_irrigated=12,
                                  n_degraded=12)
    return cube, suit, raster, irr, deg


class TestCube:
    def test_deterministic(self):
        small = GridSpec(lat_min=0, lat_max=0.5, lon_min=0, lon_max=0.5,
                         n_lat=6, n_lon=6)
        t = TimeAxis(start="2020-01-01T00:00:00Z", step_hours=3.0, n_steps=64)
        a, sa = synth_cube(small, t, seed=3)
        b, sb = synth_cube(small, t, seed=3)
        np.testing.assert_array_equal(sa, sb)
        for v in VARIABLES:
            np.testing.assert_array_equal(a.values[v], b.values[v])
        c, _ = synth_cube(small, t, seed=4)
        assert not np.array_equal(a.values["t2m"], c.values["t2m"])

    def test_annual_and_diurnal_bins(self, world):
        # 3-hourly one-year axis: annual cycle in bin 1, diurnal in bin 365
        cube, _, _, _, _ = world
        series, _ = extract_series(cube, 20.7, 40.7)
        i = cube.variables.index("t2m")
        amp = amplitudes(dft_coefficients(series[i]), TIME.n_steps)
        _, ann, diu, _ = VARIABLE_SCALES["t2m"]
        assert amp[1] > 0.4 * ann           # annual amplitude in [0.5, 1.5]*scale
        assert amp[365] > 0.4 * diu
        others = np.delete(amp[1:], [0, 364])
        assert amp[1] > 10 * others.max()
        assert amp[365] > 10 * others.max()

    def test_suitability_reflects_amplitude_contrast(self, world):
        cube, suit, _, _, _ = world
        assert suit.shape == SPEC.shape
        assert np.all((suit > 0) & (suit < 1))
        # recompute the tp/t2m annual-amplitude contrast from the cube itself
        amps = {}
        for v in ("tp", "t2m"):
            i = cube.variables.index(v)
            arr = cube.values[v].astype(np.float64).reshape(TIME.n_steps, -1).T
            a = amplitudes(dft_coefficients(arr), TIME.n_steps)[:, 1]
            scale = VARIABLE_SCALES[v][1]
            amps[v] = a.reshape(SPEC.shape) / scale
        contrast = amps["tp"] - amps["t2m"]
        r = np.corrcoef(contrast.ravel(), suit.ravel())[0, 1]
        # logistic squashing plus noise in the amplitude estimates keep
        # this a touch below a perfect line
        assert r > 0.97

    def test_invalid_fraction_masks_pixels(self):
        small = GridSpec(lat_min=0, lat_max=0.9, lon_min=0, lon_max=0.9,
                         n_lat=10, n_lon=10)
        t = TimeAxis(start="2020-01-01T00:00:00Z", step_hours=3.0, n_steps=16)
        cube, suit = synth_cube(small, t, seed=0, invalid_fraction=0.2)
        assert (~cube.mask).sum() == 20
        assert np.isnan(suit[~cube.mask]).all()
        assert np.isfinite(suit[cube.mask]).all()
        with pytest.raises(DataError, match="invalid_fraction"):
            synth_cube(small, t, invalid_fraction=1.5)

    def test_desk_defaults(self):
        assert DESK_GRID.shape == (32, 32)
        assert DESK_TIME.n_steps == 2920 and DESK_TIME.step_hours == 3.0


def _small_world(n: int, n_steps: int):
    spec = GridSpec(lat_min=0.0, lat_max=0.1 * (n - 1), lon_min=0.0,
                    lon_max=0.1 * (n - 1), n_lat=n, n_lon=n)
    return spec, TimeAxis(start="2020-01-01T00:00:00Z", step_hours=3.0, n_steps=n_steps)


def _assert_same_bytes(got, want):
    (cube, suit), (ref, ref_suit) = got, want
    assert cube.mask.tobytes() == ref.mask.tobytes()
    assert suit.dtype == ref_suit.dtype and suit.tobytes() == ref_suit.tobytes()
    for v in VARIABLES:
        assert cube.values[v].dtype == np.float32
        assert cube.values[v].shape == ref.values[v].shape
        assert cube.values[v].tobytes() == ref.values[v].tobytes(), v


class TestSlabSynthesis:
    # (grid side, steps, seed, invalid_fraction): T below one slab, T not a
    # multiple of it, and blanked pixels
    @pytest.mark.parametrize("n, n_steps, seed, invalid", [
        (6, 5, 0, 0.0), (9, 17, 1, 0.0), (9, 17, 2, 0.3), (12, 64, 3, 0.0),
        (16, 601, 4, 0.1), (16, 601, 5, 0.0)])
    def test_bytes_match_whole_array_oracle(self, n, n_steps, seed, invalid):
        spec, t = _small_world(n, n_steps)
        _assert_same_bytes(synth_cube(spec, t, seed=seed, invalid_fraction=invalid),
                           reference_synth_cube(spec, t, seed=seed, invalid_fraction=invalid))

    @pytest.mark.parametrize("slab", [1, 3, 17, 64])
    def test_slab_size_changes_no_byte(self, monkeypatch, slab):
        spec, t = _small_world(9, 17)
        want = synth_cube(spec, t, seed=7, invalid_fraction=0.1)
        monkeypatch.setattr(synth, "CUBE_SLAB_STEPS", slab)
        _assert_same_bytes(synth_cube(spec, t, seed=7, invalid_fraction=0.1), want)

    def test_peak_memory_is_the_cube_plus_small_buffers(self):
        cube_bytes = len(VARIABLES) * DESK_TIME.n_steps * DESK_GRID.n_lat * DESK_GRID.n_lon * 4
        tracemalloc.start()
        try:
            cube, _ = synth_cube(DESK_GRID, DESK_TIME, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(cube.values[v].nbytes for v in VARIABLES) == cube_bytes
        assert peak < cube_bytes + 2 * 2**20, f"peak {peak / 2**20:.1f} MiB"


class TestNdvi:
    def test_refined_grid_and_layout(self, world):
        _, _, raster, _, _ = world
        assert raster.spec.shape == (31, 31)
        assert raster.spec.lat_min == SPEC.lat_min
        assert raster.spec.lat_max == pytest.approx(SPEC.lat_max)
        doys = {(o.year, o.doy) for o in raster.observations}
        assert len(doys) == 5 * 6

    def test_anomalies_live_in_their_bands(self, world):
        _, suit, _, irr, deg = world
        assert irr.sum() == 12 and deg.sum() == 12
        assert not (irr & deg).any()
        assert np.all((suit[irr] > 0.30) & (suit[irr] < 0.48))
        assert np.all((suit[deg] > 0.52) & (suit[deg] < 0.70))

    def test_ndvi_tracks_suitability_excluding_anomalies(self, world):
        _, suit, raster, irr, deg = world
        summer = [o.values for o in raster.observations
                  if o.year == 2020 and o.doy in SUMMER_DOYS]
        mean_fine = np.nanmean(np.stack(summer), axis=0)
        coarse = mean_fine[::2, ::2]  # refined grid nodes coincide every 2nd
        natural = ~(irr | deg)
        expect = 0.02 + 0.26 * suit
        diff = np.abs(coarse - expect)[natural & np.isfinite(coarse)]
        assert np.median(diff) < 0.02
        # planted anomalies break the relation in opposite directions
        assert np.all(coarse[irr & np.isfinite(coarse)] > 0.25)
        assert np.all(coarse[deg & np.isfinite(coarse)] < 0.10)

    def test_off_season_is_greener(self, world):
        _, _, raster, _, _ = world
        on = np.nanmean(np.stack([o.values for o in raster.observations
                                  if o.doy in SUMMER_DOYS]))
        off = np.nanmean(np.stack([o.values for o in raster.observations
                                   if o.doy not in SUMMER_DOYS]))
        assert off - on > OFF_SEASON_BOOST / 2

    def test_speckle_present_but_sparse(self, world):
        _, _, raster, _, _ = world
        frac = np.mean([np.isnan(o.values).mean() for o in raster.observations])
        assert 0.001 < frac < 0.05

    def test_impossible_band_count_errors(self):
        suit = np.full((4, 4), 0.9)
        small = GridSpec(lat_min=0, lat_max=0.3, lon_min=0, lon_max=0.3,
                         n_lat=4, n_lon=4)
        with pytest.raises(DataError, match="plant"):
            synth_ndvi(small, suit, n_irrigated=5, n_degraded=0)


class TestReferenceSites:
    def sites(self, world, counts=None, spacing=9.0, seed=5):
        cube, suit, raster, irr, deg = world
        from drycss.grid import regrid_ndvi
        summer = regrid_ndvi(raster, SPEC, years=[2020, 2021])
        counts = counts or {"HiSuit-HiVeg": 10, "LoSuit-LoVeg": 10,
                            "LoSuit-HiVeg": 4, "HiSuit-LoVeg": 4}
        return summer, sample_reference_sites(
            SPEC, suit, summer, irr, deg, counts=counts, seed=seed,
            min_spacing_km=spacing)

    def test_counts_labels_and_thresholds(self, world):
        _, suit, _, irr, deg = world
        summer, samples = self.sites(world)
        by_cat = {c: [s for s in samples if s.category == c] for c in CATEGORIES}
        assert [len(by_cat[c]) for c in CATEGORIES] == [10, 10, 4, 4]
        assert len({s.site_id for s in samples}) == 28
        for s in samples:
            assert s.label == (1.0 if s.category.startswith("HiSuit") else 0.0)
            assert s.ndvi == pytest.approx(float(summer[s.iy, s.ix]))
            hi = suit[s.iy, s.ix] > 0.5
            veg = summer[s.iy, s.ix] >= 0.15
            assert s.category == {(True, True): "HiSuit-HiVeg",
                                  (False, False): "LoSuit-LoVeg",
                                  (False, True): "LoSuit-HiVeg",
                                  (True, False): "HiSuit-LoVeg"}[(hi, veg)]
        for s in by_cat["LoSuit-HiVeg"]:
            assert irr[s.iy, s.ix]
        for s in by_cat["HiSuit-LoVeg"]:
            assert deg[s.iy, s.ix]

    def test_spacing_is_enforced(self, world):
        _, samples = self.sites(world, spacing=9.0)
        lats = np.array([s.lat for s in samples])
        lons = np.array([s.lon for s in samples])
        assert pairwise_min_km(lats, lons) >= 9.0

    def test_deterministic_under_seed(self, world):
        _, a = self.sites(world, seed=9)
        _, b = self.sites(world, seed=9)
        assert [(s.site_id, s.iy, s.ix) for s in a] == \
            [(s.site_id, s.iy, s.ix) for s in b]

    def test_shortfall_names_category(self, world):
        with pytest.raises(DataError, match="HiSuit-HiVeg"):
            self.sites(world, counts={"HiSuit-HiVeg": 5000, "LoSuit-LoVeg": 1,
                                      "LoSuit-HiVeg": 1, "HiSuit-LoVeg": 1})

    def test_wide_spacing_eventually_fails(self, world):
        with pytest.raises(DataError, match="spacing"):
            self.sites(world, spacing=500.0)
