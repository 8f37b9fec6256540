import hashlib
import json
import mmap
import re
from collections import UserDict
from pathlib import Path

import numpy as np
import pytest

from drycss.errors import DataError
from drycss.grid import (SLAB_STEPS, ClimateCube, GridSpec, NdviObservation, NdviRaster,
                         TimeAxis, VARIABLES, block_regrid,
                         content_digest, great_circle_km,
                         load_cube, load_grids, load_ndvi, regrid_ndvi,
                         save_cube, save_dir, save_grids, save_ndvi, series_products,
                         sha256_file, slabs, summer_ndvi_mean)
from drycss.pipeline import LabeledSample, sample_series
from helpers import extract_series

SPEC = GridSpec(lat_min=10.0, lat_max=10.9, lon_min=30.0, lon_max=30.9,
                n_lat=10, n_lon=10)


def small_cube(n_steps=8, spec=None, seed=0):
    spec = spec or GridSpec(lat_min=10.0, lat_max=10.3, lon_min=30.0,
                            lon_max=30.3, n_lat=4, n_lon=4)
    taxis = TimeAxis(start="2020-01-01T00:00:00Z", step_hours=3.0, n_steps=n_steps)
    rng = np.random.default_rng(seed)
    values = {v: rng.standard_normal((n_steps, 4, 4)).astype(np.float32)
              for v in VARIABLES}
    return ClimateCube(spec=spec, time=taxis, variables=VARIABLES, values=values)


class TestGridSpec:
    def test_spacing_and_axes(self):
        assert SPEC.dlat == pytest.approx(0.1)
        assert SPEC.dlon == pytest.approx(0.1)
        assert SPEC.shape == (10, 10)
        assert SPEC.lats[0] == 10.0 and SPEC.lats[-1] == 10.9
        assert SPEC.lons[3] == pytest.approx(30.3)

    def test_nearest_rounds_to_closest_node(self):
        assert SPEC.nearest(10.0, 30.0) == (0, 0)
        assert SPEC.nearest(10.94, 30.91) == (9, 9)
        # 10.24 is closer to node 2 (10.2) than node 3
        assert SPEC.nearest(10.24, 30.0) == (2, 0)
        assert SPEC.nearest(10.26, 30.0) == (3, 0)

    def test_nearest_clips_to_grid(self):
        assert SPEC.nearest(-50.0, 30.0) == (0, 0)
        assert SPEC.nearest(99.0, 99.0) == (9, 9)

    def test_node_inverts_nearest(self):
        for iy, ix in [(0, 0), (3, 7), (9, 9)]:
            lat, lon = SPEC.node(iy, ix)
            assert SPEC.nearest(lat, lon) == (iy, ix)

    def test_contains(self):
        assert SPEC.contains(10.5, 30.5)
        assert not SPEC.contains(9.99, 30.5)
        assert not SPEC.contains(10.5, 31.0)

    def test_dict_round_trip(self):
        assert GridSpec.from_dict(SPEC.to_dict()) == SPEC

    def test_rejects_degenerate(self):
        with pytest.raises(DataError):
            GridSpec(lat_min=0, lat_max=1, lon_min=0, lon_max=1, n_lat=1, n_lon=5)
        with pytest.raises(DataError):
            GridSpec(lat_min=1, lat_max=0, lon_min=0, lon_max=1, n_lat=5, n_lon=5)


class TestTimeAxis:
    def test_hours(self):
        t = TimeAxis(start="2020-01-01T00:00:00Z", step_hours=3.0, n_steps=4)
        assert list(t.hours) == [0.0, 3.0, 6.0, 9.0]

    def test_validation(self):
        with pytest.raises(DataError):
            TimeAxis(start="x", step_hours=0.0, n_steps=4)
        with pytest.raises(DataError):
            TimeAxis(start="x", step_hours=3.0, n_steps=1)


class TestCubeIO:
    def test_round_trip(self, tmp_path):
        cube = small_cube()
        save_cube(cube, tmp_path / "c")
        back = load_cube(tmp_path / "c")
        assert back.spec == cube.spec
        assert back.time == cube.time
        assert back.variables == cube.variables
        for v in VARIABLES:
            np.testing.assert_array_equal(back.values[v], cube.values[v])
        assert back.mask.all()

    def test_refuses_overwrite_without_force(self, tmp_path):
        cube = small_cube()
        save_cube(cube, tmp_path / "c")
        with pytest.raises(DataError, match="already exists"):
            save_cube(cube, tmp_path / "c")

    def test_nan_pixel_masks_and_normalizes_all_variables(self, tmp_path):
        """Loads no longer overwrite stored values; one bad step of one
        variable masks the pixel, and through the mask every variable's
        reader treats that pixel as missing."""
        cube = small_cube()
        cube.values["t2m"][3, 1, 2] = np.nan  # one bad step in one variable
        save_cube(cube, tmp_path / "c")
        back = load_cube(tmp_path / "c")
        assert not back.mask[1, 2]
        assert back.mask.sum() == 15
        for v in VARIABLES:
            assert np.isfinite(back.values[v][:, back.mask]).all()
        T = back.time.n_steps
        columns = list(series_products(back, [np.eye(T)] * len(VARIABLES)))
        assert len(columns) == len(VARIABLES)
        for col in columns:
            assert col.shape == (T, 15)
            assert np.isfinite(col).all()
        with pytest.raises(DataError, match="masked"):
            extract_series(back, *back.spec.node(1, 2))

    def test_mmap_mode_skips_normalization_but_masks(self, tmp_path):
        """Every load is memory-mapped and read-only; the mask marks the
        bad pixel, and the stored values stay as they are."""
        cube = small_cube()
        cube.values["t2m"][3, 1, 2] = np.nan
        save_cube(cube, tmp_path / "c")
        back = load_cube(tmp_path / "c")
        assert isinstance(back.values["t2m"].base.base.obj, mmap.mmap)  # np.frombuffer's memoryview
        assert not back.values["t2m"].flags.writeable
        assert not back.mask[1, 2]
        # other variables keep their raw values at the masked pixel
        np.testing.assert_array_equal(back.values["d2m"][:, 1, 2],
                                      cube.values["d2m"][:, 1, 2])

    def test_rejects_infinity_naming_variable(self, tmp_path):
        cube = small_cube()
        cube.values["sp"][0, 0, 0] = np.inf
        with pytest.raises(DataError, match="sp"):
            save_cube(cube, tmp_path / "c")
        # also beside a NaN of the same pixel
        cube.values["sp"][1, 0, 0] = np.nan
        with pytest.raises(DataError, match="sp contains infinite"):
            save_cube(cube, tmp_path / "d")
        assert not (tmp_path / "c").exists() and not (tmp_path / "d").exists()
        with pytest.raises(DataError, match="sp contains infinite"):
            ClimateCube(spec=cube.spec, time=cube.time, variables=cube.variables,
                        values=cube.values)

    def test_mask_matches_nan_scan_of_every_variable(self, tmp_path):
        cube = small_cube()
        rng = np.random.default_rng(0)
        for v in VARIABLES[:5]:
            t, iy, ix = (rng.integers(0, n, 3) for n in cube.values[v].shape)
            cube.values[v][t, iy, ix] = np.nan
        save_cube(cube, tmp_path / "c")
        expect = ~np.any([np.isnan(cube.values[v]).any(axis=0) for v in VARIABLES],
                         axis=0)
        assert 0 < expect.sum() < expect.size
        np.testing.assert_array_equal(load_cube(tmp_path / "c").mask, expect)

    def test_missing_variable_file(self, tmp_path):
        save_cube(small_cube(), tmp_path / "c")
        (tmp_path / "c" / "tp.f32").unlink()
        with pytest.raises(DataError, match="tp"):
            load_cube(tmp_path / "c")

    def test_truncated_file(self, tmp_path):
        save_cube(small_cube(), tmp_path / "c")
        f = tmp_path / "c" / "u10.f32"
        f.write_bytes(f.read_bytes()[:-8])
        with pytest.raises(DataError, match="u10"):
            load_cube(tmp_path / "c")

    def test_not_a_cube_directory(self, tmp_path):
        with pytest.raises(DataError, match="meta.json"):
            load_cube(tmp_path / "nope")

    def test_variable_names_are_file_stems(self):
        cube = small_cube()
        for name in ("../ndvi/2020_100", "a/b", "", "mask"):
            values = {name: cube.values["t2m"]}
            with pytest.raises(DataError, match="bad variable name"):
                ClimateCube(spec=cube.spec, time=cube.time, variables=(name,), values=values)

    def test_stored_mask_is_read_not_scanned(self, tmp_path):
        """The mask written at save is the one a load returns, even where
        the values, changed after the save, would say otherwise."""
        cube = small_cube()
        cube.values["t2m"][3, 1, 2] = np.nan
        save_cube(cube, tmp_path / "c")
        stored = np.fromfile(tmp_path / "c" / "mask.f32", dtype="<f4").reshape(4, 4)
        assert stored[1, 2] == 0.0 and (np.delete(stored.ravel(), 6) == 1.0).all()
        t2m = np.fromfile(tmp_path / "c" / "t2m.f32", dtype="<f4")
        t2m[:] = np.nan
        t2m.tofile(tmp_path / "c" / "t2m.f32")
        np.testing.assert_array_equal(load_cube(tmp_path / "c").mask, stored == 1.0)

    def test_mappings_live_only_while_read(self, tmp_path):
        """A loaded cube maps a variable's file per lookup and drops it with
        the array: none of the cube's files stays mapped after a load,
        after series_products, or while a block of sample_series is held,
        and during the pass at most `jobs` are mapped."""
        maps = Path("/proc/self/maps")
        if not maps.exists():
            pytest.skip("no /proc/self/maps")
        cube_dir = tmp_path / "c"

        def mapped() -> int:
            return sum(str(cube_dir) in line and line.rstrip().endswith(".f32")
                       for line in maps.read_text().splitlines())

        class Probe(np.ndarray):  # rows that count the mapped files as the pass reads them
            def __getitem__(self, key):
                seen.append(mapped())
                return np.asarray(self)[key]

        save_cube(small_cube(n_steps=300), cube_dir)
        cube = load_cube(cube_dir)
        assert mapped() == 0
        seen = []
        rows = [np.eye(300).view(Probe) for _ in cube.variables]
        assert len(list(series_products(cube, rows, jobs=2))) == len(VARIABLES)
        assert len(seen) == 2 * len(VARIABLES) and 1 <= max(seen) <= 2
        assert mapped() == 0
        samples = [LabeledSample(i, *cube.spec.node(iy, ix), iy, ix, "c", 1.0, 0.5)
                   for i, (iy, ix) in enumerate([(0, 0), (2, 3), (3, 1)])]
        held = [(block.shape, mapped()) for block in sample_series(cube, samples)]
        assert held == [((3, 300), 0)] * len(VARIABLES)
        assert mapped() == 0


    @pytest.mark.parametrize("reader, jobs", [("series_products", 1), ("series_products", 2),
                                              ("sample_series", 1)])
    def test_a_pass_keeps_under_two_slabs_resident(self, tmp_path, reader, jobs):
        """The resident pages of the cube's files (their mappings' Rss in
        /proc/self/smaps), read at every slab a pass cuts, multiplies or
        gathers, stay under two slabs per worker plus one page on variables
        of eight slabs and 37 steps: a pass releases each slab it has read.
        A slab here is 4 MiB, two of the 2 MiB folios the page cache may
        hold a file in; a fault maps a whole folio, so a smaller slab could
        show up to two folios beside it."""
        smaps = Path("/proc/self/smaps")
        if not smaps.exists():
            pytest.skip("no /proc/self/smaps")
        cube_dir, n, T, variables = tmp_path / "c", 64, 8 * SLAB_STEPS + 37, ("a", "b")
        spec = GridSpec(lat_min=10.0, lat_max=16.3, lon_min=30.0, lon_max=36.3,
                        n_lat=n, n_lon=n)
        save_cube(ClimateCube(spec=spec, time=TimeAxis("2020-01-01T00:00:00Z", 3.0, T),
                              variables=variables,
                              values={v: np.zeros((T, n, n), np.float32) for v in variables}),
                  cube_dir)

        def resident_kb() -> int:
            kb, ours = 0, False
            for line in smaps.read_text().splitlines():
                if re.match(r"[0-9a-f]+-[0-9a-f]+ ", line):  # a mapping's first line
                    ours = str(cube_dir) in line and line.endswith(".f32")
                elif ours and line.startswith("Rss:"):
                    kb += int(line.split()[1])
            return kb

        class Probe(np.ndarray):  # reads the Rss after each index into the cube or the rows
            def __getitem__(self, key):
                out = super().__getitem__(key)
                seen.append(resident_kb())
                return out

        class Values(UserDict):  # the loaded cube's lookups, as Probes
            def __getitem__(self, var):
                return mapped[var].view(Probe)

        cube = load_cube(cube_dir)
        mapped, cube.values, seen = cube.values, Values(dict.fromkeys(variables)), []
        if reader == "series_products":
            rows = [np.ones((1, T)).view(Probe) for _ in variables]
            assert len(list(series_products(cube, rows, jobs))) == len(variables)
        else:
            samples = [LabeledSample(i, *spec.node(iy, ix), iy, ix, "c", 1.0, 0.5)
                       for i, (iy, ix) in enumerate([(0, 0), (31, 7), (63, 63)])]
            assert len(list(sample_series(cube, samples))) == len(variables)
        slab_kb = SLAB_STEPS * n * n * 4 // 1024
        assert len(seen) >= 2 * 9 * len(variables) and max(seen) > 0
        assert max(seen) < jobs * 2 * slab_kb + mmap.PAGESIZE // 1024, seen

    def test_a_loaded_cube_reads_as_the_cube_in_memory(self, tmp_path):
        """series_products at jobs 1 and 2 and the sample_series blocks give
        the same bytes from a saved and loaded cube, whose pages are released
        as the pass reads them, as from the cube in memory: all valid, and
        with one masked pixel (the compress path). Two slabs and 37 steps of
        1 KiB rows, so the last slab is partial and the file ends mid-page;
        after a pass, the mapping still reads the file's bytes."""
        n, T, variables = 16, 2 * SLAB_STEPS + 37, ("a", "b", "c")
        assert T * n * n * 4 % mmap.PAGESIZE
        spec = GridSpec(lat_min=10.0, lat_max=11.5, lon_min=30.0, lon_max=31.5,
                        n_lat=n, n_lon=n)
        taxis = TimeAxis("2020-01-01T00:00:00Z", 3.0, T)
        rng = np.random.default_rng(5)
        values = {v: rng.standard_normal((T, n, n)).astype(np.float32) for v in variables}
        masked = {**values, "b": values["b"].copy()}
        masked["b"][T - 1, 5, 7] = np.nan  # in the last, partial slab
        rows = [rng.standard_normal((3, T)) for _ in variables]
        samples = [LabeledSample(i, *spec.node(iy, ix), iy, ix, "c", 1.0, 0.5)
                   for i, (iy, ix) in enumerate([(15, 15), (0, 0), (5, 6), (0, 0)])]
        for name, vals in (("all-valid", values), ("masked", masked)):
            memory = ClimateCube(spec=spec, time=taxis, variables=variables, values=vals)
            save_cube(memory, tmp_path / name)
            loaded = load_cube(tmp_path / name)
            assert loaded.mask.sum() == n * n - (name == "masked")
            for jobs in (1, 2):
                assert ([p.tobytes() for p in series_products(loaded, rows, jobs)]
                        == [p.tobytes() for p in series_products(memory, rows, jobs)])
            assert ([b.tobytes() for b in sample_series(loaded, samples)]
                    == [b.tobytes() for b in sample_series(memory, samples)])
            held = loaded.values["b"].reshape(T, -1)
            assert sum(len(slab) for _, slab in slabs(held)) == T
            assert held.tobytes() == (tmp_path / name / "b.f32").read_bytes()


class TestExtractSeries:
    def test_picks_nearest_node(self):
        cube = small_cube()
        series, (iy, ix) = extract_series(cube, 10.11, 30.21)
        assert (iy, ix) == (1, 2)
        for i, v in enumerate(cube.variables):
            np.testing.assert_array_equal(series[i], cube.values[v][:, 1, 2])
        assert series.dtype == np.float64

    def test_outside_extent_errors(self):
        with pytest.raises(DataError, match="outside"):
            extract_series(small_cube(), 50.0, 30.0)

    def test_masked_pixel_errors(self):
        cube = small_cube()
        cube.values["tp"][2, 3, 3] = np.nan
        cube = ClimateCube(spec=cube.spec, time=cube.time,
                           variables=cube.variables, values=cube.values)
        with pytest.raises(DataError, match="masked"):
            extract_series(cube, *cube.spec.node(3, 3))

    def test_sample_series_blocks_are_the_cube_at_the_samples(self, tmp_path):
        """sample_series yields one fresh float32 [samples, steps] block per
        variable, in cube order, across slab boundaries: each equals the
        variable's values at the samples' pixels, in sample order."""
        n_steps = SLAB_STEPS + 44
        save_cube(small_cube(n_steps=n_steps, seed=4), tmp_path / "c")
        cube = load_cube(tmp_path / "c")
        nodes = [(3, 1), (0, 0), (2, 3), (0, 0)]
        samples = [LabeledSample(i, *cube.spec.node(iy, ix), iy, ix, "c", 1.0, 0.5)
                   for i, (iy, ix) in enumerate(nodes)]
        blocks = list(sample_series(cube, samples))
        assert len(blocks) == len(VARIABLES)
        for var, block in zip(cube.variables, blocks):
            assert block.dtype == np.float32 and block.shape == (len(nodes), n_steps)
            for row, (iy, ix) in zip(block, nodes):
                np.testing.assert_array_equal(row, cube.values[var][:, iy, ix])

    def test_series_products_match_extract_series(self, tmp_path):
        """Loads keep the raw values of invalid pixels, so only the mask
        may decide which columns the reader multiplies; against the
        identity rows (and rows of one step, scaled by 2) the products
        are the float64 series of the valid pixels, row-major, for any
        worker count."""
        cube = small_cube(n_steps=300)
        cube.values["tp"][2, 3, 1] = np.nan  # pixel (3, 1): finite elsewhere
        cube.values["t2m"][:, 2, 2] = np.nan
        save_cube(cube, tmp_path / "c")
        cube = load_cube(tmp_path / "c")
        assert np.isfinite(cube.values["d2m"][:, 3, 1]).all()
        T = cube.time.n_steps
        pixels = [(iy, ix) for iy in range(4) for ix in range(4)
                  if (iy, ix) not in ((3, 1), (2, 2))]
        refs = [extract_series(cube, *cube.spec.node(iy, ix))[0] for iy, ix in pixels]
        rows = [np.eye(T) if vi % 2 else 2.0 * np.eye(T)[[vi, 299]]
                for vi in range(len(cube.variables))]
        for jobs in (1, 2, 5):
            columns = list(series_products(cube, rows, jobs))
            assert len(columns) == len(cube.variables)
            for vi, col in enumerate(columns):
                assert col.dtype == np.float64
                assert col.shape == (rows[vi].shape[0], len(pixels))
                for j, ref in enumerate(refs):
                    expect = ref[vi] if vi % 2 else 2.0 * ref[vi][[vi, 299]]
                    np.testing.assert_array_equal(col[:, j], expect)


class TestNdvi:
    def make_raster(self, n_obs=4):
        rng = np.random.default_rng(1)
        obs = [NdviObservation(2020 + i // 2, 100 + 40 * (i % 2),
                               rng.uniform(0, 0.9, (4, 4)).astype(np.float32))
               for i in range(n_obs)]
        spec = GridSpec(lat_min=0, lat_max=0.3, lon_min=0, lon_max=0.3,
                        n_lat=4, n_lon=4)
        return NdviRaster(spec=spec, observations=obs)

    def test_round_trip_sorted(self, tmp_path):
        r = self.make_raster()
        save_ndvi(r, tmp_path / "n")
        back = load_ndvi(tmp_path / "n")
        assert [(o.year, o.doy) for o in back.observations] == \
            sorted((o.year, o.doy) for o in r.observations)
        for a, b in zip(back.observations, r.observations):
            np.testing.assert_array_equal(a.values, b.values)

    def test_rejects_duplicates_and_bad_values(self):
        r = self.make_raster()
        with pytest.raises(DataError, match="duplicate"):
            NdviRaster(spec=r.spec, observations=r.observations + [r.observations[0]])
        bad = np.full((4, 4), 1.5, dtype=np.float32)
        with pytest.raises(DataError, match=r"\[-1, 1\]"):
            NdviRaster(spec=r.spec,
                       observations=[NdviObservation(2020, 10, bad)])
        with pytest.raises(DataError, match="day-of-year"):
            NdviRaster(spec=r.spec,
                       observations=[NdviObservation(2020, 400,
                                                     np.zeros((4, 4), np.float32))])

    def test_summer_mean_window_and_years(self):
        spec = GridSpec(lat_min=0, lat_max=0.1, lon_min=0, lon_max=0.1,
                        n_lat=2, n_lon=2)
        mk = lambda y, d, v: NdviObservation(y, d, np.full((2, 2), v, np.float32))
        raster = NdviRaster(spec=spec, observations=[
            mk(2020, 100, 0.2), mk(2020, 200, 0.4),
            mk(2020, 30, 0.9),   # before the window, must be ignored
            mk(2020, 300, 0.9),  # after the window
            mk(2021, 150, 0.6),
        ])
        out = summer_ndvi_mean(raster, years=[2020])
        np.testing.assert_allclose(out, 0.3, atol=1e-6)
        out = summer_ndvi_mean(raster, years=[2020, 2021])
        np.testing.assert_allclose(out, 0.4, atol=1e-6)

    def test_summer_mean_missing_year_errors(self):
        r = self.make_raster()
        with pytest.raises(DataError, match="1999"):
            summer_ndvi_mean(r, years=[1999])

    def test_summer_mean_skips_nan_per_pixel(self):
        spec = GridSpec(lat_min=0, lat_max=0.1, lon_min=0, lon_max=0.1,
                        n_lat=2, n_lon=2)
        a = np.full((2, 2), 0.2, dtype=np.float32)
        a[0, 0] = np.nan
        b = np.full((2, 2), 0.6, dtype=np.float32)
        b[1, 1] = np.nan
        raster = NdviRaster(spec=spec, observations=[
            NdviObservation(2020, 100, a), NdviObservation(2020, 150, b)])
        out = summer_ndvi_mean(raster, years=[2020])
        assert out[0, 0] == pytest.approx(0.6)
        assert out[1, 1] == pytest.approx(0.2)
        assert out[0, 1] == pytest.approx(0.4)


class TestRegrid:
    def test_matches_nested_loop_mean(self):
        fine = GridSpec(lat_min=0.0, lat_max=3.0, lon_min=0.0, lon_max=3.0,
                        n_lat=13, n_lon=13)
        coarse = GridSpec(lat_min=0.0, lat_max=3.0, lon_min=0.0, lon_max=3.0,
                          n_lat=4, n_lon=4)
        rng = np.random.default_rng(5)
        vals = rng.standard_normal(fine.shape)
        vals[2, 3] = np.nan
        out = block_regrid(vals, fine, coarse)

        expect = np.full(coarse.shape, np.nan)
        for ty in range(4):
            for tx in range(4):
                acc, cnt = 0.0, 0
                for sy in range(13):
                    for sx in range(13):
                        ny = int(np.floor((fine.lats[sy] - coarse.lat_min)
                                          / coarse.dlat + 0.5))
                        nx = int(np.floor((fine.lons[sx] - coarse.lon_min)
                                          / coarse.dlon + 0.5))
                        if (ny, nx) == (ty, tx) and np.isfinite(vals[sy, sx]):
                            acc += vals[sy, sx]
                            cnt += 1
                if cnt:
                    expect[ty, tx] = acc / cnt
        np.testing.assert_allclose(out, expect, rtol=1e-12)

    def test_identity_on_same_grid(self):
        rng = np.random.default_rng(2)
        vals = rng.standard_normal(SPEC.shape)
        np.testing.assert_allclose(block_regrid(vals, SPEC, SPEC), vals)

    def test_rejects_finer_target(self):
        fine = GridSpec(lat_min=0, lat_max=1, lon_min=0, lon_max=1,
                        n_lat=11, n_lon=11)
        coarse = GridSpec(lat_min=0, lat_max=1, lon_min=0, lon_max=1,
                          n_lat=3, n_lon=3)
        with pytest.raises(DataError, match="finer"):
            block_regrid(np.zeros(coarse.shape), coarse, fine)

    def test_rejects_disjoint_extents(self):
        a = GridSpec(lat_min=0, lat_max=1, lon_min=0, lon_max=1, n_lat=3, n_lon=3)
        b = GridSpec(lat_min=5, lat_max=6, lon_min=5, lon_max=6, n_lat=3, n_lon=3)
        with pytest.raises(DataError, match="disjoint"):
            block_regrid(np.zeros(a.shape), a, b)

    def test_regrid_ndvi_uses_growing_season(self):
        spec = GridSpec(lat_min=0, lat_max=0.1, lon_min=0, lon_max=0.1,
                        n_lat=2, n_lon=2)
        mk = lambda d, v: NdviObservation(2020, d, np.full((2, 2), v, np.float32))
        raster = NdviRaster(spec=spec, observations=[mk(100, 0.2), mk(30, 0.8)])
        np.testing.assert_allclose(regrid_ndvi(raster, spec, years=[2020]), 0.2,
                                   atol=1e-6)


class TestNamedGrids:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        grids = {"a": rng.standard_normal(SPEC.shape).astype(np.float32),
                 "b-2": rng.standard_normal(SPEC.shape).astype(np.float32)}
        save_grids(tmp_path / "g", SPEC, grids)
        spec, back = load_grids(tmp_path / "g")
        assert spec == SPEC
        assert set(back) == {"a", "b-2"}
        np.testing.assert_array_equal(back["a"], grids["a"])

    def test_bad_name_rejected(self, tmp_path):
        with pytest.raises(DataError, match="bad grid name"):
            save_grids(tmp_path / "g", SPEC, {"../evil": np.zeros(SPEC.shape)})

    def test_wrong_format_rejected(self, tmp_path):
        save_cube(small_cube(), tmp_path / "c")
        with pytest.raises(DataError, match="format"):
            load_grids(tmp_path / "c")


class TestDigest:
    def test_chunked_sha256_matches_whole_file(self, tmp_path):
        data = np.random.default_rng(0).bytes((1 << 20) * 2 + 17)  # spans chunks
        (tmp_path / "f").write_bytes(data)
        assert sha256_file(tmp_path / "f") == hashlib.sha256(data).hexdigest()

    def test_digest_is_sha256_of_sha256sum_listing(self, tmp_path):
        (tmp_path / "a").write_bytes(b"one")
        (tmp_path / "b").write_bytes(b"two")
        listing = "".join(f"{hashlib.sha256(d).hexdigest()}  {n}\n"
                          for n, d in (("a", b"one"), ("b", b"two")))
        assert content_digest(tmp_path, ["a", "b"]) == \
            hashlib.sha256(listing.encode()).hexdigest()

    def test_meta_digest_follows_the_data(self, tmp_path):
        def digest(cube, name):
            save_cube(cube, tmp_path / name)
            return json.loads((tmp_path / name / "meta.json").read_text())["digest"]

        first = digest(small_cube(seed=0), "a")
        assert digest(small_cube(seed=0), "b") == first
        assert digest(small_cube(seed=1), "c") != first

    def test_saved_digest_is_content_digest_of_the_written_files(self, tmp_path):
        """The digest is hashed from the buffers written; it must be the one
        a read-back of the files gives, float64 grids included. save_dir
        takes (name, array) pairs as they come: a feature directory's
        blocks, [samples, steps] each, are the bytes of the float32
        arrays, listed in the order given."""
        cube = small_cube(seed=2)
        save_cube(cube, tmp_path / "cube")
        save_ndvi(TestNdvi().make_raster(), tmp_path / "ndvi")
        grids = {"b": np.linspace(0.0, 1.0, 100).reshape(SPEC.shape).T / 3.0,  # not C-ordered
                 "a": np.full(SPEC.shape, np.pi)}
        assert grids["a"].dtype == np.float64
        save_grids(tmp_path / "grids", SPEC, grids)
        series = (np.arange(24.0).reshape(3, 4, 2) / 7.0).transpose(0, 2, 1)  # not C-ordered
        names = ["tp", "d2m", "sp"]  # not sorted
        save_dir(tmp_path / "features", {"format": "drycss-features"},
                 zip(names, (block for block in series)))
        for name, block in zip(names, series):
            assert (tmp_path / "features" / f"{name}.f32").read_bytes() == \
                block.astype("<f4").tobytes()
        for name, files in (("cube", [f"{v}.f32" for v in cube.variables] + ["mask.f32"]),
                            ("ndvi", ["2020_100.f32", "2020_140.f32",
                                      "2021_100.f32", "2021_140.f32"]),
                            ("grids", ["a.f32", "b.f32"]),
                            ("features", [f"{name}.f32" for name in names])):
            meta = json.loads((tmp_path / name / "meta.json").read_text())
            assert meta["digest"] == content_digest(tmp_path / name, files), name


class TestGreatCircle:
    def test_zero_distance(self):
        assert great_circle_km(10.0, 20.0, 10.0, 20.0) == 0.0

    def test_one_degree_latitude(self):
        # 1 degree of latitude on a 6371 km sphere
        assert great_circle_km(0.0, 0.0, 1.0, 0.0) == pytest.approx(111.19, abs=0.01)

    def test_symmetry(self):
        assert great_circle_km(10, 20, 11, 21) == pytest.approx(
            great_circle_km(11, 21, 10, 20))

    def test_scalar_vs_array_argument_order(self):
        # scalar-first and array-first must both vectorize
        lats = np.array([10.0, 11.0])
        lons = np.array([20.0, 21.0])
        d1 = great_circle_km(10.5, 20.5, lats, lons)
        d2 = great_circle_km(lats, lons, 10.5, 20.5)
        assert isinstance(d1, np.ndarray) and d1.shape == (2,)
        np.testing.assert_allclose(d1, d2)

    def test_scalar_inputs_return_float(self):
        d = great_circle_km(10.0, 20.0, 10.1, 20.1)
        assert isinstance(d, float)
