import json
import tracemalloc

import numpy as np
import pytest

from drycss.blup import BlupModel
from drycss.bundles import TrainedModel, save_model_bundle
from drycss.errors import DataError, read_json
from drycss.grid import (SLAB_STEPS, ClimateCube, GridSpec, TimeAxis, VARIABLES,
                         load_cube, save_cube, series_products)
from drycss.neural import (AutoencoderModel, ClassifierModel, DenseNet, TrainParams,
                           build_autoencoder, build_classifier)
from drycss.pipeline import (CALIBRATION_CATEGORIES, Calibration,
                             EnsembleScorer, GridSettings, LabeledSample, aggregate_metrics,
                             category_means,
                             compute_run_metrics, derive_seed, ensemble_scores,
                             enumerate_grid, fit_calibration, holdout_split,
                             load_samples, map_agreement_iou, pearson_r, predict_map,
                             ranking_overlap, rmse, run_training_grid,
                             save_run_record, save_samples, train_one_run)
from drycss.spectral import (FrequencySelection, bin_energies, dft_coefficients,
                             fit_normalization, select_frequencies)
from drycss.synth import synth_cube
from helpers import (extract_series, out_of_fold_scores, pixel_series, reference_training_grid,
                     rfft_ensemble_scores, selected_coefficients)


class TestSeeds:
    def test_stable_and_distinct(self):
        a = derive_seed(0, "synth", "ndvi")
        assert a == derive_seed(0, "synth", "ndvi")
        assert 0 <= a < 2 ** 63
        assert len({derive_seed(0, "a"), derive_seed(0, "b"),
                    derive_seed(1, "a"), derive_seed(0, "a", 0)}) == 4

    def test_part_types_distinguish(self):
        assert derive_seed(0, 1) != derive_seed(0, "1")


class TestMetrics:
    def test_rmse_and_pearson(self):
        a = np.array([1.0, 2.0, 3.0])
        assert rmse(a, a) == 0.0
        assert rmse(a, a + 2.0) == pytest.approx(2.0)
        assert pearson_r(a, 2 * a + 1) == pytest.approx(1.0)
        assert pearson_r(a, -a) == pytest.approx(-1.0)
        assert np.isnan(pearson_r(a, np.ones(3)))
        assert np.isnan(pearson_r(np.array([1.0]), np.array([1.0])))
        with pytest.raises(ValueError, match="mismatch"):
            rmse(a, np.zeros(4))

    def test_run_metrics_split_correctly(self):
        scores = np.array([0.0, 1.0, 0.5, 0.25])
        labels = np.array([0.0, 1.0, 1.0, 0.0])
        m = compute_run_metrics(scores, labels, [0, 1], [2, 3])
        assert m["train_rmse"] == 0.0
        assert m["val_rmse"] == pytest.approx(np.sqrt((0.25 + 0.0625) / 2))


class TestHoldout:
    def test_sizes_partition_and_sorting(self):
        rng = np.random.default_rng(0)
        for n, frac, nv in ((230, 0.1, 23), (10, 0.1, 1), (5, 0.9, 4),
                            (2, 0.5, 1)):
            train, val = holdout_split(n, frac, rng)
            assert len(val) == nv and len(train) == n - nv
            assert sorted(np.r_[train, val].tolist()) == list(range(n))
            assert list(val) == sorted(val) and list(train) == sorted(train)

    def test_seeded(self):
        a = holdout_split(50, 0.1, np.random.default_rng(7))
        b = holdout_split(50, 0.1, np.random.default_rng(7))
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_bad_args(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="fraction"):
            holdout_split(10, 0.0, rng)
        with pytest.raises(ValueError, match="at least 2"):
            holdout_split(1, 0.1, rng)


class TestSampleIO:
    def test_round_trip_exact_floats(self, tmp_path):
        samples = [LabeledSample(site_id=0, lat=20.1234567891234, lon=40.1,
                                 iy=1, ix=2, category="HiSuit-HiVeg",
                                 label=1.0, ndvi=0.1 + 0.2),
                   LabeledSample(site_id=1, lat=21.0, lon=41.0, iy=3, ix=4,
                                 category="LoSuit-LoVeg", label=0.0, ndvi=0.05)]
        save_samples(samples, tmp_path / "s.csv")
        back = load_samples(tmp_path / "s.csv")
        assert back == samples  # repr round-trips floats bit-exactly
        as_numpy = [LabeledSample(**{k: np.float64(v) if isinstance(v, float) else v
                                     for k, v in vars(s).items()}) for s in samples]
        save_samples(as_numpy, tmp_path / "n.csv")  # np.float64 cells: same bytes
        assert (tmp_path / "n.csv").read_bytes() == (tmp_path / "s.csv").read_bytes()

    def test_errors(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_samples(tmp_path / "missing.csv")
        p = tmp_path / "bad.csv"
        p.write_text("site_id,lat\n1,notafloat\n")
        with pytest.raises(DataError, match="malformed"):
            load_samples(p)
        p2 = tmp_path / "empty.csv"
        p2.write_text("site_id,lat,lon,iy,ix,category,label,ndvi\n")
        with pytest.raises(DataError, match="empty"):
            load_samples(p2)


class TestRunRecords:
    def test_round_trip(self, tmp_path):
        """A run record (predictions.json) is plain JSON: every field of
        the run, scores and metrics as floats, read back exactly."""
        from drycss.pipeline import TrainingRun
        run = TrainingRun(kind="blup", size=8, repetition=3, seed=99,
                          train_ids=[0, 2], val_ids=[1],
                          scores=np.array([0.1, 0.2, 0.3]),
                          metrics={"val_rmse": np.float64(0.5)})
        save_run_record(run, tmp_path / "r.json")
        assert json.loads((tmp_path / "r.json").read_text()) == {
            "kind": "blup", "size": 8, "repetition": 3, "seed": 99,
            "train_ids": [0, 2], "val_ids": [1], "scores": [0.1, 0.2, 0.3],
            "metrics": {"val_rmse": 0.5}, "failed": False, "error": ""}
        failed = TrainingRun(kind="nn", size=4, repetition=0, seed=1, failed=True,
                             error="training diverged")
        save_run_record(failed, tmp_path / "f.json")
        doc = json.loads((tmp_path / "f.json").read_text())
        assert doc["scores"] == [] and doc["failed"] is True
        assert doc["error"] == "training diverged"


class TestGridEnumeration:
    def test_canonical_order(self):
        cells = enumerate_grid((2, 4), (8,), 2)
        assert cells == [("blup", 2, 0), ("blup", 2, 1),
                         ("blup", 4, 0), ("blup", 4, 1),
                         ("nn", 8, 0), ("nn", 8, 1)]


def make_training_problem(n=40, n_vars=3, T=32, seed=0):
    """Labels carried by the annual-bin amplitude of the first variable.

    Continuous labels so every random validation split has variance and
    correlation metrics stay defined.
    """
    rng = np.random.default_rng(seed)
    names = tuple(f"v{i}" for i in range(n_vars))
    labels = np.linspace(0.0, 1.0, n)
    t = np.arange(T)
    series = rng.standard_normal((n, n_vars, T)) * 0.3
    series[:, 0, :] += (1.0 + 2.0 * labels[:, None]) * np.cos(2 * np.pi * t / T)
    settings = GridSettings(variables=names, n_steps=T, nn_feature_bins=4,
                            train_params=TrainParams(epochs=40))
    return series, labels, settings


def run_cell(series, labels, kind, size, repetition, seed, settings):
    """train_one_run with the split, selection and selected bins that
    run_training_grid plans for a cell of this seed, taken here from the
    full spectrum."""
    coeffs = dft_coefficients(series)
    split = holdout_split(len(labels), settings.holdout_fraction,
                          np.random.default_rng(derive_seed(seed, "split")))
    k = size if kind == "blup" else settings.nn_feature_bins
    sel = select_frequencies(bin_energies(coeffs[split[0]], settings.n_steps).mean(axis=0),
                             settings.variables, k, settings.n_steps)
    return train_one_run(selected_coefficients(coeffs, sel), sel, split, labels, kind, size,
                         repetition, seed, settings)


class TestTrainOneRun:
    def test_blup_run_learns_and_records_split(self):
        series, labels, settings = make_training_problem()
        run, model = run_cell(series, labels, "blup", 4, 0, 123, settings)
        assert run.run_id == "blup_4_0"
        assert len(run.val_ids) == 4 and len(run.train_ids) == 36
        assert not set(run.train_ids) & set(run.val_ids)
        assert run.scores.shape == (40,)
        assert run.metrics["val_r"] > 0.5
        assert model.kind == "blup" and model.selection.k == 4

    def test_selection_fit_on_training_split_only(self):
        series, labels, settings = make_training_problem()
        runs, models = run_training_grid(series.swapaxes(0, 1), labels, settings,
                                         blup_sizes=(3,), nn_sizes=(), repetitions=1,
                                         root_seed=5)
        run, model = runs[0], models[0]
        train = dft_coefficients(series)[run.train_ids]
        sel = select_frequencies(bin_energies(train, settings.n_steps).mean(axis=0),
                                 settings.variables, 3, settings.n_steps)
        np.testing.assert_array_equal(model.selection.bins, sel.bins)
        norm = fit_normalization(selected_coefficients(train, sel))
        np.testing.assert_array_equal(model.norm.mean_re, norm.mean_re)
        np.testing.assert_array_equal(model.norm.std_im, norm.std_im)

    def test_nn_run_trains(self):
        series, labels, settings = make_training_problem()
        run, model = run_cell(series, labels, "nn", 4, 1, 7, settings)
        assert model.autoencoder.encoder.layers[-1].n_out == 4
        assert run.metrics["train_r"] > 0.5

    def test_fixed_lambda_and_loo(self):
        series, labels, settings = make_training_problem()
        settings.blup_lambda = 2.5
        _, model = run_cell(series, labels, "blup", 2, 0, 1, settings)
        assert model.blup.lam == 2.5
        settings.blup_lambda = "loo"
        _, model = run_cell(series, labels, "blup", 2, 0, 1, settings)
        p = model.blup.n_features
        assert model.blup.lam in {m * p for m in (0.01, 0.1, 1.0, 10.0, 100.0)}

    def test_unknown_kind(self):
        series, labels, settings = make_training_problem()
        with pytest.raises(ValueError, match="kind"):
            run_cell(series, labels, "forest", 2, 0, 0, settings)


class TestTrainingGrid:
    @pytest.fixture(scope="class")
    @classmethod
    def problem(cls):
        return make_training_problem(n=30, seed=1)

    def test_serial_matches_parallel(self, problem):
        series, labels, settings = problem
        kw = dict(blup_sizes=(2,), nn_sizes=(4,), repetitions=2, root_seed=3)
        blocks = series.swapaxes(0, 1)
        runs1, models1 = run_training_grid(blocks, labels, settings, jobs=1, **kw)
        runs2, models2 = run_training_grid(blocks, labels, settings, jobs=3, **kw)
        assert [r.run_id for r in runs1] == [r.run_id for r in runs2] == \
            ["blup_2_0", "blup_2_1", "nn_4_0", "nn_4_1"]
        for a, b in zip(runs1, runs2):
            assert a.seed == b.seed == derive_seed(3, a.kind, a.size,
                                                   a.repetition)
            np.testing.assert_array_equal(a.scores, b.scores)
            assert a.metrics == b.metrics

    def test_failed_run_recorded_not_fatal(self, problem, monkeypatch):
        import drycss.pipeline as pl
        from drycss.errors import NumericalError

        real = pl.train_one_run

        def flaky(selected, sel, split, labels, kind, size, rep, seed, settings):
            if kind == "nn":
                raise NumericalError("training diverged", epoch=0)
            return real(selected, sel, split, labels, kind, size, rep, seed, settings)

        monkeypatch.setattr(pl, "train_one_run", flaky)
        series, labels, settings = problem
        with pytest.warns(UserWarning, match="diverged"):
            runs, models = run_training_grid(series.swapaxes(0, 1), labels, settings,
                                             blup_sizes=(2,), nn_sizes=(4,),
                                             repetitions=1, jobs=1)
        assert [r.failed for r in runs] == [False, True]
        assert models[1] is None
        agg = aggregate_metrics(runs)
        nn_row = next(r for r in agg if r["kind"] == "nn")
        assert nn_row["n_failed"] == 1 and np.isnan(nn_row["val_rmse_mean"])

    def test_shape_mismatch(self, problem):
        series, labels, settings = problem
        blocks = list(series.swapaxes(0, 1))
        kw = dict(blup_sizes=(2,), nn_sizes=(), repetitions=1)
        with pytest.raises(ValueError, match="labels"):
            run_training_grid(blocks, labels[:-1], settings, **kw)
        with pytest.raises(ValueError, match="2 series blocks for 3 variables"):
            run_training_grid(blocks[:-1], labels, settings, **kw)
        with pytest.raises(ValueError, match="more than 3 series blocks for 3 variables"):
            run_training_grid(blocks + blocks[:1], labels, settings, **kw)
        with pytest.raises(ValueError, match=r"block 1 shaped \(29, 32\)"):
            run_training_grid([blocks[0], blocks[1][:-1], blocks[2]], labels, settings, **kw)
        with pytest.raises(ValueError, match=r"block 2 shaped \(30, 31\)"):
            run_training_grid(blocks[:2] + [blocks[2][:, :-1]], labels, settings, **kw)
        for wrong in (series, series[0]):  # the [n, V, T] array, one sample's [V, T]
            with pytest.raises(ValueError, match="block 0 shaped"):
                run_training_grid(wrong, labels, settings, **kw)


def written_bytes(runs, models, root) -> dict[str, bytes]:
    """Every file of the runs' records and the models' bundles, as
    `train` writes them, by path under root."""
    for run, model in zip(runs, models):
        if model is not None:
            save_model_bundle(model, root / run.run_id)
        save_run_record(run, root / f"{run.run_id}.json")
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


class TestTrainingPlan:
    """run_training_grid's one FFT per variable block, byte for byte
    against the whole-spectrum path (helpers.reference_training_grid)."""

    GRID = dict(blup_sizes=(2, 8), nn_sizes=(4, 2), repetitions=2, root_seed=4)

    def problem(self, T):
        series, labels, settings = make_training_problem(n=30, T=T, seed=2)
        settings.train_params = TrainParams(epochs=8)
        return series, labels, settings

    @pytest.mark.parametrize("jobs", [1, 3])
    @pytest.mark.parametrize("T", [32, 33])
    def test_matches_the_whole_spectrum_path(self, T, jobs, tmp_path):
        series, labels, settings = self.problem(T)
        runs, models = run_training_grid(series.swapaxes(0, 1), labels, settings, jobs=jobs,
                                         **self.GRID)
        expect = reference_training_grid(series, labels, settings, **self.GRID)
        got = written_bytes(runs, models, tmp_path / "grid")
        assert len(got) == 8 * 4 and not any(r.failed for r in runs)
        assert got == written_bytes(*expect, tmp_path / "reference")

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_a_diverged_run_matches_too(self, jobs, tmp_path, monkeypatch):
        import drycss.pipeline as pl
        from drycss.errors import NumericalError

        real = pl.train_one_run

        def flaky(selected, sel, split, labels, kind, size, rep, seed, settings):
            if (kind, size, rep) == ("nn", 4, 1):
                raise NumericalError("training diverged", epoch=0)
            return real(selected, sel, split, labels, kind, size, rep, seed, settings)

        monkeypatch.setattr(pl, "train_one_run", flaky)
        series, labels, settings = self.problem(32)
        with pytest.warns(UserWarning, match="diverged"):
            runs, models = run_training_grid(series.swapaxes(0, 1), labels, settings,
                                             jobs=jobs, **self.GRID)
        expect = reference_training_grid(series, labels, settings, **self.GRID)
        assert [r.run_id for r in runs if r.failed] == ["nn_4_1"]
        assert written_bytes(runs, models, tmp_path / "grid") == \
            written_bytes(*expect, tmp_path / "reference")

    def test_peak_memory_stays_under_the_series(self):
        """Desk-world shape (230 samples, 23 variables, 2920 steps,
        float32) on desk-chain's grid: the blocks are made one variable at
        a time inside the trace, so the traced peak counts them, and it
        stays under the whole series' bytes. The whole complex128 spectrum
        alone would be twice them."""
        shape = (230, 23, 2920)
        labels = np.linspace(0.0, 1.0, 230)
        settings = GridSettings(variables=VARIABLES, n_steps=2920,
                                train_params=TrainParams(epochs=1))
        blocks = (np.random.default_rng(v).standard_normal((230, 2920), dtype=np.float32)
                  for v in range(23))
        tracemalloc.start()
        try:
            runs, _ = run_training_grid(blocks, labels, settings,
                                        blup_sizes=(2, 4, 8, 16, 32, 64), nn_sizes=(4, 8),
                                        repetitions=3, root_seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(runs) == 24
        series_bytes = np.prod(shape) * np.dtype(np.float32).itemsize
        assert peak < series_bytes, f"peak {peak / 1e6:.1f} MB over the series"


class TestAggregation:
    def test_mean_and_std_by_cell(self):
        from drycss.pipeline import TrainingRun
        runs = [TrainingRun(kind="blup", size=2, repetition=r, seed=0,
                            metrics={"train_rmse": v, "val_rmse": v + 1,
                                     "train_r": 0.5, "val_r": 0.5})
                for r, v in enumerate((1.0, 3.0))]
        rows = aggregate_metrics(runs)
        assert len(rows) == 1
        row = rows[0]
        assert row["train_rmse_mean"] == pytest.approx(2.0)
        assert row["train_rmse_std"] == pytest.approx(np.sqrt(2.0))  # ddof=1
        assert row["n_runs"] == 2 and row["n_failed"] == 0

    def test_out_of_fold_scores(self):
        from drycss.pipeline import TrainingRun
        runs = [
            TrainingRun(kind="blup", size=2, repetition=0, seed=0,
                        val_ids=[0, 1], scores=np.array([1.0, 2.0, 9.0])),
            TrainingRun(kind="blup", size=2, repetition=1, seed=0,
                        val_ids=[1], scores=np.array([9.0, 4.0, 9.0])),
            TrainingRun(kind="nn", size=4, repetition=0, seed=0, failed=True),
        ]
        oof = out_of_fold_scores(runs, 3)
        assert oof[0] == pytest.approx(1.0)
        assert oof[1] == pytest.approx(3.0)
        assert np.isnan(oof[2])


class TestEnsembleAndCalibration:
    def test_ensemble_means_by_kind(self):
        series, labels, settings = make_training_problem(n=20)
        runs, models = run_training_grid(series.swapaxes(0, 1), labels, settings,
                                         blup_sizes=(2, 4), nn_sizes=(),
                                         repetitions=1, jobs=1)
        coeffs = dft_coefficients(series)
        scores = ensemble_scores(models, series)
        assert set(scores) == {"blup", "combined"}
        direct = np.mean([m.score_coefficients(coeffs) for m in models], axis=0)
        np.testing.assert_allclose(scores["combined"], direct)
        np.testing.assert_allclose(scores["blup"], direct)
        with pytest.raises(DataError, match="no trained models"):
            ensemble_scores([None, None], series)

    def test_category_means(self):
        samples = [
            LabeledSample(0, 0, 0, 0, 0, "HiSuit-HiVeg", 1.0, 0.5),
            LabeledSample(1, 0, 0, 0, 1, "HiSuit-HiVeg", 1.0, 0.6),
            LabeledSample(2, 0, 0, 0, 2, "LoSuit-LoVeg", 0.0, 0.1),
        ]
        means = category_means(samples, np.array([0.8, 0.6, 0.2]))
        assert means == {"HiSuit-HiVeg": pytest.approx(0.7),
                         "LoSuit-LoVeg": pytest.approx(0.2)}

    def test_calibration_recovers_exact_line(self):
        rng = np.random.default_rng(0)
        scores = rng.uniform(0, 1, 12)
        samples = [LabeledSample(i, 0, 0, 0, i,
                                 CALIBRATION_CATEGORIES[i % 2], float(i % 2),
                                 ndvi=0.3 * s + 0.05)
                   for i, s in enumerate(scores)]
        cal = fit_calibration(samples, scores)
        assert cal.slope == pytest.approx(0.3)
        assert cal.intercept == pytest.approx(0.05)
        assert cal.r2 == pytest.approx(1.0)
        assert cal.n == 12
        np.testing.assert_allclose(cal.apply(scores), 0.3 * scores + 0.05)

    def test_calibration_ignores_other_categories(self):
        scores = np.array([0.0, 1.0, 0.5, 0.5])
        samples = [
            LabeledSample(0, 0, 0, 0, 0, "HiSuit-HiVeg", 1.0, 0.0),
            LabeledSample(1, 0, 0, 0, 1, "LoSuit-LoVeg", 0.0, 1.0),
            LabeledSample(2, 0, 0, 0, 2, "LoSuit-HiVeg", 0.0, 99.0),
            LabeledSample(3, 0, 0, 0, 3, "HiSuit-LoVeg", 1.0, -99.0),
        ]
        cal = fit_calibration(samples, scores)
        assert cal.n == 2
        assert cal.slope == pytest.approx(1.0)
        assert cal.intercept == pytest.approx(0.0)

    def test_calibration_errors(self):
        samples = [LabeledSample(0, 0, 0, 0, 0, "HiSuit-HiVeg", 1.0, 0.5),
                   LabeledSample(1, 0, 0, 0, 1, "LoSuit-LoVeg", 0.0, 0.1)]
        with pytest.raises(DataError, match="zero variance"):
            fit_calibration(samples, np.array([0.5, 0.5]))
        with pytest.raises(DataError, match="at least 2"):
            fit_calibration(samples[:1], np.array([0.5]))
        with pytest.raises(DataError, match="non-finite"):
            fit_calibration(samples, np.array([0.5, np.nan]))

    def test_calibration_dict_round_trip(self, tmp_path):
        cal = Calibration(slope=0.3, intercept=0.05, r2=0.9, n=10)
        assert Calibration.from_dict(cal.to_dict()) == cal
        path = tmp_path / "calibration.json"
        path.write_text(json.dumps({"intercept": 0.0, "r2": 0.0, "n": 1}))
        with pytest.raises(DataError, match="malformed calibration .*'slope'"):
            read_json(path, "calibration", Calibration.from_dict)


def scorer_models(T: int, kinds: str, seed: int = 0):
    """Hand-built models on three variables and T steps, whose bins hold
    bin 0, the last bin (Nyquist for even T), bins shared between
    models, and networks reading 1 and 16 bins per variable; with a
    failed run (None) among them. Returns (models, series)."""
    rng = np.random.default_rng(seed)
    t = np.arange(T)
    scale = np.array([9.7e4, 285.0, 1e-4])[None, :, None]  # sp, t2m, an evaporation
    series = scale * (1.0 + 0.05 * rng.standard_normal((16, 3, 1))
                      + 0.02 * np.cos(2 * np.pi * 3 * t / T + rng.uniform(0, 6, (16, 3, 1)))
                      + 0.01 * rng.standard_normal((16, 3, T)))
    coeffs = np.fft.rfft(series, axis=-1) / T
    last = T // 2

    def tables(bins):
        sel = FrequencySelection(VARIABLES[:3], np.array(bins), T)
        return dict(selection=sel, norm=fit_normalization(selected_coefficients(coeffs, sel)))

    def blup(bins):
        width = 3 * len(bins[0]) * 2
        return TrainedModel(kind="blup", repetition=0, seed=0,
                            blup=BlupModel(rng.normal(0, 0.05, width), 0.5, 1.0),
                            **tables(bins))

    def nn(bins, latent):
        net, n_encoder = build_autoencoder(3 * len(bins[0]) * 2, latent, rng)
        clf = build_classifier(latent, rng)
        clf.layers[-1].b += 2.0  # keep scores away from 0, where rtol means little
        return TrainedModel(kind="nn", repetition=0, seed=0,
                            autoencoder=AutoencoderModel(DenseNet(net.layers[:n_encoder])),
                            classifier=ClassifierModel(clf), **tables(bins))

    wide = [list(range(15)) + [last], [last] + list(range(1, 16)), list(range(16, 0, -1))]
    models = {
        "blup": [blup([[0, last, 3], [3, 1, 5], [2, 3, 7]]), None, blup([[3], [3], [0]])],
        "nn": [nn([[last], [0], [3]], 1), nn(wide, 4), None],
    }
    if kinds == "mixed":
        return models["blup"] + models["nn"], series
    return models[kinds], series


class TestEnsembleScorer:
    """EnsembleScorer.from_products, fed a cube's products as `predict`
    feeds it (grid.series_products) and sample series through
    `ensemble_scores` as `calibrate` does, against the full rfft and each
    model's own score_coefficients (helpers.rfft_ensemble_scores)."""

    @pytest.mark.parametrize("T", [64, 63])
    @pytest.mark.parametrize("kinds", ["blup", "nn", "mixed"])
    def test_front_ends_match_the_per_model_rfft_oracle(self, T, kinds):
        models, series = scorer_models(T, kinds)
        expect = rfft_ensemble_scores(models, series)
        spec = GridSpec(lat_min=0.0, lat_max=0.3, lon_min=0.0, lon_max=0.3, n_lat=4, n_lon=4)
        cube = ClimateCube(spec=spec, time=TimeAxis("2020-01-01", 3.0, T),
                           variables=VARIABLES[:3],
                           values={var: np.ascontiguousarray(series[:, v].T).reshape(T, 4, 4)
                                   for v, var in enumerate(VARIABLES[:3])})
        scorer = EnsembleScorer(models)
        from_cube = scorer.from_products(series_products(cube, scorer.time_rows))
        samples = ensemble_scores(models, series)
        assert list(from_cube) == list(samples) == list(expect)
        for name in expect:
            assert np.abs(expect[name]).min() > 0.1
            np.testing.assert_allclose(from_cube[name], expect[name], rtol=1e-10)
            np.testing.assert_array_equal(samples[name], from_cube[name])

    def test_union_holds_only_the_network_bins(self):
        models, _ = scorer_models(64, "mixed")
        scorer = EnsembleScorer(models)
        assert [u.tolist() for u in scorer.unions] == [
            list(range(15)) + [32], [0] + list(range(1, 16)) + [32],
            list(range(1, 17))]
        assert [rows.shape for rows in scorer.time_rows] == [(33, 64), (35, 64), (33, 64)]

    def test_zero_imaginary_parts_weigh_nothing(self):
        models, _ = scorer_models(64, "blup")
        weights = EnsembleScorer(models).weights
        assert (weights.imag[:, [0, 32]] == 0).all()
        assert (weights.real[:, [0, 32]] != 0).any()

    def test_rejects_mismatched_inputs(self):
        models, series = scorer_models(64, "mixed")
        for wrong in (series[:, :2], series[..., 1:], series[0]):
            with pytest.raises(ValueError, match="models expect"):
                ensemble_scores(models, wrong)
        with pytest.raises(ValueError, match="non-finite"):
            bad = series.copy()
            bad[0, 1, 5] = np.nan
            ensemble_scores(models, bad)
        # an infinity at either end must show, against BLUP-only and
        # network-only ensembles alike
        for kinds in ("blup", "nn"):
            only, clean = scorer_models(64, kinds)
            for step in (0, -1):
                for value in (np.inf, -np.inf):
                    bad = clean.copy()
                    bad[3, 2, step] = value
                    with pytest.raises(ValueError, match="non-finite"):
                        ensemble_scores(only, bad)
        other, _ = scorer_models(63, "blup")
        with pytest.raises(DataError, match="other variables or time steps"):
            EnsembleScorer(models + other)
        with pytest.raises(DataError, match="no trained models"):
            EnsembleScorer([None])


class TestPredictMap:
    @pytest.fixture(scope="class")
    @classmethod
    def setup(cls):
        spec = GridSpec(lat_min=0.0, lat_max=0.7, lon_min=10.0, lon_max=10.7,
                        n_lat=8, n_lon=8)
        taxis = TimeAxis(start="2020-01-01T00:00:00Z", step_hours=3.0,
                         n_steps=64)
        cube, suit = synth_cube(spec, taxis, seed=2, invalid_fraction=0.1)
        rng = np.random.default_rng(0)
        series = []
        labels = []
        for flat in np.flatnonzero(cube.mask)[:20]:
            iy, ix = divmod(int(flat), 8)
            series.append(extract_series(cube, *spec.node(iy, ix))[0])
            labels.append(float(suit[iy, ix]))
        series = np.stack(series)
        labels = np.asarray(labels)
        settings = GridSettings(variables=VARIABLES, n_steps=64,
                                train_params=TrainParams(epochs=20))
        runs, models = run_training_grid(series.swapaxes(0, 1), labels, settings,
                                         blup_sizes=(2,), nn_sizes=(4,),
                                         repetitions=1, root_seed=1, jobs=1)
        return cube, models

    def test_matches_direct_scoring_exactly(self, setup):
        cube, models = setup
        maps = predict_map(models, cube, jobs=1)
        assert set(maps) == {"blup", "nn", "combined"}
        iy, ix = 3, 5
        if not cube.mask[iy, ix]:
            iy, ix = map(int, divmod(int(np.flatnonzero(cube.mask)[0]), 8))
        series, _ = extract_series(cube, *cube.spec.node(iy, ix))
        c = dft_coefficients(series)
        per_model = [m.score_coefficients(c[None])[0] for m in models]
        # the map sums a kernel over the series and batched matmuls, which
        # regroup the sums of a per-model pass over the spectrum
        assert maps["blup"][iy, ix] == pytest.approx(per_model[0], rel=1e-12)
        assert maps["nn"][iy, ix] == pytest.approx(per_model[1], rel=1e-12)
        assert maps["combined"][iy, ix] == pytest.approx(np.mean(per_model),
                                                         rel=1e-12)

    def test_invalid_pixels_are_nan(self, setup):
        cube, models = setup
        maps = predict_map(models, cube, jobs=1)
        assert np.isnan(maps["combined"][~cube.mask]).all()
        assert np.isfinite(maps["combined"][cube.mask]).all()

    def test_thread_count_does_not_change_bytes(self, setup):
        cube, models = setup
        a = predict_map(models, cube, jobs=1)
        b = predict_map(models, cube, jobs=4)
        for k in a:
            np.testing.assert_array_equal(a[k], b[k])

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_memory_mapped_map_matches_pixel_gather_bytes(self, setup, tmp_path, jobs):
        """The slab reader gives the bytes of the two-index gather, its
        slabs summed in the same order and scored through the same
        products front end, on a memory-mapped cube whose invalid pixels
        keep finite values in one variable."""
        _, models = setup
        spec = GridSpec(lat_min=0.0, lat_max=0.8, lon_min=10.0, lon_max=10.7,
                        n_lat=9, n_lon=8)
        taxis = TimeAxis(start="2020-01-01T00:00:00Z", step_hours=3.0, n_steps=64)
        cube, _ = synth_cube(spec, taxis, seed=5, invalid_fraction=0.2)
        cube.values["d2m"][:, ~cube.mask] = 1.0
        save_cube(cube, tmp_path / "c")
        cube = load_cube(tmp_path / "c")
        assert (~cube.mask).sum() == 14
        maps = predict_map(models, cube, jobs=jobs)
        scorer = EnsembleScorer(models)
        rows, cols, series = pixel_series(cube, 0, spec.n_lat)
        products = []
        for vi, time_rows in enumerate(scorer.time_rows):
            total = np.zeros((time_rows.shape[0], rows.size))
            for t0 in range(0, taxis.n_steps, SLAB_STEPS):
                t1 = t0 + SLAB_STEPS
                total += time_rows[:, t0:t1] @ np.ascontiguousarray(series[:, vi, t0:t1].T)
            products.append(total)
        ref = {name: np.full(spec.shape, np.nan) for name in maps}
        for name, scores in scorer.from_products(products).items():
            ref[name][rows, cols] = scores
        assert set(maps) == set(ref)
        for name in maps:
            assert maps[name].tobytes() == ref[name].tobytes(), name

    def test_lineage_checks(self, setup):
        cube, models = setup
        other = GridSpec(lat_min=0, lat_max=0.7, lon_min=10, lon_max=10.7,
                         n_lat=8, n_lon=8)
        short = TimeAxis(start="2020-01-01T00:00:00Z", step_hours=3.0,
                         n_steps=32)
        wrong, _ = synth_cube(other, short, seed=0)
        with pytest.raises(DataError, match="time steps"):
            predict_map(models, wrong)
        reordered = ClimateCube(spec=cube.spec, time=cube.time,
                                variables=cube.variables[::-1], values=cube.values)
        with pytest.raises(DataError, match="variables"):
            predict_map(models, reordered)
        with pytest.raises(DataError, match="no trained models"):
            predict_map([None], cube)


class TestAgreement:
    def test_four_pixel_case_is_one_third(self):
        # suitable sets {p0, p1} and {p0, p2}: intersection 1, union 3
        a = np.array([[0.9, 0.9], [0.1, 0.1]])
        b = np.array([[0.9, 0.1], [0.9, 0.1]])
        assert map_agreement_iou(a, b) == pytest.approx(1 / 3)

    def test_identical_maps_give_one(self):
        a = np.random.default_rng(0).uniform(0, 1, (5, 5))
        assert map_agreement_iou(a, a) == 1.0

    def test_nan_pixels_ignored_and_empty_union_nan(self):
        a = np.array([[np.nan, 0.9], [0.1, 0.2]])
        b = np.array([[0.9, 0.9], [0.1, 0.2]])
        assert map_agreement_iou(a, b) == 1.0
        assert np.isnan(map_agreement_iou(np.zeros((2, 2)), np.zeros((2, 2))))
        with pytest.raises(DataError, match="misaligned"):
            map_agreement_iou(np.zeros((2, 2)), np.zeros((3, 2)))


class TestRankingOverlap:
    def test_hand_case(self):
        rankings = {
            "x": {1: 10.0, 2: 9.0, 3: 8.0, 4: 1.0, 5: 0.0, 6: -1.0},
            "y": {1: 10.0, 2: 0.5, 3: 8.0, 4: 9.0, 5: 0.0, 6: -1.0},
        }
        out = ranking_overlap(rankings, n=2)
        # top-2: x -> {1, 2}, y -> {1, 4}
        assert out["top"][("x", "y")] == 1
        assert out["top"][("x",)] == 1 and out["top"][("y",)] == 1
        # bottom-2: both -> {5, 6}
        assert out["bottom"][("x", "y")] == 2
        assert out["bottom"][("x",)] == 0 and out["bottom"][("y",)] == 0

    def test_ties_break_toward_smaller_id(self):
        rankings = {"x": {1: 1.0, 2: 1.0, 3: 1.0}}
        out = ranking_overlap(rankings, n=2)
        assert out["top"][("x",)] == 2  # ids 1 and 2
        # the same ids win the bottom set under the ascending tie rule
        assert out["bottom"][("x",)] == 2

    def test_validation(self):
        with pytest.raises(ValueError, match="no rankings"):
            ranking_overlap({})
        with pytest.raises(ValueError, match="different id set"):
            ranking_overlap({"x": {1: 0.0}, "y": {2: 0.0}}, n=1)
        with pytest.raises(ValueError, match="n="):
            ranking_overlap({"x": {1: 0.0}}, n=5)
