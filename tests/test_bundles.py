import json

import numpy as np
import pytest

from drycss.blup import fit_blup
from drycss.bundles import TrainedModel, load_model_bundle, save_model_bundle
from drycss.errors import DataError
from drycss.neural import TrainParams, train_autoencoder, train_classifier
from drycss.spectral import (bin_energies, dft_coefficients, fit_normalization, project,
                             select_frequencies)
from helpers import selected_coefficients


@pytest.fixture(scope="module")
def fitted():
    rng = np.random.default_rng(0)
    n, nv, T, k = 24, 2, 16, 4
    series = rng.standard_normal((n, nv, T))
    labels = rng.uniform(0, 1, n)
    coeffs = dft_coefficients(series)
    sel = select_frequencies(bin_energies(coeffs, T).mean(axis=0), ("a", "b"), k, T)
    norm = fit_normalization(selected_coefficients(coeffs, sel))
    X = project(selected_coefficients(coeffs, sel), norm)
    blup = TrainedModel(kind="blup", size=k, repetition=0, seed=1,
                        selection=sel, norm=norm,
                        blup=fit_blup(X, labels, lam=4.0))
    ae = train_autoencoder(X, 4, nv, TrainParams(epochs=15), seed=2)
    clf = train_classifier(ae.encode(X), labels, TrainParams(epochs=15), seed=3)
    nn = TrainedModel(kind="nn", size=4, repetition=1, seed=2,
                      selection=sel, norm=norm, autoencoder=ae, classifier=clf)
    return coeffs, blup, nn


class TestTrainedModel:
    def test_ids_and_scoring(self, fitted):
        coeffs, blup, nn = fitted
        assert blup.model_id == "blup_4_0"
        assert nn.model_id == "nn_4_1"
        assert blup.score_coefficients(coeffs).shape == (24,)
        assert nn.score_coefficients(coeffs).shape == (24,)

    def test_validates_members(self, fitted):
        _, blup, nn = fitted
        with pytest.raises(ValueError, match="ridge"):
            TrainedModel(kind="blup", size=2, repetition=0, seed=0,
                         selection=blup.selection, norm=blup.norm)
        with pytest.raises(ValueError, match="autoencoder"):
            TrainedModel(kind="nn", size=2, repetition=0, seed=0,
                         selection=blup.selection, norm=blup.norm)
        with pytest.raises(ValueError, match="kind"):
            TrainedModel(kind="tree", size=2, repetition=0, seed=0,
                         selection=blup.selection, norm=blup.norm)

    def test_feature_width_checked(self, fitted):
        _, blup, _ = fitted
        with pytest.raises(ValueError, match="feature matrix"):
            blup.score_features(np.zeros((3, 7)))


class TestBlupBundle:
    def test_round_trip_scores_to_f32(self, fitted, tmp_path):
        coeffs, blup, _ = fitted
        save_model_bundle(blup, tmp_path / "m")
        back = load_model_bundle(tmp_path / "m")
        assert (back.kind, back.size, back.repetition, back.seed) == \
            ("blup", 4, 0, 1)
        assert back.blup.lam == 4.0
        assert back.blup.intercept == blup.blup.intercept
        # weights pass through float32 storage once
        np.testing.assert_allclose(back.blup.effects, blup.blup.effects,
                                   rtol=1e-6)
        np.testing.assert_allclose(back.score_coefficients(coeffs),
                                   blup.score_coefficients(coeffs),
                                   rtol=1e-4, atol=1e-5)

    def test_second_save_is_byte_identical(self, fitted, tmp_path):
        _, blup, _ = fitted
        save_model_bundle(blup, tmp_path / "a")
        save_model_bundle(load_model_bundle(tmp_path / "a"), tmp_path / "b")
        for name in ("model.json", "weights.f32", "features.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes(), name

    def test_refuses_overwrite(self, fitted, tmp_path):
        _, blup, _ = fitted
        save_model_bundle(blup, tmp_path / "m")
        with pytest.raises(DataError, match="exists"):
            save_model_bundle(blup, tmp_path / "m")


class TestNnBundle:
    def test_round_trip_preserves_behavior(self, fitted, tmp_path):
        coeffs, _, nn = fitted
        save_model_bundle(nn, tmp_path / "m")
        back = load_model_bundle(tmp_path / "m")
        assert back.autoencoder.latent_dim == 4
        assert back.classifier.net.topology() == nn.classifier.net.topology()
        np.testing.assert_allclose(back.score_coefficients(coeffs),
                                   nn.score_coefficients(coeffs),
                                   rtol=1e-3, atol=1e-4)

    def test_batch_norm_state_restored(self, fitted, tmp_path):
        _, _, nn = fitted
        save_model_bundle(nn, tmp_path / "m")
        back = load_model_bundle(tmp_path / "m")
        src = nn.autoencoder.encoder.layers[0]
        dst = back.autoencoder.encoder.layers[0]
        assert src.batch_norm and dst.batch_norm
        np.testing.assert_allclose(dst.run_mean, src.run_mean, rtol=1e-6)
        np.testing.assert_allclose(dst.run_var, src.run_var, rtol=1e-6)
        assert not np.allclose(dst.run_mean, 0.0)  # training moved the stats

    def test_bundle_holds_encoder_and_classifier_only(self, fitted, tmp_path):
        _, _, nn = fitted
        save_model_bundle(nn, tmp_path / "m")
        doc = json.loads((tmp_path / "m" / "model.json").read_text())
        assert doc["version"] == 2
        assert [s["name"] for s in doc["sections"]] == ["encoder", "classifier"]
        nets = (nn.autoencoder.encoder, nn.classifier.net)
        assert (tmp_path / "m" / "weights.f32").stat().st_size == \
            4 * sum(net.theta.size + net.state.size for net in nets)
        back = load_model_bundle(tmp_path / "m").autoencoder
        assert back.encoder.topology() == nn.autoencoder.encoder.topology()
        assert not hasattr(back, "decoder")

    def test_second_save_is_byte_identical(self, fitted, tmp_path):
        _, _, nn = fitted
        save_model_bundle(nn, tmp_path / "a")
        save_model_bundle(load_model_bundle(tmp_path / "a"), tmp_path / "b")
        for name in ("model.json", "weights.f32", "features.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes(), name


class TestCorruption:
    def save(self, model, tmp_path):
        save_model_bundle(model, tmp_path / "m")
        return tmp_path / "m"

    def test_truncated_weights(self, fitted, tmp_path):
        _, blup, _ = fitted
        p = self.save(blup, tmp_path)
        data = (p / "weights.f32").read_bytes()
        (p / "weights.f32").write_bytes(data[:-4])
        n = blup.blup.n_features
        with pytest.raises(DataError, match=f"weights.f32: file holds {n - 1} values, "
                                            f"expected {n} "):
            load_model_bundle(p)

    def test_missing_weights(self, fitted, tmp_path):
        _, blup, _ = fitted
        p = self.save(blup, tmp_path)
        (p / "weights.f32").unlink()
        with pytest.raises(DataError, match="weights"):
            load_model_bundle(p)

    def test_bad_json_and_format(self, fitted, tmp_path):
        _, blup, _ = fitted
        p = self.save(blup, tmp_path)
        (p / "model.json").write_text("{oops")
        with pytest.raises(DataError, match="corrupt"):
            load_model_bundle(p)
        (p / "model.json").write_text(json.dumps({"format": "other",
                                                  "version": 1}))
        with pytest.raises(DataError, match="format"):
            load_model_bundle(p)
        (p / "model.json").write_text("[1, 2]")
        with pytest.raises(DataError, match="malformed model metadata"):
            load_model_bundle(p)
        with pytest.raises(DataError, match="model.json"):
            load_model_bundle(tmp_path / "missing")

    def test_nn_missing_section(self, fitted, tmp_path):
        _, _, nn = fitted
        p = self.save(nn, tmp_path)
        doc = json.loads((p / "model.json").read_text())
        doc["sections"] = [s for s in doc["sections"]
                           if s["name"] != "classifier"]
        (p / "model.json").write_text(json.dumps(doc))
        with pytest.raises(DataError, match="classifier"):
            load_model_bundle(p)

    def test_topology_must_match_weight_counts(self, fitted, tmp_path):
        _, _, nn = fitted
        p = self.save(nn, tmp_path)
        doc = json.loads((p / "model.json").read_text())
        clf = next(s for s in doc["sections"] if s["name"] == "classifier")
        clf["topology"][0]["batch_norm"] = False  # drops gamma and beta
        (p / "model.json").write_text(json.dumps(doc))
        with pytest.raises(DataError, match="topology does not match"):
            load_model_bundle(p)



class TestFeatureTables:
    """features.json, the bundle's frequency selection and normalization."""

    def save(self, model, tmp_path):
        save_model_bundle(model, tmp_path / "m")
        return tmp_path / "m" / "features.json"

    def edit(self, path, **changes):
        doc = json.loads(path.read_text())
        doc.update(changes)
        path.write_text(json.dumps(doc))

    def test_round_trip(self, fitted, tmp_path):
        coeffs, blup, _ = fitted
        self.save(blup, tmp_path)
        doc = json.loads((tmp_path / "m" / "features.json").read_text())
        assert sorted(doc) == ["bins", "k", "mean_im", "mean_re", "n_steps",
                               "std_im", "std_re", "variables", "version"]
        assert doc["version"] == 1
        back = load_model_bundle(tmp_path / "m")
        sel, sel2 = blup.selection, back.selection
        assert (sel2.variables, sel2.k, sel2.n_steps) == (sel.variables, sel.k, sel.n_steps)
        np.testing.assert_array_equal(sel2.bins, sel.bins)
        np.testing.assert_array_equal(back.norm.std_im, blup.norm.std_im)
        np.testing.assert_array_equal(project(selected_coefficients(coeffs, sel2), back.norm),
                                      project(selected_coefficients(coeffs, sel), blup.norm))

    def test_rejects_unknown_version(self, fitted, tmp_path):
        path = self.save(fitted[1], tmp_path)
        self.edit(path, version=99)
        with pytest.raises(DataError, match="feature table version"):
            load_model_bundle(path.parent)

    def test_rejects_damage(self, fitted, tmp_path):
        path = self.save(fitted[1], tmp_path)
        path.write_text("{not json")
        with pytest.raises(DataError, match="corrupt"):
            load_model_bundle(path.parent)
        path.write_text(json.dumps({"version": 1, "variables": ["a"]}))
        with pytest.raises(DataError, match="malformed"):
            load_model_bundle(path.parent)
        path.write_text("[1, 2]")
        with pytest.raises(DataError, match="malformed"):
            load_model_bundle(path.parent)
        path.unlink()
        with pytest.raises(DataError, match="features.json"):
            load_model_bundle(path.parent)

    @pytest.mark.parametrize("bad", [9999, 9, -1])
    def test_bins_lie_in_the_spectrum(self, fitted, tmp_path, bad):
        """16 steps give bins 0..8."""
        _, blup, _ = fitted
        path = self.save(blup, tmp_path)
        bins = blup.selection.bins.tolist()
        bins[1][2] = bad
        self.edit(path, bins=bins)
        with pytest.raises(DataError, match=r"outside \[0, 9\)"):
            load_model_bundle(path.parent)

    @pytest.mark.parametrize("table", ["mean_re", "std_re", "mean_im", "std_im"])
    def test_tables_are_shaped_like_the_bins(self, fitted, tmp_path, table):
        _, _, nn = fitted
        path = self.save(nn, tmp_path)
        self.edit(path, **{table: getattr(nn.norm, table)[:, :1].tolist()})  # [V, 1]
        with pytest.raises(DataError, match=f"{table} is shaped \\(2, 1\\)"):
            load_model_bundle(path.parent)
