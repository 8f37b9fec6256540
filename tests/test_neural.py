import numpy as np
import pytest

from drycss.errors import NumericalError
from drycss.neural import (Adam, CLASSIFIER_HIDDEN, DenseLayer, DenseNet,
                           TrainParams, _loss_and_grad, build_autoencoder,
                           build_classifier, hourglass_widths,
                           train_autoencoder, train_classifier)
from helpers import (auc, gradient_check, reference_autoencoder, reference_backward,
                     reference_classifier, reference_forward, reference_gradient_check)


def clean_params(**kw):
    base = dict(learning_rate=0.01, batch_size=32, epochs=200,
                noise_std=0.0, dropout_rate=0.0)
    base.update(kw)
    return TrainParams(**base)


class TestArchitecture:
    def test_hourglass_widths_halve_to_latent(self):
        assert hourglass_widths(184, 4) == [92, 46, 23, 11, 5]
        assert hourglass_widths(184, 64) == [92]
        assert hourglass_widths(184, 92) == []
        assert hourglass_widths(184, 184) == []
        assert hourglass_widths(16, 2) == [8, 4]

    def test_autoencoder_mirrors_encoder(self):
        rng = np.random.default_rng(0)
        net, n_enc = build_autoencoder(16, 2, rng)
        topo = net.topology()
        assert n_enc == 3
        assert [t["n_out"] for t in topo] == [8, 4, 2, 4, 8, 16]
        # hidden layers normalized + relu, latent and output plain linear
        assert [t["activation"] for t in topo] == \
            ["relu", "relu", "linear", "relu", "relu", "linear"]
        assert [t["batch_norm"] for t in topo] == \
            [True, True, False, True, True, False]

    def test_latent_equal_to_input_is_linear_only(self):
        net, n_enc = build_autoencoder(8, 8, np.random.default_rng(0))
        assert len(net.layers) == 2 and n_enc == 1
        assert all(t["activation"] == "linear" and not t["batch_norm"]
                   for t in net.topology())

    def test_latent_bounds(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="latent_dim"):
            build_autoencoder(8, 0, rng)
        with pytest.raises(ValueError, match="latent_dim"):
            build_autoencoder(8, 9, rng)

    def test_classifier_head_shape(self):
        net = build_classifier(6, np.random.default_rng(0))
        assert [t["n_out"] for t in net.topology()] == \
            list(CLASSIFIER_HIDDEN) + [1]
        assert net.topology()[-1] == {"n_in": 32, "n_out": 1,
                                      "activation": "linear",
                                      "batch_norm": False}


class TestDenseNet:
    def test_layer_arrays_are_views_into_theta_and_state(self):
        net, _ = build_autoencoder(16, 2, np.random.default_rng(1))
        params = [getattr(l, n) for l in net.layers for n in l.param_names]
        state = [getattr(l, n) for l in net.layers for n in l.state_names]
        assert net.layers[0].param_names == ("W", "b", "gamma", "beta")
        assert all(np.shares_memory(a, net.theta) for a in params)
        assert all(np.shares_memory(a, net.state) for a in state)
        # canonical layout: layer by layer, W, b (gamma, beta); then
        # run_mean, run_var of each batch-norm layer
        np.testing.assert_array_equal(
            net.theta, np.concatenate([a.ravel() for a in params]))
        np.testing.assert_array_equal(
            net.state, np.concatenate([a.ravel() for a in state]))
        assert net.state.size == 2 * sum(l.n_out for l in net.layers if l.batch_norm)

        x = np.random.default_rng(2).standard_normal((4, 16))
        before = net.forward(x)
        net.theta[-1] += 1.0  # the output layer's last bias
        after = net.forward(x)
        np.testing.assert_allclose(after[:, -1], before[:, -1] + 1.0)
        np.testing.assert_array_equal(after[:, :-1], before[:, :-1])
        net.state[:] = 0.0  # zero running variance: eps alone scales z
        assert not np.allclose(net.forward(x), after)

    def test_training_updates_running_stats_in_place(self):
        rng = np.random.default_rng(3)
        net = build_classifier(4, rng)
        state = net.state
        x = rng.standard_normal((8, 4))
        z = x @ net.layers[0].W + net.layers[0].b
        net.forward(x, training=True)
        assert net.state is state
        assert np.shares_memory(net.layers[0].run_mean, state)
        np.testing.assert_allclose(net.layers[0].run_mean, 0.1 * z.mean(axis=0))
        np.testing.assert_allclose(net.layers[0].run_var, 0.9 + 0.1 * z.var(axis=0))

    def test_split_repacks_trained_values(self):
        rng = np.random.default_rng(4)
        net, n_enc = build_autoencoder(16, 4, rng)
        net.theta[:] = rng.standard_normal(net.theta.size)
        net.state[:] = rng.uniform(0.5, 2.0, net.state.size)
        theta, state = net.theta.copy(), net.state.copy()
        x = rng.standard_normal((5, 16))
        whole = net.forward(x)
        enc, dec = DenseNet(net.layers[:n_enc]), DenseNet(net.layers[n_enc:])
        np.testing.assert_array_equal(np.concatenate([enc.theta, dec.theta]), theta)
        np.testing.assert_array_equal(np.concatenate([enc.state, dec.state]), state)
        assert all(np.shares_memory(l.W, enc.theta) for l in enc.layers)
        assert all(np.shares_memory(l.W, dec.theta) for l in dec.layers)
        np.testing.assert_array_equal(dec.forward(enc.forward(x)), whole)

    def test_topology_round_trip(self):
        net = build_classifier(5, np.random.default_rng(1))
        clone = DenseNet.from_topology(net.topology())
        assert clone.topology() == net.topology()
        assert (clone.theta.size, clone.state.size) == (net.theta.size, net.state.size)
        clone.theta[:] = net.theta
        x = np.random.default_rng(2).standard_normal((4, 5))
        np.testing.assert_allclose(clone.forward(x), net.forward(x))

    def test_zero_input_through_zero_linear_layer_is_zero(self):
        layer = DenseLayer(4, 3, "linear", batch_norm=False)
        layer.W[:] = 0.0
        out, _ = layer.forward(np.zeros((2, 4)), training=False)
        np.testing.assert_array_equal(out, np.zeros((2, 3)))


class TestAdam:
    def test_first_step_matches_hand_formula(self):
        theta = np.array([1.0, 2.0, -3.0])
        g = np.array([0.5, -1.0, 2.0])
        opt = Adam(theta, lr=0.1)
        opt.step(g.copy())
        # after bias correction the first step is lr * g / (|g| + eps)
        expect = np.array([1.0, 2.0, -3.0]) - 0.1 * g / (np.abs(g) + 1e-8)
        np.testing.assert_allclose(theta, expect, rtol=1e-12)
        assert opt.theta is theta

    def test_two_steps_match_recurrence(self):
        rng = np.random.default_rng(3)
        theta = rng.standard_normal(7)
        ref = theta.copy()
        g1, g2 = rng.standard_normal(7), rng.standard_normal(7)
        opt = Adam(theta, lr=0.05)
        opt.step(g1.copy())
        opt.step(g2.copy())
        m = v = np.zeros(7)
        for t, g in ((1, g1), (2, g2)):
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            ref = ref - 0.05 * (m / (1 - 0.9 ** t)) / (
                np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
        np.testing.assert_allclose(theta, ref, rtol=1e-12)

    def test_steps_a_network_through_its_views(self):
        net = build_classifier(3, np.random.default_rng(5))
        W0 = net.layers[0].W.copy()
        Adam(net.theta, lr=0.01).step(np.ones(net.theta.size))
        np.testing.assert_allclose(net.layers[0].W, W0 - 0.01, rtol=1e-6)


class TestAutoencoder:
    def test_full_capacity_learns_identity(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((50, 8))
        model = train_autoencoder(X, latent_dim=8, n_variables=2,
                                  params=clean_params(epochs=200), seed=0)
        assert model.final_loss < 1e-3
        assert model.trajectory[-1] < model.trajectory[0]

    def test_same_seed_reproduces_exactly(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((20, 16))
        p = TrainParams(epochs=5)
        a = train_autoencoder(X, 4, 2, p, seed=7)
        b = train_autoencoder(X, 4, 2, p, seed=7)
        assert a.trajectory == b.trajectory
        assert a.final_loss == b.final_loss
        np.testing.assert_array_equal(a.encoder.theta, b.encoder.theta)
        np.testing.assert_array_equal(a.encoder.state, b.encoder.state)
        c = train_autoencoder(X, 4, 2, p, seed=8)
        assert c.trajectory != a.trajectory

    def test_total_dropout_floors_loss_at_block_variance(self):
        # every input row fully zeroed: the best the decoder can do is
        # emit the mean, so the loss stalls at the feature variance
        rng = np.random.default_rng(6)
        X = rng.standard_normal((40, 8)) * 2.0
        var = float(np.mean((X - X.mean(axis=0)) ** 2))
        model = train_autoencoder(
            X, latent_dim=2, n_variables=1,
            params=clean_params(dropout_rate=1.0, epochs=300, batch_size=40),
            seed=0)
        assert model.trajectory[-1] >= 0.99 * var
        assert model.trajectory[-1] <= 2.0 * var

    def test_encoding_is_batch_independent(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((12, 16))
        model = train_autoencoder(X, 4, 2, TrainParams(epochs=10), seed=1)
        whole = model.encode(X)
        rows = np.vstack([model.encode(X[i:i + 1]) for i in range(12)])
        assert np.abs(whole - rows).max() < 1e-10
        encoder, decoder, _, _ = reference_autoencoder(X, 4, 2, TrainParams(epochs=10), 1)
        np.testing.assert_array_equal(encoder.forward(X), whole)
        assert decoder.forward(whole).shape == X.shape

    def test_rejects_indivisible_blocks(self):
        with pytest.raises(ValueError, match="divisible"):
            train_autoencoder(np.zeros((4, 10)), 2, 3, TrainParams(epochs=1), 0)
        with pytest.raises(ValueError, match="features"):
            train_autoencoder(np.zeros((1, 10)), 2, 2, TrainParams(epochs=1), 0)

    def test_non_finite_input_raises_with_context(self):
        X = np.random.default_rng(8).standard_normal((10, 8))
        X[3, 2] = np.nan
        with pytest.raises(NumericalError) as exc:
            train_autoencoder(X, 2, 2, TrainParams(epochs=3), seed=0)
        assert exc.value.context["epoch"] == 0
        assert exc.value.context["learning_rate"] == pytest.approx(1e-3)
        assert "diverged" in str(exc.value)


class TestClassifier:
    def test_separable_latents_fit_tightly(self):
        rng = np.random.default_rng(9)
        Z = np.vstack([rng.normal(-2.0, 0.3, (30, 2)),
                       rng.normal(2.0, 0.3, (30, 2))])
        y = np.r_[np.zeros(30), np.ones(30)]
        model = train_classifier(Z, y, clean_params(epochs=500), seed=0)
        assert model.final_rmse < 0.1
        assert model.trajectory[-1] < model.trajectory[0]

    def test_constant_labels_predict_the_constant(self):
        rng = np.random.default_rng(10)
        Z = rng.standard_normal((40, 3))
        model = train_classifier(Z, np.ones(40), clean_params(epochs=2000),
                                 seed=0)
        np.testing.assert_allclose(model.predict(Z), 1.0, atol=0.01)

    def test_recovers_signal_through_autoencoder(self):
        # labels planted in one variable block survive encode + head
        rng = np.random.default_rng(11)
        n, nv, k = 60, 3, 4
        labels = (np.arange(n) % 2).astype(float)
        X = rng.standard_normal((n, nv * k * 2))
        X[:, :k * 2] += 2.0 * labels[:, None]
        ae = train_autoencoder(X, 4, nv, TrainParams(epochs=200), seed=2)
        head = train_classifier(ae.encode(X), labels,
                                clean_params(epochs=300), seed=2)
        scores = head.predict(ae.encode(X))
        assert auc(scores, labels) > 0.9

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="shapes"):
            train_classifier(np.zeros((5, 2)), np.zeros(4),
                             TrainParams(epochs=1), 0)


def _twin_nets(seed):
    """Pairs of identical small networks, batch norm in each."""
    def build(make):
        return make(np.random.default_rng(seed)), make(np.random.default_rng(seed))
    return [build(lambda rng: build_autoencoder(16, 2, rng)[0]),
            build(lambda rng: build_classifier(3, rng)),
            build(lambda rng: DenseNet([
                DenseLayer(5, 6, "relu", batch_norm=True, rng=rng),
                DenseLayer(6, 4, "linear", batch_norm=True, rng=rng),
                DenseLayer(4, 3, "relu", batch_norm=False, rng=rng),
                DenseLayer(3, 2, "linear", batch_norm=False, rng=rng)]))]


class TestMatchesReferenceBackprop:
    """The training step is bit for bit the reference in helpers."""

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("loss", ["mse", "rmse"])
    def test_backward_matches_reference(self, loss, training):
        rng = np.random.default_rng(20)
        for net, ref in _twin_nets(21):
            state = rng.uniform(0.5, 2.0, net.state.size)
            net.state[:], ref.state[:] = state, state
            x = rng.standard_normal((7, net.layers[0].n_in))
            y = rng.standard_normal((7, net.layers[-1].n_out))
            for _ in range(2):  # the second call overwrites the first's gradient
                pred, caches = net.forward(x, training=training, want_cache=True)
                ref_pred, ref_caches = reference_forward(ref, x, training)
                np.testing.assert_array_equal(pred, ref_pred)
                np.testing.assert_array_equal(net.state, ref.state)
                dpred = _loss_and_grad(pred, y, loss)[1]
                grad = net.backward(dpred, caches)
                assert grad is net.grad
                np.testing.assert_array_equal(grad, reference_backward(ref, dpred, ref_caches))
                x = x[::-1] * 1.5

    def test_autoencoder_training_matches_reference(self):
        X = np.random.default_rng(22).standard_normal((45, 16))
        p = TrainParams(epochs=4, learning_rate=0.01)
        model = train_autoencoder(X, 2, 4, p, seed=3)
        encoder, _, trajectory, final = reference_autoencoder(X, 2, 4, p, seed=3)
        np.testing.assert_array_equal(model.encoder.theta, encoder.theta)
        np.testing.assert_array_equal(model.encoder.state, encoder.state)
        assert model.trajectory == trajectory
        assert model.final_loss == final

    def test_classifier_training_matches_reference(self):
        rng = np.random.default_rng(23)
        Z, y = rng.standard_normal((45, 3)), rng.random(45)
        p = TrainParams(epochs=4, learning_rate=0.01)
        model = train_classifier(Z, y, p, seed=4)
        net, trajectory = reference_classifier(Z, y, p, seed=4)
        np.testing.assert_array_equal(model.net.theta, net.theta)
        np.testing.assert_array_equal(model.net.state, net.state)
        assert model.trajectory == trajectory


class TestGradients:
    def test_three_layer_relu_network(self):
        rng = np.random.default_rng(12)
        net = DenseNet([
            DenseLayer(6, 8, "relu", batch_norm=True, rng=rng),
            DenseLayer(8, 4, "relu", batch_norm=True, rng=rng),
            DenseLayer(4, 2, "linear", batch_norm=False, rng=rng),
        ])
        X = rng.standard_normal((8, 6))
        Y = rng.standard_normal((8, 2))
        res = gradient_check(net, X, Y, loss="mse", step=1e-3)
        assert res.max_rel_error < 1e-4
        assert res.n_checked > 0

    def test_single_linear_layer_is_exact(self):
        # quadratic loss in the weights: central differences are exact
        rng = np.random.default_rng(13)
        net = DenseNet([DenseLayer(5, 3, "linear", batch_norm=False, rng=rng)])
        X = rng.standard_normal((6, 5))
        Y = rng.standard_normal((6, 3))
        res = gradient_check(net, X, Y, loss="mse", step=1e-3)
        assert res.max_rel_error < 1e-8
        assert res.n_excluded == 0

    def test_rmse_loss_checks_too(self):
        rng = np.random.default_rng(14)
        net = build_classifier(4, rng)
        X = rng.standard_normal((6, 4))
        Y = rng.standard_normal((6, 1))
        res = gradient_check(net, X, Y, loss="rmse", step=1e-3)
        assert res.max_rel_error < 1e-4

    def test_relu_pinned_at_zero_is_excluded(self):
        # z = 0 everywhere puts every unit exactly on the kink; nudging a
        # weight flips activation patterns, so those entries are skipped
        net = DenseNet([DenseLayer(3, 4, "relu", batch_norm=False),
                        DenseLayer(4, 2, "linear", batch_norm=False)])
        net.layers[0].W[:] = 0.0
        rng = np.random.default_rng(15)
        X = rng.standard_normal((5, 3))
        Y = rng.standard_normal((5, 2))
        res = gradient_check(net, X, Y, loss="mse", step=1e-3)
        assert res.n_excluded > 0

    def test_restores_weights(self):
        rng = np.random.default_rng(16)
        net = DenseNet([DenseLayer(3, 4, "relu", batch_norm=True, rng=rng),
                        DenseLayer(4, 2, "linear", batch_norm=False, rng=rng)])
        net.state[:] = rng.uniform(0.5, 2.0, net.state.size)
        theta, before, state = net.theta, net.theta.copy(), net.state.copy()
        gradient_check(net, rng.standard_normal((4, 3)),
                       rng.standard_normal((4, 2)))
        assert net.theta is theta
        np.testing.assert_array_equal(net.theta, before)
        np.testing.assert_array_equal(net.state, state)
        assert np.shares_memory(net.layers[0].W, net.theta)


def _gradient_case(case):
    """(net, X, Y) of a small network whose batch-norm statistics are not the identity."""
    rng = np.random.default_rng(17)
    if case == "autoencoder":
        net, _ = build_autoencoder(16, 2, rng)
    elif case == "classifier":
        net = build_classifier(3, rng)
    elif case == "no-batch-norm":
        net = DenseNet([DenseLayer(5, 6, "relu", batch_norm=False, rng=rng),
                        DenseLayer(6, 3, "relu", batch_norm=False, rng=rng),
                        DenseLayer(3, 2, "linear", batch_norm=False, rng=rng)])
    else:  # pinned: every first-layer unit sits on the ReLU kink
        net = DenseNet([DenseLayer(3, 4, "relu", batch_norm=False),
                        DenseLayer(4, 2, "linear", batch_norm=False)])
        net.layers[0].W[:] = 0.0
    net.state[:] = rng.uniform(0.5, 2.0, net.state.size)
    n_in, n_out = net.layers[0].n_in, net.layers[-1].n_out
    return net, rng.standard_normal((5, n_in)), rng.standard_normal((5, n_out))


class TestBatchedGradientCheck:
    """gradient_check evaluates reference_gradient_check's probes in
    batches; both must give the same verdict."""

    @pytest.mark.parametrize("loss", ["mse", "rmse"])
    @pytest.mark.parametrize("case", ["autoencoder", "classifier", "no-batch-norm", "pinned"])
    @pytest.mark.parametrize("batch_floats", [None, 50], ids=["one-batch", "many-batches"])
    def test_matches_the_per_parameter_loop(self, monkeypatch, case, loss, batch_floats):
        if batch_floats is not None:  # each parameter group split across batches
            monkeypatch.setattr("helpers._BATCH_FLOATS", batch_floats)
        net, X, Y = _gradient_case(case)
        theta = net.theta.copy()
        batched = gradient_check(net, X, Y, loss=loss)
        np.testing.assert_array_equal(net.theta, theta)
        looped = reference_gradient_check(net, X, Y, loss=loss)
        assert batched.n_checked + batched.n_excluded == net.theta.size
        assert (batched.n_checked, batched.n_excluded) == (looped.n_checked, looped.n_excluded)
        assert batched.max_rel_error == pytest.approx(looped.max_rel_error, rel=1e-6, abs=0)
        if case == "pinned":
            assert looped.n_excluded > 0


class TestParams:
    def test_defaults(self):
        p = TrainParams()
        assert (p.learning_rate, p.batch_size, p.epochs) == (1e-3, 32, 1000)
        assert (p.noise_std, p.dropout_rate) == (0.05, 0.1)

    def test_validation(self):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainParams(learning_rate=0.0)
        with pytest.raises(ValueError, match="at least 1"):
            TrainParams(epochs=0)
        with pytest.raises(ValueError, match="dropout_rate"):
            TrainParams(dropout_rate=1.5)
        with pytest.raises(ValueError, match="noise_std"):
            TrainParams(noise_std=-0.1)
