import numpy as np
import pytest

from drycss.blup import LOO_GRID, fit_blup, predict_blup, select_lambda_loo
from helpers import loo_rmse


def make_xy(n=20, p=50, seed=0, noise=0.1):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    beta = rng.standard_normal(p) / np.sqrt(p)
    y = X @ beta + noise * rng.standard_normal(n)
    return X, y


class TestRoutes:
    def test_dual_equals_primal(self):
        for seed in range(10):
            X, y = make_xy(seed=seed)
            a = fit_blup(X, y, lam=25.0, route="primal")
            b = fit_blup(X, y, lam=25.0, route="dual")
            scale = np.abs(a.effects).max()
            assert np.abs(a.effects - b.effects).max() <= 1e-10 * scale

    def test_auto_picks_dual_only_when_wide(self):
        Xw, yw = make_xy(n=10, p=30, seed=1)
        Xt, yt = make_xy(n=30, p=10, seed=1)
        # both routes agree, so check auto against each forced route exactly
        np.testing.assert_allclose(
            fit_blup(Xw, yw, lam=5.0).effects,
            fit_blup(Xw, yw, lam=5.0, route="dual").effects)
        np.testing.assert_allclose(
            fit_blup(Xt, yt, lam=5.0).effects,
            fit_blup(Xt, yt, lam=5.0, route="primal").effects)

    def test_primal_solves_normal_equations(self):
        X, y = make_xy(n=40, p=8, seed=2)
        lam = 3.0
        m = fit_blup(X, y, lam=lam, route="primal")
        lhs = (X.T @ X + lam * np.eye(8)) @ m.effects
        rhs = X.T @ (y - y.mean())
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10)


class TestShrinkage:
    def test_default_lambda_is_feature_count(self):
        X, y = make_xy(n=12, p=7)
        assert fit_blup(X, y).lam == 7.0

    def test_loo_lambda_is_the_selected_one(self):
        X, y = make_xy(n=30, p=10, seed=8, noise=0.5)
        best, _ = select_lambda_loo(X, y)
        m = fit_blup(X, y, lam="loo")
        assert m.lam == best
        np.testing.assert_array_equal(m.effects, fit_blup(X, y, lam=best).effects)

    def test_effect_norm_decreases_with_lambda(self):
        X, y = make_xy(n=15, p=40, seed=3)
        norms = [float(np.linalg.norm(fit_blup(X, y, lam=lam).effects))
                 for lam in (0.1, 1.0, 10.0, 100.0, 1000.0)]
        assert all(a > b for a, b in zip(norms, norms[1:]))

    def test_huge_lambda_predicts_the_mean(self):
        X, y = make_xy(n=25, p=10, seed=4)
        m = fit_blup(X, y, lam=1e12)
        np.testing.assert_allclose(predict_blup(m, X), y.mean(), atol=1e-6)

    def test_intercept_is_label_mean(self):
        X, y = make_xy()
        assert fit_blup(X, y).intercept == pytest.approx(y.mean())


class TestPredict:
    def test_single_row_and_matrix(self):
        X, y = make_xy(n=10, p=4, seed=5)
        m = fit_blup(X, y, lam=2.0)
        preds = predict_blup(m, X)
        assert preds.shape == (10,)
        assert predict_blup(m, X[3])[0] == pytest.approx(preds[3])

    def test_feature_count_checked(self):
        X, y = make_xy(n=10, p=4)
        m = fit_blup(X, y)
        with pytest.raises(ValueError, match="features"):
            predict_blup(m, np.zeros((2, 5)))


class TestLoo:
    def test_matches_literal_refits(self):
        # held-out prediction with the intercept pinned at the full mean,
        # recomputed by refitting without each sample in turn
        X, y = make_xy(n=12, p=5, seed=6, noise=0.3)
        lam = 4.0
        ybar = y.mean()
        sq = []
        for i in range(len(y)):
            keep = np.arange(len(y)) != i
            A = X[keep].T @ X[keep] + lam * np.eye(5)
            beta = np.linalg.solve(A, X[keep].T @ (y[keep] - ybar))
            sq.append((y[i] - (ybar + X[i] @ beta)) ** 2)
        expect = float(np.sqrt(np.mean(sq)))
        assert loo_rmse(X, y, lam) == pytest.approx(expect, rel=1e-9)

    def test_matches_refits_wide(self):
        X, y = make_xy(n=8, p=30, seed=7, noise=0.2)
        lam = 12.0
        ybar = y.mean()
        sq = []
        for i in range(len(y)):
            keep = np.arange(len(y)) != i
            Xi = X[keep]
            K = Xi @ Xi.T + lam * np.eye(len(y) - 1)
            beta = Xi.T @ np.linalg.solve(K, y[keep] - ybar)
            sq.append((y[i] - (ybar + X[i] @ beta)) ** 2)
        expect = float(np.sqrt(np.mean(sq)))
        assert loo_rmse(X, y, lam) == pytest.approx(expect, rel=1e-9)

    def test_small_lambda_matches_refits(self):
        # at lam = 1e-6 the hat-matrix form's 1 - H_ii cancels to a few
        # digits; the (A y)_i / A_ii form does not
        X, y = make_xy(n=40, p=300, seed=1, noise=0.2)
        lam = 1e-6
        ybar = y.mean()
        sq = []
        for i in range(len(y)):
            keep = np.arange(len(y)) != i
            Xi = X[keep]
            K = Xi @ Xi.T + lam * np.eye(len(y) - 1)
            beta = Xi.T @ np.linalg.solve(K, y[keep] - ybar)
            sq.append((y[i] - (ybar + X[i] @ beta)) ** 2)
        expect = float(np.sqrt(np.mean(sq)))
        assert loo_rmse(X, y, lam) == pytest.approx(expect, rel=1e-9)

    def test_selection_scans_multiples_of_p(self):
        X, y = make_xy(n=30, p=10, seed=8, noise=0.5)
        best, table = select_lambda_loo(X, y)
        assert set(table) == {m * 10 for m in LOO_GRID}
        assert table[best] == min(table.values())
        for lam, r in table.items():
            assert r == pytest.approx(loo_rmse(X, y, lam))

    def test_tie_prefers_smaller_lambda(self, monkeypatch):
        import drycss.blup as blup
        monkeypatch.setattr(blup, "_loo_rmse", lambda K, yc, lam: 1.0)
        best, table = select_lambda_loo(np.ones((4, 2)), np.arange(4.0))
        assert best == min(table)


class TestValidation:
    def test_rejects_bad_shapes_and_values(self):
        with pytest.raises(ValueError, match="2-D"):
            fit_blup(np.zeros(5), np.zeros(5))
        with pytest.raises(ValueError, match="y shape"):
            fit_blup(np.zeros((5, 2)), np.zeros(4))
        with pytest.raises(ValueError, match="at least 2"):
            fit_blup(np.zeros((1, 2)), np.zeros(1))
        X = np.ones((4, 2))
        X[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            fit_blup(X, np.zeros(4))
        for lam in (0.0, np.nan, np.inf, "sideways", None):
            with pytest.raises(ValueError, match="positive"):
                fit_blup(np.ones((4, 2)), np.arange(4.0), lam=lam)
        with pytest.raises(ValueError, match="route"):
            fit_blup(np.ones((4, 2)), np.arange(4.0), route="sideways")
