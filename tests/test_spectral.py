import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drycss.spectral import (bin_energies, dft_basis, dft_coefficients, feature_dim,
                             fit_normalization, n_bins, project, select_frequencies,
                             selected_coefficients, truncated_coefficients)
from helpers import amplitudes, brute_force_best_bins, naive_dft, reconstruct_subset


class TestDft:
    def test_matches_naive_definition(self):
        rng = np.random.default_rng(0)
        for T in (2, 3, 7, 8, 16, 33):
            x = rng.standard_normal(T)
            np.testing.assert_allclose(dft_coefficients(x), naive_dft(x),
                                       rtol=0, atol=1e-12)

    def test_dc_bin_is_mean(self):
        x = np.random.default_rng(1).standard_normal(24)
        assert dft_coefficients(x)[0] == pytest.approx(x.mean(), rel=1e-12)

    def test_bin_count(self):
        assert dft_coefficients(np.zeros(8)).shape == (5,)
        assert dft_coefficients(np.zeros(9)).shape == (5,)
        assert n_bins(8) == 5 and n_bins(9) == 5

    def test_parseval(self):
        rng = np.random.default_rng(2)
        for T in (6, 7, 32):
            x = rng.standard_normal(T)
            c = dft_coefficients(x)
            lhs = T * bin_energies(c, T).sum()
            np.testing.assert_allclose(lhs, np.sum(x ** 2), rtol=1e-12)

    def test_batched_last_axis(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 3, 10))
        c = dft_coefficients(x)
        assert c.shape == (4, 3, 6)
        np.testing.assert_allclose(c[2, 1], dft_coefficients(x[2, 1]))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="at least 2"):
            dft_coefficients(np.ones(1))
        with pytest.raises(ValueError, match="non-finite"):
            dft_coefficients(np.array([1.0, np.nan, 2.0]))

    def test_reconstruct_inverts(self):
        """The oracle's inverse transform, over every bin, gives the series
        back: dft_coefficients and the selection oracle share a scaling."""
        rng = np.random.default_rng(4)
        for T in (6, 9):
            x = rng.standard_normal(T)
            back = reconstruct_subset(dft_coefficients(x), T, range(T // 2 + 1))
            np.testing.assert_allclose(back, x, atol=1e-12)

    def test_reconstruct_subset_keeps_only_listed_bins(self):
        T = 12
        t = np.arange(T)
        x = 3.0 + 2.0 * np.cos(2 * np.pi * 2 * t / T)
        c = dft_coefficients(x)
        np.testing.assert_allclose(reconstruct_subset(c, T, [0]), 3.0, atol=1e-12)
        np.testing.assert_allclose(reconstruct_subset(c, T, [0, 2]), x, atol=1e-12)


class TestLowBins:
    """dft_coefficients(x, n_bins=k): bins 0..k-1 from a direct basis."""

    @pytest.mark.parametrize("T", [7, 8, 33, 64])
    def test_matches_naive_and_fft_prefix(self, T):
        x = np.random.default_rng(T).standard_normal((3, T))
        for k in (1, n_bins(T)):
            low = dft_coefficients(x, n_bins=k)
            assert low.shape == (3, k)
            for row, series in zip(low, x):
                np.testing.assert_allclose(row, naive_dft(series)[:k], rtol=1e-12)
            np.testing.assert_allclose(low, dft_coefficients(x)[:, :k], rtol=1e-12)

    def test_transposed_time_major_block(self):
        block = np.random.default_rng(5).standard_normal((250, 6)).astype(np.float32)
        np.testing.assert_allclose(dft_coefficients(block.T, n_bins=9),
                                   dft_coefficients(block.T)[:, :9], rtol=1e-12)

    @pytest.mark.parametrize("T", [63, 64])
    def test_basis_of_any_sorted_bins(self, T):
        """A basis of scattered bins gives those bins of the rfft; the
        imaginary parts of bin 0 and the Nyquist bin are exactly 0."""
        bins = (0, 3, 17, T // 2)
        x = 100.0 + np.random.default_rng(T).standard_normal((4, T))
        parts = x @ dft_basis(T, bins) / T
        np.testing.assert_allclose(parts[:, :4] + 1j * parts[:, 4:],
                                   np.fft.rfft(x)[:, bins] / T, rtol=1e-12, atol=1e-12)
        assert (parts[:, 4] == 0).all()
        assert (parts[:, 7] == 0).all() == (T % 2 == 0)

    def test_bin_zero_is_mean(self):
        x = np.random.default_rng(6).standard_normal(101)
        assert dft_coefficients(x, n_bins=1)[0] == pytest.approx(x.mean(), rel=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="non-finite"):
            dft_coefficients(np.array([1.0, np.nan, 2.0, 3.0]), n_bins=2)
        with pytest.raises(ValueError, match="n_bins"):
            dft_coefficients(np.ones(8), n_bins=6)
        with pytest.raises(ValueError, match="n_bins"):
            dft_coefficients(np.ones(8), n_bins=0)


class TestAmplitudes:
    def test_recovers_planted_sinusoid(self):
        T = 48
        t = np.arange(T)
        x = 1.5 + 0.7 * np.sin(2 * np.pi * 5 * t / T)
        a = amplitudes(dft_coefficients(x), T)
        assert a[0] == pytest.approx(1.5, abs=1e-12)
        assert a[5] == pytest.approx(0.7, abs=1e-12)
        mask = np.ones(len(a), bool)
        mask[[0, 5]] = False
        assert np.abs(a[mask]).max() < 1e-12

    def test_nyquist_multiplicity(self):
        # even T: the Nyquist bin is its own conjugate, counted once
        T = 8
        x = np.array([1.0, -1.0] * 4)
        c = dft_coefficients(x)
        assert amplitudes(c, T)[-1] == pytest.approx(1.0)
        e = bin_energies(c, T)
        np.testing.assert_allclose(T * e.sum(), np.sum(x ** 2), rtol=1e-12)

    def test_odd_length_has_no_nyquist(self):
        e = bin_energies(dft_coefficients(np.random.default_rng(0)
                                          .standard_normal(9)), 9)
        # all interior bins doubled: energy identity still holds
        assert e.shape == (5,)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="bins"):
            amplitudes(np.zeros(5, complex), 12)


class TestSelection:
    def test_matches_brute_force_reconstruction(self):
        rng = np.random.default_rng(7)
        for T in (8, 11):
            for k in (1, 2, 3):
                x = rng.standard_normal(T)
                energies = bin_energies(dft_coefficients(x), T)
                sel = select_frequencies(energies[None, None, :], ("v",), k, T)
                best, _ = brute_force_best_bins(x, k)
                assert frozenset(sel.bins[0].tolist()) == best

    def test_ties_prefer_lower_bin(self):
        # flat spectrum: interior bins all tie, DC and Nyquist are zero
        T = 8
        coeffs = np.full((1, 1, n_bins(T)), 0.5 + 0.0j)
        coeffs[..., 0] = 0.0
        coeffs[..., -1] = 0.0
        sel = select_frequencies(bin_energies(coeffs, T), ("v",), 3, T)
        assert sel.bins[0].tolist() == [1, 2, 3]

    def test_nested_prefixes(self):
        rng = np.random.default_rng(8)
        coeffs = rng.standard_normal((5, 2, 17)) + 1j * rng.standard_normal((5, 2, 17))
        energies = bin_energies(coeffs, 32)
        full = select_frequencies(energies, ("a", "b"), 17, 32)
        for k in (1, 4, 9):
            sub = select_frequencies(energies, ("a", "b"), k, 32)
            np.testing.assert_array_equal(sub.bins, full.bins[:, :k])

    def test_ranks_by_mean_energy_across_samples(self):
        T = 16
        nb = n_bins(T)
        coeffs = np.zeros((2, 1, nb), dtype=complex)
        coeffs[0, 0, 3] = 1.0   # strong in sample 0 only
        coeffs[:, 0, 5] = 0.8   # moderate in both
        sel = select_frequencies(bin_energies(coeffs, T), ("v",), 2, T)
        # mean energies: bin 3 -> 2*1.0/2 = 1.0, bin 5 -> 2*0.64 = 1.28
        assert sel.bins[0].tolist() == [5, 3]

    def test_validation(self):
        energies = np.zeros((3, 2, 9))
        with pytest.raises(ValueError, match="k="):
            select_frequencies(energies, ("a", "b"), 0, 16)
        with pytest.raises(ValueError, match="variable names"):
            select_frequencies(energies, ("a",), 2, 16)
        with pytest.raises(ValueError, match="expected"):
            select_frequencies(energies, ("a", "b"), 2, 20)
        with pytest.raises(ValueError, match="no samples"):
            select_frequencies(np.zeros((0, 2, 9)), ("a", "b"), 2, 16)


class TestFeatures:
    def make(self, n_samples=20, n_vars=3, T=32, k=4, seed=0):
        rng = np.random.default_rng(seed)
        series = rng.standard_normal((n_samples, n_vars, T))
        coeffs = dft_coefficients(series)
        names = tuple(f"v{i}" for i in range(n_vars))
        sel = select_frequencies(bin_energies(coeffs, T), names, k, T)
        norm = fit_normalization(selected_coefficients(coeffs, sel))
        return series, coeffs, sel, norm

    def test_training_features_are_standardized(self):
        _, coeffs, sel, norm = self.make()
        feats = project(coeffs, sel, norm)
        assert feats.shape == (20, feature_dim(sel))
        np.testing.assert_allclose(feats.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(feats.std(axis=0), 1.0, atol=1e-10)

    def test_layout_variable_major_re_im(self):
        _, coeffs, sel, norm = self.make(n_samples=5, n_vars=2, k=3)
        feats = project(coeffs, sel, norm)
        s, v, b = 2, 1, 1
        j = sel.bins[v, b]
        re = (coeffs[s, v, j].real - norm.mean_re[v, b]) / norm.std_re[v, b]
        im = (coeffs[s, v, j].imag - norm.mean_im[v, b]) / norm.std_im[v, b]
        base = (v * sel.k + b) * 2
        assert feats[s, base] == pytest.approx(re)
        assert feats[s, base + 1] == pytest.approx(im)

    def test_constant_feature_maps_to_zero(self):
        T = 16
        coeffs = np.zeros((6, 1, n_bins(T)), dtype=complex)
        coeffs[:, 0, 0] = 2.5  # identical DC across samples
        coeffs[:, 0, 3] = np.linspace(0.1, 0.9, 6)
        sel = select_frequencies(bin_energies(coeffs, T), ("v",), 2, T)
        norm = fit_normalization(selected_coefficients(coeffs, sel))
        feats = project(coeffs, sel, norm)
        dc_col = sel.bins[0].tolist().index(0) * 2
        np.testing.assert_allclose(feats[:, dc_col], 0.0, atol=1e-9)
        np.testing.assert_allclose(feats[:, dc_col + 1], 0.0, atol=1e-9)

    def test_leading_dims_preserved(self):
        _, coeffs, sel, norm = self.make()
        grid = np.broadcast_to(coeffs[0], (4, 5) + coeffs.shape[1:]).copy()
        out = project(grid, sel, norm)
        assert out.shape == (4, 5, feature_dim(sel))
        np.testing.assert_allclose(out[2, 3], project(coeffs, sel, norm)[0])

    def test_shape_validation(self):
        _, coeffs, sel, norm = self.make()
        with pytest.raises(ValueError, match="variables"):
            project(coeffs[:, :2, :], sel, norm)
        with pytest.raises(ValueError, match="bins"):
            project(coeffs[..., :-1], sel, norm)


class TestTruncated:
    def test_lowest_mode_keeps_low_bins_raw(self):
        rng = np.random.default_rng(1)
        coeffs = rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))
        out = truncated_coefficients(coeffs, n_channels=3)
        assert out.shape == (2 * 3 * 2,)
        view = out.reshape(2, 3, 2)
        np.testing.assert_allclose(view[..., 0], coeffs[:, :3].real)
        np.testing.assert_allclose(view[..., 1], coeffs[:, :3].imag)

    def test_mode_errors(self):
        coeffs = np.zeros((2, 5), dtype=complex)
        with pytest.raises(ValueError, match="n_channels"):
            truncated_coefficients(coeffs, n_channels=9)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 40), st.integers(0, 2 ** 31 - 1))
def test_parseval_property(n_steps, seed):
    x = np.random.default_rng(seed).standard_normal(n_steps)
    c = dft_coefficients(x)
    np.testing.assert_allclose(n_steps * bin_energies(c, n_steps).sum(),
                               np.sum(x ** 2), rtol=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 24), st.integers(0, 2 ** 31 - 1))
def test_reconstruction_property(n_steps, seed):
    x = np.random.default_rng(seed).standard_normal(n_steps)
    np.testing.assert_allclose(reconstruct_subset(dft_coefficients(x), n_steps,
                                                  range(n_steps // 2 + 1)), x,
                               atol=1e-10)
