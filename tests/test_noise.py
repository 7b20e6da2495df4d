"""Noise model tests: exact example matrices, validity rejections,
Monte-Carlo corruption frequencies, and the entrywise error metric."""

import numpy as np
import pytest

from volmin import noise


class TestBuildTransition:
    def test_symmetric_example(self):
        t = noise.build_transition(noise.NoiseSpec("symmetric", 10, rate=0.2))
        assert t.shape == (10, 10)
        np.testing.assert_allclose(np.diag(t), 0.8)
        off = t[~np.eye(10, dtype=bool)]
        np.testing.assert_allclose(off, 0.2 / 9)

    def test_pair_example(self):
        t = noise.build_transition(noise.NoiseSpec("pair", 3, rate=0.45))
        want = np.array(
            [
                [0.55, 0.0, 0.45],
                [0.45, 0.55, 0.0],
                [0.0, 0.45, 0.55],
            ]
        )
        np.testing.assert_allclose(t, want, atol=1e-15)

    def test_symmetric_rate_bound(self):
        # rate must stay below (C-1)/C so the diagonal stays dominant
        with pytest.raises(ValueError):
            noise.build_transition(noise.NoiseSpec("symmetric", 2, rate=0.5))
        t = noise.build_transition(noise.NoiseSpec("symmetric", 2, rate=0.499))
        noise.validate_transition(t, classes=2)

    def test_pair_rate_bound(self):
        with pytest.raises(ValueError):
            noise.build_transition(noise.NoiseSpec("pair", 3, rate=0.5))

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            noise.build_transition(noise.NoiseSpec("symmetric", 3, rate=-0.1))

    def test_custom_from_file(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("0.9,0.2\n0.1,0.8\n")
        spec = noise.NoiseSpec("custom", 2, matrix_path=str(path))
        t = noise.build_transition(spec)
        np.testing.assert_allclose(t, [[0.9, 0.2], [0.1, 0.8]])

    def test_custom_rejects_bad_column_sum(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("0.9,0.2\n0.2,0.8\n")
        with pytest.raises(ValueError, match="column 0"):
            noise.build_transition(noise.NoiseSpec("custom", 2, matrix_path=str(path)))

    def test_custom_rejects_non_dominant(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("0.4,0.6\n0.6,0.4\n")
        with pytest.raises(ValueError, match="dominan"):
            noise.build_transition(noise.NoiseSpec("custom", 2, matrix_path=str(path)))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            noise.build_transition(noise.NoiseSpec("sym", 3, rate=0.1))


class TestValidateTransition:
    def test_accepts_identity(self):
        noise.validate_transition(np.eye(5), classes=5)

    def test_rejects_wrong_class_count(self):
        with pytest.raises(ValueError):
            noise.validate_transition(np.eye(3), classes=4)

    def test_rejects_negative_entry(self):
        t = np.array([[1.1, 0.0], [-0.1, 1.0]])
        with pytest.raises(ValueError):
            noise.validate_transition(t, classes=2)


class TestCorruptLabels:
    def test_identity_leaves_labels_unchanged(self):
        labels = np.arange(12) % 3
        out = noise.corrupt_labels(labels, np.eye(3), seed=0)
        np.testing.assert_array_equal(out, labels)

    def test_flip_matrix_flips_everything(self):
        labels = np.array([0, 1, 0, 0, 1, 1])
        t = np.array([[0.0, 1.0], [1.0, 0.0]])
        out = noise.corrupt_labels(labels, t, seed=3)
        np.testing.assert_array_equal(out, 1 - labels)

    def test_monte_carlo_frequencies(self):
        # Empirical column frequencies approach the transition columns.
        rng = np.random.default_rng(0)
        n = 100_000
        labels = rng.integers(0, 3, size=n)
        t = noise.build_transition(noise.NoiseSpec("pair", 3, rate=0.45))
        out = noise.corrupt_labels(labels, t, seed=5)
        for j in range(3):
            mask = labels == j
            freq = np.bincount(out[mask], minlength=3) / mask.sum()
            assert np.abs(freq - t[:, j]).max() < 0.01

    def test_deterministic_in_seed(self):
        labels = np.arange(1000) % 4
        t = noise.build_transition(noise.NoiseSpec("symmetric", 4, rate=0.3))
        a = noise.corrupt_labels(labels, t, seed=9)
        b = noise.corrupt_labels(labels, t, seed=9)
        np.testing.assert_array_equal(a, b)
        c = noise.corrupt_labels(labels, t, seed=10)
        assert np.any(a != c)

    @pytest.mark.parametrize("classes", [2, 3, 10])
    @pytest.mark.parametrize("kind, rate", [("symmetric", 0.4), ("pair", 0.45)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_per_class_reference(self, classes, kind, rate, seed):
        # The per-class inverse-CDF loop corrupt_labels used before it drew
        # through data.sample_labels; the flips must stay bit for bit.
        t = noise.build_transition(noise.NoiseSpec(kind, classes, rate=rate))
        labels = np.random.default_rng([seed, 9]).integers(0, classes, size=2000)
        u = np.random.default_rng([seed, noise._CORRUPT_STREAM]).random(labels.size)
        cdf = np.cumsum(t, axis=0)
        want = np.empty_like(labels)
        for j in range(classes):
            mask = labels == j
            want[mask] = np.searchsorted(cdf[:, j], u[mask], side="right")
        want = np.minimum(want, classes - 1)
        got = noise.corrupt_labels(labels, t, seed=seed)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("classes", [2, 3, 10])
    @pytest.mark.parametrize("kind, rate", [("symmetric", 0.4), ("pair", 0.45)])
    @pytest.mark.parametrize("n", [0, 1, 3000])
    def test_class_cdf_matches_per_sample_cdf(self, classes, kind, rate, n):
        # corrupt_labels sums each class's CDF once and gathers it by label;
        # the per-sample sum it replaced adds the same entries in the same
        # order, so the CDF rows and the flips keep their bits.
        t = noise.build_transition(noise.NoiseSpec(kind, classes, rate=rate))
        labels = np.random.default_rng([n, classes]).integers(0, classes, size=n)
        per_sample = np.cumsum(t.T[labels], axis=1)
        assert np.cumsum(t, axis=0).T[labels].tobytes() == per_sample.tobytes()
        u = np.random.default_rng([3, noise._CORRUPT_STREAM]).uniform(size=n)
        want = np.minimum((u[:, None] >= per_sample).sum(axis=1), classes - 1)
        got = noise.corrupt_labels(labels, t, seed=3)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)

    def test_out_of_range_label_rejected(self):
        with pytest.raises(ValueError):
            noise.corrupt_labels(np.array([0, 3]), np.eye(3), seed=0)


class TestEstimationError:
    def test_example_value(self):
        t = np.eye(2)
        t_est = np.array([[0.9, 0.1], [0.1, 0.9]])
        assert abs(noise.estimation_error(t, t_est) - 0.2) < 1e-15

    def test_zero_for_exact_estimate(self):
        t = noise.build_transition(noise.NoiseSpec("pair", 5, rate=0.3))
        assert noise.estimation_error(t, t.copy()) == 0.0

    def test_permutation_symmetry(self):
        rng = np.random.default_rng(21)
        t = noise.build_transition(noise.NoiseSpec("symmetric", 4, rate=0.25))
        t_est = t + rng.uniform(-0.01, 0.01, size=t.shape)
        perm = rng.permutation(4)
        a = noise.estimation_error(t, t_est)
        b = noise.estimation_error(t[np.ix_(perm, perm)], t_est[np.ix_(perm, perm)])
        assert abs(a - b) < 1e-15

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            noise.estimation_error(np.eye(2), np.eye(3))
