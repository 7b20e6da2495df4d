"""Anchor-estimator tests against closed-form oracles: exact recovery at
anchor points, the quantified bias of capped (anchor-free) data, and the
percentile selection rule."""

import math

import numpy as np
import pytest

from volmin import config, data, estimators, model, noise, trainer


def posterior_oracle(t, xs):
    """Noisy-posterior oracle for simplex-feature data: rows are T @ p."""
    return xs @ t.T


class TestAnchorMax:
    def test_exact_recovery_with_anchor_points(self):
        rng = np.random.default_rng(51)
        for c in (2, 3, 5):
            t = noise.build_transition(noise.NoiseSpec("symmetric", c, rate=0.2))
            xs = np.vstack([np.eye(c), rng.dirichlet([1] * c, size=200)])
            est = estimators.anchor_estimate_max(posterior_oracle(t, xs))
            assert np.abs(est - t).max() < 1e-12

    def test_capped_posterior_bias(self):
        # Noisy posterior for class 0 is 0.2 + 0.6q; with q capped at 0.95
        # the top achievable entry is 0.77, not the true 0.8.
        rng = np.random.default_rng(52)
        q = np.concatenate([rng.uniform(0.05, 0.95, size=5000), [0.05, 0.95]])
        xs = np.stack([q, 1 - q], axis=1)
        t = np.array([[0.8, 0.2], [0.2, 0.8]])
        est = estimators.anchor_estimate_max(posterior_oracle(t, xs))
        np.testing.assert_allclose(est, [[0.77, 0.23], [0.23, 0.77]], atol=1e-12)
        # The error is bounded below by the analytic cap gap.
        gap = 4 * (0.8 - 0.77) / np.abs(t).sum()
        assert noise.estimation_error(t, est) >= gap - 1e-12

    def test_tie_breaks_to_lowest_index(self):
        p = np.array([[0.6, 0.4], [0.7, 0.3], [0.7, 0.3], [0.2, 0.8]])
        est = estimators.anchor_estimate_max(p)
        np.testing.assert_array_equal(est[:, 0], p[1])  # first of the two 0.7 rows

    def test_empty_instances_rejected(self):
        for p in (np.zeros((0, 2)), np.zeros(3)):  # no rows; one row, not 2-D
            with pytest.raises(ValueError, match="non-empty"):
                estimators.anchor_estimate_max(p)


class TestAnchorPercentile:
    def test_alpha_bounds(self):
        p = np.full((10, 2), 0.5)
        for alpha in (0.0, -1.0, 100.0, 150.0):
            with pytest.raises(ValueError):
                estimators.anchor_estimate_percentile(p, alpha)

    def test_small_alpha_matches_max_on_large_sample(self):
        rng = np.random.default_rng(54)
        q = rng.uniform(0.05, 0.95, size=50)
        t = np.array([[0.8, 0.2], [0.2, 0.8]])
        p = posterior_oracle(t, np.stack([q, 1 - q], axis=1))
        est_max = estimators.anchor_estimate_max(p)
        est_pct = estimators.anchor_estimate_percentile(p, 1e-6)
        assert np.array_equal(est_max, est_pct)

    def test_percentile_order_statistic(self):
        # The column-j pick is the floor(alpha/100 * n) largest posterior_j;
        # cross-checked against the ascending nearest-rank percentile.
        rng = np.random.default_rng(55)
        q = rng.uniform(0.05, 0.95, size=2001)
        t = np.array([[0.8, 0.2], [0.2, 0.8]])
        p = posterior_oracle(t, np.stack([q, 1 - q], axis=1))
        alpha = 3.0
        est = estimators.anchor_estimate_percentile(p, alpha)
        n = len(q)
        desc = np.sort(p[:, 0])[::-1]
        assert est[0, 0] == desc[math.floor(alpha / 100 * n)]
        asc = np.sort(p[:, 0])
        assert est[0, 0] == asc[math.ceil((1 - alpha / 100) * n) - 1]

    def test_uniform_posterior_gives_uniform_columns(self):
        p = np.full((40, 3), 1.0 / 3.0)
        for alpha in (1.0, 3.0, 50.0, 99.0):
            est = estimators.anchor_estimate_percentile(p, alpha)
            np.testing.assert_array_equal(est, np.full((3, 3), 1.0 / 3.0))

    def test_exact_recovery_with_anchor_repeats(self):
        # Enough exact anchors that the percentile index still lands on one.
        t = noise.build_transition(noise.NoiseSpec("symmetric", 3, rate=0.1))
        xs = np.repeat(np.eye(3), 50, axis=0)
        est = estimators.anchor_estimate_percentile(posterior_oracle(t, xs), 3.0)
        assert np.abs(est - t).max() < 1e-12


class TestTwoStage:
    @pytest.mark.parametrize("method", list(estimators.TWO_STAGE))
    def test_permutation_equivariance_exact(self, method):
        # Relabelling the noisy classes permutes T-hat's rows and columns alike.
        rng = np.random.default_rng(53)
        t = noise.build_transition(noise.NoiseSpec("pair", 4, rate=0.3))
        p = posterior_oracle(t, rng.dirichlet([0.5] * 4, size=500))
        perm = rng.permutation(4)
        p_mat = np.eye(4)[perm]
        estimate = estimators.TWO_STAGE[method]
        opts = config.parse_config("").values["estimators"]
        base = estimate(p, opts)
        permuted = estimate(p[:, perm], opts)
        assert np.array_equal(p_mat @ base @ p_mat.T, permuted)


class TestFitNoisyPosterior:
    def test_noise_free_fit_reaches_high_accuracy(self):
        # Deterministic argmax labels so the Bayes classifier is exact and
        # a well-fit model should approach accuracy 1.
        base = data.gen_simplex_feature(3, 3000, "corner-rich", seed=60)
        ds = data.Dataset(
            x=base.x,
            y_clean=base.clean_posterior.argmax(axis=1),
            classes=3,
            clean_posterior=base.clean_posterior,
        )
        train_set, val_set = data.split(ds, 0.1, seed=60)
        cfg = trainer.TrainConfig(
            epochs=30, seed=60, hidden=(16,), selection_metric="noisy-val-accuracy"
        )
        res = estimators.fit_noisy_posterior(train_set, val_set, cfg)
        best = max(r.val_metric for r in res.history.rows)
        assert best > 0.9

    def test_fits_noisy_posterior_within_tolerance(self):
        # Symmetric 0.2 noise on simplex features: the true noisy posterior
        # is T @ p, known in closed form on held-out points.
        t = noise.build_transition(noise.NoiseSpec("symmetric", 3, rate=0.2))
        ds = data.gen_simplex_feature(3, 12_000, "corner-rich", seed=61)
        ds = ds.with_noisy(noise.corrupt_labels(ds.y_clean, t, seed=61))
        train_set, rest = data.split(ds, 0.2, seed=61)
        val_set, test_set = data.split(rest, 0.5, seed=62)
        cfg = trainer.TrainConfig(epochs=40, seed=61, hidden=(32,))
        res = estimators.fit_noisy_posterior(train_set, val_set, cfg)
        g_hat = model.forward_batch(res.params, test_set.x)
        g_true = test_set.clean_posterior @ t.T
        assert np.abs(g_hat - g_true).max(axis=1).mean() < 0.05

    def test_fits_with_zero_clamp_events(self, monkeypatch):
        # Pair noise at corner-rich data: the noisy posterior has exact zeros
        # at the anchors, yet the smoothed head never gives an observed label
        # probability zero through the identity transition.
        t = noise.build_transition(noise.NoiseSpec("pair", 3, rate=0.45))
        ds = data.gen_simplex_feature(3, 1500, "corner-rich", seed=64)
        ds = ds.with_noisy(noise.corrupt_labels(ds.y_clean, t, seed=64))
        train_set, val_set = data.split(ds, 0.1, seed=64)
        clamps = []
        real = trainer.loss_and_grads

        def counting(*args, **kwargs):
            out = real(*args, **kwargs)
            clamps.append(out[0].clamp_events)
            return out

        monkeypatch.setattr(trainer, "loss_and_grads", counting)
        cfg = trainer.TrainConfig(epochs=8, seed=64, hidden=(16,))
        res = estimators.fit_noisy_posterior(train_set, val_set, cfg)
        assert res.params.head == "sparsemax-smoothed"
        assert len(clamps) == 8 * -(-train_set.n // cfg.batch_size)
        assert sum(clamps) == 0

    def test_keeps_every_class_at_ten_classes(self):
        # Symmetric 0.5 noise over ten classes: every noisy posterior entry
        # is at least 0.5 / 9, so every class belongs in every support. With
        # momentum SGD after the warm-up, the smoothed head's 1/p gradient
        # spikes spoil the fit (held-out error 0.20 here) and at n = 20000
        # push two classes out of every support for good, which makes the
        # anchor estimate singular.
        t = noise.build_transition(noise.NoiseSpec("symmetric", 10, rate=0.5))
        ds = data.gen_simplex_feature(10, 4000, "edge-scattered", cap=0.9, seed=0)
        ds = ds.with_noisy(noise.corrupt_labels(ds.y_clean, t, seed=0))
        pool, test_set = data.split(ds, 0.1, seed=0)
        train_set, val_set = data.split(pool, 0.1, seed=0)
        cfg = trainer.TrainConfig(epochs=30, seed=0)
        res = estimators.fit_noisy_posterior(train_set, val_set, cfg)
        from volmin import linalg

        g_hat = model.forward_batch(res.params, test_set.x)
        assert (g_hat.max(axis=0) > model.SMOOTHING / 10).all()
        g_true = test_set.clean_posterior @ t.T
        assert np.abs(g_hat - g_true).max(axis=1).mean() < 0.1
        t_anchor = estimators.anchor_estimate_max(
            model.forward_batch(res.params, train_set.x)
        )
        assert np.isfinite(linalg.signed_logdet(t_anchor)[1])

    def test_deterministic_per_seed(self):
        ds = data.gen_simplex_feature(2, 400, "corner-rich", seed=63)
        train_set, val_set = data.split(ds, 0.1, seed=63)
        cfg = trainer.TrainConfig(epochs=3, seed=63, hidden=(8,))
        r1 = estimators.fit_noisy_posterior(train_set, val_set, cfg)
        r2 = estimators.fit_noisy_posterior(train_set, val_set, cfg)
        assert r1.history.to_csv() == r2.history.to_csv()
        for a, b in zip(r1.params.weights, r2.params.weights):
            assert np.array_equal(a, b)
