"""Classifier tests: softmax and sparsemax reference values, finite-difference
gradient checks for every depth and head, and the classifier file's text."""

import numpy as np
import pytest

from volmin import linalg, model


def sparsemax_margin(params, x):
    """Smallest distance of a logit from its row's sparsemax threshold tau."""
    _, acts = model._forward_cached(params, x)
    z = acts[-1] @ params.weights[-1].T + params.biases[-1]
    p = model._sparsemax(z)
    on = p > 0
    tau = (z * on - p).sum(axis=1) / on.sum(axis=1)  # z - p = tau on the support
    return float(np.abs(z - tau[:, None]).min())


def fd_grad_scalar(f, arr, step=1e-6):
    g = np.zeros_like(arr)
    for idx in np.ndindex(arr.shape):
        ap = arr.copy()
        ap[idx] += step
        am = arr.copy()
        am[idx] -= step
        g[idx] = (f(ap) - f(am)) / (2 * step)
    return g


class TestForward:
    def test_softmax_reference_value(self):
        # Linear model with identity weights on a 2-d input: logits (2, 0).
        params = model.ClassifierParams(weights=[np.eye(2)], biases=[np.zeros(2)])
        probs = model.forward_batch(params, np.array([[2.0, 0.0]]))
        np.testing.assert_allclose(probs, [[0.880797, 0.119203]], atol=1e-6)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(41)
        params = model.init_classifier(4, (8,), 3, seed=1)
        x = rng.standard_normal((32, 4))
        probs = model.forward_batch(params, x)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(probs > 0)

    def test_logit_shift_invariance(self):
        # Adding a constant to every output bias leaves probabilities fixed.
        rng = np.random.default_rng(42)
        params = model.init_classifier(3, (), 4, seed=2)
        shifted = params.copy()
        shifted.biases[-1] = shifted.biases[-1] + 7.5
        x = rng.standard_normal((10, 3))
        np.testing.assert_allclose(
            model.forward_batch(params, x),
            model.forward_batch(shifted, x),
            atol=1e-12,
        )

    def test_sparsemax_reference_values(self):
        # Logits (2, 0): the gap exceeds 1, so all mass goes to the first
        # class. Logits (0.5, 0, 0): full support, tau = -1/6.
        params = model.ClassifierParams(
            weights=[np.eye(3)], biases=[np.zeros(3)], head="sparsemax"
        )
        probs = model.forward_batch(params, np.array([[2.0, 0.0, 0.0], [0.5, 0.0, 0.0]]))
        np.testing.assert_allclose(probs[0], [1.0, 0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(probs[1], [2 / 3, 1 / 6, 1 / 6], atol=1e-15)

    def test_sparsemax_is_projection_onto_simplex(self):
        # A logit row already on the simplex is its own projection, so the
        # identity linear model reproduces posteriors with exact zeros.
        params = model.ClassifierParams(
            weights=[np.eye(3)], biases=[np.zeros(3)], head="sparsemax"
        )
        x = np.array([[0.7, 0.3, 0.0], [0.0, 0.0, 1.0], [0.2, 0.3, 0.5]])
        np.testing.assert_allclose(model.forward_batch(params, x), x, atol=1e-15)

    @pytest.mark.parametrize("head", ["sparsemax", "sparsemax-smoothed"])
    def test_sparse_heads_rows_on_simplex(self, head):
        rng = np.random.default_rng(46)
        params = model.init_classifier(4, (8,), 5, seed=13, head=head)
        x = 4.0 * rng.standard_normal((64, 4))
        probs = model.forward_batch(params, x)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        floor = model.SMOOTHING / 5 if head == "sparsemax-smoothed" else 0.0
        assert probs.min() >= floor - 1e-15
        assert (np.abs(probs - floor) < 1e-15).any()  # some class is off-support

    def test_unknown_head_rejected(self):
        with pytest.raises(ValueError, match="unknown head"):
            model.ClassifierParams(weights=[np.eye(2)], biases=[np.zeros(2)], head="max")

    def test_large_logits_stable(self):
        params = model.ClassifierParams(
            weights=[np.eye(2) * 500.0], biases=[np.zeros(2)]
        )
        probs = model.forward_batch(params, np.array([[2.0, -2.0]]))
        assert np.isfinite(probs).all()
        np.testing.assert_allclose(probs.sum(), 1.0, atol=1e-12)


class TestInit:
    def test_bounds_and_zero_biases(self):
        params = model.init_classifier(6, (16, 8), 4, seed=7)
        assert [w.shape for w in params.weights] == [(16, 6), (8, 16), (4, 8)]
        for w in params.weights:
            fan_out, fan_in = w.shape
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            assert np.abs(w).max() <= bound
        for b in params.biases:
            np.testing.assert_array_equal(b, 0.0)

    def test_deterministic_in_seed(self):
        a = model.init_classifier(3, (8,), 2, seed=5)
        b = model.init_classifier(3, (8,), 2, seed=5)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)
        c = model.init_classifier(3, (8,), 2, seed=6)
        assert not np.array_equal(a.weights[0], c.weights[0])

    def test_depth_limit(self):
        with pytest.raises(ValueError):
            model.init_classifier(3, (8, 8, 8), 2, seed=0)


class TestBackward:
    def test_cross_entropy_identity(self):
        # For L = -log p_y, the logit gradient is p - onehot(y); with our
        # probability-space backward this appears when grad_probs = -1/p_y e_y.
        rng = np.random.default_rng(43)
        params = model.init_classifier(3, (), 4, seed=3)
        x = rng.standard_normal((6, 3))
        probs = model.forward_batch(params, x)
        y = rng.integers(0, 4, size=6)
        grad_probs = np.zeros_like(probs)
        grad_probs[np.arange(6), y] = -1.0 / probs[np.arange(6), y]
        _, acts = model._forward_cached(params, x)
        grad_ws, grad_bs = model._backward_cached(params, acts, probs, grad_probs)
        # Oracle: dL/dlogit = probs - onehot, dL/dW = dlogit^T x, summed.
        dz = probs.copy()
        dz[np.arange(6), y] -= 1.0
        np.testing.assert_allclose(grad_ws[0], dz.T @ x, atol=1e-10)
        np.testing.assert_allclose(grad_bs[0], dz.sum(axis=0), atol=1e-10)

    @pytest.mark.parametrize("hidden", [(), (5,), (6, 4)])
    def test_matches_finite_differences(self, hidden):
        for head in model.HEADS:
            rng = np.random.default_rng(44)
            params = model.init_classifier(3, hidden, 3, seed=4, head=head)
            x = rng.standard_normal((5, 3))
            probe = rng.standard_normal((5, 3))
            if head != "softmax":
                # Larger inputs give partial supports; keep rows whose
                # support cannot change within the finite-difference step.
                pool = 3.0 * rng.standard_normal((200, 3))
                keep = [r for r in pool if sparsemax_margin(params, r[None, :]) > 1e-3]
                x = np.array(keep[:5])
                assert sparsemax_margin(params, x) > 1e-3
                assert (model.forward_batch(params, x) <= model.SMOOTHING / 3).any()

            probs, acts = model._forward_cached(params, x)
            grad_ws, grad_bs = model._backward_cached(params, acts, probs, probe)

            for l in range(len(params.weights)):
                def f_w(w, l=l, params=params, x=x, probe=probe):
                    p = params.copy()
                    p.weights[l] = w
                    return float((probe * model.forward_batch(p, x)).sum())

                want = fd_grad_scalar(f_w, params.weights[l])
                np.testing.assert_allclose(grad_ws[l], want, rtol=1e-5, atol=1e-8)

                def f_b(b, l=l, params=params, x=x, probe=probe):
                    p = params.copy()
                    p.biases[l] = b
                    return float((probe * model.forward_batch(p, x)).sum())

                want_b = fd_grad_scalar(f_b, params.biases[l])
                np.testing.assert_allclose(grad_bs[l], want_b, rtol=1e-5, atol=1e-8)


class TestClassifierFile:
    @pytest.mark.parametrize("head", model.HEADS)
    def test_exact_text(self, tmp_path, head):
        # Each layer's weight and bias as a named block, then the head's.
        params = model.init_classifier(2, (4,), 3, seed=11, head=head)
        params.biases[0][:] = [0.5, -0.0, 1e-300, 3.0]
        path = tmp_path / "clf.txt"
        model.save_classifier(path, params)
        want = []
        for l, (w, b) in enumerate(zip(params.weights, params.biases)):
            want += [f"# block: layer{l}.weight {w.shape[0]} {w.shape[1]}",
                     *linalg.format_rows(w)]
            want += [f"# block: layer{l}.bias 1 {b.size}", *linalg.format_rows(b[None, :])]
        want += [f"# block: head.{head} 1 1", "1.0"]
        assert path.read_text(encoding="utf-8") == "\n".join(want) + "\n"
