"""Trainable transition tests: structural invariants of the realized matrix,
frozen init constants, and finite-difference checks of the manual backward."""

import math

import numpy as np
import pytest

from volmin import transition
from volmin.linalg import signed_logdet


def fd_grad(f, w, step=1e-6):
    """Central finite differences of a scalar function of the weight matrix."""
    g = np.zeros_like(w)
    for idx in np.ndindex(w.shape):
        wp = w.copy()
        wp[idx] += step
        wm = w.copy()
        wm[idx] -= step
        g[idx] = (f(wp) - f(wm)) / (2 * step)
    return g


class TestInit:
    def test_two_class_value(self):
        assert transition.default_init_weight(2) == -2.0

    def test_multi_class_value(self):
        for c in (3, 4, 7):
            assert transition.default_init_weight(c) == math.log(1.0 / (c - 2))

    def test_three_class_realizes_half_diagonal(self):
        tt = transition.init_weights(3)
        t = transition.realize(tt)
        np.testing.assert_allclose(np.diag(t), 0.5, atol=1e-12)
        off = t[~np.eye(3, dtype=bool)]
        np.testing.assert_allclose(off, 0.25, atol=1e-12)

    def test_init_targets_across_sizes(self):
        for c in (3, 5, 10, 20):
            tt = transition.init_weights(c)
            t = transition.realize(tt)
            np.testing.assert_allclose(np.diag(t), 0.5, atol=1e-12)
            off = t[~np.eye(c, dtype=bool)]
            np.testing.assert_allclose(off, 0.5 / (c - 1), atol=1e-12)

    def test_two_class_init_constants(self):
        # sigma(-2) = 0.119202922..., column sum 1.119202922...;
        # evaluating the normalization numerically gives these doubles.
        tt = transition.init_weights(2)
        t = transition.realize(tt)
        np.testing.assert_allclose(np.diag(t), 0.8934930210807992, rtol=0, atol=1e-15)
        np.testing.assert_allclose(
            t[~np.eye(2, dtype=bool)], 0.10650697891920079, rtol=0, atol=1e-15
        )

    def test_diagonal_weights_zeroed(self):
        w = transition.init_weights(4, value=1.5).weights
        np.testing.assert_array_equal(np.diag(w), 0.0)
        assert np.all(w[~np.eye(4, dtype=bool)] == 1.5)


class TestRealize:
    def test_column_stochastic_and_dominant_for_random_weights(self):
        rng = np.random.default_rng(31)
        for c in (2, 3, 5, 9):
            for _ in range(50):
                w = rng.uniform(-30, 30, size=(c, c))
                np.fill_diagonal(w, 0.0)
                t = transition.realize(transition.TrainableTransition(w))
                np.testing.assert_allclose(t.sum(axis=0), 1.0, atol=1e-12)
                for j in range(c):
                    col = t[:, j]
                    assert col[j] > max(np.delete(col, j))

    def test_permutation_equivariance_bitwise(self):
        # Relabeling classes before or after realization must agree exactly.
        rng = np.random.default_rng(32)
        for _ in range(20):
            c = int(rng.integers(2, 8))
            w = rng.uniform(-5, 5, size=(c, c))
            np.fill_diagonal(w, 0.0)
            perm = rng.permutation(c)
            t = transition.realize(transition.TrainableTransition(w))
            t_perm = transition.realize(
                transition.TrainableTransition(w[np.ix_(perm, perm)])
            )
            assert np.array_equal(t[np.ix_(perm, perm)], t_perm)


class TestVolume:
    def test_two_class_all_zero_weights(self):
        # Gates all 0.5 except unit diagonal: columns (2/3, 1/3).
        tt = transition.TrainableTransition(np.zeros((2, 2)))
        sign, logabs = signed_logdet(transition.realize(tt))
        assert sign == 1.0
        np.testing.assert_allclose(logabs, math.log(1.0 / 3.0), atol=1e-14)

    def test_sign_positive_at_init_for_many_sizes(self):
        for c in range(3, 101):
            tt = transition.init_weights(c)
            sign, _ = signed_logdet(transition.realize(tt))
            assert sign == 1.0


class TestBackward:
    def test_matches_finite_differences_linear_probe(self):
        # f(W) = sum(G * realize(W)) for a fixed probe G.
        rng = np.random.default_rng(34)
        for c in (2, 3, 5):
            w0 = rng.uniform(-2, 2, size=(c, c))
            np.fill_diagonal(w0, 0.0)
            probe = rng.standard_normal((c, c))

            def f(w):
                return float(
                    (probe * transition.realize(transition.TrainableTransition(w))).sum()
                )

            got = transition.backward(transition.TrainableTransition(w0), probe)
            want = fd_grad(f, w0)
            np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-9)

    def test_matches_finite_differences_logdet(self):
        # f(W) = log|det realize(W)|, grad through inverse transpose.
        from volmin.linalg import inverse_transpose

        rng = np.random.default_rng(35)
        for c in (2, 3, 5):
            w0 = rng.uniform(-1.5, 1.5, size=(c, c))
            np.fill_diagonal(w0, 0.0)

            def f(w):
                t = transition.realize(transition.TrainableTransition(w))
                return signed_logdet(t)[1]

            tt = transition.TrainableTransition(w0)
            grad_t = inverse_transpose(transition.realize(tt))
            got = transition.backward(tt, grad_t)
            want = fd_grad(f, w0)
            np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-9)

    def test_natural_direction_divides_by_gate_fisher(self):
        rng = np.random.default_rng(37)
        w0 = rng.uniform(-6, 6, size=(4, 4))
        np.fill_diagonal(w0, 0.0)
        tt = transition.TrainableTransition(w0)
        probe = rng.standard_normal((4, 4))
        a = 1.0 / (1.0 + np.exp(-w0))
        off = ~np.eye(4, dtype=bool)
        natural = transition.backward(tt, probe, natural=True)
        plain = transition.backward(tt, probe)
        np.testing.assert_allclose(natural[off] * a[off] * (1 - a[off]), plain[off], rtol=1e-12)
        np.testing.assert_array_equal(np.diag(natural), 0.0)

    def test_diagonal_gradient_is_zero(self):
        rng = np.random.default_rng(36)
        tt = transition.init_weights(5)
        g = transition.backward(tt, rng.standard_normal((5, 5)))
        np.testing.assert_array_equal(np.diag(g), 0.0)


class TestWeightsFor:
    def test_round_trip(self):
        rng = np.random.default_rng(38)
        for c in (2, 3, 6):
            w = rng.uniform(-4, 4, size=(c, c))
            np.fill_diagonal(w, 0.0)
            t = transition.realize(transition.TrainableTransition(w))
            back = transition.weights_for(t)
            np.testing.assert_allclose(back.weights, w, atol=1e-9)

    def test_unrealizable_entries_clipped(self):
        # A zero entry and an entry above the diagonal cannot be realized;
        # their gates land on the floor and just below 1.
        t = np.array([[0.6, 0.5, 0.3], [0.4, 0.2, 0.0], [0.0, 0.3, 0.7]])
        w = transition.weights_for(t).weights
        gates = 1.0 / (1.0 + np.exp(-w))
        floor = transition.GATE_FLOOR
        assert gates[2, 0] == pytest.approx(floor)
        assert gates[1, 2] == pytest.approx(floor)
        assert gates[0, 1] == pytest.approx(1 - floor)
        realized = transition.realize(transition.TrainableTransition(w))
        assert (np.diag(realized) > realized - np.diag(np.full(3, np.inf))).all()
