"""Training-loop tests: hand-computed loss values, optimizer step identities,
finite-difference checks through the composed objective, determinism, the
raise on a numerical failure, and checkpoint selection."""

import math
from dataclasses import replace

import numpy as np
import pytest

from volmin import data, linalg, model, noise, trainer, transition


def uniform_classifier(classes, in_dim):
    """Zero weights: softmax outputs are exactly uniform."""
    return model.ClassifierParams(
        weights=[np.zeros((classes, in_dim))], biases=[np.zeros(classes)]
    )


def sparsemax_margin(params, x):
    """Smallest distance of a logit from its row's sparsemax threshold tau."""
    _, acts = model._forward_cached(params, x)
    z = acts[-1] @ params.weights[-1].T + params.biases[-1]
    p = model._sparsemax(z)
    on = p > 0
    tau = (z * on - p).sum(axis=1) / on.sum(axis=1)  # z - p = tau on the support
    return float(np.abs(z - tau[:, None]).min())


def toy_dataset(n=200, classes=3, seed=0, noisy=False):
    ds = data.gen_simplex_feature(classes, n, "corner-rich", seed=seed)
    if noisy:
        t = noise.build_transition(noise.NoiseSpec("symmetric", classes, rate=0.2))
        ds = ds.with_noisy(noise.corrupt_labels(ds.y_clean, t, seed=seed))
    return ds


class TestLossValues:
    def test_uniform_hand_check(self):
        # Uniform classifier through the zero-weight transition: composed
        # probabilities are exactly 1/2, so fidelity is ln 2; the volume
        # term adds lam * ln(det [[2/3,1/3],[1/3,2/3]]) = lam * ln(1/3).
        params = uniform_classifier(2, 2)
        tt = transition.TrainableTransition(np.zeros((2, 2)))
        x = np.array([[0.2, 0.8], [0.9, 0.1], [0.5, 0.5]])
        y = np.array([0, 1, 0])
        stats, _, _ = trainer.loss_and_grads(params, tt, x, y, lam=0.0)
        np.testing.assert_allclose(stats.fidelity, math.log(2.0), atol=1e-12)
        np.testing.assert_allclose(stats.loss, math.log(2.0), atol=1e-12)
        np.testing.assert_allclose(stats.logabsdet, math.log(1.0 / 3.0), atol=1e-12)
        assert stats.logdet_sign == 1.0

        stats2, _, _ = trainer.loss_and_grads(params, tt, x, y, lam=1e-4)
        np.testing.assert_allclose(
            stats2.loss, math.log(2.0) + 1e-4 * math.log(1.0 / 3.0), atol=1e-12
        )

    def test_zero_lam_is_forward_corrected_cross_entropy(self):
        rng = np.random.default_rng(70)
        params = model.init_classifier(3, (6,), 3, seed=70)
        t = noise.build_transition(noise.NoiseSpec("symmetric", 3, rate=0.3))
        x = rng.dirichlet([1, 1, 1], size=12)
        y = rng.integers(0, 3, size=12)
        stats, _, _ = trainer.loss_and_grads(params, t, x, y, lam=0.0)
        q = model.forward_batch(params, x) @ t.T
        want = -np.log(q[np.arange(12), y]).mean()
        np.testing.assert_allclose(stats.loss, want, atol=1e-12)
        assert stats.loss == stats.fidelity

    def test_precomputed_fixed_logdet_changes_nothing(self):
        rng = np.random.default_rng(71)
        params = model.init_classifier(3, (6,), 3, seed=71)
        t = noise.build_transition(noise.NoiseSpec("pair", 3, rate=0.3))
        x = rng.dirichlet([1, 1, 1], size=12)
        y = rng.integers(0, 3, size=12)
        for lam in (0.0, 1e-2):
            plain = trainer.loss_and_grads(params, t, x, y, lam)
            given = trainer.loss_and_grads(
                params, t, x, y, lam, fixed_logdet=linalg.signed_logdet(t)
            )
            assert plain[0] == given[0]
            for a, b in zip(plain[2][0] + plain[2][1], given[2][0] + given[2][1]):
                assert np.array_equal(a, b)

    def test_soft_targets_expected_cross_entropy(self):
        params = uniform_classifier(2, 2)
        x = np.array([[0.3, 0.7]])
        soft = np.array([[0.3, 0.7]])
        stats, _, _ = trainer.loss_and_grads(
            params, np.eye(2), x, None, lam=0.0, soft_targets=soft
        )
        np.testing.assert_allclose(stats.fidelity, math.log(2.0), atol=1e-12)

    def test_probability_clamp_counts_events(self):
        params = model.ClassifierParams(
            weights=[np.array([[1000.0, 0.0], [0.0, 1000.0]])],
            biases=[np.zeros(2)],
        )
        x = np.array([[1.0, -1.0]])
        y = np.array([1])  # composed probability underflows to exactly 0
        stats, _, _ = trainer.loss_and_grads(params, np.eye(2), x, y, lam=0.0)
        assert stats.clamp_events == 1
        assert math.isfinite(stats.loss)
        np.testing.assert_allclose(stats.loss, -math.log(trainer.PROB_CLAMP))

    def test_singular_transition_raises_with_volume_term(self):
        params = uniform_classifier(2, 2)
        tt = transition.init_weights(2, value=800.0)
        x = np.array([[0.5, 0.5]])
        y = np.array([0])
        with pytest.raises(linalg.SingularMatrixError):
            trainer.loss_and_grads(params, tt, x, y, lam=1e-4)
        # Without the volume term the same matrix is usable.
        stats, _, _ = trainer.loss_and_grads(params, tt, x, y, lam=0.0)
        assert math.isfinite(stats.loss)


class TestLossGradients:
    @pytest.mark.parametrize("hidden", [(), (5,)])
    @pytest.mark.parametrize("classes", [2, 3])
    def test_full_objective_finite_differences(self, hidden, classes):
        for head in ("softmax", "sparsemax"):
            self._check_full_objective(hidden, classes, head)

    def _check_full_objective(self, hidden, classes, head):
        rng = np.random.default_rng(71)
        d = classes
        params = model.init_classifier(d, hidden, classes, seed=71, head=head)
        w0 = transition.init_weights(classes).weights
        w0 += rng.uniform(-0.3, 0.3, size=w0.shape)
        np.fill_diagonal(w0, 0.0)
        x = rng.dirichlet([1] * classes, size=6)
        if head == "sparsemax":
            # Scaled inputs and output weights give partial supports; keep
            # rows whose support cannot change within the finite-difference
            # step.
            params.weights[-1] = 8.0 * params.weights[-1]
            pool = 8.0 * rng.dirichlet([1] * classes, size=300) - 4.0
            x = np.array([r for r in pool if sparsemax_margin(params, r[None]) > 1e-3][:6])
            assert sparsemax_margin(params, x) > 1e-3
            assert (model.forward_batch(params, x) == 0.0).any()
        y = rng.integers(0, classes, size=6)
        lam = 1e-4
        step = 1e-6

        def loss_at(params_, w_):
            tt = transition.TrainableTransition(w_.copy())
            stats, _, _ = trainer.loss_and_grads(params_, tt, x, y, lam)
            return stats.loss

        tt = transition.TrainableTransition(w0.copy())
        _, grad_w, (grad_ws, grad_bs) = trainer.loss_and_grads(params, tt, x, y, lam)

        for i, j in np.ndindex(w0.shape):
            if i == j:
                continue
            wp, wm = w0.copy(), w0.copy()
            wp[i, j] += step
            wm[i, j] -= step
            fd = (loss_at(params, wp) - loss_at(params, wm)) / (2 * step)
            denom = max(abs(fd), abs(grad_w[i, j]), 1e-8)
            assert abs(fd - grad_w[i, j]) / denom < 1e-4

        for l in range(len(params.weights)):
            w = params.weights[l]
            for idx in [(0, 0), (w.shape[0] - 1, w.shape[1] - 1)]:
                pp, pm = params.copy(), params.copy()
                pp.weights[l] = pp.weights[l].copy()
                pm.weights[l] = pm.weights[l].copy()
                pp.weights[l][idx] += step
                pm.weights[l][idx] -= step
                fd = (loss_at(pp, w0) - loss_at(pm, w0)) / (2 * step)
                denom = max(abs(fd), abs(grad_ws[l][idx]), 1e-8)
                assert abs(fd - grad_ws[l][idx]) / denom < 1e-4

    def test_soft_target_gradients_finite_differences(self):
        rng = np.random.default_rng(72)
        params = model.init_classifier(2, (4,), 2, seed=72)
        x = rng.dirichlet([1, 1], size=5)
        soft = rng.dirichlet([2, 2], size=5)
        t = np.array([[0.8, 0.2], [0.2, 0.8]])
        step = 1e-6

        def loss_at(params_):
            stats, _, _ = trainer.loss_and_grads(
                params_, t, x, None, 0.0, soft_targets=soft
            )
            return stats.loss

        _, _, (grad_ws, _) = trainer.loss_and_grads(
            params, t, x, None, 0.0, soft_targets=soft
        )
        w = params.weights[0]
        for idx in [(0, 0), (3, 1)]:
            pp, pm = params.copy(), params.copy()
            pp.weights[0] = pp.weights[0].copy()
            pm.weights[0] = pm.weights[0].copy()
            pp.weights[0][idx] += step
            pm.weights[0][idx] -= step
            fd = (loss_at(pp) - loss_at(pm)) / (2 * step)
            denom = max(abs(fd), abs(grad_ws[0][idx]), 1e-8)
            assert abs(fd - grad_ws[0][idx]) / denom < 1e-4


class TestFusedStep:
    """loss_and_grads realizes the transition once and backpropagates through
    the same gates; its gradient is the public realize + backward one."""

    @pytest.mark.parametrize("natural", [False, True])
    @pytest.mark.parametrize("classes", [2, 3, 10])
    def test_transition_gradient_matches_public_composition(self, classes, natural):
        rng = np.random.default_rng([73, classes])
        params = model.init_classifier(classes, (6,), classes, seed=73, head="sparsemax")
        w = rng.uniform(-3.0, 1.0, size=(classes, classes))
        np.fill_diagonal(w, 0.0)
        tt = transition.TrainableTransition(w)
        x = rng.dirichlet([1.0] * classes, size=40)
        y = rng.integers(0, classes, size=40)
        lam = 1e-2
        _, grad_w, _ = trainer.loss_and_grads(params, tt, x, y, lam, natural=natural)

        # The same objective, spelled out with the public functions.
        t_hat = transition.realize(tt)
        probs = model.forward_batch(params, x)
        n = x.shape[0]
        qy = np.maximum((probs @ t_hat.T)[np.arange(n), y], trainer.PROB_CLAMP)
        grad_q = np.zeros((n, classes))
        grad_q[np.arange(n), y] = -1.0 / (n * qy)
        grad_t = grad_q.T @ probs + lam * linalg.inverse_transpose(t_hat)
        want = transition.backward(tt, grad_t, natural=natural)
        assert grad_w.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights_rejected_on_direct_call(self, bad):
        params = model.init_classifier(3, (), 3, seed=74)
        tt = transition.init_weights(3)
        tt.weights[0, 1] = bad
        x = np.full((4, 3), 1.0 / 3.0)
        with pytest.raises(ValueError, match="transition weights contains non-finite"):
            trainer.loss_and_grads(params, tt, x, np.zeros(4, dtype=int), 1e-4)


class TestOptimizers:
    def test_sgd_plain_step(self):
        w = np.array([1.0])
        state = trainer.OptimizerState(trainer.sgd(0.1), w)
        state.step(w, np.array([2.0]))
        np.testing.assert_allclose(w, [0.8], atol=1e-15)

    def test_sgd_momentum_accumulates(self):
        # Two unit gradients at momentum 0.9: displacements 1 then 1.9.
        w = np.array([0.0])
        state = trainer.OptimizerState(trainer.sgd(1.0, momentum=0.9), w)
        state.step(w, np.array([1.0]))
        np.testing.assert_allclose(w, [-1.0], atol=1e-15)
        state.step(w, np.array([1.0]))
        np.testing.assert_allclose(w, [-2.9], atol=1e-15)

    def test_sgd_weight_decay(self):
        w = np.array([2.0])
        state = trainer.OptimizerState(trainer.sgd(0.1, weight_decay=0.5), w)
        state.step(w, np.array([0.0]))
        np.testing.assert_allclose(w, [1.9], atol=1e-15)

    def test_adam_first_step_magnitude_is_lr(self):
        for g in (3.0, -0.02, 17.0):
            w = np.array([0.0])
            state = trainer.OptimizerState(trainer.adam(1e-3), w)
            state.step(w, np.array([g]))
            np.testing.assert_allclose(abs(w[0]), 1e-3, rtol=1e-5)
            assert math.copysign(1, w[0]) == -math.copysign(1, g)

    def test_adam_matches_reference_unroll(self):
        # Independent scalar unroll of the bias-corrected update rule.
        rng = np.random.default_rng(73)
        grads = rng.standard_normal(10)
        w = np.array([0.5])
        state = trainer.OptimizerState(trainer.adam(0.01), w)
        m = v = 0.0
        ref = 0.5
        for t, g in enumerate(grads, start=1):
            state.step(w, np.array([g]))
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            mhat = m / (1 - 0.9**t)
            vhat = v / (1 - 0.999**t)
            ref -= 0.01 * mhat / (math.sqrt(vhat) + 1e-8)
            np.testing.assert_allclose(w[0], ref, atol=1e-14)

    def test_lr_schedule_scaling(self):
        schedule = ((2, 10.0), (4, 10.0))
        assert trainer.lr_scale_at(schedule, 1) == 1.0
        assert trainer.lr_scale_at(schedule, 2) == 1.0
        assert trainer.lr_scale_at(schedule, 3) == 0.1
        assert trainer.lr_scale_at(schedule, 4) == 0.1
        assert abs(trainer.lr_scale_at(schedule, 5) - 0.01) < 1e-15

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            trainer.OptimizerState(trainer.OptimizerSpec("rmsprop", 0.1), np.zeros(1))


class TestTrainLoop:
    def test_bitwise_deterministic_history(self):
        ds = toy_dataset(300, classes=3, seed=74, noisy=True)
        train_set, val_set = data.split(ds, 0.1, seed=74)
        cfg = trainer.TrainConfig(epochs=4, seed=74, hidden=(8,), batch_size=32)
        r1 = trainer.train(train_set, val_set, cfg)
        r2 = trainer.train(train_set, val_set, cfg)
        assert r1.history.to_csv() == r2.history.to_csv()
        assert np.array_equal(r1.transition, r2.transition)
        for a, b in zip(r1.params.weights, r2.params.weights):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("val_rows", [40, 0], ids=["selected", "no-validation"])
    def test_result_holds_the_matrix_its_epoch_scored(self, val_rows):
        # The returned matrix is the realization of the returned weights,
        # whose estimation error the history recorded at that epoch; with no
        # validation set nothing is selected and the last epoch stands.
        ds = toy_dataset(200, classes=3, seed=75, noisy=True)
        train_set, val_set = ds.subset(np.arange(40, 200)), ds.subset(np.arange(val_rows))
        t_true = noise.build_transition(noise.NoiseSpec("symmetric", 3, rate=0.2))
        cfg = trainer.TrainConfig(epochs=trainer.WARMUP_EPOCHS + 3, seed=75, hidden=(8,))
        res = trainer.train(train_set, val_set, cfg, true_transition=t_true)
        if not val_rows:
            assert res.best_epoch == cfg.epochs
        realized = transition.realize(transition.TrainableTransition(res.transition_weights))
        assert same_bits(res.transition, realized)
        row = res.history.rows[res.best_epoch - 1]
        assert noise.estimation_error(t_true, res.transition) == row.est_error

    def test_erm_degenerate_case_learns(self):
        # Fixed identity transition and no volume term: plain ERM must fit
        # separable data quickly. Labels are the posterior argmax, so the
        # Bayes classifier reaches accuracy 1 and a small net should get
        # close.
        base = toy_dataset(600, classes=3, seed=75)
        ds = data.Dataset(
            x=base.x,
            y_clean=base.clean_posterior.argmax(axis=1),
            classes=3,
            clean_posterior=base.clean_posterior,
        )
        train_set, val_set = data.split(ds, 0.1, seed=75)
        cfg = trainer.TrainConfig(
            lam=0.0, epochs=50, seed=75, hidden=(16,), batch_size=64,
            head="softmax",
        )
        res = trainer.train(train_set, val_set, cfg, fixed_transition=np.eye(3))
        pred = model.forward_batch(res.params, train_set.x).argmax(axis=1)
        assert (pred == train_set.y_clean).mean() > 0.95
        assert res.transition_weights is None
        np.testing.assert_array_equal(res.transition, np.eye(3))

    def test_history_csv_shape(self):
        ds = toy_dataset(200, classes=2, seed=76, noisy=True)
        train_set, val_set = data.split(ds, 0.1, seed=76)
        t_true = noise.build_transition(noise.NoiseSpec("symmetric", 2, rate=0.2))
        cfg = trainer.TrainConfig(epochs=3, seed=76, hidden=(4,))
        res = trainer.train(train_set, val_set, cfg, true_transition=t_true)
        lines = res.history.to_csv().splitlines()
        assert lines[0] == (
            "epoch,fidelity,logdet_sign,logabsdet,est_error,val_metric,"
            "det_sign_events"
        )
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[4]) > 0  # estimation error recorded
        # Epoch-end volume matches an independent realization of the result.
        assert res.best_epoch in (1, 2, 3)

    def test_est_error_blank_without_true_transition(self):
        ds = toy_dataset(120, classes=2, seed=77, noisy=True)
        train_set, val_set = data.split(ds, 0.1, seed=77)
        cfg = trainer.TrainConfig(epochs=2, seed=77, hidden=())
        res = trainer.train(train_set, val_set, cfg)
        row = res.history.to_csv().splitlines()[1].split(",")
        assert row[4] == ""

    def test_selection_tie_resolves_to_latest_epoch(self):
        # Trivially separable data pushes validation accuracy to a constant
        # 1.0 from the first epoch on; the selected epoch must be the last.
        ds = toy_dataset(400, classes=2, seed=78)
        train_set, val_set = data.split(ds, 0.25, seed=78)
        cfg = trainer.TrainConfig(
            lam=0.0, epochs=6, seed=78, hidden=(8,), batch_size=32,
            classifier_opt=trainer.sgd(0.05, momentum=0.9), head="softmax",
        )
        res = trainer.train(train_set, val_set, cfg, fixed_transition=np.eye(2))
        metrics = [r.val_metric for r in res.history.rows]
        last_best = max(range(len(metrics)), key=lambda i: (metrics[i], i)) + 1
        assert res.best_epoch == last_best
        assert metrics[res.best_epoch - 1] == max(metrics)

    def test_noisy_val_loss_metric(self):
        ds = toy_dataset(200, classes=2, seed=79, noisy=True)
        train_set, val_set = data.split(ds, 0.2, seed=79)
        cfg = trainer.TrainConfig(
            epochs=3, seed=79, hidden=(4,), selection_metric="noisy-val-loss"
        )
        res = trainer.train(train_set, val_set, cfg)
        # Negated cross-entropy: always <= 0, larger is better.
        assert all(r.val_metric <= 0 for r in res.history.rows)

    def test_unknown_metric_rejected(self):
        ds = toy_dataset(50, classes=2, seed=80)
        train_set, val_set = data.split(ds, 0.2, seed=80)
        cfg = trainer.TrainConfig(epochs=1, selection_metric="val-acc")
        with pytest.raises(ValueError):
            trainer.train(train_set, val_set, cfg)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_non_finite_loss_aborts_cleanly(self):
        # An absurd weight-decay setting amplifies the weights past the
        # float range within a step or two; the run must raise instead of
        # emitting inf/nan rows or returning a half-trained result.
        ds = toy_dataset(100, classes=2, seed=81, noisy=True)
        train_set, val_set = data.split(ds, 0.1, seed=81)
        cfg = trainer.TrainConfig(
            epochs=5, seed=81, hidden=(),
            classifier_opt=trainer.sgd(2e154, weight_decay=1e154), lam=0.0,
            head="softmax",
        )
        with pytest.raises(FloatingPointError, match=r"^non-finite .* at epoch \d+"):
            trainer.train(train_set, val_set, cfg, fixed_transition=np.eye(2))

    def test_transition_weights_never_decayed(self):
        # A huge weight-decay setting on the transition optimizer must have
        # no effect, because decay is suppressed for transition updates.
        # Two epochs past the warm-up, so the transition is stepped.
        ds = toy_dataset(150, classes=2, seed=82, noisy=True)
        train_set, val_set = data.split(ds, 0.1, seed=82)
        epochs = trainer.WARMUP_EPOCHS + 2
        base = trainer.TrainConfig(
            epochs=epochs, seed=82, hidden=(4,),
            transition_opt=trainer.sgd(1e-3),
        )
        decayed = trainer.TrainConfig(
            epochs=epochs, seed=82, hidden=(4,),
            transition_opt=trainer.sgd(1e-3, weight_decay=1000.0),
        )
        r1 = trainer.train(train_set, val_set, base)
        r2 = trainer.train(train_set, val_set, decayed)
        rows = r1.history.rows
        assert rows[-1].logabsdet != rows[-2].logabsdet  # the transition moved
        assert np.array_equal(r1.transition, r2.transition)
        assert r1.history.to_csv() == r2.history.to_csv()

    def test_volume_shrinks_when_fidelity_is_satisfied(self):
        # Interior posteriors are exactly representable by the classifier,
        # so on center-heavy data the fidelity term is satisfied by a range
        # of transitions, and the volume term should only shrink the
        # enclosing simplex: every joint epoch's log-determinant is at most
        # that of the same run without the volume term (lam = 0). (On
        # boundary-heavy data the unreachable zero coordinates push the
        # transition outward instead.) The warm-up does not see the volume
        # term, so both runs reach the same confusion start. The adaptive
        # optimizer makes the tiny volume gradient move the weights far
        # enough to observe within a short run.
        t = noise.build_transition(noise.NoiseSpec("symmetric", 3, rate=0.5))
        ds = data.gen_simplex_feature(3, 2000, "center-heavy", seed=83)
        ds = ds.with_noisy(noise.corrupt_labels(ds.y_clean, t, seed=83))
        train_set, val_set = data.split(ds, 0.1, seed=83)
        cfg = trainer.TrainConfig(
            epochs=trainer.WARMUP_EPOCHS + 10, seed=83, hidden=(16,),
            batch_size=128, transition_opt=trainer.adam(1e-3),
        )
        rows = trainer.train(train_set, val_set, cfg, true_transition=t).history.rows
        plain = trainer.train(
            train_set, val_set, replace(cfg, lam=0.0), true_transition=t
        ).history.rows
        warm = trainer.WARMUP_EPOCHS
        assert [r.logabsdet for r in rows[:warm]] == [r.logabsdet for r in plain[:warm]]
        for r, p in zip(rows[warm:], plain[warm:]):
            assert r.logabsdet <= p.logabsdet
        assert rows[-1].logabsdet < plain[-1].logabsdet

    def test_empty_training_set_rejected(self):
        ds = toy_dataset(10, classes=2, seed=84)
        empty = ds.subset(np.array([], dtype=int))
        with pytest.raises(ValueError):
            trainer.train(empty, ds, trainer.TrainConfig(epochs=1))


class TestWarmup:
    def test_confusion_start_reads_labels_per_predicted_class(self):
        # An identity linear classifier predicts argmax x. Points predicted
        # class 0 carry labels 0, 0, 1, 2; class 1 carries 1, 1; nothing is
        # predicted class 2, whose column keeps the start.
        params = model.ClassifierParams([np.eye(3)], [np.zeros(3)], "softmax")
        x = np.array([[1.0, 0, 0]] * 4 + [[0, 1.0, 0]] * 2)
        y = np.array([0, 0, 1, 2, 1, 1])
        start = transition.realize(transition.init_weights(3))
        tt = trainer.confusion_start(params, x, np.eye(3)[y], start)
        got = transition.realize(tt)
        np.testing.assert_allclose(got[:, 0], [0.5, 0.25, 0.25], atol=1e-12)
        np.testing.assert_allclose(got[:, 2], start[:, 2], atol=1e-12)
        # column 1 has zero off-diagonal mass: gates sit on the floor
        assert got[1, 1] > 0.99

    def test_short_run_keeps_last_epoch_joint(self):
        # A run no longer than the warm-up still trains its last epoch
        # jointly: the head switches and the transition leaves the default
        # start, which it keeps through the warm-up epochs.
        ds = toy_dataset(200, classes=3, seed=85, noisy=True)
        train_set, val_set = data.split(ds, 0.1, seed=85)
        cfg = trainer.TrainConfig(epochs=3, seed=85, hidden=(4,))
        res = trainer.train(train_set, val_set, cfg)
        start = transition.realize(transition.init_weights(3))
        rows = res.history.rows
        assert rows[0].logabsdet == rows[1].logabsdet == linalg.signed_logdet(start)[1]
        assert not np.array_equal(res.transition, start)
        assert res.params.head == "sparsemax"
        assert res.best_epoch == 3

    def test_one_epoch_run_trains_jointly_from_default_start(self):
        ds = toy_dataset(200, classes=3, seed=85, noisy=True)
        train_set, val_set = data.split(ds, 0.1, seed=85)
        cfg = trainer.TrainConfig(epochs=1, seed=85, hidden=(4,))
        res = trainer.train(train_set, val_set, cfg)
        start = transition.realize(transition.init_weights(3))
        assert not np.array_equal(res.transition, start)
        assert res.params.head == "sparsemax"
        assert res.best_epoch == 1

    def test_selection_skips_warmup_and_switches_head(self):
        ds = toy_dataset(300, classes=3, seed=86, noisy=True)
        train_set, val_set = data.split(ds, 0.1, seed=86)
        warm = trainer.WARMUP_EPOCHS
        cfg = trainer.TrainConfig(epochs=warm + 2, seed=86, hidden=(8,))
        res = trainer.train(train_set, val_set, cfg)
        assert res.best_epoch > warm
        assert res.params.head == "sparsemax"
        rows = res.history.rows
        assert rows[warm - 1].logabsdet == rows[0].logabsdet  # frozen during warm-up
        assert rows[warm].logabsdet != rows[warm - 1].logabsdet

    def test_head_opt_takes_over_after_warmup(self):
        # A zero-rate head optimizer freezes the classifier from the end of
        # the warm-up on, so runs of different lengths end with the same
        # classifier; without head_opt the longer run keeps training it.
        ds = toy_dataset(200, classes=3, seed=88, noisy=True)
        train_set, val_set = data.split(ds, 0.1, seed=88)
        warm = trainer.WARMUP_EPOCHS
        frozen = dict(seed=88, hidden=(4,), head="sparsemax-smoothed", lam=0.0,
                      head_opt=trainer.sgd(0.0))

        def run(epochs, **kw):
            cfg = trainer.TrainConfig(epochs=epochs, **kw)
            return trainer.train(train_set, val_set, cfg, fixed_transition=np.eye(3))

        short, long = run(warm + 1, **frozen), run(warm + 3, **frozen)
        for a, b in zip(short.params.weights, long.params.weights):
            assert np.array_equal(a, b)
        del frozen["head_opt"]
        moving = run(warm + 3, **frozen)
        assert not np.array_equal(moving.params.weights[0], long.params.weights[0])

    def test_sparsemax_refused_with_fixed_zero_transition(self):
        ds = toy_dataset(50, classes=2, seed=87)
        train_set, val_set = data.split(ds, 0.2, seed=87)
        cfg = trainer.TrainConfig(epochs=1, head="sparsemax")
        with pytest.raises(ValueError, match="sparsemax"):
            trainer.train(train_set, val_set, cfg, fixed_transition=np.eye(2))


# ---------------------------------------------------------------------------
# Reference training step: separate arrays per parameter, a fresh array per
# operation, the one-hot product for d(loss)/d(probs), the transition
# gradient always computed, and an optimizer looping over a list of arrays.
# `train` must reproduce it bit for bit.


def reference_sigmoid(w):
    out = np.empty_like(w)
    pos = w >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-w[pos]))
    ew = np.exp(w[~pos])
    out[~pos] = ew / (1.0 + ew)
    return out


def reference_column_sums(a):
    return np.array([math.fsum(a[:, j]) for j in range(a.shape[1])])


def reference_forward(params, x):
    acts = [x]
    h = x
    last = len(params.weights) - 1
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = h @ w.T + b
        if l < last:
            h = np.tanh(z)
            acts.append(h)
        else:
            h = z
    if params.head == "softmax":
        e = np.exp(h - h.max(axis=1, keepdims=True))
        probs = e / e.sum(axis=1, keepdims=True)
    else:
        probs = model._sparsemax(h)
        if params.head == "sparsemax-smoothed":
            probs = (1.0 - model.SMOOTHING) * probs + model.SMOOTHING / probs.shape[1]
    return probs, acts


def reference_backward(params, acts, probs, grad_probs):
    if params.head != "softmax":
        floor = 0.0
        if params.head == "sparsemax-smoothed":
            floor = model.SMOOTHING / probs.shape[1]
            grad_probs = (1.0 - model.SMOOTHING) * grad_probs
        support = probs > floor
        mean = (grad_probs * support).sum(axis=1, keepdims=True) / support.sum(
            axis=1, keepdims=True
        )
        dz = support * (grad_probs - mean)
    else:
        inner = (grad_probs * probs).sum(axis=1, keepdims=True)
        dz = probs * (grad_probs - inner)
    grad_ws = [None] * len(params.weights)
    grad_bs = [None] * len(params.biases)
    for l in range(len(params.weights) - 1, -1, -1):
        grad_ws[l] = dz.T @ acts[l]
        grad_bs[l] = dz.sum(axis=0)
        if l > 0:
            dz = (dz @ params.weights[l]) * (1.0 - acts[l] ** 2)
    return grad_ws, grad_bs


def reference_step(params, tt, x, y, lam, fixed_transition, soft_targets, fixed_logdet):
    """(fidelity, det_sign_events, grad_w, grad_ws, grad_bs), natural=True."""
    if tt is not None:
        t_hat, gates, sums = transition._forward_cached(tt)
    else:
        t_hat = fixed_transition
    probs, acts = reference_forward(params, x)
    q = probs @ t_hat.T
    n = x.shape[0]
    if soft_targets is not None:
        qc = np.maximum(q, trainer.PROB_CLAMP)
        fidelity = float(-(soft_targets * np.log(qc)).sum() / n)
        grad_q = -soft_targets / (n * qc)
    else:
        qy = np.maximum(q[np.arange(n), y], trainer.PROB_CLAMP)
        fidelity = float(-np.log(qy).mean())
        grad_q = np.zeros_like(q)
        grad_q[np.arange(n), y] = -1.0 / (n * qy)
    grad_probs = grad_q @ t_hat
    grad_t = grad_q.T @ probs
    if tt is not None and lam != 0.0:
        sign, _ = linalg.signed_logdet(t_hat)
        grad_t = grad_t + lam * linalg.inverse_transpose(t_hat)
    elif fixed_logdet is not None:
        sign, _ = fixed_logdet
    else:
        sign, _ = linalg.signed_logdet(t_hat)
    grad_w = (
        transition._backward_cached(t_hat, gates, sums, grad_t, True)
        if tt is not None else None
    )
    grad_ws, grad_bs = reference_backward(params, acts, probs, grad_probs)
    return fidelity, int(sign <= 0), grad_w, grad_ws, grad_bs


class ReferenceOptimizer:
    def __init__(self, spec, params):
        self.spec = spec
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, params, grads, lr_scale, apply_weight_decay=True):
        spec = self.spec
        lr = spec.lr * lr_scale
        self.t += 1
        for i, (w, g) in enumerate(zip(params, grads)):
            if apply_weight_decay and spec.weight_decay:
                g = g + spec.weight_decay * w
            if spec.kind == "sgd":
                self.m[i] *= spec.momentum
                self.m[i] += g
                w -= lr * self.m[i]
            else:
                self.m[i] *= 0.9
                self.m[i] += (1.0 - 0.9) * g
                self.v[i] *= 0.999
                self.v[i] += (1.0 - 0.999) * g * g
                mhat = self.m[i] / (1.0 - 0.9**self.t)
                vhat = self.v[i] / (1.0 - 0.999**self.t)
                w -= lr * mhat / (np.sqrt(vhat) + 1e-8)


def reference_train(train_set, val_set, config, fixed_transition=None,
                    soft_targets=None, val_soft_targets=None):
    """`trainer.train` for runs that never abort, on the reference step."""
    x_train = np.asarray(train_set.x, dtype=np.float64)
    y_train = train_set.labels if soft_targets is None else None
    x_val = np.asarray(val_set.x, dtype=np.float64)
    y_val = val_set.labels if val_soft_targets is None else None
    classes, n = train_set.classes, x_train.shape[0]
    warmup = 0 if (fixed_transition is not None and config.head == "softmax") else (
        min(trainer.WARMUP_EPOCHS, max(config.epochs - 1, 0))
    )
    params = model.init_classifier(
        x_train.shape[1], tuple(config.hidden), classes, config.seed,
        "softmax" if warmup else config.head,
    )
    tt = None if fixed_transition is not None else transition.init_weights(classes)
    frozen = fixed_transition if tt is None else transition.realize(tt)
    frozen_logdet = linalg.signed_logdet(frozen)
    head_opt = config.head_opt or config.classifier_opt
    opt_theta = ReferenceOptimizer(
        config.classifier_opt if warmup else head_opt, params.weights + params.biases
    )
    opt_w = (
        None if tt is None or warmup
        else ReferenceOptimizer(config.transition_opt, [tt.weights])
    )
    history = trainer.TrainHistory()
    best_metric, best_params, best_weights = -np.inf, None, None
    for epoch in range(1, config.epochs + 1):
        if warmup and epoch == warmup + 1:
            params.head = config.head
            if config.head_opt is not None:
                opt_theta = ReferenceOptimizer(head_opt, params.weights + params.biases)
            if tt is not None:
                targets = (
                    soft_targets if soft_targets is not None
                    else np.eye(classes)[y_train]
                )
                tt = trainer.confusion_start(params, x_train, targets, frozen)
                opt_w = ReferenceOptimizer(config.transition_opt, [tt.weights])
        stepped = None if epoch <= warmup else tt
        scale = trainer.lr_scale_at(config.lr_schedule, epoch)
        order = np.random.default_rng(
            [config.seed, trainer._SHUFFLE_STREAM, epoch]
        ).permutation(n)
        fid_sum, sign_events = 0.0, 0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            fidelity, events, grad_w, grad_ws, grad_bs = reference_step(
                params, stepped, x_train[idx],
                None if y_train is None else y_train[idx], config.lam,
                frozen if stepped is None else None,
                None if soft_targets is None else soft_targets[idx],
                frozen_logdet if stepped is None else None,
            )
            fid_sum += fidelity * len(idx)
            sign_events += events
            opt_theta.step(params.weights + params.biases, grad_ws + grad_bs, scale)
            if stepped is not None:
                opt_w.step([tt.weights], [grad_w], scale, apply_weight_decay=False)
        t_hat = transition.realize(tt) if tt is not None else fixed_transition
        sign, logabs = linalg.signed_logdet(t_hat)
        metric = trainer._val_metric(
            config.selection_metric, params, t_hat, x_val, y_val, val_soft_targets
        )
        history.rows.append(trainer.EpochRow(
            epoch, fid_sum / n, sign, logabs, None, metric, sign_events
        ))
        if epoch > warmup and metric >= best_metric:
            best_metric = metric
            best_params = params.copy()
            best_weights = None if tt is None else tt.weights.copy()
    return best_params, best_weights, history.to_csv()


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


STEP_SETUPS = ("warmup-then-sparsemax", "noisy-posterior-fit", "soft-targets", "lr-schedule")


class TestStepMatchesReference:
    """`train` on its flat parameter buffer, in-place passes, row-gather
    label gradient and skipped frozen-transition gradient gives exactly the
    bits of the reference step above."""

    @pytest.mark.parametrize("setup", STEP_SETUPS)
    @pytest.mark.parametrize("classes", [2, 3, 10])
    def test_train_is_bit_equal(self, monkeypatch, classes, setup):
        ds = toy_dataset(400, classes=classes, seed=90 + classes, noisy=True)
        train_set, val_set = data.split(ds, 0.2, seed=90)
        cfg = trainer.TrainConfig(
            epochs=trainer.WARMUP_EPOCHS + 3, seed=classes, hidden=(8,), batch_size=64
        )
        kwargs = {}
        if setup == "noisy-posterior-fit":
            cfg = trainer.TrainConfig(
                epochs=cfg.epochs, seed=classes, hidden=(8,), batch_size=64,
                lam=0.0, head="sparsemax-smoothed", head_opt=trainer.adam(1e-3),
            )
            kwargs["fixed_transition"] = np.eye(classes)
        elif setup == "soft-targets":
            kwargs["soft_targets"] = train_set.clean_posterior
            kwargs["val_soft_targets"] = val_set.clean_posterior
        elif setup == "lr-schedule":
            cfg = trainer.TrainConfig(
                epochs=cfg.epochs, seed=classes, hidden=(8, 6), batch_size=64,
                lr_schedule=((2, 10.0), (trainer.WARMUP_EPOCHS + 1, 4.0)),
            )

        got = trainer.train(train_set, val_set, cfg, **kwargs)
        with monkeypatch.context() as m:
            m.setattr(transition, "_sigmoid", reference_sigmoid)
            m.setattr(transition, "_column_sums", reference_column_sums)
            m.setattr(model, "_forward_cached", reference_forward)
            want_params, want_weights, want_csv = reference_train(
                train_set, val_set, cfg, **kwargs
            )

        assert got.history.to_csv() == want_csv
        for a, b in zip(got.params.weights + got.params.biases,
                        want_params.weights + want_params.biases):
            assert same_bits(a, b)
        if want_weights is None:
            assert got.transition_weights is None
        else:
            assert same_bits(got.transition_weights, want_weights)

    def test_snapshots_do_not_share_the_live_buffer(self):
        ds = toy_dataset(200, classes=3, seed=91, noisy=True)
        train_set, val_set = data.split(ds, 0.2, seed=91)
        cfg = trainer.TrainConfig(epochs=trainer.WARMUP_EPOCHS + 2, seed=91, hidden=(8,))
        res = trainer.train(train_set, val_set, cfg)
        arrays = res.params.weights + res.params.biases
        for i, a in enumerate(arrays):
            assert a.flags.owndata
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)

    def test_sigmoid_and_column_sums_match_reference(self):
        rng = np.random.default_rng(92)
        for trial in range(1200):
            c = int(rng.integers(2, 11))
            w = rng.standard_normal((c, c)) * [1.0, 30.0, 800.0][trial % 3]
            w = np.clip(w, -800.0, 800.0)
            w.flat[rng.integers(0, c * c, size=2)] = [0.0, -0.0]
            if trial % 7 == 0:
                w.flat[rng.integers(0, c * c, size=2)] = [800.0, -800.0]
            assert same_bits(transition._sigmoid(w), reference_sigmoid(w))
            gates = transition._gates(w)
            assert same_bits(transition._column_sums(gates), reference_column_sums(gates))


class TestNumericalFailure:
    """A non-finite loss raises out of `train`, naming its epoch and batch,
    in the warm-up and in the joint phase alike."""

    @pytest.mark.parametrize(
        "fail_epoch", [2, trainer.WARMUP_EPOCHS + 1], ids=["warm-up", "first-joint-epoch"]
    )
    def test_non_finite_loss_raises(self, monkeypatch, fail_epoch):
        ds = toy_dataset(200, classes=3, seed=93, noisy=True)
        train_set, val_set = data.split(ds, 0.2, seed=93)
        cfg = trainer.TrainConfig(
            epochs=trainer.WARMUP_EPOCHS + 3, seed=93, hidden=(8,), batch_size=32
        )
        steps = -(-len(train_set.x) // cfg.batch_size)
        failing = (fail_epoch - 1) * steps + 2
        real = trainer.loss_and_grads
        calls, stepped = [], []

        def wrapped(params, tt, *args, **kwargs):
            # Fail the third step of `fail_epoch`; record what it trained.
            calls.append(None)
            out = real(params, tt, *args, **kwargs)
            if len(calls) - 1 == failing:
                stepped.append(tt)
                out[0].loss = float("nan")
            return out

        monkeypatch.setattr(trainer, "loss_and_grads", wrapped)
        with pytest.raises(FloatingPointError) as raised:
            trainer.train(train_set, val_set, cfg)
        assert str(raised.value) == f"non-finite loss at epoch {fail_epoch}, batch 2"
        assert len(calls) == failing + 1
        # The warm-up steps against the frozen matrix, the joint phase
        # against the trainable transition.
        joint = fail_epoch > trainer.WARMUP_EPOCHS
        assert isinstance(stepped[0], transition.TrainableTransition) == joint


# ---------------------------------------------------------------------------
# Lockstep: a stack of trials, one `train` call, the bits of separate calls.


def lockstep_setup(setup, classes, seed):
    """(train_set, val_set, cfg, kwargs) of one trial of a STEP_SETUPS run."""
    ds = toy_dataset(400, classes=classes, seed=seed, noisy=True)
    train_set, val_set = data.split(ds, 0.2, seed=seed)
    # 320 training rows in batches of 29: the last batch of each epoch has
    # exactly one row, which numpy multiplies through another BLAS routine.
    cfg = trainer.TrainConfig(
        epochs=trainer.WARMUP_EPOCHS + 3, seed=seed, hidden=(8,), batch_size=29
    )
    kwargs = {}
    if setup == "noisy-posterior-fit":
        cfg = replace(
            cfg, lam=0.0, head="sparsemax-smoothed", head_opt=trainer.adam(1e-3)
        )
        kwargs["fixed_transition"] = np.eye(classes)
    elif setup == "soft-targets":
        kwargs["soft_targets"] = train_set.clean_posterior
        kwargs["val_soft_targets"] = val_set.clean_posterior
    elif setup == "lr-schedule":
        cfg = replace(
            cfg, hidden=(8, 6),
            lr_schedule=((2, 10.0), (trainer.WARMUP_EPOCHS + 1, 4.0)),
        )
    if setup != "noisy-posterior-fit":
        kwargs["true_transition"] = noise.build_transition(
            noise.NoiseSpec("symmetric", classes, rate=0.2)
        )
    return train_set, val_set, cfg, kwargs


def train_stack(trials, fixed_transition=None):
    """One lockstep `train` call over `lockstep_setup` trials."""
    per_trial = [t[3] for t in trials]

    def listed(key):
        return [kw[key] for kw in per_trial] if key in per_trial[0] else None

    return trainer.train(
        [t[0] for t in trials], [t[1] for t in trials], [t[2] for t in trials],
        fixed_transition=fixed_transition,
        true_transition=listed("true_transition"),
        soft_targets=listed("soft_targets"),
        val_soft_targets=listed("val_soft_targets"),
    )


def assert_same_result(got, want):
    assert got.history.to_csv() == want.history.to_csv()
    assert got.best_epoch == want.best_epoch
    for a, b in zip(got.params.weights + got.params.biases,
                    want.params.weights + want.params.biases):
        assert same_bits(a, b)
    assert got.params.head == want.params.head
    if want.transition_weights is None:
        assert got.transition_weights is None
    else:
        assert same_bits(got.transition_weights, want.transition_weights)
    assert same_bits(np.asarray(got.transition), np.asarray(want.transition))


class TestLockstep:
    """A stack of trials gives each trial the bits of its own `train` call."""

    @pytest.mark.parametrize("setup", STEP_SETUPS)
    @pytest.mark.parametrize("classes", [2, 3, 10])
    def test_stack_is_bit_equal_to_single_runs(self, classes, setup):
        trials = [lockstep_setup(setup, classes, 10 * classes + k) for k in range(3)]
        fixed = trials[0][3].pop("fixed_transition", None)
        for t in trials[1:]:
            t[3].pop("fixed_transition", None)
        got = train_stack(trials, fixed)
        assert len(got) == 3
        for res, (train_set, val_set, cfg, kwargs) in zip(got, trials):
            want = trainer.train(
                train_set, val_set, cfg, fixed_transition=fixed, **kwargs
            )
            assert_same_result(res, want)

    def test_configs_may_differ_only_in_seed(self):
        trials = [lockstep_setup("lr-schedule", 3, s) for s in (1, 2)]
        cfgs = [trials[0][2], replace(trials[1][2], lam=0.0)]
        with pytest.raises(ValueError, match="but for the seed"):
            trainer.train([t[0] for t in trials], [t[1] for t in trials], cfgs)

    @pytest.mark.parametrize(
        "fail_epoch", [2, trainer.WARMUP_EPOCHS + 1], ids=["warm-up", "first-joint-epoch"]
    )
    def test_failed_trial_leaves_the_stack(self, monkeypatch, fail_epoch):
        # Trial 1's loss goes non-finite at the third step of `fail_epoch`,
        # injected as in TestNumericalFailure; the other trials go on.
        trials = [lockstep_setup("warmup-then-sparsemax", 3, s) for s in (5, 6, 7)]
        steps = -(-trials[0][0].n // trials[0][2].batch_size)
        failing = (fail_epoch - 1) * steps + 2
        real = trainer.loss_and_grads
        calls = []

        def inject(stacked):
            def wrapped(*args, **kwargs):
                calls.append(None)
                out = real(*args, **kwargs)
                if len(calls) - 1 == failing:
                    if stacked:
                        out[0].loss[1] = np.nan
                    else:
                        out[0].loss = float("nan")
                return out
            return wrapped

        monkeypatch.setattr(trainer, "loss_and_grads", inject(stacked=True))
        got = train_stack(trials)
        calls.clear()
        monkeypatch.setattr(trainer, "loss_and_grads", inject(stacked=False))
        train_set, val_set, cfg, kwargs = trials[1]
        with pytest.raises(FloatingPointError) as alone:
            trainer.train(train_set, val_set, cfg, **kwargs)
        monkeypatch.setattr(trainer, "loss_and_grads", real)

        assert isinstance(got[1], FloatingPointError)
        assert str(got[1]) == str(alone.value)
        assert str(got[1]) == f"non-finite loss at epoch {fail_epoch}, batch 2"
        for k in (0, 2):
            train_set, val_set, cfg, kwargs = trials[k]
            assert_same_result(got[k], trainer.train(train_set, val_set, cfg, **kwargs))

    def test_singular_transition_leaves_the_stack(self, monkeypatch):
        # Trial 0's realized transition reads as singular at one joint step;
        # the step is retried without it and the others keep their bits.
        trials = [lockstep_setup("warmup-then-sparsemax", 3, s) for s in (8, 9)]
        real = linalg.signed_logdet
        calls = []

        def singular_first(a):
            sign, logabs = real(a)
            if np.ndim(sign) and len(sign) == 2:
                calls.append(None)
                if len(calls) == 40:
                    sign, logabs = sign.copy(), logabs.copy()
                    sign[0], logabs[0] = 0.0, -np.inf
            return sign, logabs

        monkeypatch.setattr(linalg, "signed_logdet", singular_first)
        got = train_stack(trials)
        monkeypatch.setattr(linalg, "signed_logdet", real)
        assert isinstance(got[0], linalg.SingularMatrixError)
        assert str(got[0]) == "realized transition is numerically singular"
        train_set, val_set, cfg, kwargs = trials[1]
        assert_same_result(got[1], trainer.train(train_set, val_set, cfg, **kwargs))
