"""Release acceptance suite: one test per numbered criterion.

The terminal summary (see conftest.py) prints one pass/fail line per
criterion. Criteria 3 and 4 assert stated release targets against a full
multi-seed training protocol; where a target is not met at the shipped
defaults the test fails with the measured values in the message rather
than loosening the threshold.
"""

import itertools
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from volmin import (
    cli,
    config,
    data,
    geometry,
    linalg,
    model,
    noise,
    trainer,
    transition,
)

SEEDS = (0, 1, 2, 3, 4)
FD_STEP = 1e-6


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-8)


# ---------------------------------------------------------------------------
# Criterion 1: analytic gradients of the joint objective match central
# finite differences on micro-instances, for every parameter entry.


def sparsemax_margin(params, x):
    """Smallest distance of a logit from its row's sparsemax threshold tau."""
    _, acts = model._forward_cached(params, x)
    z = acts[-1] @ params.weights[-1].T + params.biases[-1]
    p = model._sparsemax(z)
    on = p > 0
    tau = (z * on - p).sum(axis=1) / on.sum(axis=1)  # z - p = tau on the support
    return float(np.abs(z - tau[:, None]).min())


def test_c1_gradient_exactness():
    lam = 1e-4
    for classes, d, hidden, head in itertools.product(
        (2, 3, 5), (2, 4), ((), (5,)), ("softmax", "sparsemax")
    ):
        rng = np.random.default_rng([classes, d, len(hidden)])
        params = model.init_classifier(d, hidden, classes, seed=classes, head=head)
        w0 = transition.init_weights(classes).weights
        w0 += rng.uniform(-0.4, 0.4, size=w0.shape)
        np.fill_diagonal(w0, 0.0)
        x = rng.standard_normal((6, d))
        y = rng.integers(0, classes, size=6)
        if head == "sparsemax":
            # the head train() uses: three rows with a class outside the
            # support, then rows holding two or more classes until every
            # class has been in some support (so no gradient is exactly
            # zero); every support stays fixed within +-FD_STEP
            params.weights[-1] = 8.0 * params.weights[-1]
            pool = rng.standard_normal((400, d)) * rng.uniform(0.05, 3.0, (400, 1))
            partial, spread, covered = [], [], set()
            for r in pool:
                if sparsemax_margin(params, r[None]) <= 1e-3:
                    continue
                support = set(np.flatnonzero(model.forward_batch(params, r[None])[0]))
                if len(support) < classes and len(partial) < 3:
                    partial.append(r)
                elif len(support) >= 2 and not support <= covered:
                    spread.append(r)
                    covered |= support
            x = np.array(partial + spread)
            y = rng.integers(0, classes, size=len(x))
            assert len(partial) == 3 and len(covered) == classes
            assert sparsemax_margin(params, x) > 1e-3

        def loss_at(params_, w_):
            tt = transition.TrainableTransition(w_.copy())
            stats, _, _ = trainer.loss_and_grads(params_, tt, x, y, lam)
            return stats.loss

        tt = transition.TrainableTransition(w0.copy())
        _, grad_w, (grad_ws, grad_bs) = trainer.loss_and_grads(
            params, tt, x, y, lam
        )

        for i, j in np.ndindex(w0.shape):
            wp, wm = w0.copy(), w0.copy()
            wp[i, j] += FD_STEP
            wm[i, j] -= FD_STEP
            fd = (loss_at(params, wp) - loss_at(params, wm)) / (2 * FD_STEP)
            if i == j:
                # the diagonal carries no parameters
                assert fd == 0.0 and grad_w[i, j] == 0.0
                continue
            assert rel_err(fd, grad_w[i, j]) < 1e-4, (classes, d, hidden, head, i, j)

        for l in range(len(params.weights)):
            for idx in np.ndindex(params.weights[l].shape):
                pp, pm = params.copy(), params.copy()
                pp.weights[l] = pp.weights[l].copy()
                pm.weights[l] = pm.weights[l].copy()
                pp.weights[l][idx] += FD_STEP
                pm.weights[l][idx] -= FD_STEP
                fd = (loss_at(pp, w0) - loss_at(pm, w0)) / (2 * FD_STEP)
                assert rel_err(fd, grad_ws[l][idx]) < 1e-4, (
                    classes, d, hidden, head, l, idx,
                )
            for k in range(params.biases[l].shape[0]):
                pp, pm = params.copy(), params.copy()
                pp.biases[l] = pp.biases[l].copy()
                pm.biases[l] = pm.biases[l].copy()
                pp.biases[l][k] += FD_STEP
                pm.biases[l][k] -= FD_STEP
                fd = (loss_at(pp, w0) - loss_at(pm, w0)) / (2 * FD_STEP)
                assert rel_err(fd, grad_bs[l][k]) < 1e-4, (
                    classes, d, hidden, head, l, k,
                )

    # isolated log|det| term at the tighter tolerance
    for classes in (2, 3, 5):
        rng = np.random.default_rng([classes, 9])
        w0 = transition.init_weights(classes).weights
        w0 += rng.uniform(-0.4, 0.4, size=w0.shape)
        np.fill_diagonal(w0, 0.0)
        tt = transition.TrainableTransition(w0.copy())
        t_hat = transition.realize(tt)
        analytic = transition.backward(tt, linalg.inverse_transpose(t_hat))

        def logabsdet_at(w_):
            t = transition.realize(transition.TrainableTransition(w_.copy()))
            return linalg.signed_logdet(t)[1]

        for i, j in np.ndindex(w0.shape):
            if i == j:
                continue
            wp, wm = w0.copy(), w0.copy()
            wp[i, j] += FD_STEP
            wm[i, j] -= FD_STEP
            fd = (logabsdet_at(wp) - logabsdet_at(wm)) / (2 * FD_STEP)
            assert rel_err(fd, analytic[i, j]) < 1e-6, (classes, i, j)


# ---------------------------------------------------------------------------
# Criterion 2: every realized transition from finite weights is
# column-stochastic with a strictly dominant diagonal; the default init
# realizes the documented starting matrix exactly.


def test_c2_construction_invariants():
    rng = np.random.default_rng(20)
    per_c = 10_000 // 19 + 1  # 19 class counts, >= 10^4 matrices total
    for classes in range(2, 21):
        for _ in range(per_c):
            w = rng.uniform(-8.0, 8.0, size=(classes, classes))
            t = transition.realize(transition.TrainableTransition(w))
            assert np.abs(t.sum(axis=0) - 1.0).max() <= 1e-12
            off = t + np.diag(np.full(classes, -np.inf))
            assert (np.diag(t) > off.max(axis=0)).all()

    for classes in range(3, 21):
        w = math.log(1.0 / (classes - 2))
        t = transition.realize(transition.init_weights(classes, w))
        assert np.abs(np.diag(t) - 0.5).max() <= 1e-12
        off = t[~np.eye(classes, dtype=bool)]
        assert np.abs(off - 1.0 / (2 * (classes - 1))).max() <= 1e-12

    # two classes: the formula above is undefined, the default weight is -2
    assert transition.default_init_weight(2) == -2.0
    t2 = transition.realize(transition.init_weights(2))
    assert abs(t2[0, 0] - 0.8934930210807992) <= 1e-12
    assert abs(t2[1, 0] - 0.10650697891920079) <= 1e-12


# ---------------------------------------------------------------------------
# Criteria 3 and 4: full training protocol, three classes, five seeds.


def _protocol_means(profile, cap, kind, rate):
    """`volmin sweep` on one leg over SEEDS, one process per core; returns the
    means of volmin's error, anchor-max's error and volmin's posterior gap."""
    with tempfile.TemporaryDirectory() as out:
        cfg = Path(out, "leg.cfg")
        cfg.write_text(
            "data.generator = simplex\ndata.classes = 3\ndata.n = 20000\n"
            f"data.profile = {profile}\ndata.cap = {cap}\nnoise.kind = {kind}\n"
            f"noise.rate = {rate}\nestimators.methods = volmin, anchor-max\n"
            f"trials.seeds = {', '.join(map(str, SEEDS))}\noutput.dir = {out}\n",
            encoding="utf-8",
        )
        threads = {"VOLMIN_THREADS": str(len(os.sched_getaffinity(0)))}
        with mock.patch.dict(os.environ, threads):
            assert cli.main(["sweep", "--config", str(cfg)]) == 0
        text = Path(out, "sweep.csv").read_text(encoding="utf-8")
    row = {tuple(r[:2]): r for r in (line.split(",") for line in text.splitlines())}
    runs = np.array(
        [[row["volmin", str(s)][2], row["anchor-max", str(s)][2], row["volmin", str(s)][4]]
         for s in SEEDS],
        dtype=float,
    )
    return runs[:, 0].mean(), runs[:, 1].mean(), runs[:, 2].mean()


@pytest.mark.slow
def test_c3_identifiability_without_anchors():
    # data precondition: scattered but anchor-free
    for seed in SEEDS:
        ds = data.gen_simplex_feature(
            3, 20000, "edge-scattered", cap=0.9, seed=seed
        )
        h = ds.clean_posterior.T
        rays = geometry.sample_boundary_rays(3, 512, seed=seed)
        _, covered = geometry.check_cone_coverage(h, rays)
        assert covered, f"seed {seed}: cone coverage precondition failed"
        _, anchored = geometry.anchor_presence(h, delta=0.05)
        assert not anchored, f"seed {seed}: unexpected anchor points"

    misses = []
    for kind, rate in (("pair", 0.45), ("symmetric", 0.5)):
        vol, amax, linf = _protocol_means("edge-scattered", 0.9, kind, rate)
        leg = f"{kind}-{rate}"
        # the non-negotiable property: the joint estimator beats the
        # anchor-point baseline on anchor-free data
        assert vol < amax, (
            f"{leg}: volmin mean error {vol:.4f} not below "
            f"anchor-max mean error {amax:.4f}"
        )
        if not vol < 0.05:
            misses.append(f"{leg}: volmin mean error {vol:.4f} >= 0.05")
        if not amax >= 2 * vol:
            misses.append(
                f"{leg}: anchor-max/volmin ratio {amax / vol:.2f} < 2"
            )
        if not linf < 0.05:
            misses.append(
                f"{leg}: held-out posterior sup-norm error {linf:.4f} >= 0.05"
            )
    assert not misses, "unmet release targets:\n" + "\n".join(misses)


@pytest.mark.slow
def test_c4_anchor_present_sanity():
    for seed in SEEDS:
        ds = data.gen_simplex_feature(3, 20000, "corner-rich", cap=1.0, seed=seed)
        _, anchored = geometry.anchor_presence(ds.clean_posterior.T, delta=0.05)
        assert anchored, f"seed {seed}: corner-rich data lost its anchors"

    misses = []
    for kind, rate in (("pair", 0.45), ("symmetric", 0.5)):
        vol, amax, _ = _protocol_means("corner-rich", 1.0, kind, rate)
        leg = f"{kind}-{rate}"
        if not vol < 0.05:
            misses.append(f"{leg}: volmin mean error {vol:.4f} >= 0.05")
        if not amax < 0.05:
            misses.append(f"{leg}: anchor-max mean error {amax:.4f} >= 0.05")
    assert not misses, "unmet release targets:\n" + "\n".join(misses)


# ---------------------------------------------------------------------------
# Criterion 5: with two classes and the exact noisy posteriors as soft
# targets, the trained transition matches the closed-form minimum-volume
# interval, which in turn matches a 1e-3 grid search exactly.


def test_c5_two_class_oracle_equivalence():
    ds = data.gen_simplex_feature(2, 2000, "edge-scattered", cap=0.8, seed=0)
    t_true = noise.build_transition(noise.NoiseSpec("symmetric", 2, rate=0.3))
    tr, va = data.split(ds, 0.1, seed=0)
    q_tr = tr.clean_posterior @ t_true.T
    q_va = va.clean_posterior @ t_true.T

    # oracle vs grid search on values snapped to the grid
    vals = np.round(q_tr[:, 0], 3)
    oracle = geometry.min_volume_interval(vals)
    grid = np.round(np.arange(1001) * 1e-3, 3)
    t11 = grid[(grid > 0.5) & (grid >= vals.max())].min()
    t12 = grid[(grid < 0.5) & (grid <= vals.min())].max()
    t_grid = np.array([[t11, t12], [1.0 - t11, 1.0 - t12]])
    assert np.array_equal(oracle, t_grid)

    # volume-driven travel needs adaptive transition steps and a volume
    # weight above the classifier's residual-fit noise; accuracy selection
    # plateaus early, so the latest-epoch tie rule keeps the converged state
    cfg = trainer.TrainConfig(
        seed=0,
        epochs=800,
        lam=1e-3,
        classifier_opt=trainer.adam(1e-2),
        transition_opt=trainer.adam(1e-3),
        selection_metric="noisy-val-accuracy",
    )
    res = trainer.train(tr, va, cfg, soft_targets=q_tr, val_soft_targets=q_va)
    gap = float(np.abs(res.transition - oracle).max())
    assert gap <= 0.02, f"trained transition off the oracle by {gap:.4f}"


# ---------------------------------------------------------------------------
# Criterion 6: geometry suite.


def test_c6_geometry_suite():
    for classes in range(2, 11):
        rays = geometry.sample_boundary_rays(classes, 512, seed=classes)
        assert rays.min() >= -1e-9
        _, covered = geometry.check_cone_coverage(np.eye(classes), rays)
        assert covered, f"identity posteriors must cover the cone (C={classes})"

    for classes in (2, 3, 5):
        uniform = np.full((classes, 40), 1.0 / classes)
        rays = geometry.sample_boundary_rays(classes, 512, seed=1)
        _, covered = geometry.check_cone_coverage(uniform, rays)
        assert not covered, f"uniform posteriors must fail coverage (C={classes})"

    # strictly interior two-class data admits a rotation witness
    interior = np.stack(
        [np.linspace(0.3, 0.7, 30), np.linspace(0.7, 0.3, 30)]
    )
    q = geometry.search_rotation_witness(interior, trials=10_000, seed=0)
    assert q is not None
    assert np.allclose(q @ q.T, np.eye(2), atol=1e-9)
    assert (q.T @ interior).min() >= -geometry.DEFAULT_WITNESS_TOL

    # identity posteriors: no witness in 10^4 trials
    assert geometry.search_rotation_witness(np.eye(3), trials=10_000, seed=0) is None


# ---------------------------------------------------------------------------
# Criterion 7: protocol constants shipped as defaults.


def test_c7_protocol_constants():
    assert trainer.DEFAULT_VOLUME_WEIGHT == 1e-4
    assert trainer.TrainConfig().lam == 1e-4
    for classes in range(3, 9):
        assert transition.default_init_weight(classes) == math.log(
            1.0 / (classes - 2)
        )
    cfg = config.default_config()
    assert cfg.get("train", "val_fraction") == 0.1
    assert cfg.seeds == (0, 1, 2, 3, 4)
    assert data.ANCHOR_REMOVAL_PRESETS == (0.4, 0.1)


# ---------------------------------------------------------------------------
# Criterion 8: re-running any command with the same config reproduces every
# output byte for byte (manifest.txt records wall time and is exempt).


AC8_CONFIG = """\
data.generator = simplex
data.classes = 3
data.n = 300
data.profile = corner-rich
data.cap = 1.0
noise.kind = symmetric
noise.rate = 0.2
train.epochs = 3
train.batch_size = 64
train.hidden = 8
geometry.rays = 64
geometry.trials = 300
estimators.methods = volmin, anchor-max
trials.seeds = 0, 1
"""


def test_c8_rerun_determinism(tmp_path):
    cfg = tmp_path / "exp.cfg"
    out = tmp_path / "out"
    cfg.write_text(AC8_CONFIG + f"output.dir = {out}\n", encoding="utf-8")
    env = {k: v for k, v in os.environ.items() if k != "VOLMIN_THREADS"}
    commands = (
        "generate", "corrupt", "check-scattered", "train-volmin",
        "estimate-anchor", "sweep",
    )

    def run_all():
        for cmd in commands:
            proc = subprocess.run(
                [sys.executable, "-m", "volmin.cli", cmd, "--config", str(cfg)],
                capture_output=True, text=True, env=env,
            )
            assert proc.returncode == 0, (cmd, proc.stderr)
        return {
            p.relative_to(out): p.read_bytes()
            for p in sorted(out.rglob("*"))
            if p.is_file() and p.name != "manifest.txt"
        }

    first = run_all()
    assert len(first) > 10
    second = run_all()
    assert first == second
