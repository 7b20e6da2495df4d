"""Two-stage estimators of the noise transition matrix.

The two-stage recipe: fit a model of the noisy-label posterior, then read
T̂ off its posterior rows on the training instances. TWO_STAGE maps each
such method's name to a function (p, opts) -> T̂, where p is the fit's
(n, C) posterior matrix and opts the config's `estimators` section; it is
the one list of two-stage methods that the config and the CLI read.

The anchor-point methods read transition columns at the instances where
each noisy class's posterior peaks (exactly, or at a percentile for
robustness). They are consistent only when true anchor points exist in
the data; the systematic bias without them is what the joint
volume-minimizing trainer avoids. They take the posterior matrix itself,
so estimator bias can be studied in isolation from posterior-fitting
error.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from . import trainer

# Classifier optimizer of the noisy-posterior fit after its warm-up (see
# fit_noisy_posterior).
FIT_OPTIMIZER = trainer.adam(1e-3)


def fit_noisy_posterior(train_set, val_set, config: trainer.TrainConfig):
    """Fit the noisy-class posterior: plain cross-entropy on the noisy
    labels, transition frozen at identity, no volume term. Returns the
    trainer result; its .params field is the fitted model.

    The head is the smoothed sparsemax. Noisy posteriors reach exact zeros
    where clean posteriors do (pair noise at a clean anchor), which a softmax
    only approaches, and its misfit there moves the maximizers the anchor
    estimators read; the smoothing keeps every probability at least
    model.SMOOTHING / C, so with the identity transition no observed label is
    ever clamped.

    After the softmax warm-up (trainer.WARMUP_EPOCHS) the classifier steps
    with FIT_OPTIMIZER instead of `config`'s optimizer. Through the
    identity, a label the head gives a small probability p contributes a
    gradient of size 1/p, and a label outside the support contributes none;
    with momentum SGD those spikes pushed whole classes out of every support,
    where they stayed (at C = 10 under symmetric noise two classes died and
    the anchor estimate was singular). Adam bounds each weight's step; in
    the same runs every class stayed in the support. The warm-up keeps
    `config`'s optimizer, which trains a short run further than Adam.

    Given lists of training sets, validation sets and configs, the fits
    run in lockstep and the result is a list, as `trainer.train` describes.
    """
    if isinstance(config, list):
        classes, cfg = train_set[0].classes, [_fit_config(c) for c in config]
    else:
        classes, cfg = train_set.classes, _fit_config(config)
    return trainer.train(train_set, val_set, cfg, fixed_transition=np.eye(classes))


def _fit_config(config: trainer.TrainConfig) -> trainer.TrainConfig:
    return replace(config, lam=0.0, head="sparsemax-smoothed", head_opt=FIT_OPTIMIZER)


def _posteriors(p) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 2 or p.shape[0] == 0:
        raise ValueError("posteriors must be a non-empty (n, C) array")
    return p


def anchor_estimate_max(p) -> np.ndarray:
    """Transition estimate with column j read at the instance maximizing
    the class-j posterior (ties resolve to the lowest index). The result
    is reported as-is; nothing forces diagonal dominance."""
    p = _posteriors(p)
    picks = p.argmax(axis=0)
    return p[picks].T.copy()


def anchor_estimate_percentile(p, alpha: float) -> np.ndarray:
    """Like anchor_estimate_max but column j is read at the instance
    ranked floor(alpha/100 * n) in descending class-j posterior order,
    discarding the most extreme scores as unreliable."""
    if not (0.0 < alpha < 100.0):
        raise ValueError(f"alpha must lie strictly between 0 and 100, got {alpha}")
    p = _posteriors(p)
    n = p.shape[0]
    idx = min(math.floor(alpha / 100.0 * n), n - 1)
    order = np.argsort(-p, axis=0, kind="stable")
    return p[order[idx]].T.copy()


# Each entry looks its estimator up when called, so a patched module
# attribute (a tracer, a call counter) is the one that runs.
TWO_STAGE = {
    "anchor-max": lambda p, opts: anchor_estimate_max(p),
    "anchor-percentile": lambda p, opts: anchor_estimate_percentile(p, opts["alpha"]),
}
