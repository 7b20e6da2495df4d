"""Joint training of the classifier and the transition matrix.

The objective is the mean cross-entropy of noisy labels under the composed
predictor (transition @ classifier probabilities) plus `lam` times the
log-determinant of the realized transition -- the volume penalty that makes
the factorization identifiable. One `loss_and_grads` call per minibatch
produces gradients for both parameter sets, and both are stepped from it.

How the joint problem is started and stepped decides which of its local
minima the run reaches, because `lam` is far too small for the volume term
to move the transition by itself (see `TrainConfig`):

  - warm-up: for the first WARMUP_EPOCHS epochs the classifier trains
    alone, with the softmax head, against the frozen initial transition; a
    run of WARMUP_EPOCHS epochs or fewer keeps its last epoch for the joint
    phase, so every run of two or more epochs takes joint steps. The softmax
    keeps every class in play while the classifier learns which class is
    which; a sparsemax head started cold can leave a class outside every
    row's support, where it gets no gradient ever again.
  - start: the classifier then switches to `head`, and the transition
    restarts from the confusion of the classifier's predictions with the
    training labels. Each column averages noisy labels, whose expectation
    is a convex combination of the true transition's columns, so the start
    lies inside the true simplex and is oriented like it; the fidelity term
    only has to expand it, and expansion stops where the data is enclosed.
    Started from the symmetric default instead, the expansion is isotropic
    at first and on pair noise often settles in a large near-identity
    enclosure that is a local minimum.
  - steps: transition updates follow the natural gradient of the sigmoid
    gates (`transition.backward(natural=True)`), so entries heading for 0
    keep moving instead of stalling in the sigmoid's tail.

Determinism: given a seed and a config, the run is bit-reproducible. The
per-epoch shuffle stream is derived from (seed, epoch); no other randomness
is consumed after initialization. A numerical failure raises out of `train`
(see there), which the CLI maps to exit 3 naming the seed and the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import linalg, model, noise, transition

_SHUFFLE_STREAM = 301

# Probabilities below this are clamped before the log; each occurrence is
# counted as a clamp event.
PROB_CLAMP = 1e-300

DEFAULT_VOLUME_WEIGHT = 1e-4

SELECTION_METRICS = ("noisy-val-accuracy", "noisy-val-loss")

# Epochs the classifier trains alone before the joint phase (module docstring).
WARMUP_EPOCHS = 5

# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class OptimizerSpec:
    kind: str  # "sgd" | "adam"
    lr: float
    momentum: float = 0.0
    weight_decay: float = 0.0


def sgd(lr: float, momentum: float = 0.0, weight_decay: float = 0.0) -> OptimizerSpec:
    return OptimizerSpec("sgd", lr, momentum=momentum, weight_decay=weight_decay)


def adam(lr: float) -> OptimizerSpec:
    return OptimizerSpec("adam", lr)


@dataclass(frozen=True)
class TrainConfig:
    """Training protocol. At the default volume weight the volume term's
    gradient on the transition weights is about 5e-6, some hundred times
    below the fidelity gradient an imperfect classifier fit leaves (measured
    on the C3 protocol), so where a run ends is set by the warm-up, `head`
    and the transition steps (module docstring) more than by `lam`."""

    lam: float = DEFAULT_VOLUME_WEIGHT
    epochs: int = 150
    batch_size: int = 128
    seed: int = 0
    hidden: tuple[int, ...] = (32,)
    head: str = "sparsemax"
    classifier_opt: OptimizerSpec = field(
        default_factory=lambda: sgd(1e-2, momentum=0.9, weight_decay=1e-3)
    )
    transition_opt: OptimizerSpec = field(
        default_factory=lambda: sgd(1e-2, momentum=0.6)
    )
    # Classifier optimizer from the end of the warm-up on (None keeps
    # classifier_opt); the noisy-posterior fit sets it, see estimators.
    head_opt: OptimizerSpec | None = None
    lr_schedule: tuple[tuple[int, float], ...] = ()
    selection_metric: str = "noisy-val-loss"


class OptimizerState:
    """Slot state for one optimizer over one array."""

    def __init__(self, spec: OptimizerSpec, param: np.ndarray):
        if spec.kind not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer kind {spec.kind!r}")
        self.spec = spec
        self.t = 0
        self.m = np.zeros_like(param)
        self.v = np.zeros_like(param)

    def step(self, w: np.ndarray, g: np.ndarray, lr_scale: float = 1.0) -> None:
        """In-place update. SGD: v <- mu v + g + wd w; w <- w - lr v."""
        spec = self.spec
        lr = spec.lr * lr_scale
        self.t += 1
        if spec.weight_decay:
            g = g + spec.weight_decay * w
        if spec.kind == "sgd":
            self.m *= spec.momentum
            self.m += g
            w -= lr * self.m
        else:
            self.m *= ADAM_BETA1
            self.m += (1.0 - ADAM_BETA1) * g
            self.v *= ADAM_BETA2
            self.v += (1.0 - ADAM_BETA2) * g * g
            mhat = self.m / (1.0 - ADAM_BETA1**self.t)
            vhat = self.v / (1.0 - ADAM_BETA2**self.t)
            w -= lr * mhat / (np.sqrt(vhat) + ADAM_EPS)


def lr_scale_at(schedule: tuple[tuple[int, float], ...], epoch: int) -> float:
    """Cumulative 1/divisor product; entry (e, d) takes effect after epoch e."""
    scale = 1.0
    for at_epoch, divisor in schedule:
        if epoch > at_epoch:
            scale /= divisor
    return scale


@dataclass
class StepStats:
    loss: float
    fidelity: float
    logdet_sign: float
    logabsdet: float
    clamp_events: int
    det_sign_events: int


def loss_and_grads(
    params: model.ClassifierParams,
    tt: transition.TrainableTransition | np.ndarray,
    x: np.ndarray,
    y: np.ndarray | None,
    lam: float,
    soft_targets: np.ndarray | None = None,
    natural: bool = False,
    fixed_logdet: tuple[float, float] | None = None,
    _grad_out: tuple[list[np.ndarray], list[np.ndarray]] | None = None,
):
    """Loss and exact gradients for one batch, composed through `tt`.

    `tt` is a TrainableTransition, validated and realized once per call and
    differentiated from that realization's gates and column sums, or a
    realized matrix held fixed, which gets no gradient at all. Fidelity is
    the mean negative log of the composed probability assigned to each
    target; `soft_targets` (rows on the simplex) replaces hard labels with
    an expected cross-entropy when given. The volume term lam * log|det| is
    added whenever lam != 0 (its gradient lam * inverse-transpose flows to a
    trainable transition); a singular transition then raises
    linalg.SingularMatrixError. With `natural`, the transition gradient is
    the gates' natural-gradient direction (`transition.backward`).
    `fixed_logdet`, when given, is `linalg.signed_logdet` of a fixed `tt`,
    so that a caller stepping many batches against one matrix factors it
    once. `_grad_out`, (weight, bias) arrays shaped like the classifier's,
    receives its gradients in place.

    Returns (stats, grad_weights_or_None, (grad_ws, grad_bs)).
    """
    trainable = isinstance(tt, transition.TrainableTransition)
    if trainable:
        t_hat, gates, sums = transition._forward_cached(tt)
    else:
        t_hat = tt
    probs, acts = model._forward_cached(params, x)
    q = probs @ t_hat.T
    n = x.shape[0]

    if soft_targets is not None:
        qc = np.maximum(q, PROB_CLAMP)
        clamp_events = int(((q < PROB_CLAMP) & (soft_targets > 0)).sum())
        fidelity = float(-(soft_targets * np.log(qc)).sum() / n)
        grad_q = -soft_targets / (n * qc)
        grad_probs = grad_q @ t_hat
    else:
        rows = np.arange(n)
        qy = q[rows, y]
        clamp_events = np.count_nonzero(qy < PROB_CLAMP)
        qy = np.maximum(qy, PROB_CLAMP)
        fidelity = -float(np.log(qy).sum()) / n
        g = -1.0 / (n * qy)
        # d(loss)/d(q) is g on each row's label and 0 elsewhere, so its
        # product with t_hat is a row gather.
        grad_probs = t_hat[y]
        grad_probs *= g[:, None]
        if trainable:
            grad_q = np.zeros_like(q)
            grad_q[rows, y] = g
    if trainable:
        grad_t = grad_q.T @ probs

    loss = fidelity
    if fixed_logdet is not None:
        sign, logabs = fixed_logdet
    else:
        sign, logabs = linalg.signed_logdet(t_hat)
    det_sign_events = int(sign <= 0)
    if lam != 0.0:
        if not math.isfinite(logabs):
            raise linalg.SingularMatrixError(
                "realized transition is numerically singular"
            )
        loss = fidelity + lam * logabs
        if trainable:
            grad_t = grad_t + lam * linalg.inverse_transpose(t_hat)

    grad_w = (
        transition._backward_cached(t_hat, gates, sums, grad_t, natural)
        if trainable else None
    )
    grad_ws, grad_bs = model._backward_cached(
        params, acts, probs, grad_probs, _grad_out
    )
    stats = StepStats(loss, fidelity, sign, logabs, clamp_events, det_sign_events)
    return stats, grad_w, (grad_ws, grad_bs)


def confusion_start(
    params: model.ClassifierParams, x: np.ndarray, targets: np.ndarray, start: np.ndarray
) -> transition.TrainableTransition:
    """Transition to start the joint phase from: column j is the mean target
    distribution over the points the classifier assigns to class j.

    `targets` holds one-hot or soft label rows. A class the classifier never
    predicts keeps its column of `start`. See the module docstring for why
    this start lies inside the true transition's simplex.
    """
    pred = model.forward_batch(params, x).argmax(axis=1)
    counts = targets.T @ np.eye(targets.shape[1])[pred]
    mass = counts.sum(axis=0)
    t = np.where(mass > 0.0, counts / np.where(mass > 0.0, mass, 1.0), start)
    return transition.weights_for(t)


# ---------------------------------------------------------------------------
# Metrics


def _val_metric(metric, params, t_hat, x, y, soft_targets) -> float:
    if x.shape[0] == 0:
        return float("nan")
    q = model.forward_batch(params, x) @ t_hat.T
    target = soft_targets.argmax(axis=1) if soft_targets is not None else y
    if metric == "noisy-val-accuracy":
        return float((q.argmax(axis=1) == target).mean())
    # noisy-val-loss: negated mean composed cross-entropy, so that larger is
    # always better for selection.
    if soft_targets is not None:
        ce = -(soft_targets * np.log(np.maximum(q, PROB_CLAMP))).sum() / x.shape[0]
    else:
        ce = -np.log(np.maximum(q[np.arange(x.shape[0]), y], PROB_CLAMP)).mean()
    return float(-ce)


# ---------------------------------------------------------------------------
# Training loop


@dataclass
class EpochRow:
    epoch: int
    fidelity: float
    logdet_sign: float
    logabsdet: float
    est_error: float | None
    val_metric: float
    det_sign_events: int


@dataclass
class TrainHistory:
    rows: list[EpochRow] = field(default_factory=list)

    def to_csv(self) -> str:
        lines = ["epoch,fidelity,logdet_sign,logabsdet,est_error,val_metric,det_sign_events"]
        for r in self.rows:
            est = "" if r.est_error is None else repr(r.est_error)
            val = "" if math.isnan(r.val_metric) else repr(r.val_metric)
            lines.append(
                f"{r.epoch},{repr(r.fidelity)},{repr(r.logdet_sign)},"
                f"{repr(r.logabsdet)},{est},{val},{r.det_sign_events}"
            )
        return "\n".join(lines) + "\n"


@dataclass
class TrainResult:
    params: model.ClassifierParams
    transition_weights: np.ndarray | None  # None when the transition was fixed
    transition: np.ndarray  # realized matrix of the selected epoch
    history: TrainHistory
    best_epoch: int


def train(
    train_set,
    val_set,
    config: TrainConfig,
    fixed_transition: np.ndarray | None = None,
    true_transition: np.ndarray | None = None,
    soft_targets: np.ndarray | None = None,
    val_soft_targets: np.ndarray | None = None,
) -> TrainResult:
    """Train on `train_set` (its noisy labels when present), selecting the
    checkpoint by the configured metric on `val_set`.

    `fixed_transition` freezes the transition at the given matrix (no
    transition updates; with lam = 0 this is exactly empirical risk
    minimization with a forward-corrected loss). `true_transition`, when
    known, is only used to record the per-epoch estimation error.
    `soft_targets` replaces the training labels with full distributions.

    The first WARMUP_EPOCHS epochs, but never the last epoch, train the
    classifier alone with the softmax head; see the module docstring. They
    are skipped when the head is softmax and the transition fixed, where
    they would change nothing, and in a one-epoch run, which trains jointly
    from the default start. Selection only considers the epochs after them,
    and from the end of the warm-up (or from the start, without one) the
    classifier steps with `config.head_opt` when that is set. The sparsemax
    head is refused with a fixed transition that has a zero entry.

    A non-finite loss raises FloatingPointError naming its epoch and batch,
    non-finite classifier or transition weights raise it naming the epoch,
    and a singular realized transition raises linalg.SingularMatrixError.

    Ties in the selection metric resolve to the LATEST epoch attaining the
    maximum (the transition keeps converging after the metric plateaus).
    """
    if config.selection_metric not in SELECTION_METRICS:
        raise ValueError(
            f"unknown selection metric {config.selection_metric!r}; "
            f"expected one of {SELECTION_METRICS}"
        )
    if config.batch_size < 1 or config.epochs < 0:
        raise ValueError("batch_size must be >= 1 and epochs >= 0")
    x_train = np.asarray(train_set.x, dtype=np.float64)
    y_train = train_set.labels if soft_targets is None else None
    x_val = np.asarray(val_set.x, dtype=np.float64)
    y_val = val_set.labels if val_soft_targets is None else None
    classes = train_set.classes
    n = x_train.shape[0]
    if n == 0:
        raise ValueError("empty training set")

    if (
        config.head == "sparsemax"
        and fixed_transition is not None
        and (np.asarray(fixed_transition) <= 0.0).any()
    ):
        raise ValueError(
            "the sparsemax head outputs exact zeros, which a fixed transition "
            "with a zero entry passes on to observed labels; use the softmax "
            "or sparsemax-smoothed head"
        )
    # With the softmax head and a fixed transition the warm-up changes nothing.
    warmup = 0 if (fixed_transition is not None and config.head == "softmax") else (
        min(WARMUP_EPOCHS, max(config.epochs - 1, 0))
    )
    params = model.init_classifier(
        x_train.shape[1], tuple(config.hidden), classes, config.seed, config.head
    )
    if warmup:
        params.head = "softmax"
    # One buffer holds every classifier parameter, weights first, and one
    # its gradient, so the optimizer steps them as a single array.
    theta = model._flatten(params)
    grad_theta = np.empty_like(theta)
    grad_views = model._views(grad_theta, params)
    weight_count = sum(w.size for w in params.weights)
    tt = None if fixed_transition is not None else transition.init_weights(classes)
    if fixed_transition is not None:
        noise.validate_transition(fixed_transition, classes=classes, col_tol=1e-6)
    # During the warm-up the transition is a constant, stepped like a fixed one.
    frozen = fixed_transition if tt is None else transition.realize(tt)
    frozen_logdet = linalg.signed_logdet(frozen)
    t_hat = frozen

    head_opt = config.head_opt or config.classifier_opt
    # Weight decay never touches the transition weights.
    transition_opt = replace(config.transition_opt, weight_decay=0.0)
    opt_theta = OptimizerState(config.classifier_opt if warmup else head_opt, theta)
    opt_w = None if tt is None or warmup else OptimizerState(transition_opt, tt.weights)

    history = TrainHistory()
    best_metric = -np.inf
    best_params = best_weights = best_t = None
    best_epoch = 0

    for epoch in range(1, config.epochs + 1):
        if warmup and epoch == warmup + 1:
            params.head = config.head
            if config.head_opt is not None:
                opt_theta = OptimizerState(head_opt, theta)
            if tt is not None:
                targets = (
                    soft_targets if soft_targets is not None
                    else np.eye(classes)[y_train]
                )
                tt = confusion_start(params, x_train, targets, frozen)
                opt_w = OptimizerState(transition_opt, tt.weights)
        joint = tt is not None and epoch > warmup
        scale = lr_scale_at(config.lr_schedule, epoch)
        order = np.random.default_rng(
            [config.seed, _SHUFFLE_STREAM, epoch]
        ).permutation(n)
        # One gather per epoch; each batch is then a slice of it.
        x_epoch = x_train[order]
        y_epoch = None if y_train is None else y_train[order]
        s_epoch = None if soft_targets is None else soft_targets[order]
        fid_sum = 0.0
        sign_events = 0
        for start in range(0, n, config.batch_size):
            batch = slice(start, start + config.batch_size)
            xb = x_epoch[batch]
            yb = None if y_epoch is None else y_epoch[batch]
            sb = None if s_epoch is None else s_epoch[batch]
            stats, grad_w, _ = loss_and_grads(
                params, tt if joint else frozen, xb, yb, config.lam,
                soft_targets=sb, natural=True,
                fixed_logdet=None if joint else frozen_logdet,
                _grad_out=grad_views,
            )
            if not math.isfinite(stats.loss):
                raise FloatingPointError(
                    f"non-finite loss at epoch {epoch}, batch {start // config.batch_size}"
                )
            fid_sum += stats.fidelity * len(xb)
            sign_events += stats.det_sign_events
            opt_theta.step(theta, grad_theta, scale)
            if joint:
                opt_w.step(tt.weights, grad_w, scale)
                if not np.isfinite(tt.weights).all():
                    raise FloatingPointError(
                        f"non-finite transition weights at epoch {epoch}"
                    )
            if not np.isfinite(theta[:weight_count]).all():
                raise FloatingPointError(
                    f"non-finite classifier weights at epoch {epoch}"
                )

        t_hat = frozen if tt is None else transition.realize(tt)
        sign, logabs = linalg.signed_logdet(t_hat)
        est = (
            noise.estimation_error(true_transition, t_hat)
            if true_transition is not None
            else None
        )
        metric = _val_metric(
            config.selection_metric, params, t_hat, x_val, y_val, val_soft_targets
        )
        history.rows.append(
            EpochRow(epoch, fid_sum / n, sign, logabs, est, metric, sign_events)
        )
        if epoch > warmup and not math.isnan(metric) and metric >= best_metric:
            best_metric = metric
            best_params = params.copy()
            best_weights = None if tt is None else tt.weights.copy()
            best_t = t_hat
            best_epoch = epoch

    if best_epoch == 0:
        # No epoch was selected (an empty validation set or zero epochs):
        # the final state stands.
        best_params = params.copy()
        best_weights = None if tt is None else tt.weights.copy()
        best_t = t_hat
        best_epoch = len(history.rows)

    return TrainResult(
        params=best_params,
        transition_weights=best_weights,
        transition=best_t,
        history=history,
        best_epoch=best_epoch,
    )
