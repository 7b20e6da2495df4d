"""Joint training of the classifier and the transition matrix.

The objective is the mean cross-entropy of noisy labels under the composed
predictor (transition @ classifier probabilities) plus `lam` times the
log-determinant of the realized transition -- the volume penalty that makes
the factorization identifiable. Per minibatch, one `loss_and_grads` call
produces gradients for both parameter sets, and both are stepped from it.

Trials in lockstep: `train` takes S trials of one config, which differ only
in their seed (and so in their data), and gives every parameter, transition
weight and optimizer slot a leading trial axis. Each minibatch is then one
`loss_and_grads` call and one optimizer step for all S trials, whose numpy
calls cost far less than S times one trial's in this call-overhead-bound
regime, and each trial gets exactly the bits it gets alone. A single trial
is the same loop with S = 1.

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
    """Slot state for one optimizer over one array, or over a stack of
    arrays with one row per trial; the update is elementwise, so each row
    steps exactly as it would alone."""

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

    def keep(self, rows: np.ndarray) -> None:
        """Keep only the slots of the trials `rows` selects from a stack."""
        self.m = self.m[rows]
        self.v = self.v[rows]


def lr_scale_at(schedule: tuple[tuple[int, float], ...], epoch: int) -> float:
    """Cumulative 1/divisor product; entry (e, d) takes effect after epoch e."""
    scale = 1.0
    for at_epoch, divisor in schedule:
        if epoch > at_epoch:
            scale /= divisor
    return scale


@dataclass
class StepStats:
    """One batch's numbers; for a stack of trials, arrays with one entry
    per trial."""

    loss: float
    fidelity: float
    logdet_sign: float
    logabsdet: float
    clamp_events: int
    det_sign_events: int


def _finite(value) -> bool:
    """Whether a float, or every entry of an array, is finite; a float
    skips numpy's call overhead."""
    return math.isfinite(value) if isinstance(value, float) else np.isfinite(value).all()


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

    A stack of S trials: the classifier parameters, `x`, `y`,
    `soft_targets` and a trainable `tt`'s weights carry a leading trial
    axis, while a fixed matrix is shared by every trial. Each trial's
    gradients are then exactly its own call's, every stat is an array with
    one entry per trial, and a SingularMatrixError's `trials` names the
    trials whose transition is singular.

    Returns (stats, grad_weights_or_None, (grad_ws, grad_bs)).
    """
    trainable = isinstance(tt, transition.TrainableTransition)
    if trainable:
        t_hat, gates, sums = transition._forward_cached(tt)
    else:
        t_hat = tt
    probs, acts = model._forward_cached(params, x)
    q = probs @ t_hat.swapaxes(-1, -2)
    n = x.shape[-2]

    if soft_targets is not None:
        qc = np.maximum(q, PROB_CLAMP)
        clamp_events = ((q < PROB_CLAMP) & (soft_targets > 0)).sum(axis=(-2, -1))
        fidelity = -(soft_targets * np.log(qc)).sum(axis=(-2, -1)) / n
        grad_q = -soft_targets / (n * qc)
        grad_probs = grad_q @ t_hat
    else:
        # Each row's label entry, index (trial, row, label) in a stack.
        lead = () if y.ndim == 1 else (np.arange(len(y))[:, None],)
        at = (*lead, np.arange(n), y)
        qy = q[at]
        clamp_events = (qy < PROB_CLAMP).sum(axis=-1)
        qy = np.maximum(qy, PROB_CLAMP)
        fidelity = -np.log(qy).sum(axis=-1) / n
        g = -1.0 / (n * qy)
        # d(loss)/d(q) is g on each row's label and 0 elsewhere, so its
        # product with t_hat is a row gather.
        grad_probs = t_hat[(*lead, y)] if t_hat.ndim == 3 else t_hat[y]
        grad_probs *= g[..., None]
        if trainable:
            grad_q = np.zeros_like(q)
            grad_q[at] = g
    if trainable:
        grad_t = grad_q.swapaxes(-1, -2) @ probs

    loss = fidelity
    if fixed_logdet is not None:
        sign, logabs = fixed_logdet
    else:
        sign, logabs = linalg.signed_logdet(t_hat)
    det_sign_events = sign <= 0
    if lam != 0.0:
        if not _finite(logabs):
            raise linalg.SingularMatrixError(
                "realized transition is numerically singular",
                np.flatnonzero(~np.isfinite(logabs)) if np.ndim(logabs) else None,
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

    Lockstep: `train_set`, `val_set` and `config` may instead be lists with
    one entry per trial, and then `true_transition`, `soft_targets` and
    `val_soft_targets` are lists too when given (a `true_transition` entry
    may be None). The configs must be equal but for their seeds, and the
    training sets of one size; `fixed_transition` is shared. The trials
    step together, each exactly as it would alone, and the result is a
    list with one entry per trial: its TrainResult, or the exception it
    would raise alone. A failed trial leaves the stack; the others go on.
    """
    single = not isinstance(train_set, list)
    if single:
        train_set, val_set, config = [train_set], [val_set], [config]
        true_transition = [true_transition]
        soft_targets = None if soft_targets is None else [soft_targets]
        val_soft_targets = None if val_soft_targets is None else [val_soft_targets]
    trials = len(train_set)
    cfg = config[0]
    if any(replace(c, seed=cfg.seed) != cfg for c in config):
        raise ValueError("lockstep trials must share their config but for the seed")
    if cfg.selection_metric not in SELECTION_METRICS:
        raise ValueError(
            f"unknown selection metric {cfg.selection_metric!r}; "
            f"expected one of {SELECTION_METRICS}"
        )
    if cfg.batch_size < 1 or cfg.epochs < 0:
        raise ValueError("batch_size must be >= 1 and epochs >= 0")
    if len({ts.n for ts in train_set}) != 1:
        raise ValueError("lockstep trials need training sets of one size")
    if true_transition is None:
        true_transition = [None] * trials
    x_train = np.stack([np.asarray(ts.x, dtype=np.float64) for ts in train_set])
    y_train = (
        np.stack([ts.labels for ts in train_set]) if soft_targets is None else None
    )
    s_train = None if soft_targets is None else np.stack(soft_targets)
    x_val = [np.asarray(vs.x, dtype=np.float64) for vs in val_set]
    classes = train_set[0].classes
    n = x_train.shape[1]
    if n == 0:
        raise ValueError("empty training set")

    if (
        cfg.head == "sparsemax"
        and fixed_transition is not None
        and (np.asarray(fixed_transition) <= 0.0).any()
    ):
        raise ValueError(
            "the sparsemax head outputs exact zeros, which a fixed transition "
            "with a zero entry passes on to observed labels; use the softmax "
            "or sparsemax-smoothed head"
        )
    # With the softmax head and a fixed transition the warm-up changes nothing.
    warmup = 0 if (fixed_transition is not None and cfg.head == "softmax") else (
        min(WARMUP_EPOCHS, max(cfg.epochs - 1, 0))
    )
    inits = [
        model.init_classifier(x_train.shape[2], tuple(cfg.hidden), classes, c.seed)
        for c in config
    ]
    # One buffer row holds every classifier parameter of one trial, weights
    # first, and one its gradient, so the optimizer steps them as a single
    # array; `shapes` gives one trial's parameter shapes.
    shapes = inits[0]
    theta = np.stack([model._flatten(p) for p in inits])
    grad_theta = np.empty_like(theta)
    weight_count = sum(w.size for w in shapes.weights)
    head = "softmax" if warmup else cfg.head
    start = None if fixed_transition is not None else transition.init_weights(classes)
    if fixed_transition is not None:
        noise.validate_transition(fixed_transition, classes=classes, col_tol=1e-6)
    # During the warm-up the transition is a constant, stepped like a fixed one.
    frozen = fixed_transition if start is None else transition.realize(start)
    frozen_logdet = linalg.signed_logdet(frozen)
    tt = None if start is None else transition.TrainableTransition(
        np.stack([start.weights] * trials)
    )

    head_opt = cfg.head_opt or cfg.classifier_opt
    # Weight decay never touches the transition weights.
    transition_opt = replace(cfg.transition_opt, weight_decay=0.0)
    opt_theta = OptimizerState(cfg.classifier_opt if warmup else head_opt, theta)
    opt_w = None if tt is None or warmup else OptimizerState(transition_opt, tt.weights)

    # Per trial, by its index in the arguments: the outcome, the history and
    # the selected checkpoint (metric, params, weights, matrix, epoch).
    results: list = [None] * trials
    histories = [TrainHistory() for _ in range(trials)]
    best = [(-np.inf, None, None, None, 0)] * trials
    last_t = [frozen] * trials
    # The trials still training: row `pos` of every stacked array is trial
    # live[pos].
    live = np.arange(trials)
    x_epoch = y_epoch = s_epoch = fid_sum = sign_events = None

    def trial_params(pos: int) -> model.ClassifierParams:
        return model.ClassifierParams(*model._views(theta[pos], shapes), head)

    def bind():
        """What a step reads and writes: views of the stacked arrays, or,
        with one trial left, of that trial's row. Its per-trial numbers are
        then numpy scalars, not one-element arrays: the same bits, without
        the call overhead of many tiny array operations per step."""
        nonlocal lead, step_params, grad_views, step_tt
        if not len(live):
            return
        lead = slice(None) if len(live) > 1 else 0
        step_params = model.ClassifierParams(*model._views(theta[lead], shapes), head)
        grad_views = model._views(grad_theta[lead], shapes)
        step_tt = None if tt is None else transition.TrainableTransition(tt.weights[lead])

    def drop(failed: dict[int, Exception]) -> np.ndarray:
        """Record each failed row's exception and take its trial out of
        every stacked array; returns the kept rows' mask."""
        nonlocal live, theta, grad_theta, tt
        nonlocal x_epoch, y_epoch, s_epoch, fid_sum, sign_events
        for pos, exc in failed.items():
            results[live[pos]] = exc
        keep = np.ones(len(live), dtype=bool)
        keep[list(failed)] = False
        live, theta, grad_theta = live[keep], theta[keep], grad_theta[keep]
        opt_theta.keep(keep)
        if tt is not None:
            tt = transition.TrainableTransition(tt.weights[keep])
        if opt_w is not None:
            opt_w.keep(keep)
        x_epoch = x_epoch[keep]
        fid_sum = np.atleast_1d(fid_sum)[keep]
        sign_events = np.atleast_1d(sign_events)[keep]
        y_epoch = None if y_epoch is None else y_epoch[keep]
        s_epoch = None if s_epoch is None else s_epoch[keep]
        bind()
        return keep

    lead = step_params = grad_views = step_tt = None
    bind()
    for epoch in range(1, cfg.epochs + 1):
        if not len(live):
            break
        if warmup and epoch == warmup + 1:
            head = cfg.head
            if cfg.head_opt is not None:
                opt_theta = OptimizerState(head_opt, theta)
            if tt is not None:
                # One trial at a time: a stacked forward over every training
                # row would hold S copies of its activations.
                starts = []
                for pos, i in enumerate(live.tolist()):
                    targets = (
                        soft_targets[i] if soft_targets is not None
                        else np.eye(classes)[y_train[i]]
                    )
                    starts.append(confusion_start(
                        trial_params(pos), x_train[i], targets, frozen
                    ).weights)
                tt = transition.TrainableTransition(np.stack(starts))
                opt_w = OptimizerState(transition_opt, tt.weights)
            bind()
        joint = tt is not None and epoch > warmup
        scale = lr_scale_at(cfg.lr_schedule, epoch)
        orders = np.stack([
            np.random.default_rng([config[i].seed, _SHUFFLE_STREAM, epoch]).permutation(n)
            for i in live.tolist()
        ])
        # One gather per epoch; each batch is then a slice of it.
        pick = (live[:, None], orders)
        x_epoch = x_train[pick]
        y_epoch = None if y_train is None else y_train[pick]
        s_epoch = None if s_train is None else s_train[pick]
        # Per-trial sums: numpy scalars while one trial trains alone.
        fid_sum = np.zeros(len(live))[lead]
        sign_events = np.zeros(len(live), dtype=np.int64)[lead]
        for b, start in enumerate(range(0, n, cfg.batch_size)):
            batch = slice(start, start + cfg.batch_size)
            stats = None
            while stats is None and len(live):
                try:
                    stats, grad_w, _ = loss_and_grads(
                        step_params, step_tt if joint else frozen, x_epoch[lead, batch],
                        None if y_epoch is None else y_epoch[lead, batch], cfg.lam,
                        soft_targets=None if s_epoch is None else s_epoch[lead, batch],
                        natural=True,
                        fixed_logdet=None if joint else frozen_logdet,
                        _grad_out=grad_views,
                    )
                except linalg.SingularMatrixError as exc:
                    # Nothing was stepped: retry the batch without them.
                    rows = range(len(live)) if exc.trials is None else exc.trials
                    drop({pos: exc for pos in rows})
            if stats is None:
                break
            fid_sum += stats.fidelity * (min(start + cfg.batch_size, n) - start)
            sign_events += stats.det_sign_events
            if not _finite(stats.loss):
                message = f"non-finite loss at epoch {epoch}, batch {b}"
                bad = np.flatnonzero(~np.isfinite(stats.loss))
                keep = drop({pos: FloatingPointError(message) for pos in bad})
                if not len(live):
                    break
                if grad_w is not None:
                    grad_w = grad_w[keep]
            opt_theta.step(theta, grad_theta, scale)
            if joint:
                opt_w.step(tt.weights, grad_w, scale)
            bad_w = joint and not np.isfinite(tt.weights).all()
            if bad_w or not np.isfinite(theta[:, :weight_count]).all():
                failed = {}
                for pos in range(len(live)):
                    if bad_w and not np.isfinite(tt.weights[pos]).all():
                        failed[pos] = FloatingPointError(
                            f"non-finite transition weights at epoch {epoch}"
                        )
                    elif not np.isfinite(theta[pos, :weight_count]).all():
                        failed[pos] = FloatingPointError(
                            f"non-finite classifier weights at epoch {epoch}"
                        )
                drop(failed)
                if not len(live):
                    break

        if tt is not None and len(live):
            t_hats = transition.realize(tt)
            signs, logabss = linalg.signed_logdet(t_hats)
        fid_sum, sign_events = np.atleast_1d(fid_sum), np.atleast_1d(sign_events)
        for pos, i in enumerate(live.tolist()):
            if tt is None:
                t_hat, (sign, logabs) = frozen, frozen_logdet
            else:
                t_hat, sign, logabs = t_hats[pos], float(signs[pos]), float(logabss[pos])
            last_t[i] = t_hat
            trial = trial_params(pos)
            est = (
                noise.estimation_error(true_transition[i], t_hat)
                if true_transition[i] is not None
                else None
            )
            metric = _val_metric(
                cfg.selection_metric, trial, t_hat, x_val[i],
                val_set[i].labels if val_soft_targets is None else None,
                None if val_soft_targets is None else val_soft_targets[i],
            )
            histories[i].rows.append(EpochRow(
                epoch, float(fid_sum[pos] / n), sign, logabs, est, metric,
                int(sign_events[pos]),
            ))
            if epoch > warmup and not math.isnan(metric) and metric >= best[i][0]:
                weights = None if tt is None else tt.weights[pos].copy()
                best[i] = (metric, trial.copy(), weights, t_hat, epoch)

    for pos, i in enumerate(live.tolist()):
        _, best_params, best_weights, best_t, best_epoch = best[i]
        if best_epoch == 0:
            # No epoch was selected (an empty validation set or zero
            # epochs): the final state stands.
            best_params = trial_params(pos).copy()
            best_weights = None if tt is None else tt.weights[pos].copy()
            best_t = last_t[i]
            best_epoch = len(histories[i].rows)
        results[i] = TrainResult(
            params=best_params,
            transition_weights=best_weights,
            transition=best_t,
            history=histories[i],
            best_epoch=best_epoch,
        )
    if single:
        if isinstance(results[0], Exception):
            raise results[0]
        return results[0]
    return results
