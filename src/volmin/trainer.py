"""Joint training of the classifier and the transition matrix.

The objective is the mean cross-entropy of noisy labels under the composed
predictor (transition @ classifier probabilities) plus `lam` times the
log-determinant of the realized transition -- the volume penalty that makes
the factorization identifiable. Per minibatch, one `loss_and_grads` call
produces gradients for both parameter sets, and both are stepped from it.

Trials in lockstep: `train` steps S trials of one config, which differ only
in their seed (and so in their data), as one `_Stack` of arrays with a
leading trial axis. Each minibatch is one `loss_and_grads` call and one
optimizer step for all S, whose numpy calls cost far less than S times one
trial's in this call-overhead-bound regime, and each trial gets exactly the
bits it gets alone. A single trial is the same loop with S = 1.

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
is consumed after initialization. A numerical failure ends its trial (see
`train`), which the CLI maps to exit 3 naming the seed and the run.
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


class _Stack:
    """The trials of one `train` call still training: row `pos` of each array
    here is trial `live[pos]`. The arrays are the classifier buffer `theta`
    (one trial's parameters, weights first, so an optimizer steps them as one
    array) and its gradient, the transition `weights` (None when fixed), both
    optimizers' slots, and the epoch's inputs `x`, targets `t` and sums.
    `failed` maps each trial that left the stack to its exception. A step
    uses the views `bind` makes; once one trial is left they are views of its
    row (`lead` = 0), so its per-trial numbers, and the sums that `gather`
    starts, are numpy scalars: the same bits without the call overhead of
    many tiny array operations."""

    def __init__(self, inits: list[model.ClassifierParams], head: str, opt: OptimizerSpec):
        self.live = np.arange(len(inits))
        self.theta = np.stack([model._flatten(p) for p in inits])
        self.grad_theta = np.empty_like(self.theta)
        self.shapes, self.head = inits[0], head
        self.opt_theta = OptimizerState(opt, self.theta)
        self.weights = self.opt_w = None
        self.x = self.t = self.fid_sum = self.sign_events = None  # set by `gather`
        self.failed: dict[int, Exception] = {}
        self.bind()

    def bind(self) -> None:
        self.lead = lead = 0 if len(self.live) == 1 else slice(None)
        views = model._views(self.theta[lead], self.shapes)
        self.step_params = model.ClassifierParams(*views, self.head)
        self.step_grads = model._views(self.grad_theta[lead], self.shapes)
        self.step_tt = None if self.weights is None else (
            transition.TrainableTransition(self.weights[lead])
        )

    def row(self, pos: int) -> tuple[model.ClassifierParams, np.ndarray | None]:
        """Copies of one trial's classifier parameters and transition weights."""
        params = model.ClassifierParams(*model._views(self.theta[pos], self.shapes), self.head)
        return params.copy(), None if self.weights is None else self.weights[pos].copy()

    def gather(self, orders: np.ndarray, x: np.ndarray, t: np.ndarray) -> None:
        """Gather each trial's inputs and targets once per epoch, in its order,
        so that each batch is a slice; zero the epoch's sums."""
        pick = (self.live[:, None], orders)
        self.x, self.t = x[pick], t[pick]
        self.fid_sum = np.zeros(len(self.live))[self.lead]
        self.sign_events = np.zeros(len(self.live), dtype=np.int64)[self.lead]

    def keep(self, mask: np.ndarray) -> None:
        """Keep only the rows `mask` selects, in every array."""
        self.live, self.theta = self.live[mask], self.theta[mask]
        self.grad_theta, self.x, self.t = self.grad_theta[mask], self.x[mask], self.t[mask]
        self.fid_sum = np.atleast_1d(self.fid_sum)[mask]
        self.sign_events = np.atleast_1d(self.sign_events)[mask]
        if self.weights is not None:
            self.weights = self.weights[mask]
        for opt in (self.opt_theta, self.opt_w):
            if opt is not None:
                opt.m, opt.v = opt.m[mask], opt.v[mask]
        self.bind()

    def fail(self, failed: dict[int, Exception]) -> None:
        """Record each failed row's exception and take its trial out."""
        for pos, exc in failed.items():
            self.failed[int(self.live[pos])] = exc
        mask = np.ones(len(self.live), dtype=bool)
        mask[list(failed)] = False
        self.keep(mask)


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
    training sets of one size; `fixed_transition` is shared. The result is a
    list with one entry per trial: its TrainResult, or the exception it
    would raise alone. A failed trial leaves the stack; the others go on.
    """
    single = not isinstance(train_set, list)
    if single:
        train_set, val_set, config = [train_set], [val_set], [config]
        true_transition, val_soft_targets = [true_transition], [val_soft_targets]
        soft_targets = None if soft_targets is None else [soft_targets]
    trials = len(train_set)
    true_transition = true_transition or [None] * trials
    val_soft_targets = val_soft_targets or [None] * trials
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
    x_train = np.stack([ts.x for ts in train_set])
    # Per trial, its training labels or, with soft targets, their rows.
    soft = soft_targets is not None
    t_train = np.stack(soft_targets if soft else [ts.labels for ts in train_set])
    classes = train_set[0].classes
    n = x_train.shape[1]
    if n == 0:
        raise ValueError("empty training set")

    trainable = fixed_transition is None
    # With the softmax head and a fixed transition the warm-up changes nothing.
    warmup = 0 if (not trainable and cfg.head == "softmax") else (
        min(WARMUP_EPOCHS, max(cfg.epochs - 1, 0))
    )
    stack = _Stack([
        model.init_classifier(x_train.shape[2], tuple(cfg.hidden), classes, c.seed)
        for c in config
    ], "softmax" if warmup else cfg.head, cfg.classifier_opt)
    weight_count = sum(w.size for w in stack.shapes.weights)
    if trainable:
        # From here on `fixed_transition` is the matrix the classifier trains
        # against before the transition moves: the default start, realized.
        default = transition.init_weights(classes)
        fixed_transition = transition.realize(default)
        stack.weights = np.stack([default.weights] * trials)
    else:
        noise.validate_transition(fixed_transition, classes=classes, col_tol=1e-6)
        if cfg.head == "sparsemax" and (np.asarray(fixed_transition) <= 0.0).any():
            raise ValueError(
                "the sparsemax head outputs exact zeros, which a fixed transition "
                "with a zero entry passes on to observed labels; use the softmax "
                "or sparsemax-smoothed head"
            )
    fixed_logdet = linalg.signed_logdet(fixed_transition)

    # Per trial, by its index in the arguments: its selected checkpoint, and
    # the metric that selected it. An empty validation set selects every
    # epoch, so the last one stands; zero epochs leave the start.
    results = [
        TrainResult(*stack.row(pos), fixed_transition, TrainHistory(), 0)
        for pos in range(trials)
    ]
    best_metric = [-np.inf] * trials
    # Each batch of an epoch: its index, its slice and its number of rows.
    batches = [
        (b, slice(lo, lo + cfg.batch_size), min(lo + cfg.batch_size, n) - lo)
        for b, lo in enumerate(range(0, n, cfg.batch_size))
    ]
    for epoch in range(1, cfg.epochs + 1):
        if epoch == warmup + 1:
            # The joint phase starts, after the warm-up or without one.
            stack.head = cfg.head
            if cfg.head_opt is not None:
                stack.opt_theta = OptimizerState(cfg.head_opt, stack.theta)
            if trainable:
                if warmup:
                    # One trial at a time: a stacked forward over every
                    # training row would hold S copies of its activations.
                    starts = []
                    for pos, i in enumerate(stack.live.tolist()):
                        targets = t_train[i] if soft else np.eye(classes)[t_train[i]]
                        starts.append(confusion_start(
                            stack.row(pos)[0], x_train[i], targets, fixed_transition
                        ).weights)
                    stack.weights = np.stack(starts)
                # Weight decay never touches the transition weights.
                spec = replace(cfg.transition_opt, weight_decay=0.0)
                stack.opt_w = OptimizerState(spec, stack.weights)
            stack.bind()
        joint = trainable and epoch > warmup
        scale = lr_scale_at(cfg.lr_schedule, epoch)
        stack.gather(np.stack([
            np.random.default_rng([config[i].seed, _SHUFFLE_STREAM, epoch]).permutation(n)
            for i in stack.live.tolist()
        ]), x_train, t_train)
        for b, batch, size in batches:
            stats = None
            # A failed trial leaves before anything is stepped; retry without it.
            while stats is None and len(stack.live):
                t = stack.t[stack.lead, batch]
                try:
                    stats, grad_w, _ = loss_and_grads(
                        stack.step_params,
                        stack.step_tt if joint else fixed_transition,
                        stack.x[stack.lead, batch], None if soft else t, cfg.lam,
                        soft_targets=t if soft else None,
                        natural=True,
                        fixed_logdet=None if joint else fixed_logdet,
                        _grad_out=stack.step_grads,
                    )
                except linalg.SingularMatrixError as exc:
                    rows = range(len(stack.live)) if exc.trials is None else exc.trials
                    stack.fail({pos: exc for pos in rows})
                    continue
                if not _finite(stats.loss):
                    message = f"non-finite loss at epoch {epoch}, batch {b}"
                    bad = np.flatnonzero(~np.isfinite(stats.loss))
                    stack.fail({pos: FloatingPointError(message) for pos in bad})
                    stats = None
            if stats is None:
                break
            stack.fid_sum += stats.fidelity * size
            stack.sign_events += stats.det_sign_events
            stack.opt_theta.step(stack.theta, stack.grad_theta, scale)
            if joint:
                stack.opt_w.step(stack.weights, grad_w, scale)
            # A trial with both non-finite is named by its transition weights.
            for part in ("transition", "classifier") if joint else ("classifier",):
                w = stack.weights if part == "transition" else stack.theta[:, :weight_count]
                if not np.isfinite(w).all():
                    bad = np.flatnonzero(~np.isfinite(w.reshape(len(w), -1)).all(axis=1))
                    message = f"non-finite {part} weights at epoch {epoch}"
                    stack.fail({pos: FloatingPointError(message) for pos in bad})
        if not len(stack.live):
            break

        if trainable:
            t_hats = transition.realize(transition.TrainableTransition(stack.weights))
            signs, logabss = linalg.signed_logdet(t_hats)
        fid_sum = np.atleast_1d(stack.fid_sum)
        sign_events = np.atleast_1d(stack.sign_events)
        for pos, i in enumerate(stack.live.tolist()):
            if trainable:
                t_hat, sign, logabs = t_hats[pos], float(signs[pos]), float(logabss[pos])
            else:
                t_hat, (sign, logabs) = fixed_transition, fixed_logdet
            params, weights = stack.row(pos)
            est = (
                noise.estimation_error(true_transition[i], t_hat)
                if true_transition[i] is not None
                else None
            )
            metric = _val_metric(
                cfg.selection_metric, params, t_hat, val_set[i].x, val_set[i].labels,
                val_soft_targets[i],
            )
            history = results[i].history
            history.rows.append(EpochRow(
                epoch, float(fid_sum[pos] / n), sign, logabs, est, metric,
                int(sign_events[pos]),
            ))
            if epoch > warmup and (metric >= best_metric[i] or not val_set[i].n):
                best_metric[i] = metric
                results[i] = TrainResult(params, weights, t_hat, history, epoch)

    results = [stack.failed.get(i, result) for i, result in enumerate(results)]
    if single:
        if isinstance(results[0], Exception):
            raise results[0]
        return results[0]
    return results
