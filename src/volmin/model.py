"""Classifiers: linear models and small tanh MLPs, with exact backward.

Parameters are per-layer weight matrices (fan_out x fan_in), bias vectors
and an output head. Hidden layers (zero, one, or two) use tanh; the output
layer feeds the head:

  softmax             max-subtracted softmax; every probability is strictly
                      positive.
  sparsemax           Euclidean projection of the logits onto the simplex
                      (Martins & Astudillo, ICML 2016); it outputs exact
                      zeros, so it can represent posteriors on the faces of
                      the simplex.
  sparsemax-smoothed  (1 - SMOOTHING) * sparsemax + SMOOTHING / C: nearly the
                      same shapes, but every class keeps SMOOTHING / C, so a
                      label is never assigned probability zero.

`_forward_cached` keeps each layer's input, and `_backward_cached`
propagates d(loss)/d(probability) from it through the head's Jacobian and
the layers, returning exact gradients for every parameter.

Parameters may also carry a leading trial axis, (S, fan_out, fan_in) and
(S, fan_out), with inputs (S, n, in_dim): `_forward_cached` and
`_backward_cached` then run S classifiers at once, each exactly as it runs
alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg

_INIT_STREAM = 501

HEADS = ("softmax", "sparsemax", "sparsemax-smoothed")

# Probability mass the smoothed sparsemax head spreads uniformly over classes.
SMOOTHING = 0.01


@dataclass
class ClassifierParams:
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    head: str = "softmax"

    def __post_init__(self):
        if self.head not in HEADS:
            raise ValueError(f"unknown head {self.head!r}; expected one of {HEADS}")

    def copy(self) -> "ClassifierParams":
        return ClassifierParams(
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
            self.head,
        )


def init_classifier(
    in_dim: int,
    hidden: tuple[int, ...],
    classes: int,
    seed: int,
    head: str = "softmax",
) -> ClassifierParams:
    """Seeded init: weights uniform in [-a, a] with a = sqrt(6/(fan_in+fan_out)),
    biases zero. `hidden` may name at most two tanh layers; () is a linear
    model. The head does not consume randomness.
    """
    if len(hidden) > 2:
        raise ValueError(f"at most two hidden layers supported, got {len(hidden)}")
    if in_dim < 1 or classes < 2:
        raise ValueError(f"bad dimensions: in_dim={in_dim}, classes={classes}")
    if any(h < 1 for h in hidden):
        raise ValueError(f"hidden widths must be positive, got {hidden}")
    rng = np.random.default_rng([seed, _INIT_STREAM])
    dims = [in_dim, *hidden, classes]
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        a = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-a, a, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return ClassifierParams(weights, biases, head)


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, computed in place: `logits` is overwritten."""
    logits -= logits.max(axis=-1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=-1, keepdims=True)
    return logits


def _sparsemax(logits: np.ndarray) -> np.ndarray:
    """Row-wise projection onto the simplex: max(z - tau, 0), with tau set so
    that the row sums to 1 over the support {k : 1 + k z_(k) > sum_{j<=k} z_(j)}
    of the descending-sorted logits."""
    zs = -np.sort(-logits, axis=-1)
    cs = np.cumsum(zs, axis=-1)
    classes = logits.shape[-1]
    size = (1.0 + np.arange(1, classes + 1) * zs > cs).sum(axis=-1)
    # cs[..., r, size_r - 1], gathered from the flattened rows.
    rows = cs.reshape(-1, classes)
    at = rows[np.arange(rows.shape[0]), size.ravel() - 1].reshape(size.shape)
    tau = (at - 1.0) / size
    return np.maximum(logits - tau[..., None], 0.0)


def _forward_cached(
    params: ClassifierParams, x: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Returns (probs, activations); activations[l] is the input to layer l.
    Each layer's bias add and tanh, and the softmax, overwrite the layer's
    product instead of allocating."""
    acts = [x]
    h = x
    last = len(params.weights) - 1
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = h @ w.swapaxes(-1, -2)
        h += b[..., None, :]
        if l < last:
            np.tanh(h, out=h)
            acts.append(h)
    if params.head == "softmax":
        probs = _softmax(h)
    else:
        probs = _sparsemax(h)
        if params.head == "sparsemax-smoothed":
            probs *= 1.0 - SMOOTHING
            probs += SMOOTHING / probs.shape[-1]
    return probs, acts


def forward_batch(params: ClassifierParams, x: np.ndarray) -> np.ndarray:
    """Class-probability rows for a batch (n x in_dim) -> (n x C)."""
    x = linalg.as_matrix(x, "inputs")
    probs, _ = _forward_cached(params, x)
    return probs


def _backward_cached(
    params: ClassifierParams,
    acts: list[np.ndarray],
    probs: np.ndarray,
    grad_probs: np.ndarray,
    out: tuple[list[np.ndarray], list[np.ndarray]] | None = None,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Backward from the outputs of `_forward_cached`, without a second
    forward. The gradients are written into `out`, (weight, bias) arrays
    shaped like the parameters (new ones when None), and returned. The
    hidden activations in `acts` are overwritten by tanh derivatives."""
    if params.head != "softmax":
        # Sparsemax Jacobian: centre g on the support, zero elsewhere. The
        # smoothed head scales the sparsemax output by (1 - SMOOTHING).
        floor = 0.0
        if params.head == "sparsemax-smoothed":
            floor = SMOOTHING / probs.shape[-1]
            grad_probs = (1.0 - SMOOTHING) * grad_probs
        support = probs > floor
        mean = (grad_probs * support).sum(axis=-1, keepdims=True) / support.sum(
            axis=-1, keepdims=True
        )
        dz = grad_probs - mean
        dz *= support
    else:
        # Softmax Jacobian: dz = p * (g - <g, p>)
        inner = (grad_probs * probs).sum(axis=-1, keepdims=True)
        dz = grad_probs - inner
        dz *= probs
    if out is None:
        out = [np.empty_like(w) for w in params.weights], [
            np.empty_like(b) for b in params.biases
        ]
    grad_ws, grad_bs = out
    for l in range(len(params.weights) - 1, -1, -1):
        np.matmul(dz.swapaxes(-1, -2), acts[l], out=grad_ws[l])
        dz.sum(axis=-2, out=grad_bs[l])
        if l > 0:
            # Through tanh: the derivative 1 - a^2, formed in acts[l].
            a = acts[l]
            np.square(a, out=a)
            np.subtract(1.0, a, out=a)
            dz = dz @ params.weights[l]
            dz *= a
    return grad_ws, grad_bs


def _views(
    flat: np.ndarray, params: ClassifierParams
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Views of `flat` shaped like every weight of `params`, then every bias.
    A leading axis of `flat` (one buffer row per trial) leads every view."""
    views, at = [], 0
    lead = flat.shape[:-1]
    for p in (*params.weights, *params.biases):
        views.append(flat[..., at : at + p.size].reshape(lead + p.shape))
        at += p.size
    layers = len(params.weights)
    return views[:layers], views[layers:]


def _flatten(params: ClassifierParams) -> np.ndarray:
    """A copy of the parameters as one contiguous float64 buffer, weights
    first, so that an optimizer steps every parameter with a single array
    operation."""
    return np.concatenate([p.ravel() for p in (*params.weights, *params.biases)])


def save_classifier(path, params: ClassifierParams) -> None:
    """Layers as named blocks, then a 1 x 1 `head.<name>` block naming the head."""
    blocks = []
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        blocks.append((f"layer{l}.weight", w))
        blocks.append((f"layer{l}.bias", b[None, :]))
    blocks.append((f"head.{params.head}", np.ones((1, 1))))
    linalg.write_named_blocks(path, blocks)
