"""Trainable transition matrix: construction, realization, backward.

The matrix is parameterized so that any finite weights realize a valid
transition: off-diagonal gates are sigmoids of free weights, the diagonal
gate is pinned at 1, and each column is normalized by its gate sum. That
makes every realized column sum to 1 with the diagonal entry strictly
largest in its column, for any finite weights. Diagonal weight entries carry
no parameters (kept at 0 and ignored); gradients flow only to off-diagonal
weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg

# Bounds `weights_for` keeps every off-diagonal gate within: [GATE_FLOOR,
# 1 - GATE_FLOOR], so that the weights stay finite.
GATE_FLOOR = 1e-3

@dataclass
class TrainableTransition:
    """Free weights of the transition parameterization (C x C, diagonal unused)."""

    weights: np.ndarray


def default_init_weight(classes: int) -> float:
    """Default off-diagonal weight: ln(1/(C-2)) for C >= 3, -2 for C = 2.

    At ln(1/(C-2)) every gate equals 1/(C-1), so the realized matrix starts
    at diagonal 1/2 with the rest of each column spread uniformly.
    """
    if classes < 2:
        raise ValueError(f"need at least 2 classes, got {classes}")
    if classes == 2:
        return -2.0
    return math.log(1.0 / (classes - 2))


def init_weights(classes: int, value: float | None = None) -> TrainableTransition:
    """Fresh weights, all off-diagonal entries at `value` (default above)."""
    if value is None:
        value = default_init_weight(classes)
    w = np.full((classes, classes), float(value))
    np.fill_diagonal(w, 0.0)
    return TrainableTransition(w)


def _sigmoid(w: np.ndarray) -> np.ndarray:
    # Both branches from e = exp(-|w|), which never overflows: 1 / (1 + e)
    # where w >= 0, e / (1 + e) below.
    e = np.exp(-np.abs(w))
    d = 1.0 + e
    return np.where(w >= 0, 1.0 / d, e / d)


def _gates(weights: np.ndarray) -> np.ndarray:
    a = _sigmoid(weights)
    np.fill_diagonal(a, 1.0)
    return a


def _column_sums(a: np.ndarray) -> np.ndarray:
    # fsum is exactly rounded, hence order-independent: realization commutes
    # with class permutations bit-for-bit.
    return np.array([math.fsum(col) for col in a.T.tolist()])


def _forward_cached(
    tt: TrainableTransition,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(realized matrix, gates, column sums): the gates and sums are what
    `_backward_cached` needs, so a step that goes both ways computes them
    once. The weights are validated here, once per call."""
    w = linalg.as_matrix(tt.weights, "transition weights")
    if w.shape[0] != w.shape[1] or w.shape[0] < 2:
        raise ValueError(f"weights must be square with C >= 2, got {w.shape}")
    a = _gates(w)
    s = _column_sums(a)
    return a / s, a, s


def realize(tt: TrainableTransition) -> np.ndarray:
    """Realized transition matrix: gates normalized per column."""
    return _forward_cached(tt)[0]


def backward(
    tt: TrainableTransition, grad_output: np.ndarray, natural: bool = False
) -> np.ndarray:
    """Map d(loss)/d(realized matrix) to d(loss)/d(weights).

    Chain: through the column normalization, then the sigmoid gates. The
    diagonal receives zero gradient (it carries no parameters).

    With `natural`, return the natural-gradient direction instead: the
    gradient divided by each gate's Fisher information in its logit,
    a(1-a), which is d(loss)/d(gate). A step along it moves a gate by
    lr * a(1-a) * d(loss)/d(gate), so a gate heading for 0 or 1 keeps
    closing a fixed fraction of the distance per step, where the plain
    gradient's extra a(1-a) factor stalls it in the sigmoid's flat tail.
    """
    t_hat, a, s = _forward_cached(tt)
    grad_output = linalg.as_matrix(grad_output, "grad_output")
    if grad_output.shape != t_hat.shape:
        raise ValueError(
            f"grad_output shape {grad_output.shape} != weights shape {t_hat.shape}"
        )
    return _backward_cached(t_hat, a, s, grad_output, natural)


def _backward_cached(
    t_hat: np.ndarray,
    a: np.ndarray,
    s: np.ndarray,
    grad_output: np.ndarray,
    natural: bool,
) -> np.ndarray:
    """`backward` from the outputs of `_forward_cached`, without a second
    forward or any validation."""
    # d T[k,j] / d A[i,j] = (delta_ki - T[k,j]) / s_j
    grad_gates = (grad_output - (grad_output * t_hat).sum(axis=0, keepdims=True)) / s
    grad_w = grad_gates if natural else grad_gates * a * (1.0 - a)
    np.fill_diagonal(grad_w, 0.0)
    return grad_w


def weights_for(t: np.ndarray) -> TrainableTransition:
    """Weights whose realization is the column-stochastic matrix `t`.

    Gate (i, j) is t[i, j] / t[j, j], clipped into [GATE_FLOOR, 1 - GATE_FLOOR]
    so that the weights stay finite and the diagonal stays strictly largest;
    a matrix whose gates all lie inside that range is reproduced exactly (up
    to rounding), any other is moved just enough to be realizable.
    """
    t = linalg.as_matrix(t, "transition matrix")
    if t.shape[0] != t.shape[1] or t.shape[0] < 2:
        raise ValueError(f"matrix must be square with C >= 2, got {t.shape}")
    diag = np.diag(t)
    a = t / np.where(diag > 0.0, diag, 1.0)
    a = np.where(diag > 0.0, a, 1.0)  # a zero diagonal: every gate maxed out
    a = np.clip(a, GATE_FLOOR, 1.0 - GATE_FLOOR)
    w = np.log(a) - np.log1p(-a)
    np.fill_diagonal(w, 0.0)
    return TrainableTransition(w)
