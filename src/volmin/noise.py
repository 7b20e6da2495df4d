"""Label-noise transition matrices and label corruption.

A transition matrix is a C x C column-stochastic float64 array whose column
j holds the flip distribution of clean class j: entry (i, j) is the
probability that clean label j is observed as label i. Every matrix built or
accepted here is diagonally dominant in the column sense: T[j, j] > T[i, j]
for all i != j.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import data, linalg

# Seed-stream tag for corrupt_labels (keeps streams for distinct purposes
# disjoint across the package).
_CORRUPT_STREAM = 101

NOISE_KINDS = ("symmetric", "pair", "custom")


@dataclass(frozen=True)
class NoiseSpec:
    """Declarative description of a noise process.

    kind: "symmetric" (uniform flips), "pair" (cyclic next-class flips), or
    "custom" (matrix loaded from `matrix_path` in the matrix text format).
    rate: flip probability; ignored for "custom".
    classes: number of classes C >= 2.
    """

    kind: str
    classes: int
    rate: float = 0.0
    matrix_path: str | None = None


def build_transition(spec: NoiseSpec) -> np.ndarray:
    """Construct and validate the transition matrix for `spec`."""
    c = spec.classes
    if c < 2:
        raise ValueError(f"need at least 2 classes, got {c}")
    if spec.kind == "symmetric":
        rate = float(spec.rate)
        limit = (c - 1) / c
        if not 0.0 <= rate < limit:
            raise ValueError(
                f"symmetric rate must lie in [0, {limit}) for {c} classes, got {rate}"
            )
        t = np.full((c, c), rate / (c - 1))
        np.fill_diagonal(t, 1.0 - rate)
        return t
    if spec.kind == "pair":
        rate = float(spec.rate)
        if not 0.0 <= rate < 0.5:
            raise ValueError(f"pair rate must lie in [0, 0.5), got {rate}")
        t = np.zeros((c, c))
        np.fill_diagonal(t, 1.0 - rate)
        t[(np.arange(c) + 1) % c, np.arange(c)] = rate
        return t
    if spec.kind == "custom":
        if not spec.matrix_path:
            raise ValueError("custom noise requires matrix_path")
        t = linalg.read_matrix_text(spec.matrix_path)
        try:
            validate_transition(t, classes=c, col_tol=1e-9)
        except ValueError as exc:
            raise ValueError(f"{spec.matrix_path}: {exc}") from None
        return t
    raise ValueError(f"unknown noise kind {spec.kind!r}; expected one of {NOISE_KINDS}")


def validate_transition(t: np.ndarray, classes: int, col_tol: float = 1e-9) -> None:
    """Reject matrices that are not `classes` x `classes`, column-stochastic
    and diagonally dominant."""
    t = linalg.as_matrix(t, "transition matrix")
    n, m = t.shape
    if (n, m) != (classes, classes):
        raise ValueError(f"transition matrix is {n}x{m}, expected {classes}x{classes}")
    if np.any(t < 0.0) or np.any(t > 1.0):
        raise ValueError("transition entries must lie in [0, 1]")
    sums = t.sum(axis=0)
    dev = np.abs(sums - 1.0)
    if dev.max() > col_tol:
        j = int(dev.argmax())
        raise ValueError(
            f"transition column {j} sums to {sums[j]!r}, expected 1 "
            f"(tolerance {col_tol:.0e})"
        )
    diag = np.diag(t)
    off_max = np.where(np.eye(n, dtype=bool), -np.inf, t).max(axis=0)
    if not np.all(diag > off_max):
        j = int(np.argmin(diag - off_max))
        raise ValueError(
            f"transition is not diagonally dominant: column {j} has diagonal "
            f"{diag[j]} <= off-diagonal {off_max[j]}"
        )


def corrupt_labels(labels: np.ndarray, t: np.ndarray, seed: int) -> np.ndarray:
    """Flip each label with the distribution in its clean class's column.

    `data.sample_labels` draws one uniform per sample, in sample order, from
    the stream derived from `seed`, so the result is deterministic per seed.
    Each sample reads the CDF of its class's column, summed once per class
    in the order a per-sample sum would add.
    """
    t = linalg.as_matrix(t, "transition matrix")
    labels = np.asarray(labels)
    c = t.shape[0]
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        raise ValueError(f"labels must lie in [0, {c}), got range "
                         f"[{labels.min()}, {labels.max()}]")
    rng = np.random.default_rng([seed, _CORRUPT_STREAM])
    return data.sample_labels(np.cumsum(t, axis=0).T[labels], rng)


def estimation_error(t_true: np.ndarray, t_est: np.ndarray) -> float:
    """Entrywise 1-norm error ||t_true - t_est||_1 / ||t_true||_1."""
    t_true = linalg.as_matrix(t_true, "true transition")
    t_est = linalg.as_matrix(t_est, "estimated transition")
    if t_true.shape != t_est.shape:
        raise ValueError(
            f"shape mismatch: true {t_true.shape} vs estimate {t_est.shape}"
        )
    return float(np.abs(t_true - t_est).sum() / np.abs(t_true).sum())
