"""Synthetic datasets with analytically known clean posteriors.

Two generator families cover the experimental needs: a simplex-feature
generator whose inputs ARE the clean posterior (so identifiability
assumptions can be dialed in exactly), and a Gaussian mixture with a
closed-form Bayes posterior. Transforms (anchor removal, balancing,
splitting) and CSV round-trip IO live here too.

Per-purpose RNG streams (spawned as default_rng([seed, TAG, ...])) keep
every consumer of a seed independent of the others:
  201 generation draws, 204 splits, 205 undersampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

from .fileio import atomic_write_text

_GEN_STREAM = 201
_SPLIT_STREAM = 204
_UNDERSAMPLE_STREAM = 205

SIMPLEX_PROFILES = ("corner-rich", "edge-scattered", "center-heavy")

# Anchor-candidate removal fractions used by the identifiability protocol.
ANCHOR_REMOVAL_PRESETS = (0.4, 0.1)


@dataclass
class Dataset:
    x: np.ndarray
    y_clean: np.ndarray
    classes: int
    y_noisy: np.ndarray | None = None
    clean_posterior: np.ndarray | None = None

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.y_clean = np.asarray(self.y_clean, dtype=np.int64)
        if self.x.ndim != 2:
            raise ValueError("x must be 2-D (n, d)")
        n = self.x.shape[0]
        if self.y_clean.shape != (n,):
            raise ValueError("y_clean length must match x")
        if self.classes < 2:
            raise ValueError("need at least two classes")
        for name in ("y_clean", "y_noisy"):
            y = getattr(self, name)
            if y is None:
                continue
            y = np.asarray(y, dtype=np.int64)
            if y.shape != (n,):
                raise ValueError(f"{name} length must match x")
            if y.size and (y.min() < 0 or y.max() >= self.classes):
                raise ValueError(f"{name} entries must lie in [0, classes)")
            setattr(self, name, y)
        if self.clean_posterior is not None:
            p = np.asarray(self.clean_posterior, dtype=np.float64)
            if p.shape != (n, self.classes):
                raise ValueError("clean_posterior must be (n, classes)")
            if p.size and (
                p.min() < -1e-9 or np.abs(p.sum(axis=1) - 1.0).max() > 1e-9
            ):
                raise ValueError("clean_posterior rows must lie on the simplex")
            self.clean_posterior = p

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]

    def subset(self, idx) -> "Dataset":
        idx = np.asarray(idx)
        return Dataset(
            x=self.x[idx],
            y_clean=self.y_clean[idx],
            classes=self.classes,
            y_noisy=None if self.y_noisy is None else self.y_noisy[idx],
            clean_posterior=(
                None if self.clean_posterior is None else self.clean_posterior[idx]
            ),
        )

    def with_noisy(self, y_noisy: np.ndarray) -> "Dataset":
        return Dataset(
            x=self.x,
            y_clean=self.y_clean,
            classes=self.classes,
            y_noisy=np.asarray(y_noisy, dtype=np.int64),
            clean_posterior=self.clean_posterior,
        )


def _labels_from_posterior(posterior: np.ndarray, rng) -> np.ndarray:
    """One label per row, drawn from that row's distribution."""
    cdf = np.cumsum(posterior, axis=1)
    u = rng.uniform(size=posterior.shape[0])
    idx = (u[:, None] >= cdf).sum(axis=1)
    return np.minimum(idx, posterior.shape[1] - 1).astype(np.int64)


def _apply_cap(posterior: np.ndarray, cap: float, classes: int) -> np.ndarray:
    """Pull rows whose max entry exceeds `cap` toward the uniform vector
    until the max equals cap exactly. Rows at or under cap are untouched."""
    p = posterior.copy()
    u = 1.0 / classes
    mx = p.max(axis=1)
    mask = mx > cap
    if mask.any():
        s = (cap - u) / (mx[mask] - u)
        p[mask] = u + s[:, None] * (p[mask] - u)
    return p


def gen_simplex_feature(
    classes: int, n: int, profile: str, cap: float = 1.0, seed: int = 0
) -> Dataset:
    """Dataset whose feature vector IS the clean posterior (d = classes).

    Profiles:
      corner-rich    Dirichlet(0.3): heavy corner mass, near-anchor points.
      edge-scattered points on the pairwise edges of the simplex, max
                     coordinate uniform in (0.5, 1) before capping; no
                     interior mass and (for cap < 1) no anchors.
      center-heavy   Dirichlet(5): concentrated around the barycenter.
    """
    if profile not in SIMPLEX_PROFILES:
        raise ValueError(
            f"unknown profile {profile!r}; expected one of {SIMPLEX_PROFILES}"
        )
    if not (1.0 / classes < cap <= 1.0):
        raise ValueError(f"cap must lie in (1/classes, 1], got {cap}")
    if n < 1:
        raise ValueError("n must be positive")
    rng = np.random.default_rng([seed, _GEN_STREAM])
    if profile == "corner-rich":
        posterior = rng.dirichlet([0.3] * classes, size=n)
    elif profile == "center-heavy":
        posterior = rng.dirichlet([5.0] * classes, size=n)
    else:
        # Ordered pair (i, j), i != j; the point q e_i + (1-q) e_j sits
        # exactly on the simplex edge, so two draws from mirrored pairs
        # bracket the edge midpoint. The untouched zero coordinates are what
        # lets the scattering check succeed without anchor points.
        pairs = [(i, j) for i in range(classes) for j in range(classes) if i != j]
        which = rng.integers(0, len(pairs), size=n)
        q = rng.uniform(0.5, 1.0, size=n)
        posterior = np.zeros((n, classes))
        for k, (i, j) in enumerate(pairs):
            rows = which == k
            posterior[rows, i] = q[rows]
            posterior[rows, j] = 1.0 - q[rows]
    posterior = _apply_cap(posterior, cap, classes)
    y = _labels_from_posterior(posterior, rng)
    return Dataset(
        x=posterior.copy(),
        y_clean=y,
        classes=classes,
        clean_posterior=posterior,
    )


def gen_gaussian_mixture(
    classes: int,
    d: int,
    means: np.ndarray,
    n: int,
    seed: int = 0,
    covariance: np.ndarray | None = None,
    priors: np.ndarray | None = None,
) -> Dataset:
    """Gaussian mixture with one shared covariance and exact Bayes posterior.

    x is drawn from the mixture marginal; y_clean is then drawn from the
    closed-form posterior at x (the joint law is the same either way)."""
    means = np.asarray(means, dtype=np.float64)
    if means.shape != (classes, d):
        raise ValueError(f"means must be ({classes}, {d})")
    if covariance is None:
        covariance = np.eye(d)
    covariance = np.asarray(covariance, dtype=np.float64)
    if covariance.shape != (d, d) or not np.allclose(covariance, covariance.T):
        raise ValueError("covariance must be a symmetric (d, d) matrix")
    try:
        chol = np.linalg.cholesky(covariance)
    except np.linalg.LinAlgError as exc:
        raise ValueError("covariance must be positive definite") from exc
    if priors is None:
        priors = np.full(classes, 1.0 / classes)
    priors = np.asarray(priors, dtype=np.float64)
    if priors.shape != (classes,) or priors.min() < 0 or abs(priors.sum() - 1) > 1e-9:
        raise ValueError("priors must be a distribution over the classes")

    rng = np.random.default_rng([seed, _GEN_STREAM])
    comp = rng.choice(classes, size=n, p=priors)
    x = means[comp] + rng.standard_normal((n, d)) @ chol.T
    posterior = gaussian_mixture_posterior(x, means, covariance, priors)
    y = _labels_from_posterior(posterior, rng)
    return Dataset(
        x=x,
        y_clean=y,
        classes=classes,
        clean_posterior=posterior,
    )


def gaussian_mixture_posterior(
    x: np.ndarray, means: np.ndarray, covariance: np.ndarray, priors: np.ndarray
) -> np.ndarray:
    """Bayes posterior over components, computed in log space."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    inv = np.linalg.inv(covariance)
    scores = np.empty((x.shape[0], means.shape[0]))
    for k in range(means.shape[0]):
        diff = x - means[k]
        scores[:, k] = math.log(priors[k]) - 0.5 * np.einsum(
            "ni,ij,nj->n", diff, inv, diff
        )
    scores -= scores.max(axis=1, keepdims=True)
    e = np.exp(scores)
    return e / e.sum(axis=1, keepdims=True)


def remove_anchor_candidates(
    ds: Dataset, q: float, posterior: np.ndarray | None = None
) -> Dataset:
    """Drop, per class j, the ceil(q * n_j) class-j instances with the
    largest posterior for class j. Ties break toward the lowest index so
    the result is deterministic."""
    if not (0.0 <= q < 1.0):
        raise ValueError(f"fraction must lie in [0, 1), got {q}")
    if posterior is None:
        posterior = ds.clean_posterior
    if posterior is None:
        raise ValueError("no posterior available: dataset has none and none given")
    posterior = np.asarray(posterior, dtype=np.float64)
    if posterior.shape != (ds.n, ds.classes):
        raise ValueError("posterior must be (n, classes)")
    if q == 0.0:
        return ds.subset(np.arange(ds.n))
    keep = np.ones(ds.n, dtype=bool)
    for j in range(ds.classes):
        members = np.flatnonzero(ds.y_clean == j)
        k = math.ceil(q * members.size)
        if k == 0:
            continue
        # Stable descending order over this class's posterior_j values.
        order = members[np.argsort(-posterior[members, j], kind="stable")]
        keep[order[:k]] = False
    return ds.subset(np.flatnonzero(keep))


def balanced_undersample(ds: Dataset, seed: int = 0) -> Dataset:
    """Equalize per-class counts of the training labels (noisy when present)
    by keeping a seeded random subset of each class, original order kept."""
    y = ds.y_noisy if ds.y_noisy is not None else ds.y_clean
    counts = np.bincount(y, minlength=ds.classes)
    if counts.min() == 0:
        raise ValueError(f"cannot balance: class {int(counts.argmin())} has no samples")
    target = int(counts.min())
    rng = np.random.default_rng([seed, _UNDERSAMPLE_STREAM])
    keep = np.zeros(ds.n, dtype=bool)
    for j in range(ds.classes):
        members = np.flatnonzero(y == j)
        chosen = rng.choice(members, size=target, replace=False)
        keep[chosen] = True
    return ds.subset(np.flatnonzero(keep))


def split(ds: Dataset, val_fraction: float, seed: int = 0) -> tuple[Dataset, Dataset]:
    """Seeded shuffle, then train prefix / validation suffix.

    The validation size is round(val_fraction * n)."""
    if not (0.0 <= val_fraction < 1.0):
        raise ValueError(f"val_fraction must lie in [0, 1), got {val_fraction}")
    n_val = int(round(val_fraction * ds.n))
    order = np.random.default_rng([seed, _SPLIT_STREAM]).permutation(ds.n)
    train = ds.subset(order[: ds.n - n_val])
    val = ds.subset(order[ds.n - n_val :])
    return train, val


# ---------------------------------------------------------------------------
# CSV IO


class CsvError(ValueError):
    """A dataset CSV or its posterior sibling is malformed; the message
    names the file and, where one is at fault, the line."""


def _posterior_path(path) -> Path:
    p = Path(path)
    return p.with_name(p.stem + ".posterior.csv")


def _float_rows(a: np.ndarray) -> list[str]:
    """Each row of `a` as comma-joined reprs (shortest round-trip text)."""
    return [",".join(map(repr, row)) for row in a.tolist()]


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    # Bit patterns, not values: -0.0 == 0.0 but their reprs differ.
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def write_csv(path, ds: Dataset) -> None:
    """Write `x0,…,x{d-1},y_clean[,y_noisy]` rows; the clean posterior, when
    present, goes to the sibling `<name>.posterior.csv`. Floats are written
    with repr, so reading them back is bit-exact. When the posterior is the
    feature matrix (simplex data), its row text is formatted once."""
    header = [f"x{i}" for i in range(ds.d)] + ["y_clean"]
    x_rows = _float_rows(ds.x)
    columns = [x_rows] if ds.d else []
    columns.append(ds.y_clean.tolist())
    if ds.y_noisy is not None:
        header.append("y_noisy")
        columns.append(ds.y_noisy.tolist())
    lines = [",".join(header)]
    lines += [",".join(map(str, row)) for row in zip(*columns)]
    atomic_write_text(path, "\n".join(lines) + "\n")
    p = ds.clean_posterior
    if p is not None:
        p_rows = x_rows if _same_bits(p, ds.x) else _float_rows(p)
        plines = [",".join(f"p{j}" for j in range(ds.classes))] + p_rows
        atomic_write_text(_posterior_path(path), "\n".join(plines) + "\n")


def _parse_float(token: str, path, lineno: int) -> float:
    try:
        v = float(token)
    except ValueError:
        raise CsvError(f"{path}:{lineno}: bad float {token!r}") from None
    if not math.isfinite(v):
        raise CsvError(f"{path}:{lineno}: non-finite value {token!r}")
    return v


def _read_lines(path) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        raw = fh.read().splitlines()
    if not raw:
        raise CsvError(f"{path}:1: empty file")
    return raw


def _parse_lines(raw: list[str], width: int, d: int, path):
    """Line-by-line parse of the data lines; raises on the first bad one."""
    xs, labels = [], [[] for _ in range(d, width)]
    for lineno, line in enumerate(raw[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != width:
            raise CsvError(
                f"{path}:{lineno}: expected {width} fields, got {len(parts)}"
            )
        xs.append([_parse_float(t, path, lineno) for t in parts[:d]])
        try:
            for col, t in zip(labels, parts[d:]):
                col.append(int(t))
        except ValueError:
            raise CsvError(f"{path}:{lineno}: bad label") from None
    return np.array(xs, dtype=np.float64).reshape(len(xs), d), labels


def _parse_table(raw: list[str], width: int, d: int, path):
    """(x, labels): the first `d` fields of every non-blank data line as an
    (n, d) float array, and each later field as a list of ints.

    The whole table is split and converted in a few C-level passes. A table
    that fails any check is parsed again line by line, so an error names
    the same first bad line and token as a line-by-line reader would."""
    body = [line for line in raw[1:] if line]
    if body and set(map(str.count, body, repeat(","))) == {width - 1}:
        tokens = ",".join(body).split(",")
        try:
            table = np.fromiter(map(float, tokens), np.float64, len(tokens))
            labels = [list(map(int, tokens[j::width])) for j in range(d, width)]
        except ValueError:
            pass
        else:
            x = table.reshape(len(body), width)[:, :d].copy()
            if np.isfinite(x).all():
                return x, labels
    return _parse_lines(raw, width, d, path)


def read_csv(path, classes: int | None = None) -> Dataset:
    """Load a dataset written by write_csv. The class count comes from the
    sibling posterior file when present, else from the given `classes`,
    else from max(label) + 1. Malformed input raises CsvError."""
    raw = _read_lines(path)
    header = raw[0].split(",")
    has_noisy = header[-1] == "y_noisy"
    n_labels = 2 if has_noisy else 1
    d = len(header) - n_labels
    want = [f"x{i}" for i in range(d)] + ["y_clean"] + (
        ["y_noisy"] if has_noisy else []
    )
    if d < 1 or header != want:
        raise CsvError(f"{path}:1: bad header {raw[0]!r}")
    x, labels = _parse_table(raw, len(header), d, path)
    try:
        y = np.array(labels, dtype=np.int64).reshape(n_labels, x.shape[0])
    except OverflowError:
        raise CsvError(f"{path}: label out of int64 range") from None
    y_clean = y[0]
    y_noisy = y[1] if has_noisy else None

    posterior = None
    ppath = _posterior_path(path)
    if ppath.exists():
        praw = _read_lines(ppath)
        pheader = praw[0].split(",")
        pc = len(pheader)
        if pheader != [f"p{j}" for j in range(pc)]:
            raise CsvError(f"{ppath}:1: bad header {praw[0]!r}")
        posterior, _ = _parse_table(praw, pc, pc, ppath)
        if posterior.shape[0] != x.shape[0]:
            raise CsvError(f"{ppath}: row count does not match {path}")
        if classes is None:
            classes = pc
    if classes is None:
        top = int(max(y_clean.max(initial=0), y_noisy.max(initial=0) if has_noisy else 0))
        classes = max(top + 1, 2)
    try:
        return Dataset(
            x=x,
            y_clean=y_clean,
            classes=classes,
            y_noisy=y_noisy,
            clean_posterior=posterior,
        )
    except ValueError as exc:
        raise CsvError(f"{path}: {exc}") from None
