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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import linalg
from .fileio import atomic_write_text, read_text

_GEN_STREAM = 201
_SPLIT_STREAM = 204
_UNDERSAMPLE_STREAM = 205

SIMPLEX_PROFILES = ("corner-rich", "edge-scattered", "center-heavy")

# Anchor-candidate removal fractions used by the identifiability protocol.
ANCHOR_REMOVAL_PRESETS = (0.4, 0.1)


def _off_simplex(p: np.ndarray) -> int | None:
    """Index of the first row of `p` that is not on the probability
    simplex, or None when every row is."""
    dev = np.abs(p.sum(axis=1) - 1.0)
    if p.size and (p.min() < -1e-9 or dev.max() > 1e-9):
        return int(np.flatnonzero((p < -1e-9).any(axis=1) | (dev > 1e-9))[0])
    return None


@dataclass
class Dataset:
    x: np.ndarray
    y_clean: np.ndarray
    classes: int
    y_noisy: np.ndarray | None = None
    clean_posterior: np.ndarray | None = None
    # (x rows, posterior rows or None) as `write_csv` formatted them, kept
    # so that `with_noisy`'s dataset, which holds the same arrays, is not
    # formatted again. Stale if x or clean_posterior is changed in place.
    csv_rows: tuple[list[str], list[str] | None] | None = field(
        default=None, init=False, repr=False, compare=False
    )

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
            if _off_simplex(p) is not None:
                raise ValueError("clean_posterior rows must lie on the simplex")
            self.clean_posterior = p

    @property
    def labels(self) -> np.ndarray:
        """The labels a model trains on: the noisy ones when present."""
        return self.y_clean if self.y_noisy is None else self.y_noisy

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
        out = Dataset(
            x=self.x,
            y_clean=self.y_clean,
            classes=self.classes,
            y_noisy=np.asarray(y_noisy, dtype=np.int64),
            clean_posterior=self.clean_posterior,
        )
        out.csv_rows = self.csv_rows
        return out


def sample_labels(cdf: np.ndarray, rng) -> np.ndarray:
    """One label per row of `cdf`, a distribution's cumulative sums: one
    uniform draw per row, in row order, read off that row (inverse-CDF
    sampling)."""
    u = rng.uniform(size=cdf.shape[0])
    idx = (u[:, None] >= cdf).sum(axis=1)
    return np.minimum(idx, cdf.shape[1] - 1).astype(np.int64)


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
        # Pair (i, j) = (first, second)[which], i != j; q e_i + (1-q) e_j sits
        # exactly on the simplex edge, so two draws from mirrored pairs
        # bracket the edge midpoint. The untouched zero coordinates are what
        # lets the scattering check succeed without anchor points.
        first, second = np.nonzero(~np.eye(classes, dtype=bool))
        which = rng.integers(0, first.size, size=n)
        q = rng.uniform(0.5, 1.0, size=n)
        posterior = np.zeros((n, classes))
        rows = np.arange(n)
        posterior[rows, first[which]] = q
        posterior[rows, second[which]] = 1.0 - q
    posterior = _apply_cap(posterior, cap, classes)
    y = sample_labels(np.cumsum(posterior, axis=1), rng)
    return Dataset(
        x=posterior.copy(),
        y_clean=y,
        classes=classes,
        clean_posterior=posterior,
    )


def gen_gaussian_mixture(
    classes: int, d: int, means: np.ndarray, n: int, seed: int = 0
) -> Dataset:
    """Gaussian mixture with unit covariance, equal priors and exact Bayes
    posterior.

    x is drawn from the mixture marginal; y_clean is then drawn from the
    closed-form posterior at x (the joint law is the same either way)."""
    means = np.asarray(means, dtype=np.float64)
    if means.shape != (classes, d):
        raise ValueError(f"means must be ({classes}, {d})")
    priors = np.full(classes, 1.0 / classes)
    rng = np.random.default_rng([seed, _GEN_STREAM])
    comp = rng.choice(classes, size=n, p=priors)
    x = means[comp] + rng.standard_normal((n, d))
    posterior = gaussian_mixture_posterior(x, means, np.eye(d), priors)
    y = sample_labels(np.cumsum(posterior, axis=1), rng)
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


def remove_anchor_candidates(ds: Dataset, q: float) -> Dataset:
    """Drop, per class j, the ceil(q * n_j) class-j instances with the
    largest clean posterior for class j. Ties break toward the lowest index
    so the result is deterministic."""
    if not (0.0 <= q < 1.0):
        raise ValueError(f"fraction must lie in [0, 1), got {q}")
    posterior = ds.clean_posterior
    if posterior is None:
        raise ValueError("no posterior available: the dataset has none")
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
    """Equalize per-class counts of `ds.labels` by keeping a seeded random
    subset of each class, original order kept."""
    y = ds.labels
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


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    # Bit patterns, not values: -0.0 == 0.0 but their reprs differ.
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _csv_rows(ds: Dataset) -> tuple[list[str], list[str] | None]:
    """`ds.csv_rows`, formatted on first use. When the posterior is the
    feature matrix (simplex data), its row text is x's."""
    if ds.csv_rows is None:
        x_rows = linalg.format_rows(ds.x)
        p = ds.clean_posterior
        if p is None:
            p_rows = None
        else:
            p_rows = x_rows if _same_bits(p, ds.x) else linalg.format_rows(p)
        ds.csv_rows = (x_rows, p_rows)
    return ds.csv_rows


def write_csv(path, ds: Dataset) -> None:
    """Write `x0,…,x{d-1},y_clean[,y_noisy]` rows; the clean posterior, when
    present, goes to the sibling `<name>.posterior.csv`. Floats are written
    with repr, so reading them back is bit-exact. The row text is formatted
    once per dataset and kept in `ds.csv_rows`."""
    header = [f"x{i}" for i in range(ds.d)] + ["y_clean"]
    x_rows, p_rows = _csv_rows(ds)
    columns = [x_rows] if ds.d else []
    columns.append(map(str, ds.y_clean.tolist()))
    if ds.y_noisy is not None:
        header.append("y_noisy")
        columns.append(map(str, ds.y_noisy.tolist()))
    lines = [",".join(header)]
    lines += map(",".join, zip(*columns))
    atomic_write_text(path, "\n".join(lines) + "\n")
    if p_rows is not None:
        plines = [",".join(f"p{j}" for j in range(ds.classes))] + p_rows
        atomic_write_text(_posterior_path(path), "\n".join(plines) + "\n")


def _read_lines(path) -> list[str]:
    text = read_text(path, CsvError)
    if not text:
        raise CsvError(f"{path}:1: empty file")
    return text.split("\n")


def _data_linenos(raw: list[str]):
    """The line numbers of the non-blank data lines after the header, lazily."""
    return (i for i, line in enumerate(raw[1:], start=2) if line)


def _parse_table(raw: list[str], width: int, floats: int, path):
    """`linalg.parse_rows` over the non-blank data lines after the header."""
    lines = [line for line in raw[1:] if line]
    try:
        return linalg.parse_rows(lines, _data_linenos(raw), path, width, floats)
    except ValueError as exc:
        raise CsvError(str(exc)) from None


def _x_text(raw: list[str], n_labels: int) -> list[str]:
    """The x fields of every non-blank data line, as text."""
    return [line.rsplit(",", n_labels)[0] for line in raw[1:] if line]


def read_csv(path, classes: int) -> Dataset:
    """Load a dataset of `classes` classes written by write_csv. Malformed
    input raises CsvError."""
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
    x, y = _parse_table(raw, len(header), d, path)
    bad = (y < 0) | (y >= classes)
    if bad.any():
        row, col = np.argwhere(bad.T)[0]
        lineno = list(_data_linenos(raw))[row]
        raise CsvError(
            f"{path}:{lineno}: {header[d + col]} label {y[col, row]} is outside "
            f"[0, {classes}) for data.classes = {classes}"
        )
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
        if pc != classes:
            raise CsvError(
                f"{ppath}:1: {pc} posterior columns, expected {classes} for "
                f"data.classes = {classes}"
            )
        if pc == d and _x_text(raw, n_labels) == [ln for ln in praw[1:] if ln]:
            # The sibling's text is the x columns' (simplex data).
            posterior = x.copy()
        else:
            posterior, _ = _parse_table(praw, pc, pc, ppath)
            off = _off_simplex(posterior)
            if off is not None:
                lineno = list(_data_linenos(praw))[off]
                raise CsvError(f"{ppath}:{lineno}: posterior row is not on the simplex")
        if posterior.shape[0] != x.shape[0]:
            raise CsvError(f"{ppath}: row count does not match {path}")
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
