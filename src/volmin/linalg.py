"""Dense float64 linear-algebra kernels and the matrix text format.

Matrices are plain 2-D float64 numpy arrays (row-major), vectors are 1-D.
All factorization behavior the rest of the package depends on lives here so
it is pinned in one place: LAPACK's LU with partial pivoting (through
`np.linalg`) decides both the signed log-determinant and singularity
detection, and the NNLS active-set solver is the cone-membership workhorse.

Text format: one row per line, entries as decimal floats separated by
commas; lines starting with '#' are comments and are ignored. Floats are
written with `repr`, which round-trips exactly.
"""

from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np

from .fileio import atomic_write_text


class SingularMatrixError(ValueError):
    """A factorization met a numerically singular matrix."""


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Return `a` as a 2-D float64 array, rejecting non-finite entries."""
    out = np.asarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {out.shape}")
    if not np.isfinite(out).all():
        raise ValueError(f"{name} contains non-finite entries")
    return out


def as_vector(v, name: str = "vector") -> np.ndarray:
    out = np.asarray(v, dtype=np.float64)
    if out.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {out.shape}")
    if not np.isfinite(out).all():
        raise ValueError(f"{name} contains non-finite entries")
    return out


def _square(a, what: str) -> np.ndarray:
    a = as_matrix(a)
    n, m = a.shape
    if n != m:
        raise ValueError(f"{what} needs a square matrix, got {n}x{m}")
    return a


def signed_logdet(a) -> tuple[float, float]:
    """(sign, log|det a|) via LAPACK's LU with partial pivoting.

    sign is -1.0, 0.0, or +1.0; sign 0 (with log|det| = -inf) is reported
    exactly when the factorization meets an exactly zero pivot.
    """
    sign, logabs = np.linalg.slogdet(_square(a, "determinant"))
    return float(sign), float(logabs)


def inverse_transpose(a) -> np.ndarray:
    """Inverse of the transpose, via the same LAPACK LU as signed_logdet.

    Raises SingularMatrixError under exactly the signed_logdet sign-0
    condition.
    """
    a = _square(a, "inverse")
    try:
        return np.linalg.inv(a).T
    except np.linalg.LinAlgError:
        raise SingularMatrixError("singular matrix: exactly zero pivot") from None


def logdet_and_inverse_transpose(a) -> tuple[float, float, np.ndarray]:
    """(sign, log|det a|, inverse of the transpose): the values
    `signed_logdet` and `inverse_transpose` return. Raises
    SingularMatrixError where signed_logdet reports sign 0."""
    return (*signed_logdet(a), inverse_transpose(a))


def nnls(a, b, tol: float = 1e-10) -> tuple[np.ndarray, float]:
    """Nonnegative least squares: min ||a x - b|| s.t. x >= 0.

    Active-set scheme in the Lawson-Hanson mold. `tol` is the dual
    stationarity tolerance, applied relative to the current residual: the
    solve stops once every inactive column's gradient is below
    ||a_j|| * (tol * ||r|| + 1e-14 * ||b||), or once the residual itself
    reaches the exactness floor 1e-12 * ||b||. An absolute gradient cutoff
    would declare stationarity too early on near-degenerate cones, where
    the improving gradient scales with the square of the remaining
    residual. The iteration cap is 10 * cols; hitting it is reported with
    a RuntimeWarning and the best iterate is returned.

    Returns (x, residual_norm).
    """
    a = as_matrix(a, "nnls matrix")
    b = as_vector(b, "nnls rhs")
    m, n = a.shape
    if b.shape[0] != m:
        raise ValueError(f"nnls shape mismatch: matrix {m}x{n}, rhs {b.shape[0]}")
    bnorm = float(np.linalg.norm(b))
    anorm = np.linalg.norm(a, axis=0)
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    resid = b.copy()
    max_iter = 10 * max(n, 1)
    iters = 0
    while True:
        rnorm = float(np.linalg.norm(resid))
        if rnorm <= 1e-12 * bnorm:
            break
        grad = a.T @ resid
        grad[passive] = -np.inf
        j = int(np.argmax(grad))
        if not np.isfinite(grad[j]) or grad[j] <= anorm[j] * (
            tol * rnorm + 1e-14 * bnorm
        ):
            break
        if iters >= max_iter:
            warnings.warn(
                f"nnls did not converge within {max_iter} iterations; "
                "returning best iterate",
                RuntimeWarning,
                stacklevel=2,
            )
            break
        passive[j] = True
        while True:
            iters += 1
            cols = np.flatnonzero(passive)
            z, *_ = np.linalg.lstsq(a[:, cols], b, rcond=None)
            if np.all(z > 0):
                x[:] = 0.0
                x[cols] = z
                break
            cur = x[cols]
            neg = z <= 0
            steps = cur[neg] / (cur[neg] - z[neg])
            alpha = float(np.min(steps))
            cur = cur + alpha * (z - cur)
            cur[cur < 1e-15] = 0.0
            x[:] = 0.0
            x[cols] = cur
            passive[:] = x > 0
            if iters >= max_iter:
                break
        resid = b - a @ x
    return x, float(np.linalg.norm(resid))


# ---------------------------------------------------------------------------
# Matrix text format


def format_matrix_text(a, comment: str | None = None) -> str:
    a = as_matrix(a)
    lines = []
    if comment:
        lines.extend(f"# {ln}" for ln in comment.splitlines())
    for row in a:
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def write_matrix_text(path: str | Path, a, comment: str | None = None) -> None:
    atomic_write_text(path, format_matrix_text(a, comment))


def parse_matrix_text(text: str, source: str = "<text>") -> np.ndarray:
    rows: list[list[float]] = []
    width = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        try:
            row = [float(p) for p in parts]
        except ValueError as exc:
            raise ValueError(f"{source}:{lineno}: unparseable entry ({exc})") from None
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ValueError(
                f"{source}:{lineno}: expected {width} entries, got {len(row)}"
            )
        rows.append(row)
    if not rows:
        raise ValueError(f"{source}: no matrix rows found")
    out = np.array(rows, dtype=np.float64)
    if not np.isfinite(out).all():
        raise ValueError(f"{source}: matrix contains non-finite entries")
    return out


def read_matrix_text(path: str | Path) -> np.ndarray:
    text = Path(path).read_text(encoding="utf-8")
    return parse_matrix_text(text, source=str(path))


# Parameter checkpoints: a flat list of named blocks, each a matrix in the
# text format above, delimited by '# block: <name> <rows> <cols>' headers.


def format_named_blocks(blocks: list[tuple[str, np.ndarray]]) -> str:
    chunks = []
    for name, arr in blocks:
        arr = as_matrix(arr, name)
        if any(ch.isspace() for ch in name):
            raise ValueError(f"block name may not contain whitespace: {name!r}")
        chunks.append(f"# block: {name} {arr.shape[0]} {arr.shape[1]}")
        for row in arr:
            chunks.append(",".join(repr(float(v)) for v in row))
    return "\n".join(chunks) + "\n"


def write_named_blocks(path: str | Path, blocks: list[tuple[str, np.ndarray]]) -> None:
    atomic_write_text(path, format_named_blocks(blocks))


def read_named_blocks(path: str | Path) -> list[tuple[str, np.ndarray]]:
    source = str(path)
    blocks: list[tuple[str, np.ndarray]] = []
    name = None
    expect: tuple[int, int] | None = None
    rows: list[list[float]] = []

    def flush(lineno: int) -> None:
        nonlocal name, expect, rows
        if name is None:
            return
        arr = np.array(rows, dtype=np.float64) if rows else np.zeros((0, 0))
        if arr.shape != expect:
            raise ValueError(
                f"{source}:{lineno}: block {name} declared {expect}, got {arr.shape}"
            )
        blocks.append((name, arr))
        name, expect, rows = None, None, []

    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if line.startswith("# block:"):
            flush(lineno)
            parts = line[len("# block:") :].split()
            if len(parts) != 3:
                raise ValueError(f"{source}:{lineno}: malformed block header")
            name = parts[0]
            expect = (int(parts[1]), int(parts[2]))
            continue
        if not line or line.startswith("#"):
            continue
        if name is None:
            raise ValueError(f"{source}:{lineno}: matrix row outside any block")
        try:
            rows.append([float(p) for p in line.split(",")])
        except ValueError as exc:
            raise ValueError(f"{source}:{lineno}: unparseable entry ({exc})") from None
    flush(-1)
    if not blocks:
        raise ValueError(f"{source}: no blocks found")
    return blocks
