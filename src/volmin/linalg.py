"""Dense float64 linear-algebra kernels and the matrix text format.

Matrices are plain 2-D float64 numpy arrays (row-major), vectors are 1-D.
All factorization behavior the rest of the package depends on lives here so
it is pinned in one place: LAPACK's LU with partial pivoting (through
`np.linalg`) decides both the signed log-determinant and singularity
detection, and the NNLS active-set solver is the cone-membership workhorse.

Singularity rule: a matrix is singular to `inverse_transpose` (which then
raises SingularMatrixError) when the LU meets an exactly zero pivot, where
`signed_logdet` reports sign 0, or when the inverse it computes has a
non-finite entry, which a nonzero subnormal pivot such as diag(1e-310, 1)
produces while `signed_logdet` still reports a nonzero sign.

Text format: one row per line, entries as decimal floats separated by
commas; lines starting with '#' are comments and are ignored. Floats are
written with `repr`, which round-trips exactly. `format_rows` and
`parse_rows` are the one codec for every float table the package writes:
matrix files, checkpoint blocks, and the dataset CSVs of `volmin.data`.
"""

from __future__ import annotations

import math
import warnings
from itertools import repeat
from pathlib import Path

import numpy as np

from .fileio import atomic_write_text, read_text


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

    Raises SingularMatrixError wherever signed_logdet reports sign 0, and
    also when the inverse overflows (the singularity rule above).
    """
    a = _square(a, "inverse")
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        raise SingularMatrixError("singular matrix: exactly zero pivot") from None
    if not np.isfinite(inv).all():
        raise SingularMatrixError("singular matrix: the inverse is not finite")
    return inv.T


def _passive_lstsq(a: np.ndarray, b: np.ndarray, passive: np.ndarray):
    """Fit each row of the (k, m) b by the columns a[:, passive[i]].

    Rows with equally many passive columns are one stack of SVDs, cut off
    where lstsq cuts. Returns (rows, idx, z) per passive-set size s: rows
    of b, their sorted passive columns and solutions, both (rows, s)."""
    m, n = a.shape
    sizes = passive.sum(axis=1)
    rcond = np.finfo(np.float64).eps * max(m, n)
    out = []
    for s in np.unique(sizes):
        rows = np.flatnonzero(sizes == s)
        idx = np.nonzero(passive[rows])[1].reshape(rows.size, s)
        sub = np.swapaxes(a.T[idx], -1, -2)  # (len(rows), m, s)
        u, sv, vt = np.linalg.svd(sub, full_matrices=False)
        ub = (np.swapaxes(u, -1, -2) @ b[rows, :, None])[:, :, 0]
        keep = sv > rcond * sv[:, :1]
        w = np.divide(ub, sv, out=np.zeros_like(ub), where=keep)
        z = (np.swapaxes(vt, -1, -2) @ w[:, :, None])[:, :, 0]
        out.append((rows, idx, z))
    return out


def nnls(a, b, tol: float = 1e-10) -> tuple[np.ndarray, float | np.ndarray]:
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

    `b` is (m,) or k right-hand sides as an (m, k) array; the k problems,
    each under the rules above, run in lockstep with one gradient product
    per step (Van Benthem & Keenan, J. Chemometrics 18, 2004). Returns
    (x, residual_norm), for a 2-D b as (n, k) and (k,) arrays.
    """
    a = as_matrix(a, "nnls matrix")
    b = np.asarray(b, dtype=np.float64)
    single = b.ndim == 1
    b = as_matrix(b[:, None] if single else b, "nnls rhs")
    m, n = a.shape
    if b.shape[0] != m:
        raise ValueError(f"nnls shape mismatch: matrix {m}x{n}, rhs {b.shape[0]}")
    # One problem per row from here on: x is (k, n), the residuals (k, m).
    b = np.ascontiguousarray(b.T)
    k = b.shape[0]
    bnorm = np.linalg.norm(b, axis=1)
    anorm = np.linalg.norm(a, axis=0)
    x = np.zeros((k, n))
    passive = np.zeros((k, n), dtype=bool)  # equals x > 0 between steps
    resid = b.copy()
    max_iter = 10 * max(n, 1)
    iters = np.zeros(k, dtype=np.int64)
    live = np.arange(k)
    capped = 0
    while live.size:
        rnorm = np.linalg.norm(resid[live], axis=1)
        grad = resid[live] @ a
        grad[passive[live]] = -np.inf
        j = np.argmax(grad, axis=1)
        gj = grad[np.arange(live.size), j]
        done = (
            (rnorm <= 1e-12 * bnorm[live])
            | ~np.isfinite(gj)
            | (gj <= anorm[j] * (tol * rnorm + 1e-14 * bnorm[live]))
        )
        cap = ~done & (iters[live] >= max_iter)
        capped += int(cap.sum())
        go = ~(done | cap)
        live, j = live[go], j[go]
        passive[live, j] = True
        inner = live
        while inner.size:
            iters[inner] += 1
            again = []
            for rows, idx, z in _passive_lstsq(a, b[inner], passive[inner]):
                rows = inner[rows]
                bad = ~(z > 0).all(axis=1)
                if bad.any():
                    # Step from x towards z until the first entry hits zero.
                    zb = z[bad]
                    cur = x[rows[bad, None], idx[bad]]
                    steps = np.full_like(zb, np.inf)
                    np.divide(cur, cur - zb, out=steps, where=zb <= 0)
                    cur = cur + steps.min(axis=1, keepdims=True) * (zb - cur)
                    cur[cur < 1e-15] = 0.0
                    z[bad] = cur
                # x and passive are zero outside idx already.
                x[rows[:, None], idx] = z
                passive[rows[:, None], idx] = z > 0
                again.append(rows[bad])
            inner = np.concatenate(again)
            inner = inner[iters[inner] < max_iter]
        resid[live] = b[live] - x[live] @ a.T
    if capped:
        warnings.warn(
            f"nnls did not converge within {max_iter} iterations on {capped} "
            f"of {k} right-hand sides; returning best iterates",
            RuntimeWarning,
            stacklevel=2,
        )
    rnorm = np.linalg.norm(resid, axis=1)
    if single:
        return x[0], float(rnorm[0])
    return x.T, rnorm


# ---------------------------------------------------------------------------
# Float tables: the one codec behind dataset CSVs, posterior siblings,
# matrix files and checkpoint blocks.


def format_rows(a) -> list[str]:
    """Each row of the 2-D `a` as comma-joined reprs (shortest round-trip text)."""
    return [",".join(map(repr, row)) for row in a.tolist()]


def parse_rows(numbered_lines, source, width: int, floats: int):
    """(x, ints) from a list of `(lineno, line)` pairs, each line holding
    `width` comma-separated fields: the first `floats` fields of every line
    as a finite (n, floats) array, and each later field as a list of ints.

    The whole table is split and converted in a few C-level passes. A table
    that fails any check is scanned again line by line, so the ValueError
    names the first bad line and token of `source`."""
    lines = [line for _, line in numbered_lines]
    if lines and set(map(str.count, lines, repeat(","))) == {width - 1}:
        tokens = ",".join(lines).split(",")
        try:
            table = np.fromiter(map(float, tokens), np.float64, len(tokens))
            ints = [list(map(int, tokens[j::width])) for j in range(floats, width)]
        except ValueError:
            pass
        else:
            x = table.reshape(len(lines), width)[:, :floats].copy()
            if np.isfinite(x).all():
                return x, ints
    xs, ints = [], [[] for _ in range(floats, width)]
    for lineno, line in numbered_lines:
        parts = line.split(",")
        if len(parts) != width:
            raise ValueError(f"{source}:{lineno}: expected {width} fields, got {len(parts)}")
        row = []
        for token in parts[:floats]:
            try:
                row.append(float(token))
            except ValueError:
                raise ValueError(f"{source}:{lineno}: bad float {token!r}") from None
            if not math.isfinite(row[-1]):
                raise ValueError(f"{source}:{lineno}: non-finite value {token!r}")
        xs.append(row)
        try:
            for col, token in zip(ints, parts[floats:]):
                col.append(int(token))
        except ValueError:
            raise ValueError(f"{source}:{lineno}: bad label") from None
    return np.array(xs, dtype=np.float64).reshape(len(xs), floats), ints


def write_matrix_text(path: str | Path, a, comment: str | None = None) -> None:
    lines = [f"# {ln}" for ln in comment.splitlines()] if comment else []
    lines += format_rows(as_matrix(a))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_matrix_text(path: str | Path) -> np.ndarray:
    text = read_text(path)
    rows = [(lineno, raw.strip()) for lineno, raw in enumerate(text.split("\n"), 1)]
    rows = [(lineno, line) for lineno, line in rows if line and not line.startswith("#")]
    if not rows:
        raise ValueError(f"{path}: no matrix rows found")
    width = rows[0][1].count(",") + 1
    return parse_rows(rows, str(path), width, width)[0]


# Parameter checkpoints: a flat list of named blocks, each a matrix in the
# text format above, delimited by '# block: <name> <rows> <cols>' headers.


def write_named_blocks(path: str | Path, blocks: list[tuple[str, np.ndarray]]) -> None:
    chunks = []
    for name, arr in blocks:
        arr = as_matrix(arr, name)
        if any(ch.isspace() for ch in name):
            raise ValueError(f"block name may not contain whitespace: {name!r}")
        chunks.append(f"# block: {name} {arr.shape[0]} {arr.shape[1]}")
        chunks += format_rows(arr)
    atomic_write_text(path, "\n".join(chunks) + "\n")


def read_named_blocks(path: str | Path) -> list[tuple[str, np.ndarray]]:
    source = str(path)
    text = read_text(path)
    heads = []  # (header lineno, name, rows, cols, that block's numbered rows)
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if line.startswith("# block:"):
            parts = line[len("# block:") :].split()
            if len(parts) != 3 or not (parts[1].isdigit() and parts[2].isdigit()):
                raise ValueError(f"{source}:{lineno}: malformed block header")
            heads.append((lineno, parts[0], int(parts[1]), int(parts[2]), []))
        elif line and not line.startswith("#"):
            if not heads:
                raise ValueError(f"{source}:{lineno}: matrix row outside any block")
            heads[-1][4].append((lineno, line))
    if not heads:
        raise ValueError(f"{source}: no blocks found")
    blocks = []
    for lineno, name, rows, cols, lines in heads:
        arr = parse_rows(lines, source, cols, cols)[0]
        if arr.shape[0] != rows:
            raise ValueError(
                f"{source}:{lineno}: block {name} declares {rows} rows, got {arr.shape[0]}"
            )
        blocks.append((name, arr))
    return blocks
