"""Dense float64 linear-algebra kernels and the matrix text format.

Matrices are plain 2-D float64 numpy arrays (row-major), vectors are 1-D.
`signed_logdet` and `inverse_transpose` also take a stack of matrices, a
3-D array, and treat each matrix of it exactly as they treat one alone.
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
written with `repr`, which round-trips exactly, called once per distinct
value of a table. `format_rows` writes every float table: matrix files, the
dataset CSVs of `volmin.data` and classifier files; `parse_rows` reads all
but the classifier files, which nothing reads back. A table of repr and int
text is read in one `np.loadtxt` pass; any other table, and one that pass
rejects, is scanned line by line, which names the first bad line and token.
"""

from __future__ import annotations

import math
import warnings
from pathlib import Path

import numpy as np

from .fileio import atomic_write_text, read_text


# `nnls` stops once a residual reaches this fraction of ||b||.
NNLS_FLOOR = 1e-12
NNLS_TOL = 1e-10  # `nnls`'s dual stationarity tolerance, relative to ||r||


class SingularMatrixError(ValueError):
    """A factorization met a numerically singular matrix. `trials` holds the
    indices of the singular matrices of a stack, [0] for one matrix; it is
    None only where the error is rebuilt from its message (unpickling)."""

    def __init__(self, message: str, trials: np.ndarray | None = None):
        super().__init__(message)
        self.trials = trials


def as_matrix(a, name: str = "matrix", stack: bool = False) -> np.ndarray:
    """Return `a` as a 2-D float64 array, rejecting non-finite entries; with
    `stack`, a 3-D array (a stack of matrices) is accepted too."""
    out = np.asarray(a, dtype=np.float64)
    if out.ndim != 2 and not (stack and out.ndim == 3):
        raise ValueError(f"{name} must be 2-D, got shape {out.shape}")
    if not np.isfinite(out).all():
        raise ValueError(f"{name} contains non-finite entries")
    return out


def _square(a, what: str) -> np.ndarray:
    a = as_matrix(a, stack=True)
    n, m = a.shape[-2:]
    if n != m:
        raise ValueError(f"{what} needs a square matrix, got {n}x{m}")
    return a


def signed_logdet(a):
    """(sign, log|det a|) via LAPACK's LU with partial pivoting.

    sign is -1.0, 0.0, or +1.0; sign 0 (with log|det| = -inf) is reported
    exactly when the factorization meets an exactly zero pivot. For a stack
    of matrices both are arrays, one entry per matrix.
    """
    sign, logabs = np.linalg.slogdet(_square(a, "determinant"))
    if sign.ndim:
        return sign, logabs
    return float(sign), float(logabs)


def inverse_transpose(a) -> np.ndarray:
    """Inverse of the transpose, via the same LAPACK LU as signed_logdet.

    Raises SingularMatrixError wherever signed_logdet reports sign 0, and
    also when the inverse overflows (the singularity rule above); its
    `trials` names every singular matrix of a stack.
    """
    a = _square(a, "inverse")
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        # The same LU: its zero pivots are where slogdet reports sign 0.
        bad = np.flatnonzero(np.linalg.slogdet(a)[0] == 0)
        raise SingularMatrixError("singular matrix: exactly zero pivot", bad) from None
    if not np.isfinite(inv).all():
        bad = np.flatnonzero(~np.isfinite(inv).all(axis=(-2, -1)))
        raise SingularMatrixError("singular matrix: the inverse is not finite", bad)
    return inv.swapaxes(-1, -2)


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


def nnls(a, b) -> tuple[np.ndarray, float | np.ndarray]:
    """Nonnegative least squares: min ||a x - b|| s.t. x >= 0.

    Active-set scheme in the Lawson-Hanson mold. NNLS_TOL is the dual
    stationarity tolerance, applied relative to the current residual: the
    solve stops once every inactive column's gradient is below
    ||a_j|| * (NNLS_TOL * ||r|| + 1e-14 * ||b||), or once the residual itself
    reaches the exactness floor NNLS_FLOOR * ||b||. An absolute gradient cutoff
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
            (rnorm <= NNLS_FLOOR * bnorm[live])
            | ~np.isfinite(gj)
            | (gj <= anorm[j] * (NNLS_TOL * rnorm + 1e-14 * bnorm[live]))
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
# matrix files and classifier files. `parse_rows` hands numpy only these
# characters: numpy's parser takes '1\x1c' as 1 where float()/int() refuse,
# and numpy 2.4 reads a non-ASCII label digit out of bounds.
_TABLE_CHARS = b"0123456789.e+-,"


def format_rows(a) -> list[str]:
    """Each row of the 2-D `a` as comma-joined reprs (shortest round-trip text),
    with one `repr` call per distinct bit pattern (-0.0 and 0.0 apart)."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    bits, inv = np.unique(a.view(np.uint64), return_inverse=True)
    text = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
    return list(map(",".join, text[inv].reshape(a.shape).tolist()))


def parse_rows(lines: list[str], linenos, source, width: int, floats: int):
    """(x, ints) from `lines`, each holding `width` comma-separated fields:
    the first `floats` fields of every line as a finite (n, floats) array,
    and the later fields as an int64 (width - floats, n) array.

    A table of `_TABLE_CHARS` is read by one `np.loadtxt` pass. A table that
    pass rejects, warns about or reads as non-finite, and any other table, is
    scanned line by line with float()/int(), so the ValueError names the first
    bad line and token of `source`; only that scan reads `linenos`, an
    iterable of each line's number in `source`."""
    text = ",".join(lines)
    fast = text.isascii() and not text.encode("ascii").translate(None, _TABLE_CHARS)
    if fast:
        dtype = np.dtype([("x", np.float64, (floats,)), ("n", np.int64, (width - floats,))])
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                table = np.loadtxt(lines, dtype, delimiter=",", comments=None, ndmin=1)
        except (ValueError, Warning):
            pass
        else:
            x = np.ascontiguousarray(table["x"])
            if len(table) == len(lines) and np.isfinite(x).all():  # it skips blank lines
                return x, table["n"].T
    xs, ints = [], [[] for _ in range(floats, width)]
    for lineno, line in zip(linenos, lines):
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
        for col, token in zip(ints, parts[floats:]):
            try:
                col.append(int(token))
            except ValueError:
                raise ValueError(f"{source}:{lineno}: bad label") from None
            if not -(2**63) <= col[-1] < 2**63:
                raise ValueError(f"{source}:{lineno}: label out of int64 range")
    ints = np.array(ints, dtype=np.int64).reshape(width - floats, len(xs))
    return np.array(xs, dtype=np.float64).reshape(len(xs), floats), ints


def write_matrix_text(path: str | Path, a, comment: str | None = None) -> None:
    lines = [f"# {ln}" for ln in comment.splitlines()] if comment else []
    lines += format_rows(as_matrix(a))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_matrix_text(path: str | Path) -> np.ndarray:
    stripped = [raw.strip() for raw in read_text(path).split("\n")]
    linenos = [i for i, line in enumerate(stripped, 1) if line and not line.startswith("#")]
    if not linenos:
        raise ValueError(f"{path}: no matrix rows found")
    rows = [stripped[i - 1] for i in linenos]
    width = rows[0].count(",") + 1
    return parse_rows(rows, linenos, str(path), width, width)[0]


# Classifier files: a flat list of named blocks, each a matrix in the text
# format above, delimited by '# block: <name> <rows> <cols>' headers. They are
# written for inspection; nothing reads them back.


def write_named_blocks(path: str | Path, blocks: list[tuple[str, np.ndarray]]) -> None:
    chunks = []
    for name, arr in blocks:
        arr = as_matrix(arr, name)
        if any(ch.isspace() for ch in name):
            raise ValueError(f"block name may not contain whitespace: {name!r}")
        chunks.append(f"# block: {name} {arr.shape[0]} {arr.shape[1]}")
        chunks += format_rows(arr)
    atomic_write_text(path, "\n".join(chunks) + "\n")
