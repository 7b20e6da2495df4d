"""Convex-geometry checks for identifiability of the noise transition.

Works with a posterior matrix H (C x m, columns on the probability
simplex). Two properties are probed:

  * cone coverage: the second-order cone
        R = {v : 1^T v >= sqrt(C-1) * ||v||_2}
    is contained in cone(H). R is convex, so testing its extreme
    (boundary) rays suffices; each ray is tested by nonnegative least
    squares against the columns of H.
  * rotation rigidity: no real orthogonal Q other than a permutation may
    satisfy Q^T H >= 0. This direction is only falsifiable: a randomized
    search either produces a witness Q or reports that none was found.

Also here: the anchor-point check (some column per class with posterior
entry >= 1 - delta) and the closed-form minimum-volume enclosing
interval for two classes.

RNG streams: 401 ray sampling, 402 rotation search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg

_RAY_STREAM = 401
_WITNESS_STREAM = 402

DEFAULT_RAY_COUNT = 512
DEFAULT_COVERAGE_TOL = 1e-8
DEFAULT_WITNESS_TOL = 1e-9
DEFAULT_WITNESS_TRIALS = 10_000
DEFAULT_ANCHOR_DELTA = 0.05
# A candidate within this max-abs distance of a signed permutation is the
# trivial solution, not a witness.
PERMUTATION_BALL = 1e-6
# The rotation search hill-climbs its REFINE_TOP best candidates, REFINE_STEPS rounds each.
REFINE_TOP = 8
REFINE_STEPS = 60


def as_posterior_matrix(h) -> np.ndarray:
    """Validate a C x m matrix whose columns lie on the simplex."""
    h = linalg.as_matrix(h, "posterior matrix")
    if h.shape[0] < 2:
        raise ValueError("posterior matrix needs at least two classes (rows)")
    if h.shape[1] == 0:
        raise ValueError("posterior matrix needs at least one column")
    if h.min() < -1e-9 or np.abs(h.sum(axis=0) - 1.0).max() > 1e-9:
        raise ValueError("columns must lie on the probability simplex")
    return h


# ---------------------------------------------------------------------------
# Boundary rays of R


def sample_boundary_rays(classes: int, count: int, seed: int = 0) -> np.ndarray:
    """`count` unit vectors on the boundary 1^T v = sqrt(C-1) ||v||.

    Construction: v = sqrt(C-1)/C * 1 + t/sqrt(C) with t a uniform random
    unit vector orthogonal to 1. Then ||v|| = 1 and 1^T v = sqrt(C-1)
    exactly, and every entry is nonnegative (the worst coordinate of a
    unit tangent is -sqrt((C-1)/C), which cancels the radial part).

    For two classes the boundary is just {e1, e2}; those are enumerated
    (alternating) instead of sampled. Rows of the result are the rays."""
    if classes < 2:
        raise ValueError("need at least two classes")
    if count < 1:
        raise ValueError("count must be positive")
    if classes == 2:
        rays = np.zeros((count, 2))
        rays[::2, 0] = 1.0
        rays[1::2, 1] = 1.0
        return rays
    rng = np.random.default_rng([seed, _RAY_STREAM])
    g = rng.standard_normal((count, classes))
    t = g - g.mean(axis=1, keepdims=True)
    norms = np.linalg.norm(t, axis=1, keepdims=True)
    # A zero tangent has probability zero; regenerate entry-wise if seen.
    while (norms == 0).any():
        bad = norms[:, 0] == 0
        g2 = rng.standard_normal((int(bad.sum()), classes))
        t[bad] = g2 - g2.mean(axis=1, keepdims=True)
        norms = np.linalg.norm(t, axis=1, keepdims=True)
    t /= norms
    v = math.sqrt(classes - 1) / classes + t / math.sqrt(classes)
    return np.maximum(v, 0.0)  # clamp float dust at the exactly-zero corner


# ---------------------------------------------------------------------------
# Extreme-column reduction

def _hull_2d(points: np.ndarray) -> np.ndarray:
    """Indices of convex hull vertices (monotone chain), collinear dropped."""
    order = np.lexsort((points[:, 1], points[:, 0]))
    pts = points[order]

    def half(rng_):
        out = []
        for i in rng_:
            p = pts[i]
            while len(out) >= 2:
                a, b = pts[out[-2]], pts[out[-1]]
                if (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0]) <= 0:
                    out.pop()
                else:
                    break
            out.append(i)
        return out

    lower = half(range(len(pts)))
    upper = half(range(len(pts) - 1, -1, -1))
    keep = sorted(set(lower[:-1] + upper[:-1])) if len(pts) > 1 else [0]
    return order[keep]


def extreme_columns(h: np.ndarray) -> np.ndarray:
    """A subset of columns generating the same cone.

    Columns on the simplex span the cone over their convex hull, so only
    hull vertices matter. Exact reductions are cheap for C <= 3; larger C
    just deduplicates."""
    c = h.shape[0]
    if c == 2:
        return h[:, [int(h[0].argmin()), int(h[0].argmax())]]
    if c == 3:
        # Affine embedding of the simplex into the plane.
        xy = np.stack([h[1] + 0.5 * h[2], (math.sqrt(3) / 2) * h[2]], axis=1)
        return h[:, _hull_2d(xy)]
    return np.unique(h, axis=1)


# ---------------------------------------------------------------------------
# Cone coverage (scattering condition on the posterior support)


def check_cone_coverage(
    h, rays: np.ndarray, tol: float = DEFAULT_COVERAGE_TOL
) -> tuple[float, bool]:
    """Fraction of rays representable as nonnegative combinations of H's
    columns (relative NNLS residual < tol), and whether all of them are."""
    h = as_posterior_matrix(h)
    rays = np.asarray(rays, dtype=np.float64)
    if rays.ndim != 2 or rays.shape[0] == 0 or rays.shape[1] != h.shape[0]:
        raise ValueError("rays must be a non-empty (k, classes) array")
    norms = np.linalg.norm(rays, axis=1)
    bad = np.flatnonzero(~np.isfinite(rays).all(axis=1) | (norms == 0))
    if bad.size:
        raise ValueError(f"ray {bad[0]} is zero or non-finite: {rays[bad[0]]}")
    _, resid = linalg.nnls(extreme_columns(h), rays.T)
    frac = int((resid / norms < tol).sum()) / rays.shape[0]
    return frac, frac == 1.0


# ---------------------------------------------------------------------------
# Rotation-witness search (falsifier for the rigidity condition)


def _signed_permutation_distance(q: np.ndarray) -> float:
    """Max-abs distance from q to the nearest signed permutation matrix,
    inf when q's per-column argmax pattern is not a permutation (then q is
    nowhere near one)."""
    c = q.shape[0]
    rows = np.abs(q).argmax(axis=0)
    if len(set(rows.tolist())) != c:
        return float("inf")
    p = np.zeros_like(q)
    for j, i in enumerate(rows):
        p[i, j] = math.copysign(1.0, q[i, j])
    return float(np.abs(q - p).max())


def _orthogonal_from_gaussian(g: np.ndarray) -> np.ndarray:
    """QR with the sign convention diag(R) > 0 (Haar-uniform for Gaussian g).
    Works on a single matrix or a stack of them."""
    q, r = np.linalg.qr(g)
    signs = np.where(np.diagonal(r, axis1=-2, axis2=-1) < 0, -1.0, 1.0)
    return q * signs[..., None, :]


def _cayley(s: np.ndarray) -> np.ndarray:
    """Rotations (I - S)(I + S)^{-1} for a stack of skew-symmetric S,
    solved transposed: (I + S)^T = I - S."""
    eye = np.eye(s.shape[-1])
    return np.linalg.solve(eye - s, eye + s).swapaxes(-1, -2)


def _min_entry(q: np.ndarray, basis: np.ndarray):
    """Smallest entry of Q^T H, per matrix of a stack of Q."""
    return (np.swapaxes(q, -1, -2) @ basis).min(axis=(-2, -1))


def search_rotation_witness(
    h,
    trials: int = DEFAULT_WITNESS_TRIALS,
    seed: int = 0,
    tol: float = DEFAULT_WITNESS_TOL,
) -> np.ndarray | None:
    """Look for an orthogonal Q, not a (signed) permutation, with
    Q^T H >= -tol. Returns the witness or None.

    Candidates are Haar-random orthogonal matrices; the most promising few
    are refined by hill-climbing over small Cayley rotations. Absence of a
    witness is evidence against one existing, never proof."""
    h = as_posterior_matrix(h)
    if trials < 1:
        raise ValueError("trials must be positive")
    basis = extreme_columns(h)
    c = h.shape[0]
    rng = np.random.default_rng([seed, _WITNESS_STREAM])

    def is_witness(q: np.ndarray, score: float) -> bool:
        # `score` is q's _min_entry, known from the batch that scored q.
        return score >= -tol and _signed_permutation_distance(q) > PERMUTATION_BALL

    candidates = []  # (score, q), best few kept for refinement
    batch = 512
    done = 0
    while done < trials:
        k = min(batch, trials - done)
        qs = _orthogonal_from_gaussian(rng.standard_normal((k, c, c)))
        scores = _min_entry(qs, basis)
        done += k
        for i in np.argsort(-scores)[:REFINE_TOP]:
            if is_witness(qs[i], scores[i]):
                return qs[i].copy()
            candidates.append((float(scores[i]), qs[i].copy()))
    candidates.sort(key=lambda sq: -sq[0])

    for _, q in candidates[:REFINE_TOP]:
        best = q
        best_score = _min_entry(best, basis)
        step = 0.3
        for _ in range(REFINE_STEPS):
            # Take the first of 8 proposals that improves; rescore the rest.
            g = rng.standard_normal((8, c, c))
            turns = _cayley(step * (g - np.swapaxes(g, -1, -2)))
            first = 0
            while first < len(turns):
                props = best @ turns[first:]
                scores = _min_entry(props, basis)
                better = np.flatnonzero(scores > best_score)
                if not better.size:
                    break
                i = int(better[0])
                best, best_score = props[i], scores[i]
                first += i + 1
            if first == 0:  # no proposal improved, and best was checked
                step *= 0.5
                if step < 1e-12:
                    break
            elif is_witness(best, best_score):
                return best.copy()
    return None


# ---------------------------------------------------------------------------
# Anchor presence and interval oracle


def anchor_presence(h, delta: float) -> tuple[np.ndarray, bool]:
    """Per-class max posterior over the columns, and whether every class
    attains 1 - delta (an approximate anchor point per class)."""
    h = as_posterior_matrix(h)
    if not (0.0 <= delta <= 1.0):
        raise ValueError(f"delta must lie in [0, 1], got {delta}")
    per_class_max = h.max(axis=1)
    return per_class_max, bool((per_class_max >= 1.0 - delta).all())


def min_volume_interval(noisy_p1) -> np.ndarray:
    """Closed-form minimum-volume enclosing transition for two classes.

    The observed noisy posteriors for class 1 live in the interval
    [T_12, T_11]; the tightest diagonally dominant enclosure reads the
    data extremes: T_11 = max, T_12 = min."""
    vals = np.asarray(noisy_p1, dtype=np.float64).ravel()
    if vals.size < 2 or np.unique(vals).size < 2:
        raise ValueError("need at least two distinct values")
    if vals.min() < 0 or vals.max() > 1:
        raise ValueError("values must lie in [0, 1]")
    hi, lo = float(vals.max()), float(vals.min())
    if hi <= 0.5 or lo >= 0.5:
        raise ValueError(
            f"diagonal dominance infeasible: need max > 0.5 > min, "
            f"got max={hi}, min={lo}"
        )
    return np.array([[hi, lo], [1.0 - hi, 1.0 - lo]])


# ---------------------------------------------------------------------------
# Combined report


@dataclass
class ScatterReport:
    classes: int
    columns: int
    rays_used: int
    coverage_tol: float
    coverage_pass_fraction: float
    coverage_verdict: bool
    witness_trials: int
    witness_tol: float
    rotation_witness: np.ndarray | None
    anchor_delta: float
    per_class_max: np.ndarray = field(default_factory=lambda: np.zeros(0))
    anchor_verdict: bool = False

    @property
    def scattered_verdict(self) -> bool:
        """Coverage holds and the rigidity search found no counterexample."""
        return self.coverage_verdict and self.rotation_witness is None

    def to_text(self) -> str:
        lines = [
            f"classes={self.classes}",
            f"columns={self.columns}",
            f"rays_used={self.rays_used}",
            f"coverage_tol={self.coverage_tol!r}",
            f"coverage_pass_fraction={self.coverage_pass_fraction!r}",
            f"coverage_verdict={str(self.coverage_verdict).lower()}",
            f"witness_trials={self.witness_trials}",
            f"witness_tol={self.witness_tol!r}",
            f"rotation_witness_found={str(self.rotation_witness is not None).lower()}",
        ]
        if self.rotation_witness is None:
            lines.append(
                f"rotation_note=no witness found in {self.witness_trials} trials"
            )
        lines.append(f"anchor_delta={self.anchor_delta!r}")
        lines.append(
            "per_class_max=" + ",".join(repr(float(v)) for v in self.per_class_max)
        )
        lines.append(f"anchor_verdict={str(self.anchor_verdict).lower()}")
        lines.append(f"scattered_verdict={str(self.scattered_verdict).lower()}")
        return "\n".join(lines) + "\n"


def analyze_scattering(
    h,
    rays: int = DEFAULT_RAY_COUNT,
    trials: int = DEFAULT_WITNESS_TRIALS,
    seed: int = 0,
    coverage_tol: float = DEFAULT_COVERAGE_TOL,
    witness_tol: float = DEFAULT_WITNESS_TOL,
    anchor_delta: float = DEFAULT_ANCHOR_DELTA,
) -> ScatterReport:
    """Run all three checks on one posterior matrix, reducing H once."""
    h = as_posterior_matrix(h)
    if trials < 1:
        raise ValueError("trials must be positive")
    basis = extreme_columns(h)
    ray_set = sample_boundary_rays(h.shape[0], rays, seed)
    frac, verdict = check_cone_coverage(basis, ray_set, coverage_tol)
    witness = search_rotation_witness(basis, trials=trials, seed=seed, tol=witness_tol)
    per_class_max, anchor_ok = anchor_presence(h, anchor_delta)
    return ScatterReport(
        classes=h.shape[0],
        columns=h.shape[1],
        rays_used=rays,
        coverage_tol=coverage_tol,
        coverage_pass_fraction=frac,
        coverage_verdict=verdict,
        witness_trials=trials,
        witness_tol=witness_tol,
        rotation_witness=witness,
        anchor_delta=anchor_delta,
        per_class_max=per_class_max,
        anchor_verdict=anchor_ok,
    )
