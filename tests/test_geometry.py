"""Geometry checks: boundary-ray construction, cone coverage against known
pass/fail posterior sets, the rotation-witness falsifier, the closed-form
two-class interval oracle vs brute-force grid search, and simplex volume."""

import hashlib
import math

import numpy as np
import pytest

from volmin import geometry, linalg


def edge_mixture_columns(top=0.9):
    """Six columns on the simplex edges with max entry `top` (three-class
    scattering without anchors)."""
    cols = []
    for i, j in [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)]:
        v = np.zeros(3)
        v[i] = top
        v[j] = 1.0 - top
        cols.append(v)
    return np.array(cols).T


class TestBoundaryRays:
    def test_boundary_equation_and_unit_norm(self):
        for c in (2, 3, 5, 8):
            rays = geometry.sample_boundary_rays(c, 200, seed=1)
            assert rays.shape == (200, c)
            sums = rays.sum(axis=1)
            norms = np.linalg.norm(rays, axis=1)
            assert np.abs(sums - math.sqrt(c - 1)).max() < 1e-9
            assert np.abs(norms - 1.0).max() < 1e-9

    def test_two_class_rays_are_exactly_the_axes(self):
        rays = geometry.sample_boundary_rays(2, 10, seed=2)
        uniq = np.unique(rays, axis=0)
        np.testing.assert_array_equal(uniq, [[0.0, 1.0], [1.0, 0.0]])

    def test_entrywise_nonnegative(self):
        for c in (2, 3, 4, 7, 12):
            rays = geometry.sample_boundary_rays(c, 500, seed=3)
            assert rays.min() >= -1e-9

    def test_deterministic_per_seed(self):
        a = geometry.sample_boundary_rays(4, 64, seed=5)
        b = geometry.sample_boundary_rays(4, 64, seed=5)
        assert np.array_equal(a, b)
        c = geometry.sample_boundary_rays(4, 64, seed=6)
        assert not np.array_equal(a, c)


class TestConeCoverage:
    def test_identity_passes_all_sizes(self):
        for c in range(2, 11):
            rays = geometry.sample_boundary_rays(c, 128, seed=7)
            frac, ok = geometry.check_cone_coverage(np.eye(c), rays, tol=1e-8)
            assert ok and frac == 1.0

    def test_single_direction_fails(self):
        h = np.full((3, 5), 1.0 / 3.0)
        rays = geometry.sample_boundary_rays(3, 64, seed=8)
        frac, ok = geometry.check_cone_coverage(h, rays, tol=1e-8)
        assert not ok
        assert frac < 0.1

    def test_edge_mixture_passes_without_anchors(self):
        h = edge_mixture_columns(0.9)
        rays = geometry.sample_boundary_rays(3, 256, seed=9)
        frac, ok = geometry.check_cone_coverage(h, rays, tol=1e-8)
        assert ok
        assert h.max() < 0.95  # no approximate anchor anywhere

    def test_monotone_in_columns(self):
        # Adding columns never breaks a passing ray.
        rng = np.random.default_rng(10)
        h = edge_mixture_columns(0.9)
        extra = rng.dirichlet([1, 1, 1], size=20).T
        rays = geometry.sample_boundary_rays(3, 128, seed=11)
        frac_small, _ = geometry.check_cone_coverage(h, rays)
        frac_big, _ = geometry.check_cone_coverage(np.hstack([h, extra]), rays)
        assert frac_big >= frac_small

    def test_rejects_off_simplex_columns(self):
        with pytest.raises(ValueError):
            geometry.check_cone_coverage(
                np.array([[0.5, 0.9], [0.2, 0.1]]),
                geometry.sample_boundary_rays(2, 4),
            )

    @pytest.mark.parametrize("row, value", [(2, 0.0), (1, np.nan), (3, np.inf)])
    def test_rejects_zero_or_non_finite_ray_before_solving(self, monkeypatch, row, value):
        # 0 lies in every cone, so a zero ray is not a failing ray; a NaN
        # ray has no answer. Both are named before any NNLS runs.
        def no_solve(*args, **kwargs):
            raise AssertionError("nnls ran on invalid rays")

        monkeypatch.setattr(linalg, "nnls", no_solve)
        rays = geometry.sample_boundary_rays(3, 6, seed=20)
        rays[row] = value
        with pytest.raises(ValueError, match=rf"ray {row} is zero or non-finite"):
            geometry.check_cone_coverage(np.eye(3), rays)


class TestRotationWitness:
    def test_identity_has_no_witness(self):
        for c in (2, 3, 4):
            w = geometry.search_rotation_witness(np.eye(c), trials=2000, seed=12)
            assert w is None

    def test_strictly_interior_two_class_has_witness(self):
        h = np.array([[0.2, 0.8, 0.5, 0.35], [0.8, 0.2, 0.5, 0.65]])
        w = geometry.search_rotation_witness(h, trials=400, seed=13)
        assert w is not None
        # Orthogonal, nonnegative product, and genuinely not a permutation.
        np.testing.assert_allclose(w.T @ w, np.eye(2), atol=1e-10)
        assert (w.T @ h).min() >= -geometry.DEFAULT_WITNESS_TOL
        assert geometry._signed_permutation_distance(w) > geometry.PERMUTATION_BALL

    def test_edge_mixture_has_no_witness(self):
        h = edge_mixture_columns(0.9)
        w = geometry.search_rotation_witness(h, trials=10_000, seed=14)
        assert w is None

    def test_deterministic_per_seed(self):
        h = np.array([[0.25, 0.75, 0.4], [0.75, 0.25, 0.6]])
        a = geometry.search_rotation_witness(h, trials=200, seed=15)
        b = geometry.search_rotation_witness(h, trials=200, seed=15)
        assert a is not None and b is not None
        assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "name, trials, refined, digest",
        [
            ("identity", 2000, True, None),
            ("interior", 10_000, False,
             "e0e4657cbf7319d2358ced48a05ab814a0e60ad7f400cec9c4b4218c4f5e8292"),
            ("dirichlet-c3", 500, False,
             "19c91e4c0c870ce97de76f61638970008bccca27b63e4257591e7f315e28ca15"),
            ("dirichlet-c4", 50, True,
             "2ac55a6e368935ca49a3808986e859fd825cafb440879f1345a8e39badc5357c"),
            ("dirichlet-c10", 500, True,
             "2b8620ed300c94a9b93f9023ce61688bf00b1602d185f74bcc87b5b1f1367e1f"),
        ],
    )
    def test_pinned_witness_bits(self, monkeypatch, name, trials, refined, digest):
        # sha256 of the witness bytes (None: no witness) as the one-proposal-
        # at-a-time hill-climb produced them; `refined` says whether the
        # Cayley refinement ran, so both search phases stay pinned.
        if name == "identity":
            h = np.eye(3)
        elif name == "interior":
            h = np.stack([np.linspace(0.3, 0.7, 30), np.linspace(0.7, 0.3, 30)])
        else:  # 30 columns at C = 3, 4 and 40 at C = 10, near the centre
            c = int(name.split("-c")[1])
            h = np.random.default_rng(c).dirichlet([8.0] * c, size=40 if c == 10 else 30).T
        cayley_calls = []
        cayley = geometry._cayley
        monkeypatch.setattr(
            geometry, "_cayley", lambda s: cayley_calls.append(1) or cayley(s)
        )
        q = geometry.search_rotation_witness(h, trials=trials, seed=0)
        got = None if q is None else hashlib.sha256(q.tobytes()).hexdigest()
        assert got == digest
        assert bool(cayley_calls) == refined


class TestExtremeColumns:
    @pytest.mark.parametrize("c", [2, 3, 4, 10])
    def test_reduction_is_idempotent(self, c):
        rng = np.random.default_rng(c)
        h = rng.dirichlet([0.5] * c, size=200).T
        h = np.hstack([h, h[:, :7], np.eye(c)])  # duplicates and corners
        once = geometry.extreme_columns(h)
        twice = geometry.extreme_columns(once)
        assert once.shape[1] <= h.shape[1]
        assert once.tobytes() == twice.tobytes() and once.shape == twice.shape


class TestAnchorPresence:
    def test_identity_columns_pass_any_delta(self):
        h = np.hstack([np.eye(3), np.full((3, 4), 1.0 / 3.0)])
        for delta in (0.0, 0.01, 0.5):
            _, ok = geometry.anchor_presence(h, delta)
            assert ok

    def test_capped_columns_fail_tight_delta(self):
        h = edge_mixture_columns(0.9)
        per_class, ok = geometry.anchor_presence(h, 0.05)
        assert not ok
        np.testing.assert_allclose(per_class, 0.9, atol=1e-12)

    def test_delta_one_is_vacuous(self):
        h = np.full((4, 3), 0.25)
        _, ok = geometry.anchor_presence(h, 1.0)
        assert ok


def grid_search_interval(values, step=1e-3):
    """Brute-force minimum-|T11 - T12| enclosure over a (T11, T12) grid."""
    hi, lo = max(values), min(values)
    grid = np.round(np.arange(0.0, 1.0 + step / 2, step), 9)
    best = None
    for t11 in grid:
        if t11 < hi or t11 <= 0.5:
            continue
        for t12 in grid:
            if t12 > lo or t12 >= 0.5:
                continue
            if best is None or (t11 - t12) < (best[0] - best[1]) - 1e-15:
                best = (t11, t12)
    assert best is not None
    return np.array([[best[0], best[1]], [1 - best[0], 1 - best[1]]])


class TestMinVolumeInterval:
    def test_anchor_endpoints_give_identity(self):
        t = geometry.min_volume_interval([0.0, 0.25, 0.8, 1.0])
        np.testing.assert_array_equal(t, np.eye(2))

    def test_reads_min_and_max(self):
        t = geometry.min_volume_interval([0.3, 0.44, 0.61, 0.8])
        np.testing.assert_allclose(t, [[0.8, 0.3], [0.2, 0.7]], atol=1e-15)

    def test_infeasible_dominance_rejected(self):
        with pytest.raises(ValueError, match="dominance"):
            geometry.min_volume_interval([0.1, 0.2, 0.4])
        with pytest.raises(ValueError, match="dominance"):
            geometry.min_volume_interval([0.6, 0.7, 0.9])

    def test_needs_two_distinct_values(self):
        with pytest.raises(ValueError):
            geometry.min_volume_interval([0.7, 0.7])

    def test_matches_grid_search_oracle(self):
        # Inputs on the 1e-3 grid so closed form and grid agree exactly.
        rng = np.random.default_rng(16)
        for _ in range(100):
            lo = round(float(rng.uniform(0.0, 0.45)), 3)
            hi = round(float(rng.uniform(0.55, 1.0)), 3)
            mids = np.round(rng.uniform(lo, hi, size=6), 3)
            values = np.concatenate([[lo, hi], mids])
            got = geometry.min_volume_interval(values)
            want = grid_search_interval(values)
            np.testing.assert_allclose(got, want, atol=1e-12)


class TestScatterReport:
    def test_report_fields_consistent(self):
        h = edge_mixture_columns(0.9)
        rep = geometry.analyze_scattering(h, rays=64, trials=300, seed=18)
        assert rep.classes == 3 and rep.columns == 6
        assert rep.coverage_verdict and rep.coverage_pass_fraction == 1.0
        assert rep.rotation_witness is None
        assert not rep.anchor_verdict
        assert rep.scattered_verdict
        text = rep.to_text()
        assert "coverage_verdict=true" in text
        assert "rotation_witness_found=false" in text
        assert "no witness found in 300 trials" in text
        assert "anchor_verdict=false" in text

    def test_rejects_bad_trials_before_coverage(self, monkeypatch):
        def no_coverage(*args, **kwargs):
            raise AssertionError("coverage solved before trials were checked")

        monkeypatch.setattr(geometry, "check_cone_coverage", no_coverage)
        with pytest.raises(ValueError, match="trials must be positive"):
            geometry.analyze_scattering(np.eye(3), rays=16, trials=0)

    def test_reduces_once_and_matches_the_separate_checks(self, monkeypatch):
        h = np.random.default_rng(21).dirichlet([0.4] * 3, size=300).T
        rays = geometry.sample_boundary_rays(3, 64, seed=22)
        cover = geometry.check_cone_coverage(h, rays)
        witness = geometry.search_rotation_witness(h, trials=300, seed=22)
        widths = []
        reduce = geometry.extreme_columns
        monkeypatch.setattr(
            geometry, "extreme_columns", lambda m: widths.append(m.shape[1]) or reduce(m)
        )
        rep = geometry.analyze_scattering(h, rays=64, trials=300, seed=22)
        assert widths.count(h.shape[1]) == 1  # the full H is reduced once
        assert (rep.coverage_pass_fraction, rep.coverage_verdict) == cover
        np.testing.assert_array_equal(rep.rotation_witness, witness)

    def test_witness_reported_when_found(self):
        h = np.array([[0.2, 0.8, 0.5], [0.8, 0.2, 0.5]])
        rep = geometry.analyze_scattering(h, rays=16, trials=400, seed=19)
        assert rep.rotation_witness is not None
        assert not rep.scattered_verdict
        assert "rotation_witness_found=true" in rep.to_text()
