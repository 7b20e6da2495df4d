"""Geometry checks: boundary-ray construction, cone coverage against known
pass/fail posterior sets, the rotation-witness falsifier, the closed-form
two-class interval oracle vs brute-force grid search, and simplex volume."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from volmin import data, geometry, linalg

PROFILES = ["corner-rich", "edge-scattered", "center-heavy"]


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


def profile_columns(c, profile, m, seed):
    """m posterior columns at C = c: a simplex-feature profile at cap 0.9,
    or random Dirichlet columns."""
    if profile == "dirichlet":
        return np.random.default_rng([seed, c]).dirichlet([0.7] * c, size=m).T
    return data.gen_simplex_feature(c, m, profile, 0.9, seed).clean_posterior.T


def plain_coverage(h, rays, tol):
    """The verdict of one NNLS over every ray, as coverage had it before
    certificates."""
    _, resid = linalg.nnls(geometry.extreme_columns(h), rays.T)
    frac = int((resid / np.linalg.norm(rays, axis=1) < tol).sum()) / len(rays)
    return frac, frac == 1.0


class TestCoverageCertificates:
    """A ray that a seed solution's simplicial cone certifies skips its NNLS;
    the verdict must be the plain NNLS's on every input."""

    TOLS = (1e-4, 1e-8, 1e-12, 1e-15)

    @pytest.mark.parametrize("profile", PROFILES + ["dirichlet"])
    @pytest.mark.parametrize("c", [2, 3, 4, 10])
    def test_verdict_is_the_plain_nnls_verdict(self, c, profile):
        h = profile_columns(c, profile, 200, seed=c)
        for count in (geometry._SEED_RAYS // 2, 6 * geometry._SEED_RAYS):
            rays = geometry.sample_boundary_rays(c, count, seed=count)
            for tol in self.TOLS:
                assert geometry.check_cone_coverage(h, rays, tol) == plain_coverage(
                    h, rays, tol
                ), (count, tol)

    def test_certificates_skip_the_nnls_above_the_floor_only(self, monkeypatch):
        h = profile_columns(10, "edge-scattered", 200, seed=3)
        rays = geometry.sample_boundary_rays(10, 512, seed=3)
        want = plain_coverage(h, rays, 1e-12)
        solved = []
        nnls = linalg.nnls
        monkeypatch.setattr(
            linalg, "nnls", lambda a, b: solved.append(b.shape[1]) or nnls(a, b)
        )
        assert geometry.check_cone_coverage(h, rays, 1e-8) == (1.0, True)
        assert solved[0] == geometry._SEED_RAYS and sum(solved) < 512 // 4
        solved.clear()
        assert geometry.check_cone_coverage(h, rays, 1e-12) == want
        assert solved == [512]

    def test_nearly_every_ray_uncovered(self):
        h = np.random.default_rng(4).dirichlet([50.0] * 4, size=300).T
        rays = geometry.sample_boundary_rays(4, 256, seed=4)
        for tol in self.TOLS:
            got = geometry.check_cone_coverage(h, rays, tol)
            assert got == plain_coverage(h, rays, tol)
            assert got[0] < 0.05

    def test_singular_seed_cone_is_skipped(self):
        # Columns 0-3 lie in the face x4 = 0, so their 4 x 4 matrix is
        # singular; columns 0, 1, 2 and 4 are the corners of the simplex.
        basis = np.array([
            [1.0, 0.0, 0.0, 0.5, 0.0],
            [0.0, 1.0, 0.0, 0.5, 0.0],
            [0.0, 0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 1.0],
        ])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(basis[:, :4], np.ones(4))
        seed_x = np.array([[0.2, 0.2, 0.2, 0.2, 0.0], [0.1, 0.1, 0.1, 0.0, 0.1]]).T
        rays = geometry.sample_boundary_rays(4, 64, seed=5)
        held = geometry._certified(basis, seed_x, rays, np.linalg.norm(rays, axis=1), 1e-8)
        assert held.all()  # every ray lies in the orthant, the second cone
        held = geometry._certified(
            basis, seed_x[:, :1], rays, np.linalg.norm(rays, axis=1), 1e-8
        )
        assert not held.any()
        for count in (16, 200):
            rays = geometry.sample_boundary_rays(4, count, seed=count)
            for h in (basis, basis[:, :4]):
                for tol in self.TOLS:
                    assert geometry.check_cone_coverage(h, rays, tol) == plain_coverage(
                        h, rays, tol
                    )


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
            ("dirichlet300-c10", 10_000, True,
             "0c149b163008552c9d4e016b30ad609fe72d33dbe9b09e8d5a9b1f09d96d7038"),
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
        else:  # near the centre: 30 columns at C = 3, 4, 40 or 300 at C = 10
            c = int(name.split("-c")[1])
            m = 300 if name.startswith("dirichlet300") else 40 if c == 10 else 30
            h = np.random.default_rng(c).dirichlet([8.0] * c, size=m).T
        cayley_calls = []
        cayley = geometry._cayley
        monkeypatch.setattr(
            geometry, "_cayley", lambda s: cayley_calls.append(1) or cayley(s)
        )
        q = geometry.search_rotation_witness(h, trials=trials, seed=0)
        got = None if q is None else hashlib.sha256(q.tobytes()).hexdigest()
        assert got == digest
        assert bool(cayley_calls) == refined


def unblocked_min_entry(q, basis):
    """_min_entry as one product over the whole stack."""
    return (np.swapaxes(q, -1, -2) @ basis).min(axis=(-2, -1))


def reference_search(h, trials, seed, tol=geometry.DEFAULT_WITNESS_TOL):
    """search_rotation_witness as it was before pruning, screening and
    blocking: every Haar candidate QR-factored and scored against every
    column of H in one product per stack."""
    basis = geometry.extreme_columns(geometry.as_posterior_matrix(h))
    c = h.shape[0]
    rng = np.random.default_rng([seed, geometry._WITNESS_STREAM])

    def is_witness(q, score):
        return (score >= -tol
                and geometry._signed_permutation_distance(q) > geometry.PERMUTATION_BALL)

    candidates = []
    done = 0
    while done < trials:
        k = min(512, trials - done)
        qs = geometry._orthogonal_from_gaussian(rng.standard_normal((k, c, c)))
        scores = unblocked_min_entry(qs, basis)
        done += k
        for i in np.argsort(-scores, kind="stable")[: geometry.REFINE_TOP]:
            if is_witness(qs[i], scores[i]):
                return qs[i].copy()
            candidates.append((float(scores[i]), qs[i].copy()))
    candidates.sort(key=lambda sq: -sq[0])

    for _, q in candidates[: geometry.REFINE_TOP]:
        best = q
        best_score = unblocked_min_entry(best, basis)
        step = 0.3
        for _ in range(geometry.REFINE_STEPS):
            g = rng.standard_normal((8, c, c))
            turns = geometry._cayley(step * (g - np.swapaxes(g, -1, -2)))
            first = 0
            while first < len(turns):
                props = best @ turns[first:]
                scores = unblocked_min_entry(props, basis)
                better = np.flatnonzero(scores > best_score)
                if not better.size:
                    break
                i = int(better[0])
                best, best_score = props[i], scores[i]
                first += i + 1
            if first == 0:
                step *= 0.5
                if step < 1e-12:
                    break
            elif is_witness(best, best_score):
                return best.copy()
    return None


def near_collinear_stacks(c, k, seed):
    """Gaussian stacks whose leading columns nearly lie in the span of the
    earlier ones: each is a random mix of them plus `scale` times its own
    draw, at scales 1e-12 to 1e-1, so the guard trips on the small ones."""
    rng = np.random.default_rng([seed, c])
    for scale in np.logspace(-12, -1, 23):
        g = rng.standard_normal((k, c, c))
        for j in range(1, min(geometry._LEAD_COLUMNS, c)):
            mix = rng.standard_normal((k, j, 1))
            g[:, :, j] = (g[:, :, :j] @ mix)[:, :, 0] + scale * g[:, :, j]
        yield scale, g


class TestLeadingBound:
    """The bound from a Gaussian draw's leading Gram-Schmidt columns holds
    the exact score of its QR from above, up to far less than the slack."""

    @pytest.mark.parametrize("c", [2, 3, 4, 10])
    def test_bound_holds_the_exact_score(self, c):
        basis = geometry.extreme_columns(profile_columns(c, "dirichlet", 60, seed=c))
        slack = geometry._LEAD_SLACK
        random = np.random.default_rng(c).standard_normal((2048, c, c))
        stacks = [(1.0, random)] + list(near_collinear_stacks(c, 256, seed=c))
        worst = -np.inf
        for scale, g in stacks:
            exact = geometry._min_entry(geometry._orthogonal_from_gaussian(g), basis)
            bound = geometry._leading_bound(g, basis)
            assert (exact <= bound + slack).all(), scale
            worst = max(worst, float((exact - bound).max()))
            # With a cut, a candidate's bound stops at the first column that
            # drops it below; every other candidate keeps the full bound.
            cut = float(np.median(exact))
            early = geometry._leading_bound(g, basis, cut)
            assert (exact <= early + slack).all()
            reach = ~(early + slack < cut)
            np.testing.assert_array_equal(early[reach], bound[reach])
            np.testing.assert_array_equal(reach, ~(bound + slack < cut))
            if scale < 1e-6 and c > 2:
                # The guard drops the second column: only the first counts.
                q1 = g[:, :, 0] / np.linalg.norm(g[:, :, 0], axis=1, keepdims=True)
                np.testing.assert_array_equal(bound, (q1 @ basis).min(axis=1))
        assert worst < slack / 1000

    def test_zero_first_column_bounds_nothing(self):
        basis = np.eye(3)
        g = np.random.default_rng(1).standard_normal((4, 3, 3))
        g[2, :, 0] = 0.0
        bound = geometry._leading_bound(g, basis, cut=0.5)
        assert bound[2] == np.inf


# (classes, profile, columns, data seed and search seed, trials, phase in which
# the witness is found: "haar", "refined" or None for no witness)
PRUNE_CASES = [
    (2, "near-centre", 30, 0, 2048, "haar"),
    (3, "near-centre", 30, 0, 2048, "haar"),
    (4, "near-centre", 100, 0, 4096, "haar"),
    (4, "near-centre", 300, 2, 4096, "haar"),
    (6, "near-centre", 10, 1, 4096, "haar"),
    (6, "near-centre", 30, 1, 2048, "haar"),
    (4, "near-centre", 300, 0, 4096, "refined"),
    (6, "near-centre", 30, 0, 4096, "refined"),
    (10, "near-centre", 30, 0, 4096, "refined"),
    (10, "near-centre", 100, 1, 2048, "refined"),
    (2, "corner-rich", 300, 0, 2048, "haar"),
    (3, "corner-rich", 300, 0, 2048, "refined"),
    (2, "edge-scattered", 300, 0, 2048, "haar"),
] + [
    (c, profile, 300, seed, trials, None)
    for c, seed, trials in [(3, 0, 10_000), (3, 1, 2048), (4, 0, 2048), (6, 0, 2048),
                            (10, 0, 10_000), (10, 1, 2048)]
    for profile in ("corner-rich", "edge-scattered")
    if (profile, c) != ("corner-rich", 3)
] + [(6, "corner-rich", 300, 1, 10_000, None)]
# C = 4, 6 and 10 at 300 columns, seeds 0-3 and 2048 trials, near the centre
# (phases by seed below) and corner-rich (never a witness); three of them
# are listed above already.
NEAR_CENTRE_PHASES = {4: ("refined", "refined", "haar", "refined"),
                      6: ("refined",) * 4,
                      10: (None, "refined", "refined", "refined")}
PRUNE_CASES += [
    (c, profile, 300, seed, 2048, phases[seed] if profile == "near-centre" else None)
    for c, phases in NEAR_CENTRE_PHASES.items()
    for profile in ("near-centre", "corner-rich")
    for seed in range(4)
    if (c, profile, seed) not in [(4, "corner-rich", 0), (6, "corner-rich", 0),
                                  (10, "corner-rich", 1)]
]


def prune_case_columns(c, profile, m, seed):
    if profile == "near-centre":
        return np.random.default_rng([seed, c]).dirichlet([8.0] * c, size=m).T
    return profile_columns(c, profile, m, seed)


def recorded_search(monkeypatch, h, trials, seed):
    """The search's result, the sizes of the stacks it QR-factors, and
    whether the Cayley refinement ran."""
    sizes, cayley_calls = [], []
    orthogonal, cayley = geometry._orthogonal_from_gaussian, geometry._cayley
    with monkeypatch.context() as m:
        m.setattr(geometry, "_orthogonal_from_gaussian",
                  lambda g: sizes.append(len(g)) or orthogonal(g))
        m.setattr(geometry, "_cayley", lambda s: cayley_calls.append(1) or cayley(s))
        q = geometry.search_rotation_witness(h, trials=trials, seed=seed)
    return q, sizes, bool(cayley_calls)


class TestPrunedSearch:
    """Haar batches after the first QR-factor only the candidates whose
    leading-column bound reaches the cut; the search must return the bits of
    the search that factors and scores every candidate."""

    @pytest.mark.parametrize("c, profile, m, seed, trials, phase", PRUNE_CASES)
    def test_same_search_as_unpruned(self, monkeypatch, c, profile, m, seed, trials, phase):
        h = prune_case_columns(c, profile, m, seed)
        want = reference_search(h, trials=trials, seed=seed)
        got, sizes, refined = recorded_search(monkeypatch, h, trials, seed)
        if want is None:
            assert got is None
        else:
            assert got is not None and got.tobytes() == want.tobytes()
        assert (got is None) == (phase is None)
        assert refined == (phase != "haar")
        if len(sizes) > 1:  # later batches ran and were pruned
            assert sum(sizes[1:]) < 512 * (len(sizes) - 1) / 2, sizes

    def test_batch_without_survivors(self, monkeypatch):
        h = prune_case_columns(3, "edge-scattered", 300, 0)
        want = reference_search(h, trials=10_000, seed=0)
        got, sizes, _ = recorded_search(monkeypatch, h, 10_000, 0)
        assert want is None and got is None
        assert 0 in sizes

    @pytest.mark.parametrize("rank, copies", [(0, [3, 40, 300]), (7, [200])])
    def test_tied_survivor_leaders_rank_the_whole_batch(self, monkeypatch, rank, copies):
        # Every Haar batch after the first carries copies of the draw of its
        # rank-th best candidate, so leaders tie: the best ones, or the 8th
        # and 9th. The pruned search must still give the unpruned bits.
        h = prune_case_columns(6, "corner-rich", 300, 0)
        basis = geometry.extreme_columns(h)
        orthogonal, default_rng = geometry._orthogonal_from_gaussian, np.random.default_rng

        class TiedDraws:
            def __init__(self, seed):
                self.rng, self.batches = default_rng(seed), 0

            def standard_normal(self, shape):
                g = self.rng.standard_normal(shape)
                if shape[0] == 512:
                    if self.batches:
                        scores = geometry._min_entry(orthogonal(g), basis)
                        g[copies] = g[np.argsort(-scores)[rank]]
                    self.batches += 1
                return g

        monkeypatch.setattr(np.random, "default_rng", TiedDraws)
        want = reference_search(h, trials=2048, seed=0)
        got, _, _ = recorded_search(monkeypatch, h, 2048, 0)
        assert (got is None) == (want is None)
        assert got is None or got.tobytes() == want.tobytes()

    def test_tied_leaders_go_to_the_lower_index(self, monkeypatch):
        # The first Haar batch carries column-permuted copies of its best
        # candidate, a witness: different matrices with the same score, so
        # the copy at the lowest index is returned.
        h = prune_case_columns(3, "near-centre", 30, 0)
        basis = geometry.extreme_columns(h)
        orthogonal = geometry._orthogonal_from_gaussian
        copies, perms = [50, 60, 70], [[1, 2, 0], [2, 0, 1], [1, 0, 2]]
        first = []

        def tied_first_batch(g):
            qs = orthogonal(g)
            if not first:
                best = int(np.argmax(geometry._min_entry(qs, basis)))
                assert best > copies[0]
                qs[copies] = [qs[best][:, p] for p in perms]
                first.append(qs[copies[0]].copy())
            return qs

        monkeypatch.setattr(geometry, "_orthogonal_from_gaussian", tied_first_batch)
        want = reference_search(h, trials=2048, seed=0)
        first.clear()
        got = geometry.search_rotation_witness(h, trials=2048, seed=0)
        assert got.tobytes() == want.tobytes() == first[0].tobytes()


# (classes, columns, candidates): at 400 columns the stacks end in part
# blocks (a single row among them); the wide bases make each block of
# _min_entry hold one candidate.
BLOCK_CASES = [(3, 400, 513), (3, 400, 328), (10, 400, 513), (10, 400, 328),
               (3, 22_000, 5), (10, 7_000, 5)]


class TestBlockedScores:
    """Score products formed block by block carry the bits of one product
    over the whole stack."""

    @pytest.mark.parametrize("least", [1, 2])
    def test_blocks_cover_each_row_once(self, least):
        for n in range(12):
            sizes = []
            got = geometry._in_blocks(lambda x: sizes.append(len(x)) or x,
                                      np.arange(n), geometry._BLOCK // 3, least)
            np.testing.assert_array_equal(got, np.arange(n))
            assert max(sizes) <= 3 + least - 1
            assert n < least or min(sizes) >= least

    @pytest.mark.parametrize("block", ["default", "smallest"])
    @pytest.mark.parametrize("c, m, k", BLOCK_CASES)
    def test_same_bits_as_one_product(self, monkeypatch, c, m, k, block):
        if block == "smallest":  # one matrix, or two rows, per block
            monkeypatch.setattr(geometry, "_BLOCK", 1)
        basis = profile_columns(c, "dirichlet", m, seed=m)
        g = np.random.default_rng([c, m, k]).standard_normal((k, c, c))
        qs = geometry._orthogonal_from_gaussian(g)
        whole = unblocked_min_entry(qs, basis)
        if m > 1000:
            assert 2 * basis.size > geometry._BLOCK  # a block holds one candidate
        assert geometry._min_entry(qs, basis).tobytes() == whole.tobytes()
        assert geometry._min_entry(qs[1], basis) == unblocked_min_entry(qs[1], basis)
        cut = float(np.median(whole))

        def helpers():
            return [geometry._leading_bound(g, basis), geometry._leading_bound(g, basis, cut)]

        blocked = helpers()
        with monkeypatch.context() as patched:
            patched.setattr(geometry, "_in_blocks", lambda f, x, *args: f(x))
            unblocked = helpers()
        for got, want in zip(blocked, unblocked):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestSearchMemory:
    def test_peak_does_not_grow_with_the_batch_product(self):
        # One (512, C, m) product of the first Haar batch would be 164 MB here.
        h = data.gen_simplex_feature(10, 4000, "edge-scattered", 0.9, 0).clean_posterior.T
        tracemalloc.start()
        try:
            q = geometry.search_rotation_witness(h, trials=10_000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert q is None
        assert peak < 8e6


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


def reference_hull_2d(points):
    """_hull_2d's monotone chain on numpy scalars, as it ran before."""
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


def simplex_plane(h):
    """extreme_columns' affine embedding of C = 3 columns into the plane."""
    return np.stack([h[1] + 0.5 * h[2], (math.sqrt(3) / 2) * h[2]], axis=1)


class TestHullOnPythonFloats:
    def _same(self, points):
        got = geometry._hull_2d(points)
        assert got.tobytes() == reference_hull_2d(points).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 500])
    def test_random_points(self, n):
        self._same(np.random.default_rng(n).random((n, 2)))

    def test_duplicated_points(self):
        pts = np.random.default_rng(30).random((60, 2))
        self._same(np.vstack([pts, pts[::3], pts[:5], pts[:5]]))
        self._same(np.repeat(pts[:1], 4, axis=0))

    @pytest.mark.parametrize("step", [0.5, 0.1, 0.01])
    def test_grid_points_are_exactly_collinear(self, step):
        pts = np.round(np.random.default_rng(31).random((400, 2)) / step) * step
        self._same(pts)

    @pytest.mark.parametrize("profile", PROFILES)
    def test_c3_profiles(self, profile):
        self._same(simplex_plane(profile_columns(3, profile, 4000, seed=0)))


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
