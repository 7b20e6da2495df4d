"""Dataset generator tests: profile geometry, cap enforcement, closed-form
Gaussian posteriors, anchor removal, balancing, splits, and CSV IO."""

import importlib
import math
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import volmin
from volmin import data, geometry


class TestSimplexFeatureGenerator:
    def test_features_equal_posterior(self):
        ds = data.gen_simplex_feature(3, 500, "corner-rich", seed=1)
        assert np.array_equal(ds.x, ds.clean_posterior)
        assert ds.d == ds.classes == 3

    def test_rows_on_simplex(self):
        for profile in data.SIMPLEX_PROFILES:
            ds = data.gen_simplex_feature(4, 800, profile, cap=0.85, seed=2)
            np.testing.assert_allclose(ds.clean_posterior.sum(axis=1), 1.0, atol=1e-9)
            assert ds.clean_posterior.min() >= 0.0

    def test_cap_enforced(self):
        for cap in (0.7, 0.9, 1.0):
            ds = data.gen_simplex_feature(3, 2000, "corner-rich", cap=cap, seed=3)
            assert ds.clean_posterior.max() <= cap + 1e-12

    def test_corner_rich_has_anchors_at_full_cap(self):
        ds = data.gen_simplex_feature(3, 10_000, "corner-rich", cap=1.0, seed=4)
        _, ok = geometry.anchor_presence(ds.clean_posterior.T, 0.01)
        assert ok

    def test_edge_scattered_capped_scatters_without_anchors(self):
        ds = data.gen_simplex_feature(3, 20_000, "edge-scattered", cap=0.9, seed=5)
        h = ds.clean_posterior.T
        _, anchors = geometry.anchor_presence(h, 0.05)
        assert not anchors
        rays = geometry.sample_boundary_rays(3, 256, seed=5)
        _, covered = geometry.check_cone_coverage(h, rays)
        assert covered

    def test_center_heavy_fails_coverage(self):
        ds = data.gen_simplex_feature(3, 5000, "center-heavy", seed=6)
        rays = geometry.sample_boundary_rays(3, 128, seed=6)
        _, covered = geometry.check_cone_coverage(ds.clean_posterior.T, rays)
        assert not covered

    def test_class_frequencies_match_priors(self):
        # Symmetric profiles have uniform label priors; 3 sigma at n = 1e5.
        ds = data.gen_simplex_feature(3, 100_000, "corner-rich", seed=7)
        freq = np.bincount(ds.y_clean, minlength=3) / ds.n
        sigma = math.sqrt((1 / 3) * (2 / 3) / ds.n)
        assert np.abs(freq - 1 / 3).max() < 3 * sigma

    def test_cap_bounds_checked(self):
        with pytest.raises(ValueError):
            data.gen_simplex_feature(3, 10, "corner-rich", cap=1.0 / 3.0)
        with pytest.raises(ValueError):
            data.gen_simplex_feature(3, 10, "corner-rich", cap=1.2)

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            data.gen_simplex_feature(3, 10, "edge")

    def test_deterministic_per_seed(self):
        a = data.gen_simplex_feature(3, 100, "edge-scattered", seed=8)
        b = data.gen_simplex_feature(3, 100, "edge-scattered", seed=8)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y_clean, b.y_clean)
        c = data.gen_simplex_feature(3, 100, "edge-scattered", seed=9)
        assert not np.array_equal(a.x, c.x)


class TestGaussianMixture:
    def test_posterior_at_origin_is_uniform(self):
        p = data.gaussian_mixture_posterior(
            np.array([[0.0]]), np.array([[-1.0], [1.0]]), np.eye(1), np.array([0.5, 0.5])
        )
        np.testing.assert_allclose(p, [[0.5, 0.5]], atol=1e-15)

    def test_posterior_at_three_matches_logistic(self):
        # Symmetric unit-variance means at +-1: log-odds are 2x, so the
        # posterior at x=3 is sigmoid(6).
        p = data.gaussian_mixture_posterior(
            np.array([[3.0]]), np.array([[-1.0], [1.0]]), np.eye(1), np.array([0.5, 0.5])
        )
        np.testing.assert_allclose(p[0, 1], 1.0 / (1.0 + math.exp(-6.0)), atol=1e-12)
        np.testing.assert_allclose(p[0, 1], 0.997527, atol=1e-6)

    def test_closed_form_matches_density_ratio(self):
        # Independent oracle: direct density evaluation per component.
        rng = np.random.default_rng(21)
        means = rng.standard_normal((3, 2))
        a = rng.standard_normal((2, 2))
        cov = a @ a.T + 0.5 * np.eye(2)
        priors = np.array([0.2, 0.5, 0.3])
        x = rng.standard_normal((50, 2))
        got = data.gaussian_mixture_posterior(x, means, cov, priors)
        inv = np.linalg.inv(cov)
        norm = 1.0 / math.sqrt(((2 * math.pi) ** 2) * np.linalg.det(cov))
        dens = np.zeros((50, 3))
        for i in range(50):
            for k in range(3):
                diff = x[i] - means[k]
                dens[i, k] = priors[k] * norm * math.exp(-0.5 * diff @ inv @ diff)
        want = dens / dens.sum(axis=1, keepdims=True)
        assert np.abs(got - want).max() < 1e-10

    def test_generated_dataset_shapes_and_frequencies(self):
        means = np.array([[-2.0, 0.0], [2.0, 0.0]])
        ds = data.gen_gaussian_mixture(2, 2, means, n=20_000, seed=22)
        assert ds.x.shape == (20_000, 2)
        np.testing.assert_allclose(ds.clean_posterior.sum(axis=1), 1.0, atol=1e-9)
        freq = np.bincount(ds.y_clean, minlength=2) / ds.n
        sigma = math.sqrt(0.25 / ds.n)
        assert np.abs(freq - 0.5).max() < 4 * sigma


class TestRemoveAnchorCandidates:
    def _dataset(self, per_class=1000, seed=23):
        rng = np.random.default_rng(seed)
        post = rng.dirichlet([1.0, 1.0, 1.0], size=3 * per_class)
        y = np.repeat(np.arange(3), per_class)
        return data.Dataset(x=post.copy(), y_clean=y, classes=3, clean_posterior=post)

    def test_zero_fraction_is_identity(self):
        ds = self._dataset(100)
        out = data.remove_anchor_candidates(ds, 0.0)
        assert out.n == ds.n
        assert np.array_equal(out.x, ds.x)

    def test_forty_percent_of_thousand_leaves_six_hundred(self):
        ds = self._dataset(1000)
        out = data.remove_anchor_candidates(ds, 0.4)
        np.testing.assert_array_equal(np.bincount(out.y_clean), [600, 600, 600])

    def test_removes_the_largest_posteriors(self):
        ds = self._dataset(500)
        out = data.remove_anchor_candidates(ds, 0.1)
        for j in range(3):
            before = ds.clean_posterior[ds.y_clean == j, j]
            after = out.clean_posterior[out.y_clean == j, j]
            # The survivors are exactly the smallest 90 percent.
            np.testing.assert_allclose(
                np.sort(after), np.sort(before)[: after.size], atol=0
            )
            assert after.max() < before.max()

    def test_maxima_non_increasing_in_fraction(self):
        ds = self._dataset(400)
        prev = np.array([1.0, 1.0, 1.0])
        for q in (0.0, 0.1, 0.3, 0.5):
            out = data.remove_anchor_candidates(ds, q)
            maxima, _ = geometry.anchor_presence(out.clean_posterior.T, 1.0)
            assert (maxima <= prev + 1e-15).all()
            prev = maxima

    def test_missing_posterior_rejected(self):
        ds = data.Dataset(x=np.zeros((4, 2)), y_clean=[0, 1, 0, 1], classes=2)
        with pytest.raises(ValueError):
            data.remove_anchor_candidates(ds, 0.1)

    def test_bad_fraction_rejected(self):
        ds = self._dataset(10)
        for q in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                data.remove_anchor_candidates(ds, q)


class TestBalancedUndersample:
    def test_min_rule(self):
        y = np.concatenate([np.zeros(100, int), np.ones(50, int), np.full(75, 2)])
        ds = data.Dataset(
            x=np.arange(450, dtype=float).reshape(225, 2), y_clean=y, classes=3
        )
        out = data.balanced_undersample(ds, seed=1)
        np.testing.assert_array_equal(np.bincount(out.y_clean), [50, 50, 50])

    def test_balances_noisy_labels_when_present(self):
        y_clean = np.array([0, 0, 0, 1, 1, 1])
        y_noisy = np.array([0, 0, 0, 0, 1, 1])
        ds = data.Dataset(
            x=np.zeros((6, 1)), y_clean=y_clean, classes=2, y_noisy=y_noisy
        )
        out = data.balanced_undersample(ds, seed=2)
        np.testing.assert_array_equal(np.bincount(out.y_noisy), [2, 2])

    def test_already_balanced_keeps_counts(self):
        y = np.tile([0, 1, 2], 30)
        ds = data.Dataset(x=np.zeros((90, 1)), y_clean=y, classes=3)
        out = data.balanced_undersample(ds, seed=3)
        np.testing.assert_array_equal(np.bincount(out.y_clean), [30, 30, 30])

    def test_deterministic_per_seed(self):
        y = np.concatenate([np.zeros(40, int), np.ones(20, int)])
        ds = data.Dataset(
            x=np.arange(60, dtype=float).reshape(60, 1), y_clean=y, classes=2
        )
        a = data.balanced_undersample(ds, seed=4)
        b = data.balanced_undersample(ds, seed=4)
        assert np.array_equal(a.x, b.x)

    def test_empty_class_rejected(self):
        ds = data.Dataset(x=np.zeros((3, 1)), y_clean=[0, 0, 0], classes=2)
        with pytest.raises(ValueError):
            data.balanced_undersample(ds)


class TestSplit:
    def test_sizes(self):
        ds = data.gen_simplex_feature(3, 1000, "center-heavy", seed=30)
        train, val = data.split(ds, 0.1, seed=30)
        assert (train.n, val.n) == (900, 100)

    def test_zero_fraction(self):
        ds = data.gen_simplex_feature(3, 50, "center-heavy", seed=31)
        train, val = data.split(ds, 0.0, seed=31)
        assert (train.n, val.n) == (50, 0)

    def test_partition_is_exact(self):
        ds = data.gen_simplex_feature(2, 200, "corner-rich", seed=32)
        train, val = data.split(ds, 0.25, seed=32)
        merged = np.sort(np.concatenate([train.x[:, 0], val.x[:, 0]]))
        np.testing.assert_array_equal(merged, np.sort(ds.x[:, 0]))

    def test_deterministic_per_seed(self):
        ds = data.gen_simplex_feature(2, 100, "corner-rich", seed=33)
        a = data.split(ds, 0.2, seed=33)[0]
        b = data.split(ds, 0.2, seed=33)[0]
        assert np.array_equal(a.x, b.x)
        c = data.split(ds, 0.2, seed=34)[0]
        assert not np.array_equal(a.x, c.x)

    def test_carries_all_fields(self):
        ds = data.gen_simplex_feature(3, 60, "corner-rich", seed=35)
        ds = ds.with_noisy(ds.y_clean.copy())
        train, val = data.split(ds, 0.5, seed=35)
        for part in (train, val):
            assert part.y_noisy is not None
            assert part.clean_posterior is not None
            assert part.classes == 3


class TestCsvIO:
    def test_round_trip_bitwise(self, tmp_path):
        ds = data.gen_simplex_feature(3, 120, "edge-scattered", cap=0.9, seed=40)
        ds = ds.with_noisy((ds.y_clean + 1) % 3)
        path = tmp_path / "dataset.csv"
        data.write_csv(path, ds)
        back = data.read_csv(path, 3)
        assert np.array_equal(back.x, ds.x)
        assert np.array_equal(back.y_clean, ds.y_clean)
        assert np.array_equal(back.y_noisy, ds.y_noisy)
        assert np.array_equal(back.clean_posterior, ds.clean_posterior)
        assert back.classes == 3

    def test_posterior_written_to_sibling_file(self, tmp_path):
        ds = data.gen_simplex_feature(2, 10, "corner-rich", seed=41)
        data.write_csv(tmp_path / "toy.csv", ds)
        sibling = tmp_path / "toy.posterior.csv"
        assert sibling.exists()
        assert sibling.read_text().splitlines()[0] == "p0,p1"

    def test_missing_noisy_column_loads_as_absent(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x0,x1,y_clean\n0.5,0.5,1\n1.0,0.0,0\n")
        ds = data.read_csv(path, 2)
        assert ds.y_noisy is None
        assert ds.n == 2 and ds.d == 2

    def test_malformed_row_reports_line_number(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x0,y_clean\n0.5,1\nnot-a-number,0\n")
        with pytest.raises(ValueError, match=r":3:"):
            data.read_csv(path, 2)

    def test_wrong_field_count_reports_line_number(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x0,y_clean\n0.5,1,9\n")
        with pytest.raises(ValueError, match=r":2:"):
            data.read_csv(path, 2)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n0.5,1\n")
        with pytest.raises(ValueError, match=r":1:"):
            data.read_csv(path, 2)

    def test_explicit_class_count_respected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x0,y_clean\n0.5,0\n0.25,1\n")
        ds = data.read_csv(path, classes=5)
        assert ds.classes == 5


def reference_write_csv(path, ds):
    """The per-element writer the codec must match byte for byte."""
    cols = [f"x{i}" for i in range(ds.d)] + ["y_clean"]
    if ds.y_noisy is not None:
        cols.append("y_noisy")
    lines = [",".join(cols)]
    for i in range(ds.n):
        parts = [repr(float(v)) for v in ds.x[i]] + [str(int(ds.y_clean[i]))]
        if ds.y_noisy is not None:
            parts.append(str(int(ds.y_noisy[i])))
        lines.append(",".join(parts))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    if ds.clean_posterior is not None:
        header = ",".join(f"p{j}" for j in range(ds.classes))
        plines = [header] + [
            ",".join(repr(float(v)) for v in row) for row in ds.clean_posterior
        ]
        sibling = path.with_name(path.stem + ".posterior.csv")
        sibling.write_text("\n".join(plines) + "\n", encoding="utf-8")


def _reference_float(token, path, lineno):
    try:
        v = float(token)
    except ValueError:
        raise ValueError(f"{path}:{lineno}: bad float {token!r}") from None
    if not math.isfinite(v):
        raise ValueError(f"{path}:{lineno}: non-finite value {token!r}")
    return v


def _reference_table(path, width, d):
    lines = path.read_text(encoding="utf-8").splitlines()
    xs, labels = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != width:
            raise ValueError(
                f"{path}:{lineno}: expected {width} fields, got {len(parts)}"
            )
        xs.append([_reference_float(t, path, lineno) for t in parts[:d]])
        try:
            labels.append([int(t) for t in parts[d:]])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: bad label") from None
    x = np.array(xs, dtype=np.float64).reshape(len(xs), d)
    return x, np.array(labels, dtype=np.int64).reshape(len(xs), width - d)


def reference_read_csv(path):
    """The per-token reader: (x, labels, posterior or None) of a file whose
    header is well formed."""
    header = path.read_text(encoding="utf-8").splitlines()[0].split(",")
    n_labels = 2 if header[-1] == "y_noisy" else 1
    x, labels = _reference_table(path, len(header), len(header) - n_labels)
    sibling = path.with_name(path.stem + ".posterior.csv")
    posterior = None
    if sibling.exists():
        pc = len(sibling.read_text(encoding="utf-8").splitlines()[0].split(","))
        posterior = _reference_table(sibling, pc, pc)[0]
    return x, labels, posterior


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_codec_matches_reference(tmp_path, ds):
    """write_csv's bytes equal the reference writer's, and read_csv gives
    back bit-equal arrays, the reference reader's."""
    ref, got = tmp_path / "ref.csv", tmp_path / "got.csv"
    reference_write_csv(ref, ds)
    data.write_csv(got, ds)
    assert got.read_bytes() == ref.read_bytes()
    ref_sibling = tmp_path / "ref.posterior.csv"
    got_sibling = tmp_path / "got.posterior.csv"
    assert got_sibling.exists() == ref_sibling.exists()
    if ref_sibling.exists():
        assert got_sibling.read_bytes() == ref_sibling.read_bytes()
    back = data.read_csv(got, ds.classes)
    x, labels, posterior = reference_read_csv(ref)
    assert same_bits(back.x, x) and same_bits(back.x, ds.x)
    assert back.x.flags.c_contiguous
    assert same_bits(back.y_clean, labels[:, 0])
    assert same_bits(back.y_clean, ds.y_clean)
    if ds.y_noisy is None:
        assert back.y_noisy is None and labels.shape[1] == 1
    else:
        assert same_bits(back.y_noisy, labels[:, 1])
        assert same_bits(back.y_noisy, ds.y_noisy)
    if ds.clean_posterior is None:
        assert back.clean_posterior is None and posterior is None
    else:
        assert same_bits(back.clean_posterior, posterior)
        assert same_bits(back.clean_posterior, ds.clean_posterior)


EDGE_VALUES = [-0.0, 5e-324, 1e-05, 1e16, 0.1 + 0.2, 1 / 3]


class TestCsvCodecMatchesReference:
    def test_edge_values(self, tmp_path):
        x = np.array([EDGE_VALUES, EDGE_VALUES[::-1]])
        ds = data.Dataset(x=x, y_clean=[0, 1], classes=2, y_noisy=[1, 1])
        assert_codec_matches_reference(tmp_path, ds)
        text = (tmp_path / "got.csv").read_text(encoding="utf-8")
        assert text.splitlines()[1] == (
            "-0.0,5e-324,1e-05,1e+16,0.30000000000000004,0.3333333333333333,0,1"
        )

    def test_signed_zero_posterior_differs_from_x(self, tmp_path):
        # Equal values, different bits: the sibling must not reuse x's text.
        x = np.array([[-0.0, 1.0], [0.5, 0.5]])
        post = np.array([[0.0, 1.0], [0.5, 0.5]])
        ds = data.Dataset(x=x, y_clean=[1, 0], classes=2, clean_posterior=post)
        assert_codec_matches_reference(tmp_path, ds)
        sibling = (tmp_path / "got.posterior.csv").read_text(encoding="utf-8")
        assert sibling.splitlines()[1] == "0.0,1.0"

    def test_simplex_posterior_shares_x(self, tmp_path):
        ds = data.gen_simplex_feature(4, 200, "edge-scattered", cap=0.9, seed=42)
        assert_codec_matches_reference(tmp_path, ds.with_noisy((ds.y_clean + 1) % 4))

    def test_gaussian_posterior_differs_from_x(self, tmp_path):
        means = 2.5 * np.eye(3, 5)
        ds = data.gen_gaussian_mixture(3, 5, means, n=150, seed=43)
        assert ds.d != ds.classes
        assert_codec_matches_reference(tmp_path, ds.with_noisy(ds.y_clean[::-1]))

    def test_without_noisy_labels(self, tmp_path):
        ds = data.gen_simplex_feature(3, 80, "corner-rich", seed=44)
        assert ds.y_noisy is None
        assert_codec_matches_reference(tmp_path, ds)

    def test_header_only(self, tmp_path):
        ds = data.Dataset(x=np.zeros((0, 2)), y_clean=[], classes=2, y_noisy=[])
        assert_codec_matches_reference(tmp_path, ds)

    def test_blank_line_skipped(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            "x0,x1,y_clean\n0.25,0.75,1\n\n-0.0,1e-05,0\n", encoding="utf-8"
        )
        ds = data.read_csv(path, 2)
        x, labels, _ = reference_read_csv(path)
        assert same_bits(ds.x, x)
        assert same_bits(ds.y_clean, labels[:, 0])
        assert ds.n == 2

    def test_earlier_non_finite_value_reported_before_later_bad_label(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x0,y_clean\n0.5,1\ninf,0\n0.5,1.5\n", encoding="utf-8")
        with pytest.raises(ValueError) as want:
            reference_read_csv(path)
        with pytest.raises(data.CsvError) as got:
            data.read_csv(path, 2)
        assert str(got.value) == str(want.value) == f"{path}:3: non-finite value 'inf'"

    @pytest.mark.parametrize(
        "body, message",
        [
            ("0.5,1\n0.5,x\n", ":3: bad label"),
            ("0.5,1\n0.5,1.5\n", ":3: bad label"),
            ("0.5,1\n1e999,1\n", ":3: non-finite value '1e999'"),
            ("nan,1\n", ":2: non-finite value 'nan'"),
            ("0.5,1\n\n0.5,1,2\n", ":4: expected 2 fields, got 3"),
            ("0.5,1,2\n0.5\n", ":2: expected 2 fields, got 3"),
            ("0.5,1\n0.x5,1\n", ":3: bad float '0.x5'"),
        ],
    )
    def test_error_text_matches_reference(self, tmp_path, body, message):
        path = tmp_path / "d.csv"
        path.write_text("x0,y_clean\n" + body, encoding="utf-8")
        with pytest.raises(ValueError) as want:
            reference_read_csv(path)
        with pytest.raises(data.CsvError) as got:
            data.read_csv(path, 2)
        assert str(got.value) == str(want.value) == f"{path}{message}"

    def test_empty_posterior_sibling_names_it(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x0,y_clean\n0.5,1\n", encoding="utf-8")
        (tmp_path / "d.posterior.csv").write_text("", encoding="utf-8")
        with pytest.raises(data.CsvError, match=r"d\.posterior\.csv:1: empty file"):
            data.read_csv(path, 2)

    def test_invalid_dataset_names_the_file(self, tmp_path):
        # A sibling row off the simplex is the sibling's fault, named by line;
        # simplex data whose x rows (and so the sibling's) are off it is the
        # dataset's.
        path = tmp_path / "d.csv"
        path.write_text("x0,y_clean\n0.5,1\n", encoding="utf-8")
        sibling = tmp_path / "d.posterior.csv"
        sibling.write_text("p0,p1\n0.9,0.9\n", encoding="utf-8")
        with pytest.raises(
            data.CsvError, match=r"d\.posterior\.csv:2: posterior row is not on the simplex"
        ):
            data.read_csv(path, 2)
        path.write_text("x0,x1,y_clean\n0.9,0.9,1\n", encoding="utf-8")
        with pytest.raises(data.CsvError, match=r"d\.csv: clean_posterior rows"):
            data.read_csv(path, 2)

    def test_label_beyond_int64_names_the_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x0,y_clean\n0.5,99999999999999999999\n", encoding="utf-8")
        with pytest.raises(data.CsvError, match=r"d\.csv:2: label out of int64 range$"):
            data.read_csv(path, 2)

    @settings(max_examples=40, deadline=None)
    @given(
        x=hnp.arrays(
            np.float64,
            st.tuples(st.integers(0, 40), st.integers(1, 6)),
            elements=st.floats(allow_nan=False, allow_infinity=False),
        ),
        seed=st.integers(0, 2**32 - 1),
        noisy=st.booleans(),
    )
    def test_any_finite_matrix_round_trips(self, tmp_path_factory, x, seed, noisy):
        rng = np.random.default_rng(seed)
        classes = 3
        y = rng.integers(0, classes, size=(2, x.shape[0]))
        ds = data.Dataset(
            x=x, y_clean=y[0], classes=classes, y_noisy=y[1] if noisy else None
        )
        assert_codec_matches_reference(tmp_path_factory.mktemp("codec"), ds)


class TestPosteriorSibling:
    """read_csv takes the posterior from x when the sibling's text is the x
    columns', and parses the sibling's own text otherwise."""

    def test_equal_sibling_gives_bit_equal_copy(self, tmp_path):
        ds = data.gen_simplex_feature(3, 50, "edge-scattered", cap=0.9, seed=45)
        path = tmp_path / "d.csv"
        data.write_csv(path, ds)
        back = data.read_csv(path, 3)
        assert same_bits(back.clean_posterior, reference_read_csv(path)[2])
        assert same_bits(back.clean_posterior, back.x)
        assert not np.shares_memory(back.clean_posterior, back.x)

    @pytest.mark.parametrize(
        "x_row, p_row, want",
        [
            ("0.5,0.5", "0.50,0.5", [0.5, 0.5]),
            ("0.0,1.0", "-0.0,1.0", [-0.0, 1.0]),
            ("-0.0,1.0", "0.0,1.0", [0.0, 1.0]),
        ],
    )
    def test_sibling_differing_in_text_is_parsed(self, tmp_path, x_row, p_row, want):
        path = tmp_path / "d.csv"
        path.write_text(f"x0,x1,y_clean\n0.25,0.75,1\n{x_row},0\n", encoding="utf-8")
        (tmp_path / "d.posterior.csv").write_text(
            f"p0,p1\n0.25,0.75\n{p_row}\n", encoding="utf-8"
        )
        back = data.read_csv(path, 2)
        assert same_bits(back.clean_posterior, np.array([[0.25, 0.75], want]))
        assert same_bits(back.clean_posterior, reference_read_csv(path)[2])

    @pytest.mark.parametrize(
        "body, message",
        [
            ("0.25,0.75\n0.5,0.x\n", ":3: bad float '0.x'"),
            ("0.25,0.75\n0.5\n", ":3: expected 2 fields, got 1"),
            ("0.25,0.75\n\n0.5,inf\n", ":4: non-finite value 'inf'"),
        ],
    )
    def test_malformed_sibling_names_its_file_and_line(self, tmp_path, body, message):
        path = tmp_path / "d.csv"
        path.write_text("x0,x1,y_clean\n0.25,0.75,1\n0.5,0.5,0\n", encoding="utf-8")
        sibling = tmp_path / "d.posterior.csv"
        sibling.write_text("p0,p1\n" + body, encoding="utf-8")
        with pytest.raises(data.CsvError) as got:
            data.read_csv(path, 2)
        assert str(got.value) == f"{sibling}{message}"


class TestFormattedRows:
    def test_with_noisy_reuses_the_written_rows(self, tmp_path):
        ds = data.gen_simplex_feature(3, 40, "corner-rich", seed=46)
        data.write_csv(tmp_path / "a.csv", ds)
        noisy = ds.with_noisy(ds.y_clean[::-1])
        assert noisy.csv_rows is ds.csv_rows
        x_rows, p_rows = ds.csv_rows
        assert p_rows is x_rows
        data.write_csv(tmp_path / "b.csv", noisy)
        reference_write_csv(tmp_path / "ref.csv", noisy)
        for name in ("b.csv", "b.posterior.csv"):
            ref = name.replace("b", "ref", 1)
            assert (tmp_path / name).read_bytes() == (tmp_path / ref).read_bytes()


class TestDatasetValidation:
    def test_label_range_checked(self):
        with pytest.raises(ValueError):
            data.Dataset(x=np.zeros((2, 1)), y_clean=[0, 3], classes=2)

    def test_posterior_shape_checked(self):
        with pytest.raises(ValueError):
            data.Dataset(
                x=np.zeros((2, 1)),
                y_clean=[0, 1],
                classes=2,
                clean_posterior=np.zeros((2, 3)),
            )

    def test_posterior_simplex_checked(self):
        with pytest.raises(ValueError):
            data.Dataset(
                x=np.zeros((1, 1)),
                y_clean=[0],
                classes=2,
                clean_posterior=np.array([[0.6, 0.6]]),
            )

    def test_length_mismatch_checked(self):
        with pytest.raises(ValueError):
            data.Dataset(x=np.zeros((3, 1)), y_clean=[0, 1], classes=2)


def test_rng_stream_tags_are_distinct():
    # Each purpose draws from default_rng([seed, TAG, ...]); two purposes
    # sharing a tag would draw the same numbers (module docstring).
    tags = {}
    for info in pkgutil.iter_modules(volmin.__path__):
        module = importlib.import_module(f"volmin.{info.name}")
        for name, value in vars(module).items():
            if name.startswith("_") and name.endswith("_STREAM"):
                tags[f"{info.name}.{name}"] = value
    assert len(tags) >= 8, tags
    assert len(set(tags.values())) == len(tags), tags
