"""Kernel tests against independent oracles: cofactor-expansion
determinants, planted NNLS solutions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volmin import linalg


def det_cofactor(a):
    """Recursive cofactor expansion along the first row (C <= 4)."""
    n = a.shape[0]
    if n == 1:
        return a[0, 0]
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += ((-1.0) ** j) * a[0, j] * det_cofactor(minor)
    return total


class TestSignedLogdet:
    def test_identity(self):
        assert linalg.signed_logdet(np.eye(4)) == (1.0, 0.0)

    def test_known_values(self):
        sign, logabs = linalg.signed_logdet([[2.0, 0.0], [0.0, 3.0]])
        assert sign == 1.0
        assert abs(logabs - math.log(6.0)) < 1e-14
        # Row swap flips the sign: det [[0,1],[1,0]] = -1
        sign, logabs = linalg.signed_logdet([[0.0, 1.0], [1.0, 0.0]])
        assert sign == -1.0
        assert abs(logabs) < 1e-14

    def test_singular_reports_sign_zero(self):
        sign, logabs = linalg.signed_logdet([[1.0, 2.0], [2.0, 4.0]])
        assert sign == 0.0
        assert logabs == float("-inf")

    def test_matches_cofactor_oracle(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 3, 4):
            for _ in range(25):
                a = rng.standard_normal((n, n))
                det = det_cofactor(a)
                sign, logabs = linalg.signed_logdet(a)
                assert sign == math.copysign(1.0, det)
                np.testing.assert_allclose(logabs, math.log(abs(det)), rtol=1e-9)

    def test_multiplicativity(self):
        # log|det(AB)| = log|det A| + log|det B| for well-conditioned factors
        rng = np.random.default_rng(12)
        for _ in range(30):
            n = int(rng.integers(2, 11))
            a = rng.standard_normal((n, n)) + 3 * np.eye(n)
            b = rng.standard_normal((n, n)) + 3 * np.eye(n)
            sa, la = linalg.signed_logdet(a)
            sb, lb = linalg.signed_logdet(b)
            sab, lab = linalg.signed_logdet(a @ b)
            assert sab == sa * sb
            np.testing.assert_allclose(lab, la + lb, atol=1e-9)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            linalg.signed_logdet(np.zeros((2, 3)))


class TestInverseTranspose:
    def test_residual_bound(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            n = int(rng.integers(2, 11))
            a = rng.standard_normal((n, n)) + 2 * np.eye(n)
            it = linalg.inverse_transpose(a)
            resid = np.abs(a.T @ it - np.eye(n)).max()
            assert resid < 1e-8

    def test_singular_raises(self):
        with pytest.raises(linalg.SingularMatrixError):
            linalg.inverse_transpose([[1.0, 2.0], [2.0, 4.0]])

    @pytest.mark.parametrize("n", [2, 3, 10])
    @pytest.mark.parametrize(
        "kind, singular",
        [
            ("random", False),
            ("permutation", False),
            ("tiny pivot", False),
            ("zero row", True),
            ("zero column", True),
        ],
    )
    def test_sign_zero_exactly_when_inverse_raises(self, n, kind, singular):
        rng = np.random.default_rng([20, n])
        a = rng.standard_normal((n, n))
        if kind == "permutation":
            a = np.eye(n)[rng.permutation(n)]
        elif kind == "tiny pivot":
            a = np.diag([1e-200] + [1.0] * (n - 1))
        elif kind == "zero row":
            a[n // 2] = 0.0
        elif kind == "zero column":
            a[:, n // 2] = 0.0
        sign, _ = linalg.signed_logdet(a)
        try:
            linalg.inverse_transpose(a)
            raised = False
        except linalg.SingularMatrixError:
            raised = True
        assert (sign == 0.0) == raised == singular

    def test_subnormal_pivot_raises(self):
        # LAPACK divides by a nonzero subnormal pivot without failing and
        # returns inf and nan; the determinant alone still looks regular.
        a = np.diag([1e-310, 1.0])
        sign, logabs = linalg.signed_logdet(a)
        assert sign == 1.0 and math.isfinite(logabs)
        with pytest.raises(linalg.SingularMatrixError, match="not finite"):
            linalg.inverse_transpose(a)


class TestNnls:
    def test_planted_cone_members(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            m, n = int(rng.integers(3, 9)), int(rng.integers(2, 7))
            a = np.abs(rng.standard_normal((m, n)))
            planted = np.abs(rng.standard_normal(n))
            b = a @ planted
            x, resid = linalg.nnls(a, b)
            assert resid < 1e-10
            assert np.all(x >= 0)

    def test_nonnegative_output_and_residual_consistency(self):
        rng = np.random.default_rng(15)
        for _ in range(25):
            a = rng.standard_normal((6, 4))
            b = rng.standard_normal(6)
            x, resid = linalg.nnls(a, b)
            assert np.all(x >= 0)
            np.testing.assert_allclose(resid, np.linalg.norm(b - a @ x), atol=1e-12)

    def test_point_outside_cone_gets_zero_solution(self):
        a = np.array([[1.0, 0.5], [0.2, 1.0]])
        b = np.array([-1.0, -2.0])  # opposite orthant: best nonneg combo is 0
        x, resid = linalg.nnls(a, b)
        np.testing.assert_allclose(x, 0.0)
        np.testing.assert_allclose(resid, np.linalg.norm(b))

    def test_stationarity_against_dense_grid(self):
        # 2-variable problems: compare against a brute-force grid refinement.
        rng = np.random.default_rng(16)
        for _ in range(5):
            a = rng.standard_normal((5, 2))
            b = rng.standard_normal(5)
            x, resid = linalg.nnls(a, b)
            grid = np.linspace(0, 3, 301)
            best = min(
                np.linalg.norm(b - a @ np.array([u, v]))
                for u in grid
                for v in grid
            )
            assert resid <= best + 1e-6

    def test_columns_match_one_dimensional_solves(self):
        # General a and b need removal steps; each column of the lockstep
        # solve must end where its own solve does.
        rng = np.random.default_rng(17)
        for _ in range(40):
            m, n = int(rng.integers(3, 11)), int(rng.integers(2, 13))
            a = rng.standard_normal((m, n))
            b = rng.standard_normal((m, 9))
            b[:, :3] = np.abs(a) @ np.abs(rng.standard_normal((n, 3)))
            x, resid = linalg.nnls(a, b)
            assert x.shape == (n, 9) and resid.shape == (9,)
            np.testing.assert_allclose(resid, np.linalg.norm(b - a @ x, axis=0), atol=1e-12)
            for i in range(9):
                xi, ri = linalg.nnls(a, b[:, i])
                np.testing.assert_allclose(x[:, i], xi, rtol=0, atol=1e-12)
                bnorm = np.linalg.norm(b[:, i])
                assert (resid[i] / bnorm < 1e-8) == (ri / bnorm < 1e-8)

    def test_one_dimensional_rhs_keeps_its_return_types(self):
        x, resid = linalg.nnls(np.eye(3), [1.0, 2.0, 0.0])
        assert x.shape == (3,) and type(resid) is float
        np.testing.assert_allclose(x, [1.0, 2.0, 0.0])

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(2, 10),
        n=st.integers(1, 12),
        k=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_planted_combinations_in_every_column(self, m, n, k, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(0.05, 1.0, size=(m, n))
        planted = rng.uniform(0.0, 2.0, size=(n, k))
        x, resid = linalg.nnls(a, a @ planted)
        assert (resid < 1e-10).all()
        assert (x >= 0).all()

    def test_iteration_cap_warns_and_returns_best_iterate(self, monkeypatch):
        # A least-squares step that never comes out positive is undone every
        # time, so each column loops until the 10 * cols cap.
        solve = linalg._passive_lstsq

        def never_positive(a, b, passive):
            return [(rows, idx, -1.0 - np.abs(z)) for rows, idx, z in solve(a, b, passive)]

        monkeypatch.setattr(linalg, "_passive_lstsq", never_positive)
        a = np.array([[1.0, 0.5], [0.2, 1.0]])
        b = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.warns(RuntimeWarning, match="did not converge within 20 iterations"):
            x, resid = linalg.nnls(a, b)
        np.testing.assert_array_equal(x, 0.0)
        np.testing.assert_allclose(resid, np.linalg.norm(b, axis=0))
        with pytest.warns(RuntimeWarning, match="did not converge"):
            linalg.nnls(a, b[:, 0])

    def test_rejects_non_finite_rhs(self):
        with pytest.raises(ValueError, match="non-finite"):
            linalg.nnls(np.eye(2), [[1.0, np.nan], [0.0, 1.0]])


class TestMatrixText:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(17)
        a = rng.standard_normal((4, 3)) * 10.0 ** rng.integers(-8, 8, size=(4, 3))
        path = tmp_path / "m.txt"
        linalg.write_matrix_text(path, a, comment="test matrix")
        back = linalg.read_matrix_text(path)
        assert np.array_equal(a, back)

    def test_comment_lines_ignored(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("# header\n1.0,2.0\n# middle\n3.0,4.0\n")
        np.testing.assert_array_equal(
            linalg.read_matrix_text(path), [[1.0, 2.0], [3.0, 4.0]]
        )

    def test_malformed_entry_reports_line_number(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1.0,2.0\n3.0,oops\n")
        with pytest.raises(ValueError, match=r":2:"):
            linalg.read_matrix_text(path)

    def test_ragged_row_reports_line_number(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(ValueError, match=r":2:"):
            linalg.read_matrix_text(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1.0,inf\n")
        with pytest.raises(ValueError, match="non-finite"):
            linalg.read_matrix_text(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("# T\n1.0,2.0\n3.0,oops\n", ":3: bad float 'oops'"),
            ("1.0,2.0\n\n3.0\n", ":3: expected 2 fields, got 1"),
            ("1.0,2.0\n3.0,inf\n", ":2: non-finite value 'inf'"),
            ("1.0,nan\n3.0,x\n", ":1: non-finite value 'nan'"),
            ("# only a comment\n", ": no matrix rows found"),
            ("1.0,2.0\x0c\n3.0,oops\n", ":2: bad float 'oops'"),
        ],
        ids=["bad-float", "ragged", "non-finite", "first-bad-line", "empty", "form-feed"],
    )
    def test_matrix_file_names_first_bad_line_and_token(self, tmp_path, text, message):
        path = tmp_path / "m.txt"
        path.write_text(text)
        with pytest.raises(ValueError) as got:
            linalg.read_matrix_text(path)
        assert str(got.value) == f"{path}{message}"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("# block: w 2 2\n1.0,2.0\n3.0,oops\n", ":3: bad float 'oops'"),
            ("# block: w 2 2\n1.0,2.0\n3.0\n", ":3: expected 2 fields, got 1"),
            ("# block: b 1 2\n1.0,2.0\n# block: w 1 1\n-inf\n",
             ":4: non-finite value '-inf'"),
            ("# block: w 2 2\n1.0,2.0\n# block: b 1 2\n1.0,2.0\n",
             ":1: block w declares 2 rows, got 1"),
            ("# block: w 1 1\n1.0\n1.0\n", ":1: block w declares 1 rows, got 2"),
            ("# a comment\n1.0,2.0\n# block: w 1 2\n1.0,2.0\n",
             ":2: matrix row outside any block"),
            ("# block: w two 2\n", ":1: malformed block header"),
        ],
        ids=["bad-float", "ragged", "non-finite", "too-few-rows", "too-many-rows",
             "outside-block", "bad-header"],
    )
    def test_checkpoint_names_first_bad_line_and_token(self, tmp_path, text, message):
        path = tmp_path / "ckpt.txt"
        path.write_text(text)
        with pytest.raises(ValueError) as got:
            linalg.read_named_blocks(path)
        assert str(got.value) == f"{path}{message}"

    def test_named_blocks_round_trip(self, tmp_path):
        rng = np.random.default_rng(18)
        blocks = [
            ("layer0.weight", rng.standard_normal((3, 2))),
            ("layer0.bias", rng.standard_normal((1, 3))),
        ]
        path = tmp_path / "ckpt.txt"
        linalg.write_named_blocks(path, blocks)
        back = linalg.read_named_blocks(path)
        assert [name for name, _ in back] == [name for name, _ in blocks]
        for (_, want), (_, got) in zip(blocks, back):
            assert np.array_equal(want, got)


# Tokens a person might write into a table by hand, next to the reprs the
# package writes: each is read the way float()/int() read it, or refused.
HAND_TOKENS = [
    "1.", ".5", "+1", "-0", "01", " 1", "1 ", "1_0", "１.5", "٣", "1.0",
    "1e0", "1E5", "nan", "-inf", "1e400", "1e-400", "99999999999999999999",
    "-9223372036854775809", "", "1\x1c", "\x1c1", "1Ǿ", "1\U0009c6ca", "0x10",
    "1e", "e5", ".", "-", "+-1", "1..5",
]


def scan_reference(lines, width, floats):
    """(x, ints) by float()/int() on every token, or the scan's message."""
    xs, ints = [], [[] for _ in range(floats, width)]
    for lineno, line in enumerate(lines, 1):
        parts = line.split(",")
        if len(parts) != width:
            return f"t:{lineno}: expected {width} fields, got {len(parts)}"
        row = []
        for token in parts[:floats]:
            try:
                row.append(float(token))
            except ValueError:
                return f"t:{lineno}: bad float {token!r}"
            if not math.isfinite(row[-1]):
                return f"t:{lineno}: non-finite value {token!r}"
        xs.append(row)
        for col, token in zip(ints, parts[floats:]):
            try:
                col.append(int(token))
            except ValueError:
                return f"t:{lineno}: bad label"
    return np.array(xs, dtype=np.float64).reshape(len(xs), floats), ints


@st.composite
def tables(draw):
    width = draw(st.integers(1, 4))
    floats = draw(st.integers(1, width))
    canonical = draw(st.booleans())
    float_token = st.floats(width=64).map(repr)
    int_token = st.integers(-(2**63), 2**63 - 1).map(str)
    if not canonical:
        hand = st.one_of(
            st.sampled_from(HAND_TOKENS), st.text("0123456789.e+-", max_size=5)
        )
        float_token = st.one_of(float_token, hand)
        int_token = st.one_of(int_token, hand)
    fields = [float_token] * floats + [int_token] * (width - floats)
    rows = draw(st.lists(st.tuples(*fields), min_size=1, max_size=6))
    return list(map(",".join, rows)), width, floats


class TestTableCodec:
    @settings(max_examples=400, deadline=None)
    @given(tables())
    def test_parse_matches_per_token_reference(self, table):
        lines, width, floats = table
        want = scan_reference(lines, width, floats)
        try:
            x, ints = linalg.parse_rows(lines, range(1, len(lines) + 1), "t", width, floats)
        except ValueError as exc:
            assert str(exc) == want
            return
        assert not isinstance(want, str), want
        assert x.shape == want[0].shape
        assert np.array_equal(x.view(np.uint64), want[0].view(np.uint64))
        assert [list(map(int, col)) for col in ints] == want[1]

    @pytest.mark.parametrize(
        "line, message",
        [
            ("0.5,1Ǿ", "t:1: bad label"),
            ("0.5,1\U0009c6ca", "t:1: bad label"),
            ("1\x1c,1", "t:1: bad float '1\\x1c'"),
            ("0.5,1\x1c", "t:1: bad label"),
        ],
        ids=["latin-label", "astral-label", "separator-float", "separator-label"],
    )
    def test_text_numpy_misreads_goes_to_the_scan(self, line, message):
        with pytest.raises(ValueError) as got:
            linalg.parse_rows([line], [1], "t", 2, 1)
        assert str(got.value) == message

    def test_empty_line_is_not_skipped(self):
        with pytest.raises(ValueError, match=r"^t:2: bad float ''$"):
            linalg.parse_rows(["1.0", ""], [1, 2], "t", 1, 1)

    @pytest.mark.parametrize(
        "a",
        [
            np.array([[-0.0, 0.0, 0.0], [0.0, -0.0, 1.0]]),
            np.array([[5e-324, -5e-324, 2.2250738585072009e-308, 1e-310]]),
            np.array([[1e16, 9999999999999998.0, 1e-5, 9.999999999999999e-06, 1e-4]]),
            np.array([[0.25]]),
            np.array([[0.1], [0.2], [0.1]]),
            np.arange(6.0).reshape(1, 6),
            np.zeros((0, 3)),
            np.arange(12.0).reshape(3, 4).T / 7,
            np.random.default_rng(5).standard_normal((50, 10)),
        ],
        ids=["signed-zeros", "subnormals", "repr-switch-points", "one-cell", "one-column",
             "one-row", "zero-rows", "transposed", "gaussian"],
    )
    def test_format_rows_is_repr_per_entry(self, a):
        assert linalg.format_rows(a) == [",".join(map(repr, row)) for row in a.tolist()]
