import heapq
import random
import re
from unittest import mock

import pytest
from graph_strategies import NAMED_GRAPHS, multigraphs, random_multigraph
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import ZZ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.normalforms import invariant_factors

from lpa_invariants.intlinalg import (
    CirculantRow,
    IntMatrix,
    circulant_det_product,
    det_exact,
    diagonal_matrix,
    _smith_from_pivots,
    smith_normal_form,
    sparse_smith,
)
from lpa_invariants import intlinalg, ktheory
from lpa_invariants.graphs import cayley_graph
from lpa_invariants.ktheory import _b_rows, analyse, b_matrix, pointed_iso_exists


def mat(rows):
    return IntMatrix(tuple(tuple(r) for r in rows))


B_C2 = mat([[1, -2], [-2, 1]])
B_C3 = mat([[1, -1, -1], [-1, 1, -1], [-1, -1, 1]])


class TestIntMatrix:
    def test_shape_and_entries(self):
        m = mat([[1, 2, 3], [4, 5, 6]])
        assert (m.rows, m.cols) == (2, 3)
        assert m.entries == ((1, 2, 3), (4, 5, 6))

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            mat([[1, 2], [3]])

    def test_non_integer_entries_rejected(self):
        with pytest.raises(ValueError, match="integers"):
            mat([[1.5]])

    @pytest.mark.parametrize(
        "make",
        [
            lambda: IntMatrix(((1.5,),)),
            lambda: IntMatrix(5),
            lambda: IntMatrix(((1, "2"),)),
            lambda: CirculantRow((1.5,)),
            lambda: CirculantRow(5),
            lambda: diagonal_matrix((1.5,), 1, 1),
            lambda: sparse_smith([{0: 1.5}], 1),
            lambda: sparse_smith([{0: 1}, {1: "1"}], 2),
        ],
        ids=[
            "matrix-float",
            "matrix-not-rows",
            "matrix-str",
            "circulant-float",
            "circulant-not-iterable",
            "diagonal-float",
            "sparse-float",
            "sparse-str",
        ],
    )
    def test_every_matrix_input_rejects_non_integers(self, make):
        with pytest.raises(ValueError, match="integer"):
            make()

    def test_integer_like_entries_are_coerced(self):
        assert IntMatrix(((True, 2),)).entries == ((1, 2),)
        assert type(IntMatrix(((True,),)).entries[0][0]) is int
        assert CirculantRow((False, 1)).b == (0, 1)
        assert diagonal_matrix((True,), 1, 2).entries == ((1, 0),)
        assert sparse_smith([{0: True}, {1: 2}], 2).det == 2
        assert IntMatrix.identity(True).entries == ((1,),)
        assert sparse_smith([{0: 3}], True).d == (3,)

    def test_identity_transpose_sub_matmul(self):
        i2 = IntMatrix.identity(2)
        assert i2.entries == ((1, 0), (0, 1))
        m = mat([[1, 2], [3, 4]])
        assert m.transpose().entries == ((1, 3), (2, 4))
        assert (m - i2).entries == ((0, 2), (3, 3))
        assert (m @ i2).entries == m.entries
        assert (m @ m).entries == ((7, 10), (15, 22))

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ValueError):
            mat([[1, 2]]) @ mat([[1, 2]])

    def test_sub_shape_mismatch(self):
        with pytest.raises(ValueError, match="^matrix shapes differ$"):
            mat([[1, 2]]) - mat([[1], [2]])

    def test_diagonal_of_wrong_length(self):
        with pytest.raises(ValueError, match=r"^diagonal length must be min\(rows, cols\)$"):
            diagonal_matrix((1,), 2, 3)

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: IntMatrix.identity(-1), "size n must be nonnegative, got -1"),
            (lambda: IntMatrix.identity(2.0), "size n must be an integer, got 2.0"),
            (lambda: sparse_smith([{}], -2), "column count cols must be nonnegative, got -2"),
            (lambda: sparse_smith([{}], 1.0), "column count cols must be an integer, got 1.0"),
            (lambda: diagonal_matrix((1,), 1, 1.0), "column count cols must be an integer, got 1.0"),
            (lambda: diagonal_matrix((), -1, 0), "row count rows must be nonnegative, got -1"),
        ],
        ids=[
            "identity-negative",
            "identity-float",
            "sparse-negative",
            "sparse-float",
            "diagonal-float",
            "diagonal-negative",
        ],
    )
    def test_sizes_reject_negatives_and_non_integers(self, make, message):
        with pytest.raises(ValueError) as info:
            make()
        assert str(info.value) == message


class TestDetExact:
    def test_c2_b_matrix(self):
        assert det_exact(B_C2) == -3

    def test_c3_b_matrix(self):
        assert det_exact(B_C3) == -4

    def test_identity(self):
        assert det_exact(IntMatrix.identity(3)) == 1

    def test_singular(self):
        assert det_exact(mat([[1, 2], [2, 4]])) == 0

    def test_one_by_one_and_empty(self):
        assert det_exact(mat([[-7]])) == -7
        assert det_exact(IntMatrix(())) == 1

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            det_exact(mat([[1, 2, 3], [4, 5, 6]]))

    def test_needs_row_swap(self):
        assert det_exact(mat([[0, 1], [1, 0]])) == -1

    def test_big_entries_exact(self):
        big = 10**30
        m = mat([[big, 1], [1, big]])
        assert det_exact(m) == big * big - 1

    def test_zero_pivot_needs_late_swap(self):
        # Steps 0 and 1 leave column 2 zero in every row but the last,
        # which no earlier step touched: a swap at step 2, then a
        # rescale of the swapped-in row by p_2 / p_0.
        m = mat(
            [
                [2, 1, 0, 1, 3],
                [4, 5, 0, 2, 1],
                [6, 3, 0, 4, 9],
                [1, 1, 0, 7, 2],
                [0, 0, 5, 1, 1],
            ]
        )
        assert det_exact(m) == 40
        # column 0 is nonzero in the last row only: a swap at step 0
        m = mat(
            [
                [0, 0, 3, 1, 2],
                [0, 0, 0, 5, 1],
                [0, 0, 0, 0, 4],
                [0, 2, 1, 1, 1],
                [3, 1, 0, 2, 7],
            ]
        )
        assert det_exact(m) == -360

    def test_row_untouched_for_many_steps(self):
        # Rows 5 and 6 meet no pivot column before step 5, while row 4
        # is updated at every step, so at step 5 both are scaled once by
        # p_5 / p_0, with the leading minors 2, 6, 30, 210 and 2205 as
        # pivots on the way.
        m = mat(
            [
                [2, 1, 0, 0, 0, 0, 0],
                [0, 3, 1, 0, 0, 0, 0],
                [0, 0, 5, 1, 0, 0, 0],
                [0, 0, 0, 7, 1, 0, 0],
                [1, 2, 3, 4, 11, 1, 0],
                [0, 0, 0, 0, 0, 13, 1],
                [0, 0, 0, 0, 0, 4, 9],
            ]
        )
        assert det_exact(m) == 249165

    def test_singular_found_late(self):
        rows = [[2, 1, 3, 0, 1], [1, 4, 0, 2, 2], [0, 3, 1, 1, 5], [7, 0, 2, 3, 1]]
        rows.append([a + b - c for a, b, c in zip(rows[0], rows[1], rows[2])])
        assert det_exact(mat(rows)) == 0

    def test_cayley_b_matrices_match_the_one_pass_det(self):
        for n in range(1, 61):
            g = cayley_graph(n)
            assert det_exact(b_matrix(g)) == analyse(g).det, n


def assert_valid_snf(m, dec):
    product = dec.u @ m @ dec.v
    assert product.entries == diagonal_matrix(dec.d, m.rows, m.cols).entries
    assert abs(det_exact(dec.u)) == 1
    assert abs(det_exact(dec.v)) == 1
    assert all(x >= 0 for x in dec.d)
    nonzero = [x for x in dec.d if x]
    # zeros trail and the finite part is a divisibility chain
    assert tuple(dec.d) == tuple(nonzero) + (0,) * (len(dec.d) - len(nonzero))
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0


class TestSmithNormalForm:
    @pytest.mark.parametrize(
        "rows, expected",
        [
            ([[1, -1, -1], [-1, 1, -1], [-1, -1, 1]], (1, 2, 2)),
            ([[1, -2], [-2, 1]], (1, 3)),
            ([[0, 0], [0, 0]], (0, 0)),
            ([[12, 6, 4], [3, 9, 6], [2, 16, 14]], (1, 10, 30)),
            ([[2, 0], [0, 3]], (1, 6)),
            ([[4, 0], [0, 6]], (2, 12)),
            ([[6, 0, 0], [0, 10, 0], [0, 0, 15]], (1, 30, 30)),
        ],
    )
    def test_examples(self, rows, expected):
        m = mat(rows)
        dec = smith_normal_form(m)
        assert dec.d == expected
        assert_valid_snf(m, dec)

    def test_rectangular(self):
        m = mat([[2, 4, 6], [4, 8, 12]])
        dec = smith_normal_form(m)
        assert dec.d == (2, 0)
        assert_valid_snf(m, dec)

    def test_deterministic(self):
        rows = [[3, -1, 4], [1, 5, -9], [2, 6, 5]]
        assert smith_normal_form(mat(rows)).d == smith_normal_form(mat(rows)).d

    def test_random_suite(self):
        rng = random.Random(1729)
        for _ in range(200):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            m = mat([[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)])
            dec = smith_normal_form(m)
            assert_valid_snf(m, dec)
            if rows == cols:
                prod = 1
                for x in dec.d:
                    prod *= x
                assert prod == abs(det_exact(m))


@st.composite
def int_matrices(draw, square=False, max_dim=5):
    rows = draw(st.integers(1, max_dim))
    cols = rows if square else draw(st.integers(1, max_dim))
    entries = draw(
        st.lists(
            st.lists(st.integers(-5, 5), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return mat(entries)


@settings(deadline=None)
@given(int_matrices())
def test_snf_properties_hypothesis(m):
    assert_valid_snf(m, smith_normal_form(m))


@settings(deadline=None)
@given(int_matrices(square=True))
def test_snf_diagonal_product_matches_det(m):
    dec = smith_normal_form(m)
    prod = 1
    for x in dec.d:
        prod *= x
    assert prod == abs(det_exact(m))


@settings(deadline=None)
@given(int_matrices(square=True))
def test_det_transpose_invariant(m):
    assert det_exact(m.transpose()) == det_exact(m)


@st.composite
def zero_heavy_square_matrices(draw, max_dim=9):
    n = draw(st.integers(0, max_dim))
    entry = st.one_of(st.just(0), st.integers(-9, 9))
    return mat(
        draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    )


@settings(deadline=None, max_examples=200)
@given(zero_heavy_square_matrices())
def test_det_matches_sympy(m):
    """The signed determinant against sympy's, on matrices where about
    half the entries are 0, so pivots vanish, rows swap and rows go
    untouched for several steps."""
    reference = DomainMatrix(
        [[ZZ(x) for x in row] for row in m.entries], (m.rows, m.cols), ZZ
    )
    assert det_exact(m) == int(reference.det())


@settings(deadline=None)
@given(int_matrices(max_dim=7))
def test_snf_matches_sympy(m):
    reference = DomainMatrix(
        [[ZZ(x) for x in row] for row in m.entries], (m.rows, m.cols), ZZ
    )
    assert smith_normal_form(m).d == tuple(int(x) for x in invariant_factors(reference))


class TestSparseSmith:
    def test_det_off_the_pivots(self):
        assert sparse_smith([{0: 1, 1: -2}, {0: -2, 1: 1}], 2).det == -3
        assert sparse_smith([{1: 1}, {0: 1}], 2).det == -1
        assert sparse_smith([{0: 2, 1: 4}, {0: 1, 1: 2}], 2).det == 0
        assert sparse_smith([], 0).det == 1

    def test_rectangular_has_no_det(self):
        result = sparse_smith([{0: 2, 1: 4, 2: 6}, {0: 4, 1: 8, 2: 12}], 3)
        assert result.d == (2, 0)
        assert result.det is None

    def test_zero_rows_and_columns(self):
        result = sparse_smith([{}, {}], 3)
        assert result.d == (0, 0)
        assert result.u_rows == ({0: 1}, {1: 1})
        assert sparse_smith([{}], 0).d == ()

    def test_replayed_transforms_compare_and_print_as_tuples(self):
        u_rows = sparse_smith([{}, {}], 3).u_rows
        assert u_rows.__eq__([{0: 1}, {1: 1}]) is NotImplemented
        assert (u_rows == [{0: 1}, {1: 1}]) is False
        assert repr(u_rows) == "({0: 1}, {1: 1})"

    def test_pivot_order_is_pinned(self):
        # Sparse phase.  Every entry has |x| = 2; rows 1-3 tie on Markowitz
        # cost 9, so row 1 wins, and in row 1 columns 0 and 2 tie, so
        # column 0 wins.  Four zero rows and columns keep the active block
        # under half full, so the whole pass stays in the sparse phase.
        four = [
            {0: 2, 1: 2, 2: -2, 3: 4},
            {0: 2, 2: 2, 3: -2},
            {1: -2, 2: 2, 3: 2},
            {0: 4, 1: 2, 3: 2},
        ]
        padding = tuple({k: 1} for k in range(4, 8))
        sparse_only = mock.patch.object(
            intlinalg, "_core_phase", side_effect=AssertionError("entered the core")
        )
        with sparse_only:
            result = sparse_smith(four + [{}] * 4, 8)
        assert result.d == (2, 2, 2, 0, 0, 0, 0, 0)
        assert result.u_rows == (
            {1: 1},
            {0: 1, 1: -1},
            {2: -1, 0: -1, 1: 1},
            {3: 1, 1: -1, 0: -1},
        ) + padding
        assert result.v_cols == (
            {0: 1},
            {1: 1},
            {2: 1, 0: -1, 1: 2},
            {3: 1, 0: -3, 1: 5, 2: 4},
        ) + padding
        # The pivot (1, 1) clears column 0 of row 1 by a column operation,
        # which lowers column 0's count; row 2 must be re-keyed, and then
        # its tie between columns 0 and 2 goes to column 0.
        with sparse_only:
            result = sparse_smith([{}, {0: 1, 1: 1}, {0: 1, 2: -1}, {}, {}, {}], 6)
        assert result.d == (1, 1, 0, 0, 0, 0)
        assert result.u_rows == ({1: 1}, {2: 1}, {0: 1}, {3: 1}, {4: 1}, {5: 1})
        assert result.v_cols == (
            {1: 1},
            {0: 1, 1: -1},
            {2: 1, 0: 1, 1: -1},
            {3: 1},
            {4: 1},
            {5: 1},
        )
        # B of C_6 beside six zero rows and columns: each pivot changes
        # column counts, so rows are re-keyed
        padding = tuple({k: 1} for k in range(6, 12))
        with sparse_only:
            result = sparse_smith(_b_rows(cayley_graph(6)) + [{}] * 6, 12)
        assert result.d == (1, 1, 1, 1) + (0,) * 8
        assert result.u_rows == (
            {0: 1},
            {1: -1, 0: -1},
            {5: -1, 0: -1},
            {2: 1, 5: -1, 0: -1},
            {3: 1, 2: 1, 5: -1, 0: -1},
            {4: 1, 1: -1, 2: -1, 5: 1},
        ) + padding
        assert result.v_cols == (
            {0: 1},
            {5: 1, 0: 1},
            {1: 1, 0: 1},
            {2: 1, 5: -1, 0: -1},
            {3: 1, 2: 1, 5: -1, 0: -1},
            {4: 1, 1: -1, 2: -1, 5: 1},
        ) + padding

    def test_core_pivot_order_is_pinned(self):
        # The same 4 x 4 block alone is at least half full, so the core
        # takes it from the start: every entry ties at |x| = 2, so row 0
        # wins, and in row 0 columns 0, 1 and 2 tie, so column 0 wins.
        four = [
            {0: 2, 1: 2, 2: -2, 3: 4},
            {0: 2, 2: 2, 3: -2},
            {1: -2, 2: 2, 3: 2},
            {0: 4, 1: 2, 3: 2},
        ]
        result = sparse_smith(four, 4)
        assert result.d == (2, 2, 2, 0)
        assert result.u_rows == (
            {0: 1},
            {1: -1, 0: 1},
            {2: -1, 1: 1, 0: -1},
            {3: 1, 1: -1, 0: -1},
        )
        assert result.v_cols == (
            {0: 1},
            {1: 1, 0: -1},
            {2: 1, 1: 2, 0: -1},
            {3: 1, 2: 4, 1: 5, 0: -3},
        )
        # A tie between rows: rows 0 and 1 hold a 1, and row 0 wins though
        # row 1 has the lower Markowitz cost (2 against 6).
        result = sparse_smith([{0: 5, 1: 1, 2: 3}, {0: 1}, {1: 2, 2: 4}], 3)
        assert (result.d, result.det) == ((1, 1, 2), 2)
        assert result.u_rows == ({0: 1}, {1: 1}, {2: -1, 1: -10, 0: 2})
        assert result.v_cols == ({1: 1}, {0: 1, 1: -5}, {2: 1, 1: -3})
        # A tie within a row: row 0 holds 1 and -1, and column 1 wins though
        # column 2 has fewer entries.
        result = sparse_smith([{0: 3, 1: 1, 2: -1}, {0: 4, 1: 5}, {1: 6, 2: 7}], 3)
        assert (result.d, result.det) == ((1, 1, 53), 53)
        assert result.u_rows == ({0: 1}, {1: 8, 2: -3, 0: -22}, {2: 5, 1: -13, 0: 35})
        assert result.v_cols == ({1: 1}, {2: 1, 1: 1}, {0: 1, 2: 34, 1: 31})
        # A non-unit pivot: 4 leaves the remainder 2 in its column, then 2
        # clears that column and leaves the remainder 1 in its row, which
        # becomes the last pivot of the round.
        result = sparse_smith([{0: 4, 1: 7}, {0: 6, 1: 10}], 2)
        assert (result.d, result.det) == ((1, 2), -2)
        assert result.u_rows == ({1: 1, 0: -1}, {0: -4, 1: 3})
        assert result.v_cols == ({1: 1, 0: -1}, {0: 3, 1: -2})
        # B of C_6 is half full: the core takes it from the start
        result = sparse_smith(_b_rows(cayley_graph(6)), 6)
        assert result.d == (1, 1, 1, 1, 0, 0)
        assert result.u_rows == (
            {0: 1},
            {1: -1, 0: -1},
            {2: -1, 1: -1, 0: -1},
            {3: 1, 1: -1, 0: -1},
            {4: 1, 3: 1, 1: -1, 0: -1},
            {5: 1, 3: -1, 2: -1, 0: 1},
        )
        assert result.v_cols == (
            {0: 1},
            {2: 1},
            {1: 1, 0: 1},
            {3: 1, 1: -1, 0: -1},
            {4: 1, 3: 1, 1: -1, 0: -1},
            {5: 1, 3: -1, 2: -1, 0: 1},
        )

    def test_rejects_column_out_of_range(self):
        with pytest.raises(ValueError):
            sparse_smith([{2: 1}], 2)

    @pytest.mark.parametrize("key", [0.0, "a", None])
    def test_rejects_non_integer_column(self, key):
        with pytest.raises(ValueError, match="is not an integer"):
            sparse_smith([{key: 1}], 1)

    def test_integer_like_column_is_coerced(self):
        assert sparse_smith([{True: 2}, {False: 3}], 2).det == -6

    @pytest.mark.parametrize(
        "rows, cols, message",
        [
            ([{0.0: 1}], 1, "column index 0.0 is not an integer"),
            ([{0: 1}, {"a": 1}], 2, "column index 'a' is not an integer"),
            ([{2: 1}], 2, "column index 2 out of range for 2 columns"),
            ([{0: 1, -1: 1}], 2, "column index -1 out of range for 2 columns"),
            ([{0: 1.5}], 1, "entry 1.5 is not an integer"),
            ([{0: 1}, {1: "1"}], 2, "entry '1' is not an integer"),
            ([{0: None}], 1, "entry None is not an integer"),
        ],
        ids=[
            "float-column",
            "str-column",
            "column-past-end",
            "negative-column",
            "float-entry",
            "str-entry",
            "none-entry",
        ],
    )
    def test_rejections_pinned(self, rows, cols, message):
        # `analyse` eliminates past this check; `sparse_smith` keeps it.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sparse_smith(rows, cols)

    def test_dense_coefficient_growth_stays_cheap(self):
        # On dense input the pivot order decides how large u and v grow.
        rng = random.Random(40)
        rows = [[rng.randint(-3, 3) for _ in range(40)] for _ in range(40)]
        result = sparse_smith([dict(enumerate(row)) for row in rows], 40)
        assert result.det == det_exact(mat(rows))
        bits = max(
            abs(x).bit_length()
            for vector in result.u_rows + result.v_cols
            for x in vector.values()
        )
        assert bits < 10_000


@st.composite
def sparse_matrices(draw, max_dim=7):
    """Rectangular integer matrices, mostly zeros, sometimes with a zero
    row and sometimes with a row that is the sum of two others."""
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    entry = st.one_of(st.just(0), st.integers(-5, 5))
    entries = draw(
        st.lists(
            st.lists(entry, min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    if draw(st.booleans()):
        entries.insert(draw(st.integers(0, rows)), [0] * cols)
    if len(entries) >= 2 and draw(st.booleans()):
        entries.append([x + y for x, y in zip(entries[0], entries[1])])
    return mat(entries)


def full_transforms(result, rows, cols):
    u = mat([[row.get(j, 0) for j in range(rows)] for row in result.u_rows])
    v = mat([[col.get(i, 0) for col in result.v_cols] for i in range(cols)])
    return u, v


@settings(deadline=None, max_examples=300)
@given(sparse_matrices())
def test_replayed_transforms_are_exact(m):
    """u and v, every vector replayed from the operation log, satisfy
    u @ B @ v == diag(d) and are unimodular."""
    result = sparse_smith([dict(enumerate(row)) for row in m.entries], m.cols)
    u, v = full_transforms(result, m.rows, m.cols)
    assert (u @ m @ v).entries == diagonal_matrix(result.d, m.rows, m.cols).entries
    assert abs(det_exact(u)) == abs(det_exact(v)) == 1


@settings(deadline=None, max_examples=150)
@given(multigraphs())
@example(NAMED_GRAPHS["empty"])
@example(NAMED_GRAPHS["one_loop_singular"])
@example(NAMED_GRAPHS["source_into_rose"])
@example(NAMED_GRAPHS["rank_one"])
def test_vertex_images_are_kept_rows_of_full_u(g):
    """analyse replays only the rows of u with d_i != 1; they agree with
    the same rows of the fully built u."""
    n = g.n_vertices
    result = sparse_smith(_b_rows(g), n)
    u, _ = full_transforms(result, n, n)
    k0 = analyse(g).k0
    keep = [i for i, di in enumerate(result.d) if di != 1]
    for j, image in enumerate(k0.vertex_images):
        assert image == k0.group.element([u.entries[i][j] for i in keep])
    assert k0.distinguished == k0.group.element([sum(u.entries[i]) for i in keep])


def _nearest_quotient(x, p):
    q, r = divmod(x, p)
    return q + 1 if 2 * abs(r) > abs(p) else q


def full_scan_smith(m):
    """Reference for `sparse_smith`: (d, u, v) with u, v dense, from the
    same elimination with every pivot found by a full scan of the active
    block, as documented.  Until the active block is at least half full
    (nonzeros counted afresh before each pivot) the rule is the sparse
    phase's: smallest |entry|, then Markowitz cost (row nnz x column nnz),
    then lowest row, then the first entry in row order.  From then on it
    is the core's: smallest |entry|, then lowest row, then lowest column.

    The sparse steps after each choice copy `sparse_smith` dict for dict
    and set for set, so that ties inside a clearing round fall the same
    way; the core's rounds take the remainder in the lowest row or column
    on a tie.  A pivot that alone is left in its row and column is
    finished only when it divides every active entry, which the scan here
    checks at every pivot; until then the lowest active row holding an
    entry it does not divide is added to its row and the round goes on.
    The row and column operations go straight into dense u and v instead
    of a log, and no pass follows the elimination: the pivots are d in
    the order they are taken.
    """
    nr, nc = m.rows, m.cols
    a = [{j: x for j, x in enumerate(row) if x} for row in m.entries]
    col_rows = [set() for _ in range(nc)]
    for i, row in enumerate(a):
        for j in row:
            col_rows[j].add(i)
    u = [[int(i == k) for k in range(nr)] for i in range(nr)]
    v = [[int(i == k) for k in range(nc)] for i in range(nc)]

    def row_sub(i, r, q):
        if not q:
            return
        for j, x in a[r].items():
            y = a[i].get(j, 0) - q * x
            if y:
                col_rows[j].add(i)
                a[i][j] = y
            else:
                del a[i][j]
                col_rows[j].discard(i)
        u[i] = [x - q * y for x, y in zip(u[i], u[r])]

    def smallest(entries):
        best = None
        for key, x in entries:
            if best is None or abs(x) < best[0]:
                best = (abs(x), key)
        return None if best is None else best[1]

    def in_order(keys):
        return sorted(keys) if core else list(keys)

    pivots = []
    done = set()
    core = False
    while True:
        active = [(i, j) for i in range(nr) if i not in done for j in a[i]]
        if not active:
            break
        size = (nr - len(done)) * (nc - len(done))
        core = core or 2 * len(active) >= size
        r, c = min(
            active,
            key=lambda ij: (
                abs(a[ij[0]][ij[1]]),
                0 if core else len(a[ij[0]]) * len(col_rows[ij[1]]),
                ij[0],
                ij[1] if core else 0,
            ),
        )
        while True:
            p = a[r][c]
            for i in [i for i in col_rows[c] if i != r]:
                row_sub(i, r, _nearest_quotient(a[i][c], p))
            rest = smallest((i, a[i][c]) for i in in_order(col_rows[c]) if i != r)
            if rest is not None:
                r = rest
                continue
            row = a[r]
            for j in [j for j in in_order(row) if j != c]:
                q = _nearest_quotient(row[j], p)
                y = row[j] - q * p
                if y:
                    row[j] = y
                else:
                    del row[j]
                    col_rows[j].discard(r)
                for vrow in v:
                    vrow[j] -= q * vrow[c]
            rest = smallest((j, row[j]) for j in in_order(row) if j != c)
            if rest is not None:
                c = rest
                continue
            undivided = [
                i
                for i in range(nr)
                if i not in done and any(x % p for x in a[i].values())
            ]
            if not undivided:
                break
            row_sub(r, undivided[0], -1)
        pivots.append((r, c, p))
        col_rows[c].clear()
        done.add(r)

    rows_u = [[x if p > 0 else -x for x in u[r]] for r, _, p in pivots]
    rows_u += [u[i] for i in range(nr) if i not in done]
    pivot_cols = [c for _, c, _ in pivots]
    cols_v = [[vrow[c] for vrow in v] for c in pivot_cols]
    cols_v += [[vrow[j] for vrow in v] for j in range(nc) if j not in pivot_cols]
    d = [abs(p) for _, _, p in pivots]
    d += [0] * (min(nr, nc) - len(d))
    return tuple(d), rows_u, cols_v


@settings(deadline=None, max_examples=300)
@given(sparse_matrices())
@example(mat([[0, 0], [0, 0], [0, 0]]))
@example(mat([[0, 2, 0], [0, 0, 0]]))
@example(mat([[2, 2, -2, 4], [2, 0, 2, -2], [0, -2, 2, 2], [4, 2, 0, 2]]))
@example(b_matrix(cayley_graph(6)))
@example(mat([[0, 0, 0], [1, 1, 0], [1, 0, -1]]))
@example(mat([[4, 7], [6, 10]]))
def test_heap_pivots_match_a_full_scan(m):
    """The heap with lazy re-keying picks the pivot a full scan of the
    active block picks, so d, u and v come out the same; det is the one
    `det_exact` computes."""
    result = sparse_smith([dict(enumerate(row)) for row in m.entries], m.cols)
    d, rows_u, cols_v = full_scan_smith(m)
    assert result.d == d
    assert [[row.get(j, 0) for j in range(m.rows)] for row in result.u_rows] == rows_u
    assert [[col.get(i, 0) for i in range(m.cols)] for col in result.v_cols] == cols_v
    assert result.det == (det_exact(m) if m.is_square else None)


def one_phase_smith(rows, cols):
    """The elimination as one phase: the sparse phase's Markowitz loop,
    heap, lazy re-keying and divisibility step run to the end with no
    switch to the core.  It is the oracle for the two-phase `sparse_smith`,
    which must give the same d and det, and a u and v that present the
    same pointed cokernel."""
    nr = len(rows)
    a = [{j: x for j, x in row.items() if x} for row in rows]
    col_rows = [set() for _ in range(cols)]
    for i, row in enumerate(a):
        for j in row:
            col_rows[j].add(i)
    row_ops, col_ops = [], []
    changed_rows, changed_cols = set(), set()

    def row_sub(i, r, q):
        if not q:
            return
        target = a[i]
        for j, x in a[r].items():
            y = target.get(j, 0) - q * x
            if y:
                if j not in target:
                    col_rows[j].add(i)
                    changed_cols.add(j)
                target[j] = y
            else:
                del target[j]
                col_rows[j].discard(i)
                changed_cols.add(j)
        changed_rows.add(i)
        row_ops.append((i, r, q))

    def smallest(entries):
        best = None
        for key, x in entries:
            if best is None or abs(x) < best[0]:
                best = (abs(x), key)
        return None if best is None else best[1]

    key_of, heap = {}, []

    def rekey(i):
        row = a[i]
        if not row:
            key_of.pop(i, None)
            return
        least = None
        for j, x in row.items():
            x = abs(x)
            if least is None or x < least:
                least, count, c = x, len(col_rows[j]), j
            elif x == least and len(col_rows[j]) < count:
                count, c = len(col_rows[j]), j
        key = (least, len(row) * count, i, c)
        if key_of.get(i) != key:
            key_of[i] = key
            heapq.heappush(heap, key)

    for i in range(nr):
        rekey(i)
    pivots = []
    while True:
        while heap and key_of.get(heap[0][2]) != heap[0]:
            heapq.heappop(heap)
        if not heap:
            break
        _, _, r, c = heap[0]
        while True:
            p = a[r][c]
            for i in [i for i in col_rows[c] if i != r]:
                row_sub(i, r, _nearest_quotient(a[i][c], p))
            rest = smallest((i, a[i][c]) for i in col_rows[c] if i != r)
            if rest is not None:
                r = rest
                continue
            row = a[r]
            for j in [j for j in row if j != c]:
                q = _nearest_quotient(row[j], p)
                y = row[j] - q * p
                if y:
                    row[j] = y
                else:
                    del row[j]
                    col_rows[j].discard(r)
                    changed_cols.add(j)
                if q:
                    col_ops.append((j, c, q))
            rest = smallest((j, x) for j, x in row.items() if j != c)
            if rest is not None:
                c = rest
                continue
            if abs(p) == 1:
                break
            i = next((i for i in key_of if any(x % p for x in a[i].values())), None)
            if i is None:
                break
            row_sub(r, i, -1)
        pivots.append((r, c, p))
        col_rows[c].clear()
        key_of.pop(r, None)
        for j in changed_cols:
            changed_rows.update(col_rows[j])
        changed_rows.discard(r)
        for i in changed_rows:
            rekey(i)
        changed_rows.clear()
        changed_cols.clear()
    return _smith_from_pivots(nr, cols, pivots, row_ops, col_ops)


@st.composite
def switching_matrices(draw, max_dim=30):
    """Integer matrices of up to `max_dim` rows that cross the switch to
    the core phase: dense from the start; a quarter full with a full
    corner, so dense after some pivots; or block-diagonal with cokernel
    Z/a + Z/b, such as Z/2 + Z/4.  Some are square, some rectangular,
    some rank-deficient (a row replaced by a combination of two others),
    some with a zero row; drawn entries are at most 50 in size."""
    entry = st.integers(-50, 50)
    kind = draw(st.sampled_from(["dense", "tail", "blocks"]))
    if kind == "blocks":
        # Each block is a dense unimodular mix of diag(factor, 1, ..., 1),
        # so the cokernel is Z/a + Z/b.
        blocks = []
        for factor in draw(st.sampled_from([(2, 4), (3, 9), (2, 6), (4, 8)])):
            size = draw(st.integers(1, 8))
            block = [[int(i == j) for j in range(size)] for i in range(size)]
            block[0][0] = factor
            op = st.tuples(
                st.integers(0, size - 1), st.integers(0, size - 1), st.integers(-2, 2)
            )
            for i, j, c in draw(st.lists(op, max_size=3 * size)):
                if i != j:
                    block[i] = [x + c * y for x, y in zip(block[i], block[j])]
            for i, j, c in draw(st.lists(op, max_size=3 * size)):
                if i != j:
                    for row in block:
                        row[i] += c * row[j]
            blocks.append(block)
        rows = cols = sum(map(len, blocks))
        entries = []
        offset = 0
        for block in blocks:
            for row in block:
                entries.append([0] * offset + row + [0] * (cols - offset - len(row)))
            offset += len(block)
    else:
        rows = draw(st.integers(1, max_dim))
        cols = rows if draw(st.booleans()) else draw(st.integers(1, max_dim))
        if kind == "dense":
            fill = st.one_of(st.just(0), entry, entry)
        else:
            fill = st.one_of(st.just(0), st.just(0), st.just(0), entry)
        entries = [
            draw(st.lists(fill, min_size=cols, max_size=cols)) for _ in range(rows)
        ]
        if kind == "tail":
            corner = draw(st.integers(1, min(rows, cols)))
            for i in range(rows - corner, rows):
                for j in range(cols - corner, cols):
                    entries[i][j] = draw(entry)
    if rows >= 2 and draw(st.booleans()):
        entries[-1] = [x + 2 * y for x, y in zip(entries[0], entries[1])]
    if draw(st.booleans()):
        entries.insert(draw(st.integers(0, len(entries))), [0] * cols)
    return mat(entries)


def sympy_factors(m):
    reference = DomainMatrix(
        [[ZZ(x) for x in row] for row in m.entries], (m.rows, m.cols), ZZ
    )
    factors = tuple(int(x) for x in invariant_factors(reference))
    return factors + (0,) * (min(m.rows, m.cols) - len(factors))


@settings(deadline=None, max_examples=120)
@given(switching_matrices())
@example(mat([[3, 1, 0, 0], [1, 1, 0, 0], [0, 0, 5, 1], [0, 0, 1, 1]]))
@example(mat([[4, 7], [6, 10]]))
def test_two_phases_match_one_phase_and_sympy(m):
    """d and det equal those of the one-phase loop, d equals sympy's
    invariant factors, and u @ B @ v == diag(d) with u and v unimodular."""
    rows = [dict(enumerate(row)) for row in m.entries]
    result = sparse_smith(rows, m.cols)
    oracle = one_phase_smith(rows, m.cols)
    assert (result.d, result.det) == (oracle.d, oracle.det)
    assert result.d == sympy_factors(m)
    u, v = full_transforms(result, m.rows, m.cols)
    assert (u @ m @ v).entries == diagonal_matrix(result.d, m.rows, m.cols).entries
    assert abs(det_exact(u)) == abs(det_exact(v)) == 1


@pytest.mark.parametrize("seed", range(40))
def test_two_phases_present_the_one_phase_pointed_cokernel(seed):
    """On dense multigraphs the core picks other pivots than the one-phase
    loop, so the vertex images may differ; the pointed K0 may not."""
    rng = random.Random(seed)
    g = random_multigraph(rng, rng.randint(12, 28), rng.uniform(0.2, 0.8))
    new = analyse(g)
    with mock.patch.object(ktheory, "_eliminate", one_phase_smith):
        old = analyse(g)
    assert (new.snf_diagonal, new.det) == (old.snf_diagonal, old.det)
    assert new.k0.group == old.k0.group
    verdict = pointed_iso_exists(
        old.k0.group, old.k0.distinguished, new.k0.group, new.k0.distinguished
    )
    assert verdict == "YES"


@pytest.mark.parametrize(
    "factors, torsion",
    [((4, 2), (2, 4)), ((2, 3), (6,)), ((6, 4, 9), (6, 36))],
)
def test_sparse_phase_takes_a_divisibility_chain(factors, torsion):
    """A 40 x 40 identity with `factors` down part of its diagonal, row 36
    the sum of the first two factor rows and rows 37-39 zero, so the
    active block never reaches half full.  The least |entry| pivots on
    the factors in increasing order, and where one does not divide the
    next, the sparse phase's divisibility step must fuse them; the pivots
    are read as d in the order taken."""
    entries = [[int(i == j) for j in range(40)] for i in range(36)]
    at = [5 + 12 * k for k in range(len(factors))]
    for i, f in zip(at, factors):
        entries[i][i] = f
    entries.append([x + y for x, y in zip(entries[at[0]], entries[at[1]])])
    entries += [[0] * 40 for _ in range(3)]
    m = mat(entries)
    assert 4 * sum(x != 0 for row in entries for x in row) < 40 * 40
    sparse_only = mock.patch.object(
        intlinalg, "_core_phase", side_effect=AssertionError("entered the core")
    )
    with sparse_only:
        result = sparse_smith([dict(enumerate(row)) for row in entries], 40)
    assert result.d == (1,) * (36 - len(torsion)) + torsion + (0,) * 4
    assert result.d == sympy_factors(m)
    assert result.det == det_exact(m) == 0
    u, v = full_transforms(result, 40, 40)
    assert (u @ m @ v).entries == diagonal_matrix(result.d, 40, 40).entries
    assert abs(det_exact(u)) == abs(det_exact(v)) == 1


class TestCirculant:
    def test_c3_row(self):
        result = circulant_det_product(CirculantRow((1, -1, -1)))
        expected = (-1, 2, 2)
        for factor, want in zip(result.factors, expected):
            assert abs(factor - want) < 1e-9
        assert abs(result.product - (-4)) < 1e-9

    def test_c6_row_vanishes(self):
        result = circulant_det_product(CirculantRow((1, -1, 0, 0, 0, -1)))
        assert abs(result.factors[1]) < 1e-9  # 1 - 2*cos(60 deg)
        assert abs(result.product) < 1e-9

    def test_single_entry(self):
        result = circulant_det_product(CirculantRow((-1,)))
        assert result.factors == (complex(-1),)
        assert abs(result.product - (-1)) < 1e-12

    def test_empty_row_rejected(self):
        with pytest.raises(ValueError):
            CirculantRow(())

    def test_matches_exact_determinant(self):
        # circulant matrix from a row, small sizes
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(1, 6)
            row = [rng.randint(-3, 3) for _ in range(n)]
            circ = mat([row[-i:] + row[:-i] for i in range(n)])
            det = det_exact(circ)
            result = circulant_det_product(CirculantRow(tuple(row)))
            assert abs(result.product - det) <= 1e-6 * max(1, abs(det))
