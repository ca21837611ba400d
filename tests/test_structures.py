import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bilinear_kernels import (CountContext, SchemaError, SparsityPattern,
                              StructureKind, basis, densify, naive_matvec,
                              parse_matrix, serialize_matrix, structure_dim,
                              structured, variable, variables)
from bilinear_kernels.rng import Lcg
from bilinear_kernels.structures import LevelSpec, default_f, dense_parts, param_count

ALL_SINGLE_KINDS = [
    StructureKind.CIRCULANT, StructureKind.F_CIRCULANT, StructureKind.TOEPLITZ,
    StructureKind.HANKEL, StructureKind.UPPER_TRIANGULAR_TOEPLITZ,
    StructureKind.TOEPLITZ_PLUS_HANKEL, StructureKind.SYMMETRIC,
    StructureKind.SKEW_SYMMETRIC,
]


def grid_values(grid):
    return np.array([[s.value for s in row] for row in grid])


class TestDensify:
    def test_circulant_n2(self):
        M = structured(StructureKind.CIRCULANT, 2, [1, 2])
        assert np.array_equal(grid_values(densify(M)), np.array([[1, 2], [2, 1]]))

    def test_f_circulant_n2(self):
        M = structured(StructureKind.F_CIRCULANT, 2, [3, 5], f=7)
        assert np.array_equal(grid_values(densify(M)), np.array([[3, 5], [35, 3]]))

    def test_f_circulant_rows_shift_with_scaled_wrap(self):
        M = structured(StructureKind.F_CIRCULANT, 4, [1, 2, 3, 4], f=2j)
        dense = grid_values(densify(M))
        for i in range(3):
            assert np.array_equal(dense[i + 1, 1:], dense[i, :-1])
            assert dense[i + 1, 0] == 2j * dense[i, -1]

    def test_skew_symmetric_n2(self):
        M = structured(StructureKind.SKEW_SYMMETRIC, 2, [4])
        dense = grid_values(densify(M))
        assert np.array_equal(dense, np.array([[0, 4], [-4, 0]]))

    def test_toeplitz_layout_subdiagonals_first(self):
        M = structured(StructureKind.TOEPLITZ, 2, [3, 1, 2])
        assert np.array_equal(grid_values(densify(M)), np.array([[1, 2], [3, 1]]))

    def test_exact_symmetry_properties(self):
        rng = Lcg(3)
        S = structured(StructureKind.SYMMETRIC, 5, rng.complex_vector(15))
        dense = grid_values(densify(S))
        assert np.array_equal(dense, dense.T)
        W = structured(StructureKind.SKEW_SYMMETRIC, 5, rng.complex_vector(10))
        dense = grid_values(densify(W))
        assert np.array_equal(dense, -dense.T)

    def test_undetermined_entries_are_constant_zero(self):
        M = structured(StructureKind.UPPER_TRIANGULAR_TOEPLITZ, 3, [1, 2, 3])
        grid = densify(M)
        assert grid[2][0].value == 0 and not grid[2][0].is_variable
        assert grid[0][2].is_variable

    def test_wrong_data_length_rejected(self):
        with pytest.raises(ValueError):
            structured(StructureKind.TOEPLITZ, 2, [1.0])

    @pytest.mark.parametrize("kind", ALL_SINGLE_KINDS)
    def test_levels_with_a_single_level_kind_rejected(self, kind):
        f = 2.0 if kind is StructureKind.F_CIRCULANT else None
        data = [1.0] * param_count(kind, 3)
        assert structured(kind, 3, data, f=f).levels == (LevelSpec(kind, 3, f),)
        for levels in ((LevelSpec(kind, 3, f),), (LevelSpec(StructureKind.TOEPLITZ, 3),), ()):
            with pytest.raises(ValueError, match="takes no levels"):
                structured(kind, 3, data, f=f, levels=levels)


class TestNaiveMatvec:
    def test_dense_rectangular_count(self):
        rng = Lcg(1)
        A = [variables(rng.complex_vector(3)) for _ in range(2)]
        x = variables(rng.complex_vector(3))
        ctx = CountContext()
        out = naive_matvec(A, x, ctx)
        assert ctx.bilinear_mults == 6
        want = grid_values(A) @ np.array([s.value for s in x])
        assert np.abs(np.array([s.value for s in out]) - want).max() < 1e-12

    def test_diagonal_pattern_count(self):
        pattern = SparsityPattern(4, 4, tuple((i, i) for i in range(4)))
        M = structured(StructureKind.SPARSE, 4, [1, 2, 3, 4], pattern=pattern)
        ctx = CountContext()
        naive_matvec(M, variables([1, 1, 1, 1]), ctx)
        assert ctx.bilinear_mults == 4

    def test_upper_triangular_pattern_count(self):
        M = structured(StructureKind.UPPER_TRIANGULAR_TOEPLITZ, 3, [1, 2, 3])
        ctx = CountContext()
        naive_matvec(M, variables([1, 1, 1]), ctx)
        assert ctx.bilinear_mults == 6  # n(n+1)/2

    def test_variable_zero_is_not_skipped(self):
        A = [[variable(0), variable(1)], [variable(2), variable(3)]]
        ctx = CountContext()
        naive_matvec(A, variables([1, 1]), ctx)
        assert ctx.bilinear_mults == 4

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            naive_matvec([[variable(1)]], variables([1, 2]), CountContext())


class TestBasis:
    def test_toeplitz_basis_has_one_matrix_per_diagonal(self):
        mats = basis(StructureKind.TOEPLITZ, 2)
        assert len(mats) == 3
        for p, M in enumerate(mats):
            assert sum(s.value for s in M.data) == 1 and M.data[p].value == 1
            assert not M.data[p].is_variable

    def test_symmetric_basis_n2(self):
        assert len(basis(StructureKind.SYMMETRIC, 2)) == 3

    def test_skew_basis_n3_matches_standard_generators(self):
        mats = [grid_values(densify(M)) for M in basis(StructureKind.SKEW_SYMMETRIC, 3)]
        F1 = np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
        F2 = np.array([[0, 0, 1], [0, 0, 0], [-1, 0, 0]])
        F3 = np.array([[0, 0, 0], [0, 0, 1], [0, -1, 0]])
        for got, want in zip(mats, (F1, F2, F3)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("kind", ALL_SINGLE_KINDS)
    @pytest.mark.parametrize("n", range(1, 17))
    def test_densify_is_linear_over_basis(self, kind, n):
        f = -1.0 if kind is StructureKind.F_CIRCULANT else None
        rng = Lcg(n * 101 + 7)
        coeffs = rng.complex_vector(param_count(kind, n))
        mats = basis(kind, n, f=f)
        combo = structured(kind, n, coeffs, f=f)
        lhs, _, _ = dense_parts(combo)
        rhs = sum(c * dense_parts(B)[0] for c, B in zip(coeffs, mats))
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_unsupported_kind(self):
        with pytest.raises(ValueError):
            basis(StructureKind.MULTILEVEL, 2)


def test_naive_matvec_agrees_between_structured_and_densified():
    rng = Lcg(17)
    for kind in ALL_SINGLE_KINDS:
        for n in (1, 2, 4, 7):
            f = 2.0 + 1j if kind is StructureKind.F_CIRCULANT else None
            M = structured(kind, n, rng.complex_vector(param_count(kind, n)), f=f)
            x = variables(rng.complex_vector(n))
            a = naive_matvec(M, x, CountContext())
            b = naive_matvec(densify(M), x, CountContext())
            got = np.array([s.value for s in a])
            want = np.array([s.value for s in b])
            assert np.abs(got - want).max() <= 1e-10 * max(1.0, np.abs(want).max())


def test_hankel_is_reversed_toeplitz():
    rng = Lcg(23)
    for n in (1, 2, 3, 6):
        d = rng.complex_vector(2 * n - 1)
        H = grid_values(densify(structured(StructureKind.HANKEL, n, d)))
        T = grid_values(densify(structured(StructureKind.TOEPLITZ, n, d)))
        J = np.eye(n)[::-1]
        assert np.abs(H - J @ T).max() < 1e-12


def test_multilevel_densify_is_kronecker_structured():
    rng = Lcg(31)
    levels = (LevelSpec(StructureKind.CIRCULANT, 2), LevelSpec(StructureKind.HANKEL, 2))
    data = rng.complex_vector(2 * 3)
    M = structured(StructureKind.MULTILEVEL, 4, data, levels=levels)
    dense = grid_values(densify(M))
    outer = [dense_parts(B)[0] for B in basis(StructureKind.CIRCULANT, 2)]
    inner = [dense_parts(B)[0] for B in basis(StructureKind.HANKEL, 2)]
    want = sum(data[p * 3 + q] * np.kron(outer[p], inner[q])
               for p in range(2) for q in range(3))
    assert np.abs(dense - want).max() < 1e-12


@pytest.mark.parametrize("pattern", [
    SparsityPattern(4, 4, ((0, 3), (3, 0))),    # entries past order 3
    SparsityPattern(2, 2, ((0, 1), (1, 0))),    # a row of the output missing
    SparsityPattern(3, 4, ((0, 1),)),
])
def test_a_pattern_of_another_order_is_refused(pattern):
    with pytest.raises(ValueError, match=rf"^pattern of shape {pattern.rows}x{pattern.cols} "
                                         r"for a matrix of order 3$"):
        structured(StructureKind.SPARSE, 3, [1.0] * len(pattern), pattern=pattern)


def test_default_f_is_minus_one_where_f_is_needed():
    assert default_f(StructureKind.F_CIRCULANT, None) == -1
    assert default_f(StructureKind.F_CIRCULANT, 2j) == 2j
    assert default_f(StructureKind.TOEPLITZ, None) is None


def test_structure_dim_values():
    assert structure_dim(StructureKind.CIRCULANT, 5) == 5
    assert structure_dim(StructureKind.TOEPLITZ, 5) == 9
    assert structure_dim(StructureKind.SYMMETRIC, 5) == 15
    assert structure_dim(StructureKind.TOEPLITZ_PLUS_HANKEL, 1) == 1
    assert structure_dim(StructureKind.TOEPLITZ_PLUS_HANKEL, 5) == 16


class TestSerialization:
    def test_documented_example(self):
        M = parse_matrix('{"kind":"circulant","n":2,"data":[[1,0],[2,0]]}')
        assert M.kind is StructureKind.CIRCULANT and M.n == 2
        assert [s.value for s in M.data] == [1, 2]

    def test_roundtrip_is_identity(self):
        M = structured(StructureKind.CIRCULANT, 2, [1, 2])
        assert parse_matrix(serialize_matrix(M)) == M

    def test_short_toeplitz_data_is_positioned_error(self):
        with pytest.raises(SchemaError, match="data.*3"):
            parse_matrix('{"kind":"toeplitz","n":2,"data":[[1,0]]}')

    def test_bad_entry_position_in_message(self):
        with pytest.raises(SchemaError, match=r"data\[1\]"):
            parse_matrix('{"kind":"circulant","n":2,"data":[[1,0],["x",0]]}')

    def test_f_circulant_and_sparse_fields(self):
        M = structured(StructureKind.F_CIRCULANT, 2, [1, 2], f=-1 + 0.5j)
        assert parse_matrix(serialize_matrix(M)) == M
        pattern = SparsityPattern(3, 3, ((0, 1), (2, 2)))
        S = structured(StructureKind.SPARSE, 3, [5, 6], pattern=pattern)
        assert parse_matrix(serialize_matrix(S)) == S

    def test_multilevel_roundtrip(self):
        levels = (LevelSpec(StructureKind.TOEPLITZ, 2),
                  LevelSpec(StructureKind.F_CIRCULANT, 2, f=2.0))
        M = structured(StructureKind.MULTILEVEL, 4, range(1, 7), levels=levels)
        assert parse_matrix(serialize_matrix(M)) == M

    def test_every_single_level_kind_reads_as_a_level(self):
        levels = (LevelSpec(StructureKind.SKEW_SYMMETRIC, 3),
                  LevelSpec(StructureKind.UPPER_TRIANGULAR_TOEPLITZ, 2))
        M = structured(StructureKind.MULTILEVEL, 6, range(1, 7), levels=levels)
        assert parse_matrix(serialize_matrix(M)) == M
        with pytest.raises(SchemaError, match=r"^levels\[0\]\.kind: multilevel is not a "
                                              "valid level kind$"):
            parse_matrix('{"kind":"multilevel","n":2,"levels":[{"kind":"multilevel","n":2}],'
                         '"data":[[1,0]]}')
        with pytest.raises(ValueError, match="^level skew_symmetric of order 1 has no "
                                             "parameters$"):
            parse_matrix('{"kind":"multilevel","n":2,"levels":[{"kind":"skew_symmetric","n":1},'
                         '{"kind":"toeplitz","n":2}],"data":[]}')

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        st.floats(allow_nan=False, allow_infinity=False, width=64)),
        min_size=3, max_size=3))
    def test_roundtrip_preserves_bits(self, pairs):
        M = structured(StructureKind.TOEPLITZ, 2, [complex(re, im) for re, im in pairs])
        back = parse_matrix(serialize_matrix(M))
        for a, b in zip(M.data, back.data):
            # compare representations so -0.0 and 0.0 stay distinguishable
            assert repr(a.value) == repr(b.value)

    def test_pattern_validation(self):
        with pytest.raises(ValueError, match="duplicate"):
            SparsityPattern(2, 2, ((0, 0), (0, 0)))
        with pytest.raises(ValueError, match="outside"):
            SparsityPattern(2, 2, ((0, 5),))

    def test_vector_roundtrip(self):
        from bilinear_kernels import parse_vector, serialize_vector
        x = variables([1.5 - 2j, 3.25, -0.125j])
        back = parse_vector(serialize_vector(x))
        assert [s.value for s in back] == [s.value for s in x]
        with pytest.raises(SchemaError, match=r"data"):
            parse_vector('{"n": 2, "data": [[1, 0]]}')

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_non_finite_values_are_rejected(self, bad):
        with pytest.raises(SchemaError, match=r"data\[1\]: non-finite"):
            parse_matrix('{"kind":"circulant","n":2,"data":[[1,0],[0,%s]]}' % bad)
        with pytest.raises(SchemaError, match=r"^f: non-finite"):
            parse_matrix('{"kind":"f_circulant","n":1,"f":[%s,0],"data":[[1,0]]}' % bad)
        from bilinear_kernels import parse_vector
        with pytest.raises(SchemaError, match=r"data\[0\]: non-finite"):
            parse_vector('{"n":2,"data":[[%s,0],[1,0]]}' % bad)

    def test_out_of_range_integer_is_rejected(self):
        with pytest.raises(SchemaError, match=r"data\[0\]: value out of range"):
            parse_matrix('{"kind":"circulant","n":1,"data":[[1%s,0]]}' % ("0" * 400))


def test_a_kind_given_by_name_serialises_as_its_enum():
    by_name = structured("toeplitz", 3, [1, 2, 3, 4, 5])
    by_enum = structured(StructureKind.TOEPLITZ, 3, [1, 2, 3, 4, 5])
    assert by_name.kind is StructureKind.TOEPLITZ
    assert by_name == by_enum
    assert serialize_matrix(by_name) == serialize_matrix(by_enum)
    assert parse_matrix(serialize_matrix(by_name)) == by_enum
    levels = (LevelSpec("toeplitz", 2), LevelSpec("circulant", 2))
    M = structured("multilevel", 4, range(1, 7), levels=levels)
    assert [lev.kind for lev in M.levels] == [StructureKind.TOEPLITZ, StructureKind.CIRCULANT]
    assert parse_matrix(serialize_matrix(M)) == M


@pytest.mark.parametrize("kind", [StructureKind.TOEPLITZ, StructureKind.F_CIRCULANT])
def test_a_pattern_given_to_a_kind_without_one_is_refused(kind):
    pattern = SparsityPattern(3, 3, ((0, 0),))
    P = param_count(kind, 3)
    with pytest.raises(ValueError, match=rf"^{kind.value} takes no sparsity pattern$"):
        structured(kind, 3, [1.0] * P, f=2.0, pattern=pattern)


def test_an_f_given_to_a_kind_without_one_is_refused():
    """A kept f would be lost by serialize_matrix, so it is refused."""
    with pytest.raises(ValueError, match="^toeplitz takes no f$"):
        structured("toeplitz", 3, [1, 2, 3, 4, 5], f=2)
    M = structured("toeplitz", 3, [1, 2, 3, 4, 5])
    assert parse_matrix(serialize_matrix(M)) == M


def test_an_f_given_to_a_level_without_one_is_refused():
    levels = (LevelSpec("circulant", 2, f=3j), LevelSpec("toeplitz", 2))
    with pytest.raises(ValueError, match="^circulant takes no f$"):
        structured("multilevel", 4, range(1, 7), levels=levels)


SQUARE = SparsityPattern(5, 5, ((0, 1), (4, 4)))


@pytest.mark.parametrize("count", [param_count, structure_dim])
@pytest.mark.parametrize("kind, n, pattern, message", [
    ("toeplitz", -3, None, "order must be positive"),
    ("toeplitz", 0, None, "order must be positive"),
    ("toeplitz", 3, SQUARE, "toeplitz takes no sparsity pattern"),
    ("sparse", 2, SQUARE, "pattern of shape 5x5 for a matrix of order 2"),
    ("sparse", 3, None, "sparse structure needs a pattern"),
])
def test_the_counts_refuse_bad_orders_and_patterns(count, kind, n, pattern, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        count(kind, n, pattern)
