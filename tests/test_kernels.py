import math
import zlib

import numpy as np
import pytest

from bilinear_kernels import (CountContext, SingularMatrix, StructureKind,
                              circulant_inverse, circulant_matvec, commutator_2x2,
                              densify, f_circulant_inverse, f_circulant_matvec,
                              formula_count, gauss_complex_mul, hankel_matvec,
                              kernel_report, multilevel_matvec, naive_matvec,
                              skew_symmetric_matvec, structured, structured_matvec,
                              symmetric_matvec,
                              toeplitz_matmul, toeplitz_matvec, tph_matvec,
                              triangular_toeplitz_matvec, variable, variables)
from bilinear_kernels import kernels
from bilinear_kernels.cli import random_pattern
from bilinear_kernels.kernels import _FRAMES, SPECS, _embedding_maps, _pairwise_maps
from bilinear_kernels.rng import Lcg
from bilinear_kernels.spectral import principal_root, twiddles
from bilinear_kernels.structures import LevelSpec, SparsityPattern, param_count
from test_fresh_instances import F_GRID

ALL_KINDS = [
    StructureKind.CIRCULANT, StructureKind.F_CIRCULANT, StructureKind.TOEPLITZ,
    StructureKind.HANKEL, StructureKind.UPPER_TRIANGULAR_TOEPLITZ,
    StructureKind.TOEPLITZ_PLUS_HANKEL, StructureKind.SYMMETRIC,
    StructureKind.SKEW_SYMMETRIC,
]


def vals(out):
    return np.array([s.value for s in out])


def rel_err(got, want):
    scale = max(float(np.abs(want).max(initial=0.0)), 1e-12)
    return float(np.abs(np.asarray(got) - np.asarray(want)).max(initial=0.0)) / scale


def random_instance(kind, n, rng, f=None):
    return structured(kind, n, rng.complex_vector(param_count(kind, n)), f=f)


def random_multilevel(levels, rng):
    n = math.prod(lev.n for lev in levels)
    count = param_count(StructureKind.MULTILEVEL, n, levels=levels)
    return structured(StructureKind.MULTILEVEL, n, rng.complex_vector(count), levels=levels)


class TestCirculant:
    def test_two_by_two_example(self):
        ctx = CountContext()
        out = circulant_matvec(variables([1, 2]), variables([3, 4]), ctx)
        assert rel_err(vals(out), [11, 10]) < 1e-12
        assert ctx.bilinear_mults == 2

    def test_identity_circulant(self):
        ctx = CountContext()
        x = variables([5, 6, 7, 8])
        out = circulant_matvec(variables([1, 0, 0, 0]), x, ctx)
        assert rel_err(vals(out), vals(x)) < 1e-12

    def test_count_is_n(self):
        rng = Lcg(2)
        for n in range(1, 17):
            ctx = CountContext()
            circulant_matvec(variables(rng.complex_vector(n)),
                             variables(rng.complex_vector(n)), ctx)
            assert ctx.bilinear_mults == n


class TestCirculantInverse:
    def test_identity(self):
        ctx = CountContext()
        inv = circulant_inverse(variables([1, 0]), ctx)
        assert rel_err(vals(inv), [1, 0]) < 1e-12
        assert ctx.divisions == 2 and ctx.bilinear_mults == 0

    def test_two_by_two_by_hand(self):
        ctx = CountContext()
        inv = circulant_inverse(variables([2, 1]), ctx)
        assert rel_err(vals(inv), [2 / 3, -1 / 3]) < 1e-12

    def test_singular_detected(self):
        with pytest.raises(SingularMatrix):
            circulant_inverse(variables([1, 1]), CountContext())

    def test_roundtrip_to_identity(self):
        rng = Lcg(4)
        for n in (1, 2, 5, 9):
            c = [complex(2 * n, 0)] + rng.complex_vector(n - 1)
            ctx = CountContext()
            inv = circulant_inverse(variables(c), ctx)
            assert ctx.divisions == n and ctx.bilinear_mults == 0
            A = np.array([[c[(i - j) % n] for j in range(n)] for i in range(n)])
            B = np.array([[vals(inv)[(i - j) % n] for j in range(n)] for i in range(n)])
            assert np.abs(A @ B - np.eye(n)).max() < 1e-8


class TestFCirculant:
    def test_unit_f_matches_circulant_exactly(self):
        rng = Lcg(6)
        for n in (1, 2, 3, 7):
            c = variables(rng.complex_vector(n))
            x = variables(rng.complex_vector(n))
            a = vals(f_circulant_matvec(c, 1.0, x, CountContext()))
            b = vals(circulant_matvec(c, x, CountContext()))
            assert np.array_equal(a, b)

    def test_gauss_pattern_at_skew_two(self):
        # [[a, b], [-b, a]] @ (c, -d) = (ac - bd, -ad - bc)
        a, b, c, d = 1.0, 2.0, 3.0, 4.0
        ctx = CountContext()
        out = f_circulant_matvec(variables([a, b]), -1.0, variables([c, -d]), ctx)
        assert rel_err(vals(out), [a * c - b * d, -a * d - b * c]) < 1e-12
        assert ctx.bilinear_mults == 2

    @pytest.mark.parametrize("f", [-1.0, 2.0, 1j])
    def test_matches_naive(self, f):
        rng = Lcg(8)
        for n in (1, 2, 3, 5, 8):
            M = random_instance(StructureKind.F_CIRCULANT, n, rng, f=f)
            x = variables(rng.complex_vector(n))
            ctx = CountContext()
            out = f_circulant_matvec([*M.data], f, x, ctx)
            want = vals(naive_matvec(M, x, CountContext()))
            assert rel_err(vals(out), want) < 1e-9
            assert ctx.bilinear_mults == n

    def test_wild_f_conditioning_tolerance(self):
        rng = Lcg(10)
        for f in (0.02, 60j):
            M = random_instance(StructureKind.F_CIRCULANT, 6, rng, f=f)
            x = variables(rng.complex_vector(6))
            out = f_circulant_matvec([*M.data], f, x, CountContext())
            want = vals(naive_matvec(M, x, CountContext()))
            assert rel_err(vals(out), want) < 1e-7

    def test_zero_f_rejected(self):
        with pytest.raises(ValueError):
            f_circulant_matvec(variables([1, 2]), 0.0, variables([1, 2]), CountContext())

    def test_inverse(self):
        rng = Lcg(12)
        for f in (-1.0, 2.0, 1j):
            n = 4
            c = [complex(3 * n, 0)] + rng.complex_vector(n - 1)
            ctx = CountContext()
            inv = f_circulant_inverse(variables(c), f, ctx)
            assert ctx.divisions == n and ctx.bilinear_mults == 0
            M = structured(StructureKind.F_CIRCULANT, n, c, f=f)
            Minv = structured(StructureKind.F_CIRCULANT, n, vals(inv), f=f)
            A = np.array([[s.value for s in row] for row in densify(M)])
            B = np.array([[s.value for s in row] for row in densify(Minv)])
            assert np.abs(A @ B - np.eye(n)).max() < 1e-8


class TestGauss:
    def test_product_value(self):
        ctx = CountContext()
        re, im = gauss_complex_mul(variable(1), variable(2), variable(3), variable(4), ctx)
        assert (re.value, im.value) == (-5, 10)
        assert ctx.bilinear_mults == 3

    def test_real_times_real(self):
        ctx = CountContext()
        re, im = gauss_complex_mul(variable(3), variable(0), variable(5), variable(0), ctx)
        assert (re.value, im.value) == (15, 0)
        assert ctx.bilinear_mults == 3


class TestToeplitz:
    def test_by_hand_example(self):
        ctx = CountContext()
        out = toeplitz_matvec(variables([3, 1, 2]), variables([1, 1]), ctx)
        assert rel_err(vals(out), [3, 4]) < 1e-12
        assert ctx.bilinear_mults == 3

    def test_identity(self):
        x = variables([9, 8, 7])
        out = toeplitz_matvec(variables([0, 0, 1, 0, 0]), x, CountContext())
        assert rel_err(vals(out), vals(x)) < 1e-12

    def test_count(self):
        rng = Lcg(14)
        for n in range(1, 17):
            ctx = CountContext()
            toeplitz_matvec(variables(rng.complex_vector(2 * n - 1)),
                            variables(rng.complex_vector(n)), ctx)
            assert ctx.bilinear_mults == 2 * n - 1

    def test_matmul(self):
        rng = Lcg(16)
        n = 2
        t = variables(rng.complex_vector(3))
        Y = [variables(rng.complex_vector(2)) for _ in range(2)]
        ctx = CountContext()
        out = toeplitz_matmul(t, Y, ctx)
        assert ctx.bilinear_mults == n * (2 * n - 1) == 6
        T = np.array([[s.value for s in row]
                      for row in densify(structured(StructureKind.TOEPLITZ, 2, vals(t)))])
        want = T @ np.array([[s.value for s in row] for row in Y])
        got = np.array([[s.value for s in row] for row in out])
        assert rel_err(got, want) < 1e-9

    def test_matmul_identity(self):
        Y = [variables([1, 2]), variables([3, 4])]
        out = toeplitz_matmul(variables([0, 1, 0]), Y, CountContext())
        got = np.array([[s.value for s in row] for row in out])
        assert rel_err(got, [[1, 2], [3, 4]]) < 1e-12


class TestHankel:
    def test_by_hand_example(self):
        ctx = CountContext()
        out = hankel_matvec(variables([1, 2, 3]), variables([1, 1]), ctx)
        assert rel_err(vals(out), [3, 5]) < 1e-12
        assert ctx.bilinear_mults == 3

    def test_anti_identity(self):
        x = variables([4, 5, 6])
        h = variables([0, 0, 1, 0, 0])
        out = hankel_matvec(h, x, CountContext())
        assert rel_err(vals(out), [6, 5, 4]) < 1e-12

    def test_count_n4(self):
        ctx = CountContext()
        rng = Lcg(18)
        hankel_matvec(variables(rng.complex_vector(7)), variables(rng.complex_vector(4)), ctx)
        assert ctx.bilinear_mults == 7


class TestTriangularToeplitz:
    def test_two_by_two_display(self):
        ctx = CountContext()
        out = triangular_toeplitz_matvec(variables([5, 7]), variables([2, 3]), ctx)
        assert rel_err(vals(out), [5 * 2 + 7 * 3, 5 * 3]) < 1e-12
        assert ctx.bilinear_mults == 3

    def test_identity(self):
        x = variables([1, 2, 3, 4])
        out = triangular_toeplitz_matvec(variables([1, 0, 0, 0]), x, CountContext())
        assert rel_err(vals(out), vals(x)) < 1e-12

    def test_by_hand_n3(self):
        out = triangular_toeplitz_matvec(variables([1, 2, 3]), variables([1, 1, 1]),
                                         CountContext())
        assert rel_err(vals(out), [6, 3, 1]) < 1e-12


class TestToeplitzPlusHankel:
    def test_count_n3(self):
        rng = Lcg(20)
        ctx = CountContext()
        tph_matvec(variables(rng.complex_vector(5)), variables(rng.complex_vector(5)),
                   variables(rng.complex_vector(3)), ctx)
        assert ctx.bilinear_mults == 8

    def test_single_entry(self):
        ctx = CountContext()
        out = tph_matvec(variables([2]), variables([3]), variables([4]), ctx)
        assert rel_err(vals(out), [20]) < 1e-10
        assert ctx.bilinear_mults == 1

    def test_matches_naive(self):
        rng = Lcg(22)
        for n in (1, 2, 3, 5, 8):
            M = random_instance(StructureKind.TOEPLITZ_PLUS_HANKEL, n, rng)
            x = variables(rng.complex_vector(n))
            ctx = CountContext()
            out = structured_matvec(M, x, ctx)
            want = vals(naive_matvec(M, x, CountContext()))
            assert rel_err(vals(out), want) < 1e-8
            assert ctx.bilinear_mults == (1 if n == 1 else 4 * n - 4)


class TestSymmetric:
    def test_count_n4(self):
        rng = Lcg(24)
        ctx = CountContext()
        symmetric_matvec(variables(rng.complex_vector(10)), variables(rng.complex_vector(4)), ctx)
        assert ctx.bilinear_mults == 10

    def test_single_entry(self):
        ctx = CountContext()
        out = symmetric_matvec(variables([3]), variables([5]), ctx)
        assert rel_err(vals(out), [15]) < 1e-12
        assert ctx.bilinear_mults == 1

    def test_matches_naive(self):
        rng = Lcg(26)
        for n in (1, 2, 3, 4, 7, 12):
            M = random_instance(StructureKind.SYMMETRIC, n, rng)
            x = variables(rng.complex_vector(n))
            out = symmetric_matvec([*M.data], x, CountContext())
            want = vals(naive_matvec(M, x, CountContext()))
            assert rel_err(vals(out), want) < 1e-8

    @pytest.mark.parametrize("count, n, message", [
        (7, 3, "symmetric of order 3 needs 6 parameters, got 7"),
        (4, 3, "symmetric of order 3 needs 6 parameters, got 4"),
        (1, 0, "order must be positive")])
    def test_matvec_checks_the_parameter_count(self, count, n, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            symmetric_matvec(variables(range(1, count + 1)), variables(range(n)),
                             CountContext())


class TestFusedMaps:
    """Each kernel map equals the chain of transform or shift steps it
    replaces, or the products it forms."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 33])
    @pytest.mark.parametrize("f", F_GRID)
    def test_toeplitz_family_maps_are_the_direct_twiddle_formulas(self, n, f):
        """Toeplitz and Hankel: every bin of the (2n-1)-point frame, t_q at
        n-1-q mod 2n-1; triangular: every bin of that frame; circulant: every
        bin of the n-point frame, c_q at -q mod n, and f-circulant that triple
        rescaled by powers of rho, circulant's own at f = 1.  Each U, V and W
        equals its formula byte for byte."""
        i, q, k = np.arange(n), np.arange(2 * n - 1), np.arange(2 * n - 1)[:, None]
        toeplitz_U, V = twiddles(2 * n - 1, k, (n - 1 - q) % (2 * n - 1)), twiddles(2 * n - 1, k, i)
        want = {
            StructureKind.TOEPLITZ: (toeplitz_U, V, V.T.conj() / (2 * n - 1)),
            StructureKind.HANKEL: (toeplitz_U, V, V.T.conj()[::-1] / (2 * n - 1)),
            StructureKind.UPPER_TRIANGULAR_TOEPLITZ: (
                twiddles(2 * n - 1, k, i), twiddles(2 * n - 1, k, n - 1 - i),
                twiddles(2 * n - 1, k, n - 1 - i).T.conj() / (2 * n - 1)),
        }
        k, pos, sigma, up = np.arange(n)[:, None], -i % n, n - 1 - i, principal_root(f, n) ** i
        U, V, W = want[StructureKind.CIRCULANT] = (
            twiddles(n, k, pos), twiddles(n, k, sigma), twiddles(n, k, sigma).T.conj() / n)
        triples = {kind: _embedding_maps(kind, n) for kind in want}
        want[f] = (U, V, W) if f == 1 else (U * up[pos], V * up[sigma], W / up[sigma, None])
        triples[f] = SPECS[StructureKind.F_CIRCULANT].maps(n, f, None)
        assert (triples[f] is triples[StructureKind.CIRCULANT]) == (f == 1)
        for key, matrices in want.items():
            for M, matrix in zip(triples[key], matrices):
                m, w = matrix.shape
                assert M.dense().shape == (m, w) and M.dense().tobytes() == matrix.tobytes()
                assert M.support.all() and M.cost == (m * w, m * (w - 1))

    @pytest.mark.parametrize("n", [*range(2, 65), 255, 256, 1000, 1024])
    def test_tph_null_directions_empty_bins_0_and_n_minus_1_stably(self, n):
        """tph's kill system, J's and C's Toeplitz symbols at bins 0 and n-1
        of the first summand, is triangular (J's symbol is N at bin 0 and 0
        elsewhere) and far from singular at every order."""
        N, pos, _, _, null = _FRAMES[StructureKind.TOEPLITZ_PLUS_HANKEL](
            n, np.arange(n), np.arange(2 * n - 1))
        G = twiddles(N, np.array([0, n - 1])[:, None], pos) @ null[:, :len(pos)].T
        assert abs(G[1, 0]) < 1e-9 * N and np.linalg.cond(G) < 2

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 7])
    def test_pairwise_maps_form_the_pairs_and_the_row_corrections(self, n):
        """Symmetric: product k of pair (i, j) is a_ij (x_i + x_j), product
        R - n + i is c_i x_i with c_i = a_ii - sum_{j != i} a_ij, and W adds
        every product of row i with sign +1."""
        U, V, W = _pairwise_maps(StructureKind.SYMMETRIC, n)
        R = n * (n + 1) // 2
        assert U.shape == (R, R) and V.shape == (R, n) and W.shape == (n, R)
        assert [M.shape[0] for (_, M), in U.bands] == [R - n, n]
        idx = {(i, j): k for k, (i, j) in enumerate(zip(*np.triu_indices(n)))}
        Ud, Vd, Wd = np.zeros((R, R)), np.zeros((R, n)), np.zeros((n, R))
        for k, (i, j) in enumerate(zip(*np.triu_indices(n, 1))):
            Ud[k, idx[i, j]] = 1
            Vd[k, [i, j]] = Wd[[i, j], k] = 1
        for i in range(n):
            Ud[R - n + i, [idx[min(i, j), max(i, j)] for j in range(n)]] = -1
            Ud[R - n + i, idx[i, i]] = 1
            Vd[R - n + i, i] = Wd[i, R - n + i] = 1
        for M, want in ((U, Ud), (V, Vd), (W, Wd)):
            assert np.array_equal(M.apply(np.eye(M.shape[1])), want)
            assert np.array_equal(M.propagate(np.eye(M.shape[1], dtype=bool)), want != 0)
        assert V.cost == (0, R - n) and W.cost == (0, 2 * (R - n))


class TestSkewSymmetric:
    def test_n3_count_and_value(self):
        ctx = CountContext()
        out = skew_symmetric_matvec(variables([1, 2, 3]), variables([1, 1, 1]), ctx)
        assert ctx.bilinear_mults == 6
        assert rel_err(vals(out), [3, 2, -5]) < 1e-9

    def test_n2(self):
        ctx = CountContext()
        out = skew_symmetric_matvec(variables([5]), variables([2, 3]), ctx)
        assert ctx.bilinear_mults == 2
        assert rel_err(vals(out), [15, -10]) < 1e-12

    def test_n1_zero_and_free(self):
        ctx = CountContext()
        out = skew_symmetric_matvec(variables([]), variables([9]), ctx)
        assert vals(out)[0] == 0
        assert ctx.bilinear_mults == 0

    def test_counts_and_values(self):
        rng = Lcg(28)
        for n in range(2, 17):
            M = random_instance(StructureKind.SKEW_SYMMETRIC, n, rng)
            x = variables(rng.complex_vector(n))
            ctx = CountContext()
            out = structured_matvec(M, x, ctx)
            assert ctx.bilinear_mults == (2 if n == 2 else n * (n + 1) // 2)
            want = vals(naive_matvec(M, x, CountContext()))
            assert rel_err(vals(out), want) < 1e-8


class TestCommutator:
    def test_by_hand(self):
        A = [variables([1, 2]), variables([3, 4])]
        X = [variables([0, 1]), variables([0, 0])]
        ctx = CountContext()
        out = commutator_2x2(A, X, ctx)
        got = np.array([[s.value for s in row] for row in out])
        assert rel_err(got, [[-3, -3], [0, 3]]) < 1e-12
        assert ctx.bilinear_mults == 6

    def test_diagonal_matrices_commute_exactly(self):
        A = [variables([2, 0]), variables([0, 5])]
        X = [variables([7, 0]), variables([0, 11])]
        out = commutator_2x2(A, X, CountContext())
        assert all(s.value == 0 for row in out for s in row)

    def test_trace_free_by_construction(self):
        rng = Lcg(30)
        for _ in range(20):
            A = [variables(rng.complex_vector(2)) for _ in range(2)]
            X = [variables(rng.complex_vector(2)) for _ in range(2)]
            out = commutator_2x2(A, X, CountContext())
            assert out[0][0].value + out[1][1].value == 0
            want = (np.array([[s.value for s in r] for r in A]) @
                    np.array([[s.value for s in r] for r in X]))
            want -= (np.array([[s.value for s in r] for r in X]) @
                     np.array([[s.value for s in r] for r in A]))
            got = np.array([[s.value for s in r] for r in out])
            assert rel_err(got, want) < 1e-10


class TestMultilevel:
    def test_bttb_count(self):
        rng = Lcg(32)
        levels = (LevelSpec(StructureKind.TOEPLITZ, 3), LevelSpec(StructureKind.TOEPLITZ, 2))
        M = structured(StructureKind.MULTILEVEL, 6, rng.complex_vector(15), levels=levels)
        ctx = CountContext()
        multilevel_matvec(M, variables(rng.complex_vector(6)), ctx)
        assert ctx.bilinear_mults == 15

    def test_scalar_by_scalar(self):
        levels = (LevelSpec(StructureKind.CIRCULANT, 1), LevelSpec(StructureKind.CIRCULANT, 1))
        M = structured(StructureKind.MULTILEVEL, 1, [3], levels=levels)
        ctx = CountContext()
        out = multilevel_matvec(M, variables([5]), ctx)
        assert rel_err(vals(out), [15]) < 1e-12
        assert ctx.bilinear_mults == 1

    def test_circulant_by_hankel_matches_naive(self):
        rng = Lcg(34)
        levels = (LevelSpec(StructureKind.CIRCULANT, 2), LevelSpec(StructureKind.HANKEL, 2))
        M = structured(StructureKind.MULTILEVEL, 4, rng.complex_vector(6), levels=levels)
        x = variables(rng.complex_vector(4))
        ctx = CountContext()
        out = multilevel_matvec(M, x, ctx)
        want = vals(naive_matvec(M, x, CountContext()))
        assert rel_err(vals(out), want) < 1e-7
        assert ctx.bilinear_mults == 2 * 3

    def test_three_levels(self):
        rng = Lcg(36)
        levels = (LevelSpec(StructureKind.TOEPLITZ, 2), LevelSpec(StructureKind.CIRCULANT, 2),
                  LevelSpec(StructureKind.SYMMETRIC, 2))
        M = structured(StructureKind.MULTILEVEL, 8, rng.complex_vector(3 * 2 * 3), levels=levels)
        x = variables(rng.complex_vector(8))
        ctx = CountContext()
        out = multilevel_matvec(M, x, ctx)
        want = vals(naive_matvec(M, x, CountContext()))
        assert ctx.bilinear_mults == 3 * 2 * 3
        assert rel_err(vals(out), want) < 1e-7

    def test_excluded_level_kinds(self):
        """Every kind may be a level; a level without parameters, an order-1
        skew-symmetric one, is refused when the matrix is built, at any
        position and as the only level, which is the structure itself."""
        empty, toeplitz = (LevelSpec(StructureKind.SKEW_SYMMETRIC, 1),
                           LevelSpec(StructureKind.TOEPLITZ, 2))
        for levels in ((toeplitz, empty), (empty, toeplitz), (empty,)):
            n = math.prod(lev.n for lev in levels)
            named = "level " if len(levels) > 1 else ""
            with pytest.raises(ValueError, match=f"^{named}skew_symmetric of order 1 has no "
                                                 "parameters$"):
                structured(StructureKind.MULTILEVEL, n, [], levels=levels)

    @pytest.mark.parametrize("outer", [StructureKind.SKEW_SYMMETRIC,
                                       StructureKind.UPPER_TRIANGULAR_TOEPLITZ,
                                       StructureKind.TOEPLITZ])
    @pytest.mark.parametrize("inner", [StructureKind.SKEW_SYMMETRIC,
                                       StructureKind.UPPER_TRIANGULAR_TOEPLITZ,
                                       StructureKind.CIRCULANT])
    @pytest.mark.parametrize("n_outer, n_inner", [(a, b) for a in (2, 3, 4) for b in (2, 3)])
    def test_formerly_excluded_level_kinds(self, outer, inner, n_outer, n_inner):
        """Skew-symmetric and triangular Toeplitz levels give the closed-form
        count and the naive product's values."""
        levels = (LevelSpec(outer, n_outer), LevelSpec(inner, n_inner))
        rng = Lcg(zlib.crc32(f"{outer.value}:{n_outer},{inner.value}:{n_inner}".encode()))
        M = random_multilevel(levels, rng)
        x = variables(rng.complex_vector(M.n))
        ctx = CountContext()
        out = structured_matvec(M, x, ctx)
        assert ctx.bilinear_mults == formula_count(StructureKind.MULTILEVEL, M.n, levels=levels)
        assert rel_err(vals(out), vals(naive_matvec(M, x, CountContext()))) < 1e-12

    @pytest.mark.parametrize("levels", [
        "toeplitz:1,hankel:5", "circulant:4,toeplitz:1", "toeplitz:3,toeplitz:3,toeplitz:3",
        "symmetric:3,tph:2", "hankel:2,circulant:3,symmetric:1,toeplitz:2",
    ])
    def test_one_pointwise_product_and_three_maps_per_level(self, monkeypatch, levels):
        """The Kronecker kernel makes one pointwise product and applies each
        level's three maps once, whatever the level orders; nothing recurses."""
        calls = dict.fromkeys(("structured_matvec", "vmul", "apply_matrix"), 0)
        for name in calls:
            def counted(*args, _real=getattr(kernels, name), _name=name):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(kernels, name, counted)
        levels = tuple(LevelSpec(StructureKind(kind), int(n))
                       for kind, n in (text.split(":") for text in levels.split(",")))
        rng = Lcg(46)
        M = random_multilevel(levels, rng)
        x = variables(rng.complex_vector(M.n))
        out = multilevel_matvec(M, x, CountContext())
        assert calls == {"structured_matvec": 1, "vmul": 1, "apply_matrix": 3 * len(levels)}
        assert rel_err(vals(out), vals(naive_matvec(M, x, CountContext()))) < 1e-7


def test_unit_disk_equivalence_invariant():
    """Fast = naive within 1e-8 on unit-disk inputs across all sizes."""
    rng = Lcg(42)
    for kind in (StructureKind.TOEPLITZ, StructureKind.SYMMETRIC,
                 StructureKind.SKEW_SYMMETRIC, StructureKind.TOEPLITZ_PLUS_HANKEL):
        for n in range(1, 17):
            for _ in range(20):
                M = structured(kind, n, rng.unit_disk_vector(param_count(kind, n)))
                x = variables(rng.unit_disk_vector(n))
                out = structured_matvec(M, x, CountContext())
                want = vals(naive_matvec(M, x, CountContext()))
                assert rel_err(vals(out), want) < 1e-8


def test_counts_are_input_independent():
    rng = Lcg(38)
    for kind in ALL_KINDS:
        n = 5
        f = 1j if kind is StructureKind.F_CIRCULANT else None
        snaps = set()
        for _ in range(3):
            M = random_instance(kind, n, rng, f=f)
            ctx = CountContext()
            structured_matvec(M, variables(rng.complex_vector(n)), ctx)
            snaps.add((ctx.bilinear_mults, ctx.divisions, ctx.scalar_mults, ctx.additions))
        assert len(snaps) == 1


def test_kernel_report_carries_formula():
    rng = Lcg(40)
    M = random_instance(StructureKind.SYMMETRIC, 6, rng)
    report = kernel_report(M, variables(rng.complex_vector(6)))
    assert report.counts.bilinear_mults == report.formula_count == 21


@pytest.mark.parametrize("kind, n, message", [
    (StructureKind.MULTILEVEL, 4, "multilevel structure needs levels"),
    ("multilevel", 4, "multilevel structure needs levels"),
    ("sparse", 3, "sparse structure needs a pattern"),
])
def test_formula_count_without_its_inputs_says_what_is_missing(kind, n, message):
    """formula_count refuses as param_count does, with the same message."""
    for count in (formula_count, param_count):
        with pytest.raises(ValueError, match=f"^{message}$"):
            count(kind, n)


@pytest.mark.parametrize("kind, n, pattern, message", [
    ("toeplitz", -3, None, "order must be positive"),
    ("toeplitz", 0, None, "order must be positive"),
    ("toeplitz", 3, SparsityPattern(3, 3, ((0, 0),)), "toeplitz takes no sparsity pattern"),
    ("sparse", 2, SparsityPattern(5, 5, ((0, 0),)),
     "pattern of shape 5x5 for a matrix of order 2"),
])
def test_formula_count_refuses_bad_orders_and_patterns(kind, n, pattern, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        formula_count(kind, n, pattern)


def test_formula_count_table():
    assert formula_count(StructureKind.CIRCULANT, 7) == 7
    assert formula_count(StructureKind.TOEPLITZ, 7) == 13
    assert formula_count(StructureKind.TOEPLITZ_PLUS_HANKEL, 7) == 24
    assert formula_count(StructureKind.SYMMETRIC, 7) == 28
    assert formula_count(StructureKind.SKEW_SYMMETRIC, 7) == 28
    assert formula_count(StructureKind.SKEW_SYMMETRIC, 1) == 0


# Sizes around the points where flag propagation in a narrow integer type
# would wrap (128 or more Variables feeding one output), and 512.
WRAP_SIZES = (63, 64, 65, 127, 128, 129, 256, 512)


@pytest.mark.parametrize("kind,n", [(kind, n) for kind in ALL_KINDS + [StructureKind.SPARSE]
                                    for n in WRAP_SIZES])
def test_count_matches_formula_at_large_n(kind, n):
    """Every single-level kind counts its closed form."""
    f = 2.0 if kind is StructureKind.F_CIRCULANT else None
    pattern = random_pattern(n, Lcg(n)) if kind is StructureKind.SPARSE else None
    M = structured(kind, n, Lcg(n).complex_vector(param_count(kind, n, pattern)), f=f,
                   pattern=pattern)
    ctx = CountContext()
    out = structured_matvec(M, variables(Lcg(n + 1).complex_vector(n)), ctx)
    assert ctx.bilinear_mults == formula_count(kind, n, pattern)
    assert all(s.is_variable for s in out)


@pytest.mark.parametrize("levels", [
    (LevelSpec(StructureKind.TOEPLITZ, 32), LevelSpec(StructureKind.TOEPLITZ, 32)),
    (LevelSpec(StructureKind.TOEPLITZ, 10), LevelSpec(StructureKind.HANKEL, 10),
     LevelSpec(StructureKind.CIRCULANT, 10)),
], ids=["toeplitz:32,toeplitz:32", "toeplitz:10,hankel:10,circulant:10"])
def test_multilevel_at_order_1000(levels):
    rng = Lcg(len(levels))
    M = random_multilevel(levels, rng)
    x = variables(rng.complex_vector(M.n))
    ctx = CountContext()
    out = structured_matvec(M, x, ctx)
    assert ctx.bilinear_mults == formula_count(StructureKind.MULTILEVEL, M.n, levels=levels)
    assert all(s.is_variable for s in out)
    assert rel_err(vals(out), vals(naive_matvec(M, x, CountContext()))) < 1e-7


def test_multilevel_count_with_wide_outer_level():
    """The outer toeplitz:65 level has 129 parameters feeding each block product."""
    rng = Lcg(44)
    levels = (LevelSpec(StructureKind.TOEPLITZ, 65), LevelSpec(StructureKind.TOEPLITZ, 2))
    M = structured(StructureKind.MULTILEVEL, 130, rng.complex_vector(129 * 3), levels=levels)
    x = variables(rng.complex_vector(130))
    ctx = CountContext()
    out = multilevel_matvec(M, x, ctx)
    assert ctx.bilinear_mults == formula_count(StructureKind.MULTILEVEL, 130, levels=levels)
    assert ctx.bilinear_mults == 129 * 3
    want = vals(naive_matvec(M, x, CountContext()))
    assert rel_err(vals(out), want) < 1e-7
