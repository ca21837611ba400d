import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bilinear_kernels import (CountContext, DecompositionTerm, Tensor3,
                              TensorDecomposition, build_structure_tensor, certify_rank,
                              circulant_matvec, commutator_beta_tensor,
                              complex_mul_decomposition, complex_mul_tensor,
                              contract, decomposition_tensor, flattening_ranks,
                              matmul_tensor,
                              ottaviani_test, parse_decomposition,
                              serialize_decomposition, so3_tensor,
                              stability_measure, structure_tensor,
                              variables, verify_decomposition)
from bilinear_kernels import tensorlab
from bilinear_kernels.extraction import extract_decomposition
from bilinear_kernels.kernels import SPECS
from bilinear_kernels.rng import Lcg

nonzero = st.floats(min_value=0.1, max_value=5.0)


def traced_peak(fn):
    """fn's result and the peak of the memory traced while it runs."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBuilders:
    def test_complex_mul_hypermatrix(self):
        T = complex_mul_tensor()
        want = np.zeros((2, 2, 2))
        want[0, 0, 0] = 1
        want[1, 1, 0] = -1
        want[0, 1, 1] = 1
        want[1, 0, 1] = 1
        assert np.array_equal(T.entries, want)

    def test_matmul_trivial(self):
        T = matmul_tensor(1, 1, 1)
        assert T.dims == (1, 1, 1) and T.entries[0, 0, 0] == 1

    def test_matmul_strassen_size(self):
        T = matmul_tensor(2, 2, 2)
        assert T.dims == (4, 4, 4)
        assert T.entries.sum() == 8  # one 1-entry per (i,j,k)

    def test_circulant_entries_from_basis_action(self):
        T = structure_tensor("circulant", 2)
        # column j of Circ(e_i) in slot (i, j, :)
        assert np.array_equal(T.entries[0], np.eye(2))
        assert np.array_equal(T.entries[1], np.array([[0, 1], [1, 0]]))

    def test_so3_levi_civita(self):
        T = so3_tensor()
        assert T.entries[0, 1, 2] == 1 and T.entries[1, 0, 2] == -1
        assert T.entries[2, 0, 1] == 1 and T.entries[0, 0, 0] == 0
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    assert T.entries[i, j, k] == -T.entries[j, i, k]

    def test_commutator_beta_action(self):
        T = commutator_beta_tensor()
        s = np.array([2.0, 3.0, 5.0])
        t = np.array([7.0, 11.0, 13.0])
        got = contract(T, s, t)
        want = np.array([s[0] * t[1] + s[1] * t[2],
                         -s[1] * t[0] + s[2] * t[1],
                         -s[0] * t[0] - s[2] * t[2]])
        assert np.array_equal(got, want)

    def test_dispatcher(self):
        assert build_structure_tensor("complex_mul").dims == (2, 2, 2)
        assert build_structure_tensor("matmul", m=1, n=2, p=1).dims == (2, 2, 1)
        assert build_structure_tensor("toeplitz", n=3).dims == (5, 3, 3)
        with pytest.raises(ValueError):
            build_structure_tensor("nonsense", n=2)


class TestTensor3:
    @pytest.mark.parametrize("entries", [
        -np.ones((2, 2, 2), dtype=int),
        np.ones((2, 3, 4), dtype=np.float32),
        np.full((3, 2, 2), 1 - 2j, dtype=np.complex64),
        np.moveaxis(so3_tensor().entries, 0, 2),
        np.ones((4, 6, 8), dtype=complex)[::2, 1::3, ::-2],
    ], ids=["int", "float32", "complex64", "moveaxis", "strided"])
    def test_accepts_finite_entries_of_any_layout(self, entries):
        assert Tensor3(entries).dims == entries.shape

    @pytest.mark.parametrize("dtype, bad", [
        *((dtype, bad) for dtype in (complex, np.complex64, float, np.float32)
          for bad in (np.nan, np.inf, -np.inf)),
        *((dtype, bad) for dtype in (complex, np.complex64)
          for bad in (complex(0, np.nan), complex(1, np.inf), complex(1, -np.inf)))])
    def test_rejects_non_finite_entries(self, dtype, bad):
        entries = np.zeros((2, 2, 2), dtype=dtype)
        entries[1, 0, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            Tensor3(entries)

    def test_accepts_a_nested_list_and_keeps_arrays_as_given(self):
        T = Tensor3([[[1.0, 2.0]], [[3.0, 4.0]]])
        assert isinstance(T.entries, np.ndarray) and T.entries.dtype == np.float64
        assert T.dims == (2, 1, 2) and T.entries[1, 0, 0] == 3.0
        entries = np.ones((2, 2, 2), dtype=np.float32)
        assert Tensor3(entries).entries is entries

    @pytest.mark.parametrize("entries, match", [([[1.0, 2.0], [3.0, 4.0]], "3-dimensional"),
                                                ([[[1.0, float("nan")]]], "finite")],
                             ids=["2d", "nan"])
    def test_rejects_a_bad_list_with_its_own_errors(self, entries, match):
        with pytest.raises(ValueError, match=match):
            Tensor3(entries)


class TestContract:
    def test_complex_mul_action(self):
        T = complex_mul_tensor()
        got = contract(T, [1, 2], [3, 4])
        assert np.array_equal(got, np.array([1 * 3 - 2 * 4, 1 * 4 + 2 * 3]))

    def test_zero_input(self):
        T = complex_mul_tensor()
        assert np.array_equal(contract(T, [0, 0], [5, 6]), np.zeros(2))

    def test_circulant_matches_kernel(self):
        T = structure_tensor("circulant", 2)
        got = contract(T, [1, 2], [3, 4])
        want = [s.value for s in circulant_matvec(variables([1, 2]), variables([3, 4]),
                                                  CountContext())]
        assert np.abs(got - np.array(want)).max() < 1e-12
        assert np.abs(got - np.array([11, 10])).max() < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            contract(complex_mul_tensor(), [1, 2, 3], [1, 2])


class TestVerify:
    def test_gauss_three_terms(self):
        rep = verify_decomposition(complex_mul_tensor(),
                                   complex_mul_decomposition("gauss"), 1e-12)
        assert rep.passed and rep.term_count == 3

    def test_usual_four_terms(self):
        rep = verify_decomposition(complex_mul_tensor(),
                                   complex_mul_decomposition("usual"), 1e-12)
        assert rep.passed and rep.term_count == 4

    def test_cube_three_terms(self):
        rep = verify_decomposition(complex_mul_tensor(),
                                   complex_mul_decomposition("cube"), 1e-9)
        assert rep.passed and rep.term_count == 3

    def test_dims_mismatch(self):
        D = TensorDecomposition((2, 2, 1), [DecompositionTerm(1.0, np.ones(2), np.ones(2),
                                                               np.ones(1))])
        with pytest.raises(ValueError):
            verify_decomposition(complex_mul_tensor(), D, 1e-9)

    def test_failure_reports_error(self):
        D = complex_mul_decomposition("gauss")
        D.terms[0].lam = 1.5
        rep = verify_decomposition(complex_mul_tensor(), D, 1e-9)
        assert not rep.passed and rep.max_abs_error > 0.1


def reference_tensor(D):
    """The decomposition summed one rank-one term at a time."""
    out = np.zeros(D.dims, dtype=complex)
    for t in D.terms:
        out += t.lam * np.einsum("i,j,k->ijk", t.u, t.v, t.w)
    return out


def random_decomposition(rng, dims, r):
    def cvec(d):
        return rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return TensorDecomposition(dims, [
        DecompositionTerm(complex(cvec(1)[0]), cvec(dims[0]), cvec(dims[1]), cvec(dims[2]))
        for _ in range(r)])


class TestDecompositionTensor:
    @pytest.mark.parametrize("r", [0, 1, 7])
    @pytest.mark.parametrize("dims", [(1, 1, 1), (2, 3, 4), (5, 4, 4)])
    def test_matches_per_term_reference(self, r, dims):
        D = random_decomposition(np.random.default_rng(100 * r + sum(dims)), dims, r)
        got = decomposition_tensor(D)
        want = reference_tensor(D)
        assert got.shape == dims
        assert np.abs(got - want).max(initial=0.0) <= 1e-12 * max(1.0, np.abs(want).max(initial=0.0))

    def test_empty_decomposition_is_the_zero_tensor(self):
        got = decomposition_tensor(TensorDecomposition((3, 2, 2), []))
        assert got.shape == (3, 2, 2) and not got.any()

    def test_sees_terms_edited_after_construction(self):
        D = random_decomposition(np.random.default_rng(5), (2, 3, 4), 3)
        before = decomposition_tensor(D)
        D.terms[1].lam *= 2.0
        after = decomposition_tensor(D)
        assert np.abs(after - reference_tensor(D)).max() <= 1e-12 * np.abs(after).max()
        assert np.abs(after - before).max() > 1e-6

    @pytest.mark.parametrize("r", [0, 1, 7])
    def test_stability_matches_per_term_reference(self, r):
        D = random_decomposition(np.random.default_rng(r), (3, 2, 4), r)
        want = sum(abs(t.lam) * np.linalg.norm(t.u) * np.linalg.norm(t.v) * np.linalg.norm(t.w)
                   for t in D.terms)
        assert abs(stability_measure(D) - want) <= 1e-12 * max(1.0, want)


class TestFlattening:
    def test_toeplitz_n3_mode1(self):
        assert flattening_ranks(structure_tensor("toeplitz", 3))[0] == 5

    def test_zero_tensor(self):
        T = Tensor3(np.zeros((2, 3, 4), dtype=complex))
        assert flattening_ranks(T) == (0, 0, 0)

    def test_complex_mul(self):
        assert flattening_ranks(complex_mul_tensor()) == (2, 2, 2)

    @pytest.mark.parametrize("dims", [(2, 3, 4), (6, 2, 2), (3, 12, 1)])
    def test_matches_rank_of_a_random_low_rank_tensor(self, dims):
        # r = 2 generic complex terms: every unfolding has rank min(2, its row count).
        T = Tensor3(decomposition_tensor(random_decomposition(np.random.default_rng(9), dims, 2)))
        assert flattening_ranks(T) == tuple(min(2, d) for d in dims)


def complex_flattening_ranks(T, tol=1e-9):
    """flattening_ranks with every unfolding through a complex SVD: the
    reference the real-arithmetic path must agree with."""
    ranks = []
    arr = T.entries
    for mode in range(3):
        mat = np.moveaxis(arr, mode, 0).reshape(arr.shape[mode], -1)
        if mat.shape[0] < mat.shape[1]:
            mat = mat.T
        s = np.linalg.svd(mat, compute_uv=False)
        if s.size == 0 or s[0] == 0:
            ranks.append(0)
        else:
            ranks.append(int((s > tol * s[0]).sum()))
    return tuple(ranks)


SINGLE_LEVEL_KINDS = [kind for kind, s in SPECS.items() if not s.needs_pattern]

# The `tensor --kind K --n N` chains the benchmark's certify workload runs.
CERTIFY_CELLS = ([(kind, n) for kind in ("circulant", "toeplitz", "hankel") for n in (4, 8, 16, 32)]
                 + [("tph", n) for n in (4, 8, 16)]
                 + [(kind, n) for kind in ("symmetric", "skew_symmetric") for n in (4, 8, 12, 16)])


def random_real_decomposition(rng, dims, r):
    return TensorDecomposition(dims, [
        DecompositionTerm(rng.standard_normal(), *(rng.standard_normal(d) for d in dims))
        for _ in range(r)])


@pytest.fixture
def svd_dtypes(monkeypatch):
    """The dtype of every array handed to np.linalg.svd during the test."""
    seen = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        seen.append(np.asarray(a).dtype)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return seen


def disjoint_tensor(rng, d, magnitudes=(0.0, 0.0)):
    """Random complex entries on the cells (i, j, (i + j) % d), scaled by
    10**uniform(magnitudes): two indices of an entry fix the third, so no
    column of any unfolding holds two nonzeros."""
    i, j = np.indices((d, d)).reshape(2, -1)
    T = np.zeros((d, d, d), dtype=complex)
    T[i, j, (i + j) % d] = ((rng.standard_normal(i.size) + 1j * rng.standard_normal(i.size))
                            * 10.0 ** rng.uniform(*magnitudes, i.size))
    return T


class TestRealArithmeticRanks:
    """flattening_ranks takes real tensors through the real SVD; the ranks
    must equal the complex SVD's on every tensor the library builds."""

    @pytest.mark.parametrize("kind, n", [(kind.value, n) for kind in SINGLE_LEVEL_KINDS
                                         for n in range(1, 13) if SPECS[kind].params(n, None)])
    def test_single_level_kinds(self, kind, n):
        T = structure_tensor(kind, n)
        assert flattening_ranks(T) == complex_flattening_ranks(T)

    @pytest.mark.parametrize("n", range(1, 13))
    @pytest.mark.parametrize("f", [-1.0, 2.0, 1j, 0.02, 60j])
    def test_f_circulant(self, f, n):
        T = structure_tensor("f_circulant", n, f=f)
        assert flattening_ranks(T) == complex_flattening_ranks(T)

    @pytest.mark.parametrize("kind, n", CERTIFY_CELLS)
    def test_certify_cells(self, kind, n):
        T = structure_tensor(kind, n)
        assert flattening_ranks(T) == complex_flattening_ranks(T)

    @pytest.mark.parametrize("T", [complex_mul_tensor(), so3_tensor(), commutator_beta_tensor(),
                                   matmul_tensor(2, 2, 2),
                                   Tensor3(np.zeros((2, 3, 4), dtype=complex))],
                             ids=["complex_mul", "so3", "commutator_beta", "matmul222", "zero"])
    def test_named_tensors(self, T):
        assert flattening_ranks(T) == complex_flattening_ranks(T)

    @pytest.mark.parametrize("r", [1, 2, 3, 5])
    @pytest.mark.parametrize("dims", [(2, 3, 4), (6, 2, 2), (3, 12, 1), (5, 5, 5)])
    def test_random_low_rank(self, dims, r):
        # r generic terms, complex or real: every unfolding has the rank of a
        # generic matrix of its shape and rank at most r.
        rng = np.random.default_rng(10 * r + sum(dims))
        for D in (random_decomposition(rng, dims, r), random_real_decomposition(rng, dims, r)):
            T = Tensor3(decomposition_tensor(D))
            assert flattening_ranks(T) == complex_flattening_ranks(T)
            assert flattening_ranks(T) == tuple(min(r, d, np.prod(dims) // d) for d in dims)

    @pytest.mark.parametrize("T, want", [
        (structure_tensor("toeplitz", 5), []),
        (structure_tensor("f_circulant", 5, f=1j), []),
        (structure_tensor("tph", 5), [np.float64]),
        (Tensor3(decomposition_tensor(random_decomposition(np.random.default_rng(4), (3, 4, 5), 3))),
         [np.complex128] * 3),
    ], ids=["toeplitz", "f_circulant_1j", "tph", "dense_complex"])
    def test_svd_arithmetic(self, svd_dtypes, T, want):
        # Unfoldings with orthogonal rows reach no SVD; tph's mode-1 one,
        # whose cells hold two parameters, goes in real arithmetic, and each
        # unfolding of a dense complex tensor in complex arithmetic.
        flattening_ranks(T)
        assert svd_dtypes == [np.dtype(d) for d in want]


class TestOrthogonalRowLane:
    """Unfoldings whose rows have disjoint supports take their singular
    values as row norms; the ranks must equal the all-SVD reference's, also
    where a row lies just off tol."""

    @pytest.mark.parametrize("scale, drop", [(1e-12, 1), (1e-8, 0)])
    def test_tolerance_edge(self, svd_dtypes, scale, drop):
        # Every mode-1 row gets norm 1 but the first, which gets `scale`:
        # below tol = 1e-9 of the largest at 1e-12, above it at 1e-8.
        arr = disjoint_tensor(np.random.default_rng(21), 6)
        arr /= np.linalg.norm(arr.reshape(6, -1), axis=1)[:, None, None]
        arr[0] *= scale
        T = Tensor3(arr)
        ranks = flattening_ranks(T)
        assert svd_dtypes == []
        assert ranks[0] == 6 - drop
        assert ranks == complex_flattening_ranks(T)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("d", [5, 7])
    def test_random_disjoint_complex(self, svd_dtypes, d, seed):
        # Entries spread over 13 decades, so some rows fall below tol.
        T = Tensor3(disjoint_tensor(np.random.default_rng(seed), d, (-13.0, 0.0)))
        ranks = flattening_ranks(T)
        assert svd_dtypes == []
        assert ranks == complex_flattening_ranks(T)

    @pytest.mark.parametrize("kind", ["toeplitz", "symmetric", "skew_symmetric"])
    def test_large_cells(self, kind):
        T = structure_tensor(kind, 24)
        assert flattening_ranks(T) == complex_flattening_ranks(T)

    @pytest.mark.parametrize("scale", [1e-170, 1e200])
    def test_norms_out_of_float_range_go_to_the_svd(self, svd_dtypes, scale):
        # Squared row norms would underflow to 0 or overflow to inf.
        T = structure_tensor("toeplitz", 6)
        assert flattening_ranks(Tensor3(T.entries * scale)) == flattening_ranks(T) == (11, 6, 6)
        assert len(svd_dtypes) == 3

    def test_certify_symmetric_32(self):
        assert certify_rank("symmetric", 32).ranks == (528, 32, 32)

    def test_toeplitz_order_64_memory(self):
        """The nonzero scan peaks below 1 MiB traced; dense passes over the
        7.9 MiB tensor peaked at 4.5 MiB."""
        T = structure_tensor("toeplitz", 64)
        ranks, peak = traced_peak(lambda: flattening_ranks(T))
        assert ranks == (127, 64, 64)
        assert peak < 2 ** 20


def complex_verify(T, D, tol):
    """verify_decomposition with every decomposition rebuilt in complex
    arithmetic: the reference the real lane must agree with."""
    r = len(D.terms)
    d1, d2, d3 = D.dims
    lam = np.array([t.lam for t in D.terms], dtype=complex)
    U = np.array([t.u for t in D.terms], dtype=complex).reshape(r, d1)
    V = np.array([t.v for t in D.terms], dtype=complex).reshape(r, d2)
    W = np.array([t.w for t in D.terms], dtype=complex).reshape(r, d3)
    U *= lam[:, None]
    KR = (V[:, :, None] * W[:, None, :]).reshape(r, d2 * d3)
    err = float(np.abs(T.entries - (U.T @ KR).reshape(d1, d2, d3)).max(initial=0.0))
    return err, err <= tol


@pytest.fixture
def rebuild_dtypes(monkeypatch):
    """The dtype of the term rows each rebuild sums during the test."""
    seen = []
    rebuild = tensorlab._rebuild

    def spy(rows, dims):
        seen.append(rows.dtype)
        return rebuild(rows, dims)

    monkeypatch.setattr(tensorlab, "_rebuild", spy)
    return seen


class TestRealLane:
    """verify_decomposition sums a decomposition with real lam and factors
    in real arithmetic; its error must be the complex rebuild's."""

    @pytest.mark.parametrize("kind, n", CERTIFY_CELLS)
    def test_certify_cells(self, rebuild_dtypes, kind, n):
        T, D = structure_tensor(kind, n), extract_decomposition(kind, n)
        rep = verify_decomposition(T, D, 1e-8)
        assert (rep.max_abs_error, rep.passed) == complex_verify(T, D, 1e-8)
        real = kind in ("symmetric", "skew_symmetric")
        assert rebuild_dtypes == [np.dtype(np.float64 if real else np.complex128)]

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("dims, r", [((3, 4, 5), 6), ((7, 2, 3), 1), ((12, 8, 8), 20)])
    def test_random_real_decomposition(self, rebuild_dtypes, dims, r, seed):
        # Non-integer entries, so the two lanes round differently: they
        # agree to a few units in the last place of the largest entry.
        rng = np.random.default_rng(seed)
        D = random_real_decomposition(rng, dims, r)
        T = Tensor3(decomposition_tensor(random_real_decomposition(rng, dims, r))
                    + 1e-3 * rng.standard_normal(dims))
        rebuild_dtypes.clear()
        got = verify_decomposition(T, D, 1e-8).max_abs_error
        want, _ = complex_verify(T, D, 1e-8)
        scale = np.abs(T.entries).max() + sum(
            abs(t.lam) * np.abs(t.u).max() * np.abs(t.v).max() * np.abs(t.w).max()
            for t in D.terms)
        assert abs(got - want) <= 8 * np.finfo(float).eps * scale
        assert rebuild_dtypes == [np.float64]

    def test_real_terms_against_a_complex_tensor(self, rebuild_dtypes):
        rng = np.random.default_rng(7)
        D = random_real_decomposition(rng, (3, 4, 2), 5)
        T = Tensor3(decomposition_tensor(D) + 0.25j * rng.standard_normal((3, 4, 2)))
        rebuild_dtypes.clear()
        got = verify_decomposition(T, D, 1e-8).max_abs_error
        assert got == pytest.approx(complex_verify(T, D, 1e-8)[0], rel=1e-14)
        assert got >= 0.25 * np.abs(T.entries.imag).max() > 0
        assert rebuild_dtypes == [np.float64]

    @pytest.mark.parametrize("where", ["lam", "u", "w"])
    def test_a_tiny_imaginary_part_takes_the_complex_lane(self, rebuild_dtypes, where):
        D = extract_decomposition("symmetric", 4)
        term = D.terms[3]
        if where == "lam":
            term.lam = term.lam + 1e-300j
        else:
            getattr(term, where)[0] += 1e-300j
        rep = verify_decomposition(structure_tensor("symmetric", 4), D, 1e-8)
        assert rebuild_dtypes == [np.complex128]
        assert rep.passed

    def test_zero_terms(self, rebuild_dtypes):
        T = structure_tensor("skew_symmetric", 3)
        D = TensorDecomposition(T.dims, [])
        rep = verify_decomposition(T, D, 1e-8)
        assert (rep.max_abs_error, rep.term_count, rep.passed) == (1.0, 0, False)
        assert (rep.max_abs_error, rep.passed) == complex_verify(T, D, 1e-8)
        assert rebuild_dtypes == [np.float64]

    @pytest.mark.parametrize("big", [1e300, 1e300 + 1e300j])
    def test_an_overflowed_rebuild_reads_inf(self, big):
        T = complex_mul_tensor()
        D = complex_mul_decomposition("usual")
        D.terms[0].u = D.terms[0].u * big
        D.terms[0].v = D.terms[0].v * big
        with np.errstate(all="ignore"):
            rep = verify_decomposition(T, D, 1e-8)
        assert rep.max_abs_error == math.inf and not rep.passed

    def test_symmetric_order_32_memory(self):
        """The real rebuild peaks below 4 MiB traced (complex and whole:
        21.3 MiB; real and whole: 10.6 MiB; terms restacked into complex
        rows before the real copy: 7.2 MiB).  What remains is the real copy
        of the decomposition's rows, 2.4 MiB, and one block."""
        T, D = structure_tensor("symmetric", 32), extract_decomposition("symmetric", 32)
        rep, peak = traced_peak(lambda: verify_decomposition(T, D, 1e-8))
        assert rep.max_abs_error == 0 and rep.term_count == 528
        assert peak < 4 * 2 ** 20

    def test_toeplitz_order_64_memory(self):
        """One block at a time peaks below 2 MiB traced; the rebuild of the
        7.9 MiB tensor held whole peaked at 16.4 MiB."""
        T, D = structure_tensor("toeplitz", 64), extract_decomposition("toeplitz", 64)
        rep, peak = traced_peak(lambda: verify_decomposition(T, D, 1e-8))
        assert rep.passed and rep.term_count == len(D.terms)
        assert peak < 2 * 2 ** 20


@pytest.fixture
def rebuild_slices(monkeypatch):
    """The (start, stop) of every mode-2 block the rebuilds yield during the
    test."""
    seen = []
    rebuild = tensorlab._rebuild

    def spy(rows, dims):
        for j, block in rebuild(rows, dims):
            seen.append((j.start, j.stop))
            yield j, block

    monkeypatch.setattr(tensorlab, "_rebuild", spy)
    return seen


def integer_decomposition(rng, dims, r, real):
    """r terms with small integer parts, so that every sum is exact and the
    blocked and whole rebuilds agree to the last bit."""
    def vec(d):
        v = rng.integers(-2, 3, d).astype(float)
        return v if real else v + 1j * rng.integers(-2, 3, d)
    return TensorDecomposition(dims, [DecompositionTerm(vec(1)[0], *(vec(d) for d in dims))
                                      for _ in range(r)])


def rank_for_blocks(itemsize, d1, d3, per_block):
    """A term count whose rebuild in the lane of that itemsize takes
    per_block mode-2 indices a block."""
    return max(0, tensorlab._BLOCK_BYTES // (per_block * itemsize * d3) - d1)


# A tensor lane: the terms' arithmetic and the tensor's.
LANES = {"complex": (False, 1j), "real": (True, 1.0), "real_terms_complex_tensor": (True, 1j)}


class TestBlockedRebuild:
    """verify_decomposition rebuilds one block of mode-2 indices at a time;
    at every block edge its error must be the whole rebuild's
    (complex_verify), and a non-finite entry in any block must read inf."""

    @pytest.mark.parametrize("lane", LANES)
    @pytest.mark.parametrize("case", ["uneven", "d2_is_1", "d3_is_1", "one_index_a_block"])
    def test_block_edges(self, rebuild_slices, case, lane):
        real, bump = LANES[lane]
        itemsize = 8 if real else 16
        dims, r, widths = {
            "uneven": ((4, 10, 4), rank_for_blocks(itemsize, 4, 4, 3), [3, 3, 3, 1]),
            "d2_is_1": ((5, 1, 6), 7, [1]),
            "d3_is_1": ((5, 9, 1), rank_for_blocks(itemsize, 5, 1, 4), [4, 4, 1]),
            # One mode-2 index alone is over the budget.
            "one_index_a_block": ((3, 5, 4), tensorlab._BLOCK_BYTES // (itemsize * 4), [1] * 5),
        }[case]
        D = integer_decomposition(np.random.default_rng(sum(dims) + r), dims, r, real)
        exact = decomposition_tensor(D)
        rebuild_slices.clear()
        rep = verify_decomposition(Tensor3(exact), D, 1e-8)
        assert [stop - start for start, stop in rebuild_slices] == widths
        assert (rep.max_abs_error, rep.passed) == (0.0, True)
        # Errors in the first, a middle and the last block, the largest in
        # the middle one.
        T = Tensor3(exact + 0)
        d1, d2, d3 = dims
        T.entries[0, 0, 0] += bump
        T.entries[d1 // 2, d2 // 2, d3 // 2] += 3 * bump
        T.entries[-1, -1, -1] += 2 * bump
        rep = verify_decomposition(T, D, 1e-8)
        assert (rep.max_abs_error, rep.passed) == complex_verify(T, D, 1e-8) == (3.0, False)

    def test_a_real_dtype_tensor_takes_no_tensor_sized_temporary(self):
        # Real terms against float64 entries of 4 MiB: the blocks only.
        D = integer_decomposition(np.random.default_rng(5), (127, 64, 64), 3, real=True)
        T = Tensor3(decomposition_tensor(D).real)
        rep, peak = traced_peak(lambda: verify_decomposition(T, D, 1e-8))
        assert (rep.max_abs_error, rep.passed) == (0.0, True)
        assert peak < 2 ** 20

    @pytest.mark.parametrize("lane", ["real", "real_terms_complex_tensor"])
    def test_zero_terms_in_several_blocks(self, rebuild_slices, lane):
        _, bump = LANES[lane]
        rng = np.random.default_rng(3)
        dims = (64, 10, 64)
        T = Tensor3(rng.integers(-3, 4, dims) * bump)
        D = TensorDecomposition(dims, [])
        rep = verify_decomposition(T, D, 1e-8)
        assert [stop - start for start, stop in rebuild_slices] == [4, 4, 2]
        assert (rep.max_abs_error, rep.term_count, rep.passed) == (3.0, 0, False)
        assert (rep.max_abs_error, rep.passed) == complex_verify(T, D, 1e-8)

    @pytest.mark.parametrize("lane", ["complex", "real"])
    @pytest.mark.parametrize("block", [1, 3], ids=["middle", "last"])
    @pytest.mark.parametrize("bad", ["nan", "overflow"])
    def test_a_non_finite_block_reads_inf(self, rebuild_slices, bad, block, lane):
        real, _ = LANES[lane]
        itemsize = 8 if real else 16
        dims = (4, 10, 4)
        D = integer_decomposition(np.random.default_rng(11), dims,
                                  rank_for_blocks(itemsize, 4, 4, 3), real)
        T = Tensor3(decomposition_tensor(D))
        rebuild_slices.clear()
        verify_decomposition(T, D, 1e-8)
        start, stop = rebuild_slices[block]
        assert len(rebuild_slices) == 4 and stop - start in (1, 3)
        # Only mode-2 index `start` of the rebuild is not finite.
        term = D.terms[0]
        if bad == "nan":
            term.v[start] = np.nan
        else:
            term.u[:] = 1.0
            term.v[start] = 1e308
            term.w[:] = 4.0
        with np.errstate(all="ignore"):
            rep = verify_decomposition(T, D, 1e-8)
        assert rep.max_abs_error == math.inf and not rep.passed


class TestOttaviani:
    def test_skew3_matvec_is_nonsingular(self):
        rep = ottaviani_test(structure_tensor("skew_symmetric", 3))
        assert rep.nonsingular

    def test_zero_tensor_singular(self):
        rep = ottaviani_test(Tensor3(np.zeros((3, 3, 3), dtype=complex)))
        assert not rep.nonsingular

    def test_commutator_beta_nonsingular(self):
        rep = ottaviani_test(commutator_beta_tensor())
        assert rep.nonsingular

    def test_rank_at_most_four_synthetics_are_singular(self):
        rng = Lcg(99)
        for trial in range(50):
            T = np.zeros((3, 3, 3), dtype=complex)
            for _ in range(4):
                u = np.array(rng.complex_vector(3))
                v = np.array(rng.complex_vector(3))
                w = np.array(rng.complex_vector(3))
                T += np.einsum("i,j,k->ijk", u, v, w)
            rep = ottaviani_test(Tensor3(T))
            assert not rep.nonsingular, f"trial {trial}: det {rep.det_magnitude}"

    def test_wrong_dims(self):
        with pytest.raises(ValueError):
            ottaviani_test(Tensor3(np.zeros((2, 2, 2), dtype=complex)))


class TestStability:
    def test_usual_is_four(self):
        assert abs(stability_measure(complex_mul_decomposition("usual")) - 4.0) < 1e-12

    def test_gauss_value(self):
        want = 2.0 * (1.0 + np.sqrt(2.0))
        assert abs(stability_measure(complex_mul_decomposition("gauss")) - want) < 1e-12

    def test_cube_is_four(self):
        assert abs(stability_measure(complex_mul_decomposition("cube")) - 4.0) < 1e-7

    def test_single_unit_term(self):
        D = TensorDecomposition((2, 2, 2), [DecompositionTerm(
            1.0, np.array([1.0, 0]), np.array([0, 1.0]), np.array([1.0, 0]))])
        assert stability_measure(D) == 1.0

    def test_zero_factor_rejected(self):
        D = TensorDecomposition((2, 2, 2), [DecompositionTerm(
            1.0, np.zeros(2), np.array([0, 1.0]), np.array([1.0, 0]))])
        with pytest.raises(ValueError):
            stability_measure(D)

    @settings(max_examples=30, deadline=None)
    @given(nonzero, nonzero, nonzero)
    def test_invariant_under_unit_product_rescaling(self, a, b, c):
        D = complex_mul_decomposition("gauss")
        base = stability_measure(D)
        t = D.terms[0]
        scaled = TensorDecomposition(D.dims, [
            DecompositionTerm(t.lam, a * t.u, b * t.v, (1.0 / (a * b)) * t.w),
            *D.terms[1:]])
        assert abs(stability_measure(scaled) - base) < 1e-10 * base


def test_decomposition_json_roundtrip():
    D = complex_mul_decomposition("gauss")
    back = parse_decomposition(serialize_decomposition(D))
    assert back.dims == D.dims and len(back.terms) == len(D.terms)
    for a, b in zip(D.terms, back.terms):
        assert complex(a.lam) == complex(b.lam)
        assert np.array_equal(np.asarray(a.u, dtype=complex), b.u)
        assert np.array_equal(np.asarray(a.v, dtype=complex), b.v)
        assert np.array_equal(np.asarray(a.w, dtype=complex), b.w)


def test_decomposition_json_rejects_non_finite_values():
    from bilinear_kernels import SchemaError
    term = '{"lambda": %s, "u": [[1, 0]], "v": %s, "w": [[1, 0]]}'
    with pytest.raises(SchemaError, match=r"terms\[0\]\.v\[1\]: non-finite"):
        parse_decomposition('{"dims": [1, 2, 1], "terms": [%s]}'
                            % (term % ("[1, 0]", "[[1, 0], [NaN, 0]]")))
    with pytest.raises(SchemaError, match=r"terms\[0\]\.lambda: non-finite"):
        parse_decomposition('{"dims": [1, 1, 1], "terms": [%s]}'
                            % (term % ("[Infinity, 0]", "[[1, 0]]")))


def test_decomposition_json_rejects_a_factor_of_the_wrong_length():
    from bilinear_kernels import SchemaError
    term = '{"lambda": [1, 0], "u": [[1, 0]], "v": [[1, 0]], "w": [[1, 0]]}'
    with pytest.raises(SchemaError, match=r"^terms\[0\]\.v: expected 2 entries, got 1$"):
        parse_decomposition('{"dims": [1, 2, 1], "terms": [%s]}' % term)


class TestDecompositionInput:
    @pytest.mark.parametrize("bad", [0, 1, 2])
    def test_a_term_with_a_wrong_length_factor_is_refused(self, bad):
        factors = [np.ones(2), np.ones(2), np.ones(2)]
        factors[bad] = np.ones(3)
        terms = [DecompositionTerm(1.0, *[np.ones(2)] * 3), DecompositionTerm(1.0, *factors)]
        with pytest.raises(ValueError, match=r"^term 1 factor lengths do not match dims"):
            TensorDecomposition((2, 2, 2), terms)

    @pytest.mark.parametrize("shape", [(3, 6), (3, 8), (0, 6), (7,), (1, 1, 7)])
    def test_rows_not_one_plus_the_dims_wide_are_refused(self, shape):
        with pytest.raises(ValueError, match=r"^rows of shape"):
            TensorDecomposition((2, 2, 2), rows=np.zeros(shape, dtype=complex))

    def test_rows_are_kept_and_terms_are_views_of_them(self):
        rows = np.arange(14, dtype=complex).reshape(2, 7)
        D = TensorDecomposition((2, 2, 2), rows=rows)
        assert D.rows is rows and len(D.terms) == 2
        D.terms[1].w[0] = -1
        D.terms[0].lam = 9
        assert rows[1, 5] == -1 and rows[0, 0] == 9
        assert [t.lam for t in D.terms[::-1]] == [7, 9]


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_no_call_edits_the_rows(rebuild_dtypes, real):
    """Verification, the rebuilt tensor, the stability measure and the JSON
    leave the rows bit for bit as they were; the terms' lam are not 1, so a
    rebuild that scaled the rows' own U would show."""
    rng = np.random.default_rng(12)
    D = (random_real_decomposition if real else random_decomposition)(rng, (3, 4, 5), 6)
    before = D.rows.copy()
    T = Tensor3(decomposition_tensor(D) + 1e-3 * rng.standard_normal((3, 4, 5)))
    rebuild_dtypes.clear()
    first = verify_decomposition(T, D, 1e-8)
    assert verify_decomposition(T, D, 1e-8) == first and first.max_abs_error > 0
    assert rebuild_dtypes == [np.dtype(np.float64 if real else np.complex128)] * 2
    stability_measure(D)
    serialize_decomposition(D)
    assert D.rows.tobytes() == before.tobytes()


# tests/golden/decomposition_json.txt is json_golden_text(): each case's
# name on a line, then serialize_decomposition of its decomposition on the next.
JSON_CASES = {
    "usual": lambda: complex_mul_decomposition("usual"),
    "gauss": lambda: complex_mul_decomposition("gauss"),
    "cube": lambda: complex_mul_decomposition("cube"),
    "tph 3": lambda: extract_decomposition("tph", 3),
    "symmetric 3": lambda: extract_decomposition("symmetric", 3),
    "f_circulant 3 f=2": lambda: extract_decomposition("f_circulant", 3, f=2),
}


def json_golden_text() -> str:
    return "".join(f"{name}\n{serialize_decomposition(make())}\n"
                   for name, make in JSON_CASES.items())


def test_decomposition_json_matches_golden():
    golden = Path(__file__).resolve().parent / "golden" / "decomposition_json.txt"
    assert json_golden_text() == golden.read_text(encoding="utf-8")
