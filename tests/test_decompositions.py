import numpy as np
import pytest

from bilinear_kernels import (CountContext, SparsityPattern, StructureKind, certify_rank,
                              complex_mul_decomposition, contract,
                              decomposition_tensor, extract_decomposition,
                              flattening_ranks, formula_count, naive_matvec,
                              stability_measure, structure_dim, structure_tensor,
                              structured, variables, verify_decomposition)
from bilinear_kernels.kernels import GAUSS_MAPS, SPECS
from bilinear_kernels.rng import Lcg
from bilinear_kernels.structures import param_count
from bilinear_kernels.tensorlab import stack_terms

EXTRACTABLE = [
    StructureKind.CIRCULANT, StructureKind.F_CIRCULANT, StructureKind.TOEPLITZ,
    StructureKind.HANKEL, StructureKind.UPPER_TRIANGULAR_TOEPLITZ,
    StructureKind.TOEPLITZ_PLUS_HANKEL, StructureKind.SYMMETRIC,
    StructureKind.SKEW_SYMMETRIC,
]


def test_circulant_order_one_is_the_unit_cube():
    D = extract_decomposition(StructureKind.CIRCULANT, 1)
    assert len(D.terms) == 1
    t = D.terms[0]
    assert abs(t.lam - 1) < 1e-12
    assert np.abs(t.u - 1).max() < 1e-12
    assert np.abs(t.v - 1).max() < 1e-12
    assert np.abs(t.w - 1).max() < 1e-12


def test_toeplitz_n2_has_three_terms_summing_to_the_tensor():
    D = extract_decomposition(StructureKind.TOEPLITZ, 2)
    assert len(D.terms) == 3
    T = structure_tensor(StructureKind.TOEPLITZ, 2)
    assert verify_decomposition(T, D, 1e-8).passed


def test_symmetric_n3_has_six_terms():
    D = extract_decomposition(StructureKind.SYMMETRIC, 3)
    assert len(D.terms) == 6
    T = structure_tensor(StructureKind.SYMMETRIC, 3)
    assert verify_decomposition(T, D, 1e-8).passed


PAIRWISE = [StructureKind.SYMMETRIC, StructureKind.SKEW_SYMMETRIC]


@pytest.mark.parametrize("kind", PAIRWISE)
@pytest.mark.parametrize("n", range(2, 11))
def test_pairwise_terms_are_exact(kind, n):
    """Every coefficient and factor entry is 0 or +-1, so the terms sum to
    the structure tensor without rounding."""
    D = extract_decomposition(kind, n)
    for F in stack_terms(D):
        assert np.isin(F, (0, 1, -1)).all()
    assert verify_decomposition(structure_tensor(kind, n), D, 1e-8).max_abs_error == 0


@pytest.mark.parametrize("kind, n, measure", [
    (StructureKind.SYMMETRIC, 4, 20.0), (StructureKind.SYMMETRIC, 8, 78.627417),
    (StructureKind.SYMMETRIC, 16, 304.0), (StructureKind.SKEW_SYMMETRIC, 4, 18.928203),
    (StructureKind.SKEW_SYMMETRIC, 8, 77.166010), (StructureKind.SKEW_SYMMETRIC, 16, 301.967734)])
def test_pairwise_stability_measure_is_pinned(kind, n, measure):
    assert stability_measure(extract_decomposition(kind, n)) == pytest.approx(measure, rel=1e-6)


@pytest.mark.parametrize("kind", EXTRACTABLE)
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_terms_equal_kernel_count_and_sum_to_structure_tensor(kind, n):
    if kind is StructureKind.SKEW_SYMMETRIC and n == 1:
        pytest.skip("order-1 skew-symmetric space is zero-dimensional")
    f = -1.0 if kind is StructureKind.F_CIRCULANT else None
    D = extract_decomposition(kind, n, f=f)
    assert len(D.terms) == formula_count(kind, n)
    T = structure_tensor(kind, n, f=f)
    rep = verify_decomposition(T, D, 1e-8)
    assert rep.passed, f"{kind} n={n}: error {rep.max_abs_error}"


def test_sparse_extraction():
    pattern = SparsityPattern(3, 3, ((0, 2), (1, 1), (2, 0), (2, 2)))
    D = extract_decomposition(StructureKind.SPARSE, 3, pattern=pattern)
    assert len(D.terms) == 4
    T = structure_tensor(StructureKind.SPARSE, 3, pattern=pattern)
    assert verify_decomposition(T, D, 1e-12).passed


@pytest.mark.parametrize("kind", EXTRACTABLE)
def test_mode1_flattening_rank_equals_structure_dim(kind):
    for n in (1, 2, 4, 6):
        if kind is StructureKind.SKEW_SYMMETRIC and n == 1:
            continue  # the order-1 skew space is zero-dimensional
        f = 2.0 if kind is StructureKind.F_CIRCULANT else None
        T = structure_tensor(kind, n, f=f)
        assert flattening_ranks(T)[0] == structure_dim(kind, n)


@pytest.mark.parametrize("kind,n", [
    (StructureKind.CIRCULANT, 6), (StructureKind.TOEPLITZ, 5),
    (StructureKind.HANKEL, 5), (StructureKind.SYMMETRIC, 6),
])
def test_exact_rank_certification_where_dim_meets_count(kind, n):
    D = extract_decomposition(kind, n)
    T = structure_tensor(kind, n)
    assert verify_decomposition(T, D, 1e-8).passed
    assert flattening_ranks(T)[0] == len(D.terms) == formula_count(kind, n)


def test_tph_exact_rank_is_certified():
    """The matrix space has dimension 4n-4 for n >= 2 (the two
    checkerboard-constant matrices lie in the intersection), and the
    kernel's 4n-4 terms meet it."""
    for n in range(2, 17):
        assert certify_rank(StructureKind.TOEPLITZ_PLUS_HANKEL, n).certified, n


def test_tph_certified_bounds():
    for n in (2, 3, 5):
        D = extract_decomposition(StructureKind.TOEPLITZ_PLUS_HANKEL, n)
        T = structure_tensor(StructureKind.TOEPLITZ_PLUS_HANKEL, n)
        assert verify_decomposition(T, D, 1e-8).passed
        lower = max(flattening_ranks(T))
        assert lower == 4 * n - 4
        assert len(D.terms) == 4 * n - 4


def test_shadow_replay_agrees_with_numeric_count():
    """Independent recount: extraction records one term per
    Variable*Variable product, and must land on the numeric tally."""
    rng = Lcg(44)
    for kind in EXTRACTABLE:
        for n in (2, 5):
            f = 1j if kind is StructureKind.F_CIRCULANT else None
            M = structured(kind, n, rng.complex_vector(param_count(kind, n)), f=f)
            ctx = CountContext()
            from bilinear_kernels import structured_matvec
            structured_matvec(M, variables(rng.complex_vector(n)), ctx)
            D = extract_decomposition(kind, n, f=f)
            assert len(D.terms) == ctx.bilinear_mults


def test_decomposition_applies_as_an_algorithm():
    """Evaluating the harvested terms reproduces the matvec itself."""
    rng = Lcg(46)
    for kind in (StructureKind.TOEPLITZ, StructureKind.SYMMETRIC,
                 StructureKind.SKEW_SYMMETRIC):
        n = 4
        D = extract_decomposition(kind, n)
        params = np.array(rng.complex_vector(param_count(kind, n)))
        x = np.array(rng.complex_vector(n))
        out = sum(t.lam * (t.u @ params) * (t.v @ x) * t.w for t in D.terms)
        M = structured(kind, n, params)
        want = np.array([s.value for s in naive_matvec(M, variables(x), CountContext())])
        assert np.abs(out - want).max() < 1e-9 * max(1.0, np.abs(want).max())


def test_contract_consistency_with_naive():
    rng = Lcg(48)
    for kind in EXTRACTABLE:
        for n in range(1, 9):
            if kind is StructureKind.SKEW_SYMMETRIC and n == 1:
                continue
            f = -1.0 if kind is StructureKind.F_CIRCULANT else None
            T = structure_tensor(kind, n, f=f)
            params = np.array(rng.complex_vector(param_count(kind, n)))
            x = np.array(rng.complex_vector(n))
            got = contract(T, params, x)
            M = structured(kind, n, params, f=f)
            want = np.array([s.value for s in naive_matvec(M, variables(x), CountContext())])
            assert np.abs(got - want).max() < 1e-9 * max(1.0, np.abs(want).max())


def test_contract_consistency_sparse():
    rng = Lcg(50)
    pattern = SparsityPattern(5, 5, tuple((i, j) for i in range(5) for j in range(5)
                                          if (i * 7 + j * 3) % 4 == 0))
    T = structure_tensor(StructureKind.SPARSE, 5, pattern=pattern)
    params = np.array(rng.complex_vector(len(pattern)))
    x = np.array(rng.complex_vector(5))
    got = contract(T, params, x)
    M = structured(StructureKind.SPARSE, 5, params, pattern=pattern)
    want = np.array([s.value for s in naive_matvec(M, variables(x), CountContext())])
    assert np.abs(got - want).max() < 1e-9 * max(1.0, np.abs(want).max())


def test_reconstruction_matches_decomposition_tensor():
    D = extract_decomposition(StructureKind.HANKEL, 3)
    T = structure_tensor(StructureKind.HANKEL, 3)
    assert np.abs(decomposition_tensor(D) - T.entries).max() < 1e-12


@pytest.mark.parametrize("kind", [StructureKind.SYMMETRIC, StructureKind.SKEW_SYMMETRIC])
def test_full_chain_at_order_24(kind):
    D = extract_decomposition(kind, 24)
    T = structure_tensor(kind, 24)
    assert len(D.terms) == formula_count(kind, 24)
    rep = verify_decomposition(T, D, 1e-8)
    assert rep.passed, f"{kind} n=24: error {rep.max_abs_error}"
    assert flattening_ranks(T)[0] == structure_dim(kind, 24)


def spec_cases():
    """Every table kind at n in {1, 2, 5, 16}: sparse on a fixed pattern,
    f-circulant at f in {-1, 2, 1j}."""
    for kind, entry in SPECS.items():
        for n in (1, 2, 5, 16):
            pattern = (SparsityPattern(n, n, tuple((i, j) for i in range(n) for j in range(n)
                                                   if (i * 7 + j * 3) % 4 == 0))
                       if entry.needs_pattern else None)
            for f in ((-1.0, 2.0, 1j) if entry.needs_f else (None,)):
                yield kind, n, f, pattern


@pytest.mark.parametrize("kind,n,f,pattern", list(spec_cases()))
def test_replay_equals_the_kernel_triple(kind, n, f, pattern):
    """Extraction reads off exactly the kernel's (U, V, W) maps: one term
    per row of U, factors equal to the maps applied to identity matrices."""
    U, V, W = SPECS[kind].maps(n, f, pattern)
    assert U.shape[0] == formula_count(kind, n, pattern)
    lam, Us, Vs, Ws = stack_terms(extract_decomposition(kind, n, f=f, pattern=pattern))
    assert np.array_equal(lam, np.ones(U.shape[0]))
    for got, want in ((Us, U.apply(np.eye(U.shape[1]))), (Vs, V.apply(np.eye(n))),
                      (Ws.T, W.apply(np.eye(W.shape[1])))):
        assert got.shape == want.shape
        assert np.abs(got - want).max(initial=0.0) <= 1e-12


@pytest.mark.parametrize("build", [structure_tensor, extract_decomposition])
@pytest.mark.parametrize("pattern", [SparsityPattern(4, 4, ((0, 3), (3, 0))),
                                     SparsityPattern(2, 2, ((0, 1), (1, 0)))])
def test_a_pattern_of_another_order_is_refused(build, pattern):
    with pytest.raises(ValueError, match=r"^pattern of shape \dx\d for a matrix of order 3$"):
        build(StructureKind.SPARSE, 3, pattern=pattern)


def test_the_certificate_reads_the_largest_flattening_rank():
    """Skew-symmetric n = 2: the mode-1 flattening stops at the dimension 1,
    but the others reach the two terms, which pins the rank."""
    c = certify_rank(StructureKind.SKEW_SYMMETRIC, 2)
    assert (c.terms, c.ranks, c.dim, c.formula, c.lower) == (2, (1, 2, 2), 1, 2, 2)
    assert c.passed and c.certified


def test_the_certificate_keeps_bounds_apart():
    c = certify_rank(StructureKind.UPPER_TRIANGULAR_TOEPLITZ, 3)
    assert (c.lower, c.terms) == (3, 5) and c.passed and not c.certified


def test_the_certificate_takes_f_minus_one_by_default():
    assert certify_rank("f_circulant", 4) == certify_rank("f_circulant", 4, f=-1.0)
    assert certify_rank("f_circulant", 4, f=2.0).certified


def test_gauss_terms_are_read_off_its_triple():
    """The rows of U and V and the columns of W, as the maps applied to
    identity blocks give them."""
    _, U, V, W = stack_terms(complex_mul_decomposition("gauss"))
    for got, M in zip((U, V, W.T), GAUSS_MAPS):
        assert np.array_equal(got, M.apply(np.eye(M.shape[1])))
