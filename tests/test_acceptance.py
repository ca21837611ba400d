"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances and runtime budgets are fixed here, not configurable.
"""

import math
import time

import numpy as np

import bilinear_kernels as bk
from bilinear_kernels import StructureKind
from bilinear_kernels.rng import Lcg
from bilinear_kernels.structures import LevelSpec, param_count

MATVEC_KINDS = (
    StructureKind.CIRCULANT, StructureKind.TOEPLITZ, StructureKind.HANKEL,
    StructureKind.UPPER_TRIANGULAR_TOEPLITZ, StructureKind.TOEPLITZ_PLUS_HANKEL,
    StructureKind.SYMMETRIC, StructureKind.SKEW_SYMMETRIC,
)
F_VALUES = (-1.0, 2.0, 1j)


def random_instance(kind, n, rng, f=None, pattern=None, levels=None):
    count = param_count(kind, n, pattern, levels)
    return bk.structured(kind, n, rng.complex_vector(count), f=f, pattern=pattern,
                         levels=levels)


def random_pattern(n, rng):
    entries = [(i, j) for i in range(n) for j in range(n)
               if rng.uniform(0.0, 1.0) < 0.45]
    if not entries:
        entries = [(0, 0)]
    return bk.SparsityPattern(n, n, tuple(entries))


def fast_count(M, x):
    ctx = bk.CountContext()
    bk.structured_matvec(M, x, ctx)
    return ctx.bilinear_mults


def rel_err(got, want):
    got = np.asarray(got)
    want = np.asarray(want)
    scale = max(float(np.abs(want).max(initial=0.0)), 1e-12)
    return float(np.abs(got - want).max(initial=0.0)) / scale


def run_pair(M, x):
    ctx = bk.CountContext()
    fast = bk.structured_matvec(M, x, ctx)
    ref = bk.naive_matvec(M, x, bk.CountContext())
    return (ctx.bilinear_mults,
            rel_err([s.value for s in fast], [s.value for s in ref]))


def elapsed_under(t0, budget, label):
    dt = time.monotonic() - t0
    assert dt < budget, f"{label} took {dt:.1f}s, budget {budget}s"
    return dt


def test_criterion_1_exact_count_table():
    t0 = time.monotonic()
    rng = Lcg(1001)
    for n in range(1, 17):
        x = bk.variables(rng.complex_vector(n))
        assert fast_count(random_instance(StructureKind.CIRCULANT, n, rng), x) == n
        for f in F_VALUES:
            M = random_instance(StructureKind.F_CIRCULANT, n, rng, f=f)
            assert fast_count(M, x) == n
        assert fast_count(random_instance(StructureKind.TOEPLITZ, n, rng), x) == 2 * n - 1
        assert fast_count(random_instance(StructureKind.HANKEL, n, rng), x) == 2 * n - 1
        assert fast_count(random_instance(StructureKind.UPPER_TRIANGULAR_TOEPLITZ, n, rng),
                          x) == 2 * n - 1
        assert fast_count(random_instance(StructureKind.TOEPLITZ_PLUS_HANKEL, n, rng),
                          x) == 4 * n - 3
        assert fast_count(random_instance(StructureKind.SYMMETRIC, n, rng),
                          x) == n * (n + 1) // 2
        if n >= 2:
            assert fast_count(random_instance(StructureKind.SKEW_SYMMETRIC, n, rng),
                              x) == (2 if n == 2 else n * (n + 1) // 2)
    for _ in range(20):
        n = 2 + rng.randint(7)
        pattern = random_pattern(n, rng)
        M = random_instance(StructureKind.SPARSE, n, rng, pattern=pattern)
        assert fast_count(M, bk.variables(rng.complex_vector(n))) == len(pattern)
    for n in range(1, 6):
        for k in range(1, 6):
            levels = (LevelSpec(StructureKind.TOEPLITZ, n), LevelSpec(StructureKind.TOEPLITZ, k))
            M = random_instance(StructureKind.MULTILEVEL, n * k, rng, levels=levels)
            x = bk.variables(rng.complex_vector(n * k))
            assert fast_count(M, x) == (2 * n - 1) * (2 * k - 1)
    for k1 in range(1, 4):
        for k2 in range(1, 4):
            for k3 in range(1, 4):
                levels = tuple(LevelSpec(StructureKind.TOEPLITZ, k) for k in (k1, k2, k3))
                order = k1 * k2 * k3
                M = random_instance(StructureKind.MULTILEVEL, order, rng, levels=levels)
                x = bk.variables(rng.complex_vector(order))
                assert fast_count(M, x) == (2 * k1 - 1) * (2 * k2 - 1) * (2 * k3 - 1)
    for n in range(1, 17):
        t = bk.variables(rng.complex_vector(2 * n - 1))
        Y = [bk.variables(rng.complex_vector(n)) for _ in range(n)]
        ctx = bk.CountContext()
        bk.toeplitz_matmul(t, Y, ctx)
        assert ctx.bilinear_mults == n * (2 * n - 1)
    ctx = bk.CountContext()
    bk.commutator_2x2([bk.variables(rng.complex_vector(2)) for _ in range(2)],
                      [bk.variables(rng.complex_vector(2)) for _ in range(2)], ctx)
    assert ctx.bilinear_mults == 6
    ctx = bk.CountContext()
    bk.gauss_complex_mul(*bk.variables(rng.complex_vector(4)), ctx)
    assert ctx.bilinear_mults == 3
    for kernel in (bk.d4_simultaneous, bk.x8_simultaneous):
        ctx = bk.CountContext()
        kernel([bk.variables(rng.complex_vector(2)) for _ in range(2)],
               [bk.variables(rng.complex_vector(2)) for _ in range(2)], ctx)
        assert ctx.bilinear_mults == 8
    for pairs in range(1, 5):
        for variant in ("f", "g"):
            A = [bk.variables(rng.complex_vector(2)) for _ in range(2)]
            B = [bk.variables(rng.complex_vector(2 * pairs)) for _ in range(2)]
            ctx = bk.CountContext()
            bk.blocked_simultaneous(A, B, variant, ctx)
            assert ctx.bilinear_mults == 8 * pairs
    dt = elapsed_under(t0, 30, "criterion 1")
    print(f"\nACCEPTANCE 1 (exact count table, n <= 16, tolerance 0): PASS [{dt:.1f}s]")


def test_criterion_2_correctness_vs_naive():
    t0 = time.monotonic()
    rng = Lcg(2002)
    trials = 200
    worst = 0.0
    for n in range(1, 17):
        variants = [(StructureKind.CIRCULANT, None)]
        variants += [(StructureKind.F_CIRCULANT, f) for f in F_VALUES]
        variants += [(k, None) for k in MATVEC_KINDS if k is not StructureKind.CIRCULANT]
        for kind, f in variants:
            for _ in range(trials):
                M = random_instance(kind, n, rng, f=f)
                x = bk.variables(rng.complex_vector(n))
                _, err = run_pair(M, x)
                worst = max(worst, err)
                assert err < 1e-8, f"{kind.value} n={n}: {err}"
    for n in range(2, 10):
        for _ in range(trials):
            pattern = random_pattern(n, rng)
            M = random_instance(StructureKind.SPARSE, n, rng, pattern=pattern)
            x = bk.variables(rng.complex_vector(n))
            count, err = run_pair(M, x)
            worst = max(worst, err)
            assert err < 1e-8 and count == len(pattern)
    # |f| outside [0.1, 10]: root-power scaling amplifies rounding, widened tolerance
    for f in (0.02, 60j):
        for n in range(1, 17):
            for _ in range(trials):
                M = random_instance(StructureKind.F_CIRCULANT, n, rng, f=f)
                x = bk.variables(rng.complex_vector(n))
                _, err = run_pair(M, x)
                assert err < 1e-7, f"f={f} n={n}: {err}"
    worst_ml = 0.0
    for n in range(1, 6):
        for k in range(1, 6):
            levels = (LevelSpec(StructureKind.TOEPLITZ, n), LevelSpec(StructureKind.TOEPLITZ, k))
            for _ in range(trials):
                M = random_instance(StructureKind.MULTILEVEL, n * k, rng, levels=levels)
                x = bk.variables(rng.complex_vector(n * k))
                _, err = run_pair(M, x)
                worst_ml = max(worst_ml, err)
                assert err < 1e-7, f"bttb {n}x{k}: {err}"
    for k1 in range(1, 4):
        for k2 in range(1, 4):
            for k3 in range(1, 4):
                levels = tuple(LevelSpec(StructureKind.TOEPLITZ, k) for k in (k1, k2, k3))
                order = k1 * k2 * k3
                for _ in range(trials):
                    M = random_instance(StructureKind.MULTILEVEL, order, rng, levels=levels)
                    x = bk.variables(rng.complex_vector(order))
                    _, err = run_pair(M, x)
                    worst_ml = max(worst_ml, err)
                    assert err < 1e-7, f"3-level {k1}x{k2}x{k3}: {err}"
    dt = elapsed_under(t0, 60, "criterion 2")
    print(f"\nACCEPTANCE 2 (200 trials/size vs naive, 1e-8 / 1e-7 multilevel): PASS "
          f"[worst {worst:.2e}, multilevel {worst_ml:.2e}, {dt:.1f}s]")


def test_criterion_3_rank_certification():
    t0 = time.monotonic()
    certified = []
    for kind in (StructureKind.CIRCULANT, StructureKind.TOEPLITZ, StructureKind.HANKEL,
                 StructureKind.TOEPLITZ_PLUS_HANKEL, StructureKind.SYMMETRIC):
        for n in range(1, 9):
            D = bk.extract_decomposition(kind, n)
            formula = bk.formula_count(kind, n)
            assert len(D.terms) == formula
            T = bk.structure_tensor(kind, n)
            rep = bk.verify_decomposition(T, D, 1e-8)
            assert rep.passed, f"{kind.value} n={n}: error {rep.max_abs_error}"
            ranks = bk.flattening_ranks(T)
            dim = bk.structure_dim(kind, n)
            assert ranks[0] == dim, f"{kind.value} n={n}: rank {ranks[0]} != dim {dim}"
            if dim == formula:
                certified.append((kind.value, n, formula))
            else:
                # tph for n >= 2: the matrix space has dimension 4n-4, one
                # less than the term count, so only the bounds are certified.
                assert kind is StructureKind.TOEPLITZ_PLUS_HANKEL and n >= 2
                assert dim == 4 * n - 4 and formula == 4 * n - 3
    assert len(certified) == 8 * 4 + 1  # four exact kinds at n = 1..8, tph at n = 1
    dt = elapsed_under(t0, 30, "criterion 3")
    print(f"\nACCEPTANCE 3 (decomposition terms = formula, verified at 1e-8, "
          f"flattening rank = structure dim, n <= 8): PASS [{dt:.1f}s]")


def test_criterion_4_border_rank_lower_bounds():
    t0 = time.monotonic()
    rep = bk.ottaviani_test(bk.structure_tensor(StructureKind.SKEW_SYMMETRIC, 3))
    assert rep.nonsingular
    rep = bk.ottaviani_test(bk.commutator_beta_tensor())
    assert rep.nonsingular
    rng = Lcg(4004)
    for _ in range(50):
        T = np.zeros((3, 3, 3), dtype=complex)
        for _ in range(4):
            T += np.einsum("i,j,k->ijk", np.array(rng.complex_vector(3)),
                           np.array(rng.complex_vector(3)), np.array(rng.complex_vector(3)))
        assert not bk.ottaviani_test(bk.Tensor3(T)).nonsingular
    dt = elapsed_under(t0, 5, "criterion 4")
    print(f"\nACCEPTANCE 4 (border rank >= 5 for skew-3 matvec and commutator form; "
          f"rank<=4 synthetics singular x50): PASS [{dt:.1f}s]")


def test_criterion_5_stability_values():
    t0 = time.monotonic()
    usual = bk.stability_measure(bk.complex_mul_decomposition("usual"))
    assert abs(usual - 4.0) <= 1e-9
    gauss = bk.stability_measure(bk.complex_mul_decomposition("gauss"))
    assert abs(gauss - 2.0 * (1.0 + math.sqrt(2.0))) <= 1e-9
    cube = bk.complex_mul_decomposition("cube")
    rep = bk.verify_decomposition(bk.complex_mul_tensor(), cube, 1e-9)
    assert rep.passed
    assert abs(bk.stability_measure(cube) - 4.0) <= 1e-7
    dt = elapsed_under(t0, 1, "criterion 5")
    print(f"\nACCEPTANCE 5 (stability: usual 4, gauss 2(1+sqrt2), cube verifies "
          f"with measure 4): PASS [{dt:.1f}s]")


def test_criterion_6_inverses():
    t0 = time.monotonic()
    rng = Lcg(6006)
    for trial in range(50):
        n = 1 + trial % 16
        c = [complex(3 * n, 0), *rng.complex_vector(n - 1)]
        ctx = bk.CountContext()
        inv = bk.circulant_inverse(bk.variables(c), ctx)
        assert ctx.divisions == n and ctx.bilinear_mults == 0
        A = np.array([[c[(i - j) % n] for j in range(n)] for i in range(n)])
        B = np.array([[inv[(i - j) % n].value for j in range(n)] for i in range(n)])
        assert np.abs(A @ B - np.eye(n)).max() < 1e-8
        f = F_VALUES[trial % 3]
        ctx = bk.CountContext()
        finv = bk.f_circulant_inverse(bk.variables(c), f, ctx)
        assert ctx.divisions == n and ctx.bilinear_mults == 0
        M = bk.structured(StructureKind.F_CIRCULANT, n, c, f=f)
        Minv = bk.structured(StructureKind.F_CIRCULANT, n, [s.value for s in finv], f=f)
        dA = np.array([[s.value for s in row] for row in bk.densify(M)])
        dB = np.array([[s.value for s in row] for row in bk.densify(Minv)])
        assert np.abs(dA @ dB - np.eye(n)).max() < 1e-8
    dt = elapsed_under(t0, 5, "criterion 6")
    print(f"\nACCEPTANCE 6 (inverses: n divisions, 0 bilinear mults, product is "
          f"identity at 1e-8, 50 instances): PASS [{dt:.1f}s]")


def test_criterion_7_group_module():
    t0 = time.monotonic()
    D4 = bk.dihedral8()
    triple = ((4, 0), (6, 0), (7, 0))
    assert bk.tpp_check(D4, *triple)
    assert bk.tpp_check(bk.cyclic_group(4), (0,), (0, 1, 2, 3), (0,))
    C2 = bk.cyclic_group(2)
    assert not bk.tpp_check(C2, (0, 1), (0, 1), (0, 1))
    rng = Lcg(7007)
    flip = np.array([[0, 1], [1, 0]])
    for _ in range(100):
        a = np.array(rng.complex_vector(4)).reshape(2, 2)
        b = np.array(rng.complex_vector(4)).reshape(2, 2)
        A = [bk.variables(a[i]) for i in range(2)]
        B = [bk.variables(b[i]) for i in range(2)]
        scale = max(1.0, float(np.abs(a @ b).max()))
        got = bk.cu_matmul(D4, *triple, A, B, bk.CountContext())
        assert np.abs(np.array([[s.value for s in r] for r in got]) - a @ b).max() \
            < 1e-9 * scale
        ctx = bk.CountContext()
        m1, m2 = bk.d4_simultaneous(A, B, ctx)
        assert ctx.bilinear_mults == 8
        assert np.abs(np.array([[s.value for s in r] for r in m1]) - a @ b).max() \
            < 1e-9 * scale
        assert np.abs(np.array([[s.value for s in r] for r in m2]) - a @ (flip @ b)).max() \
            < 1e-9 * scale
        ctx = bk.CountContext()
        m1, m2 = bk.x8_simultaneous(A, B, ctx)
        assert ctx.bilinear_mults == 8
        bg = np.array([[b[1, 1], b[1, 0]], [b[0, 0], b[0, 1]]])
        assert np.abs(np.array([[s.value for s in r] for r in m1]) - a @ b).max() \
            < 1e-9 * scale
        assert np.abs(np.array([[s.value for s in r] for r in m2]) - a @ bg).max() \
            < 1e-9 * scale
    dt = elapsed_under(t0, 10, "criterion 7")
    print(f"\nACCEPTANCE 7 (tpp presets, cu_matmul and both simultaneous kernels vs "
          f"dense, 100 trials at 1e-9): PASS [{dt:.1f}s]")


def test_criterion_8_out_of_reach_results_are_absent():
    """Open problems stay open: no rank-5 kernel for the 3x3 skew matvec or
    the 2x2 commutator, and no asymptotic matmul-exponent machinery."""
    names = [n.lower() for n in dir(bk)]
    assert not any("rank5" in n or "rank_5" in n for n in names)
    assert not any("exponent" in n or "omega" == n for n in names)
    ctx = bk.CountContext()
    bk.skew_symmetric_matvec(bk.variables([1, 2, 3]), bk.variables([1, 1, 1]), ctx)
    assert ctx.bilinear_mults == 6  # the implemented upper bound, not 5
    ctx = bk.CountContext()
    bk.commutator_2x2([bk.variables([1, 2]), bk.variables([3, 4])],
                      [bk.variables([5, 6]), bk.variables([7, 8])], ctx)
    assert ctx.bilinear_mults == 6
    print("\nACCEPTANCE 8 (rank-5 skew/commutator algorithms and the matmul exponent "
          "are declared out of reach and absent): PASS")
