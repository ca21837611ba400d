"""The parameter symbol U t is formed once per matrix: later products on the
same matrix reuse it, yet charge the same counters, give the same flags and
the same bits as the first product and as a product on a fresh matrix."""

import math

import numpy as np
import pytest

from bilinear_kernels import (CountContext, LevelSpec, SparsityPattern, StructureKind,
                              StructuredMatrix, counting, kernels, param_count,
                              structured_matvec)
from bilinear_kernels.counting import Kind, TrackedScalar, TrackedVector
from bilinear_kernels.rng import Lcg

T = StructureKind
PATTERN = SparsityPattern(5, 5, ((0, 1), (0, 4), (1, 1), (2, 0), (2, 3), (3, 3), (4, 2)))
LEVEL_LISTS = {
    "toeplitz:3,hankel:4": (LevelSpec(T.TOEPLITZ, 3), LevelSpec(T.HANKEL, 4)),
    "tph:2,symmetric:3,sparse:2": (
        LevelSpec(T.TOEPLITZ_PLUS_HANKEL, 2), LevelSpec(T.SYMMETRIC, 3),
        LevelSpec(T.SPARSE, 2, pattern=SparsityPattern(2, 2, ((0, 0), (1, 0), (1, 1))))),
}
CASES = [kind.value for kind in T if kind is not T.MULTILEVEL] + list(LEVEL_LISTS)


def matrix(case: str, mixed: bool, seed: int = 17) -> StructuredMatrix:
    """A matrix of the case drawn from seed; with mixed, about a third of
    its parameters are Constant."""
    rng = Lcg(seed)
    levels = LEVEL_LISTS.get(case)
    kind = T.MULTILEVEL if levels else T(case)
    f = pattern = None
    if kind is T.MULTILEVEL:
        n = math.prod(lev.n for lev in levels)
    else:
        n = 5 if kind is T.SPARSE else 6
        pattern = PATTERN if kind is T.SPARSE else None
        f = rng.complex_uniform() + 0.5 if kind is T.F_CIRCULANT else None
    values = rng.complex_vector(param_count(kind, n, pattern, levels))
    data = tuple(TrackedScalar(v, Kind.CONSTANT if mixed and i % 3 == 1 else Kind.VARIABLE)
                 for i, v in enumerate(values))
    return StructuredMatrix(kind, n, data, f=f, pattern=pattern, levels=levels)


def product(M: StructuredMatrix, x: TrackedVector):
    ctx = CountContext()
    out = structured_matvec(M, x, ctx)
    return ((ctx.bilinear_mults, ctx.divisions, ctx.scalar_mults, ctx.additions),
            out.variable.tolist(), out.values.tobytes())


def input_vector(n: int) -> TrackedVector:
    values = np.array(Lcg(29).complex_vector(n))
    return TrackedVector(values, np.arange(n) % 4 != 2)


@pytest.mark.parametrize("mixed", [False, True], ids=["variable", "mixed"])
@pytest.mark.parametrize("case", CASES)
def test_repeated_products_equal_the_first_and_a_fresh_matrix(case, mixed):
    M = matrix(case, mixed)
    x = input_vector(M.n)
    first = product(M, x)
    assert product(M, x) == first
    assert product(M, x) == first
    assert product(matrix(case, mixed), x) == first


@pytest.mark.parametrize("case", CASES)
def test_a_warm_product_applies_only_v_and_w(monkeypatch, case):
    """The first product applies U, V and W (per level); later ones apply V
    and W alone.  Every product forms its pointwise product anew."""
    calls = dict.fromkeys(("vmul", "apply_matrix"), 0)
    for name in calls:
        def counted(*args, _real=getattr(counting, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        for module in (counting, kernels):
            monkeypatch.setattr(module, name, counted)
    M = matrix(case, mixed=True)
    levels = len(M.levels) if M.levels else 1
    x = input_vector(M.n)
    structured_matvec(M, x, CountContext())
    assert calls == {"vmul": 1, "apply_matrix": 3 * levels}
    for _ in range(2):
        calls.update(vmul=0, apply_matrix=0)
        structured_matvec(M, x, CountContext())
        assert calls == {"vmul": 1, "apply_matrix": 2 * levels}


def never(t, ctx):
    raise AssertionError("the symbol was formed twice")


@pytest.mark.parametrize("case", CASES)
def test_the_kept_symbol_is_read_only(case):
    M = matrix(case, mixed=True)
    structured_matvec(M, input_vector(M.n), CountContext())
    symbol = M.symbol(never, CountContext())
    for arr in (symbol.values, symbol.variable):
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 0
    assert M.symbol(never, CountContext()) is symbol


@pytest.mark.parametrize("case", [kind.value for kind in T if kind is not T.MULTILEVEL])
def test_a_kept_symbol_charges_what_its_parameter_map_costs(case):
    """Reading the kept symbol charges exactly the scalar multiplications and
    additions of applying U to the parameters, and holds its values and flags."""
    M = matrix(case, mixed=True)
    structured_matvec(M, input_vector(M.n), CountContext())
    U = kernels.SPECS[M.kind].maps(M.n, M.f, M.pattern)[0]
    fresh = CountContext()
    want = counting.apply_matrix(U, M.data_vector(), fresh)
    ctx = CountContext()
    symbol = M.symbol(never, ctx)
    assert ctx == fresh
    assert symbol.values.tobytes() == want.values.tobytes()
    assert np.array_equal(symbol.variable, want.variable)


def test_a_failed_first_product_keeps_no_symbol():
    M = matrix("toeplitz", mixed=False)
    with pytest.raises(ValueError):
        structured_matvec(M, input_vector(M.n + 1), CountContext())
    assert product(M, input_vector(M.n)) == product(matrix("toeplitz", mixed=False),
                                                    input_vector(M.n))
