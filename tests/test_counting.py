from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bilinear_kernels import (CountContext, DivisionByZero, Kind, TrackedScalar, add,
                              constant, div, mul, neg, sub, variable)
from bilinear_kernels.counting import (ConstantMap, GatherMap, TrackedVector, as_vector,
                                       to_scalars, vmul)


class TestMul:
    def test_variable_times_variable_counts(self):
        ctx = CountContext()
        r = mul(variable(2), variable(3), ctx)
        assert r.value == 6 and r.kind is Kind.VARIABLE
        assert ctx.bilinear_mults == 1 and ctx.scalar_mults == 0

    def test_constant_times_variable_is_scalar_mult(self):
        ctx = CountContext()
        r = mul(constant(5), variable(7), ctx)
        assert r.value == 35 and r.kind is Kind.VARIABLE
        assert ctx.bilinear_mults == 0 and ctx.scalar_mults == 1
        r = mul(variable(7), constant(5), ctx)
        assert r.kind is Kind.VARIABLE and ctx.bilinear_mults == 0

    def test_constant_times_constant(self):
        ctx = CountContext()
        r = mul(constant(2), constant(3), ctx)
        assert r.value == 6 and r.kind is Kind.CONSTANT
        assert ctx.bilinear_mults == 0 and ctx.scalar_mults == 1


class TestAddSubNeg:
    def test_add_is_free_of_multiplications(self):
        ctx = CountContext()
        r = add(variable(1), constant(2), ctx)
        assert r.value == 3 and r.kind is Kind.VARIABLE
        assert ctx.bilinear_mults == 0 and ctx.additions == 1

    def test_constant_add(self):
        ctx = CountContext()
        r = add(constant(1), constant(1), ctx)
        assert r.value == 2 and r.kind is Kind.CONSTANT

    def test_neg_counts_nothing(self):
        ctx = CountContext()
        r = neg(variable(5))
        assert r.value == -5 and r.kind is Kind.VARIABLE
        assert ctx.snapshot() == CountContext()

    def test_sub(self):
        ctx = CountContext()
        r = sub(variable(5), variable(2), ctx)
        assert r.value == 3 and ctx.additions == 1 and ctx.bilinear_mults == 0


class TestDiv:
    def test_variable_divisor_counts_division(self):
        ctx = CountContext()
        r = div(variable(6), variable(2), ctx)
        assert r.value == 3 and ctx.divisions == 1 and ctx.bilinear_mults == 0

    def test_constant_divisor_is_scalar_mult(self):
        ctx = CountContext()
        r = div(variable(6), constant(2), ctx)
        assert r.value == 3 and ctx.divisions == 0 and ctx.scalar_mults == 1

    def test_zero_divisor_raises(self):
        ctx = CountContext()
        with pytest.raises(DivisionByZero):
            div(variable(1), variable(0), ctx)

    def test_value_matches_untracked_arithmetic_exactly(self):
        ctx = CountContext()
        a, b = complex(1.7, -2.3), complex(-0.4, 9.1)
        assert mul(variable(a), variable(b), ctx).value == a * b
        assert add(variable(a), variable(b), ctx).value == a + b
        assert sub(variable(a), variable(b), ctx).value == a - b
        assert div(variable(a), variable(b), ctx).value == a / b


def test_fresh_context_starts_at_zero():
    ctx = CountContext()
    assert (ctx.bilinear_mults, ctx.divisions, ctx.scalar_mults, ctx.additions) == (0, 0, 0, 0)


def test_counters_reject_negative_increments():
    ctx = CountContext()
    with pytest.raises(ValueError):
        ctx.count_bilinear(-1)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=20),
       st.integers(0, 2 ** 32), st.integers(0, 2 ** 32))
def test_counting_is_value_independent(pattern, seed_a, seed_b):
    """Same kind pattern, different values: identical counter state."""

    def run(seed):
        ctx = CountContext()
        acc = constant(0)
        for k, (va, vb) in enumerate(pattern):
            x = variable(seed + k) if va else constant(seed + k)
            y = variable(seed - k) if vb else constant(seed - k)
            acc = add(acc, mul(x, y, ctx), ctx)
        return (ctx.bilinear_mults, ctx.divisions, ctx.scalar_mults, ctx.additions)

    assert run(seed_a) == run(seed_b)
    expected_bilinear = sum(1 for va, vb in pattern if va and vb)
    assert run(seed_a)[0] == expected_bilinear


def test_vector_roundtrip_preserves_values_and_kinds():
    xs = [variable(1 + 2j), constant(3), variable(-4j)]
    back = to_scalars(as_vector(xs))
    assert [s.value for s in back] == [s.value for s in xs]
    assert [s.kind for s in back] == [s.kind for s in xs]


def test_to_scalars_builds_ordinary_frozen_scalars():
    vec = as_vector([variable(1 + 2j), constant(3), variable(-4j), constant(0)])
    back = to_scalars(vec)
    want = [TrackedScalar(complex(v), Kind.VARIABLE if f else Kind.CONSTANT)
            for v, f in zip(vec.values, vec.variable)]
    assert back == want
    assert [type(s) for s in back] == [TrackedScalar] * 4
    assert [hash(s) for s in back] == [hash(s) for s in want]
    assert [repr(s) for s in back] == [repr(s) for s in want]
    assert to_scalars(as_vector([])) == []
    with pytest.raises(FrozenInstanceError):
        back[0].value = 5
    with pytest.raises(FrozenInstanceError):
        back[1].kind = Kind.VARIABLE


def test_vmul_counts_variable_pairs_only():
    ctx = CountContext()
    u = as_vector([variable(2), constant(3), variable(4)])
    v = as_vector([variable(5), variable(6), constant(7)])
    out = vmul(u, v, ctx)
    assert ctx.bilinear_mults == 1 and ctx.scalar_mults == 2
    assert [complex(z) for z in out.values] == [10, 18, 28]


def test_vmul_counts_every_entry_of_a_block():
    """A block's pointwise product is one product per entry, over every axis."""
    values = np.arange(1, 13, dtype=complex).reshape(3, 4)
    every = np.ones((3, 4), dtype=bool)
    for flags, bilinear, scalar in ((every, 12, 0), (~every, 0, 12)):
        ctx = CountContext()
        out = vmul(TrackedVector(values, flags), TrackedVector(values, every), ctx)
        assert (ctx.bilinear_mults, ctx.scalar_mults) == (bilinear, scalar)
        assert np.array_equal(out.values, values * values) and out.variable.all()
    mixed = np.arange(12).reshape(3, 4) % 3 == 0
    ctx = CountContext()
    vmul(TrackedVector(values, mixed), TrackedVector(values, every), ctx)
    assert (ctx.bilinear_mults, ctx.scalar_mults) == (4, 8)


def test_as_vector_converts_any_sequence_of_scalars():
    xs = [variable(1 + 2j), constant(3), variable(-4j), constant(0)]
    for given in (xs, tuple(xs), iter(xs), (s for s in xs)):
        vec = as_vector(given)
        assert vec.values.dtype == complex and vec.variable.dtype == bool
        assert vec.values.tolist() == [1 + 2j, 3, -4j, 0]
        assert vec.variable.tolist() == [True, False, True, False]
    empty = as_vector([])
    assert empty.values.shape == empty.variable.shape == (0,)
    assert (empty.values.dtype, empty.variable.dtype) == (complex, bool)
    for bad in ([variable(1), 2.0], [variable(1), (1, 2)], [3j]):
        with pytest.raises(AttributeError):
            as_vector(bad)


def flag_cases(n: int) -> list[np.ndarray]:
    """No, every and some Variable inputs, as vectors and as blocks."""
    some = np.arange(n) % 3 == 1
    block = (np.arange(3 * n).reshape(n, 3) % 5) == 2
    return [np.zeros(n, bool), np.ones(n, bool), some, block, np.zeros((n, 2), bool)]


@pytest.mark.parametrize("shape", [(5, 3), (1, 4), (4, 1), (0, 3), (3, 0)])
def test_constant_map_flags_equal_the_boolean_product(shape):
    """A full support propagates as the OR of every input; the flags equal
    those of the boolean product, for a full and for a block support."""
    m, n = shape
    block = np.zeros(shape, dtype=bool)
    block[:m // 2 + 1, :n // 2 + 1] = True
    for support in (np.ones(shape, dtype=bool), block):
        M = ConstantMap(np.ones(shape), support)
        assert M.full == bool(support.all())
        for flags in flag_cases(n):
            got, want = M.propagate(flags), np.dot(support, flags)
            assert got.dtype == bool and got.shape == want.shape
            assert np.array_equal(got, want)


def test_toeplitz_family_maps_have_full_supports():
    from bilinear_kernels import StructureKind
    from bilinear_kernels.kernels import _embedding_maps, _fcirc_maps
    for maps in (_embedding_maps(StructureKind.TOEPLITZ, 5), _fcirc_maps(4, 2.0),
                 _fcirc_maps(3, 1.0)):
        assert all(M.full for M in maps)


@pytest.mark.parametrize("shape, rows, index, sign, padded", [
    ((3, 4), [0, 1, 2], [3, 0, 1], None, False),                 # a relabelling
    ((2, 3), [0, 0, 1, 1], [0, 1, 1, 2], [1, -1, 0, 1], False),   # two terms per row
    ((3, 4), [0, 0, 1, 2], [1, 2, 3, 0], None, False),            # ragged rows
    ((3, 4), [0, 0, 2], [1, 2, 3], [1, -1, 1], True),             # row 1 empty
    ((3, 4), [0, 0, 1], [1, 2, 3], [0, 1, 1], True),              # row 2 empty
    ((2, 3), [], [], None, False),                                # no terms at all
])
def test_gather_map_flags_equal_the_boolean_product(shape, rows, index, sign, padded):
    """A gather's flags are those of its structural support as a dense
    boolean matrix, whether or not a slot of its table is empty."""
    G = GatherMap(shape, rows, index, sign)
    assert G.padded is padded
    support = np.zeros(shape, dtype=bool)
    support[np.asarray(rows, dtype=int), np.asarray(index, dtype=int)] = True
    for flags in flag_cases(shape[1]):
        got, want = G.propagate(flags), np.dot(support, flags)
        assert got.dtype == bool and got.shape == want.shape
        assert np.array_equal(got, want)
