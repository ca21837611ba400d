from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bilinear_kernels import (CountContext, DivisionByZero, Kind, TrackedScalar, add,
                              constant, div, mul, neg, sub, variable)
from bilinear_kernels.counting import as_vector, to_scalars, vmul


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
