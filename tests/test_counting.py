from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bilinear_kernels import (CountContext, DivisionByZero, Kind, TrackedScalar, constant,
                              variable)
from bilinear_kernels.counting import (ConstantMap, GatherMap, TrackedVector, apply_matrix,
                                       as_vector, reciprocal, to_scalars, vmul)


def test_fresh_context_starts_at_zero():
    ctx = CountContext()
    assert (ctx.bilinear_mults, ctx.divisions, ctx.scalar_mults, ctx.additions) == (0, 0, 0, 0)


def test_counters_reject_negative_increments():
    ctx = CountContext()
    with pytest.raises(ValueError):
        ctx.count_bilinear(-1)


@pytest.mark.parametrize("counter, field", [
    ("count_bilinear", "bilinear_mults"), ("count_division", "divisions"),
    ("count_scalar", "scalar_mults"), ("count_addition", "additions")])
def test_each_counter_refuses_a_negative_increment_and_keeps_its_count(counter, field):
    ctx = CountContext()
    getattr(ctx, counter)(3)
    with pytest.raises(ValueError, match="^counter increments must be nonnegative$"):
        getattr(ctx, counter)(-1)
    assert ctx == CountContext(**{field: 3})


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=20),
       st.integers(0, 2 ** 32), st.integers(0, 2 ** 32))
def test_counting_is_value_independent(pattern, seed_a, seed_b):
    """Same kind pattern, different values: identical counter state, through
    a pointwise product and a gather map's signed sum of its entries."""
    k = len(pattern)
    flags = np.array(pattern, dtype=bool).T
    total = GatherMap((1, k), np.zeros(k), range(k), [(-1) ** i for i in range(k)])

    def run(seed):
        ctx = CountContext()
        u, v = (TrackedVector(np.arange(k) * sign + seed + 0j, f) for sign, f in zip((1, -1), flags))
        apply_matrix(total, vmul(u, v, ctx), ctx)
        return (ctx.bilinear_mults, ctx.divisions, ctx.scalar_mults, ctx.additions)

    assert run(seed_a) == run(seed_b)
    assert run(seed_a) == (sum(1 for va, vb in pattern if va and vb), 0,
                           sum(1 for va, vb in pattern if not (va and vb)), k - 1)


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
    u = as_vector([variable(2), constant(3), variable(4), constant(2)])
    v = as_vector([variable(5), variable(6), constant(7), constant(3)])
    out = vmul(u, v, ctx)
    assert ctx.bilinear_mults == 1 and ctx.scalar_mults == 3
    assert [complex(z) for z in out.values] == [10, 18, 28, 6]
    assert out.variable.tolist() == [True, True, True, False]
    a, b = complex(1.7, -2.3), complex(-0.4, 9.1)
    assert vmul(as_vector([a]), as_vector([b]), ctx).values.tolist() == [a * b]


def test_reciprocal_counts_variable_divisors_only():
    """A Variable divisor is one division, a Constant one a scalar
    multiplication, and a zero divisor is refused before anything is counted."""
    ctx = CountContext()
    a, b = complex(1.7, -2.3), complex(-0.4, 9.1)
    out = reciprocal(as_vector([variable(a), constant(2), variable(b)]), ctx)
    assert ctx == CountContext(divisions=2, scalar_mults=1)
    want = np.array([1 / a, 0.5, 1 / b])       # numpy's quotient may round differently
    assert np.all(np.abs(out.values - want) <= 4 * np.finfo(float).eps * np.abs(want))
    assert out.variable.tolist() == [True, False, True]
    for zero in ([variable(1), variable(0)], [constant(0)]):
        ctx = CountContext()
        with pytest.raises(DivisionByZero, match="^reciprocal of a zero entry$"):
            reciprocal(as_vector(zero), ctx)
        assert ctx == CountContext()


def test_reciprocal_of_a_marked_block_counts_every_entry():
    """A (2, 3) block with the all-Variable marker is six Variable
    divisors: six divisions and no scalar multiplication."""
    ctx = CountContext()
    values = np.arange(1, 7, dtype=complex).reshape(2, 3)
    out = reciprocal(TrackedVector(values, None), ctx)
    assert ctx == CountContext(divisions=6)
    assert out.flags is None and np.array_equal(out.values, 1.0 / values)


def test_reciprocal_of_a_block_charges_each_constant_entry():
    """A (2, 3) block with one Variable entry: one division, and each of
    its five Constant entries one scalar multiplication."""
    ctx = CountContext()
    flags = np.zeros((2, 3), dtype=bool)
    flags[1, 2] = True
    out = reciprocal(TrackedVector(np.arange(1, 7, dtype=complex).reshape(2, 3), flags), ctx)
    assert ctx == CountContext(divisions=1, scalar_mults=5)
    assert np.array_equal(out.flags, flags) and out.flags is not flags


def test_a_signed_term_costs_an_addition_and_no_multiplication():
    """Row 0 is a - b, row 1 is -b alone, row 2 is a + b: each term after a
    row's first is one addition, a sign is free, and the values are Python's
    own sums."""
    M = GatherMap((3, 2), [0, 0, 1, 2, 2], [0, 1, 1, 0, 1], [1, -1, -1, 1, 1])
    a, b = complex(1.7, -2.3), complex(-0.4, 9.1)
    for x in (as_vector([variable(a), constant(b)]), as_vector([constant(a), constant(b)])):
        ctx = CountContext()
        out = apply_matrix(M, x, ctx)
        assert ctx == CountContext(additions=2)
        assert out.values.tolist() == [a - b, -b, a + b]
        assert out.variable.tolist() == [x.variable[0], False, x.variable[0]]


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
    raw = as_vector([3j])
    assert raw.values.tolist() == [3j] and raw.variable.tolist() == [True]
    mixed = as_vector([variable(1), 2.0])          # raw numbers among scalars are Variables
    assert mixed.values.tolist() == [1, 2] and mixed.flags is None
    with pytest.raises(TypeError, match=r"^complex\(\) first argument must be a string or a "
                                        r"number, not 'tuple'$"):
        as_vector([variable(1), (1, 2)])


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
    from bilinear_kernels.kernels import _embedding_maps
    for maps in (_embedding_maps(StructureKind.TOEPLITZ, 5),
                 _embedding_maps(StructureKind.F_CIRCULANT, 4, 2.0),
                 _embedding_maps(StructureKind.CIRCULANT, 3)):
        assert all(M.full for M in maps)


@pytest.mark.parametrize("shape, rows, index, sign, full_reach", [
    ((3, 4), [0, 1, 2], [3, 0, 1], None, True),                  # a relabelling
    ((2, 3), [0, 0, 1, 1], [0, 1, 1, 2], [1, -1, 0, 1], True),    # two terms per row
    ((3, 4), [0, 0, 1, 2], [1, 2, 3, 0], None, True),             # ragged rows
    ((3, 4), [0, 0, 2], [1, 2, 3], [1, -1, 1], False),            # row 1 empty
    ((3, 4), [0, 0, 1], [1, 2, 3], [0, 1, 1], False),             # row 2 empty
    ((2, 3), [], [], None, False),                                # no terms at all
])
def test_gather_map_flags_equal_the_boolean_product(shape, rows, index, sign, full_reach):
    """A gather's flags are those of its structural support as a dense
    boolean matrix, whether or not a slot of its table is empty: a row
    without terms reads input 0 and is masked by the reach."""
    G = GatherMap(shape, rows, index, sign)
    assert G.full_reach is full_reach
    support = np.zeros(shape, dtype=bool)
    support[np.asarray(rows, dtype=int), np.asarray(index, dtype=int)] = True
    for flags in flag_cases(shape[1]):
        got, want = G.propagate(flags), np.dot(support, flags)
        assert got.dtype == bool and got.shape == want.shape
        assert np.array_equal(got, want)
