"""The bulk paths of a verify trial: tracked scalars built in bulk, structured()
from raw numbers, and the naive oracle's counts, each against the
per-element formulation it replaces."""

import tracemalloc

import numpy as np
import pytest

from bilinear_kernels import (CountContext, Kind, SparsityPattern, StructureKind, TrackedScalar,
                              constant, constants, naive_matvec, structured, variable,
                              variables)
from bilinear_kernels.counting import TrackedVector, as_vector, to_scalars
from bilinear_kernels.rng import Lcg
from bilinear_kernels.structures import dense_parts, default_f, naive_count, param_count

SINGLE_KINDS = [k for k in StructureKind if k not in (StructureKind.SPARSE,
                                                        StructureKind.MULTILEVEL)]


def random_pattern(n: int, rng: Lcg) -> SparsityPattern:
    entries = tuple((i, j) for i in range(n) for j in range(n) if rng.uniform(0.0, 1.0) < 0.4)
    return SparsityPattern(n, n, entries or ((0, 0),))


def random_matrix(kind, n, data, rng):
    pattern = random_pattern(n, rng) if kind is StructureKind.SPARSE else None
    count = param_count(kind, n, pattern)
    return structured(kind, n, data(count), f=default_f(kind, None), pattern=pattern)


def mixed(rng: Lcg, count: int) -> list[TrackedScalar]:
    """Variables, Constants and Constant zeros, about a third each, and some
    Variable zeros."""
    out = []
    for z in rng.complex_vector(count):
        u = rng.uniform(0.0, 1.0)
        out.append(constant(0) if u < 0.3 else constant(z) if u < 0.6
                   else variable(0) if u < 0.7 else variable(z))
    return out


def old_oracle(values, flags, x_flags):
    """The oracle's counts and output flags as its boolean sums wrote them."""
    active = flags | (values != 0)
    bilinear = active & flags & x_flags[None, :]
    per_row = active.sum(axis=1)
    counts = (int(bilinear.sum()), int((active & ~bilinear).sum()),
              int(np.maximum(per_row - 1, 0).sum()))
    return counts, (active & (flags | x_flags[None, :])).any(axis=1)


def check_oracle(A, values, flags, x):
    xvec = as_vector(x)
    ctx = CountContext()
    out = naive_matvec(A, x, ctx)
    counts, out_flags = old_oracle(values, flags, xvec.variable)
    got = (ctx.bilinear_mults, ctx.scalar_mults, ctx.additions)
    assert got == counts and all(type(c) is int for c in got)
    assert ctx.divisions == 0
    assert [s.kind is Kind.VARIABLE for s in out] == out_flags.tolist()
    assert np.array([s.value for s in out]).tobytes() == (values @ xvec.values).tobytes()
    assert naive_count((values, flags)) == int((flags | (values != 0)).sum())


@pytest.mark.parametrize("seed", range(4))
def test_the_oracle_counts_as_the_boolean_sums_did_on_grids(seed):
    rng = Lcg(seed)
    for m in range(1, 9):
        for n in range(1, 9):
            grid = [mixed(rng, n) for _ in range(m)]
            grid[rng.randint(m)] = constants([0] * n)    # an all-zero row
            values = np.array([[s.value for s in row] for row in grid])
            flags = np.array([[s.kind is Kind.VARIABLE for s in row] for row in grid])
            check_oracle(grid, values, flags, mixed(rng, n))


@pytest.mark.parametrize("kind", SINGLE_KINDS + [StructureKind.SPARSE])
def test_the_oracle_counts_as_the_boolean_sums_did_on_structured_matrices(kind):
    rng = Lcg(11)
    for n in range(1, 9):
        for data in (rng.complex_vector, lambda count: mixed(rng, count)):
            M = random_matrix(kind, n, data, rng)
            values, flags, _ = dense_parts(M)
            for x in (variables(rng.complex_vector(n)), mixed(rng, n)):
                check_oracle(M, values, flags, x)


def test_bulk_scalars_equal_the_one_by_one_constructors():
    raw = [1, 2.5, -3j, np.complex128(4 + 1j), np.float64(0.0)]
    assert variables(raw) == [variable(v) for v in raw]
    assert constants(raw) == [constant(v) for v in raw]
    assert [type(s.value) for s in variables(raw)] == [complex] * len(raw)
    vec = TrackedVector(np.array([1, 2j, 0, 3]), np.array([True, False, False, True]))
    assert to_scalars(vec) == [variable(1), constant(2j), constant(0), variable(3)]
    for bad in ("x", None, variable(1)):
        exc = _error_of(bad)
        with pytest.raises(type(exc)) as caught:
            variables([1, bad])
        assert str(caught.value) == str(exc)


def _error_of(item) -> Exception:
    try:
        complex(item)
    except Exception as exc:
        return exc
    raise AssertionError(f"{item!r} converts")


@pytest.mark.parametrize("kind", SINGLE_KINDS + [StructureKind.SPARSE])
def test_structured_from_raw_numbers_equals_structured_of_variables(kind):
    rng = Lcg(5)
    for n in range(1, 7):
        raw = random_matrix(kind, n, rng.complex_vector, Lcg(n))
        via = structured(kind, n, variables(s.value for s in raw.data), f=raw.f,
                         pattern=raw.pattern)
        assert raw == via and raw.data == via.data
        kept, converted = raw.data_vector(), as_vector(raw.data)
        assert kept.values.tobytes() == converted.values.tobytes()
        assert kept.variable.tolist() == converted.variable.tolist() == [True] * len(raw.data)
        for arr in (kept.values, kept.variable):
            with pytest.raises(ValueError):
                arr[...] = 0
        assert via.data_vector().values.tobytes() == kept.values.tobytes()


def test_structured_takes_mixed_iterator_and_array_input():
    want = structured(StructureKind.TOEPLITZ, 2, [variable(1), constant(0), variable(3j)])
    mixed_input = structured(StructureKind.TOEPLITZ, 2, [1, constant(0), 3j])
    assert mixed_input.data == want.data
    assert as_vector(mixed_input.data).values.tobytes() == \
        mixed_input.data_vector().values.tobytes()
    assert mixed_input.data_vector().variable.tolist() == [True, False, True]
    raw = structured(StructureKind.TOEPLITZ, 2, [1, 2, 3j])
    for data in (iter([1, 2, 3j]), (v for v in [1, 2, 3j]), np.array([1, 2, 3j])):
        M = structured(StructureKind.TOEPLITZ, 2, data)
        assert M.data == raw.data
        assert M.data_vector().values.tobytes() == raw.data_vector().values.tobytes()


@pytest.mark.parametrize("data", [[1, "x", 3], [1, None, 3], [variable(1), None, 3],
                                  [variable(1), [2], 3]])
def test_structured_refuses_a_non_number_as_complex_does(data):
    exc = _error_of(data[1])
    with pytest.raises(type(exc)) as caught:
        structured(StructureKind.TOEPLITZ, 2, data)
    assert str(caught.value) == str(exc)


def test_structured_sweeps_reuse_freed_data_tuples():
    """A data tuple is built at its exact size, so the next matrix of that
    size takes a freed one: repeated sweeps do not grow memory."""
    rng = Lcg(9)

    def sweep():
        for kind in SINGLE_KINDS:
            for n in range(1, 6):
                structured(kind, n, rng.complex_vector(param_count(kind, n)),
                           f=default_f(kind, None))
    tracemalloc.start()
    try:
        for _ in range(20):
            sweep()
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(400):
            sweep()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 16 * 1024
