"""Counts and values of every single-level kernel at large orders.

Each product at order 1000 is checked against a dense matrix built here
from the canonical parameter orders with plain numpy indexing; the counters
at orders 64, 256 and 512 against the maps' own costs, for both input
forms.
"""

import numpy as np
import pytest

from bilinear_kernels import kernels
from bilinear_kernels.counting import CountContext, variable_vector, variables
from bilinear_kernels.kernels import formula_count, level_decomposition, structured_matvec
from bilinear_kernels.structures import SparsityPattern, StructureKind, param_count, structured

N = 1000
F = 2.0 - 0.5j


def dense(kind: StructureKind, n: int, p: np.ndarray, pattern) -> np.ndarray:
    i, j = np.indices((n, n))
    if kind is StructureKind.CIRCULANT:
        return p[(i - j) % n]
    if kind is StructureKind.F_CIRCULANT:
        return p[(i - j) % n] * np.where(i > j, F, 1.0)
    if kind is StructureKind.TOEPLITZ:
        return p[j - i + n - 1]
    if kind is StructureKind.HANKEL:
        return p[i + j]
    if kind is StructureKind.UPPER_TRIANGULAR_TOEPLITZ:
        return np.where(j >= i, p[np.abs(j - i)], 0)
    if kind is StructureKind.TOEPLITZ_PLUS_HANKEL:
        return p[j - i + n - 1] + p[2 * n - 1 + i + j]
    A = np.zeros((n, n), dtype=complex)
    if kind is StructureKind.SPARSE:
        rows, cols = np.array(pattern.entries).T
        A[rows, cols] = p
        return A
    strict = kind is StructureKind.SKEW_SYMMETRIC
    rows, cols = np.triu_indices(n, 1 if strict else 0)
    A[cols, rows] = -p if strict else p
    A[rows, cols] = p
    return A


@pytest.mark.parametrize("kind", list(kernels.SPECS), ids=lambda kind: kind.value)
def test_count_and_values_at_a_large_order(kind):
    n = N
    rng = np.random.default_rng(1000 + list(kernels.SPECS).index(kind))
    pattern = None
    if kind is StructureKind.SPARSE:
        rows, cols = np.divmod(np.unique(rng.integers(0, n * n, size=3 * n)), n)
        pattern = SparsityPattern(n, n, tuple(zip(rows.tolist(), cols.tolist())))
    f = F if kind is StructureKind.F_CIRCULANT else None
    P = param_count(kind, n, pattern)
    p = rng.standard_normal(P) + 1j * rng.standard_normal(P)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    ctx = CountContext()
    out = structured_matvec(structured(kind, n, p, f=f, pattern=pattern), variable_vector(x),
                            ctx)
    assert ctx.bilinear_mults == formula_count(kind, n, pattern)
    want = dense(kind, n, p, pattern) @ x
    assert np.abs(out.values - want).max() <= 1e-8 * np.abs(want).max()


@pytest.mark.parametrize("n", [64, 256, 512])
@pytest.mark.parametrize("kind", list(kernels.SPECS), ids=lambda kind: kind.value)
def test_counts_at_large_orders_are_the_maps_costs_for_either_input(kind, n):
    """The bilinear count is the formula, and the scalar multiplications and
    additions are the U, V and W costs summed (the symbol's charge on a
    later call included), whether x is a list of scalars or a vector."""
    rng = np.random.default_rng(n + list(kernels.SPECS).index(kind))
    pattern = None
    if kind is StructureKind.SPARSE:
        rows, cols = np.divmod(np.unique(rng.integers(0, n * n, size=3 * n)), n)
        pattern = SparsityPattern(n, n, tuple(zip(rows.tolist(), cols.tolist())))
    f = 2.0 if kind is StructureKind.F_CIRCULANT else None
    P = param_count(kind, n, pattern)
    M = structured(kind, n, rng.standard_normal(P) + 1j * rng.standard_normal(P), f=f,
                   pattern=pattern)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    counters = []
    for operand in (variables(x), variable_vector(x)):
        ctx = CountContext()
        structured_matvec(M, operand, ctx)
        counters.append(ctx)
    (U, V, W), = M.level_triples(level_decomposition)
    scalars, additions = (sum(costs) for costs in zip(U.cost, V.cost, W.cost))
    want = CountContext(bilinear_mults=formula_count(kind, n, pattern), scalar_mults=scalars,
                        additions=additions)
    assert counters == [want, want]
