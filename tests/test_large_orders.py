"""Counts and values of every single-level kernel at order 1000.

Each product is checked against a dense matrix built here from the
canonical parameter orders with plain numpy indexing.
"""

import numpy as np
import pytest

from bilinear_kernels import kernels
from bilinear_kernels.counting import CountContext, variable_vector
from bilinear_kernels.kernels import formula_count, structured_matvec
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
