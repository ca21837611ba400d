"""The structure table: every entry's placement, dimension and count agree."""

import numpy as np
import pytest

from bilinear_kernels import (CountContext, SparsityPattern, StructureKind,
                              flattening_ranks, structure_tensor, structured)
from bilinear_kernels.counting import triple_product, variable_vector
from bilinear_kernels.kernels import SPECS
from bilinear_kernels.structures import LevelSpec, _placement, dense_parts


def level_inputs(spec, n):
    f = 2.0 if spec.needs_f else None
    pattern = (SparsityPattern(n, n, tuple((i, (3 * i + 1) % n) for i in range(n)))
               if spec.needs_pattern else None)
    return f, pattern


def test_table_is_in_enum_order_with_multilevel_the_one_composite():
    assert list(SPECS) == [k for k in StructureKind if k is not StructureKind.MULTILEVEL]


@pytest.mark.parametrize("kind", list(SPECS))
@pytest.mark.parametrize("n", range(1, 7))
def test_table_entry_agrees_with_itself(kind, n):
    spec = SPECS[kind]
    f, pattern = level_inputs(spec, n)
    P = spec.params(n, pattern)
    param, cell, coeff = spec.placement(n, f, pattern)
    for arr in (param, cell, coeff):
        with pytest.raises(ValueError):
            arr[:1] = 0
    assert np.all(coeff != 0) and np.all((0 <= cell) & (cell < n * n))
    assert np.array_equal(np.unique(param), np.arange(P))  # every parameter reaches a cell

    if P:
        T = structure_tensor(kind, n, f=f, pattern=pattern)
        assert flattening_ranks(T)[0] == spec.dim(n, pattern)

    rng = np.random.default_rng(n)
    ctx = CountContext()
    triple_product(spec.maps(n, f, pattern), variable_vector(rng.standard_normal(P) + 1j),
                   variable_vector(rng.standard_normal(n) - 1j), ctx)
    assert ctx.bilinear_mults == spec.count(n, pattern)
    counters = (ctx.bilinear_mults, ctx.divisions, ctx.scalar_mults, ctx.additions)
    assert all(type(c) is int for c in counters)  # JSON-serializable, never numpy ints


def test_symmetric_placement_holds_one_entry_per_cell():
    n = 64
    M = structured(StructureKind.SYMMETRIC, n, np.arange(n * (n + 1) // 2) + 1.0)
    dense_parts(M)
    param, cell, coeff, structural = _placement((LevelSpec(StructureKind.SYMMETRIC, n),))[:4]
    assert param.size == cell.size == coeff.size == n * n
    assert structural.all()
