"""Decomposition extraction: the recorder's pointwise product, the guards
of reading terms off a triple, its memory, its factors against a
replay over wide linear-form rows, and the maps' dense forms against a
replay over unit blocks.

In the lane a parameter-side row holds P = 2 parameter coordinates and an
input-side row n = 2 input coordinates.
"""

import tracemalloc

import numpy as np
import pytest

from bilinear_kernels import counting, extraction, groups, kernels
from bilinear_kernels.counting import MAP_STORE, ConstantMap, TrackedVector
from bilinear_kernels.extraction import _Recorder, extract_decomposition
from bilinear_kernels.kernels import SPECS
from bilinear_kernels.rng import Lcg
from bilinear_kernels.structures import SparsityPattern, StructureKind, spec
from bilinear_kernels.tensorlab import stack_terms

P0, P1 = [1, 0], [0, 1]       # parameters 0 and 1
X0, X1 = [1, 0], [0, 1]       # inputs 0 and 1
ZERO = [0, 0]


def pointwise(u_rows, v_rows, u_var, v_var) -> _Recorder:
    rec = _Recorder()
    u = TrackedVector(np.array(u_rows, dtype=complex), np.array(u_var))
    v = TrackedVector(np.array(v_rows, dtype=complex), np.array(v_var))
    rec.pointwise(u, v, u.variable & v.variable)
    return rec


@pytest.mark.parametrize("u_row, v_row, u_var, v_var", [
    (P0, [3, 0], True, False),
    ([3, 1], X0, False, True),
    ([3, 0], [0, 2], False, False),
])
def test_refuses_a_constant_operand_with_other_coordinates(u_row, v_row, u_var, v_var):
    """A Constant has no coordinates in this lane: an entry that is not
    Variable*Variable needs a zero row on one side."""
    with pytest.raises(ValueError, match=r"^product entry 0 is not Variable\*Variable but "
                                         "has two nonzero rows$"):
        pointwise([u_row], [v_row], [u_var], [v_var])


def test_first_refused_entry_decides_the_message():
    with pytest.raises(ValueError, match="product entry 2 "):
        pointwise([P0, ZERO, P1, [1, 1]], [X0, X1, X1, X0],
                  [True, False, False, True], [True, True, True, False])


def test_products_and_constant_scalings():
    """Products keep their factor rows in entry order; a Constant operand is
    zero here, and its entry records nothing."""
    rec = pointwise([X1, ZERO, [2, 1], ZERO, P1], [P0, X0, ZERO, ZERO, X1],
                    [True, False, True, False, True], [True, True, False, False, True])
    assert np.array_equal(rec.U, [X1, P1]) and np.array_equal(rec.V, [P0, X1])


def test_small_residues_count_as_zero():
    rec = pointwise([[1, 1e-13], [1e-13, 0]], [X0, [1e-13, 2]], [True, False], [True, True])
    assert np.array_equal(rec.U, [[1, 1e-13]]) and np.array_equal(rec.V, [X0])


def fake_spec(monkeypatch, U: ConstantMap):
    """Circulant of order 2 with its U map replaced."""
    entry = spec(StructureKind.CIRCULANT)
    identity = ConstantMap(np.eye(2))
    monkeypatch.setattr(extraction, "spec", lambda kind: type(entry)(
        entry.params, entry.count, entry.dim, entry.placement,
        lambda n, f, pattern: (U, identity, identity)))


def test_a_support_that_drops_a_coefficient_is_refused(monkeypatch):
    """A U row whose structural support is empty but whose coefficients are
    not makes a Constant operand with coordinates."""
    fake_spec(monkeypatch, ConstantMap(np.eye(2), np.array([[True, False], [False, False]])))
    with pytest.raises(ValueError, match="product entry 1 "):
        extract_decomposition(StructureKind.CIRCULANT, 2)


def test_a_product_not_formed_diverges_from_the_row_count(monkeypatch):
    fake_spec(monkeypatch, ConstantMap(np.diag([1.0, 0.0])))
    with pytest.raises(AssertionError, match="diverged from the kernel's product count"):
        extract_decomposition(StructureKind.CIRCULANT, 2)


def test_skew_symmetric_order_32_stays_narrow():
    """Extraction's peak stays below 60 MiB (wide linear-form rows took 87)."""
    spec(StructureKind.SKEW_SYMMETRIC).maps(32, None, None)
    tracemalloc.start()
    try:
        D = extract_decomposition(StructureKind.SKEW_SYMMETRIC, 32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(D.terms) == 528
    assert peak < 60 * 2 ** 20


def test_skew_symmetric_order_32_reads_dense_forms():
    """Extraction's peak stays below 16 MiB: the factors come from the maps'
    dense forms (a replay on unit blocks took 21.3 MiB)."""
    spec(StructureKind.SKEW_SYMMETRIC).maps(32, None, None)
    tracemalloc.start()
    try:
        extract_decomposition(StructureKind.SKEW_SYMMETRIC, 32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


class WideRecorder:
    """The replay's former lane, reduced to its recording step: one row per
    entry over [parameters | inputs | constant | products]."""

    def __init__(self, P: int, n: int, r: int):
        self.P, self.c, self.width = P, P + n, P + n + 1 + r
        self.U, self.V = [], []

    def pointwise(self, u: TrackedVector, v: TrackedVector, both: np.ndarray) -> TrackedVector:
        c = self.c
        out = np.zeros((len(u), self.width), dtype=complex)
        for i in range(len(u)):
            if both[i]:
                self.U.append(u.values[i, :self.P])
                self.V.append(v.values[i, self.P:c])
                out[i, c + len(self.U)] = 1.0
            elif u.variable[i] or v.variable[i]:
                var, const = (u, v) if u.variable[i] else (v, u)
                out[i] = const.values[i, c] * var.values[i]
            else:
                out[i, c] = u.values[i, c] * v.values[i, c]
        return TrackedVector(out, u.variable | v.variable)


def wide_factors(kind, n, f, pattern):
    """The kind's triple applied to the wide rows: U to the parameter rows,
    V to the input rows, the wide recorder's product, then W."""
    entry = SPECS[kind]
    P, r = entry.params(n, pattern), entry.count(n, pattern)
    rec = WideRecorder(P, n, r)
    rows = np.eye(P + n, rec.width, dtype=complex)
    U, V, W = entry.maps(n, f, pattern)
    u = TrackedVector(U.apply(rows[:P]), U.propagate(np.ones(P, dtype=bool)))
    v = TrackedVector(V.apply(rows[P:]), V.propagate(np.ones(n, dtype=bool)))
    out = W.apply(rec.pointwise(u, v, u.variable & v.variable).values)
    return (np.array(rec.U).reshape(r, P), np.array(rec.V).reshape(r, n),
            out[:, rec.c + 1:].T)


def cases():
    for kind in SPECS:
        if kind is StructureKind.SPARSE:
            continue
        fs = (-1.0, 2.0, 1j, 0.02, 60j) if kind is StructureKind.F_CIRCULANT else (None,)
        for f in fs:
            for n in range(1, 13):
                yield kind, n, f, None
    rng = Lcg(40)
    for _ in range(40):
        n = 1 + rng.randint(8)
        cells = sorted({(rng.randint(n), rng.randint(n)) for _ in range(1 + rng.randint(n * n))})
        yield StructureKind.SPARSE, n, None, SparsityPattern(n, n, tuple(cells))


def test_factors_equal_those_of_the_wide_replay():
    """Every single-level kind at n = 1..12, f-circulant at five f, and 40
    sparse patterns: the stacked factors are equal entry for entry."""
    for kind, n, f, pattern in cases():
        _, U, V, W = stack_terms(extract_decomposition(kind, n, f=f, pattern=pattern))
        for got, want in zip((U, V, W), wide_factors(kind, n, f, pattern)):
            assert np.array_equal(got, want), (kind, n, f, pattern)


F_VALUES = (-1.0, 2.0, 1j, 0.02, 60j)


def dense_cases():
    """Every single-level kind at n = 1..16, f-circulant at five f, and 40
    sparse patterns."""
    for kind in SPECS:
        if kind is StructureKind.SPARSE:
            continue
        for f in F_VALUES if kind is StructureKind.F_CIRCULANT else (None,):
            for n in range(1, 17):
                yield kind, n, f, None
    rng = Lcg(41)
    for _ in range(40):
        n = 1 + rng.randint(12)
        cells = sorted({(rng.randint(n), rng.randint(n)) for _ in range(1 + rng.randint(n * n))})
        yield StructureKind.SPARSE, n, None, SparsityPattern(n, n, tuple(cells))


def map_forms(obj):
    """Every map form in obj: itself, the maps of a tuple, and the maps
    each form is made of (a chain's two, a block map's bands)."""
    if isinstance(obj, tuple):
        for item in obj:
            yield from map_forms(item)
    elif hasattr(obj, "dense"):
        yield obj
        if isinstance(obj, counting.ChainMap):
            yield from map_forms((obj.first, obj.second))
        elif isinstance(obj, counting.BlockMap):
            yield from map_forms(tuple(M for band in obj.bands for _, M in band))


def assert_dense_is_the_replay(maps, where):
    for M in map_forms(maps):
        dense = M.dense()
        assert dense.dtype == complex and dense.shape == M.shape, (where, type(M))
        assert np.array_equal(dense, M.apply(np.eye(M.shape[1], dtype=complex))), (where, type(M))


def test_dense_forms_equal_the_unit_block_replay():
    for kind, n, f, pattern in dense_cases():
        assert_dense_is_the_replay(SPECS[kind].maps(n, f, pattern), (kind, n, f, pattern))
    for name, maps in (("gauss", kernels.GAUSS_MAPS), ("commutator", kernels._COMMUTATOR_MAPS),
                       ("d4", groups._D4_MAPS), ("x8", groups._X8_MAPS)):
        assert_dense_is_the_replay(maps, name)
    for key, (value, _, _) in list(MAP_STORE.entries.items()):
        assert_dense_is_the_replay(value, key)


def test_a_gather_row_without_terms_is_zero():
    M = counting.GatherMap((3, 2), [0, 0, 2], [1, 1, 0], [1.0, 1.0, -1.0])
    assert np.array_equal(M.dense(), [[0, 2], [0, 0], [-1, 0]])
    assert np.array_equal(M.dense(), M.apply(np.eye(2)))


def test_extraction_adds_nothing_to_the_store():
    """Dense forms are computed on each call and kept nowhere."""
    for kind, n, f, pattern in [(StructureKind.SKEW_SYMMETRIC, 32, None, None),
                                (StructureKind.TOEPLITZ_PLUS_HANKEL, 16, None, None),
                                (StructureKind.F_CIRCULANT, 9, 1j, None),
                                (StructureKind.SPARSE, 3, None, SparsityPattern(3, 3, ((0, 1),)))]:
        SPECS[kind].maps(n, f, pattern)
        before = len(MAP_STORE.entries), MAP_STORE.nbytes
        extract_decomposition(kind, n, f=f, pattern=pattern)
        assert (len(MAP_STORE.entries), MAP_STORE.nbytes) == before, kind
