"""Each constant map's reach, the image of all-Variable flags computed once
when the map is built, against a dense support built independently of
``propagate``; and apply_matrix's choice between the all-Variable marker,
the reach and propagate."""

import numpy as np
import pytest

from bilinear_kernels import CountContext
from bilinear_kernels.counting import (BlockMap, ChainMap, ConstantMap, GatherMap,
                                       TrackedVector, apply_matrix)
from bilinear_kernels.groups import _D4_MAPS, _X8_MAPS
from bilinear_kernels.kernels import _COMMUTATOR_MAPS, GAUSS_MAPS, SPECS
from bilinear_kernels.rng import Lcg
from bilinear_kernels.structures import SparsityPattern, StructureKind, default_f


def dense_support(M) -> np.ndarray:
    """M's structural support as an (m, n) boolean matrix, read off each
    form's own tables."""
    m, n = M.shape
    if isinstance(M, ConstantMap):
        return np.asarray(M.support)
    if isinstance(M, GatherMap):
        support = np.zeros((m, n), dtype=bool)
        support[np.broadcast_to(np.arange(m), M.support.shape), M.support] = True
        return support & M.reach[:, None]       # a row without terms reads input 0
    if isinstance(M, BlockMap):
        bands = []
        for band in M.bands:
            rows = np.zeros((band[0][1].shape[0], n), dtype=bool)
            for cols, sub in band:
                rows[:, cols] |= dense_support(sub)
            bands.append(rows)
        return np.concatenate(bands)
    assert isinstance(M, ChainMap)
    return np.dot(dense_support(M.second), dense_support(M.first))


def drawn_pattern(n: int, seed: int) -> SparsityPattern:
    rng = Lcg(seed)
    cells = sorted({(rng.randint(n), rng.randint(n)) for _ in range(1 + rng.randint(n * n))})
    return SparsityPattern(n, n, tuple(cells))


def triples():
    for kind in SPECS:
        for n in (1, 2, 3, 8, 17):
            pattern = drawn_pattern(n, 60 + n) if kind is StructureKind.SPARSE else None
            f = 2.0 if kind is StructureKind.F_CIRCULANT else default_f(kind, None)
            yield f"{kind.value}.n{n}", SPECS[kind].maps(n, f, pattern)
    yield "gauss", GAUSS_MAPS
    yield "commutator", _COMMUTATOR_MAPS
    yield "d4", _D4_MAPS
    yield "x8", _X8_MAPS


TRIPLES = dict(triples())


@pytest.mark.parametrize("name", TRIPLES)
def test_reach_is_the_image_of_all_variable_flags(name):
    for M in TRIPLES[name]:
        ones = np.ones(M.shape[1], dtype=bool)
        want = np.dot(dense_support(M), ones)
        assert M.reach.dtype == bool and M.reach.shape == (M.shape[0],)
        assert np.array_equal(M.reach, want), name
        assert np.array_equal(M.propagate(ones), want), name
        assert M.full_reach is bool(want.all()), name


@pytest.mark.parametrize("name", TRIPLES)
@pytest.mark.parametrize("block", [(), (3,)])
def test_mixed_flags_take_the_boolean_product(name, block):
    """propagate equals the boolean product of the dense support on mixed
    flags, a vector or a block, a gather's rows without terms included."""
    rng = np.random.default_rng(len(name))
    for M in TRIPLES[name]:
        flags = rng.random((M.shape[1],) + block) < 0.5
        got = M.propagate(flags)
        assert got.dtype == bool and np.array_equal(got, np.dot(dense_support(M), flags)), name


@pytest.mark.parametrize("name", TRIPLES)
def test_reach_is_read_only(name):
    for M in TRIPLES[name]:
        assert not M.reach.flags.writeable
        if M.shape[0]:
            with pytest.raises(ValueError):
                M.reach[0] = not M.reach[0]


@pytest.mark.parametrize("name", ["toeplitz.n8", "symmetric.n8", "skew_symmetric.n17",
                                  "tph.n3", "sparse.n8", "skew_symmetric.n1", "commutator"])
@pytest.mark.parametrize("block", [(), (3,)])
def test_all_variable_input_takes_a_fresh_writable_reach(name, block):
    """All-True flags given as an array take a fresh writable copy of the
    reach; the marker stays the marker through a map of full reach and
    takes the copy through any other."""
    for M in TRIPLES[name]:
        flags = np.ones((M.shape[1],) + block, dtype=bool)
        values = np.ones(flags.shape, dtype=complex)
        want = M.propagate(flags)
        for given in (flags, None):
            out = apply_matrix(M, TrackedVector(values, given), CountContext())
            if given is None and M.full_reach:
                assert out.flags is None
                out = out.variable
                assert not out.flags.writeable
            else:
                out = out.flags
                assert out.flags.writeable and not np.shares_memory(out, M.reach)
            assert out.dtype == bool and out.shape == want.shape
            assert np.array_equal(out, want)


class Spy:
    """A map that counts its propagate calls."""

    def __init__(self, M):
        self.M, self.calls = M, 0
        self.shape, self.cost, self.reach, self.full_reach = M.shape, M.cost, M.reach, M.full_reach

    def apply(self, values):
        return self.M.apply(values)

    def propagate(self, flags):
        self.calls += 1
        return self.M.propagate(flags)


@pytest.mark.parametrize("block", [(), (2,)])
def test_only_mixed_flags_go_through_propagate(block):
    U, V, W = TRIPLES["skew_symmetric.n8"]
    for M in (U, V, W):
        spy = Spy(M)
        flags = np.ones((M.shape[1],) + block, dtype=bool)
        values = np.ones(flags.shape, dtype=complex)
        apply_matrix(spy, TrackedVector(values, flags), CountContext())
        apply_matrix(spy, TrackedVector(values, None), CountContext())
        assert spy.calls == 0
        flags[1] = False
        got = apply_matrix(spy, TrackedVector(values, flags), CountContext()).variable
        assert spy.calls == 1
        assert np.array_equal(got, M.propagate(flags))
