"""Every form a gather map applies by gives the sums of its (rank, row) table.

A GatherMap chooses how it applies when it is built: one gather, rank by
rank, or its whole table (counting.GatherMap).  Each gather map the kernels
store, and hand-built ones with a row without terms and a sign-0 term, is
checked against the table's own signed sum, on a vector and on a block.
"""

import numpy as np
import pytest

from bilinear_kernels import (CountContext, SparsityPattern, StructureKind, cyclic_group,
                              dihedral8, structured, structured_matvec)
from bilinear_kernels.counting import BlockMap, ChainMap, GatherMap, _buffers, variable_vector
from bilinear_kernels.groups import _D4_MAPS, _X8_MAPS, _convolution
from bilinear_kernels.kernels import (_COMMUTATOR_MAPS, GAUSS_MAPS, SPECS, _embedding_maps,
                                      _pairwise_maps, _sparse_maps)
from bilinear_kernels.structures import default_f


def gathers(*maps):
    """The gather maps among maps, through chains and bands."""
    for M in maps:
        if isinstance(M, GatherMap):
            yield M
        elif isinstance(M, ChainMap):
            yield from gathers(M.first, M.second)
        elif isinstance(M, BlockMap):
            yield from gathers(*(N for band in M.bands for _, N in band))


def group_triple(G):
    every = np.arange(G.order)
    a = variable_vector(np.arange(1, G.order + 1))
    return _convolution(G, a, a, every, every)


SKEW, SYMMETRIC = StructureKind.SKEW_SYMMETRIC, StructureKind.SYMMETRIC
# A pattern whose W has three ranks, rank 0 full and rank 1 live on rows 0, 2, 3.
SPREAD = SparsityPattern(4, 4, ((0, 0), (0, 1), (0, 3), (1, 2), (2, 0), (2, 2), (3, 1), (3, 2),
                                (3, 3)))
EMPTY_ROW = SparsityPattern(3, 3, ((0, 1), (2, 0), (2, 2)))

# name -> the maps, built when a test reads them so that collection fills no store.
SOURCES = {
    **{f"{kind.value}.n{n}": (lambda kind=kind, n=n: _pairwise_maps(kind, n))
       for kind in (SYMMETRIC, SKEW) for n in (1, 2, 3, 16, 48)},
    **{f"tph frame.n{n}": (lambda n=n: _embedding_maps(StructureKind.TOEPLITZ_PLUS_HANKEL, n)[:2])
       for n in (1, 2, 5)},
    "sparse spread": lambda: _sparse_maps(4, SPREAD),
    "sparse with an empty row": lambda: _sparse_maps(3, EMPTY_ROW),
    "gauss": lambda: GAUSS_MAPS,
    "commutator": lambda: _COMMUTATOR_MAPS,
    "group D4": lambda: group_triple(dihedral8()),
    "group C5": lambda: group_triple(cyclic_group(5)),
    "D4 simultaneous": lambda: _D4_MAPS,
    "X8 simultaneous": lambda: _X8_MAPS,
    # Row 1 has no terms, row 0 a sign-0 term, row 3 a sign of 2: the table.
    "hand-built table": lambda: [GatherMap((4, 3), [0, 0, 2, 2, 2, 3], [1, 2, 0, 1, 2, 0],
                                           [1, 0, -1, 1, 1, 2])],
    # Rank 0 full with signs -1 and 1; rank 1 live on row 2 alone, beside
    # row 0's sign-0 term: rows that are not a prefix, so the table.
    "hand-built table, rows not a prefix": lambda: [GatherMap((3, 3), [0, 0, 1, 2, 2],
                                                              [0, 1, 1, 2, 0], [1, 0, -1, 1, 1])],
    # Rank 0 full with signs -1 and 1; rank 1 live on rows 0 and 1: by rank.
    "hand-built ranks": lambda: [GatherMap((3, 3), [0, 0, 1, 1, 2], [0, 1, 1, 2, 0],
                                           [-1, 1, 1, 1, 1])],
}


def stored_triple(kind: StructureKind, n: int):
    """The triple the kernels store for kind at order n; a sparse pattern
    fills every other row, so its maps have rows without terms."""
    pattern = (SparsityPattern(n, n, tuple((i, 3 * i % n) for i in range(0, n, 2)))
               if SPECS[kind].needs_pattern else None)
    f = 2.0 if kind is StructureKind.F_CIRCULANT else default_f(kind, None)
    return SPECS[kind].maps(n, f, pattern)


STORED = {f"stored {kind.value}.n{n}": (lambda kind=kind, n=n: stored_triple(kind, n))
          for kind in SPECS for n in (1, 2, 5, 9)}


def owner(arr: np.ndarray) -> np.ndarray:
    """The array that owns a view's buffer."""
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


def table_sum(M: GatherMap, values: np.ndarray) -> np.ndarray:
    """What the whole table gives: every slot gathered, signed and summed."""
    signs = M.signs.reshape(M.signs.shape + (1,) * (values.ndim - 1))
    return (values[M.terms] * signs).sum(axis=0)


@pytest.mark.parametrize("source", SOURCES)
def test_every_apply_form_gives_the_tables_sums(source):
    rng = np.random.default_rng(len(source))
    maps = list(gathers(*SOURCES[source]()))
    assert maps
    for M in maps:
        m, n = M.shape
        for shape in ((n,), (n, 3)):
            values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            got, want = M.apply(values), table_sum(M, values)
            assert got.shape == (m,) + shape[1:]
            assert np.array_equal(got, want)
            assert got.tobytes() == want.tobytes()
        identity = np.eye(n, dtype=complex)
        assert np.array_equal(M.dense(), table_sum(M, identity))
        assert np.array_equal(M.apply(identity), M.dense())


@pytest.mark.parametrize("source", SOURCES)
def test_every_rank_is_a_view_of_the_table(source):
    """A form adds no array of its own, so nbytes counts the one index
    table once."""
    for M in gathers(*SOURCES[source]()):
        assert M.nbytes == M.support.nbytes + M.signs.nbytes
        if M.ranks is not None:
            (first, _), *later = M.ranks
            for index in (first, *(index for _, index in later)):
                assert np.shares_memory(index, M.support)


@pytest.mark.parametrize("source", {**SOURCES, **STORED})
def test_a_gather_map_holds_one_index_table(source):
    """``terms`` is a view of ``support``, and the store's walk over the
    map's parts finds one index-array owner, beside the signs' and the
    reach's."""
    maps = list(gathers(*{**SOURCES, **STORED}[source]()))
    assert maps or source.startswith("stored")
    for M in maps:
        assert owner(M.terms) is owner(M.support)
        assert M.nbytes == M.support.nbytes + M.signs.nbytes
        found = _buffers(M, {})
        assert found.keys() == {id(owner(a)) for a in (M.support, M.signs, M.reach)}
        assert len(found) == 3


@pytest.mark.parametrize("kind, nbytes", [(SYMMETRIC, 3_771_008), (SKEW, 3_766_912)])
def test_the_pairwise_maps_of_order_256_hold_one_index_table_per_gather(kind, nbytes):
    """The bytes the store counts for the pairwise triple at n = 256, one
    index table and one sign table a gather."""
    assert sum(_buffers(_pairwise_maps(kind, 256), {}).values()) == nbytes


def test_each_kernel_map_takes_the_form_its_shape_calls_for():
    U, V, W = _pairwise_maps(SYMMETRIC, 16)
    pairs = 16 * 15 // 2
    # V: x_i + x_j per pair, then x_i per row: rank 1 is live on the pairs, a prefix.
    (first, sign), (rows, index) = V.ranks
    assert sign is None and rows == slice(pairs)
    assert np.shares_memory(first, V.terms) and np.shares_memory(index, V.terms)
    # W: 16 ranks of signs 1, one gather of the table with no sign product.
    assert W.ranks is None and not W.signed
    # Skew-symmetric W: signs -1 and 1, the signed table.
    assert _pairwise_maps(SKEW, 16)[2].ranks is None and _pairwise_maps(SKEW, 16)[2].signed
    # A picking, built either way, is one gather.
    picking = GatherMap.picking(5, [4, 0, 2])
    for M in (picking, GatherMap((3, 5), range(3), [4, 0, 2])):
        (index, sign), = M.ranks
        assert sign is None and index.tolist() == [4, 0, 2]
    # A row without terms keeps the table.
    assert _sparse_maps(3, EMPTY_ROW)[2].ranks is None
    # A later rank live on rows that are not a prefix keeps the table.
    assert _sparse_maps(4, SPREAD)[2].ranks is None
    # Three ranks are more than few: symmetric W at n = 3 keeps the table.
    assert _pairwise_maps(SYMMETRIC, 3)[2].ranks is None
    # Rank 0's signs multiply, rank 1 adds at its prefix.
    (first, sign), (rows, index) = SOURCES["hand-built ranks"]()[0].ranks
    assert sign.tolist() == [-1, 1, 1] and rows == slice(2)


def test_a_sign_of_1_is_not_multiplied_so_a_zero_parts_sign_stays():
    """A form with no sign product leaves a zero part's sign as the sum
    gives it: (-2)(-2) is 4 - 0j in complex arithmetic, and symmetric at
    n = 1 (one product, gathered with signs 1) returns it so.  A product by
    a sign of 1.0 would turn it into 4 + 0j: outputs that differ only in the
    sign of a zero part are equal, but not the same bytes."""
    M = GatherMap((1, 1), [0], [0])
    assert M.ranks is not None and not M.signed
    assert np.signbit(M.apply(np.array([complex(4, -0.0)])).imag).all()
    out = structured_matvec(structured("symmetric", 1, [-2]), [-2], CountContext())
    assert [s.value for s in out] == [4]
    assert np.signbit(out[0].value.imag)


def test_a_slot_of_sign_0_reads_only_its_own_rows_input_where_one_is_not_finite():
    """A slot of sign 0 adds 0 * the input it reads: an empty slot repeats
    its row's first input, and a row without terms reads input 0.  So an
    input that is not finite reaches only the rows that read it.  An
    infinite x0 leaves row 2 (x2 alone, with an empty slot) finite.  An
    infinite x2 makes row 2's sum NaN in both parts, 0 * inf added to inf,
    whose imaginary part the complex sign product has already made NaN.
    Row 1, without terms, reads x0.  Through the sparse kernel, whose W is
    this map, every product is complex, so an infinite one is NaN already."""
    inf, nan = np.inf, np.nan
    G = GatherMap((3, 3), [0, 0, 2], [0, 1, 2])     # x0 + x1, no terms, x2
    P = SparsityPattern(3, 3, ((0, 0), (0, 1), (2, 2)))
    M = structured("sparse", 3, [1, 1, 1], pattern=P)
    for x, (real, imag), (kernel_real, kernel_imag) in (
            ([inf, 1, 1], ([inf, nan, 1], [nan, nan, 0]), ([nan, nan, 1], [nan, nan, 0])),
            ([1, 1, inf], ([2, 0, nan], [0, 0, nan]), ([2, 0, nan], [0, 0, nan]))):
        with np.errstate(invalid="ignore"):
            out = G.apply(np.array(x, dtype=complex))
            product = np.array([s.value for s in structured_matvec(M, x, CountContext())])
        np.testing.assert_array_equal(out.real, real)
        np.testing.assert_array_equal(out.imag, imag)
        np.testing.assert_array_equal(product.real, kernel_real)
        np.testing.assert_array_equal(product.imag, kernel_imag)
