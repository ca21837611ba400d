"""Shared cached state: read-only, bounded, and shared as views where one
map is a slice of another.  Every kernel map and every placement lives in
one store (counting.MAP_STORE), bounded in entries and in the bytes it
holds."""

import sys
import tracemalloc
from types import ModuleType

import numpy as np
import pytest

import bilinear_kernels
from bilinear_kernels import (CountContext, LevelSpec, StructureKind, circulant_matvec,
                              f_circulant_matvec, multilevel_matvec, naive_matvec, scaled_dft,
                              scaled_idft, structured, structured_matvec, variables)
from bilinear_kernels import counting, kernels
from bilinear_kernels.counting import (MAP_STORE, MAP_STORE_BYTES, MAP_STORE_ENTRIES, BlockMap,
                                       ChainMap, ConstantMap, GatherMap, MapStore)
from bilinear_kernels.kernels import (SPECS, _embedding_maps, _pairwise_maps, _sparse_maps,
                                      _transform)
from bilinear_kernels.cli import random_pattern
from bilinear_kernels.rng import Lcg
from bilinear_kernels.spectral import (F_CACHE_SIZE, ORDER_CACHE_SIZE, dft_matrix, idft_matrix,
                                       root_table, scaled_dft_matrix, scaled_idft_matrix)
from bilinear_kernels.structures import SparsityPattern, _placement, dense_parts

SYM, SKEW = StructureKind.SYMMETRIC, StructureKind.SKEW_SYMMETRIC
CIRC, FCIRC = StructureKind.CIRCULANT, StructureKind.F_CIRCULANT
TOEPLITZ, HANKEL, TRIANGULAR, TPH = (StructureKind.TOEPLITZ, StructureKind.HANKEL,
                                     StructureKind.UPPER_TRIANGULAR_TOEPLITZ,
                                     StructureKind.TOEPLITZ_PLUS_HANKEL)


def vals(out):
    return np.array([s.value for s in out])


def write_first(arr):
    arr[(0,) * arr.ndim] = 0


def test_cached_maps_reject_writes():
    U, V, W = _embedding_maps(CIRC, 8)
    perm = (8 - np.arange(8)) % 8
    assert np.array_equal(U.matrix, scaled_dft_matrix(8, complex(1.0)).matrix[:, perm])
    for arr in (dft_matrix(8).matrix, dft_matrix(8).support, U.matrix, U.support,
                V.matrix, V.support, W.matrix, W.support):
        with pytest.raises(ValueError):
            write_first(arr)
    c, x = [1, 2, 3, 4, 5, 6, 7, 8], [1, -1, 2, 0, 1j, 3, -2, 1]
    want = np.array([[c[(i - j) % 8] for j in range(8)] for i in range(8)]) @ np.array(x)
    out = circulant_matvec(variables(c), variables(x), CountContext())
    assert np.abs(vals(out) - want).max() < 1e-12


def test_structured_matrix_data_vector_is_converted_once_and_read_only():
    M = structured(StructureKind.TOEPLITZ, 3, [1, 2, 3, 4, 5])
    vec = M.data_vector()
    assert M.data_vector() is vec
    with pytest.raises(ValueError):
        vec.values[0] = 9
    with pytest.raises(ValueError):
        vec.variable[0] = False
    x = variables([1, 2, 3])
    out = structured_matvec(M, x, CountContext())
    want = dense_parts(M)[0] @ np.array([1, 2, 3])
    assert np.abs(vals(out) - want).max() < 1e-12
    assert [s.value for s in M.data] == [1, 2, 3, 4, 5]


def stored(builder, *args) -> bool:
    """Whether the store holds builder(*args)."""
    return (builder.__wrapped__, *args) in MAP_STORE.entries


def within_bounds() -> bool:
    return len(MAP_STORE.entries) <= MAP_STORE_ENTRIES and MAP_STORE.nbytes <= MAP_STORE_BYTES


def test_f_keyed_caches_stay_bounded():
    ctx = CountContext()
    for k in range(max(F_CACHE_SIZE, MAP_STORE_ENTRIES) + 50):
        f = complex(1.0 + k / 16, 0.25)
        f_circulant_matvec(variables([1, 2]), f, variables([3, 4]), ctx)
        scaled_dft(variables([1, 2]), f, ctx)
        scaled_idft(variables([1, 2]), f, ctx)
    for cache in (scaled_dft_matrix, scaled_idft_matrix):
        info = cache.cache_info()
        assert info.maxsize == F_CACHE_SIZE
        assert info.currsize <= F_CACHE_SIZE
    assert len(MAP_STORE.entries) == MAP_STORE_ENTRIES and within_bounds()
    assert MAP_STORE.nbytes == sum(entry[1] for entry in MAP_STORE.entries.values())


def f_args(n, f):
    """The arguments that key f-circulant's triple: circulant's own at f = 1."""
    return (CIRC, n) if f == 1 else (FCIRC, n, f)


def test_fixed_f_entries_survive_fresh_f():
    """A sweep over n <= 16 at six fixed f plus 16 fresh f per round misses
    only on the fresh f once the fixed entries are resident."""
    fixed = [(n, complex(f)) for n in range(1, 17) for f in (1, -1, 2, 1j, 0.02, 60j)]
    fresh = 0
    for _ in range(3):
        new = 0
        for n, f in fixed:
            new += not stored(_embedding_maps, *f_args(n, f))
            SPECS[FCIRC].maps(n, f, None)
        for n in range(1, 17):
            fresh += 1
            new += not stored(_embedding_maps, *f_args(n, complex(3.0, fresh)))
            SPECS[FCIRC].maps(n, complex(3.0, fresh), None)
    assert new == 16


def arrays(M):
    """Every array a map of any form holds."""
    if isinstance(M, ConstantMap):
        return [M.matrix, M.support]
    if isinstance(M, GatherMap):
        return [M.support, M.terms, M.signs]
    if isinstance(M, BlockMap):
        return [arr for band in M.bands for _, block in band for arr in arrays(block)]
    assert isinstance(M, ChainMap)
    return arrays(M.first) + arrays(M.second)


def kernel_maps(n):
    """Every cached embedding-builder, symmetric and skew-symmetric map of order n."""
    return (*(M for kind in (CIRC, TOEPLITZ, HANKEL, TPH, TRIANGULAR)
              for M in _embedding_maps(kind, n)), *_embedding_maps(FCIRC, n, 2j),
            *_pairwise_maps(SYM, n), *_pairwise_maps(SKEW, n))


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_kernel_maps_reject_writes(n):
    for M in kernel_maps(n):
        for arr in arrays(M):
            if arr.size:
                with pytest.raises(ValueError):
                    write_first(arr)


def owner(arr: np.ndarray) -> np.ndarray:
    """The array that owns a view's buffer."""
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


@pytest.mark.parametrize("n", [1, 3, 8])
def test_derived_kernel_maps_are_views(n):
    """Hankel reads Toeplitz's frame: the same U and V.  tph's summands read
    views of Toeplitz's symbol transform after one shift of the parameters, and
    their products pick from one evaluation of x; an f-circulant map shares
    its order's base's support and reach."""
    U, V, W = _embedding_maps(TOEPLITZ, n)
    hU, hV, hW = _embedding_maps(HANKEL, n)
    assert hU is U and hV is V and hU is _transform(TOEPLITZ, n)[0]
    assert not np.shares_memory(hW.matrix, W.matrix) and hW.matrix.strides[1] > 0
    tU, tV, _ = _embedding_maps(TPH, n)
    shift, symbol = tU.first, tU.second
    assert shift.cost[0] == min(n, 2) * (4 * n - 2)    # only A multiplies: rank min(n, 2)
    blocks = [M for band in symbol.bands for _, M in band]
    assert all(isinstance(M, ConstantMap) for M in blocks)
    assert {id(owner(M.matrix)) for M in blocks} == {id(owner(_transform(TOEPLITZ, n)[0].matrix))}
    if n > 1:
        assert isinstance(tV.second, GatherMap) and tV.first.shape == (2 * n - 1, n)
    for M, base in zip(_embedding_maps(FCIRC, n, 2j), _embedding_maps(CIRC, n)):
        assert M.support is base.support and M.reach is base.reach
    _pairwise_maps(SYM, n)
    assert MAP_STORE.entries[(_pairwise_maps.__wrapped__, SYM, n)][2] == [
        (_pairwise_maps.__wrapped__, SYM, n)]        # built from no other stored map


def test_order_keyed_caches_stay_bounded(monkeypatch):
    for cache in (dft_matrix, idft_matrix, root_table):
        assert cache.cache_info().maxsize == ORDER_CACHE_SIZE
    monkeypatch.setattr(counting, "MAP_STORE_ENTRIES", 16)
    for n in range(1, 22):
        _pairwise_maps(SYM, n)
    assert len(MAP_STORE.entries) == 16 and stored(_pairwise_maps, SYM, 21)


def library_caches():
    """Every lru_cache function of the library's modules, by name."""
    return {f"{module.__name__}.{name}": value
            for module in vars(bilinear_kernels).values() if isinstance(module, ModuleType)
            and module.__name__.startswith("bilinear_kernels.")
            for name, value in vars(module).items() if hasattr(value, "cache_info")}


def test_multilevel_sweep_with_fresh_f_stays_within_every_cache_bound():
    """Each multilevel product reads its levels' kernel maps and each oracle
    call its placement; a sweep over twice as many f-circulant levels as any
    bound, each with a fresh f, must leave every cache of the library and
    the map store within its bounds."""
    caches = library_caches()
    assert {"bilinear_kernels.spectral.scaled_dft_matrix",
            "bilinear_kernels.spectral.dft_matrix"} <= caches.keys()
    assert not hasattr(_placement, "cache_info")
    rng = np.random.default_rng(7)
    for k in range(2 * max(F_CACHE_SIZE, MAP_STORE_ENTRIES)):
        f = complex(1.0 + k / 64, 0.5)
        levels = (LevelSpec(StructureKind.F_CIRCULANT, 3, f=f),
                  LevelSpec(StructureKind.TOEPLITZ, 2))
        M = structured(StructureKind.MULTILEVEL, 6, rng.standard_normal(9), levels=levels)
        multilevel_matvec(M, variables(rng.standard_normal(6)), CountContext())
        dense_parts(M)
    for name, cache in caches.items():
        info = cache.cache_info()
        assert info.maxsize is not None, name
        assert info.currsize <= info.maxsize, name
    chain = MAP_STORE.entries[(_placement.__wrapped__, levels)][2]
    assert (_placement.__wrapped__, levels[1:]) in chain
    assert within_bounds()


def test_no_kernel_map_has_a_cache_of_its_own():
    """kernels defines no cached function: every kernel map, the inverses'
    included, is in the map store."""
    assert not [name for name, value in vars(kernels).items() if hasattr(value, "cache_info")
                and value.__module__ == kernels.__name__]


@pytest.mark.parametrize("kind, f", [(CIRC, None), (FCIRC, 2j), (FCIRC, 1.0)])
def test_an_inverse_reads_the_triple_its_product_stored(kind, f):
    """One home for the transforms: after a product at order n, the inverse
    of the same kind adds no store entry and misses no cache of the library."""
    n = 11
    c, x = [3.0 * n, *np.ones(n - 1)], variables(np.arange(n))
    if f is None:
        circulant_matvec(c, x, CountContext())
    else:
        f_circulant_matvec(c, f, x, CountContext())
    entries, caches = set(MAP_STORE.entries), library_caches()
    misses = {name: cache.cache_info().misses for name, cache in caches.items()}
    inverse = (kernels.circulant_inverse(c, CountContext()) if f is None
               else kernels.f_circulant_inverse(c, f, CountContext()))
    assert len(inverse) == n
    assert set(MAP_STORE.entries) == entries
    assert {name: cache.cache_info().misses for name, cache in caches.items()} == misses


def test_the_store_keeps_within_its_byte_bound_but_for_the_newest_entry(monkeypatch):
    """Every entry's bases stay in the store.  Over the byte bound, it holds
    only the entry it built last and the entries that one was built from."""
    bound = 40_000
    monkeypatch.setattr(counting, "MAP_STORE_BYTES", bound)
    pattern = SparsityPattern(6, 6, ((0, 1), (2, 2), (5, 0)))
    levels = (LevelSpec(StructureKind.HANKEL, 9), LevelSpec(StructureKind.SYMMETRIC, 5))
    reads = [(_embedding_maps, TOEPLITZ, 4), (_embedding_maps, FCIRC, 9, 2j),
             (_embedding_maps, TPH, 12), (_embedding_maps, HANKEL, 4), (_pairwise_maps, SYM, 9),
             (_sparse_maps, 6, pattern), (_pairwise_maps, SKEW, 14),
             (_embedding_maps, TRIANGULAR, 30), (_embedding_maps, FCIRC, 3, -1.0),
             (_embedding_maps, TPH, 3), (_pairwise_maps, SYM, 16), (_embedding_maps, CIRC, 2),
             (_placement, levels)]
    over = 0
    for builder, *args in reads * 2:
        builder(*args)
        assert stored(builder, *args)
        assert all(base in MAP_STORE.entries for _, _, chain in MAP_STORE.entries.values()
                   for base in chain)
        if MAP_STORE.nbytes > bound:
            over += 1
            oldest = next(iter(MAP_STORE.entries))
            assert set(MAP_STORE.entries) == set(MAP_STORE.entries[oldest][2]), args
    assert over  # the bound is exercised


def test_the_store_counts_the_bytes_it_holds(monkeypatch):
    """An entry's views, broadcasts and the maps it shares with its bases
    count once: the store's size is what tracemalloc sees it hold."""
    store = MapStore()
    monkeypatch.setattr(counting, "MAP_STORE", store)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _embedding_maps(TPH, 160)
        _pairwise_maps(SYM, 40)
        _pairwise_maps(SKEW, 160)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert abs(store.nbytes - held) <= 0.1 * held


@pytest.mark.parametrize("n", [1, 2, 3, 5, 16, 256])
def test_toeplitz_hankel_and_tph_read_one_stored_transform(monkeypatch, n):
    """The three kinds embed in one (2n-1)-point frame, with the same
    parameter positions and input placement: the store holds one transform
    for it, and tph's symbol bands and its evaluation of x hold no buffer
    but that transform's (a band keeps only its own row reach)."""
    store = MapStore()
    monkeypatch.setattr(counting, "MAP_STORE", store)
    for kind in (TOEPLITZ, HANKEL, TPH):
        _embedding_maps(kind, n)
    assert [key[1:] for key in store.entries if key[0] is _transform.__wrapped__] == [
        (TOEPLITZ, n)]
    F, X = _transform(TOEPLITZ, n)
    transform = set(counting._buffers((F, X), {}))
    tU, tV, _ = _embedding_maps(TPH, n)
    bands = [M for band in tU.second.bands for _, M in band]
    assert bands and all(isinstance(M, ConstantMap) for M in bands)
    assert all(set(counting._buffers((M.matrix, M.support), {})) <= transform for M in bands)
    assert (tV.first if isinstance(tV, ChainMap) else tV) is X
    if n == 256:     # 21,040,091 bytes while tph kept a copy of the transform
        assert store.nbytes == 14_744_090


def test_the_store_counts_the_patterns_in_its_keys(monkeypatch):
    """A sparsity pattern holds a Python pair per entry, as many bytes as the
    maps it keys: the store counts the patterns in its keys, so its size is
    what tracemalloc sees it hold, and a sweep of fresh patterns keeps within
    the byte bound."""
    store = MapStore()
    monkeypatch.setattr(counting, "MAP_STORE", store)
    n, rng = 200, Lcg(4)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _sparse_maps(n, random_pattern(n, rng))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert abs(store.nbytes - held) <= 0.1 * held
    bound = 6 * 2**20
    monkeypatch.setattr(counting, "MAP_STORE_BYTES", bound)
    for _ in range(8):
        pattern = random_pattern(n, rng)
        M = structured(StructureKind.SPARSE, n, rng.complex_vector(len(pattern)),
                       pattern=pattern)
        x = variables(rng.complex_vector(n))
        structured_matvec(M, x, CountContext())
        naive_matvec(M, x, CountContext())
        pairs = sys.getsizeof(pattern.entries) + sum(map(sys.getsizeof, pattern.entries))
        maps_entry = store.entries[(_sparse_maps.__wrapped__, n, pattern)]
        assert maps_entry[1] == sum(counting._buffers(maps_entry[0], {}).values()) + pairs
        placement_entry = store.entries[(_placement.__wrapped__, M.levels)]
        assert placement_entry[1] == (sum(counting._buffers(placement_entry[0], {}).values())
                                      + pairs)
        assert store.nbytes == sum(entry[1] for entry in store.entries.values()) <= bound
    assert len(store.entries) < 1 + 2 * 8     # the bound has evicted entries


def test_a_derived_entry_keeps_its_base_through_evictions():
    """Reading a derived entry refreshes the entries it was built from, so
    a sweep of fresh entries evicts none of them while the derived one is
    in use: one order has one Toeplitz frame."""
    n = 6
    _embedding_maps(HANKEL, n)
    for k in range(3 * MAP_STORE_ENTRIES):
        _embedding_maps(FCIRC, 2, complex(5.0, k))
        if k % 50 == 0:
            _embedding_maps(HANKEL, n)
    assert stored(_transform, TOEPLITZ, n)
    hankel, toeplitz = _embedding_maps(HANKEL, n), _embedding_maps(TOEPLITZ, n)
    assert hankel[0] is toeplitz[0] is _transform(TOEPLITZ, n)[0]
    assert within_bounds()


def test_a_warm_product_reads_no_map(monkeypatch):
    """The first product reads each level's triple; later ones use the
    triples the matrix keeps and make no store read."""
    reads = {"levels": 0, "store": 0}

    def counted(key, real):
        def call(*args):
            reads[key] += 1
            return real(*args)
        return call
    monkeypatch.setattr(kernels, "level_decomposition",
                        counted("levels", kernels.level_decomposition))
    monkeypatch.setattr(MAP_STORE, "read", counted("store", MAP_STORE.read))
    levels = (LevelSpec(StructureKind.TOEPLITZ, 2), LevelSpec(StructureKind.SYMMETRIC, 3))
    M = structured(StructureKind.MULTILEVEL, 6, np.arange(1.0, 19.0), levels=levels)
    x = variables(np.arange(6.0))
    first = structured_matvec(M, x, CountContext())
    assert reads["levels"] == 2 and reads["store"] >= 2
    reads.update(levels=0, store=0)
    for _ in range(2):
        assert vals(structured_matvec(M, x, CountContext())).tobytes() == vals(first).tobytes()
    assert reads == {"levels": 0, "store": 0}


def test_explicit_support_must_match_the_matrix():
    with pytest.raises(ValueError):
        ConstantMap(np.ones((2, 3)), np.ones((3, 2), dtype=bool))
    M = ConstantMap(np.array([[1.0, 0.0]]), np.array([[True, True]]))
    assert M.support.all() and not M.matrix.flags.writeable
