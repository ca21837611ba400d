"""Shared cached state: read-only, bounded, and shared as views where one
map is a slice of another."""

from types import ModuleType

import numpy as np
import pytest

import bilinear_kernels
from bilinear_kernels import (CountContext, LevelSpec, StructureKind, circulant_matvec,
                              f_circulant_matvec, multilevel_matvec, scaled_dft, scaled_idft,
                              structured, structured_matvec, variables)
from bilinear_kernels.counting import BlockMap, ChainMap, ConstantMap, GatherMap
from bilinear_kernels.kernels import (ORDER_CACHE_SIZE, STACKED_CACHE_SIZE, _fcirc_maps,
                                     _hankel_maps, _skew_symmetric_maps, _symmetric_maps,
                                     _toeplitz_maps, _toeplitz_symbol, _tph_maps,
                                     _triangular_toeplitz_maps)
from bilinear_kernels.spectral import (F_CACHE_SIZE, dft_matrix, idft_matrix, root_table,
                                       scaled_dft_matrix, scaled_idft_matrix)
from bilinear_kernels.structures import dense_parts


def vals(out):
    return np.array([s.value for s in out])


def write_first(arr):
    arr[(0,) * arr.ndim] = 0


def test_cached_maps_reject_writes():
    U, pre, post = _fcirc_maps(8, complex(1.0))
    perm = (8 - np.arange(8)) % 8
    assert np.array_equal(U.matrix, scaled_dft_matrix(8, complex(1.0)).matrix[:, perm])
    for arr in (dft_matrix(8).matrix, dft_matrix(8).support, U.matrix, U.support,
                pre.matrix, pre.support, post.matrix, post.support):
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


def test_f_keyed_caches_stay_bounded():
    ctx = CountContext()
    for k in range(F_CACHE_SIZE + 50):
        f = complex(1.0 + k / 16, 0.25)
        f_circulant_matvec(variables([1, 2]), f, variables([3, 4]), ctx)
        scaled_dft(variables([1, 2]), f, ctx)
        scaled_idft(variables([1, 2]), f, ctx)
    for cache in (scaled_dft_matrix, scaled_idft_matrix, _fcirc_maps):
        info = cache.cache_info()
        assert info.maxsize == F_CACHE_SIZE
        assert info.currsize <= F_CACHE_SIZE


def test_fixed_f_entries_survive_fresh_f():
    """A sweep over n <= 16 at six fixed f plus 16 fresh f per round misses
    only on the fresh f once the fixed entries are resident."""
    fixed = [(n, complex(f)) for n in range(1, 17) for f in (1, -1, 2, 1j, 0.02, 60j)]
    _fcirc_maps.cache_clear()
    fresh = 0
    for _ in range(3):
        misses = _fcirc_maps.cache_info().misses
        for n, f in fixed:
            _fcirc_maps(n, f)
        for n in range(1, 17):
            fresh += 1
            _fcirc_maps(n, complex(3.0, fresh))
        new = _fcirc_maps.cache_info().misses - misses
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
    """Every cached Toeplitz-family, symmetric and skew-symmetric map of order n."""
    return (*_toeplitz_maps(n), *_hankel_maps(n), *_tph_maps(n), *_triangular_toeplitz_maps(n),
            *_symmetric_maps(n), *_skew_symmetric_maps(n))


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_kernel_maps_reject_writes(n):
    for M in kernel_maps(n):
        for arr in arrays(M):
            if arr.size:
                with pytest.raises(ValueError):
                    write_first(arr)


@pytest.mark.parametrize("n", [1, 3, 8])
def test_derived_kernel_maps_are_views(n):
    # Each cache is bounded on its own, so a sweep run earlier can evict the
    # symbol of order n while a derived map still holds the old object.
    for cache in (_toeplitz_symbol, _toeplitz_maps, _hankel_maps, _tph_maps,
                  _triangular_toeplitz_maps, _symmetric_maps):
        cache.cache_clear()
    U, V, W = _toeplitz_maps(n)
    assert U is _toeplitz_symbol(n)
    hU, hV, hW = _hankel_maps(n)
    assert hU is U and hV is V and np.shares_memory(hW.matrix, W.matrix)
    tU, tV, tW = _tph_maps(n)
    assert tU.bands[-1][-1][1] is U
    for stacked, base in ((tV, V), (tW, W)):
        assert all(np.shares_memory(block.matrix, base.matrix)
                   for band in stacked.bands for _, block in band if block.matrix.size)
    P, Q, _ = _triangular_toeplitz_maps(n)
    assert np.shares_memory(Q.matrix, P.matrix)
    sU, _, _ = _symmetric_maps(n)
    assert [block for (_, block), in sU.second.bands] == [
        _toeplitz_symbol(m) for m in range(n, 0, -2)]


def test_order_keyed_caches_stay_bounded():
    for cache in (_toeplitz_symbol, _toeplitz_maps, _hankel_maps, _tph_maps,
                  _triangular_toeplitz_maps, _skew_symmetric_maps, dft_matrix, idft_matrix,
                  root_table):
        assert cache.cache_info().maxsize == ORDER_CACHE_SIZE
    assert _symmetric_maps.cache_info().maxsize == STACKED_CACHE_SIZE
    for n in range(1, STACKED_CACHE_SIZE + 6):
        _symmetric_maps(n)
    assert _symmetric_maps.cache_info().currsize == STACKED_CACHE_SIZE


def library_caches():
    """Every lru_cache function of the library's modules, by name."""
    return {f"{module.__name__}.{name}": value
            for module in vars(bilinear_kernels).values() if isinstance(module, ModuleType)
            and module.__name__.startswith("bilinear_kernels.")
            for name, value in vars(module).items() if hasattr(value, "cache_info")}


def test_multilevel_sweep_with_fresh_f_stays_within_every_cache_bound():
    """Each multilevel product reads its levels' kernel maps; a sweep over
    twice F_CACHE_SIZE f-circulant levels, each with a fresh f, must leave
    every cache of the library at or under its bound."""
    caches = library_caches()
    assert {"bilinear_kernels.kernels._fcirc_maps", "bilinear_kernels.spectral.dft_matrix",
            "bilinear_kernels.structures._placement"} <= caches.keys()
    rng = np.random.default_rng(7)
    for k in range(2 * F_CACHE_SIZE):
        f = complex(1.0 + k / 64, 0.5)
        levels = (LevelSpec(StructureKind.F_CIRCULANT, 3, f=f),
                  LevelSpec(StructureKind.TOEPLITZ, 2))
        M = structured(StructureKind.MULTILEVEL, 6, rng.standard_normal(9), levels=levels)
        multilevel_matvec(M, variables(rng.standard_normal(6)), CountContext())
    for name, cache in caches.items():
        info = cache.cache_info()
        assert info.maxsize is not None, name
        assert info.currsize <= info.maxsize, name


def test_explicit_support_must_match_the_matrix():
    with pytest.raises(ValueError):
        ConstantMap(np.ones((2, 3)), np.ones((3, 2), dtype=bool))
    M = ConstantMap(np.array([[1.0, 0.0]]), np.array([[True, True]]))
    assert M.support.all() and not M.matrix.flags.writeable
