"""Discrete Fourier transforms as multiplication-free linear maps.

In the bilinear-complexity model a DFT costs nothing: every twiddle factor
is a constant, so applying the transform spends only scalar multiplications
and additions.  Transforms are direct O(n^2) applications of cached constant
matrices; counting correctness outranks speed at the sizes this library
targets.  Each transform has one cache of ConstantMaps: the read-only matrix,
shared by all callers, and its nonzero support.  The caches keyed on an
order hold at most ORDER_CACHE_SIZE entries each, those keyed on a complex
f at most F_CACHE_SIZE.

No kernel reads these caches.  Every kernel builds its parameter, input
and output maps (see kernels.py) entry by entry from ``twiddles``, so only
the bins and rows it uses are stored, all in the kernels' one map store;
the circulant and f-circulant inverses read their kind's stored triple.
The caches here serve the public transforms below and the group triples
(groups._X8_MAPS).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .counting import ConstantMap, CountContext, apply_matrix, as_vector, match_output

# Bound of every cache keyed on an arbitrary complex f (or sparsity
# pattern).  It keeps all the (n, f) pairs of a sweep over n <= 16 and a
# handful of fixed f resident while fresh f values come and go.
F_CACHE_SIZE = 128
# Bound of every cache keyed on an order alone: the transforms here and the
# per-order kernel maps, each O(n^2) memory.
ORDER_CACHE_SIZE = 128


@dataclass(frozen=True)
class RootTable:
    """The n-th roots of unity omega^0 .. omega^{n-1}, omega = exp(2*pi*i/n)."""

    n: int
    omega_powers: tuple[complex, ...]


@lru_cache(maxsize=ORDER_CACHE_SIZE)
def root_table(n: int) -> RootTable:
    if n < 1:
        raise ValueError("root table needs n >= 1")
    powers = tuple(np.exp(2j * np.pi * k / n) for k in range(n))
    return RootTable(n, powers)


def principal_root(f: complex, n: int) -> complex:
    """Principal n-th root: |f|^(1/n) * exp(i*arg(f)/n), arg in (-pi, pi]."""
    f = complex(f)
    if f == 0:
        raise ValueError("f must be nonzero")
    return abs(f) ** (1.0 / n) * np.exp(1j * np.angle(f) / n)


def twiddles(n: int, k, j) -> np.ndarray:
    """omega^(k*j), omega = exp(2*pi*i/n), for broadcast integer index arrays.

    The exponent is reduced mod n and looked up in a table of the n powers,
    so equal residues give bit-identical entries and a map of any shape
    costs n exponentials."""
    return np.exp(1j * (2.0 * np.pi * (np.arange(n) / n)))[k * j % n]


@lru_cache(maxsize=ORDER_CACHE_SIZE)
def dft_matrix(n: int) -> ConstantMap:
    """W[k, j] = omega^(j*k); forward transform output[k] = sum_j v[j] W[k, j]."""
    k = np.arange(n)
    return ConstantMap(twiddles(n, k[:, None], k[None, :]))


@lru_cache(maxsize=ORDER_CACHE_SIZE)
def idft_matrix(n: int) -> ConstantMap:
    return ConstantMap(dft_matrix(n).matrix.conj() / n)


@lru_cache(maxsize=F_CACHE_SIZE)
def scaled_dft_matrix(n: int, f: complex) -> ConstantMap:
    """Evaluation at the n roots of x^n = f: M[k, j] = (rho*omega^k)^j."""
    rho = principal_root(f, n)
    j = np.arange(n)
    return ConstantMap(dft_matrix(n).matrix * rho ** j[None, :])


@lru_cache(maxsize=F_CACHE_SIZE)
def scaled_idft_matrix(n: int, f: complex) -> ConstantMap:
    rho = principal_root(f, n)
    j = np.arange(n)
    return ConstantMap((rho ** -j.astype(float))[:, None] * idft_matrix(n).matrix)


def dft(v, ctx: CountContext):
    """Forward DFT; zero bilinear multiplications by construction."""
    vec = as_vector(v)
    return match_output(v, apply_matrix(dft_matrix(len(vec)), vec, ctx))


def idft(v, ctx: CountContext):
    vec = as_vector(v)
    return match_output(v, apply_matrix(idft_matrix(len(vec)), vec, ctx))


def scaled_dft(v, f: complex, ctx: CountContext):
    """Evaluate the polynomial with coefficients v at the n roots of x^n = f."""
    vec = as_vector(v)
    return match_output(v, apply_matrix(scaled_dft_matrix(len(vec), complex(f)), vec, ctx))


def scaled_idft(v, f: complex, ctx: CountContext):
    vec = as_vector(v)
    return match_output(v, apply_matrix(scaled_idft_matrix(len(vec), complex(f)), vec, ctx))
