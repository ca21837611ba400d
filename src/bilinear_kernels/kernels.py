"""Minimum-multiplication kernels for structured matrix-vector products.

Every kernel carries an exact bilinear-multiplication count that depends
only on the problem size, never on the input values: structurally-zero
transform bins are skipped by construction, not detected numerically.
The counts per size n:

    circulant, f-circulant          n
    toeplitz, hankel, triangular    2n - 1
    toeplitz-plus-hankel            4n - 3
    symmetric                       n(n+1)/2
    skew-symmetric                  n^2 - n - ceil((n-1)/2) + 1   (n >= 2)
    sparse                          #pattern
    multilevel                      product of the level counts
    toeplitz matmul                 n(2n-1)
    2x2 commutator                  6

Each Toeplitz-family product runs as three cached constant maps,
W (U t * V x): U is the parameter (symbol) map, V the input map and W the
output map, each composed once from the chain of embedding, padding,
transform, bin-skipping and reversal steps it replaces, with that chain's
structural support.  Toeplitz uses the live bins 1..2n-1 of the 2n-point
embedding; Hankel shares U and V and reads W with its rows reversed; tph
reads the same maps without bin 1; triangular Toeplitz folds its zero
padding and both reversals into a length 2n-1 transform.  The symmetric
kernel peels its Hankel stages, applies each stage's h to that order's
symbol map, and then runs every stage at once: one stacked input map,
one pointwise product and one stacked output map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .counting import (ConstantMap, CountContext, TrackedScalar, TrackedVector, add,
                       add_at, apply_matrix, as_matrix, as_vector, broadcast_add, concat,
                       match_output, mul, neg, propagate, read_only, reciprocal, scale,
                       signed_take, sub, take, to_scalars, vadd, vmul, vneg, vsub,
                       zero_vector)
from .spectral import (F_CACHE_SIZE, dft_matrix, idft_matrix, principal_root,
                       scaled_dft_matrix, scaled_idft_matrix, twiddles)
from .structures import (LevelSpec, SparsityPattern, StructureKind, StructureSpec,
                         StructuredMatrix, check_level, circulant_placement,
                         f_circulant_placement, hankel_placement, skew_symmetric_placement,
                         sparse_placement, symmetric_placement, toeplitz_placement,
                         tph_placement, triangular_toeplitz_placement, upper_index)


class SingularMatrix(ValueError):
    """A transform value of the parameter vector is numerically zero."""


def formula_count(kind: StructureKind, n: int, pattern: SparsityPattern | None = None,
                  levels: tuple[LevelSpec, ...] | None = None) -> int:
    """Closed-form bilinear multiplication count of the fast kernel."""
    kind = StructureKind(kind)
    if kind is StructureKind.MULTILEVEL:
        return math.prod(formula_count(lev.kind, lev.n, lev.pattern) for lev in levels)
    return SPECS[kind].count(n, pattern)


@dataclass
class KernelReport:
    """Output of one kernel run plus its counters and the closed-form count."""

    output: list[TrackedScalar]
    counts: CountContext
    formula_count: int


# ---------------------------------------------------------------------------
# Circulant and f-circulant
# ---------------------------------------------------------------------------

@lru_cache(maxsize=F_CACHE_SIZE)
def _fcirc_maps(n: int, f: complex):
    """Constant transforms diagonalizing the f-circulant action.

    With data d (wrap factors stripped from the first column) the matrix is
    A[i][j] = d[(i-j) mod n] * f^{[i>j]}; over the reindexed coefficients
    x[m] = d[(n-m) mod n] the product Av equals post @ diag(eval @ x) @ pre @ v
    where eval evaluates at the n roots of t^n = f.
    """
    perm = read_only((n - np.arange(n)) % n)
    rho = principal_root(f, n)
    j = np.arange(n)
    pre = idft_matrix(n).matrix * (rho ** -j.astype(float))[None, :]
    post = (rho ** j)[:, None] * dft_matrix(n).matrix
    return perm, scaled_dft_matrix(n, f), ConstantMap(pre), ConstantMap(post)


def _f_circulant_kernel(d: TrackedVector, x: TrackedVector, ctx: CountContext,
                        f: complex, pattern=None) -> TrackedVector:
    perm, ev, pre, post = _fcirc_maps(len(x), complex(f))
    dhat = apply_matrix(ev, take(d, perm), ctx)
    u = apply_matrix(pre, x, ctx)
    prods = vmul(dhat, u, ctx)
    return apply_matrix(post, prods, ctx)


def _circulant_kernel(c, x, ctx, f=None, pattern=None):
    return _f_circulant_kernel(c, x, ctx, 1.0)


def circulant_matvec(c, x, ctx: CountContext):
    """Circ(c) @ x in exactly n bilinear multiplications."""
    return _run(StructureKind.CIRCULANT, c, x, ctx)


def f_circulant_matvec(c, f: complex, x, ctx: CountContext):
    """f-circulant product in exactly n bilinear multiplications; f must be nonzero."""
    return _run(StructureKind.F_CIRCULANT, c, x, ctx, f)


def _spectrum_or_raise(vec: TrackedVector, M: ConstantMap, ctx: CountContext,
                       params: TrackedVector) -> TrackedVector:
    hat = apply_matrix(M, vec, ctx)
    floor = 1e-12 * float(np.linalg.norm(params.values))
    if np.any(np.abs(hat.values) <= floor):
        raise SingularMatrix("a transform value of the parameter vector is zero")
    return hat


def circulant_inverse(c, ctx: CountContext):
    """First column of Circ(c)^-1 using n divisions and zero bilinear mults."""
    cv = as_vector(c)
    n = len(cv)
    chat = _spectrum_or_raise(cv, dft_matrix(n), ctx, cv)
    inv_hat = reciprocal(chat, ctx)
    return match_output(c, apply_matrix(idft_matrix(n), inv_hat, ctx))


def f_circulant_inverse(c, f: complex, ctx: CountContext):
    """Parameters of the inverse f-circulant; n divisions, zero bilinear mults."""
    if f == 0:
        raise ValueError("f must be nonzero")
    cv = as_vector(c)
    n = len(cv)
    perm, ev, _, _ = _fcirc_maps(n, complex(f))
    xhat = _spectrum_or_raise(take(cv, perm), ev, ctx, cv)
    inv_hat = reciprocal(xhat, ctx)
    x_inv = apply_matrix(scaled_idft_matrix(n, complex(f)), inv_hat, ctx)
    return match_output(c, take(x_inv, perm))


# ---------------------------------------------------------------------------
# Gauss 3-multiplication complex product
# ---------------------------------------------------------------------------

def gauss_complex_mul(a: TrackedScalar, b: TrackedScalar, c: TrackedScalar,
                      d: TrackedScalar, ctx: CountContext):
    """(a+ib)(c+id) -> (ac-bd, ad+bc) with exactly three multiplications."""
    m1 = mul(add(a, b, ctx), add(c, d, ctx), ctx)
    m2 = mul(a, c, ctx)
    m3 = mul(b, d, ctx)
    re = sub(m2, m3, ctx)
    im = sub(sub(m1, m2, ctx), m3, ctx)
    return re, im


# ---------------------------------------------------------------------------
# Toeplitz family: three fused transforms per product
# ---------------------------------------------------------------------------

# Bounds of the kernel-map caches keyed on an order.  A per-order map takes
# O(n^2) memory and a symmetric product of order n reads those of n/2 orders;
# the stacked symmetric maps take O(n^3), so fewer of them are kept.
ORDER_CACHE_SIZE = 128
STACKED_CACHE_SIZE = 16


def _fused_product(U: ConstantMap, V: ConstantMap, W: ConstantMap, t: TrackedVector,
                   x: TrackedVector, ctx: CountContext) -> TrackedVector:
    """W (U t * V x): parameter transform, input transform, pointwise
    products, output transform."""
    return apply_matrix(W, vmul(apply_matrix(U, t, ctx), apply_matrix(V, x, ctx), ctx), ctx)


def _live_bins(n: int) -> np.ndarray:
    """Bins 1..2n-1 of the 2n-point transform of the circulant embedding."""
    return np.arange(1, 2 * n)[:, None]


@lru_cache(maxsize=ORDER_CACHE_SIZE)
def _toeplitz_symbol(n: int) -> ConstantMap:
    """Live bins of the 2n-point DFT of the circulant embedding of t.

    With t[j] the j-th parameter, the embedding's first column is t[n-1],
    ..., t[0], -sum(t), t[2n-2], ..., t[n]: the free entry at position n
    makes the frequency-0 bin vanish, so bin k of t[j] at position pos(j) is
    omega^(k*pos(j)) - omega^(k*n).  Every bin reads every parameter through
    the -sum entry, so the support is full even where the two terms cancel.
    """
    j = np.arange(2 * n - 1)
    pos = np.where(j < n, n - 1 - j, 3 * n - 1 - j)
    k = _live_bins(n)
    U = twiddles(2 * n, k, pos) - twiddles(2 * n, k, n)
    return ConstantMap(U, np.broadcast_to(True, U.shape))


def _toeplitz_input_output(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Live bins of the 2n-point DFT of x padded with n zeros, and the first
    n rows of the inverse DFT restricted to those bins."""
    V = twiddles(2 * n, _live_bins(n), np.arange(n))
    return V, V.T.conj() / (2 * n)


@lru_cache(maxsize=ORDER_CACHE_SIZE)
def _toeplitz_maps(n: int) -> tuple[ConstantMap, ConstantMap, ConstantMap]:
    V, W = _toeplitz_input_output(n)
    return _toeplitz_symbol(n), ConstantMap(V), ConstantMap(W)


@lru_cache(maxsize=ORDER_CACHE_SIZE)
def _hankel_maps(n: int) -> tuple[ConstantMap, ConstantMap, ConstantMap]:
    """The Toeplitz maps with the output rows reversed (a view)."""
    U, V, W = _toeplitz_maps(n)
    return U, V, W[::-1]


@lru_cache(maxsize=ORDER_CACHE_SIZE)
def _tph_maps(n: int) -> tuple[ConstantMap, tuple[ConstantMap, ConstantMap, ConstantMap]]:
    """The frequency-1 row of the Toeplitz symbol, and the Toeplitz maps
    without bin 1 (views)."""
    U, V, W = _toeplitz_maps(n)
    return U[:1], (U[1:], V[1:], W[:, 1:])


def _toeplitz_kernel(t, x, ctx, f=None, pattern=None):
    return _fused_product(*_toeplitz_maps(len(x)), t, x, ctx)


def _hankel_kernel(h, x, ctx, f=None, pattern=None):
    return _fused_product(*_hankel_maps(len(x)), h, x, ctx)


def toeplitz_matvec(t, x, ctx: CountContext):
    """Toeplitz product via the 2n-point embedding; exactly 2n-1 multiplications.

    The frequency-0 bin of the embedded symbol vanishes by the choice of the
    free entry, so its product is never formed.
    """
    return _run(StructureKind.TOEPLITZ, t, x, ctx)


def hankel_matvec(h, x, ctx: CountContext):
    """Hankel product as a row-reversed Toeplitz product; 2n-1 multiplications."""
    return _run(StructureKind.HANKEL, h, x, ctx)


@lru_cache(maxsize=ORDER_CACHE_SIZE)
def _triangular_toeplitz_maps(n: int) -> tuple[ConstantMap, ConstantMap, ConstantMap]:
    """Length 2n-1 cyclic convolution of a with reversed x, zero padding and
    both reversals folded in: DFT[:, :n], its column-reversed view, and the
    first n rows of the inverse DFT in reverse order."""
    N = 2 * n - 1
    k = np.arange(N)
    i = np.arange(n)
    P = ConstantMap(twiddles(N, k[:, None], i))
    return P, P[:, ::-1], ConstantMap(twiddles(N, i[::-1, None], k).conj() / N)


def _triangular_toeplitz_kernel(a, x, ctx, f=None, pattern=None):
    return _fused_product(*_triangular_toeplitz_maps(len(x)), a, x, ctx)


def triangular_toeplitz_matvec(a, x, ctx: CountContext):
    """Upper-triangular Toeplitz product through a length 2n-1 cyclic
    convolution of the coefficient polynomials; exactly 2n-1 multiplications."""
    return _run(StructureKind.UPPER_TRIANGULAR_TOEPLITZ, a, x, ctx)


def _tph_kernel(th, x, ctx, f=None, pattern=None):
    n = len(x)
    t = take(th, np.arange(2 * n - 1))
    h = take(th, np.arange(2 * n - 1, 4 * n - 2))
    shift_row, toeplitz_maps = _tph_maps(n)
    a = scale(apply_matrix(shift_row, t, ctx), -1.0 / (2 * n), ctx)
    zt = _fused_product(*toeplitz_maps, broadcast_add(t, a, ctx), x, ctx)
    zh = _hankel_kernel(broadcast_add(h, a, ctx, negate=True), x, ctx)
    return vadd(zt, zh, ctx)


def tph_matvec(t, h, x, ctx: CountContext):
    """(Toeplitz + Hankel) product in exactly 4n-3 multiplications.

    An all-ones shift a moves mass between the two summands.  The embedded
    symbol's frequency-1 value is affine in a with coefficient 2n, and a is
    chosen so that it vanishes, leaving 2n-2 live products on the Toeplitz
    side, plus 2n-1 on the Hankel side.
    """
    tv, hv = as_vector(t), as_vector(h)
    if len(tv) != len(hv):
        raise ValueError(f"tph needs as many anti-diagonals as diagonals, "
                         f"got {len(hv)} and {len(tv)}")
    return _run(StructureKind.TOEPLITZ_PLUS_HANKEL, concat(tv, hv), x, ctx)


# ---------------------------------------------------------------------------
# Symmetric: peel off bordered Hankel blocks of sizes n, n-2, ...
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _symmetric_stage_maps(m: int):
    first = np.concatenate([upper_index(m, 0, np.arange(m)),
                            upper_index(m, np.arange(1, m), m - 1)])
    i, j = np.triu_indices(m - 2)
    return read_only(first), read_only(upper_index(m, i + 1, j + 1)), read_only(i + j + 2)


def _peel(s: TrackedVector, n: int, ctx: CountContext):
    """Yield the Hankel data h of each stage: the block of order m = n - 2k at
    offset k, made of its first row and last column.  The interior block of
    order m-2 is what remains once that Hankel matrix is taken off; a 2x2 or
    1x1 block is itself Hankel and ends the peeling."""
    m = n
    while m > 2:
        first, outer_param, h1_pos = _symmetric_stage_maps(m)
        h = take(s, first)
        yield h
        s = vsub(take(s, outer_param), take(h, h1_pos), ctx)
        m -= 2
    if m > 0:
        yield s


@lru_cache(maxsize=STACKED_CACHE_SIZE)
def _symmetric_maps(n: int):
    """Per-stage symbol maps, and every stage's Hankel input and output
    transforms stacked into one R x n and one n x R map, R = n(n+1)/2.

    Stage k (order m = n - 2k) owns 2m - 1 consecutive product rows; its
    input block reads columns k..n-k-1 and its output block, row-reversed,
    writes rows k..n-k-1.
    """
    orders = range(n, 0, -2)
    R = n * (n + 1) // 2
    V = np.zeros((R, n), dtype=complex)
    W = np.zeros((n, R), dtype=complex)
    blocks = np.zeros((R, n), dtype=bool)
    row = 0
    for k, m in enumerate(orders):
        Vm, Wm = _toeplitz_input_output(m)
        bins, cols = slice(row, row + 2 * m - 1), slice(k, k + m)
        V[bins, cols] = Vm
        W[cols, bins] = Wm[::-1]
        blocks[bins, cols] = True
        row += 2 * m - 1
    symbols = tuple(_toeplitz_symbol(m) for m in orders)
    return symbols, ConstantMap(V, blocks), ConstantMap(W, blocks.T)


def _symmetric_kernel(s, x, ctx, f=None, pattern=None):
    n = len(x)
    symbols, V, W = _symmetric_maps(n)
    shat = concat(*(apply_matrix(U, h, ctx) for U, h in zip(symbols, _peel(s, n, ctx))))
    return apply_matrix(W, vmul(shat, apply_matrix(V, x, ctx), ctx), ctx)


def symmetric_matvec(s, x, ctx: CountContext):
    """Symmetric product as a sum of nested Hankel products; n(n+1)/2 mults."""
    return _run(StructureKind.SYMMETRIC, s, x, ctx)


def symmetric_hankel_stages(s, n: int) -> list[np.ndarray]:
    """Per-stage Hankel data values of the peeling (sizes n, n-2, ..., <=2)."""
    return [h.values.copy() for h in _peel(as_vector(s), n, CountContext())]


# ---------------------------------------------------------------------------
# Skew-symmetric: skew-circulant part plus a paired sparse remainder
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _skew_maps(n: int):
    """Index maps of the remainder A - C (C the skew-circulant sharing A's
    first row): one product per entry (i, j), i, j >= 1, i != j, and one per
    pair of first-column entries (i, 0), (n-i, 0), i < n-i, whose values are
    negatives of each other."""
    pairs = [(i, 0) for i in range(1, n) if i < n - i]
    entries = pairs + [(i, j) for i in range(1, n) for j in range(1, n) if i != j]
    rows, cols = np.array(entries, dtype=int).reshape(-1, 2).T
    pa = upper_index(n, np.minimum(rows, cols), np.maximum(rows, cols), strict=True)
    sa = np.where(rows < cols, 1.0, -1.0)                  # A[i][j] = sa * w[pa]
    pc = n - 1 - (rows - cols) % n                          # C[i][j] = sc * w[pc]
    sc = np.where(rows > cols, -1.0, 1.0)
    d_param = np.arange(n - 2, -1, -1)                      # d_m = first-row entry (0, n-m)
    partner = n - rows[:len(pairs)]
    return tuple(read_only(m) for m in (d_param, pa, sa, pc, sc, rows, cols, partner))


def _skew_symmetric_kernel(w, x, ctx, f=None, pattern=None):
    n = len(x)
    if n == 1:
        return zero_vector(1, x)
    d_param, pa, sa, pc, sc, rows, cols, partner = _skew_maps(n)
    d = concat(zero_vector(1, w), take(w, d_param))
    out = _f_circulant_kernel(d, x, ctx, -1.0)
    remainder = vsub(signed_take(w, pa, sa, ctx), signed_take(w, pc, sc, ctx), ctx)
    prods = vmul(remainder, take(x, cols), ctx)
    if len(partner):
        add_at(out, partner, vneg(take(prods, np.arange(len(partner)))), ctx)
    add_at(out, rows, prods, ctx)
    return out


def skew_symmetric_matvec(w, x, ctx: CountContext):
    """Skew-symmetric product in n^2 - n - ceil((n-1)/2) + 1 multiplications.

    The matrix splits as a skew-circulant sharing its first row (n products
    via the f = -1 transform) plus a remainder with zero first row and zero
    diagonal whose first-column entries come in +/- pairs, each pair sharing
    one product.  Order 1 is the zero map and costs nothing.
    """
    return _run(StructureKind.SKEW_SYMMETRIC, w, x, ctx)


# ---------------------------------------------------------------------------
# Sparse: entrywise over the pattern
# ---------------------------------------------------------------------------

def _sparse_kernel(data, x, ctx, f, pattern):
    """Entrywise product; a Constant-zero parameter (all-zero coefficient row
    in the extraction lane) is skipped."""
    nonzero = np.any(data.values != 0, axis=tuple(range(1, data.values.ndim)))
    pos = np.flatnonzero(data.variable | nonzero)
    out = zero_vector(pattern.rows, x)
    if len(pos):
        rows, cols = np.array(pattern.entries, dtype=int)[pos].T
        prods = vmul(take(data, pos), take(x, cols), ctx)
        add_at(out, rows, prods, ctx)
    return out


# ---------------------------------------------------------------------------
# The structure table: one StructureSpec per single-level kind, in enum order
# ---------------------------------------------------------------------------

# Per kind: params, count and dim as functions of (n, pattern); the placement
# of its parameters in the grid; the kernel; whether it may be a level.
SPECS: dict[StructureKind, StructureSpec] = {
    StructureKind.CIRCULANT: StructureSpec(
        lambda n, _: n, lambda n, _: n, lambda n, _: n,
        circulant_placement, _circulant_kernel, multilevel_ok=True),
    StructureKind.F_CIRCULANT: StructureSpec(
        lambda n, _: n, lambda n, _: n, lambda n, _: n,
        f_circulant_placement, _f_circulant_kernel, multilevel_ok=True, needs_f=True),
    StructureKind.TOEPLITZ: StructureSpec(
        lambda n, _: 2 * n - 1, lambda n, _: 2 * n - 1, lambda n, _: 2 * n - 1,
        toeplitz_placement, _toeplitz_kernel, multilevel_ok=True),
    StructureKind.HANKEL: StructureSpec(
        lambda n, _: 2 * n - 1, lambda n, _: 2 * n - 1, lambda n, _: 2 * n - 1,
        hankel_placement, _hankel_kernel, multilevel_ok=True),
    StructureKind.UPPER_TRIANGULAR_TOEPLITZ: StructureSpec(
        lambda n, _: n, lambda n, _: 2 * n - 1, lambda n, _: n,
        triangular_toeplitz_placement, _triangular_toeplitz_kernel, multilevel_ok=False),
    # The Toeplitz and Hankel spaces intersect in the two-dimensional space of
    # checkerboard-constant matrices once n >= 2, so their sum has dimension
    # 4n-4 (and 1 at n = 1, where every space is the scalars).
    StructureKind.TOEPLITZ_PLUS_HANKEL: StructureSpec(
        lambda n, _: 4 * n - 2, lambda n, _: 4 * n - 3,
        lambda n, _: 1 if n == 1 else 4 * n - 4,
        tph_placement, _tph_kernel, multilevel_ok=True),
    StructureKind.SYMMETRIC: StructureSpec(
        lambda n, _: n * (n + 1) // 2, lambda n, _: n * (n + 1) // 2,
        lambda n, _: n * (n + 1) // 2,
        symmetric_placement, _symmetric_kernel, multilevel_ok=True),
    StructureKind.SKEW_SYMMETRIC: StructureSpec(
        lambda n, _: n * (n - 1) // 2,
        lambda n, _: 0 if n == 1 else n * n - n - math.ceil((n - 1) / 2) + 1,
        lambda n, _: n * (n - 1) // 2,
        skew_symmetric_placement, _skew_symmetric_kernel, multilevel_ok=False),
    StructureKind.SPARSE: StructureSpec(
        lambda n, pattern: len(pattern), lambda n, pattern: len(pattern),
        lambda n, pattern: len(pattern),
        sparse_placement, _sparse_kernel, multilevel_ok=True, needs_pattern=True),
}


def _run(kind: StructureKind, data, x, ctx: CountContext, f: complex | None = None):
    """A public per-kind product: convert the inputs, check the parameter
    count against the table, run its kernel, return the output like x."""
    dv, xv = as_vector(data), as_vector(x)
    want = check_level(kind, len(xv), f, None)
    if len(dv) != want:
        raise ValueError(f"{kind.value} of order {len(xv)} needs {want} parameters, "
                         f"got {len(dv)}")
    return match_output(x, SPECS[kind].kernel(dv, xv, ctx, f))


# ---------------------------------------------------------------------------
# Multilevel (Kronecker-structured) products
# ---------------------------------------------------------------------------

def _apply_blocks(M: ConstantMap, values: np.ndarray, flags: np.ndarray,
                  ctx: CountContext) -> tuple[np.ndarray, np.ndarray]:
    """Apply a constant map to every column of a block of values at once."""
    m, k = M.shape
    cols = values.shape[1]
    ctx.count_scalar(m * k * cols)
    if k > 1:
        ctx.count_addition(m * (k - 1) * cols)
    return M.matrix @ values, propagate(M.support, flags)


def _multilevel_impl(levels: tuple[LevelSpec, ...], data: TrackedVector,
                     x: TrackedVector, ctx: CountContext) -> TrackedVector:
    if len(levels) == 1:
        lev = levels[0]
        return SPECS[lev.kind].kernel(data, x, ctx, lev.f, lev.pattern)
    from .extraction import level_decomposition
    lev = levels[0]
    U, V, W = level_decomposition(lev)
    r, p0 = U.shape
    n0 = W.shape[0]
    inner_plen = len(data) // p0
    inner_n = len(x) // n0
    dvals = data.values.reshape(p0, inner_plen)
    dflag = data.variable.reshape(p0, inner_plen)
    xvals = x.values.reshape(n0, inner_n)
    xflag = x.variable.reshape(n0, inner_n)
    pv, pf = _apply_blocks(U, dvals, dflag, ctx)
    xv, xf = _apply_blocks(V, xvals, xflag, ctx)
    zvals = np.empty((r, inner_n), dtype=complex)
    zflag = np.empty((r, inner_n), dtype=bool)
    for i in range(r):
        z = _multilevel_impl(levels[1:], TrackedVector(pv[i], pf[i]),
                             TrackedVector(xv[i], xf[i]), ctx)
        zvals[i] = z.values
        zflag[i] = z.variable
    outv, outf = _apply_blocks(W, zvals, zflag, ctx)
    return TrackedVector(outv.reshape(-1), outf.reshape(-1))


def multilevel_matvec(M: StructuredMatrix, x, ctx: CountContext):
    """Nested product for Kronecker-structured matrices.

    The outer kernel runs with block scalars: each of its bilinear products
    becomes an inner structured product on linear combinations of the inner
    parameter blocks, so the count is the product of the per-level counts.
    Level kinds whose table entry is not multilevel_ok are rejected.
    """
    if M.kind is not StructureKind.MULTILEVEL:
        raise ValueError("multilevel_matvec expects a multilevel matrix")
    for lev in M.levels:
        if not SPECS[lev.kind].multilevel_ok:
            raise ValueError(f"unsupported level kind {lev.kind.value}")
    xv = as_vector(x)
    if len(xv) != M.n:
        raise ValueError(f"vector of length {len(xv)} for order {M.n}")
    return match_output(x, _multilevel_impl(M.levels, M.data_vector(), xv, ctx))


# ---------------------------------------------------------------------------
# Dispatch over StructuredMatrix, matmul, commutator, reports
# ---------------------------------------------------------------------------

def structured_matvec(M: StructuredMatrix, x, ctx: CountContext):
    """Run the minimum-multiplication kernel for any structured matrix."""
    if M.kind is StructureKind.MULTILEVEL:
        return multilevel_matvec(M, x, ctx)
    xv = as_vector(x)
    if len(xv) != M.n:
        raise ValueError(f"vector of length {len(xv)} for order {M.n}")
    out = SPECS[M.kind].kernel(M.data_vector(), xv, ctx, M.f, M.pattern)
    return match_output(x, out)


def toeplitz_matmul(t, Y, ctx: CountContext):
    """Toeplitz times dense, column by column: n(2n-1) multiplications."""
    tv = as_vector(t)
    yvals, yflags = as_matrix(Y)
    n = yvals.shape[0]
    if yvals.shape[1] != n or len(tv) != 2 * n - 1:
        raise ValueError("toeplitz_matmul expects 2n-1 diagonals and an n x n factor")
    cols = [to_scalars(toeplitz_matvec(tv, TrackedVector(yvals[:, j], yflags[:, j]), ctx))
            for j in range(n)]
    return [list(row) for row in zip(*cols)]


def commutator_2x2(A, X, ctx: CountContext):
    """[A, X] = AX - XA for 2x2 matrices with exactly six multiplications.

    Reduces to a 3-vector bilinear form over s = (-c, b, a-d) and
    t = (x-w, y, z); the junk product s3*t1 of the underlying realization is
    never formed, and the output trace is zero by construction.
    """
    (a, b), (c, d) = A[0], A[1]
    (xx, y), (z, ww) = X[0], X[1]
    s1, s2, s3 = neg(c), b, sub(a, d, ctx)
    t1, t2, t3 = sub(xx, ww, ctx), y, z
    p11 = mul(s1, t1, ctx)
    p33 = mul(s3, t3, ctx)
    p12 = mul(s1, t2, ctx)
    p23 = mul(s2, t3, ctx)
    p21 = mul(s2, t1, ctx)
    p32 = mul(s3, t2, ctx)
    w1 = add(p12, p23, ctx)
    w2 = add(neg(p21), p32, ctx)
    w3 = sub(neg(p11), p33, ctx)
    return [[w1, w2], [w3, neg(w1)]]


def kernel_report(M: StructuredMatrix, x) -> KernelReport:
    """Run the kernel on a fresh context and package counts and formula."""
    ctx = CountContext()
    out = structured_matvec(M, x, ctx)
    formula = formula_count(M.kind, M.n, M.pattern, M.levels)
    out_list = out if isinstance(out, list) else to_scalars(out)
    return KernelReport(out_list, ctx.snapshot(), formula)
