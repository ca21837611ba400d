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
                       scaled_dft_matrix, scaled_idft_matrix)
from .structures import (LevelSpec, SparsityPattern, StructureKind, StructuredMatrix,
                         skew_index, symmetric_index, _MULTILEVEL_KINDS)


class SingularMatrix(ValueError):
    """A transform value of the parameter vector is numerically zero."""


def formula_count(kind: StructureKind, n: int, pattern: SparsityPattern | None = None,
                  levels: tuple[LevelSpec, ...] | None = None) -> int:
    """Closed-form bilinear multiplication count of the fast kernel."""
    kind = StructureKind(kind)
    if kind in (StructureKind.CIRCULANT, StructureKind.F_CIRCULANT):
        return n
    if kind in (StructureKind.TOEPLITZ, StructureKind.HANKEL,
                StructureKind.UPPER_TRIANGULAR_TOEPLITZ):
        return 2 * n - 1
    if kind is StructureKind.TOEPLITZ_PLUS_HANKEL:
        return 4 * n - 3
    if kind is StructureKind.SYMMETRIC:
        return n * (n + 1) // 2
    if kind is StructureKind.SKEW_SYMMETRIC:
        return 0 if n == 1 else n * n - n - math.ceil((n - 1) / 2) + 1
    if kind is StructureKind.SPARSE:
        return len(pattern)
    if kind is StructureKind.MULTILEVEL:
        out = 1
        for lev in levels:
            out *= formula_count(lev.kind, lev.n, lev.pattern)
        return out
    raise ValueError(f"no count formula for kind {kind}")


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


def _fcirc_impl(d: TrackedVector, f: complex, x: TrackedVector, ctx: CountContext) -> TrackedVector:
    n = len(x)
    if len(d) != n:
        raise ValueError(f"f-circulant of order {n} needs {n} parameters, got {len(d)}")
    perm, ev, pre, post = _fcirc_maps(n, complex(f))
    dhat = apply_matrix(ev, take(d, perm), ctx)
    u = apply_matrix(pre, x, ctx)
    prods = vmul(dhat, u, ctx)
    return apply_matrix(post, prods, ctx)


def circulant_matvec(c, x, ctx: CountContext):
    """Circ(c) @ x in exactly n bilinear multiplications."""
    return match_output(x, _fcirc_impl(as_vector(c), 1.0, as_vector(x), ctx))


def f_circulant_matvec(c, f: complex, x, ctx: CountContext):
    """f-circulant product in exactly n bilinear multiplications; f must be nonzero."""
    if f == 0:
        raise ValueError("f must be nonzero")
    return match_output(x, _fcirc_impl(as_vector(c), complex(f), as_vector(x), ctx))


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
# Toeplitz family
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _toeplitz_maps(n: int):
    front = read_only(np.arange(n - 1, -1, -1))        # t_0, t_-1, ..., t_-(n-1)
    back = read_only(np.arange(2 * n - 2, n - 1, -1))  # t_{n-1}, ..., t_1  (empty for n = 1)
    neg_sum = ConstantMap(-np.ones((1, 2 * n - 1), dtype=complex))
    return front, back, neg_sum


def _toeplitz_bins(t: TrackedVector, x: TrackedVector, ctx: CountContext,
                   skip_bins: int, shift: TrackedVector | None = None) -> TrackedVector:
    """Embedded-circulant Toeplitz product, skipping the first `skip_bins`
    transform products (each structurally zero by the choice of the free
    embedding entries).  Returns the first n output coordinates."""
    n = len(x)
    front, back, neg_sum = _toeplitz_maps(n)
    if shift is not None:
        t = broadcast_add(t, shift, ctx)
    y = apply_matrix(neg_sum, t, ctx)
    c = concat(take(t, front), y, take(t, back))
    chat = apply_matrix(dft_matrix(2 * n), c, ctx)
    xext = concat(x, zero_vector(n, x))
    xhat = apply_matrix(dft_matrix(2 * n), xext, ctx)
    live = np.arange(skip_bins, 2 * n)
    prods = vmul(take(chat, live), take(xhat, live), ctx)
    zhat = concat(zero_vector(skip_bins, prods), prods)
    z = apply_matrix(idft_matrix(2 * n), zhat, ctx)
    return take(z, np.arange(n))


def toeplitz_matvec(t, x, ctx: CountContext):
    """Toeplitz product via the 2n-point embedding; exactly 2n-1 multiplications.

    The frequency-0 bin of the embedded symbol vanishes by the choice of the
    free entry, so its product is never formed.
    """
    tv, xv = as_vector(t), as_vector(x)
    if len(tv) != 2 * len(xv) - 1:
        raise ValueError(f"toeplitz of order {len(xv)} needs {2 * len(xv) - 1} diagonals")
    return match_output(x, _toeplitz_bins(tv, xv, ctx, skip_bins=1))


def hankel_matvec(h, x, ctx: CountContext):
    """Hankel product as a row-reversed Toeplitz product; 2n-1 multiplications."""
    hv, xv = as_vector(h), as_vector(x)
    n = len(xv)
    if len(hv) != 2 * n - 1:
        raise ValueError(f"hankel of order {n} needs {2 * n - 1} anti-diagonals")
    z = _toeplitz_bins(hv, xv, ctx, skip_bins=1)
    return match_output(x, take(z, np.arange(n - 1, -1, -1)))


def triangular_toeplitz_matvec(a, x, ctx: CountContext):
    """Upper-triangular Toeplitz product through a length 2n-1 cyclic
    convolution of the coefficient polynomials; exactly 2n-1 multiplications."""
    av, xv = as_vector(a), as_vector(x)
    n = len(xv)
    if len(av) != n:
        raise ValueError(f"triangular toeplitz of order {n} needs {n} coefficients")
    N = 2 * n - 1
    p = concat(av, zero_vector(n - 1, av)) if n > 1 else av
    q0 = take(xv, np.arange(n - 1, -1, -1))
    q = concat(q0, zero_vector(n - 1, xv)) if n > 1 else q0
    phat = apply_matrix(dft_matrix(N), p, ctx)
    qhat = apply_matrix(dft_matrix(N), q, ctx)
    conv = apply_matrix(idft_matrix(N), vmul(phat, qhat, ctx), ctx)
    return match_output(x, take(conv, np.arange(n - 1, -1, -1)))


@lru_cache(maxsize=None)
def _tph_shift_row(n: int) -> ConstantMap:
    """Row computing the embedded symbol's frequency-1 value from the diagonals.

    The value is affine in the all-ones shift a with linear coefficient 2n
    (the self-test below fails loudly if that derivation were wrong)."""
    om = np.exp(2j * np.pi / (2 * n))
    coeff = sum(om ** j for j in range(2 * n) if j != n) - (2 * n - 1) * om ** n
    if abs(coeff - 2 * n) > 1e-9:
        raise AssertionError(f"frequency-1 shift coefficient {coeff} != {2 * n}")
    front, back, neg_sum = _toeplitz_maps(n)
    row = np.zeros((1, 2 * n - 1), dtype=complex)
    powers = om ** np.arange(2 * n)
    for pos, src in enumerate(front):
        row[0, src] += powers[pos]
    row[0] += powers[n] * neg_sum.matrix[0]
    for pos, src in enumerate(back):
        row[0, src] += powers[n + 1 + pos]
    return ConstantMap(row)


def tph_matvec(t, h, x, ctx: CountContext):
    """(Toeplitz + Hankel) product in exactly 4n-3 multiplications.

    An all-ones shift a moves mass between the two summands; a is chosen so
    the embedded Toeplitz symbol also vanishes at frequency 1, leaving 2n-2
    live products there, plus 2n-1 on the Hankel side.
    """
    tv, hv, xv = as_vector(t), as_vector(h), as_vector(x)
    n = len(xv)
    if len(tv) != 2 * n - 1 or len(hv) != 2 * n - 1:
        raise ValueError(f"tph of order {n} needs 2x{2 * n - 1} parameters")
    bin1 = apply_matrix(_tph_shift_row(n), tv, ctx)
    a = scale(bin1, -1.0 / (2 * n), ctx)
    zt = _toeplitz_bins(tv, xv, ctx, skip_bins=2, shift=a)
    h2 = broadcast_add(hv, a, ctx, negate=True)
    zh = _toeplitz_bins(h2, xv, ctx, skip_bins=1)
    zh = take(zh, np.arange(n - 1, -1, -1))
    return match_output(x, vadd(zt, zh, ctx))


# ---------------------------------------------------------------------------
# Symmetric: peel off bordered Hankel blocks of sizes n, n-2, ...
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _symmetric_stage_maps(m: int):
    idx = symmetric_index(m)
    first = np.array([idx[(0, j)] for j in range(m)]
                     + [idx[(i, m - 1)] for i in range(1, m)])
    inner = symmetric_index(m - 2)
    outer_param = np.empty(len(inner), dtype=int)
    h1_pos = np.empty(len(inner), dtype=int)
    for (i, j), k in inner.items():
        outer_param[k] = idx[(i + 1, j + 1)]
        h1_pos[k] = i + j + 2
    return read_only(first), read_only(outer_param), read_only(h1_pos)


def symmetric_matvec(s, x, ctx: CountContext):
    """Symmetric product as a sum of nested Hankel products; n(n+1)/2 mults.

    Each stage multiplies by the Hankel matrix made of the block's first row
    and last column, then recurses on the interior symmetric block of order
    m-2 (a 2x2 or 1x1 block is itself Hankel and terminates the recursion).
    """
    sv, xv = as_vector(s), as_vector(x)
    n = len(xv)
    if len(sv) != n * (n + 1) // 2:
        raise ValueError(f"symmetric of order {n} needs {n * (n + 1) // 2} parameters")
    out = zero_vector(n, xv)
    cur_s, cur_x, offset, m = sv, xv, 0, n
    while m > 0:
        if m <= 2:
            z = hankel_matvec(cur_s, cur_x, ctx)
            add_at(out, np.arange(offset, offset + m), z, ctx)
            break
        first, outer_param, h1_pos = _symmetric_stage_maps(m)
        h1 = take(cur_s, first)
        z = hankel_matvec(h1, cur_x, ctx)
        add_at(out, np.arange(offset, offset + m), z, ctx)
        cur_s = vsub(take(cur_s, outer_param), take(h1, h1_pos), ctx)
        cur_x = take(cur_x, np.arange(1, m - 1))
        offset += 1
        m -= 2
    return match_output(x, out)


def symmetric_hankel_stages(s, n: int) -> list[np.ndarray]:
    """Per-stage Hankel data values of the peeling (sizes n, n-2, ..., <=2)."""
    ctx = CountContext()
    cur = as_vector(s)
    stages = []
    m = n
    while m > 0:
        if m <= 2:
            stages.append(cur.values.copy())
            break
        first, outer_param, h1_pos = _symmetric_stage_maps(m)
        h1 = take(cur, first)
        stages.append(h1.values.copy())
        cur = vsub(take(cur, outer_param), take(h1, h1_pos), ctx)
        m -= 2
    return stages


# ---------------------------------------------------------------------------
# Skew-symmetric: skew-circulant part plus a paired sparse remainder
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _skew_maps(n: int):
    sidx = skew_index(n)

    def a_entry(i, j):
        return (sidx[(i, j)], 1.0) if i < j else (sidx[(j, i)], -1.0)

    def c_entry(i, j):
        m = (i - j) % n
        p = sidx[(0, n - m)]
        return (p, -1.0 if i > j else 1.0)

    d_param = np.arange(n - 2, -1, -1)  # d_m = first-row entry (0, n-m)

    entries = []  # (i, j) of remainder entries that get their own product
    pair_rows = []
    for i in range(1, n):
        partner = n - i
        if i < partner:
            entries.append((i, 0))
            pair_rows.append((len(entries) - 1, i, partner))
    npairs = len(entries)
    for i in range(1, n):
        for j in range(1, n):
            if i != j:
                entries.append((i, j))

    pa = np.array([a_entry(i, j)[0] for (i, j) in entries], dtype=int)
    sa = np.array([a_entry(i, j)[1] for (i, j) in entries])
    pc = np.array([c_entry(i, j)[0] for (i, j) in entries], dtype=int)
    sc = np.array([c_entry(i, j)[1] for (i, j) in entries])
    cols = np.array([j for (_, j) in entries], dtype=int)
    rows = np.array([i for (i, _) in entries], dtype=int)
    pair_pos = np.array([p for (p, _, _) in pair_rows], dtype=int)
    pair_i = np.array([i for (_, i, _) in pair_rows], dtype=int)
    pair_partner = np.array([p for (_, _, p) in pair_rows], dtype=int)
    maps = (d_param, pa, sa, pc, sc, rows, cols, npairs, pair_pos, pair_i, pair_partner)
    return tuple(read_only(m) if isinstance(m, np.ndarray) else m for m in maps)


def skew_symmetric_matvec(w, x, ctx: CountContext):
    """Skew-symmetric product in n^2 - n - ceil((n-1)/2) + 1 multiplications.

    The matrix splits as a skew-circulant sharing its first row (n products
    via the f = -1 transform) plus a remainder with zero first row and zero
    diagonal whose first-column entries come in +/- pairs, each pair sharing
    one product.  Order 1 is the zero map and costs nothing.
    """
    wv, xv = as_vector(w), as_vector(x)
    n = len(xv)
    if len(wv) != n * (n - 1) // 2:
        raise ValueError(f"skew-symmetric of order {n} needs {n * (n - 1) // 2} parameters")
    if n == 1:
        return match_output(x, zero_vector(1, xv))
    d_param, pa, sa, pc, sc, rows, cols, npairs, pair_pos, pair_i, pair_partner = _skew_maps(n)
    d = concat(zero_vector(1, wv), take(wv, d_param))
    out = _fcirc_impl(d, -1.0, xv, ctx)
    remainder = vsub(signed_take(wv, pa, sa, ctx), signed_take(wv, pc, sc, ctx), ctx)
    prods = vmul(remainder, take(xv, cols), ctx)
    if npairs:
        pair_prods = take(prods, pair_pos)
        add_at(out, pair_partner, vneg(pair_prods), ctx)
    add_at(out, rows, prods, ctx)
    return match_output(x, out)


# ---------------------------------------------------------------------------
# Multilevel (Kronecker-structured) products
# ---------------------------------------------------------------------------

def _sparse_matvec(pattern: SparsityPattern, data: TrackedVector, x: TrackedVector,
                   ctx: CountContext) -> TrackedVector:
    active = data.variable | (data.values != 0)
    pos = np.flatnonzero(active)
    out = zero_vector(pattern.rows, x)
    if len(pos):
        cols = np.array([pattern.entries[p][1] for p in pos], dtype=int)
        rows = np.array([pattern.entries[p][0] for p in pos], dtype=int)
        prods = vmul(take(data, pos), take(x, cols), ctx)
        add_at(out, rows, prods, ctx)
    return out


def matvec_by_kind(kind: StructureKind, data: TrackedVector, x: TrackedVector,
                   ctx: CountContext, f: complex | None = None,
                   pattern: SparsityPattern | None = None) -> TrackedVector:
    """Vector-level dispatch shared by the public API, extraction, and the
    multilevel recursion."""
    kind = StructureKind(kind)
    n = len(x)
    if kind is StructureKind.CIRCULANT:
        return _fcirc_impl(data, 1.0, x, ctx)
    if kind is StructureKind.F_CIRCULANT:
        if f is None or f == 0:
            raise ValueError("f_circulant needs a nonzero f")
        return _fcirc_impl(data, complex(f), x, ctx)
    if kind is StructureKind.TOEPLITZ:
        return _toeplitz_bins(data, x, ctx, skip_bins=1)
    if kind is StructureKind.HANKEL:
        z = _toeplitz_bins(data, x, ctx, skip_bins=1)
        return take(z, np.arange(n - 1, -1, -1))
    if kind is StructureKind.UPPER_TRIANGULAR_TOEPLITZ:
        out = triangular_toeplitz_matvec(data, x, ctx)
        return out
    if kind is StructureKind.TOEPLITZ_PLUS_HANKEL:
        t = take(data, np.arange(2 * n - 1))
        h = take(data, np.arange(2 * n - 1, 4 * n - 2))
        return tph_matvec(t, h, x, ctx)
    if kind is StructureKind.SYMMETRIC:
        return symmetric_matvec(data, x, ctx)
    if kind is StructureKind.SKEW_SYMMETRIC:
        return skew_symmetric_matvec(data, x, ctx)
    if kind is StructureKind.SPARSE:
        if pattern is None:
            raise ValueError("sparse matvec needs a pattern")
        return _sparse_matvec(pattern, data, x, ctx)
    raise ValueError(f"no kernel for kind {kind}")


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
        return matvec_by_kind(lev.kind, data, x, ctx, lev.f, lev.pattern)
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
    Skew-symmetric and triangular Toeplitz levels are rejected.
    """
    if M.kind is not StructureKind.MULTILEVEL:
        raise ValueError("multilevel_matvec expects a multilevel matrix")
    for lev in M.levels:
        if lev.kind not in _MULTILEVEL_KINDS:
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
    out = matvec_by_kind(M.kind, M.data_vector(), xv, ctx, M.f, M.pattern)
    return match_output(x, out)


def toeplitz_matmul(t, Y, ctx: CountContext):
    """Toeplitz times dense, column by column: n(2n-1) multiplications."""
    tv = as_vector(t)
    yvals, yflags = as_matrix(Y)
    n = yvals.shape[0]
    if yvals.shape[1] != n or len(tv) != 2 * n - 1:
        raise ValueError("toeplitz_matmul expects 2n-1 diagonals and an n x n factor")
    cols = []
    for j in range(n):
        cols.append(toeplitz_matvec(tv, TrackedVector(yvals[:, j], yflags[:, j]), ctx))
    return [[to_scalars(cols[j])[i] for j in range(n)] for i in range(n)]


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


def extract_decomposition(kind, n: int, f: complex | None = None,
                          pattern: SparsityPattern | None = None):
    """Explicit rank-one terms realized by the kernel for this structure.

    The kernel is replayed once over linear-form scalars; every bilinear
    product contributes one term, so the term count equals the kernel's
    multiplication count and the summed tensor equals the structure tensor.
    """
    from .extraction import extract_decomposition as _impl
    return _impl(kind, n, f=f, pattern=pattern)
