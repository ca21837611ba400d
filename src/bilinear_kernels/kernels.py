"""Minimum-multiplication kernels for structured matrix-vector products.

Every kernel carries an exact bilinear-multiplication count that depends
only on the problem size, never on the input values: structurally-zero
transform bins are skipped by construction, not detected numerically.
The counts per size n:

    circulant, f-circulant          n
    toeplitz, hankel, triangular    2n - 1
    toeplitz-plus-hankel            4n - 4 (1 at n = 1)
    symmetric                       n(n+1)/2
    skew-symmetric                  n(n+1)/2 (n >= 3); 0, 2 at n = 1, 2
    sparse                          #pattern
    multilevel                      product of the level counts
    toeplitz matmul                 n(2n-1)
    2x2 commutator                  6
    Gauss complex product           3

Every kernel is one Cohn-Umans triple (U, V, W) of constant maps, run as
W (U t * V x): U embeds the parameters t, V the input x, the pointwise
product forms the counted products (one per row of U) and W reads the
output off.  structured_matvec runs every structured matrix through one
body, the Kronecker product of its levels' triples applied level by level;
a single-level matrix is its own one level.  It forms the symbol U t once
per matrix and keeps it on the StructuredMatrix (StructuredMatrix.symbol)
beside the levels' triples: later products with the same matrix charge its
counts again, read no map and apply only V, the pointwise product and W.
Gauss's product, the commutator and Toeplitz times dense (the Toeplitz
triple over a batch axis of columns) run through counting.triple_product;
groups.py holds the simultaneous 2x2 products.  A single-level kind's
triple is kept in the one map store (counting.MapStore), keyed per order,
f or pattern, and built from the embedding it runs, with that embedding's
structural support, or from the products it forms:

    circulant, f-circulant  U evaluates the reindexed first column at the n
                            roots of t^n = f; V and W are the scaled transforms
    toeplitz, hankel,       one builder from the kind's frame in C[z]/(z^N - 1):
    triangular, tph         2n points, bin 0 emptied (toeplitz; hankel reads its
                            U and V); 2n-1 (triangular); two of 2n-1, two bins
                            emptied, products picked from one evaluation of x (tph)
    symmetric,              gather maps: a_ij (x_i + x_j) per pair i < j and one
    skew-symmetric          correction c_i x_i per row (entrywise at skew n <= 2)
    sparse                  gather maps, one product per pattern entry

A map is dense (ConstantMap), a gather of short signed sums (GatherMap), a
stack of row bands, each a sum of those (BlockMap), or one map after
another (ChainMap); see counting.py.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .counting import (BlockMap, ChainMap, ConstantMap, CountContext, GatherMap,
                       TrackedScalar, TrackedVector, apply_matrix, as_input, as_matrix,
                       _stored, concat, match_output, reciprocal, take, tile,
                       to_grid, to_scalars, triple_product, vmul)
from .extraction import level_decomposition
from .spectral import dft_matrix, idft_matrix, principal_root, scaled_idft_matrix, twiddles
from .structures import (LevelSpec, SparsityPattern, StructureKind, StructureSpec,
                         StructuredMatrix, check_structure, circulant_placement,
                         f_circulant_placement, hankel_placement, skew_symmetric_placement,
                         sparse_placement, symmetric_placement, toeplitz_placement,
                         tph_placement, triangular_toeplitz_placement)

class SingularMatrix(ValueError):
    """A transform value of the parameter vector is numerically zero."""


def formula_count(kind: StructureKind, n: int, pattern: SparsityPattern | None = None,
                  levels: tuple[LevelSpec, ...] | None = None) -> int:
    """Closed-form bilinear multiplication count of the fast kernel: the
    product of its levels' counts (check_structure)."""
    return check_structure(kind, n, pattern=pattern, levels=levels).count


@dataclass
class KernelReport:
    """Output of one kernel run plus its counters and the closed-form count."""

    output: list[TrackedScalar]
    counts: CountContext
    formula_count: int


# ---------------------------------------------------------------------------
# Circulant and f-circulant
# ---------------------------------------------------------------------------

@_stored
def _fcirc_base(n: int) -> tuple[ConstantMap, ConstantMap, ConstantMap]:
    """The transforms of order n before any scaling by f: the DFT F with its
    columns reindexed by m -> (n - m) mod n, F's conjugate over n, and F."""
    j = np.arange(n)
    F = twiddles(n, j[:, None], j)
    return ConstantMap(F[:, (n - j) % n]), ConstantMap(F.conj() / n), ConstantMap(F)


@_stored
def _fcirc_maps(n: int, f: complex) -> tuple[ConstantMap, ConstantMap, ConstantMap]:
    """Constant transforms diagonalizing the f-circulant action.

    With data d (wrap factors stripped from the first column) the matrix is
    A[i][j] = d[(i-j) mod n] * f^{[i>j]}; over the reindexed coefficients
    x[m] = d[(n-m) mod n] the product Av equals post @ diag(eval @ x) @ pre @ v
    where eval evaluates at the n roots of t^n = f.  U is eval with the
    reindexing, its own inverse, folded into its columns.

    Each map is a diagonal rescaling of the order's stored base
    (_fcirc_base) by powers of the principal root rho: U's columns by
    rho^j at the reindexed j, pre's columns by rho^-j and post's rows by
    rho^j.  Every f, 1 included, takes these same products, and each map
    shares its base's support and reach.
    """
    rho = principal_root(f, n)
    j = np.arange(n)
    up = rho ** j
    U, pre, post = _fcirc_base(n)
    return (U.rescaled(U.matrix * up[-j]),             # up at (n - j) mod n
            pre.rescaled(pre.matrix * rho ** -j.astype(float)),
            post.rescaled(up[:, None] * post.matrix))


def circulant_matvec(c, x, ctx: CountContext):
    """Circ(c) @ x in exactly n bilinear multiplications."""
    return _run(StructureKind.CIRCULANT, c, x, ctx)


def f_circulant_matvec(c, f: complex, x, ctx: CountContext):
    """f-circulant product in exactly n bilinear multiplications; f must be nonzero."""
    return _run(StructureKind.F_CIRCULANT, c, x, ctx, f)


def _spectrum_or_raise(params: TrackedVector, M: ConstantMap,
                       ctx: CountContext) -> TrackedVector:
    hat = apply_matrix(M, params, ctx)
    floor = 1e-12 * float(np.linalg.norm(params.values))
    if np.any(np.abs(hat.values) <= floor):
        raise SingularMatrix("a transform value of the parameter vector is zero")
    return hat


def circulant_inverse(c, ctx: CountContext):
    """First column of Circ(c)^-1 using n divisions and zero bilinear mults."""
    cv = as_input(c)
    n = len(cv)
    inv_hat = reciprocal(_spectrum_or_raise(cv, dft_matrix(n), ctx), ctx)
    return match_output(c, apply_matrix(idft_matrix(n), inv_hat, ctx))


def f_circulant_inverse(c, f: complex, ctx: CountContext):
    """Parameters of the inverse f-circulant; n divisions, zero bilinear mults."""
    cv = as_input(c)
    n = len(cv)
    check_structure(StructureKind.F_CIRCULANT, n, f, size=n)
    inv_hat = reciprocal(_spectrum_or_raise(cv, _fcirc_maps(n, complex(f))[0], ctx), ctx)
    x_inv = apply_matrix(scaled_idft_matrix(n, complex(f)), inv_hat, ctx)
    return match_output(c, take(x_inv, (n - np.arange(n)) % n))


# ---------------------------------------------------------------------------
# Gauss 3-multiplication complex product
# ---------------------------------------------------------------------------

# (a + ib)(c + id): U and V form a + b, a, b and c + d, c, d; W reads
# re = ac - bd and im = (a + b)(c + d) - ac - bd off the three products.
_GAUSS_SUMS = GatherMap((3, 2), [0, 0, 1, 2], [0, 1, 0, 1])
GAUSS_MAPS = (_GAUSS_SUMS, _GAUSS_SUMS,
              GatherMap((2, 3), [0, 0, 1, 1, 1], [1, 2, 0, 1, 2], [1, -1, 1, -1, -1]))


def gauss_complex_mul(a: TrackedScalar, b: TrackedScalar, c: TrackedScalar,
                      d: TrackedScalar, ctx: CountContext):
    """(a+ib)(c+id) -> (ac-bd, ad+bc) with exactly three multiplications."""
    return tuple(to_scalars(triple_product(GAUSS_MAPS, as_input([a, b]), as_input([c, d]),
                                           ctx)))


# ---------------------------------------------------------------------------
# Toeplitz family: one embedding builder
# ---------------------------------------------------------------------------

def _tph_null(n: int) -> np.ndarray:
    """The all-ones and the checkerboard matrix (the scalars at n = 1), where the
    Toeplitz and Hankel spaces meet, each as Toeplitz parameters less Hankel ones."""
    sign = (-1) ** (np.arange(2 * n - 1) % 2)
    return np.array([np.repeat([1, -1], 2 * n - 1), [*sign * (-1) ** (n - 1), *-sign]])[:min(n, 2)]


# Per kind, from (n, i = 0..n-1, q = 0..2n-2): the frame order N of
# C[z]/(z^N - 1); each parameter's symbol position; the input placement
# sigma; each summand's output placement tau (cell (i, j) of summand s reads
# the symbol at tau_s[i] - sigma[j], and summand s reads the s-th parameter
# block); and the null directions, parameter combinations that leave the
# matrix unchanged.  sigma and tau are permutations of 0..n-1, positions that
# each hold a parameter.  Hankel reads Toeplitz's frame: only its tau differs.
_FRAMES = {
    StructureKind.TOEPLITZ: lambda n, i, q: (2 * n, n - 1 - q, i, (i,), ()),
    StructureKind.HANKEL: lambda n, i, q: (2 * n, n - 1 - q, i, (n - 1 - i,), ()),
    StructureKind.UPPER_TRIANGULAR_TOEPLITZ:
        lambda n, i, q: (2 * n - 1, i, n - 1 - i, (n - 1 - i,), ()),
    StructureKind.TOEPLITZ_PLUS_HANKEL:
        lambda n, i, q: (2 * n - 1, n - 1 - q, i, (i, n - 1 - i), _tph_null(n)),
}


def _max_volume_rows(G: np.ndarray) -> np.ndarray:
    """One row of G per column, picked greedily by maximum volume: each the first
    row of largest norm, to rounding, once the rows picked before are projected out."""
    R, rows = G.copy(), []
    for _ in range(G.shape[1]):
        norms = np.linalg.norm(R, axis=1)
        rows.append(int(np.argmax(norms >= (1 - 1e-9) * norms.max())))
        R -= np.outer(R @ R[rows[-1]].conj(), R[rows[-1]]) / norms[rows[-1]] ** 2
    return np.array(rows, dtype=int)


def _full(M: np.ndarray) -> ConstantMap:               # a map that reads all of its inputs
    return ConstantMap(M, np.broadcast_to(True, M.shape))


@_stored
def _frame(kind: StructureKind, n: int):
    """U and V of a kind's frame; X, x evaluated once at each live bin; and
    each product's summand and row of X.

    Bin k of a summand's symbol is row k of F = omega^(k pos) applied to its
    parameters, and X's entries are F's at sigma.  Each free direction (a
    position no i - sigma[j] reaches, or a null direction) empties one bin,
    picked by maximum volume over G, the bins' dependence on them: sum N
    less one product each.  With A = G[B]^-1 U_full[B] over the emptied
    bins B, a lone summand's free positions fold into F as F - G A; null
    directions Z (entries +-1: additions only) shift t once to t - Z^T A t."""
    N, pos, sigma, taus, null = _FRAMES[kind](n, np.arange(n), np.arange(2 * n - 1))
    S, p, k = len(taus), len(pos), np.arange(N)
    F = twiddles(N, k[:, None], pos)
    slot = np.arange(n, N - n + 1)                      # cells read -(n-1)..n-1 mod N
    Z = np.reshape(null, (-1, S * p))
    G = np.concatenate([np.broadcast_to(twiddles(N, k[:, None], slot), (S, N, len(slot))),
                        F @ Z.reshape(-1, S, p).transpose(1, 2, 0)], axis=2).reshape(S * N, -1)
    emptied = _max_volume_rows(G)
    U_emptied = np.eye(S)[emptied // N, :, None] * F[emptied % N, None]    # U_full[B]
    A = np.linalg.solve(G[emptied], U_emptied.reshape(-1, S * p))
    live = (np.bincount(emptied, minlength=S * N) == 0).reshape(S, N)
    summand, bins = np.nonzero(live)                   # each product's summand and bin
    union = np.flatnonzero(live.any(axis=0))
    X, rows = _full(F[union[:, None], np.argsort(pos % N)[sigma]]), np.searchsorted(union, bins)
    V = X if len(rows) == len(union) else ChainMap(X, GatherMap.picking(len(union), rows))
    for r in range(0, N, 128) if len(slot) else ():    # in row blocks: no N x p temporary
        F[r:r + 128] -= G[r:r + 128] @ A
    F = _full(F)
    bands = [[(slice(s * p, (s + 1) * p), F[slice(*edges)])] for s in range(S)
             for edges in np.flatnonzero(np.diff(live[s], prepend=0, append=0)).reshape(-1, 2)]
    U = bands[0][0][1] if S == len(bands) == 1 else BlockMap(S * p, bands)
    if len(Z):
        r, c = np.nonzero(Z.T)
        every, shift = slice(None), GatherMap((S * p, len(Z)), r, c, -Z.T[r, c])
        U = ChainMap(BlockMap(S * p, [[(every, GatherMap.picking(S * p, np.arange(S * p))),
                                       (every, ChainMap(_full(A), shift))]]), U)
    return U, V, X, summand, rows


@_stored
def _embedding_maps(kind: StructureKind, n: int):
    """The Cohn-Umans triple of a Toeplitz-family kind: its frame's U and V,
    and W, which reads y_i off bin k of summand s with omega^(-k tau_s[i]) / N."""
    U, V, X, summand, rows = _frame(StructureKind.TOEPLITZ if kind is StructureKind.HANKEL
                                    else kind, n)
    N, _, sigma, taus, _ = _FRAMES[kind](n, np.arange(n), np.arange(2 * n - 1))
    perms = np.argsort(sigma)[np.array(taus)]          # each summand's columns of X
    W = np.concatenate([X.matrix[rows[summand == s, None], perm] for s, perm in enumerate(perms)])
    return U, V, _full(np.divide(np.conjugate(W, out=W), N, out=W).T)


def toeplitz_matvec(t, x, ctx: CountContext):
    """Toeplitz product in 2n-1 multiplications: free position n empties bin 0 of 2n."""
    return _run(StructureKind.TOEPLITZ, t, x, ctx)


def hankel_matvec(h, x, ctx: CountContext):
    """Hankel product: Toeplitz's frame read out in reverse; 2n-1 multiplications."""
    return _run(StructureKind.HANKEL, h, x, ctx)


def triangular_toeplitz_matvec(a, x, ctx: CountContext):
    """Upper-triangular Toeplitz product in exactly 2n-1 multiplications."""
    return _run(StructureKind.UPPER_TRIANGULAR_TOEPLITZ, a, x, ctx)


def tph_matvec(t, h, x, ctx: CountContext):
    """(Toeplitz + Hankel) product in 4n-4 multiplications (1 at n = 1): moving the
    matrices that are both between its two (2n-1)-point frames empties two bins."""
    tv, hv = as_input(t), as_input(h)
    if len(tv) != len(hv):
        raise ValueError(f"tph needs as many anti-diagonals as diagonals, "
                         f"got {len(hv)} and {len(tv)}")
    return _run(StructureKind.TOEPLITZ_PLUS_HANKEL, concat(tv, hv), x, ctx)


# ---------------------------------------------------------------------------
# Symmetric and skew-symmetric: one product per pair, one correction per row
# ---------------------------------------------------------------------------

def _pairwise_count(n: int, cells: int) -> int:
    """Pairwise products: one per pair i < j and one per row, or one per cell if fewer."""
    return min(cells, n * (n + 1) // 2)


@_stored
def _pairwise_maps(kind: StructureKind, n: int) -> tuple[BlockMap | GatherMap, GatherMap,
                                                          GatherMap]:
    """The pairwise triple of a kind whose placement puts one parameter a_q
    on both cells (i, j) and (j, i), A[i][j] = s_ij a_q with s_ij = +-1.

    Each pair i < j forms p_ij = a_q (x_i + x_j) and each row one correction
    c_i x_i, c_i = A[i][i] - sum_{j != i} A[i][j], so that
    y_i = sum_{j != i} s_ij p_ij + c_i x_i.  U is two bands, the pairs and
    the corrections: one gather would give every row the n slots of a
    correction.  V gathers x_i + x_j and x_i, W each row's signed products.
    A placement with fewer cells than products (skew-symmetric at n <= 2)
    takes one product per cell instead.
    """
    param, cell, coeff = SPECS[kind].placement(n, None, None)
    rows, cols = np.divmod(cell, n)
    sign, upper, P = coeff.real, rows < cols, SPECS[kind].params(n, None)
    if SPECS[kind].count(n, None) < np.count_nonzero(upper) + n:
        e = np.arange(len(cell))
        return (GatherMap((len(e), P), e, param, sign), GatherMap((len(e), n), e, cols),
                GatherMap((n, len(e)), rows, e))
    i, j = rows[upper], cols[upper]
    k, d, R = np.arange(len(i)), np.arange(n), len(i) + n
    products = np.concatenate([k, k, len(k) + d])            # pair, pair, correction
    inputs = np.concatenate([i, j, d])                       # x_i, x_j, x_i
    every = slice(None)
    return (BlockMap(P, [[(every, GatherMap((len(k), P), k, param[upper]))],
                         [(every, GatherMap((n, P), rows, param,
                                            np.where(rows == cols, sign, -sign)))]]),
            GatherMap((R, n), products, inputs),
            GatherMap((n, R), inputs, products,
                      np.concatenate([sign[upper], np.bincount(cell, sign, n * n)[j * n + i],
                                      np.ones(n)])))


def symmetric_matvec(s, x, ctx: CountContext):
    """Symmetric product in n(n+1)/2 multiplications: one a_ij (x_i + x_j)
    per pair i < j and one correction per row."""
    return _run(StructureKind.SYMMETRIC, s, x, ctx)


def skew_symmetric_matvec(w, x, ctx: CountContext):
    """Skew-symmetric product in n(n+1)/2 multiplications for n >= 3: one
    w_ij (x_i + x_j) per pair i < j, added to row i and taken from row j,
    and one correction per row.  Order 2 takes its two entrywise products,
    and order 1 is the zero map and costs nothing."""
    return _run(StructureKind.SKEW_SYMMETRIC, w, x, ctx)


# ---------------------------------------------------------------------------
# Sparse: entrywise over the pattern
# ---------------------------------------------------------------------------

@_stored
def _sparse_maps(n: int, pattern: SparsityPattern) -> tuple[GatherMap, GatherMap, GatherMap]:
    """One product per pattern entry (r, c): the parameter times x[c],
    summed into row r."""
    rows, cols = np.array(pattern.entries, dtype=int).reshape(-1, 2).T
    e = np.arange(len(pattern))
    return (GatherMap.picking(len(e), e), GatherMap.picking(n, cols),
            GatherMap((pattern.rows, len(e)), rows, e))


# ---------------------------------------------------------------------------
# The structure table: one StructureSpec per single-level kind, in enum order
# ---------------------------------------------------------------------------

# Per kind: params, count and dim as functions of (n, pattern); the placement
# of its parameters in the grid; its kernel maps (U, V, W) as a function of
# (n, f, pattern).
SPECS: dict[StructureKind, StructureSpec] = {
    StructureKind.CIRCULANT: StructureSpec(
        lambda n, _: n, lambda n, _: n, lambda n, _: n,
        circulant_placement, lambda n, f, _: _fcirc_maps(n, 1.0)),
    StructureKind.F_CIRCULANT: StructureSpec(
        lambda n, _: n, lambda n, _: n, lambda n, _: n,
        f_circulant_placement, lambda n, f, _: _fcirc_maps(n, complex(f)), needs_f=True),
    StructureKind.TOEPLITZ: StructureSpec(
        lambda n, _: 2 * n - 1, lambda n, _: 2 * n - 1, lambda n, _: 2 * n - 1,
        toeplitz_placement, lambda n, f, _: _embedding_maps(StructureKind.TOEPLITZ, n)),
    StructureKind.HANKEL: StructureSpec(
        lambda n, _: 2 * n - 1, lambda n, _: 2 * n - 1, lambda n, _: 2 * n - 1,
        hankel_placement, lambda n, f, _: _embedding_maps(StructureKind.HANKEL, n)),
    StructureKind.UPPER_TRIANGULAR_TOEPLITZ: StructureSpec(
        lambda n, _: n, lambda n, _: 2 * n - 1, lambda n, _: n,
        triangular_toeplitz_placement,
        lambda n, f, _: _embedding_maps(StructureKind.UPPER_TRIANGULAR_TOEPLITZ, n)),
    StructureKind.TOEPLITZ_PLUS_HANKEL: StructureSpec(
        lambda n, _: 4 * n - 2, lambda n, _: max(1, 4 * n - 4), lambda n, _: max(1, 4 * n - 4),
        tph_placement, lambda n, f, _: _embedding_maps(StructureKind.TOEPLITZ_PLUS_HANKEL, n)),
    StructureKind.SYMMETRIC: StructureSpec(
        lambda n, _: n * (n + 1) // 2, lambda n, _: _pairwise_count(n, n * n),
        lambda n, _: n * (n + 1) // 2,
        symmetric_placement, lambda n, f, _: _pairwise_maps(StructureKind.SYMMETRIC, n)),
    StructureKind.SKEW_SYMMETRIC: StructureSpec(
        lambda n, _: n * (n - 1) // 2, lambda n, _: _pairwise_count(n, n * (n - 1)),
        lambda n, _: n * (n - 1) // 2,
        skew_symmetric_placement,
        lambda n, f, _: _pairwise_maps(StructureKind.SKEW_SYMMETRIC, n)),
    StructureKind.SPARSE: StructureSpec(
        lambda n, pattern: len(pattern), lambda n, pattern: len(pattern),
        lambda n, pattern: len(pattern),
        sparse_placement, lambda n, f, pattern: _sparse_maps(n, pattern), needs_pattern=True),
}


def _run(kind: StructureKind, data, x, ctx: CountContext, f: complex | None = None):
    """A public per-kind product: convert the inputs, check them against
    the table (check_structure), run its kernel, return the output like x."""
    dv, xv = as_input(data), as_input(x)
    check_structure(kind, len(xv), f, size=len(dv))
    return match_output(x, triple_product(SPECS[kind].maps(len(xv), f, None), dv, xv, ctx))


# ---------------------------------------------------------------------------
# The kernel of every StructuredMatrix, matmul, commutator, reports
# ---------------------------------------------------------------------------

def _leading(vec: TrackedVector, d: int) -> TrackedVector:
    """A block (a, d, ...) as (d, ..., a): the axis a map made goes last."""
    if vec.values.shape == (d,):
        return vec
    return TrackedVector(vec.values.T.reshape(d, -1), vec.variable.T.reshape(d, -1))


def _trailing(vec: TrackedVector, d: int) -> TrackedVector:
    """A block's trailing axis of length d as its leading one: (d, rest)."""
    if vec.values.shape == (d,):
        return vec
    return TrackedVector(vec.values.reshape(-1, d).T, vec.variable.reshape(-1, d).T)


def multilevel_matvec(M: StructuredMatrix, x, ctx: CountContext):
    """Product with a Kronecker-structured matrix; see structured_matvec."""
    if M.kind is not StructureKind.MULTILEVEL:
        raise ValueError("multilevel_matvec expects a multilevel matrix")
    return structured_matvec(M, x, ctx)


def structured_matvec(M: StructuredMatrix, x, ctx: CountContext):
    """Run the minimum-multiplication kernel for any structured matrix.

    The kernel is W (U t * V x) with U = U_0 x ... x U_{L-1}, and likewise
    V and W, over M's levels; a single-level matrix has one, its own kind.
    U and V apply outer level first, W innermost first, so every counter
    equals that of the outer kernel run over block scalars, level by level.
    U t is M's symbol: the first call forms it, and later calls reuse it
    and charge its counts again (StructuredMatrix.symbol).  M keeps its
    levels' triples too, so a later call reads no map."""
    xv = as_input(x)
    if len(xv) != M.n:
        raise ValueError(f"vector of length {len(xv)} for order {M.n}")
    triples = M.level_triples(level_decomposition)

    def embed(t: TrackedVector, ctx: CountContext) -> TrackedVector:
        for U, _, _ in triples:
            t = apply_matrix(U, _leading(t, U.shape[1]), ctx)
        return _leading(t, t.values.size)    # one product per row of the Kronecker U

    t, v = M.symbol(embed, ctx), xv
    for _, V, _ in triples:
        v = apply_matrix(V, _leading(v, V.shape[1]), ctx)
    z = vmul(t, _leading(v, len(t)), ctx)
    for _, _, W in reversed(triples):
        z = apply_matrix(W, _trailing(z, W.shape[1]), ctx)
    if z.values.ndim > 1:
        z = TrackedVector(z.values.reshape(-1), z.variable.reshape(-1))
    return match_output(x, z)


def toeplitz_matmul(t, Y, ctx: CountContext):
    """Toeplitz times dense in n(2n-1) multiplications: the Toeplitz triple
    applied once over a batch axis of Y's columns, with t tiled across it so
    that U t is charged once per column."""
    tv, y = as_input(t), TrackedVector(*as_matrix(Y))
    n = len(y)
    if y.values.shape != (n, n) or len(tv) != 2 * n - 1:
        raise ValueError("toeplitz_matmul expects 2n-1 diagonals and an n x n factor")
    return to_grid(triple_product(_embedding_maps(StructureKind.TOEPLITZ, n), tile(tv, n), y, ctx))


# [A, X] for A = [[a, b], [c, d]], X = [[x, y], [z, w]] is a bilinear form in
# s = (-c, b, a - d) and t = (x - w, y, z).  U and V form s and t once and
# gather the six products s1 t2, s2 t3, s2 t1, s3 t2, s1 t1, s3 t3 (the junk
# product s3 t1 of the underlying realization is never formed).  W forms
# w1 = s1 t2 + s2 t3, w2 = s3 t2 - s2 t1, w3 = -s1 t1 - s3 t3 and then reads
# [[w1, w2], [w3, -w1]] off them: trace-free by construction, -w1 for free.
_COMMUTATOR_MAPS = (
    ChainMap(GatherMap((3, 4), [0, 1, 2, 2], [2, 1, 0, 3], [-1, 1, 1, -1]),
             GatherMap((6, 3), range(6), [0, 1, 1, 2, 0, 2])),
    ChainMap(GatherMap((3, 4), [0, 0, 1, 2], [0, 3, 1, 2], [1, -1, 1, 1]),
             GatherMap((6, 3), range(6), [1, 2, 0, 1, 0, 2])),
    ChainMap(GatherMap((3, 6), [0, 0, 1, 1, 2, 2], range(6), [1, 1, -1, 1, -1, -1]),
             GatherMap((4, 3), range(4), [0, 1, 2, 0], [1, 1, 1, -1])))


def commutator_2x2(A, X, ctx: CountContext):
    """[A, X] = AX - XA for 2x2 matrices with exactly six multiplications."""
    a, x = (TrackedVector(*(part.reshape(-1) for part in as_matrix(M))) for M in (A, X))
    out = triple_product(_COMMUTATOR_MAPS, a, x, ctx)
    return to_grid(TrackedVector(out.values.reshape(2, 2), out.variable.reshape(2, 2)))


def kernel_report(M: StructuredMatrix, x) -> KernelReport:
    """Run the kernel on a fresh context and package counts and formula."""
    ctx = CountContext()
    out = structured_matvec(M, x, ctx)
    multilevel = M.kind is StructureKind.MULTILEVEL
    formula = formula_count(M.kind, M.n, M.pattern, M.levels if multilevel else None)
    out_list = out if isinstance(out, list) else to_scalars(out)
    return KernelReport(out_list, ctx.snapshot(), formula)
