"""Finite groups as multiplication tables, the triple product property,
embedding-based matrix multiplication, and the two 8-multiplication
simultaneous 2x2 product kernels.

Every product here runs as one triple (U, V, W) of constant maps through
counting.triple_product.  group_algebra_mul and cu_matmul build theirs per
call from the table and the factors' supports (Variable or nonzero
entries), one product per pair of support entries; cu_matmul is the exact
reference, as its maps are 0/1 gathers.  The simultaneous kernels' triples
are built once and run over a batch axis of column pairs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .counting import (ChainMap, ConstantMap, CountContext, GatherMap, TrackedScalar,
                       TrackedVector, as_matrix, as_vector, rearranged, tile, to_grid,
                       to_scalars, triple_product)
from .spectral import dft_matrix, idft_matrix


@dataclass(frozen=True)
class GroupTable:
    """A finite group given by an explicit multiplication table.

    product[a, b] is the index of the product of elements a and b.  At
    construction the table's shape, and its entries, the identity and every
    inverse as element indices (_is_element), are checked first, each a
    one-line ValueError; then the group laws, exhaustively for order <= 64.
    """

    order: int
    product: tuple[tuple[int, ...], ...]
    identity: int
    inverse: tuple[int, ...]
    element_names: tuple[str, ...]

    def __post_init__(self):
        n = self.order
        P = np.array(self.product)
        if P.shape != (n, n):
            raise ValueError("product table must be an order x order index table")
        if P.dtype.kind not in "iu" or P.min() < 0 or P.max() >= n:    # name the first bad entry
            for a, row in enumerate(self.product):
                _check_elements(n, row, f"product[{a}]")
        if len(self.inverse) != n or len(self.element_names) != n:
            raise ValueError("inverse and element_names must have length order")
        e = self.identity
        if not _is_element(e, n):
            raise ValueError(f"identity {e!r} is not an element of a group of order {n}")
        _check_elements(n, self.inverse, "inverse")
        P = P.astype(int)
        if not (np.all(P[e] == np.arange(n)) and np.all(P[:, e] == np.arange(n))):
            raise ValueError("identity law fails")
        inv = np.array(self.inverse, dtype=int)
        if not (np.all(P[np.arange(n), inv] == e) and np.all(P[inv, np.arange(n)] == e)):
            raise ValueError("inverse law fails")
        if n <= 64:
            left = P[P, :]
            right = P[np.arange(n)[:, None, None], P[None, :, :]]
            if not np.all(left == right):
                raise ValueError("associativity fails")

    def table(self) -> np.ndarray:
        return np.array(self.product, dtype=int)

    def mul(self, a: int, b: int) -> int:
        return self.product[a][b]


def _is_element(x, order: int) -> bool:
    """x is an element index of a group of the order: a Python or numpy
    integer in 0..order-1."""
    return isinstance(x, (int, np.integer)) and 0 <= x < order


def _check_elements(order: int, entries: Sequence[int], name: str) -> None:
    """Each entry is an element index of a group of the order (_is_element):
    the first that is not is a one-line ValueError that names it as name[k]."""
    for k, x in enumerate(entries):
        if not _is_element(x, order):
            raise ValueError(f"{name}[{k}] = {x!r} is not an element of a group of order {order}")


def cyclic_group(n: int) -> GroupTable:
    """C_n with elements 1, g, ..., g^(n-1)."""
    if n < 1:
        raise ValueError("cyclic group needs n >= 1")
    product = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
    inverse = tuple((-a) % n for a in range(n))
    names = tuple("1" if a == 0 else ("g" if a == 1 else f"g^{a}") for a in range(n))
    return GroupTable(n, product, 0, inverse, names)


def dihedral8() -> GroupTable:
    """D4 = <x, y | x^4 = y^2 = 1, yxy = x^-1> with element order
    (1, x, x^2, x^3, y, xy, x^2y, x^3y)."""

    def mul_el(p: int, q: int) -> int:
        a, e = p % 4, p // 4
        b, f0 = q % 4, q // 4
        if e == 0:
            return (a + b) % 4 + 4 * f0
        return (a - b) % 4 + 4 * (1 - f0)

    product = tuple(tuple(mul_el(p, q) for q in range(8)) for p in range(8))
    inverse = tuple(product[p].index(0) for p in range(8))
    names = ("1", "x", "x^2", "x^3", "y", "xy", "x^2y", "x^3y")
    return GroupTable(8, product, 0, inverse, names)


@dataclass
class GroupAlgebraElement:
    """Element of the group algebra: one coefficient per group element."""

    coefficients: list[TrackedScalar]


def tpp_check(G: GroupTable, S: Sequence[int], T: Sequence[int], U: Sequence[int]) -> bool:
    """The triple product property that cu_matmul needs, over the quotient
    sets Q(X) = {x^-1 y : x, y in X}: q_s q_t q_u = 1 for q_s in Q(S), q_t in
    Q(T) and q_u in Q(U) forces q_s = q_t = q_u = 1, that is, s'^-1 s t^-1 t'
    u^-1 u' = 1 forces s = s', t = t' and u = u'.  A subset that repeats an
    element fails it; an entry that is no element index of G is a one-line
    ValueError that names it."""
    for name, X in zip("STU", (S, T, U)):
        _check_elements(G.order, X, name)
    if any(len(set(X)) != len(X) for X in (S, T, U)):
        return False
    P, e = G.product, G.identity
    qs, qt, qu = ({P[G.inverse[x]][y] for x in X for y in X} for X in (S, T, U))
    return all(P[P[a][b]][c] != e for a in qs for b in qt for c in qu if (a, b, c) != (e, e, e))


def _convolution(G: GroupTable, a: TrackedVector, b: TrackedVector, a_at, b_at):
    """The triple of the group-algebra product of a placed at the elements
    a_at and b at b_at: U and V pick each pair (i, j) of support entries
    (Variable or nonzero), and W adds product (i, j) into the coefficient of
    a_at[i] b_at[j]."""
    sup_a, sup_b = (np.flatnonzero(v.variable | (v.values != 0)) for v in (a, b))
    i, j = np.repeat(sup_a, len(sup_b)), np.tile(sup_b, len(sup_a))
    pairs = len(i)
    return (GatherMap.picking(len(a), i), GatherMap.picking(len(b), j),
            GatherMap((G.order, pairs), G.table()[a_at[i], b_at[j]], range(pairs)))


def group_algebra_mul(G: GroupTable, a, b, ctx: CountContext):
    """Convolution over the group, one product per pair of support
    coefficients; a Constant-zero coefficient is skipped.  Raw numbers are
    Variables, and the product is a GroupAlgebraElement when a factor is."""
    wrap = isinstance(a, GroupAlgebraElement) or isinstance(b, GroupAlgebraElement)
    a, b = (as_vector(x.coefficients if isinstance(x, GroupAlgebraElement) else x)
            for x in (a, b))
    if a.values.shape != (G.order,) or b.values.shape != (G.order,):
        raise ValueError("coefficient vectors must have length equal to the group order")
    every = np.arange(G.order)
    out = to_scalars(triple_product(_convolution(G, a, b, every, every), a, b, ctx))
    return GroupAlgebraElement(out) if wrap else out


def cu_matmul(G: GroupTable, S: Sequence[int], T: Sequence[int], U: Sequence[int],
              A, B, ctx: CountContext):
    """Matrix product read off a group-algebra product, the exact reference.

    A is embedded over s_i t_j^-1, B over t_j u_k^-1, and entry (i, k) of AB
    is the coefficient of s_i u_k^-1 in their convolution; the triple
    product property (tpp_check) makes each placement one-to-one and the
    read-off exact.  One triple: U and V pick the support pairs of A's and
    B's entries, and W is the convolution's scatter-add chained with a pick
    of the read-off elements.
    """
    if not tpp_check(G, S, T, U):
        raise ValueError("subsets do not satisfy the triple product property")
    a, b = as_matrix(A), as_matrix(B)
    (m, n), (n2, p) = a.values.shape, b.values.shape
    if (m, n, p) != (len(S), len(T), len(U)) or n2 != n:
        raise ValueError("matrix shapes must match the subset cardinalities")
    table, inverse = G.table(), np.array(G.inverse)

    def placed(rows, cols):         # the element rows[i] cols[j]^-1 of entry (i, j), row-major
        return table[np.ix_(rows, inverse[list(cols)])].ravel()

    a, b = rearranged(a, np.ravel), rearranged(b, np.ravel)
    pick_a, pick_b, scatter = _convolution(G, a, b, placed(S, T), placed(T, U))
    read = ChainMap(scatter, GatherMap.picking(G.order, placed(S, U)))
    out = triple_product((pick_a, pick_b, read), a, b, ctx)
    return to_grid(rearranged(out, lambda v: v.reshape(m, p)))


# ---------------------------------------------------------------------------
# D4 representation data
# ---------------------------------------------------------------------------

_D4 = dihedral8()
_D4_TABLE = _D4.table()
_D4_INV = np.array(_D4.inverse, dtype=int)

# Four characters over (1, x, x^2, x^3, y, xy, x^2y, x^3y) and the
# two-dimensional representation.
_D4_CHARS = np.array([
    [1, 1, 1, 1, 1, 1, 1, 1],
    [1, 1, 1, 1, -1, -1, -1, -1],
    [1, -1, 1, -1, 1, -1, 1, -1],
    [1, -1, 1, -1, -1, 1, -1, 1],
], dtype=complex)

_D4_REP2 = np.zeros((8, 2, 2), dtype=complex)
_D4_REP2[0] = np.eye(2)
_D4_REP2[1] = [[0, -1], [1, 0]]
_D4_REP2[2] = -np.eye(2)
_D4_REP2[3] = [[0, 1], [-1, 0]]
_D4_REP2[4] = [[1, 0], [0, -1]]
_D4_REP2[5] = [[0, 1], [1, 0]]
_D4_REP2[6] = [[-1, 0], [0, 1]]
_D4_REP2[7] = [[0, -1], [-1, 0]]

if np.abs(np.einsum("pab,qbc->pqac", _D4_REP2, _D4_REP2) - _D4_REP2[_D4_TABLE]).max() > 1e-12:
    raise AssertionError("two-dimensional representation is not a homomorphism")

# Support of the embedded left factor: x^2, y, x^2y, 1 (all diagonal in the
# two-dimensional representation, which is what caps the block product at
# four multiplications).
_A_SUPPORT = [2, 4, 6, 0]
_B_SUPPORT = [3, 6, 7, 0]
if np.abs(_D4_REP2[_A_SUPPORT][:, [0, 1], [1, 0]]).max() > 0:
    raise AssertionError("left-factor support is not diagonal in the 2d representation")

# The (AB, AB^f) triple over row-major A = (a, b, c, d) and B.  U maps the
# left factor to its 4 characters and 2 diagonal block entries and repeats
# each block entry (a pure relabeling), V maps the right factor to its 4
# characters and full 2x2 block, so the block product is four
# multiplications plus one per character.  W is Fourier inversion on D4 from
# the 8 products (r0..r3, Q00, Q01, Q10, Q11), its rows ordered so that it
# reads AB's entries off the coefficients at x, y, x^3y, 1 and AB^f's off
# those at xy, x^2, x^3, x^2y.
_D4_FWD_A = np.array([*_D4_CHARS[:, _A_SUPPORT], *_D4_REP2[_A_SUPPORT][:, [0, 1], [0, 1]].T])
_D4_FWD_B = np.array([*_D4_CHARS[:, _B_SUPPORT], *_D4_REP2[_B_SUPPORT].reshape(4, 4).T])
_D4_INV_MAP = np.hstack([_D4_CHARS[:, _D4_INV].T / 8.0,
                         2.0 * _D4_REP2[_D4_INV].transpose(0, 2, 1).reshape(8, 4) / 8.0])
_D4_MAPS = (ChainMap(ConstantMap(_D4_FWD_A),
                     GatherMap((8, 6), range(8), [0, 1, 2, 3, 4, 4, 5, 5])),
            ConstantMap(_D4_FWD_B),
            ConstantMap(_D4_INV_MAP[[1, 4, 7, 0, 5, 2, 3, 6]]))

# The (AB, AB^g) triple: U and V place A's d, b, c, a at degrees 0..3 and B's
# f, h, e, g at degrees 0, 2, 4, 6 of sparse degree-7 polynomials and apply
# the 8-point transform; W is the inverse transform's rows at the degrees of
# AB's entries (7, 3, 6, 2) and then of AB^g's (5, 1, 4, 0).
_X8_MAPS = (ChainMap(GatherMap((8, 4), range(4), [3, 1, 2, 0]), dft_matrix(8)),
            ChainMap(GatherMap((8, 4), [0, 2, 4, 6], [1, 3, 0, 2]), dft_matrix(8)),
            idft_matrix(8)[[7, 3, 6, 2, 5, 1, 4, 0]])


def wedderburn_d4(coeffs) -> tuple[np.ndarray, np.ndarray]:
    """Block-diagonal coordinates of a group-algebra element:
    four character values plus the 2x2 block of the 2-dim representation."""
    c = np.asarray(coeffs, dtype=complex)
    if c.shape != (8,):
        raise ValueError("expected 8 coefficients")
    return _D4_CHARS @ c, np.einsum("g,gab->ab", c, _D4_REP2)


def wedderburn_d4_inverse(chars4, block) -> np.ndarray:
    """Recover the coefficient vector from the block-diagonal coordinates."""
    r = np.asarray(chars4, dtype=complex)
    Q = np.asarray(block, dtype=complex)
    prods = np.array([r[0], r[1], r[2], r[3], Q[0, 0], Q[0, 1], Q[1, 0], Q[1, 1]])
    return _D4_INV_MAP @ prods


def _two_by_two(A, B, name: str):
    A, B = as_matrix(A), as_matrix(B)
    if A.values.shape != (2, 2) or B.values.shape != (2, 2):
        raise ValueError(f"{name} expects 2x2 factors")
    return A, B


def d4_simultaneous(A, B, ctx: CountContext):
    """(AB, AB^f) with exactly eight multiplications; B^f swaps B's rows.

    Both factors are mapped to block-diagonal coordinates by constant
    transforms; the left factor's 2x2 block is structurally diagonal, so the
    block product needs four multiplications, plus one per one-dimensional
    coordinate.
    """
    return blocked_simultaneous(*_two_by_two(A, B, "d4_simultaneous"), "f", ctx)


def x8_simultaneous(A, B, ctx: CountContext):
    """(AB, AB^g) with exactly eight multiplications.

    B^g swaps B's rows and then the two entries of the new first row.  Both
    factors embed as sparse degree-7 polynomials multiplied modulo x^8 - 1
    through the 8-point transform; the two products are read off disjoint
    coefficient sets of the same convolution.
    """
    return blocked_simultaneous(*_two_by_two(A, B, "x8_simultaneous"), "g", ctx)


def blocked_simultaneous(A, B, variant: str, ctx: CountContext):
    """(AB, AB^variant) for B with 2n columns in 8n multiplications: the 2x2
    kernel's triple applied once over a trailing batch axis of the n column
    pairs, with A tiled across it so that U A is charged once per pair.
    variant 'f' (d4_simultaneous) swaps rows globally; variant 'g'
    (x8_simultaneous) additionally swaps the first-row entries within each
    pair."""
    if variant not in ("f", "g"):
        raise ValueError("variant must be 'f' or 'g'")
    a, b = as_matrix(A), as_matrix(B)
    if a.values.shape != (2, 2) or len(b) != 2:
        raise ValueError("blocked_simultaneous expects a 2x2 A and a 2-row B")
    if b.values.shape[1] % 2 != 0:
        raise ValueError("B must have an even number of columns")
    pairs = b.values.shape[1] // 2

    def by_pair(M):        # (2, 2n) -> (4, n): column j is pair j's block, row-major
        return M.reshape(2, pairs, 2).transpose(0, 2, 1).reshape(4, pairs)

    def by_row(M):         # (8, n) -> (4, 2n): the rows of AB, then of AB^variant
        return M.reshape(2, 2, 2, pairs).transpose(0, 1, 3, 2).reshape(4, 2 * pairs)

    out = triple_product(_D4_MAPS if variant == "f" else _X8_MAPS,
                         tile(rearranged(a, np.ravel), pairs), rearranged(b, by_pair), ctx)
    grid = to_grid(rearranged(out, by_row))
    return grid[:2], grid[2:]
