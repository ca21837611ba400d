"""Structure tensors held as their nonzeros, decomposition verification,
flattening and skew-contraction rank bounds, and the coefficient-sum
stability measure."""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .counting import read_only
from .structures import (LevelSpec, SchemaError, SparsityPattern, StructureKind, _checked,
                         _placement, default_f, read_complex_pair)


class Tensor3:
    """Order-3 tensor held as its nonzeros: ``nonzeros`` is (index, values),
    the distinct C-order flat indices of its nonzero entries, in no set
    order, and their values; every other entry is zero.

    Tensor3(entries) keeps a dense array as given (array-like entries
    become an array of their own dtype) and finds its nonzeros at their
    first read, by one scan (_nonzeros): an edit of the array after that is
    not seen.  Tensor3.from_nonzeros keeps the nonzeros, and forms the
    dense, read-only ``entries`` at their first read; verification and the
    flattening ranks never do.  Entries must be finite either way."""

    __slots__ = ("dims", "_dense", "_coords")

    def __init__(self, entries):
        entries = np.asarray(entries)
        if entries.ndim != 3:
            raise ValueError("Tensor3 needs a 3-dimensional array")
        if min(entries.shape) < 1:
            raise ValueError("tensor dims must be positive")
        if not np.isfinite(entries).all():
            raise ValueError("tensor entries must be finite")
        self.dims, self._dense, self._coords = entries.shape, entries, None

    @classmethod
    def from_nonzeros(cls, dims, index, values) -> Tensor3:
        """The tensor of shape dims whose entry at each flat index is the
        value beside it, zero elsewhere; index and values are kept as
        given.  Zero values may be among them."""
        dims = tuple(map(int, dims))
        if len(dims) != 3:
            raise ValueError("Tensor3 needs three dims")
        if min(dims) < 1:
            raise ValueError("tensor dims must be positive")
        index, values = np.asarray(index), np.asarray(values)
        if index.ndim != 1 or index.shape != values.shape or index.dtype.kind not in "iu":
            raise ValueError("Tensor3 needs one integer flat index per value")
        ordered = np.sort(index)
        if ordered.size and (ordered[0] < 0 or ordered[-1] >= math.prod(dims)
                             or (ordered[1:] == ordered[:-1]).any()):
            raise ValueError("tensor flat indices must be distinct and within the dims")
        if not np.isfinite(values).all():
            raise ValueError("tensor entries must be finite")
        T = cls.__new__(cls)
        T.dims, T._dense, T._coords = dims, None, (index, values)
        return T

    @property
    def nonzeros(self) -> tuple[np.ndarray, np.ndarray]:
        if self._coords is None:
            self._coords = _nonzeros(self._dense)
        return self._coords

    @property
    def entries(self) -> np.ndarray:
        if self._dense is None:
            index, values = self._coords
            dense = np.zeros(self.dims, dtype=values.dtype)
            dense.reshape(-1)[index] = values
            self._dense = read_only(dense)
        return self._dense


def _split(rows: np.ndarray, dims) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """lam and the factors u, v, w of rows [lam, u, v, w], as views: lam (r,)
    and U (r, d1), V (r, d2), W (r, d3) of r rows, a 0-d lam and vectors of one."""
    d1, d2, _ = dims
    return rows[..., 0], rows[..., 1:1 + d1], rows[..., 1 + d1:1 + d1 + d2], rows[..., 1 + d1 + d2:]


def _part(k: int) -> property:
    """Part k of a term's row, lam a scalar and a factor a view; set, it writes the row."""
    return property(lambda t: _split(t.row, t.dims)[k][()],
                    lambda t, value: np.copyto(_split(t.row, t.dims)[k], value))


class DecompositionTerm:
    """One weighted rank-one term lam * u (x) v (x) w, held as a complex row
    [lam, u, v, w]: a decomposition's terms are views of its rows, which
    their setters write, and a term built on its own is a row of its own."""

    lam, u, v, w = map(_part, range(4))

    def __init__(self, lam: complex, u, v, w):
        self.dims = (len(u), len(v), len(w))
        self.row = np.concatenate(([lam], u, v, w)).astype(complex, copy=False)


class TensorDecomposition(Sequence):
    """Weighted rank-one terms lam * u (x) v (x) w, held stacked: rows is one
    complex (r, 1 + d1 + d2 + d3) array, a term's lam, u, v and w side by
    side in its row.  Built from terms, whose rows it copies, or from rows,
    which it keeps.  It is the sequence of its terms, views of its rows."""

    def __init__(self, dims, terms=(), *, rows=None):
        self.dims = dims = tuple(dims)
        if rows is None:
            for k, t in enumerate(terms):
                if t.dims != dims:
                    raise ValueError(f"term {k} factor lengths do not match dims {dims}")
            rows = np.array([t.row for t in terms], dtype=complex).reshape(-1, 1 + sum(dims))
        self.rows = np.asarray(rows, dtype=complex)
        if self.rows.ndim != 2 or self.rows.shape[1] != 1 + sum(dims):
            raise ValueError(f"rows of shape {self.rows.shape} do not hold terms of dims {dims}")

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return TensorDecomposition(self.dims, rows=self.rows[k])
        term = object.__new__(DecompositionTerm)
        term.row, term.dims = self.rows[k], self.dims
        return term

    # The terms: the decomposition itself, as the sequence of them.
    terms = property(lambda self: self)


def stack_terms(D: TensorDecomposition) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """lam (r,) and the factors U (r, d1), V (r, d2), W (r, d3), one term a
    row: views of D's rows, so writing into them edits D."""
    return _split(D.rows, D.dims)


# The bytes that one block of the rebuild, or of the nonzero scan, may hold.
# Below glibc's 128 KiB mmap threshold, so its temporaries are reused heap,
# not fresh pages; the fastest of 64, 128, 256 and 512 KiB on the certify
# chains.
_BLOCK_BYTES = 128 * 1024


def _width(rows: np.ndarray, dims) -> int:
    """The mode-2 indices in a _rebuild block of these rows: as many as keep
    its Khatri-Rao product and the block within _BLOCK_BYTES, one at the
    least."""
    d1, _, d3 = dims
    return max(1, _BLOCK_BYTES // (rows.itemsize * d3 * (len(rows) + d1)))


def _rebuild(rows: np.ndarray, dims):
    """Sum of the terms in the rows' own arithmetic, one block of mode-2
    indices at a time: yields (slice, block) with block the sum's
    [:, slice, :].  Each block is U^T times the row-wise Khatri-Rao product
    of V over the slice and the weighted last factors lam * W, formed once
    as an (r, d3) array of their own; each slice but the last is _width
    indices wide.  U, V and W are read off the rows in place, but for the
    real part of complex rows: its U has a stride of two items, which BLAS
    cannot read (numpy would copy it for every block), so that U is copied
    once.  The rows are only read."""
    lam, U, V, W = _split(rows, dims)
    if U.strides[1] != U.itemsize:
        U = np.ascontiguousarray(U)
    d1, d2, d3 = dims
    weighted = W * lam[:, None]
    width = _width(rows, dims)
    for j0 in range(0, d2, width):
        j = slice(j0, min(j0 + width, d2))
        KR = (V[:, j, None] * weighted[:, None, :]).reshape(len(lam), (j.stop - j0) * d3)
        yield j, (U.T @ KR).reshape(d1, j.stop - j0, d3)


def decomposition_tensor(D: TensorDecomposition) -> np.ndarray:
    """Sum of the terms, complex, filled one _rebuild block at a time."""
    out = np.empty(D.dims, dtype=complex)
    for j, block in _rebuild(D.rows, D.dims):
        out[:, j] = block
    return out


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def structure_tensor(kind, n: int, f: complex | None = None,
                     pattern: SparsityPattern | None = None) -> Tensor3:
    """Matvec structure tensor over the canonical parameter basis:
    entry(p, j, k) = k-th coordinate of (basis_p @ e_j).  A kind that
    needs f uses f = -1 when none is given.  The tensor's nonzeros are the
    placement of the structure given by its one level, read as they are
    stored: parameter p at cell (k, j) with its coefficient.  The structure
    is checked as one (check_structure): like every level, it needs a
    parameter."""
    levels = (LevelSpec(kind, n, default_f(kind, f), pattern),)
    (_, n, P, _), levels, _ = _checked(StructureKind.MULTILEVEL, n, levels=levels)
    param, cell, coeff = _placement(levels)[:3]
    row, col = np.divmod(cell, n)
    return Tensor3.from_nonzeros((P, n, n), (param * n + col) * n + row, coeff)


def matmul_tensor(m: int, n: int, p: int) -> Tensor3:
    """Matrix multiplication tensor: entry((i,j), (j,k), (i,k)) = 1, row-major."""
    T = np.zeros((m * n, n * p, m * p), dtype=complex)
    i, j, k = np.indices((m, n, p)).reshape(3, -1)
    T[i * n + j, j * p + k, i * p + k] = 1.0
    return Tensor3(T)


def complex_mul_tensor() -> Tensor3:
    """Multiplication of complex numbers over the reals, basis (1, i)."""
    T = np.zeros((2, 2, 2), dtype=complex)
    T[[0, 1, 0, 1], [0, 1, 1, 0], [0, 0, 1, 1]] = [1.0, -1.0, 1.0, 1.0]
    return Tensor3(T)


def so3_tensor() -> Tensor3:
    """Structure constants of the rotation Lie algebra (Levi-Civita symbol)."""
    i, j, k = np.indices((3, 3, 3))
    return Tensor3(((i - j) * (j - k) * (k - i) / 2.0).astype(complex))


def commutator_beta_tensor() -> Tensor3:
    """The 3x3x3 bilinear form the 2x2 commutator reduces to:
    (s, t) -> (s1 t2 + s2 t3, -s2 t1 + s3 t2, -s1 t1 - s3 t3)."""
    T = np.zeros((3, 3, 3), dtype=complex)
    T[[0, 1, 1, 2, 0, 2], [1, 2, 0, 1, 0, 2], [0, 0, 1, 1, 2, 2]] = [1, 1, -1, 1, -1, -1]
    return Tensor3(T)


NAMED_BUILDERS = {
    "complex_mul": complex_mul_tensor,
    "so3": so3_tensor,
    "commutator_beta": commutator_beta_tensor,
}


def build_structure_tensor(spec: str, n: int | None = None, f: complex | None = None,
                           pattern: SparsityPattern | None = None,
                           m: int | None = None, p: int | None = None) -> Tensor3:
    """Dispatch: a structured-matvec kind plus n, 'matmul' with (m, n, p),
    or one of the named builders complex_mul / so3 / commutator_beta."""
    if spec in NAMED_BUILDERS:
        return NAMED_BUILDERS[spec]()
    if spec == "matmul":
        if m is None or n is None or p is None:
            raise ValueError("matmul tensor needs m, n, p")
        return matmul_tensor(m, n, p)
    return structure_tensor(spec, n, f=f, pattern=pattern)


# ---------------------------------------------------------------------------
# Verification and rank bounds
# ---------------------------------------------------------------------------

def contract(T: Tensor3, u, v) -> np.ndarray:
    """w[k] = sum_ij T(i,j,k) u[i] v[j]."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    d1, d2, _ = T.dims
    if u.shape != (d1,) or v.shape != (d2,):
        raise ValueError(f"contract expects vectors of lengths {d1} and {d2}")
    return np.einsum("ijk,i,j->k", T.entries, u, v)


@dataclass
class VerificationReport:
    max_abs_error: float
    term_count: int
    passed: bool


def _less_blocks(T: Tensor3, rows: np.ndarray):
    """A function of (slice, block) that subtracts T[:, slice, :] from a
    _rebuild block of these rows, in place where the block's dtype holds
    the difference: the nonzeros in the block when T holds them, and the
    dense slice when T holds only that, whose nonzeros may take twice its
    bytes.  Each nonzero's flat index in its block is worked out once, and
    the nonzeros are put in order of block, so that a block's are one run;
    when one block holds the whole tensor, they are its own flat indices.
    The zeros would change nothing they were subtracted from.  With real
    rows, T with no imaginary part is read as its real part."""
    _, d2, d3 = T.dims
    real = rows.dtype.kind != "c"
    if T._coords is None:
        arr = T._dense
        if real and np.iscomplexobj(arr) and not arr.imag.any():
            arr = arr.real
        return lambda j, R: np.subtract(R, arr[:, j],
                                        out=R if np.can_cast(arr.dtype, R.dtype) else None)
    index, values = T._coords
    if real and np.iscomplexobj(values) and not values.imag.any():
        values = values.real
    dtype = np.result_type(rows.dtype, values.dtype)
    width = _width(rows, T.dims)
    starts = (0, len(index))
    if width < d2:
        i, j, k = np.unravel_index(index, T.dims)
        block = j // width
        j0 = block * width
        order = np.argsort(block, kind="stable")
        index = ((i * np.minimum(width, d2 - j0) + j - j0) * d3 + k)[order]
        values = values[order]
        starts = np.searchsorted(block[order], np.arange(-(-d2 // width) + 1))

    def less(j, R):
        run = slice(starts[j.start // width], starts[j.start // width + 1])
        R = R.astype(dtype, copy=False)
        R.reshape(-1)[index[run]] -= values[run]
        return R
    return less


def verify_decomposition(T: Tensor3, D: TensorDecomposition, tol: float) -> VerificationReport:
    """The largest entry of |T - sum of the terms|, inf when that is not
    finite, so that an overflowed rebuild cannot pass.

    The sum is rebuilt one block of mode-2 indices at a time (_rebuild),
    T's part of each block is subtracted from it (_less_blocks) and the
    block's largest error kept, so beside the weighted last factors the
    check holds one block's temporaries at a time, and T's nonzeros when
    it is held as those; D's rows are read in place.

    When lam and every factor have a zero imaginary part (the 0/+-1 terms of
    the pairwise kernels, for one), the terms are summed in real arithmetic:
    at a quarter of the complex product's cost, and exactly where the sums
    are exact."""
    if D.dims != T.dims:
        raise ValueError(f"decomposition dims {D.dims} do not match tensor dims {T.dims}")
    rows = D.rows.real if not D.rows.imag.any() else D.rows
    less = _less_blocks(T, rows)
    err = 0.0
    for j, R in _rebuild(rows, D.dims):
        block_err = float(np.abs(less(j, R)).max())
        if not math.isfinite(block_err):
            err = math.inf
            break
        err = max(err, block_err)
    return VerificationReport(err, len(D.rows), err <= tol)


# The least norm whose square is a normal float64.
_NORMAL_NORM = float(np.sqrt(np.finfo(np.float64).tiny))


def _nonzeros(entries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The C-order flat indices and the values of the nonzero entries,
    scanned one block of mode-1 slices at a time.  A complex block is
    compared as its real and imaginary parts, which is several times
    faster than the complex compare; an entry is nonzero when either of
    its two part flags is, that is when they, read as one uint16, are."""
    cells = entries[0].size
    step = max(1, _BLOCK_BYTES // (2 * cells))
    idx, vals = [], []
    for i0 in range(0, len(entries), step):
        block = np.ascontiguousarray(entries[i0:i0 + step]).reshape(-1)
        flags = block.view(block.real.dtype) != 0
        if block.dtype.kind == "c":
            flags = flags.view(np.uint16)
        nz = np.flatnonzero(flags)
        idx.append(nz + i0 * cells)
        vals.append(block[nz])
    return np.concatenate(idx), np.concatenate(vals)


def _roots(a: np.ndarray, b: np.ndarray, size: int) -> np.ndarray:
    """The component of each of size vertices joined by the edges (a, b),
    labelled by its least vertex: every vertex starts as its own root,
    each round hooks the larger root of every edge whose ends differ onto
    the smaller, and roots are chased until each vertex points at one."""
    root = np.arange(size)
    while True:
        ra, rb = root[a], root[b]
        if (ra == rb).all():
            return root
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        up = root[root]
        while (up != root).any():
            root, up = up, up[up]


def _incidence_rank(row, col, values, counts, size: int) -> int | None:
    """The exact rank of an unfolding each nonempty column of which holds
    two nonzeros, all of one value (counts: the nonzeros per column), else
    None.  It is that value times the unsigned incidence matrix of the
    graph on its rows whose edges are its columns, of rank the rows some
    edge touches less the bipartite components.  These are read off the
    double cover, where row v has copies v and v + size and an edge (a, b)
    joins a to b + size and a + size to b: a component's two copies of a
    row are joined there exactly when it has an odd cycle."""
    if not (counts.max(initial=0) == 2 and 2 * np.count_nonzero(counts) == len(values)
            and values[0] != 0 and (values == values[0]).all()):
        return None
    a, b = row[np.argsort(col, kind="stable")].reshape(-1, 2).T
    root = _roots(np.concatenate((a, a + size)), np.concatenate((b + size, b)), 2 * size)
    touched = np.flatnonzero(np.bincount(row, minlength=size))
    r0, r1 = root[touched], root[touched + size]
    return len(touched) - int(np.count_nonzero(np.bincount(np.minimum(r0, r1)[r0 != r1])))


def flattening_ranks(T: Tensor3, tol: float = 1e-9) -> tuple[int, int, int]:
    """Numerical ranks of the three unfoldings; each lower-bounds border rank.

    Everything is read off T's nonzeros.  An unfolding none of whose
    columns holds two nonzeros, that is whose nonzeros' column indices are
    all distinct, has rows with disjoint supports, so M M^H is diagonal
    and its singular values are exactly its row norms, which np.bincount
    sums over the nonzeros' row indices: its rank is the count of rows
    above tol times the largest, with no SVD.  In a single-level structure
    tensor a parameter fills at most one cell of each matrix row and
    column, so this holds for every unfolding but tph's mode-1 one, whose
    cells hold two parameters, both 1: that one's rank is its incidence
    graph's (_incidence_rank), exact, with no SVD.  Row norms whose squares
    would leave the normal float range also go to the SVD, which scales
    its input.

    Every other unfolding goes to the SVD of its dense form, built from the
    nonzeros, in its tall orientation: the singular values are the same,
    and LAPACK is several times faster on it.  A tensor whose nonzeros have
    no imaginary part (every structure tensor with real coefficients) goes
    in real arithmetic: the real SVD of the real part has the same singular
    values at about half the cost.
    """
    idx, vals = T.nonzeros
    if not vals.imag.any():
        vals = vals.real
    dims = d1, d2, d3 = T.dims
    i, cell = np.divmod(idx, d2 * d3)
    j, k = np.divmod(cell, d3)
    with np.errstate(over="ignore"):
        squares = np.abs(vals) ** 2
    ranks = []
    # Each unfolding's row and column index of every nonzero.
    for size, row, col in zip(dims, (i, j, k), (cell, i * d3 + k, idx // d3)):
        s = np.sqrt(np.bincount(row, weights=squares, minlength=size))
        top = s.max()
        counts = np.bincount(col)
        if np.isfinite(top) and tol * top > _NORMAL_NORM and np.count_nonzero(counts) == len(idx):
            ranks.append(int((s > tol * top).sum()))
            continue
        rank = _incidence_rank(row, col, vals, counts, size)
        if rank is None:
            mat = np.zeros((size, d1 * d2 * d3 // size), dtype=vals.dtype)
            mat[row, col] = vals
            s = np.linalg.svd(mat.T if size < mat.shape[1] else mat, compute_uv=False)
            rank = int((s > tol * s[0]).sum()) if s[0] > 0 else 0
        ranks.append(rank)
    return tuple(ranks)


@dataclass
class OttavianiReport:
    nonsingular: bool
    det_magnitude: float


def ottaviani_test(T: Tensor3) -> OttavianiReport:
    """Border-rank >= 5 witness for 3x3x3 tensors.

    Builds the 9x9 skew contraction of the mode-1 slices,
    [[0, X3, -X2], [-X3, 0, X1], [X2, -X1, 0]], scales rows to unit norm,
    and reports nonsingularity of the determinant.  Rank <= 4 tensors always
    produce a singular matrix, so nonsingularity certifies border rank >= 5.
    """
    if T.dims != (3, 3, 3):
        raise ValueError(f"ottaviani test needs a 3x3x3 tensor, got {T.dims}")
    X1, X2, X3 = T.entries[0], T.entries[1], T.entries[2]
    Z = np.zeros((3, 3), dtype=complex)
    M = np.block([[Z, X3, -X2], [-X3, Z, X1], [X2, -X1, Z]])
    norms = np.linalg.norm(M, axis=1)
    if np.any(norms == 0):
        return OttavianiReport(False, 0.0)
    det = abs(np.linalg.det(M / norms[:, None]))
    return OttavianiReport(bool(det > 1e-6), float(det))


def stability_measure(D: TensorDecomposition) -> float:
    """Coefficient sum of the factor-normalized decomposition: sum |lam_i|
    after folding each term's factor norms into its coefficient."""
    lam, *factors = stack_terms(D)
    norms = np.array([np.linalg.norm(F, axis=1) for F in factors])
    zero = np.flatnonzero((norms == 0).any(axis=0))
    if zero.size:
        raise ValueError(f"term {zero[0]} has a zero factor vector")
    return float(np.sum(np.abs(lam) * norms.prod(axis=0)))


# ---------------------------------------------------------------------------
# Reference decompositions of the complex-multiplication tensor
# ---------------------------------------------------------------------------

def complex_mul_decomposition(preset: str) -> TensorDecomposition:
    """Named decompositions of the complex-multiplication tensor.

    usual: the four-term schoolbook algorithm (coefficient sum 4).
    gauss: the three-term algorithm (coefficient sum 2(1+sqrt 2)), read off
           gauss_complex_mul's triple as every kernel's terms are
           (extraction.triple_decomposition).
    cube:  the three-term algorithm that is simultaneously rank- and
           stability-optimal; built from unit vectors at 120-degree spacing,
           with the input factors conjugated relative to the output factor
           (complex multiplication commutes with conjugation, which is what
           lets a symmetric family of cubes realize the non-symmetric tensor).
    """
    if preset == "usual":
        # Rows [lam, u, v, w]: (1, e1, e1, e1), (-1, e2, e2, e1), (1, e1, e2, e2), (1, e2, e1, e2).
        rows = [[1, 1, 0, 1, 0, 1, 0], [-1, 0, 1, 0, 1, 1, 0], [1, 1, 0, 0, 1, 0, 1],
                [1, 0, 1, 1, 0, 0, 1]]
    elif preset == "gauss":
        # kernels and extraction both import this module
        from .extraction import triple_decomposition
        from .kernels import GAUSS_MAPS
        return triple_decomposition(GAUSS_MAPS)
    elif preset == "cube":
        rows = [[4.0 / 3.0, c, -s, c, -s, c, s] for c, s in
                ((np.cos(t), np.sin(t)) for t in (0.0, 2 * np.pi / 3, 4 * np.pi / 3))]
    else:
        raise ValueError(f"unknown preset {preset!r} (expected usual, gauss, or cube)")
    return TensorDecomposition((2, 2, 2), rows=rows)


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------

def serialize_decomposition(D: TensorDecomposition) -> str:
    pairs = [np.stack([F.real, F.imag], axis=-1).tolist() for F in stack_terms(D)]
    return json.dumps({
        "dims": list(D.dims),
        "terms": [{"lambda": lam, "u": u, "v": v, "w": w} for lam, u, v, w in zip(*pairs)],
    })


def parse_decomposition(text: str) -> TensorDecomposition:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"offset {exc.pos}: invalid JSON ({exc.msg})") from None
    if not isinstance(doc, dict) or "dims" not in doc or "terms" not in doc:
        raise SchemaError("top level: expected an object with dims and terms")
    dims = doc["dims"]
    if (not isinstance(dims, list)) or len(dims) != 3 \
            or not all(isinstance(d, int) and not isinstance(d, bool) and d > 0 for d in dims):
        raise SchemaError("dims: expected three positive integers")
    if not isinstance(doc["terms"], list):
        raise SchemaError("terms: expected a list")
    rows = []
    for k, t in enumerate(doc["terms"]):
        where = f"terms[{k}]"
        if not isinstance(t, dict) or any(key not in t for key in ("lambda", "u", "v", "w")):
            raise SchemaError(f"{where}: expected an object with lambda, u, v, w")
        rows.append([read_complex_pair(t["lambda"], f"{where}.lambda")])
        for name, d in zip("uvw", dims):
            vec = t[name]
            if not isinstance(vec, list):
                raise SchemaError(f"{where}.{name}: expected a list of [re, im]")
            rows[k] += [read_complex_pair(pair, f"{where}.{name}[{i}]")
                        for i, pair in enumerate(vec)]
            if len(vec) != d:
                raise SchemaError(f"{where}.{name}: expected {d} entries, got {len(vec)}")
    return TensorDecomposition(dims, rows=np.array(rows, dtype=complex).reshape(-1, 1 + sum(dims)))
