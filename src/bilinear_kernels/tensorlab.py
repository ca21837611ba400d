"""Structure tensors as dense order-3 arrays, decomposition verification,
flattening and skew-contraction rank bounds, and the coefficient-sum
stability measure."""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .structures import (LevelSpec, SchemaError, SparsityPattern, StructureKind, _checked,
                         _placement, default_f, read_complex_pair)


@dataclass(frozen=True)
class Tensor3:
    """Dense order-3 tensor; entry(i, j, k) = entries[i, j, k]."""

    entries: np.ndarray

    def __post_init__(self):
        """Array-like entries become an array of their own dtype."""
        object.__setattr__(self, "entries", np.asarray(self.entries))
        if self.entries.ndim != 3:
            raise ValueError("Tensor3 needs a 3-dimensional array")
        if min(self.entries.shape) < 1:
            raise ValueError("tensor dims must be positive")
        if not np.isfinite(self.entries).all():
            raise ValueError("tensor entries must be finite")

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.entries.shape


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


def _rebuild(rows: np.ndarray, dims):
    """Sum of the terms in the rows' own arithmetic, one block of mode-2
    indices at a time: yields (slice, block) with block the sum's
    [:, slice, :].  Each block is the weighted first factors lam * U,
    formed once as an array of their own, times the row-wise Khatri-Rao
    product of the other two over the slice, read off the rows in place;
    the slice is as wide as keeps both within _BLOCK_BYTES (one index at
    the least).  The rows are only read."""
    lam, U, V, W = _split(rows, dims)
    d1, d2, d3 = dims
    weighted = (U * lam[:, None]).T
    step = max(1, _BLOCK_BYTES // (rows.itemsize * d3 * (len(lam) + d1)))
    for j0 in range(0, d2, step):
        j = slice(j0, min(j0 + step, d2))
        KR = (V[:, j, None] * W[:, None, :]).reshape(len(lam), (j.stop - j0) * d3)
        yield j, (weighted @ KR).reshape(d1, j.stop - j0, d3)


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
    needs f uses f = -1 when none is given.  The tensor is read off the
    placement of the structure given by its one level, and is checked as
    one (check_structure): like every level, it needs a parameter."""
    levels = (LevelSpec(kind, n, default_f(kind, f), pattern),)
    (_, n, P, _), levels = _checked(StructureKind.MULTILEVEL, n, levels=levels)
    param, cell, coeff = _placement(levels)[:3]
    T = np.zeros((P, n, n), dtype=complex)
    np.add.at(T, (param, cell % n, cell // n), coeff)
    return Tensor3(T)


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


def verify_decomposition(T: Tensor3, D: TensorDecomposition, tol: float) -> VerificationReport:
    """The largest entry of |T - sum of the terms|, inf when that is not
    finite, so that an overflowed rebuild cannot pass.

    The sum is rebuilt one block of mode-2 indices at a time (_rebuild):
    T's slice is subtracted from each block and the block's largest error
    kept, so beside the weighted first factors it holds one block's
    temporaries at a time; D's rows are read in place.

    When lam and every factor have a zero imaginary part (the 0/+-1 terms of
    the pairwise kernels, for one), the terms are summed in real arithmetic:
    at a quarter of the complex product's cost, and exactly where the sums
    are exact."""
    if D.dims != T.dims:
        raise ValueError(f"decomposition dims {D.dims} do not match tensor dims {T.dims}")
    arr, rows = T.entries, D.rows
    if not rows.imag.any():
        rows = rows.real
        # A real array's .imag would be a fresh array of zeros as large as T.
        if np.iscomplexobj(arr) and not arr.imag.any():
            arr = arr.real
    in_place = np.can_cast(arr.dtype, rows.dtype)
    err = 0.0
    for j, R in _rebuild(rows, D.dims):
        R = np.subtract(R, arr[:, j], out=R if in_place else None)
        block_err = float(np.abs(R).max())
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


def flattening_ranks(T: Tensor3, tol: float = 1e-9) -> tuple[int, int, int]:
    """Numerical ranks of the three unfoldings; each lower-bounds border rank.

    T is scanned once for its nonzeros (_nonzeros, in blocks of at most
    _BLOCK_BYTES of flags), and everything up to the SVD is read from
    them.  An unfolding none of whose columns holds two nonzeros, that is
    whose nonzeros' column indices are all distinct, has rows with
    disjoint supports, so M M^H is diagonal and its singular values are
    exactly its row norms, which np.bincount sums over the nonzeros' row
    indices: its rank is the count of rows above tol times the largest,
    with no SVD.  In a single-level structure tensor a parameter fills at
    most one cell of each matrix row and column, so this holds for every
    unfolding but tph's mode-1 one, whose cells hold two parameters.  Row
    norms whose squares would leave the normal float range also go to the
    SVD, which scales its input.

    Every other unfolding goes to the SVD of the dense array in its tall
    orientation: the singular values are the same, and LAPACK is several
    times faster on it.  A tensor whose nonzeros have no imaginary part
    (every structure tensor with real coefficients) goes in real
    arithmetic: the real SVD of the real part has the same singular values
    at about half the cost.
    """
    idx, vals = _nonzeros(T.entries)
    arr = T.entries
    if not vals.imag.any():
        arr, vals = arr.real, vals.real
    d1, d2, d3 = arr.shape
    i, cell = np.divmod(idx, d2 * d3)
    j, k = np.divmod(cell, d3)
    with np.errstate(over="ignore"):
        squares = np.abs(vals) ** 2
    ranks = []
    # Each unfolding's row and column index of every nonzero.
    for mode, (row, col, axes) in enumerate(((i, cell, (0, 1, 2)), (j, i * d3 + k, (1, 0, 2)),
                                             (k, idx // d3, (2, 0, 1)))):
        s = np.sqrt(np.bincount(row, weights=squares, minlength=arr.shape[mode]))
        top = s.max()
        if not (np.isfinite(top) and tol * top > _NORMAL_NORM
                and np.count_nonzero(np.bincount(col)) == len(idx)):
            mat = arr.transpose(axes).reshape(arr.shape[mode], -1)
            if mat.shape[0] < mat.shape[1]:
                mat = mat.T
            s = np.linalg.svd(mat, compute_uv=False)
            top = s[0]
        ranks.append(int((s > tol * top).sum()) if top > 0 else 0)
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
