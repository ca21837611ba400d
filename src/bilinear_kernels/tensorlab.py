"""Structure tensors as dense order-3 arrays, decomposition verification,
flattening and skew-contraction rank bounds, and the coefficient-sum
stability measure."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .structures import (LevelSpec, SchemaError, SparsityPattern, StructureKind, _placement,
                         check_level, default_f, read_complex_pair)


@dataclass(frozen=True)
class Tensor3:
    """Dense order-3 tensor; entry(i, j, k) = entries[i, j, k]."""

    entries: np.ndarray

    def __post_init__(self):
        if self.entries.ndim != 3:
            raise ValueError("Tensor3 needs a 3-dimensional array")
        if min(self.entries.shape) < 1:
            raise ValueError("tensor dims must be positive")
        if not np.isfinite(self.entries).all():
            raise ValueError("tensor entries must be finite")

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.entries.shape


@dataclass
class DecompositionTerm:
    lam: complex
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray


@dataclass
class TensorDecomposition:
    """Weighted rank-one terms lam * u (x) v (x) w."""

    dims: tuple[int, int, int]
    terms: list[DecompositionTerm]

    def __post_init__(self):
        d1, d2, d3 = self.dims
        for k, t in enumerate(self.terms):
            if len(t.u) != d1 or len(t.v) != d2 or len(t.w) != d3:
                raise ValueError(f"term {k} factor lengths do not match dims {self.dims}")


def _term_rows(D: TensorDecomposition) -> np.ndarray:
    """Every term's lam, u, v and w side by side, one row per term: one
    complex array, so one pass tests them all."""
    d1, d2, d3 = D.dims
    rows = np.empty((len(D.terms), 1 + d1 + d2 + d3), dtype=complex)
    if D.terms:
        rows[:, 0] = [t.lam for t in D.terms]
        rows[:, 1:1 + d1] = [t.u for t in D.terms]
        rows[:, 1 + d1:1 + d1 + d2] = [t.v for t in D.terms]
        rows[:, 1 + d1 + d2:] = [t.w for t in D.terms]
    return rows


def _split(rows: np.ndarray, dims) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """lam (r,) and the factors U (r, d1), V (r, d2), W (r, d3): views of
    the term rows."""
    d1, d2, _ = dims
    return rows[:, 0], rows[:, 1:1 + d1], rows[:, 1 + d1:1 + d1 + d2], rows[:, 1 + d1 + d2:]


def stack_terms(D: TensorDecomposition) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """lam (r,) and the factors U (r, d1), V (r, d2), W (r, d3), one term a
    row; stacked on every call, so later edits to the terms are seen."""
    return _split(_term_rows(D), D.dims)


def _rebuild(rows: np.ndarray, dims) -> np.ndarray:
    """Sum of the terms in the rows' own arithmetic, as one matrix product:
    the weighted first factors times the row-wise Khatri-Rao product of the
    other two.  Scales the rows' U in place."""
    lam, U, V, W = _split(rows, dims)
    d1, d2, d3 = dims
    U *= lam[:, None]
    KR = (V[:, :, None] * W[:, None, :]).reshape(len(lam), d2 * d3)
    return (U.T @ KR).reshape(d1, d2, d3)


def decomposition_tensor(D: TensorDecomposition) -> np.ndarray:
    """Sum of the terms, complex."""
    return _rebuild(_term_rows(D), D.dims)


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def structure_tensor(kind, n: int, f: complex | None = None,
                     pattern: SparsityPattern | None = None) -> Tensor3:
    """Matvec structure tensor over the canonical parameter basis:
    entry(p, j, k) = k-th coordinate of (basis_p @ e_j)."""
    kind = StructureKind(kind)
    f = default_f(kind, f)
    P = check_level(kind, n, f, pattern)
    param, cell, coeff, _ = _placement((LevelSpec(kind, n, f, pattern),))
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
    "complex_mul": lambda **kw: complex_mul_tensor(),
    "so3": lambda **kw: so3_tensor(),
    "commutator_beta": lambda **kw: commutator_beta_tensor(),
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
    kind = StructureKind(spec)
    if n is None:
        raise ValueError("structured tensor needs n")
    return structure_tensor(kind, n, f=f, pattern=pattern)


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

    When lam and every factor have a zero imaginary part (the 0/+-1 terms of
    the pairwise kernels, for one), the terms are summed in real arithmetic:
    at a quarter of the complex product's cost, and exactly where the sums
    are exact.  T is subtracted from the sum in place."""
    if tuple(D.dims) != tuple(T.dims):
        raise ValueError(f"decomposition dims {D.dims} do not match tensor dims {T.dims}")
    rows = _term_rows(D)
    if rows.imag.any():
        R = _rebuild(rows, D.dims)
        R -= T.entries
        R = np.abs(R)
    else:
        rows = rows.real.copy()
        R = _rebuild(rows, D.dims)
        if T.entries.imag.any():
            R = np.abs(R - T.entries)
        else:
            R -= T.entries.real
            np.abs(R, out=R)
    err = float(R.max())
    if not math.isfinite(err):
        err = math.inf
    return VerificationReport(err, len(D.terms), err <= tol)


# The least norm whose square is a normal float64.
_NORMAL_NORM = float(np.sqrt(np.finfo(np.float64).tiny))


def flattening_ranks(T: Tensor3, tol: float = 1e-9) -> tuple[int, int, int]:
    """Numerical ranks of the three unfoldings; each lower-bounds border rank.

    An unfolding none of whose columns holds two nonzeros has rows with
    disjoint supports, so M M^H is diagonal and its singular values are
    exactly its row norms: its rank is the count of rows above tol times
    the largest, with no SVD.  In a single-level structure tensor a
    parameter fills at most one cell of each matrix row and column, so
    this holds for every unfolding but tph's mode-1 one, whose cells hold
    two parameters.  Row norms whose squares would leave the normal float
    range also go to the SVD, which scales its input.

    Every other unfolding goes to the SVD in its tall orientation: the
    singular values are the same, and LAPACK is several times faster on
    it.  A tensor whose imaginary part is exactly zero (every structure
    tensor with real coefficients) goes in real arithmetic: the real SVD
    of the real part has the same singular values at about half the cost.
    """
    ranks = []
    arr = T.entries
    if not arr.imag.any():
        arr = arr.real
    # A column holds at most one nonzero iff the nonzero columns number as
    # many as the nonzeros.  The mode-2 and mode-3 row norms both sum the
    # squares over the parameters first.
    support = arr != 0
    nnz = np.count_nonzero(support)
    with np.errstate(over="ignore"):
        squares = np.abs(arr) ** 2
    by_cell = squares.sum(axis=0)
    row_squares = (squares.reshape(len(arr), -1).sum(axis=1), by_cell.sum(axis=1),
                   by_cell.sum(axis=0))
    for mode, axes in enumerate(((0, 1, 2), (1, 0, 2), (2, 0, 1))):
        s = np.sqrt(row_squares[mode])
        top = s.max()
        if not (np.count_nonzero(support.any(axis=mode)) == nnz
                and np.isfinite(top) and tol * top > _NORMAL_NORM):
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
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    if preset == "usual":
        terms = [
            DecompositionTerm(1.0, e1, e1, e1),
            DecompositionTerm(-1.0, e2, e2, e1),
            DecompositionTerm(1.0, e1, e2, e2),
            DecompositionTerm(1.0, e2, e1, e2),
        ]
    elif preset == "gauss":
        # kernels and extraction both import this module
        from .extraction import triple_decomposition
        from .kernels import GAUSS_MAPS
        return triple_decomposition(GAUSS_MAPS)
    elif preset == "cube":
        terms = []
        for theta in (0.0, 2 * np.pi / 3, 4 * np.pi / 3):
            inp = np.array([np.cos(theta), -np.sin(theta)])
            out = np.array([np.cos(theta), np.sin(theta)])
            terms.append(DecompositionTerm(4.0 / 3.0, inp, inp, out))
    else:
        raise ValueError(f"unknown preset {preset!r} (expected usual, gauss, or cube)")
    return TensorDecomposition((2, 2, 2), terms)


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------

def serialize_decomposition(D: TensorDecomposition) -> str:
    return json.dumps({
        "dims": list(D.dims),
        "terms": [{
            "lambda": [complex(t.lam).real, complex(t.lam).imag],
            "u": [[complex(z).real, complex(z).imag] for z in t.u],
            "v": [[complex(z).real, complex(z).imag] for z in t.v],
            "w": [[complex(z).real, complex(z).imag] for z in t.w],
        } for t in D.terms],
    })


def _read_cvec(obj, where: str) -> np.ndarray:
    if not isinstance(obj, list):
        raise SchemaError(f"{where}: expected a list of [re, im]")
    return np.array([read_complex_pair(pair, f"{where}[{k}]") for k, pair in enumerate(obj)],
                    dtype=complex)


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
    terms = []
    for k, t in enumerate(doc["terms"]):
        where = f"terms[{k}]"
        if not isinstance(t, dict) or any(key not in t for key in ("lambda", "u", "v", "w")):
            raise SchemaError(f"{where}: expected an object with lambda, u, v, w")
        lam = read_complex_pair(t["lambda"], f"{where}.lambda")
        factors = []
        for name, d in zip("uvw", dims):
            vec = _read_cvec(t[name], f"{where}.{name}")
            if len(vec) != d:
                raise SchemaError(f"{where}.{name}: expected {d} entries, got {len(vec)}")
            factors.append(vec)
        terms.append(DecompositionTerm(lam, *factors))
    return TensorDecomposition(tuple(dims), terms)
