"""Structured matrix representations, the StructureSpec record, placements
and dense expansion, the naive oracle, basis enumeration, and JSON
serialization.  Each structure's placement is built once and kept in the
map store (counting.MapStore) beside the kernel triples.

Canonical parameter orders (normative for serialization and basis indexing):
  circulant            first column top to bottom
  f_circulant          first column with the wrapped entries' f factors stripped:
                       A[i][j] = d[(i-j) mod n] * (f if i > j else 1)
  toeplitz             diagonals t_{-(n-1)} .. t_{n-1}, subdiagonals first
  hankel               anti-diagonals h_0 .. h_{2n-2}, A[i][j] = h[i+j]
  triangular_toeplitz  a_0 .. a_{n-1}, A[i][j] = a[j-i] on and above the diagonal
  tph                  Toeplitz diagonals then Hankel anti-diagonals (4n-2 values)
  symmetric            row-major upper triangle
  skew_symmetric       row-major strict upper triangle
  sparse               values aligned with the pattern's row-major entry list
  multilevel           outermost level varies slowest (Kronecker block layout)
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from itertools import repeat
from typing import Callable, Sequence

import numpy as np

from .counting import (CountContext, Kind, TrackedScalar, TrackedVector, _scalars, _stored,
                       as_matrix, as_vector, constant, match_output, read_only, to_grid)


class SchemaError(ValueError):
    """Malformed matrix/vector JSON; the message carries the offending position."""


class StructureKind(str, Enum):
    CIRCULANT = "circulant"
    F_CIRCULANT = "f_circulant"
    TOEPLITZ = "toeplitz"
    HANKEL = "hankel"
    UPPER_TRIANGULAR_TOEPLITZ = "triangular_toeplitz"
    TOEPLITZ_PLUS_HANKEL = "tph"
    SYMMETRIC = "symmetric"
    SKEW_SYMMETRIC = "skew_symmetric"
    SPARSE = "sparse"
    MULTILEVEL = "multilevel"


@dataclass(frozen=True)
class SparsityPattern:
    """Set of (row, column) index pairs inside an n x m bound."""

    rows: int
    cols: int
    entries: tuple[tuple[int, int], ...]

    def __post_init__(self):
        seen = set()
        for (r, c) in self.entries:
            if not (0 <= r < self.rows and 0 <= c < self.cols):
                raise ValueError(f"pattern entry ({r},{c}) outside {self.rows}x{self.cols}")
            if (r, c) in seen:
                raise ValueError(f"duplicate pattern entry ({r},{c})")
            seen.add((r, c))

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class LevelSpec:
    """One level of a multilevel (Kronecker) structure."""

    kind: StructureKind
    n: int
    f: complex | None = None
    pattern: SparsityPattern | None = None

    def __post_init__(self):
        """A kind given by its name becomes its StructureKind."""
        object.__setattr__(self, "kind", StructureKind(self.kind))


@dataclass(frozen=True)
class StructureSpec:
    """Everything the library knows about one single-level structure kind.

    params(n, pattern)        parameter count, in the canonical order above
    count(n, pattern)         closed-form bilinear count of the kernel
    dim(n, pattern)           dimension of the matrix space
    placement(n, f, pattern)  read-only (param, cell, coeff) index triples:
                              dense.flat[cell] += coeff * data[param]
    maps(n, f, pattern)       the kernel's stored Cohn-Umans triple (U, V, W)
                              of constant maps: U embeds the parameters, V the
                              input, W reads the output off the count = U-row
                              pointwise products: W (U t * V x) is the
                              minimum-multiplication product
    needs_f, needs_pattern    the kind takes a nonzero f / a sparsity pattern

    The table `kernels.SPECS` holds one per kind, in enum order.  MULTILEVEL
    is the one composite kind: it has levels instead of an entry.
    """

    params: Callable[[int, SparsityPattern | None], int]
    count: Callable[[int, SparsityPattern | None], int]
    dim: Callable[[int, SparsityPattern | None], int]
    placement: Callable[[int, complex | None, SparsityPattern | None],
                        tuple[np.ndarray, np.ndarray, np.ndarray]]
    maps: Callable[[int, complex | None, SparsityPattern | None], tuple]
    needs_f: bool = False
    needs_pattern: bool = False


@lru_cache(maxsize=len(StructureKind))  # one entry per kind; an import costs more than a hit
def spec(kind: StructureKind) -> StructureSpec:
    """The table entry of a single-level kind."""
    from .kernels import SPECS  # the table holds the kernel maps, and kernels imports this module
    try:
        return SPECS[kind]
    except KeyError:
        raise ValueError(f"{StructureKind(kind).value} has no table entry: "
                         f"a multilevel structure is given by its levels") from None


def default_f(kind: StructureKind, f: complex | None) -> complex | None:
    """The f of a single-level kind: -1 when the kind needs one and none
    is given, else f as given."""
    return complex(-1.0) if f is None and spec(kind).needs_f else f


def check_inputs(kind: StructureKind, n: int, pattern: SparsityPattern | None,
                 levels: tuple[LevelSpec, ...] | None) -> StructureKind:
    """The kind, once its order is positive and it has the levels or the
    pattern it needs, and no pattern it does not take."""
    kind = StructureKind(kind)
    if n < 1:
        raise ValueError("order must be positive")
    if kind is StructureKind.MULTILEVEL:
        if not levels:
            raise ValueError("multilevel structure needs levels")
    elif not spec(kind).needs_pattern:
        if pattern is not None:
            raise ValueError(f"{kind.value} takes no sparsity pattern")
    elif pattern is None:
        raise ValueError(f"{kind.value} structure needs a pattern")
    elif (pattern.rows, pattern.cols) != (n, n):
        raise ValueError(f"pattern of shape {pattern.rows}x{pattern.cols} "
                         f"for a matrix of order {n}")
    return kind


def param_count(kind: StructureKind, n: int, pattern: SparsityPattern | None = None,
                levels: tuple[LevelSpec, ...] | None = None) -> int:
    kind = check_inputs(kind, n, pattern, levels)
    if kind is StructureKind.MULTILEVEL:
        return math.prod(param_count(lev.kind, lev.n, lev.pattern) for lev in levels)
    return spec(kind).params(n, pattern)


def structure_dim(kind: StructureKind, n: int, pattern: SparsityPattern | None = None) -> int:
    """Dimension of the matrix space (differs from param_count only for tph)."""
    return spec(check_inputs(kind, n, pattern, None)).dim(n, pattern)


def check_level(kind: StructureKind, n: int, f: complex | None,
                pattern: SparsityPattern | None) -> int:
    """Check a single-level structure's order, pattern and f against the
    table; return its parameter count."""
    params = param_count(kind, n, pattern)
    if spec(kind).needs_f:
        if f is None or f == 0:
            raise ValueError(f"{StructureKind(kind).value} needs a nonzero f")
    elif f is not None:
        raise ValueError(f"{StructureKind(kind).value} takes no f")
    return params


@dataclass(frozen=True)
class StructuredMatrix:
    kind: StructureKind
    n: int
    data: tuple[TrackedScalar, ...]
    f: complex | None = None
    pattern: SparsityPattern | None = None
    levels: tuple[LevelSpec, ...] | None = None
    _vector: TrackedVector | None = field(default=None, init=False, repr=False,
                                          compare=False)
    _symbol: tuple[TrackedVector, int, int] | None = field(default=None, init=False,
                                                           repr=False, compare=False)
    _triples: tuple[tuple, ...] | None = field(default=None, init=False, repr=False,
                                               compare=False)

    def __post_init__(self):
        """A kind given by its name becomes its StructureKind.  A
        single-level kind is its own one level.  Every level is checked
        against the table; their orders and parameter counts multiply.  A
        multilevel structure's levels each need a parameter."""
        object.__setattr__(self, "kind", StructureKind(self.kind))
        multilevel = self.kind is StructureKind.MULTILEVEL
        if multilevel and not self.levels:
            raise ValueError("multilevel structure needs levels")
        if not multilevel:
            if self.levels is not None:
                raise ValueError(f"{self.kind.value} takes no levels")
            object.__setattr__(self, "levels",
                               (LevelSpec(self.kind, self.n, self.f, self.pattern),))
        expected = order = 1
        for lev in self.levels:
            params = check_level(lev.kind, lev.n, lev.f, lev.pattern)
            if multilevel and params == 0:
                raise ValueError(f"level {lev.kind.value} of order {lev.n} has no parameters")
            expected *= params
            order *= lev.n
        if order != self.n:
            raise ValueError(f"multilevel order {self.n} != product of level orders {order}")
        if len(self.data) != expected:
            raise ValueError(
                f"{self.kind.value} of order {self.n} needs {expected} parameters, "
                f"got {len(self.data)}")

    def data_vector(self) -> TrackedVector:
        """The parameters as a read-only TrackedVector, converted on first use."""
        vec = self._vector
        if vec is None:
            vec = as_vector(self.data)
            read_only(vec.values)
            read_only(vec.variable)
            object.__setattr__(self, "_vector", vec)
        return vec

    def level_triples(self, read: Callable[[LevelSpec], tuple]) -> tuple[tuple, ...]:
        """The kernel triple (U, V, W) of each level, read(level) once per
        matrix and kept beside its symbol."""
        triples = self._triples
        if triples is None:
            triples = tuple(map(read, self.levels))
            object.__setattr__(self, "_triples", triples)
        return triples

    def symbol(self, embed: Callable[[TrackedVector, CountContext], TrackedVector],
               ctx: CountContext) -> TrackedVector:
        """The kernel's parameter symbol U t, formed once per matrix.

        The first call runs embed(t, ctx), U applied to the parameters on
        the caller's context, and keeps the read-only result with the scalar
        multiplications and additions it charged.  Every later call charges
        those same counts to ctx and returns the kept symbol, so each call's
        counters are those of a full kernel run.  U makes no bilinear
        products and no divisions.
        """
        if self._symbol is None:
            scalars, additions = ctx.scalar_mults, ctx.additions
            vec = embed(self.data_vector(), ctx)
            read_only(vec.values)
            read_only(vec.variable)
            object.__setattr__(self, "_symbol", (vec, ctx.scalar_mults - scalars,
                                                 ctx.additions - additions))
            return vec
        vec, scalars, additions = self._symbol
        ctx.count_scalar(scalars)
        ctx.count_addition(additions)
        return vec


def structured(kind: StructureKind, n: int, data, f: complex | None = None,
               pattern: SparsityPattern | None = None,
               levels: Sequence[LevelSpec] | None = None) -> StructuredMatrix:
    """Convenience constructor accepting TrackedScalars or raw numbers.

    Raw numbers become Variables (they are inputs to be computed with).
    Data of raw numbers alone is converted once: its scalars are built in
    bulk, and the matrix keeps the same values as its data vector, so the
    first product converts nothing back.  The data tuple is built from a
    list, at its exact size: a short tuple grown from a generator never
    reuses the tuples CPython keeps freed per size.
    """
    data = list(data)
    levels = tuple(levels) if levels is not None else None
    if any(map(isinstance, data, repeat(TrackedScalar))):
        scalars = [d if isinstance(d, TrackedScalar) else TrackedScalar(complex(d), Kind.VARIABLE)
                   for d in data]
        return StructuredMatrix(kind, n, tuple(scalars), f=f, pattern=pattern, levels=levels)
    values = [complex(d) for d in data]
    M = StructuredMatrix(kind, n, tuple(_scalars(values, repeat(Kind.VARIABLE))), f=f,
                         pattern=pattern, levels=levels)
    vector = TrackedVector(read_only(np.array(values, dtype=complex)),
                           read_only(np.ones(len(values), dtype=bool)))
    object.__setattr__(M, "_vector", vector)
    return M


# ---------------------------------------------------------------------------
# Placements: where each parameter sits in the n x n grid
# ---------------------------------------------------------------------------

def upper_index(n: int, i, j, strict: bool = False):
    """Row-major position of entry (i, j), i <= j, in the upper triangle of an
    order-n matrix; with strict, i < j in the strict upper triangle."""
    k = i * (2 * n - i - 1) // 2 + j
    return k - i - 1 if strict else k


def _grid(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column index of every cell, row-major."""
    return tuple(np.indices((n, n)).reshape(2, -1))


def _triples(n: int, param, i, j, coeff=1.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    param = np.asarray(param)
    coeff = np.broadcast_to(np.asarray(coeff, dtype=complex), param.shape)
    return read_only(param), read_only(i * n + j), read_only(coeff)


def circulant_placement(n, f=None, pattern=None):
    i, j = _grid(n)
    return _triples(n, (i - j) % n, i, j)


def f_circulant_placement(n, f, pattern=None):
    i, j = _grid(n)
    return _triples(n, (i - j) % n, i, j, np.where(i > j, f, 1.0))


def toeplitz_placement(n, f=None, pattern=None):
    i, j = _grid(n)
    return _triples(n, j - i + n - 1, i, j)


def hankel_placement(n, f=None, pattern=None):
    i, j = _grid(n)
    return _triples(n, i + j, i, j)


def triangular_toeplitz_placement(n, f=None, pattern=None):
    i, j = _grid(n)
    upper = j >= i
    i, j = i[upper], j[upper]
    return _triples(n, j - i, i, j)


def tph_placement(n, f=None, pattern=None):
    i, j = _grid(n)
    param = np.concatenate([j - i + n - 1, i + j + 2 * n - 1])
    return _triples(n, param, np.tile(i, 2), np.tile(j, 2))


def symmetric_placement(n, f=None, pattern=None):
    i, j = _grid(n)
    return _triples(n, upper_index(n, np.minimum(i, j), np.maximum(i, j)), i, j)


def skew_symmetric_placement(n, f=None, pattern=None):
    i, j = _grid(n)
    off = i != j
    i, j = i[off], j[off]
    param = upper_index(n, np.minimum(i, j), np.maximum(i, j), strict=True)
    return _triples(n, param, i, j, np.sign(j - i))


def sparse_placement(n, f, pattern):
    r, c = np.array(pattern.entries, dtype=int).reshape(-1, 2).T
    return _triples(n, np.arange(len(pattern)), r, c)


@_stored
def _placement(levels: tuple[LevelSpec, ...]):
    """Read-only (param, cell, coeff) triples of a structure given by its
    levels, and its structural mask: the cells some parameter reaches.

    Levels compose as a Kronecker product: the outer level's parameter and
    block index vary slowest.  A multilevel placement reads its inner one,
    so the store keeps that one as its base.
    """
    lev, inner = levels[0], levels[1:]
    param, cell, coeff = spec(lev.kind).placement(lev.n, lev.f, lev.pattern)
    n = lev.n
    if inner:
        iparam, icell, icoeff, istruct = _placement(inner)
        m = istruct.shape[0]
        row, col = np.divmod(cell, n)
        irow, icol = np.divmod(icell, m)
        param = (param[:, None] * param_count(StructureKind.MULTILEVEL, m, levels=inner)
                 + iparam).ravel()
        cell = ((row[:, None] * m + irow) * (n * m) + col[:, None] * m + icol).ravel()
        coeff = (coeff[:, None] * icoeff).ravel()
        n *= m
    structural = np.zeros(n * n, dtype=bool)
    structural[cell] = True
    return (read_only(param), read_only(cell), read_only(coeff),
            read_only(structural.reshape(n, n)))


def dense_parts(M: StructuredMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense (values, variable, structural) arrays for any structured matrix:
    the weighted parameters scattered onto their cells, and each cell
    Variable when a Variable parameter reaches it."""
    param, cell, coeff, structural = _placement(M.levels)
    data = M.data_vector()
    size = structural.size
    values = np.zeros(size, dtype=complex)
    np.add.at(values, cell, coeff * data.values[param])
    variable = np.zeros(size, dtype=bool)
    np.logical_or.at(variable, cell, data.variable[param])
    return values.reshape(structural.shape), variable.reshape(structural.shape), structural


def densify(M: StructuredMatrix) -> list[list[TrackedScalar]]:
    """Dense n x n grid of TrackedScalar; undetermined entries are Constant zero."""
    values, variable, _ = dense_parts(M)
    return to_grid(TrackedVector(values, variable))


# ---------------------------------------------------------------------------
# Naive oracle
# ---------------------------------------------------------------------------

def naive_matvec(A, x, ctx: CountContext):
    """Entrywise matrix-vector product, structurally skipping Constant zeros.

    A may be a StructuredMatrix or a dense grid of TrackedScalar.  The
    bilinear count equals the number of active (not Constant-zero) entries
    multiplying a Variable, which for all-Variable inputs is the number of
    structurally nonzero entries.  Every other active entry is one scalar
    multiplication, and a row of k active entries makes k - 1 additions: the
    active entries less the rows that have one.
    """
    if isinstance(A, StructuredMatrix):
        values, variable, _ = dense_parts(A)
    else:
        values, variable = as_matrix(A)
    xvec = as_vector(x)
    m, ncols = values.shape
    if ncols != len(xvec):
        raise ValueError(f"matrix is {m}x{ncols} but vector has length {len(xvec)}")
    active = variable | (values != 0)
    terms = int(np.count_nonzero(active))
    bilinear = int(np.count_nonzero(active & variable & xvec.variable))
    ctx.count_bilinear(bilinear)
    ctx.count_scalar(terms - bilinear)
    ctx.count_addition(terms - int(np.count_nonzero(active.any(axis=1))))
    out_var = (active & (variable | xvec.variable)).any(axis=1)
    return match_output(x, TrackedVector(values @ xvec.values, out_var))


def naive_count(A) -> int:
    """Structural multiplication count of the naive product (generic input).
    A may be a StructuredMatrix, a dense grid of TrackedScalar or its
    (values, variable) arrays."""
    values, variable = as_matrix(dense_parts(A)[:2] if isinstance(A, StructuredMatrix) else A)
    return int(np.count_nonzero(variable | (values != 0)))


# ---------------------------------------------------------------------------
# Basis enumeration
# ---------------------------------------------------------------------------

def basis(kind: StructureKind, n: int, f: complex | None = None,
          pattern: SparsityPattern | None = None) -> list[StructuredMatrix]:
    """Parameter one-hot matrices: one Constant-1 entry per basis element."""
    P = check_level(kind, n, f, pattern)
    return [StructuredMatrix(kind, n, tuple(constant(1.0 if q == p else 0.0) for q in range(P)),
                             f=f, pattern=pattern) for p in range(P)]


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def _pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def read_complex_pair(obj, where: str) -> complex:
    """Read a JSON [re, im] pair as a finite complex number, or raise SchemaError."""
    if (not isinstance(obj, list)) or len(obj) != 2 \
            or not all(isinstance(t, (int, float)) and not isinstance(t, bool) for t in obj):
        raise SchemaError(f"{where}: expected [re, im]")
    try:
        z = complex(obj[0], obj[1])
    except OverflowError:
        raise SchemaError(f"{where}: value out of range") from None
    if not cmath.isfinite(z):
        raise SchemaError(f"{where}: non-finite value")
    return z


def _level_doc(lev: LevelSpec) -> dict:
    doc: dict = {"kind": lev.kind.value, "n": lev.n}
    if spec(lev.kind).needs_f:
        doc["f"] = _pair(complex(lev.f))
    if spec(lev.kind).needs_pattern:
        doc["omega"] = [[r, c] for (r, c) in lev.pattern.entries]
    return doc


def serialize_matrix(M: StructuredMatrix) -> str:
    if M.kind is StructureKind.MULTILEVEL:
        doc = {"kind": M.kind.value, "n": M.n, "levels": [_level_doc(lev) for lev in M.levels]}
    else:
        doc = _level_doc(M.levels[0])
    doc["data"] = [_pair(s.value) for s in M.data]
    return json.dumps(doc)


def _read_kind(obj, where: str) -> StructureKind:
    try:
        return StructureKind(obj)
    except ValueError:
        raise SchemaError(f"{where}: unknown kind {obj!r}") from None


def _read_pattern(obj, n: int, where: str) -> SparsityPattern:
    if not isinstance(obj, list):
        raise SchemaError(f"{where}: expected a list of [i, j] pairs")
    entries = []
    for k, pair in enumerate(obj):
        if (not isinstance(pair, list)) or len(pair) != 2 \
                or not all(isinstance(t, int) and not isinstance(t, bool) for t in pair):
            raise SchemaError(f"{where}[{k}]: expected [i, j] with integer indices")
        entries.append((pair[0], pair[1]))
    try:
        return SparsityPattern(n, n, tuple(entries))
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from None


def _read_level(doc: dict, where: str) -> LevelSpec:
    """The kind and order of a matrix or level object, and the f and pattern
    its kind needs; where prefixes every position."""
    kind = _read_kind(doc["kind"], f"{where}kind")
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise SchemaError(f"{where}n: expected a positive integer")
    if kind is StructureKind.MULTILEVEL:
        return LevelSpec(kind, n)
    f = pattern = None
    if spec(kind).needs_f:
        if "f" not in doc:
            raise SchemaError(f"{where}f: required for {kind.value}")
        f = read_complex_pair(doc["f"], f"{where}f")
    if spec(kind).needs_pattern:
        if "omega" not in doc:
            raise SchemaError(f"{where}omega: required for {kind.value}")
        pattern = _read_pattern(doc["omega"], n, f"{where}omega")
    return LevelSpec(kind, n, f, pattern)


def parse_matrix(text: str) -> StructuredMatrix:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"offset {exc.pos}: invalid JSON ({exc.msg})") from None
    if not isinstance(doc, dict):
        raise SchemaError("top level: expected an object")
    for key in ("kind", "n", "data"):
        if key not in doc:
            raise SchemaError(f"top level: missing {key!r}")
    top = _read_level(doc, "")
    kind, n, levels = top.kind, top.n, None
    if kind is StructureKind.MULTILEVEL:
        if "levels" not in doc or not isinstance(doc["levels"], list) or not doc["levels"]:
            raise SchemaError("levels: required non-empty list for multilevel")
        levels = []
        for k, obj in enumerate(doc["levels"]):
            where = f"levels[{k}]"
            if not isinstance(obj, dict) or "kind" not in obj or "n" not in obj:
                raise SchemaError(f"{where}: expected an object with kind and n")
            lev = _read_level(obj, f"{where}.")
            if lev.kind is StructureKind.MULTILEVEL:
                raise SchemaError(f"{where}.kind: {lev.kind.value} is not a valid level kind")
            levels.append(lev)
        levels = tuple(levels)
    if not isinstance(doc["data"], list):
        raise SchemaError("data: expected a list")
    data = [read_complex_pair(entry, f"data[{k}]") for k, entry in enumerate(doc["data"])]
    expected = param_count(kind, n, top.pattern, levels)
    if len(data) != expected:
        raise SchemaError(f"data: need {expected} entries for {kind.value} of order {n}, "
                          f"got {len(data)}")
    scalars = tuple(TrackedScalar(z, Kind.VARIABLE) for z in data)
    return StructuredMatrix(kind, n, scalars, f=top.f, pattern=top.pattern, levels=levels)


def serialize_vector(x) -> str:
    vec = as_vector(x)
    return json.dumps({"n": len(vec), "data": [_pair(complex(v)) for v in vec.values]})


def parse_vector(text: str) -> list[TrackedScalar]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"offset {exc.pos}: invalid JSON ({exc.msg})") from None
    if not isinstance(doc, dict) or "n" not in doc or "data" not in doc:
        raise SchemaError("top level: expected an object with n and data")
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise SchemaError("n: expected a positive integer")
    if not isinstance(doc["data"], list) or len(doc["data"]) != n:
        raise SchemaError(f"data: expected {n} entries")
    return [TrackedScalar(read_complex_pair(e, f"data[{k}]"), Kind.VARIABLE)
            for k, e in enumerate(doc["data"])]
