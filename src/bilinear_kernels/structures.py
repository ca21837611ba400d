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
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from itertools import repeat
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .counting import (CountContext, Kind, TrackedScalar, TrackedVector, _scalars, _stored,
                       as_input, as_matrix, as_vector, constant, match_output, read_only,
                       to_grid)


class SchemaError(ValueError):
    """Malformed matrix/vector JSON; the message carries the offending position."""


class InputError(ValueError):
    """An input that breaks a rule of the structure table: field is the input
    at fault (kind, n, f, pattern, levels or data; None when no one input
    is), level the index of its level (None: the structure itself)."""

    def __init__(self, message: str, field: str | None, level: int | None = None):
        super().__init__(message)
        self.field, self.level = field, level


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

    @classmethod
    def _missing_(cls, value):
        """The kind rule: a name that is no kind's is refused."""
        raise InputError(f"unknown kind {value!r}", "kind")


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
        object.__setattr__(self, "_hash", hash((self.rows, self.cols, self.entries)))

    def __hash__(self) -> int:
        """The hash of the fields, computed once: a pattern keys store
        entries, and hashing its entries walks every pair."""
        return self._hash

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
        if self.kind.__class__ is not StructureKind:
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
    needs_f, needs_pattern    the kind takes a nonzero finite f / a sparsity pattern

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
def spec(kind: StructureKind) -> StructureSpec | None:
    """The table entry of a single-level kind or its name; None for
    multilevel, which is given by its levels, and for any other name."""
    from .kernels import SPECS  # the table holds the kernel maps, and kernels imports this module
    return SPECS.get(kind)


def default_f(kind: StructureKind, f: complex | None) -> complex | None:
    """The f of a single-level kind: -1 when the kind needs one and none
    is given, else f as given."""
    return complex(-1.0) if f is None and getattr(spec(kind), "needs_f", False) else f


class Structure(NamedTuple):
    """A checked structure; its parameter and kernel counts are its levels' products."""

    kind: StructureKind
    n: int
    params: int
    count: int


def check_structure(kind: StructureKind, n: int | None, f: complex | None = None,
                    pattern: SparsityPattern | None = None,
                    levels: Sequence[LevelSpec] | None = None,
                    size: int | None = None) -> Structure:
    """Every input rule of the structure table, in one place: each entry
    point calls this and adds only its own error type and the position of
    the input at fault (InputError).  A multilevel kind has levels of
    single-level kinds with a parameter each, and an order (None: theirs)
    equal to the product of theirs; any other kind is its own one level.
    Orders are at least 1, a pattern (n x n) goes with sparse alone and a
    nonzero finite f with f-circulant alone.  size is the number of parameters
    given, None when none are: it must be the table's, and f-circulant
    then needs its f."""
    kind = kind if kind.__class__ is StructureKind else StructureKind(kind)
    parts = [(None, kind, n, f, pattern)]     # last: a multilevel order defaults to its levels'
    if kind is StructureKind.MULTILEVEL:
        if not levels:
            raise InputError("multilevel structure needs levels", "levels")
        parts[:0] = [(k, lev.kind, lev.n, lev.f, lev.pattern) for k, lev in enumerate(levels)]
    elif levels is not None:
        raise InputError(f"{kind.value} takes no levels", "levels")
    params = count = order = 1
    for level, part, m, part_f, part_pattern in parts:
        entry = spec(part)
        if entry is None and level is not None:
            raise InputError(f"{part.value} is not a valid level kind", "kind", level)
        if m is None and entry is None:
            n = m = order
        if m is None or m < 1:
            raise InputError("order must be positive", "n", level)
        if entry is None or not entry.needs_pattern:
            if part_pattern is not None:
                raise InputError(f"{part.value} takes no sparsity pattern", "pattern", level)
        elif part_pattern is None:
            raise InputError(f"{part.value} structure needs a pattern", "pattern", level)
        elif (part_pattern.rows, part_pattern.cols) != (m, m):
            raise InputError(f"pattern of shape {part_pattern.rows}x{part_pattern.cols} "
                             f"for a matrix of order {m}", "pattern", level)
        if entry is None or not entry.needs_f:
            if part_f is not None:
                raise InputError(f"{part.value} takes no f", "f", level)
        elif part_f == 0 or (part_f is None and size is not None):
            raise InputError(f"{part.value} needs a nonzero f", "f", level)
        elif part_f is not None and not cmath.isfinite(part_f):
            raise InputError(f"{part.value} needs a finite f", "f", level)
        if entry is not None:
            level_params = entry.params(m, part_pattern)
            if level_params == 0 and level is not None:
                named = "level " * (len(levels) > 1)       # one level is the structure
                raise InputError(f"{named}{part.value} of order {m} has no parameters", None, level)
            params *= level_params
            count *= entry.count(m, part_pattern)
            order *= m
    if order != n:
        raise InputError(f"multilevel order {n} != product of level orders {order}", "n")
    if size is not None and size != params:
        raise InputError(f"{kind.value} of order {n} needs {params} parameters, got {size}",
                         "data")
    return Structure(kind, n, params, count)


def param_count(kind: StructureKind, n: int, pattern: SparsityPattern | None = None,
                levels: tuple[LevelSpec, ...] | None = None) -> int:
    return check_structure(kind, n, pattern=pattern, levels=levels).params


def structure_dim(kind: StructureKind, n: int, pattern: SparsityPattern | None = None) -> int:
    """Dimension of the matrix space (differs from param_count only for tph)."""
    return spec(check_structure(kind, n, pattern=pattern).kind).dim(n, pattern)


@dataclass(frozen=True)
class StructuredMatrix:
    """A structured matrix: its kind, order and parameters in the canonical
    order, the f, pattern or levels its kind takes, and what its products
    keep (its parameters as a vector, its symbol, its levels' triples).

    ``data`` is the parameters as TrackedScalars.  A matrix made from raw
    numbers (structured()) keeps them as its data vector alone, one
    read-only array that every product and the oracle read; its data is
    built from that vector on first read and kept (__getattr__), so
    equality, hashing, repr and serialization see the same tuple as for a
    matrix made from the scalars.
    """

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
        self._settle(len(self.data))

    @classmethod
    def _of_variables(cls, kind: StructureKind, n: int, values: np.ndarray,
                      f: complex | None, pattern: SparsityPattern | None,
                      levels: tuple[LevelSpec, ...] | None) -> "StructuredMatrix":
        """The matrix whose parameters are Variables of the read-only complex
        values, kept as its data vector; no scalar is built."""
        M = cls.__new__(cls)
        vector = TrackedVector(values, read_only(np.ones(len(values), dtype=bool)))
        for name, value in (("kind", kind), ("n", n), ("f", f), ("pattern", pattern),
                            ("levels", levels), ("_vector", vector)):
            object.__setattr__(M, name, value)
        M._settle(len(values))
        return M

    def __getattr__(self, name: str):
        """The data of a matrix kept as its data vector alone: the Variables
        of the vector, built on this first read and kept."""
        vec = self._vector
        if name != "data" or vec is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        data = tuple(_scalars(vec.values.tolist(), repeat(Kind.VARIABLE)))
        object.__setattr__(self, "data", data)
        return data

    def _settle(self, size: int) -> None:
        """Check the matrix and its size parameters (check_structure); a kind
        name becomes its StructureKind and a single-level kind its own level."""
        kind, n, _, _ = check_structure(self.kind, self.n, self.f, self.pattern, self.levels,
                                        size)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "n", n)
        if kind is not StructureKind.MULTILEVEL:
            object.__setattr__(self, "levels", (LevelSpec(kind, n, self.f, self.pattern),))

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


# Types that numpy converts to complex as complex() does, with no call per entry.
_PLAIN_NUMBERS = {complex, float, int}


def structured(kind: StructureKind, n: int, data, f: complex | None = None,
               pattern: SparsityPattern | None = None,
               levels: Sequence[LevelSpec] | None = None) -> StructuredMatrix:
    """Convenience constructor accepting TrackedScalars or raw numbers.

    Raw numbers become Variables (they are inputs to be computed with).
    Data of raw numbers alone is converted once, into one read-only array
    that the matrix keeps as its data vector: no scalar is built until
    ``data`` is read (StructuredMatrix).  Plain Python numbers go to numpy
    whole; any other number through complex() first, so that a value
    complex() refuses raises its error.  A data tuple is built from a
    list, at its exact size: a short tuple grown from a generator never
    reuses the tuples CPython keeps freed per size.
    """
    data = list(data)
    levels = tuple(levels) if levels is not None else None
    if not set(map(type, data)) <= _PLAIN_NUMBERS:
        if any(map(isinstance, data, repeat(TrackedScalar))):
            scalars = [d if isinstance(d, TrackedScalar)
                       else TrackedScalar(complex(d), Kind.VARIABLE) for d in data]
            return StructuredMatrix(kind, n, tuple(scalars), f=f, pattern=pattern,
                                    levels=levels)
        data = [complex(d) for d in data]
    values = read_only(np.array(data, dtype=complex))
    return StructuredMatrix._of_variables(kind, n, values, f, pattern, levels)


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
    """The stored circulant placement's param and cell, each wrapped cell
    (i > j) weighted by f."""
    param, cell, _, _ = _placement((LevelSpec(StructureKind.CIRCULANT, n),))
    coeff = np.asarray(np.where(np.tri(n, k=-1, dtype=bool).ravel(), f, 1.0), dtype=complex)
    return param, cell, read_only(coeff)


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
    variable[cell[data.variable[param]]] = True
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
    xvec = as_input(x)
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
    P = check_structure(kind, n, f, pattern).params
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


def _positioned(exc: InputError, where: str) -> ValueError:
    """The validator's refusal as a SchemaError at the key of the input at
    fault under where, or as itself when no one input is at fault."""
    if exc.field is None:
        return exc
    level = "" if exc.level is None else f"levels[{exc.level}]."
    key = "omega" if exc.field == "pattern" else exc.field
    return SchemaError(f"{where}{level}{key}: {exc}")


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
    """A matrix or level object's kind, order, f and pattern, each read as
    its JSON type; where prefixes every position."""
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise SchemaError(f"{where}n: expected an integer")
    f = read_complex_pair(doc["f"], f"{where}f") if "f" in doc else None
    pattern = _read_pattern(doc["omega"], n, f"{where}omega") if "omega" in doc else None
    try:
        return LevelSpec(doc["kind"], n, f, pattern)
    except InputError as exc:
        raise _positioned(exc, where) from None


def parse_matrix(text: str) -> StructuredMatrix:
    """The matrix of a JSON document.  Every field found goes to the
    validator, whose refusal is a SchemaError at the field's position."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"offset {exc.pos}: invalid JSON ({exc.msg})") from None
    if not isinstance(doc, dict):
        raise SchemaError("top level: expected an object")
    for key in ("kind", "n", "data"):
        if key not in doc:
            raise SchemaError(f"top level: missing {key!r}")
    top, levels = _read_level(doc, ""), None
    if "levels" in doc:
        if not isinstance(doc["levels"], list):
            raise SchemaError("levels: expected a list")
        levels = []
        for k, obj in enumerate(doc["levels"]):
            where = f"levels[{k}]"
            if not isinstance(obj, dict) or "kind" not in obj or "n" not in obj:
                raise SchemaError(f"{where}: expected an object with kind and n")
            levels.append(_read_level(obj, f"{where}."))
    if not isinstance(doc["data"], list):
        raise SchemaError("data: expected a list")
    data = [read_complex_pair(entry, f"data[{k}]") for k, entry in enumerate(doc["data"])]
    try:
        return structured(top.kind, top.n, data, f=top.f, pattern=top.pattern, levels=levels)
    except InputError as exc:
        raise _positioned(exc, "") from None


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
