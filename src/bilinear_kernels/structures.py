"""Structured matrix representations, the StructureSpec record, placements
and dense expansion, the naive oracle, basis enumeration, and JSON
serialization.  A StructuredMatrix has one constructor, which keeps its
parameters as one read-only vector.  Each structure's placement is built
once, with the facts of its structural mask the oracle reads, and kept in
the map store (counting.MapStore) beside the kernel triples; each
structure's check is kept once per structure (check_structure).

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
import operator
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .counting import (MAP_STORE_ENTRIES, CountContext, Kind, TrackedScalar, TrackedVector,
                       _stored, as_matrix, as_vector, match_output, one_vector, read_only,
                       to_grid, to_scalars)


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
        object.__setattr__(self, "_hash", hash((self.kind, self.n, self.f, self.pattern)))

    def __hash__(self) -> int:
        """The hash of the fields, computed once: level tuples key the kept
        checks and the store's placements."""
        return self._hash


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
    Orders are integers (operator.index, not bool), read as plain ints, and
    at least 1; a pattern (n x n) goes with sparse alone and a nonzero
    finite f with f-circulant alone.  size is the number of parameters
    given, None when none are: it must be the table's, and f-circulant
    then needs its f.

    Each structure is checked once (_checked): a structure without a
    sparsity pattern, given by plain int orders, keeps its result for its
    (kind, n, f, levels, size), least recently used evicted first beyond
    MAP_STORE_ENTRIES results.  A refusal is never kept, so a structure
    that breaks a rule raises on every call, and a structure with a
    pattern is checked on every call, so no pattern is kept alive."""
    return _checked(kind, n, f, pattern, levels, size)[0]


def _checked(kind: StructureKind, n: int | None, f: complex | None = None,
             pattern: SparsityPattern | None = None,
             levels: Sequence[LevelSpec] | None = None,
             size: int | None = None) -> tuple[Structure, tuple[LevelSpec, ...] | None]:
    """check_structure's Structure and the structure's levels with plain
    int orders, read from the kept results where the structure may be kept.
    A single-level kind's one level is built once per kept result; where
    the check is not kept, its levels are None."""
    kind = kind if kind.__class__ is StructureKind else StructureKind(kind)
    plain = pattern is None and (n is None or n.__class__ is int)
    if plain and (levels is None or _keyable(levels)):
        try:
            return _kept(kind, n, f, levels, size)
        except TypeError:       # an input that cannot key a result is checked, not kept
            pass
    return _check(kind, n, f, pattern, levels, size)


def _keyable(levels) -> bool:
    """Whether levels may key a kept result: a tuple of levels with plain
    int orders and no pattern.  An order equal to an int but not one (2.0,
    True) must not read the int's result."""
    if levels.__class__ is not tuple:
        return False
    for lev in levels:
        if lev.n.__class__ is not int or lev.pattern is not None:
            return False
    return True


@lru_cache(maxsize=MAP_STORE_ENTRIES)
def _kept(kind: StructureKind, n: int | None, f: complex | None,
          levels: tuple[LevelSpec, ...] | None,
          size: int | None) -> tuple[Structure, tuple[LevelSpec, ...]]:
    """The check of a structure without a pattern, with a single-level
    kind's one level, kept (lru_cache keeps no call that raises)."""
    structure, levels = _check(kind, n, f, None, levels, size)
    return structure, levels or (LevelSpec(kind, structure.n, f),)


def _order(m, level: int | None) -> int:
    """An order as a plain int; one that operator.index refuses, or a bool,
    is the validator's InputError on n."""
    if m.__class__ is int:
        return m
    if not isinstance(m, bool):
        try:
            return operator.index(m)
        except TypeError:
            pass
    raise InputError(f"order must be an integer, got {type(m).__name__} {m!r:.40}", "n", level)


def _check(kind: StructureKind, n: int | None, f: complex | None,
           pattern: SparsityPattern | None, levels: Sequence[LevelSpec] | None,
           size: int | None) -> tuple[Structure, tuple[LevelSpec, ...] | None]:
    """The rules of check_structure, applied: the body every result comes
    from.  Its levels are a multilevel kind's, None for any other kind."""
    parts = [(None, kind, n, f, pattern)]     # last: a multilevel order defaults to its levels'
    if kind is StructureKind.MULTILEVEL:
        if not levels:
            raise InputError("multilevel structure needs levels", "levels")
        parts[:0] = [(k, lev.kind, lev.n, lev.f, lev.pattern) for k, lev in enumerate(levels)]
    elif levels is not None:
        raise InputError(f"{kind.value} takes no levels", "levels")
    params = count = order = 1
    orders = []
    for level, part, m, part_f, part_pattern in parts:
        entry = spec(part)
        if entry is None and level is not None:
            raise InputError(f"{part.value} is not a valid level kind", "kind", level)
        if m is None and entry is None:
            m = order
        if m is not None:
            m = _order(m, level)
        if m is None or m < 1:
            raise InputError("order must be positive", "n", level)
        if level is None:
            n = m
        else:
            orders.append(m)
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
    if kind is StructureKind.MULTILEVEL:
        levels = tuple(lev if lev.n is m else LevelSpec(lev.kind, m, lev.f, lev.pattern)
                       for lev, m in zip(levels, orders))
    return Structure(kind, n, params, count), levels


def param_count(kind: StructureKind, n: int, pattern: SparsityPattern | None = None,
                levels: tuple[LevelSpec, ...] | None = None) -> int:
    return check_structure(kind, n, pattern=pattern, levels=levels).params


def structure_dim(kind: StructureKind, n: int, pattern: SparsityPattern | None = None) -> int:
    """Dimension of the matrix space (differs from param_count only for tph)."""
    structure = check_structure(kind, n, pattern=pattern)
    return spec(structure.kind).dim(structure.n, pattern)


@dataclass(frozen=True, init=False)
class StructuredMatrix:
    """A structured matrix: its kind, order and parameters in the canonical
    order, the f, pattern or levels its kind takes, and what its products
    keep (its parameters as a vector, its symbol, its levels' triples).

    The one constructor reads data once (counting.as_vector) into the
    matrix's data vector, a read-only TrackedVector of its own that every
    product and the oracle read (_parameters), and then checks the matrix
    and its size (check_structure): a kind name becomes its StructureKind,
    an order a plain int, and the levels are the check's, so that a
    single-level kind's one level is built once per kept check.  ``data``
    is the parameters as TrackedScalars, built from that vector on first
    read and kept (__getattr__), so equality, hashing, repr and
    serialization see the same tuple however the matrix was made.
    """

    kind: StructureKind
    n: int
    data: tuple[TrackedScalar, ...]
    f: complex | None = None
    pattern: SparsityPattern | None = None
    levels: tuple[LevelSpec, ...] | None = None
    _vector: TrackedVector = field(init=False, repr=False, compare=False)
    _symbol: tuple[TrackedVector, int, int] | None = field(default=None, init=False,
                                                           repr=False, compare=False)
    _triples: tuple[tuple, ...] | None = field(default=None, init=False, repr=False, compare=False)

    def __init__(self, kind: StructureKind, n: int, data, f: complex | None = None,
                 pattern: SparsityPattern | None = None,
                 levels: Sequence[LevelSpec] | None = None):
        vector = _parameters(data)
        levels = tuple(levels) if levels is not None else None
        (kind, n, _, _), levels = _checked(kind, n, f, pattern, levels, len(vector))
        levels = levels or (LevelSpec(kind, n, f, pattern),)
        vars(self).update(kind=kind, n=n, f=f, pattern=pattern, levels=levels, _vector=vector)

    def __getattr__(self, name: str):
        """The data: the scalars of the data vector (to_scalars), built on
        this first read and kept."""
        if name != "data":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        data = vars(self)["data"] = tuple(to_scalars(self._vector))
        return data

    def data_vector(self) -> TrackedVector:
        """The parameters as the matrix's read-only TrackedVector."""
        return self._vector

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
        the caller's context, and keeps the read-only result (the marker
        where U keeps it) with the scalar multiplications and additions it
        charged.  Every later call charges those same counts to ctx and
        returns the kept symbol, so each call's counters are those of a full
        kernel run.  U makes no bilinear products and no divisions.
        """
        if self._symbol is None:
            scalars, additions = ctx.scalar_mults, ctx.additions
            vec = embed(self.data_vector(), ctx)
            read_only(vec.values)
            if vec.flags is not None:         # the marker has no array to protect
                read_only(vec.flags)
            object.__setattr__(self, "_symbol", (vec, ctx.scalar_mults - scalars,
                                                 ctx.additions - additions))
            return vec
        vec, scalars, additions = self._symbol
        ctx.scalar_mults += scalars             # kept from a run's counters: nonnegative
        ctx.additions += additions
        return vec


def _parameters(data) -> TrackedVector:
    """A matrix's parameters, read by the one operand rule (as_vector), as
    one read-only TrackedVector of its own: what the caller passed in, a
    TrackedVector or an array, is copied."""
    vec = as_vector(data)
    if isinstance(data, (TrackedVector, np.ndarray)):
        flags = vec.flags
        vec = TrackedVector(vec.values.astype(complex),
                            None if flags is None else flags.astype(bool))
    read_only(vec.values)
    if vec.flags is not None:
        read_only(vec.flags)
    return vec


def structured(kind: StructureKind, n: int, data, f: complex | None = None,
               pattern: SparsityPattern | None = None,
               levels: Sequence[LevelSpec] | None = None) -> StructuredMatrix:
    """The matrix StructuredMatrix(kind, n, data, f, pattern, levels), by
    the name the library builds its matrices with; data is read as every
    vector operand is (counting.as_vector)."""
    return StructuredMatrix(kind, n, data, f, pattern, levels)


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
    param, cell = _placement((LevelSpec(StructureKind.CIRCULANT, n),))[:2]
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


class Placement(NamedTuple):
    """A structure's placement: read-only (param, cell, coeff) index
    triples, dense.flat[cell] += coeff * data[param], its structural mask
    (the cells some parameter reaches), and the mask's facts that the oracle
    reads for a matrix whose parameters carry the all-Variable marker: its
    count of active cells (terms), its active rows as a read-only mask
    (rows) and their count (row_count), and whether no two triples share a
    cell (distinct)."""

    param: np.ndarray
    cell: np.ndarray
    coeff: np.ndarray
    structural: np.ndarray
    terms: int
    rows: np.ndarray
    row_count: int
    distinct: bool


@_stored
def _placement(levels: tuple[LevelSpec, ...]) -> Placement:
    """The Placement of a structure given by its levels.

    Levels compose as a Kronecker product: the outer level's parameter and
    block index vary slowest.  A multilevel placement reads its inner one,
    so the store keeps that one as its base.
    """
    lev, inner = levels[0], levels[1:]
    param, cell, coeff = spec(lev.kind).placement(lev.n, lev.f, lev.pattern)
    n = lev.n
    if inner:
        base = _placement(inner)
        m = base.structural.shape[0]
        row, col = np.divmod(cell, n)
        irow, icol = np.divmod(base.cell, m)
        param = (param[:, None] * param_count(StructureKind.MULTILEVEL, m, levels=inner)
                 + base.param).ravel()
        cell = ((row[:, None] * m + irow) * (n * m) + col[:, None] * m + icol).ravel()
        coeff = (coeff[:, None] * base.coeff).ravel()
        n *= m
    structural = np.zeros(n * n, dtype=bool)
    structural[cell] = True
    structural = structural.reshape(n, n)
    terms = int(np.count_nonzero(structural))
    rows = structural.any(axis=1)
    return Placement(read_only(param), read_only(cell), read_only(coeff), read_only(structural),
                     terms, read_only(rows), int(np.count_nonzero(rows)), terms == len(cell))


def _dense(M: StructuredMatrix) -> tuple[np.ndarray, np.ndarray, Placement]:
    """dense_parts' values and variable, and M's Placement."""
    placement = _placement(M.levels)
    param, cell, structural = placement.param, placement.cell, placement.structural
    data = M.data_vector()
    values = np.zeros(structural.size, dtype=complex)
    weighted = placement.coeff * data.values[param]
    if placement.distinct:
        values[cell] += weighted        # 0 + w, as np.add.at: -0.0 lands as +0.0
    else:
        np.add.at(values, cell, weighted)
    values = values.reshape(structural.shape)
    if data.flags is None:
        return values, structural, placement
    variable = np.zeros(structural.size, dtype=bool)
    variable[cell[data.flags[param]]] = True
    return values, variable.reshape(structural.shape), placement


def dense_parts(M: StructuredMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense (values, variable, structural) arrays for any structured matrix:
    the weighted parameters summed onto their cells, and each cell Variable
    when a Variable parameter reaches it.  Where no two parameters share a
    cell (the placement's distinct) each is added to its zero cell in one
    buffered pass; otherwise (tph, and levels holding tph) they are summed
    by np.add.at.  Either way a cell is 0 + its weighted parameters, so a
    weighted zero of either sign lands as +0.0.  Parameters with the
    all-Variable marker reach every cell of the structural mask, so their
    variable is that read-only mask itself."""
    values, variable, placement = _dense(M)
    return values, variable, placement.structural


def densify(M: StructuredMatrix) -> list[list[TrackedScalar]]:
    """Dense n x n grid of TrackedScalar; undetermined entries are Constant zero."""
    values, variable, _ = dense_parts(M)
    return to_grid(TrackedVector(values, variable))


# ---------------------------------------------------------------------------
# Naive oracle
# ---------------------------------------------------------------------------

def naive_matvec(A, x, ctx: CountContext):
    """Entrywise matrix-vector product, structurally skipping Constant zeros.

    A may be a StructuredMatrix or a grid that counting.as_matrix reads.  The
    bilinear count equals the number of active (not Constant-zero) entries
    multiplying a Variable, which for all-Variable inputs is the number of
    structurally nonzero entries.  Every other active entry is one scalar
    multiplication, and a row of k active entries makes k - 1 additions: the
    active entries less the rows that have one.

    The all-Variable marker is read, not expanded: a matrix whose parameters
    carry it has its structural mask, and a grid that carries it every cell,
    as both its Variable and its active entries, and an x that carries it
    makes every active entry meet a Variable; either way an output row is
    Variable when it has an active entry.  Such a matrix's active entries
    and rows are its placement's, so their counts are read from the
    placement (Placement's terms, rows and row_count), not counted again.
    """
    placement = None
    if isinstance(A, StructuredMatrix):
        values, variable, placement = _dense(A)
        marked = A.data_vector().flags is None
    else:
        grid = as_matrix(A)
        values, variable, marked = grid.values, grid.variable, grid.flags is None
    xvec = one_vector(as_vector(x), values.shape[1])
    if marked and placement is not None:
        active, terms, row_count = variable, placement.terms, placement.row_count
        rows = placement.rows.copy()        # the output's flags: its own, not the stored mask
    else:
        active = variable if marked else variable | (values != 0)
        rows = active.any(axis=1)
        terms, row_count = int(np.count_nonzero(active)), int(np.count_nonzero(rows))
    hit = active if marked else active & variable
    if xvec.flags is not None:
        hit = hit & xvec.flags
    bilinear = terms if hit is active else int(np.count_nonzero(hit))
    ctx.count_bilinear(bilinear)
    ctx.count_scalar(terms - bilinear)
    ctx.count_addition(terms - row_count)
    if not marked and xvec.flags is not None:
        rows = (active & (variable | xvec.flags)).any(axis=1)
    return match_output(x, TrackedVector(values @ xvec.values, rows))


def naive_count(A) -> int:
    """Structural multiplication count of the naive product (generic input):
    A is a StructuredMatrix or a grid that counting.as_matrix reads."""
    grid = TrackedVector(*dense_parts(A)[:2]) if isinstance(A, StructuredMatrix) else as_matrix(A)
    return int(np.count_nonzero(grid.variable | (grid.values != 0)))


# ---------------------------------------------------------------------------
# Basis enumeration
# ---------------------------------------------------------------------------

def basis(kind: StructureKind, n: int, f: complex | None = None,
          pattern: SparsityPattern | None = None) -> list[StructuredMatrix]:
    """Parameter one-hot matrices: one Constant-1 entry per basis element,
    each given as a one-hot vector with all-Constant flags."""
    P = check_structure(kind, n, f, pattern).params
    flags = np.zeros(P, dtype=bool)
    return [StructuredMatrix(kind, n, TrackedVector(one_hot, flags), f=f, pattern=pattern)
            for one_hot in np.eye(P, dtype=complex)]


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
    doc["data"] = [_pair(z) for z in M.data_vector().values.tolist()]
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
