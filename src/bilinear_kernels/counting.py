"""Tagged complex arithmetic with exact accounting of bilinear multiplications.

A scalar is either a Constant (known at algorithm-design time: twiddle
factors, structural zeros) or a Variable (actual input data).  Only
Variable*Variable products count toward ``bilinear_mults``; multiplication
by a constant is a scalar multiplication, additions are free.  Counting is
structural: it depends on the kind pattern of the operands, never on their
numeric values.

The map store MAP_STORE keeps every kernel triple and structure placement,
each built once, bounded in entries and in the bytes it holds (MapStore).
"""

from __future__ import annotations

import math
import operator
import sys
from collections import OrderedDict, deque
from dataclasses import dataclass
from enum import Enum
from functools import reduce, wraps
from itertools import repeat
from operator import attrgetter
from typing import Iterable

import numpy as np

DIVISION_ZERO_THRESHOLD = 1e-300


class DivisionByZero(ZeroDivisionError):
    """Divisor magnitude at or below the configured zero threshold."""


class Kind(Enum):
    CONSTANT = "constant"
    VARIABLE = "variable"


@dataclass(frozen=True, slots=True)
class TrackedScalar:
    """A complex value tagged Constant or Variable."""

    value: complex
    kind: Kind

    @property
    def is_variable(self) -> bool:
        return self.kind is Kind.VARIABLE


def variable(value) -> TrackedScalar:
    return TrackedScalar(complex(value), Kind.VARIABLE)


def constant(value) -> TrackedScalar:
    return TrackedScalar(complex(value), Kind.CONSTANT)


# The frozen dataclass __init__ sets each field through object.__setattr__,
# which dominates the cost of building a vector's worth of scalars; _scalars()
# allocates them bare and fills them through the slot descriptors instead.
_new_object = object.__new__
_set_value = TrackedScalar.value.__set__
_set_kind = TrackedScalar.kind.__set__


def _scalars(values: list[complex], kinds: Iterable[Kind]) -> list[TrackedScalar]:
    """Tracked scalars of the complex values, each of the next kind, built
    in bulk."""
    out = list(map(_new_object, repeat(TrackedScalar, len(values))))
    deque(map(_set_value, out, values), 0)      # a deque of length 0 only consumes
    deque(map(_set_kind, out, kinds), 0)
    return out


def variables(values: Iterable) -> list[TrackedScalar]:
    """Variables of the values; the same scalars as variable() of each."""
    return _scalars([complex(v) for v in values], repeat(Kind.VARIABLE))


def constants(values: Iterable) -> list[TrackedScalar]:
    """Constants of the values; the same scalars as constant() of each."""
    return _scalars([complex(v) for v in values], repeat(Kind.CONSTANT))


@dataclass
class CountContext:
    """Mutable tally of the four counted quantities for one computation.

    A fresh context starts at zero and counters only ever increase.  The
    context is passed explicitly to every operation; there is no global
    counter.  One context must not be shared by concurrent computations.
    """

    bilinear_mults: int = 0
    divisions: int = 0
    scalar_mults: int = 0
    additions: int = 0

    def count_bilinear(self, k: int = 1) -> None:
        if k < 0:
            raise ValueError("counter increments must be nonnegative")
        self.bilinear_mults += k

    def count_division(self, k: int = 1) -> None:
        if k < 0:
            raise ValueError("counter increments must be nonnegative")
        self.divisions += k

    def count_scalar(self, k: int = 1) -> None:
        if k < 0:
            raise ValueError("counter increments must be nonnegative")
        self.scalar_mults += k

    def count_addition(self, k: int = 1) -> None:
        if k < 0:
            raise ValueError("counter increments must be nonnegative")
        self.additions += k

    def snapshot(self) -> "CountContext":
        return CountContext(self.bilinear_mults, self.divisions,
                            self.scalar_mults, self.additions)


def _kind_or(a: TrackedScalar, b: TrackedScalar) -> Kind:
    return Kind.VARIABLE if (a.is_variable or b.is_variable) else Kind.CONSTANT


def mul(a: TrackedScalar, b: TrackedScalar, ctx: CountContext) -> TrackedScalar:
    """Product.  Variable*Variable is the one counted bilinear multiplication."""
    if a.is_variable and b.is_variable:
        ctx.count_bilinear()
    else:
        ctx.count_scalar()
    return TrackedScalar(a.value * b.value, _kind_or(a, b))


def add(a: TrackedScalar, b: TrackedScalar, ctx: CountContext) -> TrackedScalar:
    ctx.count_addition()
    return TrackedScalar(a.value + b.value, _kind_or(a, b))


def sub(a: TrackedScalar, b: TrackedScalar, ctx: CountContext) -> TrackedScalar:
    ctx.count_addition()
    return TrackedScalar(a.value - b.value, _kind_or(a, b))


def neg(a: TrackedScalar) -> TrackedScalar:
    return TrackedScalar(-a.value, a.kind)


def div(a: TrackedScalar, b: TrackedScalar, ctx: CountContext,
        zero_threshold: float = DIVISION_ZERO_THRESHOLD) -> TrackedScalar:
    """Quotient.  Division by a Variable is counted in ``divisions``."""
    if abs(b.value) <= zero_threshold:
        raise DivisionByZero(f"divisor magnitude {abs(b.value)} at or below {zero_threshold}")
    if b.is_variable:
        ctx.count_division()
    else:
        ctx.count_scalar()
    return TrackedScalar(a.value / b.value, _kind_or(a, b))


# ---------------------------------------------------------------------------
# Vector layer.
#
# Kernels operate on whole vectors of tracked scalars.  Values are a numpy
# array; per-entry Variable flags are a bool array of the same shape.  A
# vector's first axis runs over its entries.  Values may carry further axes:
# a block of vectors (a multilevel level map applies to one axis of the
# whole product, and the blocked kernels batch their column pairs or
# columns), every column charged as its own vector.  Constant maps apply
# over those trailing axes.
# ---------------------------------------------------------------------------


_KIND_OF_FLAG = (Kind.CONSTANT, Kind.VARIABLE)
_value_of, _kind_of = attrgetter("value"), attrgetter("kind")


def read_only(arr: np.ndarray) -> np.ndarray:
    """Mark an array read-only in place and return it."""
    arr.flags.writeable = False
    return arr


# Every constant map form has a shape (m, n), its size in nbytes (every
# array it applies, a view in full), its parts (the slots that hold its
# arrays and maps), and a cost: the scalar multiplications and additions of
# one application to one vector.  ``apply`` maps values of shape (n, ...)
# to (m, ...); ``propagate`` maps Variable flags the same way through the
# map's structural support, so an output is Variable when any Variable input
# feeds it, however many do.
# Its ``reach`` is the image of all-Variable flags: a read-only (m,) vector,
# computed once when the map is built.  apply_matrix hands an all-Variable
# input the reach and propagates only other flags; the pointwise product
# still reads the flags of every call, so the bilinear count is measured on
# each one.
# Its ``dense`` form is its m x n complex matrix, equal to ``apply`` of the
# n x n identity but read off the form's own arrays, with no identity block
# built; extraction takes its factors from it.  It is computed on each call
# and kept nowhere; a ConstantMap's is its own read-only matrix.

class ConstantMap:
    """A dense constant linear map: a read-only matrix and its boolean support.

    Kernels apply the same transforms to many vectors, so the support is
    computed once here, not on every application.  By default it is the
    nonzero pattern of the matrix.  A map composed from a chain of maps
    passes the chain's structural support instead: an entry of the product
    can cancel to zero although Variable inputs still feed it, and the
    flags must not depend on such numeric accidents.
    """

    __slots__ = ("matrix", "support", "full", "reach", "shape", "nbytes", "cost")
    parts = ("matrix", "support", "reach")

    def __init__(self, matrix: np.ndarray, support: np.ndarray | None = None):
        self.matrix = read_only(np.asarray(matrix, dtype=complex))
        if support is None:
            support = self.matrix != 0
        elif (support := np.asarray(support, dtype=bool)).shape != self.matrix.shape:
            raise ValueError(f"support of shape {support.shape} for a matrix of shape "
                             f"{self.matrix.shape}")
        self.support = read_only(support)
        self.shape = m, n = self.matrix.shape
        self.full = bool(support.all())
        self.reach = read_only(np.full(m, n > 0) if self.full else support.any(axis=1))
        self.nbytes = self.matrix.nbytes + support.nbytes
        self.cost = (m * n, m * max(n - 1, 0))

    def __getitem__(self, key) -> "ConstantMap":
        """The sub-map of the selected rows and columns; slices give views."""
        return ConstantMap(self.matrix[key], self.support[key])

    def rescaled(self, matrix: np.ndarray) -> "ConstantMap":
        """This map with its matrix swapped for matrix, a complex array of
        the same shape that rescales this one's rows or columns by nonzero
        constants: such a rescaling keeps the structural support, so the
        support, reach and every other part are this map's own."""
        if matrix.shape != self.shape:
            raise ValueError(f"matrix of shape {matrix.shape} for a map of shape {self.shape}")
        out = _new_object(ConstantMap)
        out.matrix = read_only(matrix)
        out.support, out.full, out.reach = self.support, self.full, self.reach
        out.shape, out.nbytes, out.cost = self.shape, self.nbytes, self.cost
        return out

    def apply(self, values: np.ndarray) -> np.ndarray:
        return self.matrix @ values

    def dense(self) -> np.ndarray:
        return self.matrix

    def propagate(self, flags: np.ndarray) -> np.ndarray:
        """The boolean product is an OR of ANDs, so it cannot wrap.  numpy
        forms it without BLAS, so a vector through a full support takes the
        OR of all its entries instead.  Blocks keep the product: at the block
        sizes the kernels use it is the cheaper of the two.  apply_matrix
        calls this only for flags that are not all Variable; those take the
        precomputed reach."""
        if self.full and flags.ndim == 1:
            out = np.empty(self.shape[0], dtype=bool)
            out.fill(np.count_nonzero(flags) > 0)
            return out
        return np.dot(self.support, flags)


class GatherMap:
    """A constant map whose output rows are short signed sums of gathered
    inputs: row i sums sign[k] * input[index[k]] over the terms k of row i.

    Its support is every gathered input, so a term of sign 0, which a
    composed chain reads although it cancels, still passes its flag.  A sign
    costs no multiplication, as ``neg`` does not; every term of a row after
    its first costs one addition.  A row without terms is Constant zero.

    The terms are laid out as (rank, row) tables, a row's terms of nonzero
    sign first, so values are summed over the leading ranks alone.
    """

    __slots__ = ("shape", "support", "padded", "terms", "signs", "reach", "nbytes", "cost")
    parts = ("support", "terms", "signs", "reach")

    def __init__(self, shape: tuple[int, int], rows, index, sign=None):
        m, n = shape
        rows, index = np.asarray(rows, dtype=np.intp), np.asarray(index, dtype=np.intp)
        sign = np.ones(len(rows)) if sign is None else np.asarray(sign, dtype=float)
        order = np.lexsort((sign == 0, rows))
        rows = rows[order]
        counts = np.bincount(rows, minlength=m)
        rank = np.arange(len(rows)) - (np.cumsum(counts) - counts)[rows]
        self.shape = shape
        support = np.full((counts.max(initial=0), m), n, dtype=np.intp)
        signs = np.zeros(support.shape)
        support[rank, rows], signs[rank, rows] = index[order], sign[order]
        # An empty slot has sign 0 and repeats its row's first input, which
        # leaves the row's OR as it is.  Only a row without terms, whose first
        # slot is empty, reads index n: the False that propagate appends.
        empty = support == n
        self.support = np.where(empty, support[:1], support)
        self.padded = bool(empty[:1].any())
        live = np.count_nonzero(signs.any(axis=1))
        self.terms = read_only(np.where(signs[:live] != 0, self.support[:live], 0))
        self.signs = read_only(signs)[:live]
        read_only(self.support)
        self.reach = read_only(counts > 0)
        self.nbytes = self.support.nbytes + self.terms.nbytes + self.signs.nbytes
        self.cost = (0, len(rows) - int(np.count_nonzero(counts)))

    @classmethod
    def picking(cls, n: int, index) -> "GatherMap":
        """The map whose row i is input index[i]: the map that
        GatherMap((len(index), n), range(len(index)), index) builds, with
        none of the sorting and tables that rows of several terms need."""
        index = read_only(np.array(index, dtype=np.intp).reshape(1, -1))
        m = index.shape[1]
        if not m:
            return cls((0, n), [], [])
        out = _new_object(cls)
        out.shape = (m, n)
        out.support = out.terms = index
        out.signs = read_only(np.ones((1, m)))
        out.padded = False
        out.reach = read_only(np.ones(m, dtype=bool))
        out.nbytes = 2 * index.nbytes + out.signs.nbytes
        out.cost = (0, 0)
        return out

    def apply(self, values: np.ndarray) -> np.ndarray:
        terms = values[self.terms]
        terms *= self.signs.reshape(self.signs.shape + (1,) * (values.ndim - 1))
        return terms.sum(axis=0)

    def dense(self) -> np.ndarray:
        """The signs summed at (row, term) in one bincount, rank by rank as
        apply sums them; an empty slot adds its 0 sign to input 0."""
        m, n = self.shape
        cells = self.terms + np.arange(m) * n
        return np.bincount(cells.ravel(), self.signs.ravel(), m * n).reshape(m, n).astype(complex)

    def propagate(self, flags: np.ndarray) -> np.ndarray:
        """Only a map with a row without terms reads the appended False."""
        if self.padded:
            flags = np.concatenate([flags, np.zeros((1,) + flags.shape[1:], dtype=bool)])
        return np.logical_or.reduce(flags[self.support], axis=0)


class BlockMap:
    """A constant map stacked from bands of rows.  A band is a list of
    (cols, M) pairs, cols a slice of the input, and its rows are the sum of
    every M applied to input[cols]; the bands are stacked in order.  Each
    map of a band after the first costs one addition per row.
    """

    __slots__ = ("bands", "shape", "reach", "nbytes", "cost")
    parts = ("bands", "reach")

    def __init__(self, width: int, bands):
        self.bands = tuple(tuple(band) for band in bands)
        heights = [band[0][1].shape[0] for band in self.bands]
        maps = [M for band in self.bands for _, M in band]
        self.shape = (sum(heights), width)
        self.reach = read_only(np.concatenate([reduce(operator.or_, (M.reach for _, M in band))
                                               for band in self.bands]))
        self.nbytes = sum(M.nbytes for M in maps)
        self.cost = (sum(M.cost[0] for M in maps), sum(M.cost[1] for M in maps)
                     + sum((len(band) - 1) * h for band, h in zip(self.bands, heights)))

    def apply(self, values: np.ndarray) -> np.ndarray:
        return np.concatenate([reduce(operator.add, (M.apply(values[cols]) for cols, M in band))
                               for band in self.bands])

    def dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=complex)
        top = 0
        for band in self.bands:
            rows = slice(top, top + band[0][1].shape[0])
            for cols, M in band:
                out[rows, cols] += M.dense()
            top = rows.stop
        return out

    def propagate(self, flags: np.ndarray) -> np.ndarray:
        return np.concatenate([reduce(operator.or_, (M.propagate(flags[cols]) for cols, M in band))
                               for band in self.bands])


class ChainMap:
    """The map ``second`` applied after ``first``."""

    __slots__ = ("first", "second", "shape", "reach", "nbytes", "cost")
    parts = ("first", "second", "reach")

    def __init__(self, first, second):
        self.first, self.second = first, second
        self.shape = (second.shape[0], first.shape[1])
        self.reach = read_only(second.propagate(first.reach))
        self.nbytes = first.nbytes + second.nbytes
        self.cost = tuple(a + b for a, b in zip(first.cost, second.cost))

    def apply(self, values: np.ndarray) -> np.ndarray:
        return self.second.apply(self.first.apply(values))

    def dense(self) -> np.ndarray:
        return self.second.apply(self.first.dense())

    def propagate(self, flags: np.ndarray) -> np.ndarray:
        return self.second.propagate(self.first.propagate(flags))


# Bounds of the map store.  The entries keep every map and placement of a
# verify-style sweep over n <= 16 (500 keys a round, 48 of them a fresh f or
# pattern) resident while fresh ones come and go; the bytes keep an
# order-1000 Toeplitz and Hankel pair (152.5 MiB: their shared frame and a W each).
MAP_STORE_ENTRIES = 576
MAP_STORE_BYTES = 160 * 2**20


def _buffers(obj, found: dict[int, int]) -> dict[int, int]:
    """Add the owning buffer of every array obj holds, through tuples and
    the parts of map forms, to found: its id and its bytes.  A view's owner
    is the array at the end of its bases, so a view or a broadcast adds no
    bytes of its own."""
    if isinstance(obj, np.ndarray):
        while isinstance(obj.base, np.ndarray):
            obj = obj.base
        found[id(obj)] = obj.nbytes
    elif isinstance(obj, tuple):
        for item in obj:
            _buffers(item, found)
    else:
        for name in getattr(obj, "parts", ()):
            _buffers(getattr(obj, name), found)
    return found


def _key_bytes(obj) -> int:
    """The bytes of the sparsity patterns a store key holds, as an argument
    or as a level's pattern: each pattern's entries tuple and its (row,
    column) pairs."""
    if isinstance(obj, tuple):
        return sum(map(_key_bytes, obj))
    entries = getattr(getattr(obj, "pattern", obj), "entries", None)
    if entries is None:
        return 0
    return sys.getsizeof(entries) + sum(map(sys.getsizeof, entries))


class MapStore:
    """Every constant map and placement the library builds once, keyed on
    (builder, *args), least recently read first, with its size and its
    chain: its key, then the chains of the entries it was built from.  The
    size is the bytes of the buffers its arrays own that its bases' do not,
    and of the sparsity patterns in its key (_key_bytes): a pattern holds a
    Python pair per entry, as many bytes as the maps it keys.  A pattern
    that keys two entries counts in both.  Beside each entry the store
    keeps those owned buffers (``owned``), so a new entry takes its bases'
    buffers from there instead of walking their maps again: every buffer a
    base holds is owned by it or by one of its own bases.

    A read moves its chain to the recent end, so a base is always more
    recent than what was built from it and is never evicted first: one
    order has one Toeplitz frame.  After a build, the least recent entries
    are evicted while either bound is exceeded, up to the new entry, which
    is kept with its bases.  So every entry's bases are in the store.
    """

    def __init__(self):
        self.entries: OrderedDict[tuple, tuple[object, int, list[tuple]]] = OrderedDict()
        self.owned: dict[tuple, dict[int, int]] = {}
        self.nbytes = 0
        self._reads: list[list[tuple]] = []     # the keys each build in progress reads

    def read(self, builder, args: tuple):
        key = (builder, *args)
        if self._reads:
            self._reads[-1].append(key)
        entry = self.entries.get(key)
        built = entry is None
        if built:
            self._reads.append([])
            try:
                value = builder(*args)
            finally:
                bases = self._reads.pop()
            chain = [key, *(k for base in bases for k in self.entries[base][2])]
            held = self.owned[key] = _buffers(value, {})
            for base in set(chain[1:]):
                for shared in self.owned[base]:
                    held.pop(shared, None)
            size = sum(held.values()) + _key_bytes(key)
            entry = self.entries[key] = (value, size, chain)
            self.nbytes += size
        for k in entry[2]:
            self.entries.move_to_end(k)
        # Evict once the outermost build is done: no entry it read goes first.
        while built and not self._reads and (len(self.entries) > MAP_STORE_ENTRIES
                                             or self.nbytes > MAP_STORE_BYTES):
            oldest = next(iter(self.entries))
            if oldest is key:
                break
            self.nbytes -= self.entries.pop(oldest)[1]
            del self.owned[oldest]
        return entry[0]


MAP_STORE = MapStore()


def _stored(builder):
    """The builder, read through the map store."""
    @wraps(builder)
    def read(*args):
        return MAP_STORE.read(builder, args)
    return read


class TrackedVector:
    """Vector of tracked scalars stored structure-of-arrays style."""

    __slots__ = ("values", "variable")

    def __init__(self, values: np.ndarray, variable: np.ndarray):
        self.values = values
        self.variable = variable

    def __len__(self) -> int:
        return self.values.shape[0]


def as_vector(x) -> TrackedVector:
    """Accept a TrackedVector or a sequence of TrackedScalar."""
    if isinstance(x, TrackedVector):
        return x
    scalars = list(x)
    n = len(scalars)
    values = np.fromiter(map(_value_of, scalars), dtype=complex, count=n)
    flags = np.fromiter(map(operator.is_, map(_kind_of, scalars), repeat(Kind.VARIABLE, n)),
                        dtype=bool, count=n)
    return TrackedVector(values, flags)


def as_input(x) -> TrackedVector:
    """A kernel's operand: what as_vector accepts, or raw numbers, a
    sequence of them or a numeric numpy array, whose entries become
    Variables as structured() makes them.  Anything else is a one-line
    TypeError."""
    if isinstance(x, TrackedVector):
        return x
    if isinstance(x, np.ndarray) and x.ndim == 1 and x.dtype.kind in "biufc":
        return variable_vector(x)
    items = list(x)
    try:
        return as_vector(items)
    except AttributeError:      # not every item is a TrackedScalar
        pass
    values = []
    for v in items:
        try:
            values.append(complex(v))
        except (TypeError, ValueError):
            raise TypeError(f"expected all tracked scalars or all numbers, got "
                            f"{type(v).__name__} {v!r:.40}") from None
    return variable_vector(values)


def to_scalars(vec: TrackedVector) -> list[TrackedScalar]:
    return _scalars(vec.values.astype(complex, copy=False).tolist(),
                    map(_KIND_OF_FLAG.__getitem__, vec.variable.tolist()))


def variable_vector(values) -> TrackedVector:
    arr = np.asarray(values, dtype=complex)
    return TrackedVector(arr, np.ones(arr.shape[0], dtype=bool))


def tile(vec: TrackedVector, k: int) -> TrackedVector:
    """The block whose k columns are copies of vec; a map applied to it
    charges every column as its own vector."""
    return TrackedVector(np.repeat(vec.values[:, None], k, axis=1),
                         np.repeat(vec.variable[:, None], k, axis=1))


def to_grid(block: TrackedVector) -> list[list[TrackedScalar]]:
    """The rows of an (m, k) block as lists of tracked scalars."""
    m, k = block.values.shape
    flat = to_scalars(TrackedVector(block.values.reshape(-1), block.variable.reshape(-1)))
    return [flat[i * k:(i + 1) * k] for i in range(m)]


def concat(*vecs: TrackedVector) -> TrackedVector:
    return TrackedVector(np.concatenate([v.values for v in vecs], axis=0),
                         np.concatenate([v.variable for v in vecs]))


def take(vec: TrackedVector, idx) -> TrackedVector:
    """Gather entries; a pure relabeling, nothing is counted."""
    idx = np.asarray(idx, dtype=int)
    return TrackedVector(vec.values[idx], vec.variable[idx])


def apply_matrix(M, vec: TrackedVector, ctx: CountContext) -> TrackedVector:
    """Apply a constant map of any form to a vector, or to every vector of a
    block at once: scalar multiplications and additions only.  All-Variable
    flags map to a fresh copy of the map's reach, broadcast over the block."""
    if M.shape[1] != len(vec):
        raise ValueError(f"map of width {M.shape[1]} applied to vector of length {len(vec)}")
    flags = vec.variable
    vectors = math.prod(flags.shape[1:])
    scalars, additions = M.cost
    ctx.count_scalar(scalars * vectors)
    ctx.count_addition(additions * vectors)
    if np.count_nonzero(flags) < flags.size:
        out = M.propagate(flags)
    elif flags.ndim == 1:
        out = M.reach.copy()
    else:
        out = np.empty(M.reach.shape + flags.shape[1:], dtype=bool)
        out.T[...] = M.reach        # reach runs along out's first axis, out.T's last
    return TrackedVector(M.apply(vec.values), out)


def vmul(u: TrackedVector, v: TrackedVector, ctx: CountContext) -> TrackedVector:
    """Pointwise product; each Variable*Variable entry is one bilinear mult."""
    if len(u) != len(v):
        raise ValueError("pointwise product of mismatched lengths")
    both = u.variable & v.variable
    bilinear = int(np.count_nonzero(both))
    ctx.count_bilinear(bilinear)
    ctx.count_scalar(both.size - bilinear)
    return TrackedVector(u.values * v.values, u.variable | v.variable)


def triple_product(maps, a: TrackedVector, b: TrackedVector,
                   ctx: CountContext) -> TrackedVector:
    """W (U a * V b) for a Cohn-Umans triple (U, V, W) of constant maps, on
    vectors or blocks: the body of every bilinear kernel.  The pointwise
    product forms the counted products, one per row of U."""
    U, V, W = maps
    return apply_matrix(W, vmul(apply_matrix(U, a, ctx), apply_matrix(V, b, ctx), ctx), ctx)


def reciprocal(vec: TrackedVector, ctx: CountContext,
               zero_threshold: float = DIVISION_ZERO_THRESHOLD) -> TrackedVector:
    """Entrywise 1/x.  Each Variable divisor is one counted division."""
    if np.any(np.abs(vec.values) <= zero_threshold):
        raise DivisionByZero("reciprocal of a zero entry")
    nvar = int(vec.variable.sum())
    ctx.count_division(nvar)
    ctx.count_scalar(len(vec) - nvar)
    return TrackedVector(1.0 / vec.values, vec.variable.copy())


def match_output(x_input, vec: TrackedVector):
    """Return vec as the same flavor (list or TrackedVector) as x_input."""
    if isinstance(x_input, TrackedVector):
        return vec
    return to_scalars(vec)


def as_matrix(rows) -> tuple[np.ndarray, np.ndarray]:
    """A kernel's grid operand as (values, variable) arrays: the pair
    itself, or rows whose entries as_input takes together (a grid of
    TrackedScalars, read with no check per entry, or of raw numbers, a 2-D
    numeric numpy array among them, whose entries become Variables)."""
    if isinstance(rows, tuple) and len(rows) == 2 and isinstance(rows[0], np.ndarray):
        return rows
    grid = [list(r) for r in rows]
    m = len(grid)
    n = len(grid[0]) if m else 0
    if any(len(r) != n for r in grid):
        raise ValueError("ragged matrix")
    vec = as_input([s for r in grid for s in r])
    return vec.values.reshape(m, n), vec.variable.reshape(m, n)
