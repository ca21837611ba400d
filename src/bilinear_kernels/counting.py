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
import threading
from collections import OrderedDict, deque
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from functools import reduce, wraps
from itertools import repeat
from typing import Iterable

import numpy as np

DIVISION_ZERO_THRESHOLD = 1e-300


class DivisionByZero(ZeroDivisionError):
    """Divisor magnitude at or below DIVISION_ZERO_THRESHOLD."""


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


def _increment(k: int) -> int:
    """k as a counter increment: counters only ever increase, so a negative
    k is a ValueError."""
    if k < 0:
        raise ValueError("counter increments must be nonnegative")
    return k


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

    def count_bilinear(self, k: int) -> None:
        self.bilinear_mults += _increment(k)

    def count_division(self, k: int) -> None:
        self.divisions += _increment(k)

    def count_scalar(self, k: int) -> None:
        self.scalar_mults += _increment(k)

    def count_addition(self, k: int) -> None:
        self.additions += _increment(k)

    def snapshot(self) -> "CountContext":
        return CountContext(self.bilinear_mults, self.divisions,
                            self.scalar_mults, self.additions)


# ---------------------------------------------------------------------------
# Vector layer.
#
# Kernels operate on whole vectors of tracked scalars.  Values are a numpy
# array; per-entry Variable flags are a bool array of the same shape, or the
# all-Variable marker None where every entry is known to be Variable by
# structure: an input of Variables or raw numbers, a matrix's parameters,
# and what maps of full reach and pointwise products make of them.  Such
# flags are never built, copied or OR-ed.  A vector's first axis runs over
# its entries.  Values may carry further axes: a block of vectors (a
# multilevel level map applies to one axis of the whole product, and the
# blocked kernels batch their column pairs or columns), every column
# charged as its own vector.  Constant maps apply over those trailing axes.
# ---------------------------------------------------------------------------


_KIND_OF_FLAG = (Kind.CONSTANT, Kind.VARIABLE)
_VARIABLE = Kind.VARIABLE       # a member read through its Enum class costs a lookup each time


def read_only(arr: np.ndarray) -> np.ndarray:
    """Mark an array read-only in place and return it."""
    arr.setflags(write=False)
    return arr


# Every constant map form has a shape (m, n), its size in nbytes (every
# array it applies, a view in full), its parts (the slots that hold its
# arrays and maps), and a cost: the scalar multiplications and additions of
# one application to one vector.  ``apply`` maps values of shape (n, ...)
# to (m, ...); ``propagate`` maps Variable flags the same way through the
# map's structural support, so an output is Variable when any Variable input
# feeds it, however many do.
# Its ``reach`` is the image of all-Variable flags: a read-only (m,) vector,
# computed once when the map is built, and ``full_reach`` whether it is all
# True.  apply_matrix keeps the marker through a map of full reach, hands
# any other all-Variable input a fresh copy of the reach, and propagates
# only mixed flags; the pointwise product still reads the flags of every
# call (or the marker), so the bilinear count is measured on each one.
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

    __slots__ = ("matrix", "support", "full", "reach", "full_reach", "shape", "nbytes", "cost")
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
        self.full_reach = bool(self.reach.all())
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
        out.full_reach = self.full_reach
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
        marker or the precomputed reach."""
        if self.full and flags.ndim == 1:
            out = np.empty(self.shape[0], dtype=bool)
            out.fill(np.count_nonzero(flags) > 0)
            return out
        return np.dot(self.support, flags)


# The most ranks a gather map adds rank by rank.  Against one gather of the
# whole table (one BLAS thread, 3 to 1224 rows), two ranks of signs 1 win at
# every size, whether rank 1 fills every row or half of them; at three the
# table wins when every slot is live (no sign product), and at four in
# most cases.
_FEW_RANKS = 2


def _along(signs: np.ndarray, ndim: int) -> np.ndarray:
    """Signs shaped to scale what values of ndim axes gather, over the
    values' trailing axes."""
    return signs if ndim == 1 else signs.reshape(signs.shape + (1,) * (ndim - 1))


class GatherMap:
    """A constant map whose output rows are short signed sums of gathered
    inputs: row i sums sign[k] * input[index[k]] over the terms k of row i.

    Its support is every gathered input, so a term of sign 0, which a
    composed chain reads although it cancels, still passes its flag.  A sign
    costs no multiplication; every term of a row after its first costs one
    addition.  A row without terms is Constant zero.

    The terms are laid out as (rank, row) tables, a row's terms of nonzero
    sign first, so values are summed over the leading ranks alone.  The
    map chooses how it applies when it is built (``ranks``).  With few
    ranks (_FEW_RANKS), rank 0 filling every row and each later rank live
    on a prefix of the rows with signs 1, it gathers rank 0, multiplies it
    by its signs unless they are all 1, and adds each later rank at its
    prefix, through views of the table; a picking is then one gather.  Any
    other map gathers its whole table and sums it over the ranks,
    multiplying by the signs unless they are all 1.  Both give the
    table's sums: numpy sums a table's ranks in order, and a sign of 1 or
    an empty slot changes a sum only in the sign of a zero part or where
    an input is not finite.
    """

    __slots__ = ("shape", "support", "padded", "terms", "signs", "reach", "full_reach", "nbytes",
                 "cost", "ranks", "signed")
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
        self.full_reach = bool(self.reach.all())
        self.nbytes = self.support.nbytes + self.terms.nbytes + self.signs.nbytes
        self.cost = (0, len(rows) - int(np.count_nonzero(counts)))
        self._choose_form()

    def _choose_form(self) -> None:
        """Set ``signed``, whether the table's signs are not all 1, and
        ``ranks``: None for the table, or rank 0's inputs and signs (None
        when all 1) followed by each later rank's live rows, a prefix, and
        their inputs, all views of the table."""
        terms, signs = self.terms, self.signs
        self.signed = not (signs == 1).all()
        self.ranks = None
        if not 0 < len(signs) <= _FEW_RANKS or not signs[0].all():
            return
        ranks = [(terms[0], signs[0] if (signs[0] != 1).any() else None)]
        for r in range(1, len(signs)):
            k = int(np.count_nonzero(signs[r]))
            if (signs[r, :k] != 1).any():       # rows that are not a prefix, or signs not 1
                return
            ranks.append((slice(k), terms[r, :k]))
        self.ranks = tuple(ranks)

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
        out.reach, out.full_reach = read_only(np.ones(m, dtype=bool)), True
        out.nbytes = 2 * index.nbytes + out.signs.nbytes
        out.cost = (0, 0)
        out.ranks, out.signed = ((index[0], None),), False
        return out

    def apply(self, values: np.ndarray) -> np.ndarray:
        ranks = self.ranks
        if ranks is None:
            terms = values[self.terms]
            if self.signed:
                terms *= _along(self.signs, values.ndim)
            return terms.sum(axis=0)
        index, sign = ranks[0]
        out = values[index]
        if sign is not None:
            out *= _along(sign, values.ndim)
        for rows, index in ranks[1:]:
            out[rows] += values[index]
        return out

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

    __slots__ = ("bands", "shape", "reach", "full_reach", "nbytes", "cost")
    parts = ("bands", "reach")

    def __init__(self, width: int, bands):
        self.bands = tuple(tuple(band) for band in bands)
        heights = [band[0][1].shape[0] for band in self.bands]
        maps = [M for band in self.bands for _, M in band]
        self.shape = (sum(heights), width)
        self.reach = read_only(np.concatenate([reduce(operator.or_, (M.reach for _, M in band))
                                               for band in self.bands]))
        self.full_reach = bool(self.reach.all())
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

    __slots__ = ("first", "second", "shape", "reach", "full_reach", "nbytes", "cost")
    parts = ("first", "second", "reach")

    def __init__(self, first, second):
        self.first, self.second = first, second
        self.shape = (second.shape[0], first.shape[1])
        self.reach = read_only(second.propagate(first.reach))
        self.full_reach = bool(self.reach.all())
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
    One re-entrant lock is held across each read, its builds and their
    nested reads included, so reads from several threads run one at a time.
    """

    def __init__(self):
        self.entries: OrderedDict[tuple, tuple[object, int, list[tuple]]] = OrderedDict()
        self.owned: dict[tuple, dict[int, int]] = {}
        self.nbytes = 0
        self._reads: list[list[tuple]] = []     # the keys each build in progress reads
        self._lock = threading.RLock()          # held across a read, its builds included

    def read(self, builder, args: tuple):
        with self._lock:
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
    """Vector of tracked scalars stored structure-of-arrays style: its
    values, and its Variable flags, a bool array of the same shape or the
    all-Variable marker None.

    The marker stands for flags known to be all True by structure, not found
    so by reading them: an input of Variables or raw numbers (as_vector,
    variable_vector), a StructuredMatrix's parameters and kept symbol, and
    what maps of full reach and pointwise products make of those.  A vector
    given an all-True array keeps it.  ``variable`` reads the flags as a
    bool array in either form, the marker as a read-only all-True view.
    """

    __slots__ = ("values", "flags")

    def __init__(self, values: np.ndarray, flags: np.ndarray | None):
        self.values = values
        self.flags = flags

    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def variable(self) -> np.ndarray:
        flags = self.flags
        return np.broadcast_to(True, self.values.shape) if flags is None else flags


def rearranged(vec: TrackedVector, arrange) -> TrackedVector:
    """vec with the same rearrangement of entries (a gather, reshape or
    repeat) applied to its values and to its flags; the marker stays."""
    flags = vec.flags
    return TrackedVector(arrange(vec.values), None if flags is None else arrange(flags))


def number(v) -> complex:
    """complex(v) for a number.  Text is refused, though complex() parses
    it: a str or bytes is a one-line TypeError, as is anything else that
    complex() refuses."""
    if isinstance(v, (str, bytes)):
        raise TypeError(f"expected a number, got {type(v).__name__} {v!r:.40}")
    return complex(v)


# Entry types read with no call per entry; numpy reads the plain numbers as complex() does.
_SCALAR_TYPES = {TrackedScalar}
_PLAIN_NUMBERS = {complex, float, int}


def _not_one_vector(shape: tuple) -> ValueError:
    """one_vector's error for an operand of this shape that is not one
    vector, read as one of its leading length."""
    if not shape:
        return ValueError("expected one vector, got an operand of shape ()")
    return ValueError(f"expected one vector of length {shape[0]}, got an operand of shape {shape}")


def _nested(v) -> bool:
    """Whether an entry of a sequence is itself a vector: an array of one
    axis or more, or a sequence that is not text."""
    if isinstance(v, np.ndarray):
        return v.ndim > 0
    return isinstance(v, Sequence) and not isinstance(v, (str, bytes))


def as_vector(x) -> TrackedVector:
    """Every vector operand (a kernel's parameters and x, a matrix's data, a
    grid's entries), by one rule.  A TrackedVector or a numeric numpy array
    is read whole, and the result may share its arrays; a sequence of
    TrackedScalars, of raw numbers or of both is read entry by entry, raw
    numbers as Variables.  Raw numbers alone are read in one numpy read,
    tried first when the first entry is one, and a list of Variables in one
    pass over the list itself; any other sequence on a path chosen from its
    entries' types.  Variables and raw numbers alone give the marker.  An
    operand that is not one 1-D vector (a block, a 0-d array: a numpy array
    of any dtype and any other number of axes, or a sequence whose entries
    are all sequences or arrays) is one_vector's one-line ValueError; text,
    or an entry that is not a number, is a one-line TypeError (number)."""
    if isinstance(x, TrackedVector):
        vec = x
    elif isinstance(x, np.ndarray) and x.dtype.kind in "biufc":
        vec = variable_vector(x)
    elif isinstance(x, np.ndarray) and x.ndim != 1:
        raise _not_one_vector(x.shape)
    elif isinstance(x, (str, bytes)):
        raise TypeError(f"expected a sequence of tracked scalars or numbers, got "
                        f"{type(x).__name__} {x!r:.40}")
    else:
        items = x if x.__class__ is list else list(x)
        if items and items[0].__class__ in _PLAIN_NUMBERS:
            types = {v.__class__ for v in items}
            if types <= _PLAIN_NUMBERS:                   # raw numbers alone
                return TrackedVector(np.array(items, dtype=complex), None)
        else:
            values = [s.value for s in items
                      if s.__class__ is TrackedScalar and s.kind is _VARIABLE]
            if len(values) == len(items):                 # Variables alone
                return TrackedVector(np.fromiter(values, complex, len(values)), None)
            types = {v.__class__ for v in items}
        if types != _SCALAR_TYPES:
            if all(map(_nested, items)):                  # a block given as rows
                raise _not_one_vector((len(items), len(items[0])))
            items = [v if isinstance(v, TrackedScalar) else TrackedScalar(number(v), _VARIABLE)
                     for v in items]
        values = np.fromiter([s.value for s in items], complex, len(items))
        flags = np.array([s.kind is _VARIABLE for s in items], dtype=bool)
        return TrackedVector(values, None if flags.all() else flags)
    if vec.values.ndim != 1:
        raise _not_one_vector(vec.values.shape)
    return vec


def to_scalars(vec: TrackedVector) -> list[TrackedScalar]:
    flags = vec.flags
    kinds = (repeat(_VARIABLE) if flags is None
             else map(_KIND_OF_FLAG.__getitem__, flags.tolist()))
    return _scalars(vec.values.astype(complex, copy=False).tolist(), kinds)


def variable_vector(values) -> TrackedVector:
    return TrackedVector(np.asarray(values, dtype=complex), None)


def tile(vec: TrackedVector, k: int) -> TrackedVector:
    """The block whose k columns are copies of vec; a map applied to it
    charges every column as its own vector."""
    return rearranged(vec, lambda a: np.repeat(a[:, None], k, axis=1))


def to_grid(block: TrackedVector) -> list[list[TrackedScalar]]:
    """The rows of an (m, k) block as lists of tracked scalars."""
    m, k = block.values.shape
    flat = to_scalars(rearranged(block, np.ravel))
    return [flat[i * k:(i + 1) * k] for i in range(m)]


def concat(*vecs: TrackedVector) -> TrackedVector:
    """The vectors one after another: the marker when each has it."""
    flags = None
    if any(v.flags is not None for v in vecs):
        flags = np.concatenate([v.variable for v in vecs])
    return TrackedVector(np.concatenate([v.values for v in vecs], axis=0), flags)


def take(vec: TrackedVector, idx) -> TrackedVector:
    """Gather entries; a pure relabeling, nothing is counted."""
    idx = np.asarray(idx, dtype=int)
    return rearranged(vec, lambda a: a[idx])


def apply_matrix(M, vec: TrackedVector, ctx: CountContext) -> TrackedVector:
    """Apply a constant map of any form to a vector, or to every vector of a
    block at once: scalar multiplications and additions only.  The marker
    maps to the marker through a map of full reach, and to a fresh copy of
    the reach, broadcast over the block, through any other; so do all-True
    flags given as an array, to the copy.  Mixed flags are propagated.  The
    map's cost, nonnegative by construction, is added to the counters as it
    stands, once per vector of a block."""
    values, flags = vec.values, vec.flags
    if M.shape[1] != values.shape[0]:
        raise ValueError(f"map of width {M.shape[1]} applied to vector of length "
                         f"{values.shape[0]}")
    scalars, additions = M.cost
    if values.ndim > 1:
        vectors = math.prod(values.shape[1:])
        scalars, additions = scalars * vectors, additions * vectors
    ctx.scalar_mults += scalars
    ctx.additions += additions
    if flags is None:
        if M.full_reach:
            return TrackedVector(M.apply(values), None)
    elif np.count_nonzero(flags) < flags.size:
        return TrackedVector(M.apply(values), M.propagate(flags))
    if values.ndim == 1:
        out = M.reach.copy()
    else:
        out = np.empty(M.reach.shape + values.shape[1:], dtype=bool)
        out.T[...] = M.reach        # reach runs along out's first axis, out.T's last
    return TrackedVector(M.apply(values), out)


def one_vector(vec: TrackedVector, n: int) -> TrackedVector:
    """vec, when it is one vector of length n.  A block, or a vector of any
    other length, is a one-line ValueError that names its shape."""
    if vec.values.shape != (n,):
        raise ValueError(f"expected one vector of length {n}, got an operand of shape "
                         f"{vec.values.shape}")
    return vec


def vmul(u: TrackedVector, v: TrackedVector, ctx: CountContext) -> TrackedVector:
    """Pointwise product; each Variable*Variable entry is one bilinear mult.
    Two marked vectors make one product per entry and the marker; one marked
    vector makes the other's flags the Variable pairs and the marker.  The
    counts are nonnegative by construction and added to ctx as they stand."""
    if u.values.shape[0] != v.values.shape[0]:
        raise ValueError("pointwise product of mismatched lengths")
    values = u.values * v.values
    uf, vf = u.flags, v.flags
    if uf is None and vf is None:
        ctx.bilinear_mults += values.size
        return TrackedVector(values, None)
    both = vf if uf is None else uf if vf is None else uf & vf
    bilinear = int(np.count_nonzero(both))
    ctx.bilinear_mults += bilinear
    ctx.scalar_mults += both.size - bilinear
    return TrackedVector(values, None if uf is None or vf is None else uf | vf)


def triple_product(maps, a: TrackedVector, b: TrackedVector,
                   ctx: CountContext) -> TrackedVector:
    """W (U a * V b) for a Cohn-Umans triple (U, V, W) of constant maps, on
    vectors or blocks: the body of every bilinear kernel.  The pointwise
    product forms the counted products, one per row of U."""
    U, V, W = maps
    return apply_matrix(W, vmul(apply_matrix(U, a, ctx), apply_matrix(V, b, ctx), ctx), ctx)


def reciprocal(vec: TrackedVector, ctx: CountContext) -> TrackedVector:
    """Entrywise 1/x, of a vector or of every vector of a block.  Each
    Variable divisor is one counted division and each Constant one a
    scalar multiplication, over every entry of the block."""
    if np.any(np.abs(vec.values) <= DIVISION_ZERO_THRESHOLD):
        raise DivisionByZero("reciprocal of a zero entry")
    flags = vec.flags
    nvar = vec.values.size if flags is None else int(np.count_nonzero(flags))
    ctx.count_division(nvar)
    ctx.count_scalar(vec.values.size - nvar)
    return TrackedVector(1.0 / vec.values, None if flags is None else flags.copy())


def match_output(x_input, vec: TrackedVector):
    """Return vec as the same flavor (list or TrackedVector) as x_input."""
    if isinstance(x_input, TrackedVector):
        return vec
    return to_scalars(vec)


def as_matrix(rows) -> TrackedVector:
    """A kernel's grid operand as a 2-D TrackedVector: itself, a 2-D numeric
    numpy array read whole, or rows whose entries as_vector reads together
    by its one rule; so a grid of Variables or of raw numbers carries the
    all-Variable marker.  A TrackedVector that is not 2-D, and rows whose
    entries are all sequences or arrays, are the one-line ValueError
    "expected a grid", with the operand's shape."""
    if isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype.kind in "biufc":
        rows = variable_vector(rows)
    if isinstance(rows, TrackedVector):
        if rows.values.ndim != 2:
            raise ValueError(f"expected a grid, got an operand of shape {rows.values.shape}")
        return rows
    grid = [list(r) for r in rows]
    m = len(grid)
    n = len(grid[0]) if m else 0
    if any(len(r) != n for r in grid):
        raise ValueError("ragged matrix")
    entries = [s for r in grid for s in r]
    if entries and _nested(entries[0]) and all(map(_nested, entries)):     # a block of grids
        raise ValueError(f"expected a grid, got an operand of shape {(m, n, len(entries[0]))}")
    return rearranged(as_vector(entries), lambda a: a.reshape(m, n))
