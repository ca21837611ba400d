"""Tagged complex arithmetic with exact accounting of bilinear multiplications.

A scalar is either a Constant (known at algorithm-design time: twiddle
factors, structural zeros) or a Variable (actual input data).  Only
Variable*Variable products count toward ``bilinear_mults``; multiplication
by a constant is a scalar multiplication, additions are free.  Counting is
structural: it depends on the kind pattern of the operands, never on their
numeric values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
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


def variables(values: Iterable) -> list[TrackedScalar]:
    return [variable(v) for v in values]


def constants(values: Iterable) -> list[TrackedScalar]:
    return [constant(v) for v in values]


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
    recorder: object | None = field(default=None, repr=False, compare=False)

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
# array; per-entry Variable flags are a bool array.  In the ordinary numeric
# lane values are 1-D complex; the decomposition-extraction lane stores one
# linear-form coefficient row per entry (2-D), and every operation below is
# the same numpy code in both lanes except the pointwise product, which
# defers to the recorder installed on the context.
# ---------------------------------------------------------------------------


_KIND_OF_FLAG = (Kind.CONSTANT, Kind.VARIABLE)
_value_of = attrgetter("value")


def read_only(arr: np.ndarray) -> np.ndarray:
    """Mark an array read-only in place and return it."""
    arr.flags.writeable = False
    return arr


def propagate(support: np.ndarray, flags: np.ndarray) -> np.ndarray:
    """Variable flags after a linear map with the given boolean support.

    The support's last axis runs over the inputs, its leading axes over the
    outputs.  An output is Variable when any Variable input feeds it.  The
    boolean product is an OR of ANDs, so it cannot wrap however many inputs
    feed one output.
    """
    return np.dot(support, flags)


class ConstantMap:
    """A constant linear map: a read-only matrix and its boolean support.

    Kernels apply the same transforms to many vectors, so the support is
    computed once here, not on every application.
    """

    __slots__ = ("matrix", "support")

    def __init__(self, matrix: np.ndarray):
        self.matrix = read_only(np.asarray(matrix, dtype=complex))
        self.support = read_only(self.matrix != 0)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.matrix.shape

    @property
    def nbytes(self) -> int:
        return self.matrix.nbytes + self.support.nbytes


class TrackedVector:
    """Vector of tracked scalars stored structure-of-arrays style."""

    __slots__ = ("values", "variable")

    def __init__(self, values: np.ndarray, variable: np.ndarray):
        self.values = values
        self.variable = variable

    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def symbolic(self) -> bool:
        return self.values.ndim == 2


def as_vector(x) -> TrackedVector:
    """Accept a TrackedVector or a sequence of TrackedScalar."""
    if isinstance(x, TrackedVector):
        return x
    scalars = list(x)
    values = np.array(list(map(_value_of, scalars)), dtype=complex)
    flags = np.array([s.kind is Kind.VARIABLE for s in scalars], dtype=bool)
    return TrackedVector(values, flags)


def to_scalars(vec: TrackedVector) -> list[TrackedScalar]:
    if vec.symbolic:
        raise ValueError("symbolic vectors have no scalar representation")
    kinds = map(_KIND_OF_FLAG.__getitem__, vec.variable.tolist())
    return list(map(TrackedScalar, vec.values.astype(complex, copy=False).tolist(), kinds))


def variable_vector(values) -> TrackedVector:
    arr = np.asarray(values, dtype=complex)
    return TrackedVector(arr, np.ones(arr.shape[0], dtype=bool))


def constant_vector(values) -> TrackedVector:
    arr = np.asarray(values, dtype=complex)
    return TrackedVector(arr, np.zeros(arr.shape[0], dtype=bool))


def zero_vector(k: int, template: TrackedVector) -> TrackedVector:
    """Constant-zero vector in the same lane (numeric or symbolic) as template."""
    if template.symbolic:
        values = np.zeros((k, template.values.shape[1]), dtype=complex)
    else:
        values = np.zeros(k, dtype=complex)
    return TrackedVector(values, np.zeros(k, dtype=bool))


def concat(*vecs: TrackedVector) -> TrackedVector:
    return TrackedVector(np.concatenate([v.values for v in vecs], axis=0),
                         np.concatenate([v.variable for v in vecs]))


def take(vec: TrackedVector, idx) -> TrackedVector:
    """Gather entries; a pure relabeling, nothing is counted."""
    idx = np.asarray(idx, dtype=int)
    return TrackedVector(vec.values[idx], vec.variable[idx])


def apply_matrix(M: ConstantMap, vec: TrackedVector, ctx: CountContext) -> TrackedVector:
    """Apply a constant map: scalar multiplications and additions only."""
    m, n = M.shape
    if n != len(vec):
        raise ValueError(f"matrix of width {n} applied to vector of length {len(vec)}")
    values = M.matrix @ vec.values
    flags = propagate(M.support, vec.variable)
    ctx.count_scalar(m * n)
    if n > 1:
        ctx.count_addition(m * (n - 1))
    return TrackedVector(values, flags)


def scale(vec: TrackedVector, c: complex, ctx: CountContext) -> TrackedVector:
    ctx.count_scalar(len(vec))
    return TrackedVector(vec.values * c, vec.variable.copy())


def signed_take(vec: TrackedVector, idx, signs, ctx: CountContext) -> TrackedVector:
    """Gather entries and multiply each by a constant sign/coefficient."""
    idx = np.asarray(idx, dtype=int)
    coeff = np.asarray(signs, dtype=complex)
    ctx.count_scalar(len(idx))
    if vec.symbolic:
        values = vec.values[idx] * coeff[:, None]
    else:
        values = vec.values[idx] * coeff
    return TrackedVector(values, vec.variable[idx].copy())


def vadd(u: TrackedVector, v: TrackedVector, ctx: CountContext) -> TrackedVector:
    ctx.count_addition(len(u))
    return TrackedVector(u.values + v.values, u.variable | v.variable)


def vsub(u: TrackedVector, v: TrackedVector, ctx: CountContext) -> TrackedVector:
    ctx.count_addition(len(u))
    return TrackedVector(u.values - v.values, u.variable | v.variable)


def vneg(u: TrackedVector) -> TrackedVector:
    return TrackedVector(-u.values, u.variable.copy())


def broadcast_add(vec: TrackedVector, s: TrackedVector, ctx: CountContext,
                  negate: bool = False) -> TrackedVector:
    """Add (or subtract) a length-1 tracked vector to every entry."""
    if len(s) != 1:
        raise ValueError("broadcast_add expects a length-1 addend")
    ctx.count_addition(len(vec))
    sval = s.values[0] if not vec.symbolic else s.values[0][None, :]
    values = vec.values - sval if negate else vec.values + sval
    flags = vec.variable | bool(s.variable[0])
    return TrackedVector(values, flags)


def add_at(target: TrackedVector, idx, source: TrackedVector, ctx: CountContext,
           negate: bool = False) -> None:
    """In-place target[idx] += source; repeated indices accumulate."""
    idx = np.asarray(idx, dtype=int)
    ctx.count_addition(len(idx))
    np.add.at(target.values, idx, -source.values if negate else source.values)
    np.logical_or.at(target.variable, idx, source.variable)


def vmul(u: TrackedVector, v: TrackedVector, ctx: CountContext) -> TrackedVector:
    """Pointwise product; each Variable*Variable entry is one bilinear mult."""
    if len(u) != len(v):
        raise ValueError("pointwise product of mismatched lengths")
    both = u.variable & v.variable
    ctx.count_bilinear(int(both.sum()))
    ctx.count_scalar(len(u) - int(both.sum()))
    if ctx.recorder is not None:
        return ctx.recorder.pointwise(u, v, both)
    return TrackedVector(u.values * v.values, u.variable | v.variable)


def reciprocal(vec: TrackedVector, ctx: CountContext,
               zero_threshold: float = DIVISION_ZERO_THRESHOLD) -> TrackedVector:
    """Entrywise 1/x.  Each Variable divisor is one counted division."""
    if vec.symbolic:
        raise ValueError("reciprocal is not defined in the extraction lane")
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
    """Normalize a dense grid of TrackedScalars to (values, variable) arrays."""
    if isinstance(rows, tuple) and len(rows) == 2 and isinstance(rows[0], np.ndarray):
        return rows
    grid = [list(r) for r in rows]
    m = len(grid)
    n = len(grid[0]) if m else 0
    if any(len(r) != n for r in grid):
        raise ValueError("ragged matrix")
    values = np.array([list(map(_value_of, r)) for r in grid], dtype=complex)
    flags = np.array([[s.kind is Kind.VARIABLE for s in r] for r in grid], dtype=bool)
    return values, flags
