"""Structured matrix representations, dense expansion, the naive oracle,
basis enumeration, and JSON serialization.

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
from typing import Sequence

import numpy as np

from .counting import (CountContext, Kind, TrackedScalar, TrackedVector, as_matrix,
                       as_vector, constant, match_output, propagate, read_only)


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


_MULTILEVEL_KINDS = {
    StructureKind.TOEPLITZ, StructureKind.HANKEL, StructureKind.CIRCULANT,
    StructureKind.F_CIRCULANT, StructureKind.TOEPLITZ_PLUS_HANKEL,
    StructureKind.SYMMETRIC, StructureKind.SPARSE,
}


def param_count(kind: StructureKind, n: int, pattern: SparsityPattern | None = None,
                levels: tuple[LevelSpec, ...] | None = None) -> int:
    if kind in (StructureKind.CIRCULANT, StructureKind.F_CIRCULANT,
                StructureKind.UPPER_TRIANGULAR_TOEPLITZ):
        return n
    if kind in (StructureKind.TOEPLITZ, StructureKind.HANKEL):
        return 2 * n - 1
    if kind is StructureKind.TOEPLITZ_PLUS_HANKEL:
        return 4 * n - 2
    if kind is StructureKind.SYMMETRIC:
        return n * (n + 1) // 2
    if kind is StructureKind.SKEW_SYMMETRIC:
        return n * (n - 1) // 2
    if kind is StructureKind.SPARSE:
        if pattern is None:
            raise ValueError("sparse structure needs a pattern")
        return len(pattern)
    if kind is StructureKind.MULTILEVEL:
        if not levels:
            raise ValueError("multilevel structure needs levels")
        out = 1
        for lev in levels:
            out *= param_count(lev.kind, lev.n, lev.pattern)
        return out
    raise ValueError(f"unsupported kind {kind}")


def structure_dim(kind: StructureKind, n: int, pattern: SparsityPattern | None = None) -> int:
    """Dimension of the matrix space (differs from param_count only for tph).

    The Toeplitz and Hankel spaces intersect in the two-dimensional space of
    checkerboard-constant matrices once n >= 2, so their sum has dimension
    4n-4 (and 1 at n = 1, where every space is the scalars).
    """
    if kind is StructureKind.TOEPLITZ_PLUS_HANKEL:
        return 1 if n == 1 else 4 * n - 4
    return param_count(kind, n, pattern)


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

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("order must be positive")
        expected = param_count(self.kind, self.n, self.pattern, self.levels)
        if len(self.data) != expected:
            raise ValueError(
                f"{self.kind.value} of order {self.n} needs {expected} parameters, "
                f"got {len(self.data)}")
        if self.kind is StructureKind.F_CIRCULANT:
            if self.f is None or self.f == 0:
                raise ValueError("f_circulant needs a nonzero f")
        if self.kind is StructureKind.SPARSE and self.pattern is None:
            raise ValueError("sparse structure needs a pattern")
        if self.kind is StructureKind.MULTILEVEL:
            if not self.levels:
                raise ValueError("multilevel structure needs levels")
            total = 1
            for lev in self.levels:
                total *= lev.n
            if total != self.n:
                raise ValueError(f"multilevel order {self.n} != product of level orders {total}")

    def data_vector(self) -> TrackedVector:
        """The parameters as a read-only TrackedVector, converted on first use."""
        vec = self._vector
        if vec is None:
            vec = as_vector(self.data)
            read_only(vec.values)
            read_only(vec.variable)
            object.__setattr__(self, "_vector", vec)
        return vec


def structured(kind: StructureKind, n: int, data, f: complex | None = None,
               pattern: SparsityPattern | None = None,
               levels: Sequence[LevelSpec] | None = None) -> StructuredMatrix:
    """Convenience constructor accepting TrackedScalars or raw numbers.

    Raw numbers become Variables (they are inputs to be computed with).
    """
    scalars = tuple(d if isinstance(d, TrackedScalar)
                    else TrackedScalar(complex(d), Kind.VARIABLE) for d in data)
    return StructuredMatrix(kind, n, scalars, f=f, pattern=pattern,
                            levels=tuple(levels) if levels is not None else None)


# ---------------------------------------------------------------------------
# Dense expansion
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def symmetric_index(n: int) -> dict[tuple[int, int], int]:
    idx = {}
    k = 0
    for i in range(n):
        for j in range(i, n):
            idx[(i, j)] = k
            k += 1
    return idx


@lru_cache(maxsize=None)
def skew_index(n: int) -> dict[tuple[int, int], int]:
    idx = {}
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            idx[(i, j)] = k
            k += 1
    return idx


def _placement(kind: StructureKind, n: int, f: complex | None,
               pattern: SparsityPattern | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(coeff, support, structural): dense[i,j] = sum_p coeff[p,i,j] * data[p];
    support[i,j,p] = coeff[p,i,j] != 0, laid out like a map from parameters to
    entries; structural marks the entries some parameter reaches."""
    P = param_count(kind, n, pattern)
    coeff = np.zeros((P, n, n), dtype=complex)
    if kind is StructureKind.CIRCULANT:
        for i in range(n):
            for j in range(n):
                coeff[(i - j) % n, i, j] = 1.0
    elif kind is StructureKind.F_CIRCULANT:
        for i in range(n):
            for j in range(n):
                coeff[(i - j) % n, i, j] = f if i > j else 1.0
    elif kind is StructureKind.TOEPLITZ:
        for i in range(n):
            for j in range(n):
                coeff[j - i + n - 1, i, j] = 1.0
    elif kind is StructureKind.HANKEL:
        for i in range(n):
            for j in range(n):
                coeff[i + j, i, j] = 1.0
    elif kind is StructureKind.UPPER_TRIANGULAR_TOEPLITZ:
        for i in range(n):
            for j in range(i, n):
                coeff[j - i, i, j] = 1.0
    elif kind is StructureKind.TOEPLITZ_PLUS_HANKEL:
        for i in range(n):
            for j in range(n):
                coeff[j - i + n - 1, i, j] = 1.0
                coeff[2 * n - 1 + i + j, i, j] += 1.0
    elif kind is StructureKind.SYMMETRIC:
        idx = symmetric_index(n)
        for (i, j), p in idx.items():
            coeff[p, i, j] = 1.0
            if i != j:
                coeff[p, j, i] = 1.0
    elif kind is StructureKind.SKEW_SYMMETRIC:
        idx = skew_index(n)
        for (i, j), p in idx.items():
            coeff[p, i, j] = 1.0
            coeff[p, j, i] = -1.0
    elif kind is StructureKind.SPARSE:
        for p, (r, c) in enumerate(pattern.entries):
            coeff[p, r, c] = 1.0
    else:
        raise ValueError(f"no placement for kind {kind}")
    support = np.ascontiguousarray(np.moveaxis(coeff != 0, 0, -1))
    structural = support.any(axis=-1)
    return read_only(coeff), read_only(support), read_only(structural)


# Bound of the placement cache.  It is keyed on f and on sparsity patterns,
# which sweeps draw fresh; the bound keeps every fixed (kind, n) of a sweep
# over n <= 16 resident.
PLACEMENT_CACHE_SIZE = 512


@lru_cache(maxsize=PLACEMENT_CACHE_SIZE)
def _placement_cached(kind: StructureKind, n: int, f: complex | None,
                      pattern: SparsityPattern | None):
    return _placement(kind, n, f, pattern)


def _single_level_parts(kind: StructureKind, n: int, f: complex | None,
                        pattern: SparsityPattern | None, data: TrackedVector):
    coeff, support, structural = _placement_cached(kind, n, f, pattern)
    values = np.einsum("pij,p->ij", coeff, data.values)
    variable = propagate(support, data.variable)
    return values, variable, structural


def dense_parts(M: StructuredMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense (values, variable, structural) arrays for any structured matrix."""
    if M.kind is StructureKind.MULTILEVEL:
        return _multilevel_parts(M.levels, M.data_vector())
    return _single_level_parts(M.kind, M.n, M.f, M.pattern, M.data_vector())


def _multilevel_parts(levels: tuple[LevelSpec, ...], data: TrackedVector):
    lev = levels[0]
    if len(levels) == 1:
        return _single_level_parts(lev.kind, lev.n, lev.f, lev.pattern, data)
    coeff, support, _ = _placement_cached(lev.kind, lev.n, lev.f, lev.pattern)
    P0 = coeff.shape[0]
    inner_plen = 1
    for sub in levels[1:]:
        inner_plen *= param_count(sub.kind, sub.n, sub.pattern)
    inner_n = 1
    for sub in levels[1:]:
        inner_n *= sub.n
    vals = np.zeros((lev.n * inner_n, lev.n * inner_n), dtype=complex)
    var = np.zeros_like(vals, dtype=bool)
    struct = np.zeros_like(var)
    for p in range(P0):
        block = TrackedVector(data.values[p * inner_plen:(p + 1) * inner_plen],
                              data.variable[p * inner_plen:(p + 1) * inner_plen])
        bvals, bvar, bstruct = _multilevel_parts(levels[1:], block)
        vals += np.kron(coeff[p], bvals)
        var |= np.kron(support[..., p], bvar)
        struct |= np.kron(support[..., p], bstruct)
    return vals, var, struct


def densify(M: StructuredMatrix) -> list[list[TrackedScalar]]:
    """Dense n x n grid of TrackedScalar; undetermined entries are Constant zero."""
    values, variable, _ = dense_parts(M)
    n = values.shape[0]
    return [[TrackedScalar(complex(values[i, j]),
                           Kind.VARIABLE if variable[i, j] else Kind.CONSTANT)
             for j in range(n)] for i in range(n)]


# ---------------------------------------------------------------------------
# Naive oracle
# ---------------------------------------------------------------------------

def naive_matvec(A, x, ctx: CountContext):
    """Entrywise matrix-vector product, structurally skipping Constant zeros.

    A may be a StructuredMatrix or a dense grid of TrackedScalar.  The
    bilinear count equals the number of active (not Constant-zero) entries
    multiplying a Variable, which for all-Variable inputs is the number of
    structurally nonzero entries.
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
    bilinear = active & variable & xvec.variable[None, :]
    ctx.count_bilinear(int(bilinear.sum()))
    ctx.count_scalar(int((active & ~bilinear).sum()))
    per_row = active.sum(axis=1)
    ctx.count_addition(int(np.maximum(per_row - 1, 0).sum()))
    out_values = values @ xvec.values
    term_var = active & (variable | xvec.variable[None, :])
    out_var = term_var.any(axis=1)
    return match_output(x, TrackedVector(out_values, out_var))


def naive_count(A) -> int:
    """Structural multiplication count of the naive product (generic input)."""
    if isinstance(A, StructuredMatrix):
        values, variable, structural = dense_parts(A)
        active = variable | (values != 0)
        return int(active.sum())
    values, variable = as_matrix(A)
    return int((variable | (values != 0)).sum())


# ---------------------------------------------------------------------------
# Basis enumeration
# ---------------------------------------------------------------------------

def basis(kind: StructureKind, n: int, f: complex | None = None,
          pattern: SparsityPattern | None = None) -> list[StructuredMatrix]:
    """Parameter one-hot matrices: one Constant-1 entry per basis element."""
    if kind is StructureKind.MULTILEVEL:
        raise ValueError("basis is defined per level, not for multilevel composites")
    if kind is StructureKind.F_CIRCULANT and (f is None or f == 0):
        raise ValueError("f_circulant basis needs a nonzero f")
    P = param_count(kind, n, pattern)
    out = []
    for p in range(P):
        data = [constant(0)] * P
        data[p] = constant(1)
        out.append(StructuredMatrix(kind, n, tuple(data), f=f, pattern=pattern))
    return out


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


def serialize_matrix(M: StructuredMatrix) -> str:
    doc: dict = {"kind": M.kind.value, "n": M.n}
    if M.kind is StructureKind.F_CIRCULANT:
        doc["f"] = _pair(complex(M.f))
    if M.kind is StructureKind.MULTILEVEL:
        doc["levels"] = []
        for lev in M.levels:
            entry: dict = {"kind": lev.kind.value, "n": lev.n}
            if lev.f is not None:
                entry["f"] = _pair(complex(lev.f))
            if lev.pattern is not None:
                entry["omega"] = [[r, c] for (r, c) in lev.pattern.entries]
            doc["levels"].append(entry)
    if M.kind is StructureKind.SPARSE:
        doc["omega"] = [[r, c] for (r, c) in M.pattern.entries]
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
    kind = _read_kind(doc["kind"], "kind")
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise SchemaError("n: expected a positive integer")
    f = None
    pattern = None
    levels = None
    if kind is StructureKind.F_CIRCULANT:
        if "f" not in doc:
            raise SchemaError("f: required for f_circulant")
        f = read_complex_pair(doc["f"], "f")
    if kind is StructureKind.SPARSE:
        if "omega" not in doc:
            raise SchemaError("omega: required for sparse")
        pattern = _read_pattern(doc["omega"], n, "omega")
    if kind is StructureKind.MULTILEVEL:
        if "levels" not in doc or not isinstance(doc["levels"], list) or not doc["levels"]:
            raise SchemaError("levels: required non-empty list for multilevel")
        levels = []
        for k, lev in enumerate(doc["levels"]):
            where = f"levels[{k}]"
            if not isinstance(lev, dict) or "kind" not in lev or "n" not in lev:
                raise SchemaError(f"{where}: expected an object with kind and n")
            lkind = _read_kind(lev["kind"], f"{where}.kind")
            ln = lev["n"]
            if not isinstance(ln, int) or isinstance(ln, bool) or ln < 1:
                raise SchemaError(f"{where}.n: expected a positive integer")
            lf = read_complex_pair(lev["f"], f"{where}.f") if "f" in lev else None
            lpat = _read_pattern(lev["omega"], ln, f"{where}.omega") if "omega" in lev else None
            if lkind not in _MULTILEVEL_KINDS:
                raise SchemaError(f"{where}.kind: {lkind.value} is not a valid level kind")
            levels.append(LevelSpec(lkind, ln, lf, lpat))
        levels = tuple(levels)
    if not isinstance(doc["data"], list):
        raise SchemaError("data: expected a list")
    data = [read_complex_pair(entry, f"data[{k}]") for k, entry in enumerate(doc["data"])]
    expected = param_count(kind, n, pattern, levels)
    if len(data) != expected:
        raise SchemaError(f"data: need {expected} entries for {kind.value} of order {n}, "
                          f"got {len(data)}")
    scalars = tuple(TrackedScalar(z, Kind.VARIABLE) for z in data)
    return StructuredMatrix(kind, n, scalars, f=f, pattern=pattern, levels=levels)


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
