"""Harvest explicit rank-one decompositions by replaying kernels symbolically.

Scalars in the extraction lane hold linear-form coefficient rows instead of
numbers: parameter coordinates, input coordinates, one constant coordinate,
and one coordinate per recorded bilinear product.  Constant-matrix
application, addition, and scaling act on rows exactly as on numbers; each
Variable*Variable pointwise product checks that one operand is a pure
parameter form and the other a pure input form, stores them as a term, and
becomes a fresh product coordinate.  Kernel outputs are then linear in the
product coordinates, giving the third factor of every term.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .counting import ConstantMap, CountContext, TrackedVector, variable_vector
from .structures import LevelSpec, SparsityPattern, StructureKind, check_level, spec
from .tensorlab import DecompositionTerm, TensorDecomposition

_PURITY_TOL = 1e-11


class _Recorder:
    def __init__(self, p_dim: int, x_dim: int, capacity: int):
        self.p = p_dim
        self.x = x_dim
        self.const_col = p_dim + x_dim
        self.width = p_dim + x_dim + 1 + capacity
        self.us: list[np.ndarray] = []
        self.vs: list[np.ndarray] = []

    def _split(self, row: np.ndarray):
        if abs(row[self.const_col]) > _PURITY_TOL or np.abs(row[self.const_col + 1:]).max(initial=0.0) > _PURITY_TOL:
            raise ValueError("bilinear product operand is not linear in the inputs")
        p_part = row[:self.p]
        x_part = row[self.p:self.const_col]
        p_live = np.abs(p_part).max(initial=0.0) > _PURITY_TOL
        x_live = np.abs(x_part).max(initial=0.0) > _PURITY_TOL
        if p_live and x_live:
            raise ValueError("bilinear product operand mixes parameter and input coordinates")
        return ("p", p_part) if p_live else ("x", x_part)

    def _record(self, row_a: np.ndarray, row_b: np.ndarray) -> int:
        side_a, part_a = self._split(row_a)
        side_b, part_b = self._split(row_b)
        if side_a == side_b:
            raise ValueError("bilinear product needs one parameter-side and one input-side operand")
        u, v = (part_a, part_b) if side_a == "p" else (part_b, part_a)
        self.us.append(u.copy())
        self.vs.append(v.copy())
        col = self.const_col + len(self.us)
        if col >= self.width:
            raise ValueError("recorder capacity exceeded")
        return col

    def _const_of(self, row: np.ndarray) -> complex:
        rest = np.delete(row, self.const_col)
        if np.abs(rest).max(initial=0.0) > _PURITY_TOL:
            raise ValueError("constant operand carries non-constant coordinates")
        return complex(row[self.const_col])

    def pointwise(self, u: TrackedVector, v: TrackedVector, both: np.ndarray) -> TrackedVector:
        k = len(u)
        out = np.zeros((k, self.width), dtype=complex)
        for i in range(k):
            if both[i]:
                out[i, self._record(u.values[i], v.values[i])] = 1.0
            elif u.variable[i]:
                out[i] = self._const_of(v.values[i]) * u.values[i]
            elif v.variable[i]:
                out[i] = self._const_of(u.values[i]) * v.values[i]
            else:
                out[i, self.const_col] = self._const_of(u.values[i]) * self._const_of(v.values[i])
        return TrackedVector(out, u.variable | v.variable)


def extract_decomposition(kind, n: int, f: complex | None = None,
                          pattern: SparsityPattern | None = None) -> TensorDecomposition:
    """Explicit rank-one terms realized by the kernel for this structure.

    The kernel is replayed once over linear-form scalars; every bilinear
    product contributes one term, so the term count equals the kernel's
    multiplication count and the summed tensor equals the structure tensor.
    A kind that needs f uses f = -1 when none is given.
    """
    kind = StructureKind(kind)
    if f is None and spec(kind).needs_f:
        f = -1.0
    P = check_level(kind, n, f, pattern)
    kernel = spec(kind).kernel

    # Dry numeric run pins the exact product count (it is size-determined).
    dry = CountContext()
    dummy_params = variable_vector(np.arange(1, P + 1) * (0.5 + 0.25j))
    dummy_x = variable_vector(np.arange(1, n + 1) * (0.75 - 0.5j))
    kernel(dummy_params, dummy_x, dry, f, pattern)
    r = dry.bilinear_mults

    rec = _Recorder(P, n, r)
    ctx = CountContext(recorder=rec)
    params_rows = np.zeros((P, rec.width), dtype=complex)
    params_rows[np.arange(P), np.arange(P)] = 1.0
    x_rows = np.zeros((n, rec.width), dtype=complex)
    x_rows[np.arange(n), P + np.arange(n)] = 1.0
    params = TrackedVector(params_rows, np.ones(P, dtype=bool))
    x = TrackedVector(x_rows, np.ones(n, dtype=bool))
    out = kernel(params, x, ctx, f, pattern)

    if ctx.bilinear_mults != r or len(rec.us) != r:
        raise AssertionError("symbolic replay diverged from the numeric count")
    leak = np.abs(out.values[:, :rec.const_col + 1]).max(initial=0.0)
    if leak > 1e-9:
        raise AssertionError(f"kernel output is not bilinear (leak {leak})")

    terms = []
    for i in range(r):
        w = out.values[:, rec.const_col + 1 + i].copy()
        terms.append(DecompositionTerm(1.0 + 0j, rec.us[i], rec.vs[i], w))
    return TensorDecomposition((P, n, n), terms)


@lru_cache(maxsize=None)
def level_decomposition(lev: LevelSpec) -> tuple[ConstantMap, ConstantMap, ConstantMap]:
    """Constant (U, V, W) factor maps of one level's kernel decomposition."""
    dec = extract_decomposition(lev.kind, lev.n, f=lev.f, pattern=lev.pattern)
    r = len(dec.terms)
    P, n = dec.dims[0], dec.dims[1]
    U = np.zeros((r, P), dtype=complex)
    V = np.zeros((r, n), dtype=complex)
    W = np.zeros((dec.dims[2], r), dtype=complex)
    for i, term in enumerate(dec.terms):
        U[i] = term.lam * term.u
        V[i] = term.v
        W[:, i] = term.w
    return ConstantMap(U), ConstantMap(V), ConstantMap(W)
