"""Harvest explicit rank-one decompositions by replaying kernels symbolically.

Scalars in the extraction lane hold linear-form coefficient rows instead of
numbers: parameter coordinates, input coordinates, one constant coordinate,
and one coordinate per recorded bilinear product.  The kernel body
W (U t * V x) runs on those rows: its constant maps act on rows exactly as
on numbers, and its Variable*Variable pointwise product checks that one
operand is a pure parameter form and the other a pure input form, stores
them as a term, and becomes a fresh product coordinate.  Kernel outputs
are then linear in the product coordinates, giving the third factor of
every term.
"""

from __future__ import annotations

import numpy as np

from .counting import CountContext, TrackedVector
from .structures import LevelSpec, SparsityPattern, StructureKind, check_level, spec
from .tensorlab import DecompositionTerm, TensorDecomposition

_PURITY_TOL = 1e-11


class _Recorder:
    def __init__(self, p_dim: int, x_dim: int, capacity: int):
        self.p = p_dim
        self.x = x_dim
        self.const_col = p_dim + x_dim
        self.width = p_dim + x_dim + 1 + capacity
        self.recorded = 0
        self.U = np.zeros((capacity, p_dim), dtype=complex)
        self.V = np.zeros((capacity, x_dim), dtype=complex)

    def _classify(self, values: np.ndarray):
        """Per row: (not linear in the inputs, parameter side, mixes sides,
        not a pure constant)."""
        live = np.abs(values) > _PURITY_TOL
        p_live = live[:, :self.p].any(axis=1)
        x_live = live[:, self.p:self.const_col].any(axis=1)
        prod_live = live[:, self.const_col + 1:].any(axis=1)
        nonlinear = live[:, self.const_col] | prod_live
        return nonlinear, p_live, p_live & x_live, p_live | x_live | prod_live

    def pointwise(self, u: TrackedVector, v: TrackedVector, both: np.ndarray) -> TrackedVector:
        """Record every Variable*Variable entry as a term, in entry order, and
        return the product rows.  The first refused entry raises."""
        nonlin_u, side_u, mixed_u, nonconst_u = self._classify(u.values)
        nonlin_v, side_v, mixed_v, nonconst_v = self._classify(v.values)
        only_u = ~both & u.variable
        only_v = ~both & ~u.variable & v.variable
        neither = ~(both | u.variable | v.variable)
        over = self.recorded + np.cumsum(both) > len(self.U)
        # Refusals of one entry, in the order they are checked.
        checks = (
            (both & nonlin_u, "bilinear product operand is not linear in the inputs"),
            (both & mixed_u, "bilinear product operand mixes parameter and input coordinates"),
            (both & nonlin_v, "bilinear product operand is not linear in the inputs"),
            (both & mixed_v, "bilinear product operand mixes parameter and input coordinates"),
            (both & (side_u == side_v),
             "bilinear product needs one parameter-side and one input-side operand"),
            (both & over, "recorder capacity exceeded"),
            ((only_u & nonconst_v) | (only_v & nonconst_u) | (neither & (nonconst_u | nonconst_v)),
             "constant operand carries non-constant coordinates"),
        )
        refused = np.logical_or.reduce([bad for bad, _ in checks])
        if refused.any():
            i = np.argmax(refused)
            raise ValueError(next(message for bad, message in checks if bad[i]))

        # Only the parameter and input columns are gathered: full-width
        # copies of the rows would raise the peak memory of the replay.
        c = self.const_col
        ib = np.flatnonzero(both)
        lo, hi = self.recorded, self.recorded + len(ib)
        for at, p_side, x_side in ((side_u[ib], u, v), (~side_u[ib], v, u)):
            pos = np.flatnonzero(at)
            self.U[lo + pos] = p_side.values[ib[pos], :self.p]
            self.V[lo + pos] = x_side.values[ib[pos], self.p:c]
        self.recorded = hi
        out = np.zeros((len(u), self.width), dtype=complex)
        out[ib, c + 1 + np.arange(lo, hi)] = 1.0
        for idx, var, const in ((np.flatnonzero(only_u), u, v), (np.flatnonzero(only_v), v, u)):
            out[idx] = const.values[idx, c, None] * var.values[idx]
        idx = np.flatnonzero(neither)
        out[idx, c] = u.values[idx, c] * v.values[idx, c]
        return TrackedVector(out, u.variable | v.variable)


def extract_decomposition(kind, n: int, f: complex | None = None,
                          pattern: SparsityPattern | None = None) -> TensorDecomposition:
    """Explicit rank-one terms realized by the kernel for this structure.

    The kernel is replayed once over linear-form scalars; every bilinear
    product, one per row of the kernel's U map, contributes one term, so the
    term count equals the kernel's multiplication count and the summed
    tensor equals the structure tensor.  A kind that needs f uses f = -1
    when none is given.
    """
    kind = StructureKind(kind)
    entry = spec(kind)
    if f is None and entry.needs_f:
        f = -1.0
    P = check_level(kind, n, f, pattern)
    r = entry.maps(n, f, pattern)[0].shape[0]

    rec = _Recorder(P, n, r)
    ctx = CountContext(recorder=rec)
    params_rows = np.zeros((P, rec.width), dtype=complex)
    params_rows[np.arange(P), np.arange(P)] = 1.0
    x_rows = np.zeros((n, rec.width), dtype=complex)
    x_rows[np.arange(n), P + np.arange(n)] = 1.0
    params = TrackedVector(params_rows, np.ones(P, dtype=bool))
    x = TrackedVector(x_rows, np.ones(n, dtype=bool))
    out = entry.product(params, x, ctx, f, pattern)

    if ctx.bilinear_mults != r or rec.recorded != r:
        raise AssertionError("symbolic replay diverged from the kernel's product count")
    leak = np.abs(out.values[:, :rec.const_col + 1]).max(initial=0.0)
    if leak > 1e-9:
        raise AssertionError(f"kernel output is not bilinear (leak {leak})")

    W = out.values[:, rec.const_col + 1:].T.copy()
    terms = [DecompositionTerm(1.0 + 0j, rec.U[i], rec.V[i], W[i]) for i in range(r)]
    return TensorDecomposition((P, n, n), terms)


def level_decomposition(lev: LevelSpec) -> tuple:
    """The constant (U, V, W) factor maps of one level: its kind's cached
    kernel triple, whose supports are structural.  Multilevel products read
    every level through here, so a trace can count them."""
    return spec(lev.kind).maps(lev.n, lev.f, lev.pattern)
