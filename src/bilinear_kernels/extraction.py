"""Harvest explicit rank-one decompositions by running kernels on unit blocks.

The kernel body W (U t * V x) runs once with t the P x P unit block and x
the n x n unit block, each column one coordinate, against 1-D Variable
flags, so every counter is that of one kernel run.  U t is then the r x P
block of parameter factors and V x the r x n block of input factors.  The
pointwise product records every Variable*Variable entry as a term and
returns the r x r unit block of product coordinates, which W turns into the
n x r block of output factors.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

from .counting import CountContext, TrackedVector
from .structures import LevelSpec, SparsityPattern, StructureKind, check_level, spec
from .tensorlab import DecompositionTerm, TensorDecomposition

_ZERO_TOL = 1e-11


class _Recorder:
    """The extraction lane's pointwise product: it keeps the factor rows of
    every Variable*Variable entry, in entry order."""

    U = V = np.zeros((0, 0), dtype=complex)

    def pointwise(self, u: TrackedVector, v: TrackedVector, both: np.ndarray) -> TrackedVector:
        """Record the Variable*Variable entries as terms and return their
        unit block of product coordinates.  Any other entry multiplies by a
        Constant, which has no coordinates: one of its rows must be zero,
        and so is its product's."""
        ib = np.flatnonzero(both)
        if len(ib) < len(u):
            rest = np.flatnonzero(~both)
            live = [np.abs(side.values[rest]).max(axis=1, initial=0.0) > _ZERO_TOL
                    for side in (u, v)]
            bad = rest[live[0] & live[1]]
            if bad.size:
                raise ValueError(f"product entry {bad[0]} is not Variable*Variable "
                                 "but has two nonzero rows")
        self.U, self.V = u.values[ib], v.values[ib]
        out = np.zeros((len(u), len(ib)), dtype=complex)
        out[ib, np.arange(len(ib))] = 1.0
        return TrackedVector(out, u.variable | v.variable)


def extract_decomposition(kind, n: int, f: complex | None = None,
                          pattern: SparsityPattern | None = None) -> TensorDecomposition:
    """Explicit rank-one terms realized by the kernel for this structure.

    The kind's kernel body runs once on the parameter and input unit blocks
    (see the module docstring); every bilinear product, one per row of the
    kernel's U map, contributes one term, so the term count equals the
    kernel's multiplication count and the summed tensor equals the
    structure tensor.  A kind that needs f uses f = -1 when none is given.
    """
    kind = StructureKind(kind)
    entry = spec(kind)
    if f is None and entry.needs_f:
        f = -1.0
    P = check_level(kind, n, f, pattern)
    r = entry.maps(n, f, pattern)[0].shape[0]

    rec = _Recorder()
    ctx = CountContext(recorder=rec)
    params = TrackedVector(np.eye(P, dtype=complex), np.ones(P, dtype=bool))
    x = TrackedVector(np.eye(n, dtype=complex), np.ones(n, dtype=bool))
    out = entry.product(params, x, ctx, f, pattern)
    if not ctx.bilinear_mults == r == len(rec.U):
        raise AssertionError("unit-block replay diverged from the kernel's product count")

    terms = list(map(DecompositionTerm, repeat(1.0 + 0j, r), rec.U, rec.V, out.values.T.copy()))
    return TensorDecomposition((P, n, n), terms)


def level_decomposition(lev: LevelSpec) -> tuple:
    """The constant (U, V, W) factor maps of one level: its kind's cached
    kernel triple, whose supports are structural.  Multilevel products read
    every level through here, so a trace can count them."""
    return spec(lev.kind).maps(lev.n, lev.f, lev.pattern)
