"""Read rank-one decompositions off the kernels' triples, and certify
structure tensor ranks with them.

A kernel's triple (U, V, W) is a rank decomposition of its bilinear map.  U
applied to the P x P unit block is the r x P block of parameter factors, V
applied to the n x n unit block the r x n block of input factors, with
all-Variable flags mapped to each map's reach.  The pointwise product
records every Variable*Variable entry as a term and returns the r x r unit
block of product coordinates, which W turns into the n x r output factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .counting import TrackedVector
from .structures import (LevelSpec, SparsityPattern, StructureKind, check_level, default_f,
                         spec, structure_dim)
from .tensorlab import (DecompositionTerm, TensorDecomposition, flattening_ranks,
                        structure_tensor, verify_decomposition)

_ZERO_TOL = 1e-11
CERTIFY_TOL = 1e-8


class _Recorder:
    """The extraction lane's pointwise product: it keeps the factor rows of
    every Variable*Variable entry, in entry order."""

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


def triple_decomposition(maps) -> TensorDecomposition:
    """The terms of a triple (U, V, W): one per row of U, each forming its
    product."""
    U, V, W = maps
    u, v = (TrackedVector(M.apply(np.eye(M.shape[1], dtype=complex)), M.reach) for M in (U, V))
    rec = _Recorder()
    both = u.variable & v.variable
    out = rec.pointwise(u, v, both)
    r = U.shape[0]
    if not np.count_nonzero(both) == r == len(rec.U):
        raise AssertionError("the pointwise product diverged from the kernel's product count")
    terms = list(map(DecompositionTerm, repeat(1.0 + 0j, r), rec.U, rec.V,
                     W.apply(out.values).T.copy()))
    return TensorDecomposition((U.shape[1], V.shape[1], W.shape[0]), terms)


def extract_decomposition(kind, n: int, f: complex | None = None,
                          pattern: SparsityPattern | None = None) -> TensorDecomposition:
    """The rank-one terms of the kind's stored triple, the one its kernel
    runs: one per bilinear product, summing to the structure tensor.  A kind
    that needs f uses f = -1 when none is given."""
    kind = StructureKind(kind)
    f = default_f(kind, f)
    check_level(kind, n, f, pattern)
    return triple_decomposition(spec(kind).maps(n, f, pattern))


@dataclass(frozen=True)
class RankCertificate:
    """The certify chain's findings: the term count of the kernel's
    decomposition (rank <= terms), its largest error against the structure
    tensor and whether that is within CERTIFY_TOL, the flattening ranks
    (rank >= each), the matrix space's dimension and the kernel's count."""

    terms: int
    error: float
    passed: bool
    ranks: tuple[int, int, int]
    dim: int
    formula: int

    @property
    def lower(self) -> int:
        return max(self.ranks)

    @property
    def certified(self) -> bool:
        """rank = terms: the kernel's terms verify, the mode-1 flattening
        spans the matrix space, and the largest flattening rank meets them."""
        return (self.passed and self.terms == self.formula and self.ranks[0] == self.dim
                and self.lower == self.terms)


def certify_rank(kind, n: int, f: complex | None = None) -> RankCertificate:
    """Verify the kernel's decomposition against the structure tensor and
    take its flattening ranks.  f defaults as in extract_decomposition."""
    kind = StructureKind(kind)
    T = structure_tensor(kind, n, f=f)
    rep = verify_decomposition(T, extract_decomposition(kind, n, f=f), CERTIFY_TOL)
    return RankCertificate(rep.term_count, rep.max_abs_error, rep.passed, flattening_ranks(T),
                           structure_dim(kind, n), spec(kind).count(n, None))


def level_decomposition(lev: LevelSpec) -> tuple:
    """The constant (U, V, W) factor maps of one level: its kind's stored
    kernel triple, whose supports are structural.  structured_matvec reads
    every level through here, once per matrix, so a trace can count them."""
    return spec(lev.kind).maps(lev.n, lev.f, lev.pattern)
