"""Read rank-one decompositions off the kernels' triples, and certify
structure tensor ranks with them.

A kernel's triple (U, V, W) is a rank decomposition of its bilinear map.
Each map's dense form is its block of factors: U.dense() the r x P block of
parameter factors, V.dense() the r x n block of input factors, W.dense() the
n x r block of output factors, one column per product.  The forms are read
off each map's own arrays, with no map applied to an identity block, and the
flags are each map's reach, the image of all-Variable flags.  The pointwise
product records the factor rows of every Variable*Variable entry, stacked
with W's columns as the decomposition's rows."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .counting import TrackedVector
from .structures import LevelSpec, SparsityPattern, check_structure, default_f, spec, structure_dim
from .tensorlab import TensorDecomposition, flattening_ranks, structure_tensor, verify_decomposition

_ZERO_TOL = 1e-11
CERTIFY_TOL = 1e-8


class _Recorder:
    """The extraction lane's pointwise product: it keeps the factor rows of
    every Variable*Variable entry, in entry order."""

    def pointwise(self, u: TrackedVector, v: TrackedVector, both: np.ndarray) -> None:
        """Record the Variable*Variable entries as terms.  Any other entry
        multiplies by a Constant, which has no coordinates: one of its rows
        must be zero, and so is its product's."""
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


def triple_decomposition(maps) -> TensorDecomposition:
    """The terms of a triple (U, V, W), one row [1, u, v, w] per row of U,
    each forming its product: u and v are the rows of U's and V's dense
    forms, w the column of W's dense form at the product.  Every row of U
    forms one, so the columns are W's own, in order."""
    U, V, W = maps
    u, v = (TrackedVector(M.dense(), M.reach) for M in (U, V))
    rec = _Recorder()
    both = u.variable & v.variable
    rec.pointwise(u, v, both)
    if not np.count_nonzero(both) == U.shape[0] == len(rec.U):
        raise AssertionError("the pointwise product diverged from the kernel's product count")
    del u, v  # the dense forms, so that they and the rows never peak together
    return TensorDecomposition((U.shape[1], V.shape[1], W.shape[0]), rows=np.concatenate(
        (np.ones((len(rec.U), 1)), rec.U, rec.V, W.dense().T), axis=1, dtype=complex))


def extract_decomposition(kind, n: int, f: complex | None = None,
                          pattern: SparsityPattern | None = None) -> TensorDecomposition:
    """The rank-one terms of the kind's stored triple, the one its kernel
    runs: one per bilinear product, summing to the structure tensor.  A kind
    that needs f uses f = -1 when none is given."""
    f = default_f(kind, f)
    kind = check_structure(kind, n, f, pattern).kind
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
    take its flattening ranks.  f defaults as in extract_decomposition;
    structure_tensor checks the inputs first."""
    T = structure_tensor(kind, n, f=f)
    rep = verify_decomposition(T, extract_decomposition(kind, n, f=f), CERTIFY_TOL)
    return RankCertificate(rep.term_count, rep.max_abs_error, rep.passed, flattening_ranks(T),
                           structure_dim(kind, n), spec(kind).count(n, None))


def level_decomposition(lev: LevelSpec) -> tuple:
    """The constant (U, V, W) factor maps of one level: its kind's stored
    kernel triple, whose supports are structural.  structured_matvec reads
    every level through here, once per matrix, so a trace can count them."""
    return spec(lev.kind).maps(lev.n, lev.f, lev.pattern)
