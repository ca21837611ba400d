"""The benchmark's three workloads.

Each workload builds its operations in ``build(seed)`` and returns them as
one *round*: a list of ``(label, op)`` pairs.  An op runs one checked unit
of work and returns ``None`` when every check passes, or a short reason
(``"count"``, ``"error"``, ``"rank"``) when one fails; an exception raised
by the library is a failure too and is classified by the caller.

Every call into the library goes through a module attribute
(``kernels.structured_matvec``, not a name bound at import), so the traced
run sees the benchmark's own calls once the tracer has rebound them.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from bilinear_kernels import (cli, counting, extraction, groups, kernels, structures,
                              tensorlab)
from bilinear_kernels.rng import Lcg
from bilinear_kernels.structures import LevelSpec, StructureKind

TOL = 1e-8
WIDE_TOL = 1e-7  # multilevel and |f| outside [0.1, 10], as in acceptance criterion 2

MATVEC_KINDS = ("circulant", "toeplitz", "hankel", "triangular_toeplitz", "tph",
                "symmetric", "skew_symmetric")
F_VALUES = (-1.0, 2.0, 1j)
EXTREME_F = (0.02, 60j)


def rel_error(got, want) -> float:
    got = np.asarray(got)
    want = np.asarray(want)
    scale = max(float(np.abs(want).max(initial=0.0)), 1e-12)
    return float(np.abs(got - want).max(initial=0.0)) / scale


def values(scalars) -> np.ndarray:
    return np.array([s.value for s in scalars], dtype=complex)


# ---------------------------------------------------------------------------
# Independent dense reference (canonical parameter orders of the README)
# ---------------------------------------------------------------------------

def dense_reference(kind: str, n: int, params, f: complex | None = None) -> np.ndarray:
    """Dense matrix from canonical parameters with plain numpy indexing.

    Unlike ``structures.dense_parts`` this needs no O(P * n^2) placement
    tensor, so the oracle's memory stays out of kernel-large's peak RSS.
    """
    p = np.asarray(params, dtype=complex)
    i, j = np.indices((n, n))
    if kind == "circulant":
        return p[(i - j) % n]
    if kind == "f_circulant":
        return p[(i - j) % n] * np.where(i > j, f, 1.0)
    if kind == "toeplitz":
        return p[j - i + n - 1]
    if kind == "hankel":
        return p[i + j]
    if kind == "triangular_toeplitz":
        return np.where(j >= i, p[np.abs(j - i)], 0.0)
    if kind == "tph":
        return (dense_reference("toeplitz", n, p[:2 * n - 1])
                + dense_reference("hankel", n, p[2 * n - 1:]))
    A = np.zeros((n, n), dtype=complex)
    if kind == "symmetric":
        r, c = np.triu_indices(n)
        A[r, c] = p
        A[c, r] = p
        return A
    if kind == "skew_symmetric":
        r, c = np.triu_indices(n, 1)
        A[r, c] = p
        A[c, r] = -p
        return A
    raise ValueError(f"no dense reference for {kind}")


def check_reference(rng: Lcg) -> None:
    """Trust the reference: it must equal ``dense_parts`` for every kind, n <= 8."""
    for kind in MATVEC_KINDS + ("f_circulant",):
        for n in range(1, 9):
            f = 2.0 if kind == "f_circulant" else None
            k = StructureKind(kind)
            params = rng.complex_vector(structures.param_count(k, n))
            want, _, _ = structures.dense_parts(structures.structured(k, n, params, f=f))
            if rel_error(dense_reference(kind, n, params, f), want) > 1e-12:
                raise RuntimeError(f"dense reference disagrees with dense_parts: {kind} n={n}")


# ---------------------------------------------------------------------------
# oracle-sweep: verify-style trials against the naive oracle
# ---------------------------------------------------------------------------

def _fresh_f(rng: Lcg) -> complex:
    """A new f per trial, |f| log-uniform in [0.1, 10], any argument."""
    return 10.0 ** rng.uniform(-1.0, 1.0) * cmath.exp(1j * math.pi * rng.uniform())


def _trial(rng: Lcg, kind: str, n: int, f=None, levels=None, sparse=False,
           fresh_f=False, tol=TOL):
    def op():
        k = StructureKind(kind)
        pattern = cli.random_pattern(n, rng) if sparse else None
        f_used = _fresh_f(rng) if fresh_f else f
        M = cli.random_structured(k, n, rng, f=f_used, pattern=pattern, levels=levels)
        x = counting.variables(rng.complex_vector(M.n))
        ctx = counting.CountContext()
        fast = kernels.structured_matvec(M, x, ctx)
        ref = structures.naive_matvec(M, x, counting.CountContext())
        if ctx.bilinear_mults != kernels.formula_count(k, M.n, pattern, levels):
            return "count"
        if rel_error(values(fast), values(ref)) > tol:
            return "error"
        return None
    return op


def _swap_g(b: np.ndarray) -> np.ndarray:
    """B^g: rows swapped, then the new first row's entries swapped per column pair."""
    bg = b[::-1].copy()
    top = bg[0].reshape(-1, 2)[:, ::-1].reshape(-1)
    bg[0] = top
    return bg


def _blocked(rng: Lcg, variant: str, pairs: int):
    def op():
        a = np.array(rng.complex_vector(4)).reshape(2, 2)
        b = np.array(rng.complex_vector(4 * pairs)).reshape(2, 2 * pairs)
        A = [counting.variables(row) for row in a]
        B = [counting.variables(row) for row in b]
        ctx = counting.CountContext()
        m1, m2 = groups.blocked_simultaneous(A, B, variant, ctx)
        if ctx.bilinear_mults != 8 * pairs:
            return "count"
        b2 = b[::-1] if variant == "f" else _swap_g(b)
        got = np.array([values(r) for r in m1 + m2])
        if rel_error(got, np.vstack([a @ b, a @ b2])) > TOL:
            return "error"
        return None
    return op


def build_oracle_sweep(seed: int):
    rng = Lcg(seed)
    ops = []
    for n in range(1, 17):
        ops.append((f"circulant.n{n}", _trial(rng, "circulant", n)))
        for f in F_VALUES:
            ops.append((f"f_circulant.f{f}.n{n}", _trial(rng, "f_circulant", n, f=complex(f))))
        for f in EXTREME_F:
            ops.append((f"f_circulant.f{f}.n{n}",
                        _trial(rng, "f_circulant", n, f=complex(f), tol=WIDE_TOL)))
        ops.append((f"f_circulant.fresh.n{n}", _trial(rng, "f_circulant", n, fresh_f=True)))
        for kind in MATVEC_KINDS[1:]:
            ops.append((f"{kind}.n{n}", _trial(rng, kind, n)))
    for n in range(2, 10):
        ops.append((f"sparse.n{n}", _trial(rng, "sparse", n, sparse=True)))
    toeplitz = StructureKind.TOEPLITZ
    for n in range(1, 6):
        for k in range(1, 6):
            levels = (LevelSpec(toeplitz, n), LevelSpec(toeplitz, k))
            ops.append((f"bttb.{n}x{k}", _trial(rng, "multilevel", n * k, levels=levels,
                                                tol=WIDE_TOL)))
    for k1 in range(1, 4):
        for k2 in range(1, 4):
            for k3 in range(1, 4):
                levels = tuple(LevelSpec(toeplitz, k) for k in (k1, k2, k3))
                ops.append((f"toeplitz3.{k1}x{k2}x{k3}",
                            _trial(rng, "multilevel", k1 * k2 * k3, levels=levels,
                                   tol=WIDE_TOL)))
    for variant in ("f", "g"):
        for pairs in (1, 2, 4, 8):
            ops.append((f"blocked.{variant}.p{pairs}", _blocked(rng, variant, pairs)))
    return ops


# ---------------------------------------------------------------------------
# kernel-large: pre-built instances at n = 16 .. 48
# ---------------------------------------------------------------------------

# Every matvec kind at the largest sizes whose counts the library gets right
# today.  From n = 64 the Variable flags are summed in int8 and overflow, so
# toeplitz, hankel, tph and symmetric give wrong counts there (and circulant,
# f_circulant and triangular_toeplitz from n = 128); a benchmark op must not
# fail, so those sizes wait until the flags are counted in a wider type.
KERNEL_LARGE_CELLS = tuple(
    (kind, n) for n in (16, 32, 48)
    for kind in ("circulant", "f_circulant") + MATVEC_KINDS[1:])
KERNEL_LARGE_F = 2.0


def _matvec(M, x, want: np.ndarray, formula: int):
    def op():
        ctx = counting.CountContext()
        got = kernels.structured_matvec(M, x, ctx)
        if ctx.bilinear_mults != formula:
            return "count"
        if rel_error(values(got), want) > TOL:
            return "error"
        return None
    return op


def build_kernel_large(seed: int):
    rng = Lcg(seed)
    check_reference(rng)
    ops = []
    for kind, n in KERNEL_LARGE_CELLS:
        k = StructureKind(kind)
        f = KERNEL_LARGE_F if kind == "f_circulant" else None
        params = rng.complex_vector(structures.param_count(k, n))
        xs = rng.complex_vector(n)
        M = structures.structured(k, n, params, f=f)
        want = dense_reference(kind, n, params, f) @ np.array(xs)
        ops.append((f"{kind}.n{n}", _matvec(M, counting.variables(xs), want,
                                           kernels.formula_count(k, n))))
    return ops


# ---------------------------------------------------------------------------
# certify: the `tensor --kind K --n N` chain
# ---------------------------------------------------------------------------

# Symmetric and skew-symmetric stop at n = 16: one chain at n = 32 takes
# 6-10 s, longer than a whole run.  tph stops at n = 16 too: its chain at
# n = 32 takes 0.26 s, 40% of a round, and the fewer rounds a run holds, the
# fewer samples each op has to skip the machine's slow spells with.
CERTIFY_CELLS = tuple(
    [(kind, n) for kind in ("circulant", "toeplitz", "hankel") for n in (4, 8, 16, 32)]
    + [("tph", n) for n in (4, 8, 16)]
    + [(kind, n) for kind in ("symmetric", "skew_symmetric") for n in (4, 8, 12, 16)])


def _certify(kind: str, n: int):
    def op():
        T = tensorlab.structure_tensor(kind, n)
        D = extraction.extract_decomposition(kind, n)
        rep = tensorlab.verify_decomposition(T, D, TOL)
        ranks = tensorlab.flattening_ranks(T)
        if rep.term_count != kernels.formula_count(kind, n):
            return "count"
        if not rep.passed:
            return "error"
        if ranks[0] != structures.structure_dim(StructureKind(kind), n):
            return "rank"
        return None
    return op


def build_certify(seed: int):
    """The chain has no random input, so the seed changes nothing here."""
    return [(f"{kind}.n{n}", _certify(kind, n)) for kind, n in CERTIFY_CELLS]


# name -> (build, rounds per second of --seconds).  The rates were measured
# at the commit that defined the benchmark (2-core x86-64, Python 3.11,
# numpy 2.4, one BLAS thread); they fix the work in a run, which must not
# depend on how fast the code under test is.
WORKLOADS = {
    "oracle-sweep": (build_oracle_sweep, 7.5),
    "kernel-large": (build_kernel_large, 80.0),
    "certify": (build_certify, 3.2),
}
