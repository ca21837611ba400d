"""Counts and output flags of kernels run on mixed Constant/Variable inputs.

Every other count test feeds all-Variable parameters and inputs.  Here a
few Lcg-drawn patterns mark some parameters or inputs Constant; the
bilinear and division counts and the Variable flag of every output entry
are pinned.  A Constant operand turns a product into a scalar
multiplication, so these counts fall below the closed-form count.
"""

import pytest

from bilinear_kernels import (CountContext, LevelSpec, SparsityPattern, StructureKind,
                              naive_matvec, structured, structured_matvec)
from bilinear_kernels.counting import Kind, TrackedScalar
from bilinear_kernels.kernels import SPECS
from bilinear_kernels.rng import Lcg
from bilinear_kernels.structures import param_count

PATTERNS = 3
ORDERS = range(1, 10)


def draw_scalars(rng: Lcg, k: int, p_variable: float) -> list[TrackedScalar]:
    out = []
    for _ in range(k):
        kind = Kind.VARIABLE if rng.uniform(0.0, 1.0) < p_variable else Kind.CONSTANT
        out.append(TrackedScalar(rng.complex_uniform(), kind))
    return out


def record(kind: StructureKind, n: int, pattern: int) -> str:
    """'bilinear/divisions/flags' of one run; pattern 0 mixes the parameters
    only, 1 the inputs only, 2 both, each at its own drawn density."""
    rng = Lcg(1000 * n + 10 * pattern + list(StructureKind).index(kind))
    p_params = rng.uniform(0.0, 0.5) if pattern != 1 else 1.0
    p_inputs = rng.uniform(0.0, 0.5) if pattern != 0 else 1.0
    M = structured(kind, n, draw_scalars(rng, param_count(kind, n), p_params))
    ctx = CountContext()
    out = structured_matvec(M, draw_scalars(rng, n, p_inputs), ctx)
    flags = "".join("v" if s.is_variable else "c" for s in out)
    return f"{ctx.bilinear_mults}/{ctx.divisions}/{flags}"


# Generated with `record` before the Toeplitz-family kernels were fused, the
# symmetric and skew-symmetric rows once their kernels became pairwise; one
# entry per (n, pattern), n-major.
GOLDEN = {
    "toeplitz": [
        "0/0/v", "0/0/v", "0/0/c", "3/0/vv", "0/0/vv", "0/0/vv", "5/0/vvv", "0/0/vvv",
        "0/0/vvv", "7/0/vvvv", "0/0/vvvv", "7/0/vvvv", "9/0/vvvvv", "9/0/vvvvv",
        "9/0/vvvvv", "11/0/vvvvvv", "0/0/vvvvvv", "0/0/vvvvvv", "13/0/vvvvvvv",
        "0/0/vvvvvvv", "0/0/vvvvvvv", "15/0/vvvvvvvv", "0/0/vvvvvvvv", "0/0/vvvvvvvv",
        "17/0/vvvvvvvvv", "17/0/vvvvvvvvv", "17/0/vvvvvvvvv",
    ],
    "hankel": [
        "1/0/v", "0/0/v", "0/0/c", "0/0/vv", "3/0/vv", "0/0/vv", "0/0/vvv", "5/0/vvv",
        "0/0/vvv", "0/0/vvvv", "7/0/vvvv", "0/0/cccc", "0/0/vvvvv", "0/0/vvvvv",
        "0/0/ccccc", "11/0/vvvvvv", "11/0/vvvvvv", "0/0/vvvvvv", "13/0/vvvvvvv",
        "13/0/vvvvvvv", "0/0/vvvvvvv", "15/0/vvvvvvvv", "15/0/vvvvvvvv", "0/0/cccccccc",
        "17/0/vvvvvvvvv", "17/0/vvvvvvvvv", "0/0/vvvvvvvvv",
    ],
    "triangular_toeplitz": [
        "0/0/v", "0/0/v", "0/0/c", "3/0/vv", "3/0/vv", "0/0/cc", "0/0/vvv", "5/0/vvv",
        "0/0/vvv", "0/0/vvvv", "7/0/vvvv", "0/0/vvvv", "9/0/vvvvv", "9/0/vvvvv",
        "0/0/ccccc", "11/0/vvvvvv", "11/0/vvvvvv", "11/0/vvvvvv", "13/0/vvvvvvv",
        "13/0/vvvvvvv", "0/0/vvvvvvv", "15/0/vvvvvvvv", "15/0/vvvvvvvv",
        "15/0/vvvvvvvv", "17/0/vvvvvvvvv", "17/0/vvvvvvvvv", "0/0/vvvvvvvvv",
    ],
    "tph": [
        "1/0/v", "0/0/v", "0/0/c", "4/0/vv", "0/0/vv", "0/0/vv", "8/0/vvv", "0/0/vvv",
        "0/0/vvv", "12/0/vvvv", "12/0/vvvv", "0/0/vvvv", "16/0/vvvvv", "16/0/vvvvv",
        "16/0/vvvvv", "20/0/vvvvvv", "0/0/vvvvvv", "20/0/vvvvvv", "24/0/vvvvvvv",
        "24/0/vvvvvvv", "0/0/vvvvvvv", "28/0/vvvvvvvv", "0/0/vvvvvvvv", "28/0/vvvvvvvv",
        "32/0/vvvvvvvvv", "0/0/vvvvvvvvv", "32/0/vvvvvvvvv",
    ],
    "symmetric": [
        "0/0/v", "0/0/v", "0/0/c", "0/0/vv", "2/0/vv", "0/0/cc", "0/0/vvv", "0/0/vvv",
        "0/0/vvv", "0/0/vvvv", "4/0/vvvv", "0/0/cccc", "0/0/vvvvv", "0/0/vvvvv",
        "0/0/ccccc", "1/0/vvvvvv", "0/0/vvvvvv", "0/0/vvvvvv", "6/0/vvvvvvv",
        "7/0/vvvvvvv", "3/0/vvvvvvv", "11/0/vvvvvvvv", "21/0/vvvvvvvv",
        "0/0/vvvvvvvv", "6/0/vvvvvvvvv", "30/0/vvvvvvvvv", "0/0/ccccccccc",
    ],
    "skew_symmetric": [
        "0/0/c", "0/0/c", "0/0/c", "0/0/vv", "2/0/vv", "0/0/cv", "3/0/vvv", "3/0/vvv",
        "0/0/ccc", "5/0/vvvv", "9/0/vvvv", "0/0/vvvv", "0/0/vvvvv", "15/0/vvvvv",
        "0/0/vcvcc", "13/0/vvvvvv", "15/0/vvvvvv", "4/0/vvvvvv", "14/0/vvvvvvv",
        "18/0/vvvvvvv", "0/0/vvvvvvv", "12/0/vvvvvvvv", "21/0/vvvvvvvv",
        "6/0/vvvvvvvv", "19/0/vvvvvvvvv", "30/0/vvvvvvvvv", "4/0/vvvvvvvvv",
    ],
}


@pytest.mark.parametrize("kind", list(GOLDEN))
def test_mixed_flag_counts_are_pinned(kind):
    got = [record(StructureKind(kind), n, p) for n in ORDERS for p in range(PATTERNS)]
    assert got == GOLDEN[kind]


MULTILEVEL_KINDS = list(SPECS)


@pytest.mark.parametrize("kind", MULTILEVEL_KINDS)
@pytest.mark.parametrize("n", range(1, 6))
def test_unit_inner_level_keeps_the_single_level_count_and_flags(kind, n):
    """Levels (kind, n) and (toeplitz, 1) make the same matrix as the single
    level kind.  With one Variable parameter among Constants, both must form
    the same bilinear products and flag the same outputs: the outer level's
    maps must carry the kernel's structural support, not the nonzero
    pattern of its numbers."""
    entry = SPECS[kind]
    f = 2.0 if entry.needs_f else None
    pattern = (SparsityPattern(n, n, tuple((i, (3 * i + 1) % n) for i in range(n)))
               if entry.needs_pattern else None)
    levels = (LevelSpec(kind, n, f, pattern), LevelSpec(StructureKind.TOEPLITZ, 1))
    x = [TrackedScalar(complex(1 + k, -k), Kind.VARIABLE) for k in range(n)]
    for var in range(param_count(kind, n, pattern)):
        data = [TrackedScalar(complex(k + 1, k % 3), Kind.VARIABLE if k == var else Kind.CONSTANT)
                for k in range(param_count(kind, n, pattern))]
        runs = []
        for M in (structured(kind, n, data, f=f, pattern=pattern),
                  structured(StructureKind.MULTILEVEL, n, data, levels=levels)):
            ctx = CountContext()
            out = structured_matvec(M, x, ctx)
            runs.append((ctx.bilinear_mults, [s.is_variable for s in out]))
        assert runs[0] == runs[1], f"variable parameter {var}"


@pytest.mark.parametrize("kind", list(SPECS), ids=lambda kind: kind.value)
def test_a_variable_naive_output_is_variable_in_the_kernel(kind):
    """Mixed Constant/Variable parameters and inputs: wherever the naive
    product marks an output entry Variable, so does the kernel.  A Constant
    flag on the kernel's side would drop that entry's products from the
    count."""
    entry = SPECS[kind]
    f = 2.0 if entry.needs_f else None
    for n in ORDERS:
        pattern = (SparsityPattern(n, n, tuple((i, (3 * i + 1) % n) for i in range(n)))
                   if entry.needs_pattern else None)
        rng = Lcg(7000 + 100 * n + list(StructureKind).index(kind))
        for draw in range(2 * PATTERNS):
            p_params, p_inputs = rng.uniform(0.0, 0.6), rng.uniform(0.0, 0.6)
            M = structured(kind, n, draw_scalars(rng, param_count(kind, n, pattern), p_params),
                           f=f, pattern=pattern)
            x = draw_scalars(rng, n, p_inputs)
            fast = structured_matvec(M, x, CountContext())
            naive = naive_matvec(M, x, CountContext())
            assert all(a.is_variable for a, b in zip(fast, naive) if b.is_variable), (n, draw)
