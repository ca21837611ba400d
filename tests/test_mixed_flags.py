"""Counts and output flags of kernels run on mixed Constant/Variable inputs.

Every other count test feeds all-Variable parameters and inputs.  Here a
few Lcg-drawn patterns mark some parameters or inputs Constant; the
bilinear and division counts and the Variable flag of every output entry
are pinned.  A Constant operand turns a product into a scalar
multiplication, so these counts fall below the closed-form count.
"""

import pytest

from bilinear_kernels import CountContext, StructureKind, structured, structured_matvec
from bilinear_kernels.counting import Kind, TrackedScalar
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


# Generated with `record` before the Toeplitz-family kernels were fused; one
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
        "1/0/v", "0/0/v", "0/0/c", "5/0/vv", "0/0/vv", "0/0/vv", "9/0/vvv", "0/0/vvv",
        "0/0/vvv", "13/0/vvvv", "13/0/vvvv", "0/0/vvvv", "17/0/vvvvv", "17/0/vvvvv",
        "17/0/vvvvv", "21/0/vvvvvv", "0/0/vvvvvv", "21/0/vvvvvv", "25/0/vvvvvvv",
        "25/0/vvvvvvv", "0/0/vvvvvvv", "29/0/vvvvvvvv", "0/0/vvvvvvvv", "29/0/vvvvvvvv",
        "33/0/vvvvvvvvv", "0/0/vvvvvvvvv", "33/0/vvvvvvvvv",
    ],
    "symmetric": [
        "0/0/v", "0/0/v", "0/0/c", "0/0/vv", "3/0/vv", "0/0/cc", "0/0/vvv", "0/0/vvv",
        "0/0/vvv", "0/0/vvvv", "10/0/vvvv", "0/0/cccc", "0/0/vvvvv", "0/0/vvvvv",
        "0/0/ccccc", "3/0/vvvvvv", "0/0/vvvvvv", "0/0/vvvvvv", "27/0/vvvvvvv",
        "22/0/vvvvvvv", "22/0/vvvvvvv", "36/0/vvvvvvvv", "36/0/vvvvvvvv",
        "36/0/vvvvvvvv", "27/0/vvvvvvvvv", "44/0/vvvvvvvvv", "0/0/ccccccccc",
    ],
    "skew_symmetric": [
        "0/0/c", "0/0/c", "0/0/c", "0/0/vv", "2/0/vv", "0/0/vv", "5/0/vvv", "4/0/vvv",
        "0/0/ccc", "8/0/vvvv", "9/0/vvvv", "0/0/vvvv", "0/0/vvvvv", "19/0/vvvvv",
        "0/0/vvvvv", "26/0/vvvvvv", "16/0/vvvvvv", "8/0/vvvvvv", "28/0/vvvvvvv",
        "20/0/vvvvvvv", "0/0/vvvvvvv", "22/0/vvvvvvvv", "26/0/vvvvvvvv",
        "22/0/vvvvvvvv", "33/0/vvvvvvvvv", "37/0/vvvvvvvvv", "14/0/vvvvvvvvv",
    ],
}


@pytest.mark.parametrize("kind", list(GOLDEN))
def test_mixed_flag_counts_are_pinned(kind):
    got = [record(StructureKind(kind), n, p) for n in ORDERS for p in range(PATTERNS)]
    assert got == GOLDEN[kind]
