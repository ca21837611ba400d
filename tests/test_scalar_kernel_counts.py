"""Counters and output flags of the kernels outside the structure table, pinned.

The kernels are Gauss's complex product, the 2x2 commutator, the two
simultaneous 2x2 products, their blocked forms at 1..4 column pairs, the
Toeplitz-times-dense product at n = 1..6, the D4 group-algebra product and
cu_matmul on the d4-222 preset.  Each runs on three Lcg-drawn
patterns of Constant and Variable entries: pattern 0 mixes the first
operand only, 1 the second only, 2 both, each at its own drawn density.
All four counters (bilinear, divisions, scalar, additions) and the Variable
flag of every output entry are pinned.
"""

import zlib

import pytest

from bilinear_kernels import (CountContext, blocked_simultaneous, commutator_2x2,
                              counting, cu_matmul, d4_simultaneous, dihedral8,
                              gauss_complex_mul, group_algebra_mul, toeplitz_matmul,
                              x8_simultaneous)
from bilinear_kernels.counting import Kind, TrackedScalar
from bilinear_kernels.rng import Lcg

PATTERNS = 3
D4, D4_222 = dihedral8(), ((4, 0), (6, 0), (7, 0))     # the tpp preset's subsets


def draw_scalars(rng: Lcg, k: int, p_variable: float) -> list[TrackedScalar]:
    out = []
    for _ in range(k):
        kind = Kind.VARIABLE if rng.uniform(0.0, 1.0) < p_variable else Kind.CONSTANT
        out.append(TrackedScalar(rng.complex_uniform(), kind))
    return out


def rows(scalars: list[TrackedScalar], width: int) -> list[list[TrackedScalar]]:
    return [scalars[i:i + width] for i in range(0, len(scalars), width)]


def gauss(first, second, ctx):
    return [list(gauss_complex_mul(*first, *second, ctx))]


def simultaneous(kernel):
    def run(first, second, ctx):
        m1, m2 = kernel(rows(first, 2), rows(second, len(second) // 2), ctx)
        return m1 + m2
    return run


def blocked(variant: str):
    return simultaneous(lambda A, B, ctx: blocked_simultaneous(A, B, variant, ctx))


def matmul(first, second, ctx):
    return toeplitz_matmul(first, rows(second, (len(first) + 1) // 2), ctx)


# Per case: the kernel on (first operand, second operand) as flat scalar
# lists, and the two operand sizes.
CASES = {
    "gauss": (gauss, 2, 2),
    "commutator": (lambda a, x, ctx: commutator_2x2(rows(a, 2), rows(x, 2), ctx), 4, 4),
    "d4": (simultaneous(d4_simultaneous), 4, 4),
    "x8": (simultaneous(x8_simultaneous), 4, 4),
    **{f"blocked.{variant}.{pairs}": (blocked(variant), 4, 4 * pairs)
       for variant in ("f", "g") for pairs in (1, 2, 3, 4)},
    **{f"toeplitz_matmul.{n}": (matmul, 2 * n - 1, n * n) for n in range(1, 7)},
    "group_algebra_mul": (lambda a, b, ctx: [group_algebra_mul(D4, a, b, ctx)], 8, 8),
    "cu_matmul": (lambda a, b, ctx: cu_matmul(D4, *D4_222, rows(a, 2), rows(b, 2), ctx), 4, 4),
}


def record(case: str, pattern: int) -> str:
    """'bilinear/divisions/scalar/additions/flags' of one run."""
    kernel, k1, k2 = CASES[case]
    rng = Lcg(zlib.crc32(f"{case}/{pattern}".encode()))
    p_first = rng.uniform(0.0, 0.5) if pattern != 1 else 1.0
    p_second = rng.uniform(0.0, 0.5) if pattern != 0 else 1.0
    first, second = draw_scalars(rng, k1, p_first), draw_scalars(rng, k2, p_second)
    ctx = CountContext()
    out = kernel(first, second, ctx)
    flags = "".join("v" if s.is_variable else "c" for row in out for s in row)
    return f"{ctx.bilinear_mults}/{ctx.divisions}/{ctx.scalar_mults}/{ctx.additions}/{flags}"


# Generated with `record` while each of these kernels still had its own body:
# per-pair and per-column loops, hand-placed degrees, scalar-by-scalar Gauss
# and commutator arithmetic.
GOLDEN = {
    "gauss": ["2/0/1/5/vv", "2/0/1/5/vv", "0/0/3/5/vv"],
    "commutator": ["6/0/0/5/vvvv", "0/0/6/5/vvvv", "0/0/6/5/vvvv"],
    "d4": ["8/0/120/98/vvvvvvvv", "0/0/128/98/vvvvvvvv", "6/0/122/98/vvvvvvvv"],
    "x8": ["8/0/192/168/vvvvvvvv", "0/0/200/168/vvvvvvvv", "8/0/192/168/vvvvvvvv"],
    "blocked.f.1": ["8/0/120/98/vvvvvvvv", "6/0/122/98/vvvvvvvv", "8/0/120/98/vvvvvvvv"],
    "blocked.f.2": [
        "0/0/256/196/vvvvvvvvvvvvvvvv",
        "6/0/250/196/vvvvvvvvvvvvvvvv",
        "0/0/256/196/vvccvvccvvccvvcc",
    ],
    "blocked.f.3": [
        "24/0/360/294/vvvvvvvvvvvvvvvvvvvvvvvv",
        "18/0/366/294/vvvvvvvvvvvvvvvvvvvvvvvv",
        "6/0/378/294/vvvvvvvvvvvvvvvvvvvvvvvv",
    ],
    "blocked.f.4": [
        "32/0/480/392/vvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvv",
        "14/0/498/392/vvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvv",
        "0/0/512/392/vvccvvvvvvccvvvvvvccvvvvvvccvvvv",
    ],
    "blocked.g.1": ["0/0/200/168/vvvvvvvv", "8/0/192/168/vvvvvvvv", "8/0/192/168/vvvvvvvv"],
    "blocked.g.2": [
        "0/0/400/336/vvvvvvvvvvvvvvvv",
        "16/0/384/336/vvvvvvvvvvvvvvvv",
        "16/0/384/336/vvvvvvvvvvvvvvvv",
    ],
    "blocked.g.3": [
        "24/0/576/504/vvvvvvvvvvvvvvvvvvvvvvvv",
        "24/0/576/504/vvvvvvvvvvvvvvvvvvvvvvvv",
        "0/0/600/504/vvvvvvvvvvvvvvvvvvvvvvvv",
    ],
    "blocked.g.4": [
        "0/0/800/672/vvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvv",
        "0/0/800/672/vvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvv",
        "24/0/776/672/vvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvv",
    ],
    "toeplitz_matmul.1": ["0/0/4/0/v", "0/0/4/0/v", "0/0/4/0/c"],
    "toeplitz_matmul.2": ["0/0/48/26/vvvv", "0/0/48/26/vvvv", "0/0/48/26/cvcv"],
    "toeplitz_matmul.3": [
        "0/0/180/126/vvvvvvvvv", "10/0/170/126/vvvvvvvvv", "10/0/170/126/vvvvvvvvv"
    ],
    "toeplitz_matmul.4": [
        "28/0/420/348/vvvvvvvvvvvvvvvv",
        "21/0/427/348/vvvvvvvvvvvvvvvv",
        "28/0/420/348/vvvvvvvvvvvvvvvv",
    ],
    "toeplitz_matmul.5": [
        "45/0/855/740/vvvvvvvvvvvvvvvvvvvvvvvvv",
        "36/0/864/740/vvvvvvvvvvvvvvvvvvvvvvvvv",
        "9/0/891/740/vvvvvvvvvvvvvvvvvvvvvvvvv",
    ],
    "toeplitz_matmul.6": [
        "66/0/1518/1350/vvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvv",
        "55/0/1529/1350/vvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvv",
        "33/0/1551/1350/vvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvv",
    ],
    # Generated once both ran as triples: the products, scalar
    # multiplications and flags of the scalar walk they replace, and one
    # addition per term of a coefficient's sum after its first.
    "group_algebra_mul": ["32/0/32/56/vvvvvvvv", "24/0/40/56/vvvvvvvv", "0/0/64/56/vvvvvvvv"],
    "cu_matmul": ["0/0/16/8/vvvv", "4/0/12/8/vvvv", "0/0/16/8/vvvv"],
}


@pytest.mark.parametrize("case", list(CASES))
def test_counters_and_flags_are_pinned(case):
    assert [record(case, pattern) for pattern in range(PATTERNS)] == GOLDEN[case]


@pytest.mark.parametrize("case", list(CASES))
def test_one_pointwise_product_and_three_maps(monkeypatch, case):
    """Each kernel runs its triple once: one pointwise product and three map
    applications, whatever the number of column pairs or columns."""
    calls = dict.fromkeys(("vmul", "apply_matrix"), 0)
    for name in calls:
        def counted(*args, _real=getattr(counting, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(counting, name, counted)
    record(case, 2)
    assert calls == {"vmul": 1, "apply_matrix": 3}
