"""Counters and output flags of multilevel products on mixed inputs, pinned.

The cases are every ordered pair of level kinds at orders {1, 3} x {1, 3}
and one three-level product.  Each runs on three Lcg-drawn patterns of
Constant and Variable entries: pattern 0 mixes the parameters only, 1 the
inputs only, 2 both, each at its own drawn density.  All four counters
(bilinear, divisions, scalar, additions) and the Variable flag of every
output entry are pinned.  f-circulant levels use f = 2, sparse levels a
fixed pattern.
"""

import math
import zlib

import numpy as np
import pytest

from bilinear_kernels import (CountContext, LevelSpec, SparsityPattern, StructureKind,
                              structured, structured_matvec)
from bilinear_kernels.counting import Kind, TrackedScalar, TrackedVector
from bilinear_kernels.kernels import SPECS
from bilinear_kernels.rng import Lcg
from bilinear_kernels.structures import basis, dense_parts, param_count

PATTERNS = 3
# The level kinds the goldens below were pinned for.
LEVEL_KINDS = [kind for kind in SPECS if kind not in (StructureKind.UPPER_TRIANGULAR_TOEPLITZ,
                                                      StructureKind.SKEW_SYMMETRIC)]
CASES = [f"{a.value}:{na},{b.value}:{nb}" for a in LEVEL_KINDS for b in LEVEL_KINDS
         for na in (1, 3) for nb in (1, 3)] + ["toeplitz:2,circulant:2,symmetric:2"]


def level(text: str) -> LevelSpec:
    name, n = text.split(":")
    kind, n = StructureKind(name), int(n)
    f = 2.0 if SPECS[kind].needs_f else None
    pattern = (SparsityPattern(n, n, tuple(sorted({(i, i) for i in range(n)}
                                                  | {(i, (2 * i + 1) % n) for i in range(n)})))
               if SPECS[kind].needs_pattern else None)
    return LevelSpec(kind, n, f, pattern)


def draw_scalars(rng: Lcg, k: int, p_variable: float) -> list[TrackedScalar]:
    out = []
    for _ in range(k):
        kind = Kind.VARIABLE if rng.uniform(0.0, 1.0) < p_variable else Kind.CONSTANT
        out.append(TrackedScalar(rng.complex_uniform(), kind))
    return out


def record(case: str, pattern: int) -> str:
    """'bilinear/divisions/scalar/additions/flags' of one run."""
    levels = tuple(level(text) for text in case.split(","))
    rng = Lcg(zlib.crc32(f"{case}/{pattern}".encode()))
    p_params = rng.uniform(0.0, 0.5) if pattern != 1 else 1.0
    p_inputs = rng.uniform(0.0, 0.5) if pattern != 0 else 1.0
    n = math.prod(lev.n for lev in levels)
    count = param_count(StructureKind.MULTILEVEL, n, levels=levels)
    M = structured(StructureKind.MULTILEVEL, n, draw_scalars(rng, count, p_params),
                   levels=levels)
    ctx = CountContext()
    out = structured_matvec(M, draw_scalars(rng, n, p_inputs), ctx)
    flags = "".join("v" if s.is_variable else "c" for s in out)
    return f"{ctx.bilinear_mults}/{ctx.divisions}/{ctx.scalar_mults}/{ctx.additions}/{flags}"


# Generated with `record` while the multilevel kernel still ran the outer
# level over block scalars, one nested product per outer product.
GOLDEN = {
    "circulant:1,circulant:1": ["0/0/7/0/v", "0/0/7/0/v", "0/0/7/0/v"],
    "circulant:1,circulant:3": ["0/0/39/18/vvv", "0/0/39/18/vvv", "0/0/39/18/vvv"],
    "circulant:3,circulant:1": ["0/0/39/18/vvv", "3/0/36/18/vvv", "0/0/39/18/vvv"],
    "circulant:3,circulant:3": [
        "9/0/162/108/vvvvvvvvv", "9/0/162/108/vvvvvvvvv", "9/0/162/108/vvvvvvvvv"
    ],
    "circulant:1,f_circulant:1": ["1/0/6/0/v", "1/0/6/0/v", "0/0/7/0/c"],
    "circulant:1,f_circulant:3": ["0/0/39/18/vvv", "0/0/39/18/vvv", "0/0/39/18/vvv"],
    "circulant:3,f_circulant:1": ["0/0/39/18/vvv", "0/0/39/18/vvv", "3/0/36/18/vvv"],
    "circulant:3,f_circulant:3": [
        "9/0/162/108/vvvvvvvvv", "9/0/162/108/vvvvvvvvv", "9/0/162/108/vvvvvvvvv"
    ],
    "circulant:1,toeplitz:1": ["0/0/7/0/v", "0/0/7/0/v", "0/0/7/0/c"],
    "circulant:1,toeplitz:3": ["0/0/71/42/vvv", "0/0/71/42/vvv", "0/0/71/42/ccc"],
    "circulant:3,toeplitz:1": ["3/0/36/18/vvv", "0/0/39/18/vvv", "0/0/39/18/ccc"],
    "circulant:3,toeplitz:3": [
        "15/0/264/192/vvvvvvvvv", "15/0/264/192/vvvvvvvvv", "0/0/279/192/vvvvvvvvv"
    ],
    "circulant:1,hankel:1": ["0/0/7/0/v", "0/0/7/0/v", "0/0/7/0/v"],
    "circulant:1,hankel:3": ["5/0/66/42/vvv", "0/0/71/42/vvv", "0/0/71/42/vvv"],
    "circulant:3,hankel:1": ["3/0/36/18/vvv", "0/0/39/18/vvv", "3/0/36/18/vvv"],
    "circulant:3,hankel:3": [
        "15/0/264/192/vvvvvvvvv", "15/0/264/192/vvvvvvvvv", "15/0/264/192/vvvvvvvvv"
    ],
    "circulant:1,tph:1": ["1/0/9/3/v", "0/0/10/3/v", "0/0/10/3/c"],
    "circulant:1,tph:3": ["8/0/115/101/vvv", "0/0/123/101/vvv", "0/0/123/101/vvv"],
    "circulant:3,tph:1": ["3/0/51/33/vvv", "3/0/51/33/vvv", "3/0/51/33/vvv"],
    "circulant:3,tph:3": [
        "0/0/465/399/vvvvvvvvv", "24/0/441/399/vvvvvvvvv", "24/0/441/399/vvvvvvvvv"
    ],
    "circulant:1,symmetric:1": ["0/0/4/0/v", "0/0/4/0/v", "0/0/4/0/c"],
    "circulant:1,symmetric:3": ["0/0/18/15/vvv", "0/0/18/15/vvv", "0/0/18/15/vvv"],
    "circulant:3,symmetric:1": ["3/0/27/18/vvv", "3/0/27/18/vvv", "0/0/30/18/vvv"],
    "circulant:3,symmetric:3": [
        "15/0/111/117/vvvvvvvvv", "0/0/126/117/vvvvvvvvv", "0/0/126/117/vvvvvvvvv"
    ],
    "circulant:1,sparse:1": ["1/0/3/0/v", "0/0/4/0/v", "0/0/4/0/v"],
    "circulant:1,sparse:3": ["2/0/14/2/vvv", "0/0/16/2/vvv", "0/0/16/2/vvv"],
    "circulant:3,sparse:1": ["3/0/27/18/vvv", "0/0/30/18/vvv", "3/0/27/18/vvv"],
    "circulant:3,sparse:3": [
        "3/0/111/72/vvvvvvvvv", "9/0/105/72/vvvvvvvvv", "0/0/114/72/cvvcvvcvv"
    ],
    "f_circulant:1,circulant:1": ["0/0/7/0/v", "0/0/7/0/v", "0/0/7/0/c"],
    "f_circulant:1,circulant:3": ["0/0/39/18/vvv", "0/0/39/18/vvv", "3/0/36/18/vvv"],
    "f_circulant:3,circulant:1": ["3/0/36/18/vvv", "3/0/36/18/vvv", "0/0/39/18/vvv"],
    "f_circulant:3,circulant:3": [
        "9/0/162/108/vvvvvvvvv", "9/0/162/108/vvvvvvvvv", "0/0/171/108/ccccccccc"
    ],
    "f_circulant:1,f_circulant:1": ["0/0/7/0/v", "0/0/7/0/v", "0/0/7/0/c"],
    "f_circulant:1,f_circulant:3": ["0/0/39/18/vvv", "3/0/36/18/vvv", "3/0/36/18/vvv"],
    "f_circulant:3,f_circulant:1": ["0/0/39/18/vvv", "0/0/39/18/vvv", "0/0/39/18/vvv"],
    "f_circulant:3,f_circulant:3": [
        "9/0/162/108/vvvvvvvvv", "9/0/162/108/vvvvvvvvv", "9/0/162/108/vvvvvvvvv"
    ],
    "f_circulant:1,toeplitz:1": ["0/0/7/0/v", "0/0/7/0/v", "0/0/7/0/c"],
    "f_circulant:1,toeplitz:3": ["0/0/71/42/vvv", "5/0/66/42/vvv", "0/0/71/42/vvv"],
    "f_circulant:3,toeplitz:1": ["0/0/39/18/vvv", "0/0/39/18/vvv", "3/0/36/18/vvv"],
    "f_circulant:3,toeplitz:3": [
        "15/0/264/192/vvvvvvvvv", "0/0/279/192/vvvvvvvvv", "15/0/264/192/vvvvvvvvv"
    ],
    "f_circulant:1,hankel:1": ["0/0/7/0/v", "1/0/6/0/v", "0/0/7/0/v"],
    "f_circulant:1,hankel:3": ["5/0/66/42/vvv", "5/0/66/42/vvv", "0/0/71/42/ccc"],
    "f_circulant:3,hankel:1": ["3/0/36/18/vvv", "3/0/36/18/vvv", "0/0/39/18/vvv"],
    "f_circulant:3,hankel:3": [
        "15/0/264/192/vvvvvvvvv", "15/0/264/192/vvvvvvvvv", "15/0/264/192/vvvvvvvvv"
    ],
    "f_circulant:1,tph:1": ["1/0/9/3/v", "0/0/10/3/v", "0/0/10/3/v"],
    "f_circulant:1,tph:3": ["8/0/115/101/vvv", "8/0/115/101/vvv", "8/0/115/101/vvv"],
    "f_circulant:3,tph:1": ["3/0/51/33/vvv", "3/0/51/33/vvv", "0/0/54/33/vvv"],
    "f_circulant:3,tph:3": [
        "24/0/441/399/vvvvvvvvv", "24/0/441/399/vvvvvvvvv", "24/0/441/399/vvvvvvvvv"
    ],
    "f_circulant:1,symmetric:1": ["1/0/3/0/v", "0/0/4/0/v", "0/0/4/0/v"],
    "f_circulant:1,symmetric:3": ["5/0/13/15/vvv", "0/0/18/15/vvv", "0/0/18/15/vvv"],
    "f_circulant:3,symmetric:1": ["3/0/27/18/vvv", "0/0/30/18/vvv", "0/0/30/18/vvv"],
    "f_circulant:3,symmetric:3": [
        "15/0/111/117/vvvvvvvvv", "9/0/117/117/vvvvvvvvv", "12/0/114/117/vvvvvvvvv"
    ],
    "f_circulant:1,sparse:1": ["1/0/3/0/v", "0/0/4/0/v", "0/0/4/0/v"],
    "f_circulant:1,sparse:3": ["0/0/16/2/vvv", "0/0/16/2/vvv", "0/0/16/2/cvc"],
    "f_circulant:3,sparse:1": ["3/0/27/18/vvv", "3/0/27/18/vvv", "0/0/30/18/vvv"],
    "f_circulant:3,sparse:3": [
        "0/0/114/72/vvvvvvvvv", "9/0/105/72/vvvvvvvvv", "0/0/114/72/vvvvvvvvv"
    ],
    "toeplitz:1,circulant:1": ["0/0/7/0/v", "0/0/7/0/v", "0/0/7/0/v"],
    "toeplitz:1,circulant:3": ["3/0/36/18/vvv", "3/0/36/18/vvv", "3/0/36/18/vvv"],
    "toeplitz:3,circulant:1": ["5/0/70/42/vvv", "0/0/75/42/vvv", "0/0/75/42/vvv"],
    "toeplitz:3,circulant:3": [
        "15/0/300/216/vvvvvvvvv", "15/0/300/216/vvvvvvvvv", "0/0/315/216/vvvvvvvvv"
    ],
    "toeplitz:1,f_circulant:1": ["0/0/7/0/v", "0/0/7/0/v", "0/0/7/0/v"],
    "toeplitz:1,f_circulant:3": ["3/0/36/18/vvv", "0/0/39/18/vvv", "3/0/36/18/vvv"],
    "toeplitz:3,f_circulant:1": ["0/0/75/42/vvv", "0/0/75/42/vvv", "0/0/75/42/ccc"],
    "toeplitz:3,f_circulant:3": [
        "15/0/300/216/vvvvvvvvv", "0/0/315/216/vvvvvvvvv", "15/0/300/216/vvvvvvvvv"
    ],
    "toeplitz:1,toeplitz:1": ["0/0/7/0/v", "1/0/6/0/v", "0/0/7/0/c"],
    "toeplitz:1,toeplitz:3": ["5/0/66/42/vvv", "0/0/71/42/vvv", "0/0/71/42/vvv"],
    "toeplitz:3,toeplitz:1": ["0/0/75/42/vvv", "5/0/70/42/vvv", "5/0/70/42/vvv"],
    "toeplitz:3,toeplitz:3": [
        "25/0/490/376/vvvvvvvvv", "25/0/490/376/vvvvvvvvv", "25/0/490/376/vvvvvvvvv"
    ],
    "toeplitz:1,hankel:1": ["0/0/7/0/v", "0/0/7/0/v", "1/0/6/0/v"],
    "toeplitz:1,hankel:3": ["0/0/71/42/vvv", "5/0/66/42/vvv", "0/0/71/42/vvv"],
    "toeplitz:3,hankel:1": ["5/0/70/42/vvv", "5/0/70/42/vvv", "5/0/70/42/vvv"],
    "toeplitz:3,hankel:3": [
        "25/0/490/376/vvvvvvvvv", "25/0/490/376/vvvvvvvvv", "25/0/490/376/vvvvvvvvv"
    ],
    "toeplitz:1,tph:1": ["0/0/10/3/v", "0/0/10/3/v", "0/0/10/3/c"],
    "toeplitz:1,tph:3": ["0/0/123/101/vvv", "8/0/115/101/vvv", "8/0/115/101/vvv"],
    "toeplitz:3,tph:1": ["5/0/105/77/vvv", "5/0/105/77/vvv", "5/0/105/77/vvv"],
    "toeplitz:3,tph:3": [
        "40/0/835/771/vvvvvvvvv", "40/0/835/771/vvvvvvvvv", "40/0/835/771/vvvvvvvvv"
    ],
    "toeplitz:1,symmetric:1": ["0/0/4/0/v", "0/0/4/0/v", "1/0/3/0/v"],
    "toeplitz:1,symmetric:3": ["3/0/15/15/vvv", "3/0/15/15/vvv", "0/0/18/15/vvv"],
    "toeplitz:3,symmetric:1": ["5/0/55/42/vvv", "5/0/55/42/vvv", "5/0/55/42/vvv"],
    "toeplitz:3,symmetric:3": [
        "30/0/240/261/vvvvvvvvv", "25/0/245/261/vvvvvvvvv", "25/0/245/261/vvvvvvvvv"
    ],
    "toeplitz:1,sparse:1": ["0/0/4/0/v", "0/0/4/0/v", "0/0/4/0/c"],
    "toeplitz:1,sparse:3": ["1/0/15/2/vvv", "0/0/16/2/vvv", "0/0/16/2/ccc"],
    "toeplitz:3,sparse:1": ["5/0/55/42/vvv", "5/0/55/42/vvv", "0/0/60/42/vvv"],
    "toeplitz:3,sparse:3": [
        "20/0/220/176/vvvvvvvvv", "15/0/225/176/vvvvvvvvv", "20/0/220/176/vvvvvvvvv"
    ],
    "hankel:1,circulant:1": ["1/0/6/0/v", "0/0/7/0/v", "0/0/7/0/c"],
    "hankel:1,circulant:3": ["3/0/36/18/vvv", "0/0/39/18/vvv", "3/0/36/18/vvv"],
    "hankel:3,circulant:1": ["5/0/70/42/vvv", "0/0/75/42/vvv", "0/0/75/42/vvv"],
    "hankel:3,circulant:3": [
        "15/0/300/216/vvvvvvvvv", "15/0/300/216/vvvvvvvvv", "15/0/300/216/vvvvvvvvv"
    ],
    "hankel:1,f_circulant:1": ["0/0/7/0/v", "1/0/6/0/v", "0/0/7/0/c"],
    "hankel:1,f_circulant:3": ["3/0/36/18/vvv", "0/0/39/18/vvv", "0/0/39/18/vvv"],
    "hankel:3,f_circulant:1": ["0/0/75/42/vvv", "0/0/75/42/vvv", "0/0/75/42/vvv"],
    "hankel:3,f_circulant:3": [
        "15/0/300/216/vvvvvvvvv", "15/0/300/216/vvvvvvvvv", "15/0/300/216/vvvvvvvvv"
    ],
    "hankel:1,toeplitz:1": ["0/0/7/0/v", "0/0/7/0/v", "0/0/7/0/c"],
    "hankel:1,toeplitz:3": ["0/0/71/42/vvv", "5/0/66/42/vvv", "0/0/71/42/vvv"],
    "hankel:3,toeplitz:1": ["5/0/70/42/vvv", "5/0/70/42/vvv", "5/0/70/42/vvv"],
    "hankel:3,toeplitz:3": [
        "25/0/490/376/vvvvvvvvv", "0/0/515/376/vvvvvvvvv", "25/0/490/376/vvvvvvvvv"
    ],
    "hankel:1,hankel:1": ["1/0/6/0/v", "0/0/7/0/v", "0/0/7/0/c"],
    "hankel:1,hankel:3": ["5/0/66/42/vvv", "0/0/71/42/vvv", "0/0/71/42/ccc"],
    "hankel:3,hankel:1": ["5/0/70/42/vvv", "5/0/70/42/vvv", "5/0/70/42/vvv"],
    "hankel:3,hankel:3": [
        "25/0/490/376/vvvvvvvvv", "25/0/490/376/vvvvvvvvv", "25/0/490/376/vvvvvvvvv"
    ],
    "hankel:1,tph:1": ["1/0/9/3/v", "1/0/9/3/v", "0/0/10/3/v"],
    "hankel:1,tph:3": ["0/0/123/101/vvv", "0/0/123/101/vvv", "8/0/115/101/vvv"],
    "hankel:3,tph:1": ["5/0/105/77/vvv", "5/0/105/77/vvv", "0/0/110/77/vvv"],
    "hankel:3,tph:3": [
        "40/0/835/771/vvvvvvvvv", "40/0/835/771/vvvvvvvvv", "40/0/835/771/vvvvvvvvv"
    ],
    "hankel:1,symmetric:1": ["0/0/4/0/v", "0/0/4/0/v", "0/0/4/0/c"],
    "hankel:1,symmetric:3": ["3/0/15/15/vvv", "0/0/18/15/vvv", "0/0/18/15/vvv"],
    "hankel:3,symmetric:1": ["5/0/55/42/vvv", "0/0/60/42/vvv", "5/0/55/42/vvv"],
    "hankel:3,symmetric:3": [
        "25/0/245/261/vvvvvvvvv", "25/0/245/261/vvvvvvvvv", "10/0/260/261/vvvvvvvvv"
    ],
    "hankel:1,sparse:1": ["0/0/4/0/v", "1/0/3/0/v", "0/0/4/0/c"],
    "hankel:1,sparse:3": ["0/0/16/2/vvv", "0/0/16/2/vvv", "0/0/16/2/vvv"],
    "hankel:3,sparse:1": ["5/0/55/42/vvv", "0/0/60/42/vvv", "5/0/55/42/vvv"],
    "hankel:3,sparse:3": [
        "0/0/240/176/vvvvvvvvv", "0/0/240/176/vvvvvvvvv", "0/0/240/176/ccccccccc"
    ],
    "tph:1,circulant:1": ["1/0/8/3/v", "0/0/9/3/v", "1/0/8/3/v"],
    "tph:1,circulant:3": ["0/0/45/27/vvv", "3/0/42/27/vvv", "0/0/45/27/ccc"],
    "tph:3,circulant:1": ["8/0/123/101/vvv", "0/0/131/101/vvv", "0/0/131/101/ccc"],
    "tph:3,circulant:3": [
        "24/0/513/447/vvvvvvvvv", "0/0/537/447/vvvvvvvvv", "24/0/513/447/vvvvvvvvv"
    ],
    "tph:1,f_circulant:1": ["1/0/8/3/v", "0/0/9/3/v", "0/0/9/3/c"],
    "tph:1,f_circulant:3": ["3/0/42/27/vvv", "3/0/42/27/vvv", "0/0/45/27/ccc"],
    "tph:3,f_circulant:1": ["8/0/123/101/vvv", "0/0/131/101/vvv", "8/0/123/101/vvv"],
    "tph:3,f_circulant:3": [
        "24/0/513/447/vvvvvvvvv", "24/0/513/447/vvvvvvvvv", "24/0/513/447/vvvvvvvvv"
    ],
    "tph:1,toeplitz:1": ["1/0/8/3/v", "0/0/9/3/v", "0/0/9/3/v"],
    "tph:1,toeplitz:3": ["5/0/76/57/vvv", "5/0/76/57/vvv", "5/0/76/57/vvv"],
    "tph:3,toeplitz:1": ["8/0/123/101/vvv", "8/0/123/101/vvv", "0/0/131/101/vvv"],
    "tph:3,toeplitz:3": [
        "40/0/857/779/vvvvvvvvv", "0/0/897/779/vvvvvvvvv", "40/0/857/779/vvvvvvvvv"
    ],
    "tph:1,hankel:1": ["1/0/8/3/v", "1/0/8/3/v", "0/0/9/3/c"],
    "tph:1,hankel:3": ["5/0/76/57/vvv", "5/0/76/57/vvv", "0/0/81/57/vvv"],
    "tph:3,hankel:1": ["8/0/123/101/vvv", "0/0/131/101/vvv", "8/0/123/101/vvv"],
    "tph:3,hankel:3": ["40/0/857/779/vvvvvvvvv", "40/0/857/779/vvvvvvvvv", "0/0/897/779/vvvvvvvvv"],
    "tph:1,tph:1": ["0/0/14/9/v", "0/0/14/9/v", "0/0/14/9/v"],
    "tph:1,tph:3": ["8/0/135/131/vvv", "8/0/135/131/vvv", "8/0/135/131/vvv"],
    "tph:3,tph:1": ["8/0/199/195/vvv", "8/0/199/195/vvv", "8/0/199/195/vvv"],
    "tph:3,tph:3": [
        "64/0/1509/1601/vvvvvvvvv", "64/0/1509/1601/vvvvvvvvv", "64/0/1509/1601/vvvvvvvvv"
    ],
    "tph:1,symmetric:1": ["0/0/6/3/v", "1/0/5/3/v", "0/0/6/3/v"],
    "tph:1,symmetric:3": ["6/0/24/33/vvv", "0/0/30/33/vvv", "0/0/30/33/vvv"],
    "tph:3,symmetric:1": ["8/0/99/101/vvv", "8/0/99/101/vvv", "8/0/99/101/vvv"],
    "tph:3,symmetric:3": [
        "40/0/485/633/vvvvvvvvv", "24/0/501/633/vvvvvvvvv", "16/0/509/633/vvvvvvvvv"
    ],
    "tph:1,sparse:1": ["0/0/6/3/v", "0/0/6/3/v", "0/0/6/3/c"],
    "tph:1,sparse:3": ["3/0/23/17/vvv", "1/0/25/17/vvv", "1/0/25/17/vvc"],
    "tph:3,sparse:1": ["8/0/99/101/vvv", "8/0/99/101/vvv", "8/0/99/101/vvv"],
    "tph:3,sparse:3": ["40/0/417/459/vvvvvvvvv", "0/0/457/459/vvvvvvvvv", "0/0/457/459/vvcvvcvvc"],
    "symmetric:1,circulant:1": ["0/0/4/0/v", "0/0/4/0/v", "0/0/4/0/v"],
    "symmetric:1,circulant:3": ["0/0/30/18/vvv", "3/0/27/18/vvv", "0/0/30/18/vvv"],
    "symmetric:3,circulant:1": ["0/0/24/15/vvv", "0/0/24/15/vvv", "0/0/24/15/vcc"],
    "symmetric:3,circulant:3": [
        "3/0/177/153/vvvvvvvvv", "9/0/171/153/vvvvvvvvv", "0/0/180/153/vvvvvvvvv"
    ],
    "symmetric:1,f_circulant:1": ["0/0/4/0/v", "0/0/4/0/v", "0/0/4/0/c"],
    "symmetric:1,f_circulant:3": ["0/0/30/18/vvv", "3/0/27/18/vvv", "0/0/30/18/vvv"],
    "symmetric:3,f_circulant:1": ["3/0/21/15/vvv", "0/0/24/15/vvv", "0/0/24/15/ccc"],
    "symmetric:3,f_circulant:3": [
        "9/0/171/153/vvvvvvvvv", "0/0/180/153/vvvvvvvvv", "12/0/168/153/vvvvvvvvv"
    ],
    "symmetric:1,toeplitz:1": ["1/0/3/0/v", "1/0/3/0/v", "1/0/3/0/v"],
    "symmetric:1,toeplitz:3": ["5/0/55/42/vvv", "0/0/60/42/vvv", "5/0/55/42/vvv"],
    "symmetric:3,toeplitz:1": ["0/0/24/15/vvv", "5/0/19/15/vvv", "0/0/24/15/cvc"],
    "symmetric:3,toeplitz:3": [
        "30/0/330/309/vvvvvvvvv", "25/0/335/309/vvvvvvvvv", "25/0/335/309/vvvvvvvvv"
    ],
    "symmetric:1,hankel:1": ["0/0/4/0/v", "0/0/4/0/v", "0/0/4/0/c"],
    "symmetric:1,hankel:3": ["5/0/55/42/vvv", "0/0/60/42/vvv", "5/0/55/42/vvv"],
    "symmetric:3,hankel:1": ["5/0/19/15/vvv", "3/0/21/15/vvv", "0/0/24/15/vcc"],
    "symmetric:3,hankel:3": [
        "25/0/335/309/vvvvvvvvv", "25/0/335/309/vvvvvvvvv", "10/0/350/309/vvvvvvvvv"
    ],
    "symmetric:1,tph:1": ["1/0/5/3/v", "0/0/6/3/v", "0/0/6/3/v"],
    "symmetric:1,tph:3": ["8/0/99/101/vvv", "8/0/99/101/vvv", "0/0/107/101/vvv"],
    "symmetric:3,tph:1": ["3/0/33/39/vvv", "0/0/36/39/vvv", "0/0/36/39/ccc"],
    "symmetric:3,tph:3": [
        "40/0/602/693/vvvvvvvvv", "48/0/594/693/vvvvvvvvv", "32/0/610/693/vvvvvvvvv"
    ],
    "symmetric:1,symmetric:1": ["1/0/0/0/v", "0/0/1/0/v", "0/0/1/0/c"],
    "symmetric:1,symmetric:3": ["5/0/1/15/vvv", "0/0/6/15/vvv", "0/0/6/15/ccc"],
    "symmetric:3,symmetric:1": ["3/0/3/15/vvv", "3/0/3/15/vvv", "0/0/6/15/vvv"],
    "symmetric:3,symmetric:3": [
        "32/0/4/153/vvvvvvvvv", "9/0/27/153/vvvvvvvvv", "4/0/32/153/vvvvvvvvv"
    ],
    "symmetric:1,sparse:1": ["0/0/1/0/v", "0/0/1/0/v", "0/0/1/0/v"],
    "symmetric:1,sparse:3": ["3/0/2/2/vvv", "1/0/4/2/vvv", "0/0/5/2/vvv"],
    "symmetric:3,sparse:1": ["0/0/6/15/vvv", "3/0/3/15/vvv", "4/0/2/15/vvv"],
    "symmetric:3,sparse:3": [
        "0/0/30/69/vvvvvvvvv", "25/0/5/69/vvvvvvvvv", "1/0/29/69/vvvvcvvvv"
    ],
    "sparse:1,circulant:1": ["0/0/4/0/v", "0/0/4/0/v", "0/0/4/0/v"],
    "sparse:1,circulant:3": ["0/0/30/18/vvv", "3/0/27/18/vvv", "0/0/30/18/vvv"],
    "sparse:3,circulant:1": ["2/0/18/2/vvv", "3/0/17/2/vvv", "0/0/20/2/vvc"],
    "sparse:3,circulant:3": [
        "12/0/138/96/vvvvvvvvv", "15/0/135/96/vvvvvvvvv", "0/0/150/96/vvvvvvvvv"
    ],
    "sparse:1,f_circulant:1": ["0/0/4/0/v", "0/0/4/0/v", "0/0/4/0/c"],
    "sparse:1,f_circulant:3": ["0/0/30/18/vvv", "3/0/27/18/vvv", "0/0/30/18/ccc"],
    "sparse:3,f_circulant:1": ["4/0/16/2/vvv", "0/0/20/2/vvv", "0/0/20/2/ccc"],
    "sparse:3,f_circulant:3": [
        "9/0/141/96/vvvvvvvvv", "3/0/147/96/vvvvvvvvv", "9/0/141/96/vvvvvvvvv"
    ],
    "sparse:1,toeplitz:1": ["0/0/4/0/v", "0/0/4/0/v", "0/0/4/0/v"],
    "sparse:1,toeplitz:3": ["5/0/55/42/vvv", "0/0/60/42/vvv", "0/0/60/42/vvv"],
    "sparse:3,toeplitz:1": ["3/0/17/2/vvv", "1/0/19/2/vvv", "3/0/17/2/vvv"],
    "sparse:3,toeplitz:3": [
        "10/0/290/216/vvvvvvvvv", "0/0/300/216/vvvvvvvvv", "5/0/295/216/vvvvvvvvv"
    ],
    "sparse:1,hankel:1": ["1/0/3/0/v", "0/0/4/0/v", "0/0/4/0/v"],
    "sparse:1,hankel:3": ["5/0/55/42/vvv", "5/0/55/42/vvv", "0/0/60/42/vvv"],
    "sparse:3,hankel:1": ["3/0/17/2/vvv", "0/0/20/2/vvv", "0/0/20/2/vvv"],
    "sparse:3,hankel:3": [
        "5/0/295/216/vvvvvvvvv", "20/0/280/216/vvvvvvvvv", "20/0/280/216/vvvvvvvvv"
    ],
    "sparse:1,tph:1": ["0/0/6/3/v", "0/0/6/3/v", "0/0/6/3/v"],
    "sparse:1,tph:3": ["8/0/99/101/vvv", "8/0/99/101/vvv", "0/0/107/101/vvv"],
    "sparse:3,tph:1": ["2/0/28/17/vvv", "0/0/30/17/vvv", "0/0/30/17/vvc"],
    "sparse:3,tph:3": ["40/0/495/511/vvvvvvvvv", "16/0/519/511/vvvvvvvvv", "0/0/535/511/vvvcccvvv"],
    "sparse:1,symmetric:1": ["0/0/1/0/v", "0/0/1/0/v", "0/0/1/0/v"],
    "sparse:1,symmetric:3": ["0/0/6/15/vvv", "3/0/3/15/vvv", "0/0/6/15/vvv"],
    "sparse:3,symmetric:1": ["0/0/5/2/vvv", "3/0/2/2/vvv", "0/0/5/2/vvv"],
    "sparse:3,symmetric:3": [
        "14/0/16/81/vvvvvvvvv", "6/0/24/81/vvvvvvvvv", "0/0/30/81/vvvvvvvvv"
    ],
    "sparse:1,sparse:1": ["0/0/1/0/v", "1/0/0/0/v", "0/0/1/0/v"],
    "sparse:1,sparse:3": ["2/0/3/2/vvv", "0/0/5/2/vvv", "0/0/5/2/vvv"],
    "sparse:3,sparse:1": ["0/0/5/2/vvv", "0/0/5/2/vvv", "1/0/4/2/vvv"],
    "sparse:3,sparse:3": ["14/0/11/16/vvvvvvvvv", "6/0/19/16/vvvvvvvvv", "2/0/23/16/vvvvvvvvc"],
    "toeplitz:2,circulant:2,symmetric:2": [
        "18/0/186/136/vvvvvvvv", "0/0/204/136/vvvvvvvv", "12/0/192/136/vvvvvvvv"
    ],
}


@pytest.mark.parametrize("case", CASES)
def test_multilevel_counters_and_flags_are_pinned(case):
    assert [record(case, p) for p in range(PATTERNS)] == GOLDEN[case]


@pytest.mark.parametrize("kind", LEVEL_KINDS)
@pytest.mark.parametrize("n", range(1, 7))
def test_a_single_level_matrix_runs_as_its_one_level(kind, n):
    """The single-level matrix and the one-level multilevel matrix on the same
    data give the same counters, flags and value bytes, first and warm."""
    lev = level(f"{kind.value}:{n}")
    rng = Lcg(zlib.crc32(f"one-level/{kind.value}/{n}".encode()))
    data = draw_scalars(rng, param_count(kind, n, lev.pattern), 0.7)
    x = TrackedVector(np.array(rng.complex_vector(n)), np.arange(n) % 3 != 1)
    single = structured(kind, n, data, f=lev.f, pattern=lev.pattern)
    assert single.levels == (lev,)
    one_level = structured(StructureKind.MULTILEVEL, n, data, levels=(lev,))

    def runs(M):
        out = []
        for _ in range(3):
            ctx = CountContext()
            y = structured_matvec(M, x, ctx)
            out.append(((ctx.bilinear_mults, ctx.divisions, ctx.scalar_mults, ctx.additions),
                        y.variable.tobytes(), y.values.tobytes()))
        return out

    assert runs(single) == runs(one_level)


# Symmetric and skew-symmetric levels at orders 4, 5 and 6, both in either
# place: each has several pairs per row, at an even and at an odd order, so
# a change to the pairwise layout that mishandles either shows here.
PAIRWISE_CASES = [f"{a}:{na},{b}:{nb}" for a, b in (("symmetric", "skew_symmetric"),
                                                     ("skew_symmetric", "symmetric"))
                  for na in (4, 5, 6) for nb in (4, 5, 6)]


def pairwise_record(case: str, mixed: bool) -> tuple[str, np.ndarray, np.ndarray]:
    """'bilinear/divisions/scalar/additions/flags' of one run, its values
    and the dense Kronecker product of the levels' parameter matrices."""
    levels = tuple(level(text) for text in case.split(","))
    rng = np.random.default_rng(zlib.crc32(f"{case}/{mixed}".encode()))
    n = math.prod(lev.n for lev in levels)
    count = param_count(StructureKind.MULTILEVEL, n, levels=levels)
    t = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    flags = (rng.random(count) < 0.7, rng.random(n) < 0.7) if mixed else (None, None)
    M = structured(StructureKind.MULTILEVEL, n, TrackedVector(t, flags[0]), levels=levels)
    ctx = CountContext()
    out = structured_matvec(M, TrackedVector(x, flags[1]), ctx)
    bases = [np.array([dense(B) for B in basis(lev.kind, lev.n)]) for lev in levels]
    A = np.einsum("ab,aij,bkl->ikjl", t.reshape(len(bases[0]), -1), *bases).reshape(n, n)
    flags = "".join("v" if f else "c" for f in out.variable)
    return (f"{ctx.bilinear_mults}/{ctx.divisions}/{ctx.scalar_mults}/{ctx.additions}/{flags}",
            out.values, A @ x)


def dense(M) -> np.ndarray:
    return dense_parts(M)[0]


# Pinned on these inputs with the row-major pairwise layout, (all-Variable,
# mixed flags); the counters do not depend on how the products are laid out.
PAIRWISE_GOLDEN = {
    "symmetric:4,skew_symmetric:4": [
        "100/0/0/404/vvvvvvvvvvvvvvvv",
        "77/0/23/404/vvvvvvvvvvvvvvvv",
    ],
    "symmetric:4,skew_symmetric:5": [
        "150/0/0/660/vvvvvvvvvvvvvvvvvvvv",
        "115/0/35/660/vvvvvvvvvvvvvvvvvvvv",
    ],
    "symmetric:4,skew_symmetric:6": [
        "210/0/0/978/vvvvvvvvvvvvvvvvvvvvvvvv",
        "169/0/41/978/vvvvvvvvvvvvvvvvvvvvvvvv",
    ],
    "symmetric:5,skew_symmetric:4": [
        "150/0/0/630/vvvvvvvvvvvvvvvvvvvv",
        "76/0/74/630/vvvvvvvvvvvvvvvvvvvv",
    ],
    "symmetric:5,skew_symmetric:5": [
        "225/0/0/1025/vvvvvvvvvvvvvvvvvvvvvvvvv",
        "153/0/72/1025/vvvvvvvvvvvvvvvvvvvvvvvvv",
    ],
    "symmetric:5,skew_symmetric:6": [
        "315/0/0/1515/vvvvvvvvvvvvvvvvvvvvvvvvvvvvvv",
        "254/0/61/1515/vvvvvvvvvvvvvvvvvvvvvvvvvvvvvv",
    ],
    "symmetric:6,skew_symmetric:4": [
        "210/0/0/906/vvvvvvvvvvvvvvvvvvvvvvvv",
        "133/0/77/906/vvvvvvvvvvvvvvvvvvvvvvvv",
    ],
    "symmetric:6,skew_symmetric:5": [
        "315/0/0/1470/vvvvvvvvvvvvvvvvvvvvvvvvvvvvvv",
        "241/0/74/1470/vvvvvvvvvvvvvvvvvvvvvvvvvvvvvv",
    ],
    "symmetric:6,skew_symmetric:6": [
        "441/0/0/2169/vvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvv",
        "317/0/124/2169/vvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvv",
    ],
    "skew_symmetric:4,symmetric:4": [
        "100/0/0/452/vvvvvvvvvvvvvvvv",
        "74/0/26/452/vvvvvvvvvvvvvvvv",
    ],
    "skew_symmetric:4,symmetric:5": [
        "150/0/0/710/vvvvvvvvvvvvvvvvvvvv",
        "96/0/54/710/vvvvvvvvvvvvvvvvvvvv",
    ],
    "skew_symmetric:4,symmetric:6": [
        "210/0/0/1026/vvvvvvvvvvvvvvvvvvvvvvvv",
        "167/0/43/1026/vvvvvvvvvvvvvvvvvvvvvvvv",
    ],
    "skew_symmetric:5,symmetric:4": [
        "150/0/0/720/vvvvvvvvvvvvvvvvvvvv",
        "127/0/23/720/vvvvvvvvvvvvvvvvvvvv",
    ],
    "skew_symmetric:5,symmetric:5": [
        "225/0/0/1125/vvvvvvvvvvvvvvvvvvvvvvvvv",
        "194/0/31/1125/vvvvvvvvvvvvvvvvvvvvvvvvv",
    ],
    "skew_symmetric:5,symmetric:6": [
        "315/0/0/1620/vvvvvvvvvvvvvvvvvvvvvvvvvvvvvv",
        "241/0/74/1620/vvvvvvvvvvvvvvvvvvvvvvvvvvvvvv",
    ],
    "skew_symmetric:6,symmetric:4": [
        "210/0/0/1050/vvvvvvvvvvvvvvvvvvvvvvvv",
        "172/0/38/1050/vvvvvvvvvvvvvvvvvvvvvvvv",
    ],
    "skew_symmetric:6,symmetric:5": [
        "315/0/0/1635/vvvvvvvvvvvvvvvvvvvvvvvvvvvvvv",
        "249/0/66/1635/vvvvvvvvvvvvvvvvvvvvvvvvvvvvvv",
    ],
    "skew_symmetric:6,symmetric:6": [
        "441/0/0/2349/vvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvv",
        "338/0/103/2349/vvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvv",
    ],
}


@pytest.mark.parametrize("case", PAIRWISE_CASES)
@pytest.mark.parametrize("mixed", [False, True], ids=["all-variable", "mixed"])
def test_pairwise_levels_match_the_kronecker_product_and_the_pinned_counters(case, mixed):
    counters, got, want = pairwise_record(case, mixed)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert counters == PAIRWISE_GOLDEN[case][mixed]
