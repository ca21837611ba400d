"""The LCG stream, pinned by value.

tests/golden/lcg_stream.json is ``golden_text()``: for every seed in SEEDS,
each draw of DRAWS in order, one a line, then the final state.  Integers are
stored as ints, doubles as ``float.hex``, complex numbers as [re, im] pairs
of those and patterns as their row-major entry lists, so a changed bit in
any draw shows.  A deliberate change to the stream rewrites the golden from
``golden_text()``.
"""

import json
from pathlib import Path

import pytest

from bilinear_kernels.cli import random_pattern
from bilinear_kernels.rng import Lcg

GOLDEN = Path(__file__).resolve().parent / "golden" / "lcg_stream.json"
SEEDS = (0, 1, 2**63 + 7, 2**64 - 1)

# Every draw kind, interleaved, so that each starts from a state another
# kind left behind.
DRAWS = (("next_u64",), ("uniform",), ("complex_vector", 0), ("uniform", 0.0, 1.0),
         ("complex_vector", 1), ("randint", 7), ("complex_vector", 5), ("unit_disk",),
         *(("random_pattern", n) for n in range(1, 10)), ("next_u64",),
         ("complex_vector", 33), ("uniform", -3.0, 5.0), ("randint", 1), ("unit_disk",),
         ("complex_vector", 5))


def _enc(value):
    if isinstance(value, complex):
        return [value.real.hex(), value.imag.hex()]
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, list):
        return [_enc(v) for v in value]
    return value


def draws(seed: int) -> list:
    rng = Lcg(seed)
    out = []
    for name, *args in DRAWS:
        if name == "random_pattern":
            out.append([list(e) for e in random_pattern(args[0], rng).entries])
        else:
            out.append(_enc(getattr(rng, name)(*args)))
    out.append(rng.state)
    return out


def golden_text() -> str:
    seeds = (f' "{seed}": [\n' + ",\n".join(f"  {json.dumps(d)}" for d in draws(seed)) + "\n ]"
             for seed in SEEDS)
    return "{\n" + ",\n".join(seeds) + "\n}\n"


@pytest.mark.parametrize("seed", SEEDS)
def test_stream_matches_golden(seed):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert draws(seed) == golden[str(seed)]


def test_golden_is_byte_identical():
    assert golden_text() == GOLDEN.read_text(encoding="utf-8")


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 16, 33, 64])
def test_complex_vector_is_n_complex_uniforms(seed, n):
    bulk, single = Lcg(seed), Lcg(seed)
    got = bulk.complex_vector(n)
    want = [single.complex_uniform() for _ in range(n)]
    assert _enc(got) == _enc(want)
    assert bulk.state == single.state


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("k", [0, 1, 2, 5, 17, 64])
@pytest.mark.parametrize("lo, hi", [(-1.0, 1.0), (0.0, 1.0), (-3.0, 5.0)])
def test_uniforms_is_k_uniforms(seed, k, lo, hi):
    bulk, single = Lcg(seed), Lcg(seed)
    values = bulk.uniforms(k, lo, hi)
    assert [u.hex() for u in values] == [single.uniform(lo, hi).hex() for _ in range(k)]
    assert bulk.state == single.state


def test_uniforms_defaults_to_the_range_of_uniform():
    rng = Lcg(5)
    assert Lcg(5).uniforms(3) == [rng.uniform() for _ in range(3)]
