"""Deterministic random inputs for verification runs.

A 64-bit linear congruential generator with Knuth's MMIX constants
(a = 6364136223846793005, c = 1442695040888963407, mod 2^64).  Doubles are
derived from the top 53 bits, so a given seed produces the same stream on
every platform.  This is the generator documented in the README; all seeded
CLI commands and the acceptance suite draw from it.  tests/test_rng.py pins
its stream by value.

The bulk draws, complex_vector and uniforms, run the recurrence in one local
loop with the same floating-point operations as the single draws, so they
return the same values and leave the same state as those draws one by one.
"""

from __future__ import annotations

_MULT = 6364136223846793005
_INC = 1442695040888963407
_MASK = (1 << 64) - 1
_UNIT = float(1 << 53)


class Lcg:
    """64-bit LCG; uniform values and complex helpers."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state * _MULT + _INC) & _MASK
        return self.state

    def uniform(self, lo: float = -1.0, hi: float = 1.0) -> float:
        u = self.next_u64() >> 11  # top 53 bits
        return lo + (hi - lo) * (u / _UNIT)

    def complex_uniform(self) -> complex:
        re = self.uniform()
        im = self.uniform()
        return complex(re, im)

    def uniforms(self, k: int, lo: float = -1.0, hi: float = 1.0) -> list[float]:
        """k uniform(lo, hi) draws."""
        s, width, out = self.state, hi - lo, []
        for _ in range(k):
            s = (s * _MULT + _INC) & _MASK
            out.append(lo + width * ((s >> 11) / _UNIT))
        self.state = s
        return out

    def complex_vector(self, n: int) -> list[complex]:
        """n complex_uniform() draws: real part, then imaginary part."""
        s, out = self.state, []
        for _ in range(n):
            s = (s * _MULT + _INC) & _MASK
            re = -1.0 + 2.0 * ((s >> 11) / _UNIT)
            s = (s * _MULT + _INC) & _MASK
            out.append(complex(re, -1.0 + 2.0 * ((s >> 11) / _UNIT)))
        self.state = s
        return out

    def unit_disk(self) -> complex:
        while True:
            z = self.complex_uniform()
            if abs(z) <= 1.0:
                return z

    def unit_disk_vector(self, n: int) -> list[complex]:
        return [self.unit_disk() for _ in range(n)]

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        return self.next_u64() % n
