"""Deterministic random inputs for verification runs.

A 64-bit linear congruential generator with Knuth's MMIX constants
(a = 6364136223846793005, c = 1442695040888963407, mod 2^64).  Doubles are
derived from the top 53 bits, so a given seed produces the same stream on
every platform.  This is the generator documented in the README; all seeded
CLI commands and the acceptance suite draw from it.  tests/test_rng.py pins
its stream by value.

The bulk draws, complex_vector and uniforms, return the same values and
leave the same state as the single draws one by one.  Below BULK_DRAWS
draws they run the recurrence in one local loop.  From BULK_DRAWS on they
jump ahead instead: k steps from state s give a^k s + c_k mod 2^64, with
(a^k, c_k) read from a uint64 table of JUMP_BLOCK steps, so numpy forms a
block of states at once, wrapping mod 2^64 as the loop masks, and applies
to them floating-point operations that give the loop's values exactly.
"""

from __future__ import annotations

import numpy as np

_MULT = 6364136223846793005
_INC = 1442695040888963407
_MASK = (1 << 64) - 1
_UNIT = float(1 << 53)
_TWO_OVER_UNIT = 2.0 ** -52

# The loop costs about 0.6 us a complex entry (two draws) and the jump
# 5-6 us a call, so they break even at 9-10 complex entries and the jump is
# taken from 20 draws (measured on a 2-core x86-64 host, Python 3.11,
# numpy 2.4, one BLAS thread).
BULK_DRAWS = 20
JUMP_BLOCK = 512


def _jump_table(steps: int) -> tuple[np.ndarray, np.ndarray]:
    """(a^k, c_k) mod 2^64 for k = 1 .. steps: k steps from s give a^k s + c_k."""
    mults, incs, m, c = [], [], 1, 0
    for _ in range(steps):
        m, c = m * _MULT & _MASK, (c * _MULT + _INC) & _MASK
        mults.append(m)
        incs.append(c)
    return np.array(mults, dtype=np.uint64), np.array(incs, dtype=np.uint64)


_JUMP_MULT, _JUMP_INC = _jump_table(JUMP_BLOCK)


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

    def _tops(self, k: int) -> np.ndarray:
        """The next k draws' top 53 bits u, as doubles (exact: u < 2^53), by
        jumping ahead a block of JUMP_BLOCK states at a time; k >= 1.  The
        output is allocated before the first step, so a k that numpy refuses
        to hold is a MemoryError at once."""
        try:
            tops = np.empty(k)
        except ValueError as exc:           # "Maximum allowed dimension exceeded"
            raise MemoryError(f"{k} random draws do not fit in memory") from exc
        s = np.uint64(self.state)
        for lo in range(0, k, JUMP_BLOCK):
            states = _JUMP_MULT[:k - lo] * s
            states += _JUMP_INC[:k - lo]
            s = states[-1]
            tops[lo:lo + JUMP_BLOCK] = states >> np.uint64(11)
        self.state = int(s)
        return tops

    def uniforms(self, k: int, lo: float = -1.0, hi: float = 1.0) -> list[float]:
        """k uniform(lo, hi) draws."""
        width = hi - lo
        if k >= BULK_DRAWS:
            values = self._tops(k)
            values /= _UNIT
            values *= width
            values += lo
            return values.tolist()
        s, out = self.state, []
        for _ in range(k):
            s = (s * _MULT + _INC) & _MASK
            out.append(lo + width * ((s >> 11) / _UNIT))
        self.state = s
        return out

    def complex_vector(self, n: int) -> list[complex]:
        """n complex_uniform() draws: real part, then imaginary part.  In
        bulk, u * 2^-52 - 1 is the loop's -1 + 2 (u / 2^53) exactly: each
        scaling by a power of two is exact."""
        if 2 * n >= BULK_DRAWS:
            parts = self._tops(2 * n)
            parts *= _TWO_OVER_UNIT
            parts -= 1.0          # -1.0 + x, exactly: the sum is the same either way
            return parts.view(complex).tolist()     # re, im pairs are complex128's layout
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
