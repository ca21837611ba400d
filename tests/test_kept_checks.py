"""What a structure fixes is worked out once per structure: its check
(check_structure keeps its result per structure without a pattern, and
never a refusal) and the facts of its structural mask that the oracle reads
(kept in its placement).  The oracle's counters, flags and values stay
those of counting every call afresh."""

import gc
import weakref

import numpy as np
import pytest

from bilinear_kernels import (CountContext, LevelSpec, StructureKind, counting, formula_count,
                              naive_matvec, structured, structures)
from bilinear_kernels.cli import random_pattern, random_structured
from bilinear_kernels.counting import MapStore, TrackedVector, variables
from bilinear_kernels.kernels import SPECS, structured_matvec
from bilinear_kernels.rng import Lcg
from bilinear_kernels.structures import (InputError, _placement, check_structure, default_f,
                                         dense_parts, param_count)

TOEPLITZ = StructureKind.TOEPLITZ


def matrices():
    """Every kind at n = 1 .. 16 (sparse on a drawn pattern), and two- and
    three-level Toeplitz."""
    rng = Lcg(11)
    for kind in SPECS:
        for n in range(1, 17):
            if kind is StructureKind.SKEW_SYMMETRIC and n == 1:
                continue                        # no parameters
            pattern = random_pattern(n, rng) if kind is StructureKind.SPARSE else None
            yield random_structured(kind, n, rng, f=default_f(kind, None), pattern=pattern)
    for orders in ((2, 3), (4, 1), (3, 5), (2, 2, 2), (1, 3, 2), (3, 2, 3)):
        levels = tuple(LevelSpec(TOEPLITZ, k) for k in orders)
        yield random_structured(StructureKind.MULTILEVEL, int(np.prod(orders)), rng,
                                levels=levels)


def flag_forms(size: int):
    """The marker, mixed flags and all-Constant flags of a vector."""
    yield None
    yield np.arange(size) % 3 != 1
    yield np.zeros(size, dtype=bool)


def todays_rule(values, variable, marked, xflags):
    """The oracle's counters and output flags, every count taken afresh."""
    active = variable if marked else variable | (values != 0)
    rows = active.any(axis=1)
    terms = int(np.count_nonzero(active))
    hit = active if marked else active & variable
    if xflags is not None:
        hit = hit & xflags
    bilinear = int(np.count_nonzero(hit))
    counts = CountContext(bilinear, 0, terms - bilinear, terms - int(np.count_nonzero(rows)))
    if not marked and xflags is not None:
        rows = (active & (variable | xflags)).any(axis=1)
    return counts, rows


@pytest.mark.parametrize("M", list(matrices()), ids=lambda M: f"{M.kind.value}.n{M.n}")
def test_the_oracle_counts_as_it_did_with_its_facts_read_from_the_placement(M):
    placement = _placement(M.levels)
    param, cell, coeff = placement.param, placement.cell, placement.coeff
    mask = np.zeros(M.n * M.n, dtype=bool)
    mask[cell] = True
    mask = mask.reshape(M.n, M.n)
    assert placement.terms == np.count_nonzero(mask)
    assert np.array_equal(placement.rows, mask.any(axis=1)) and not placement.rows.flags.writeable
    assert placement.row_count == np.count_nonzero(mask.any(axis=1))
    assert placement.distinct == (len(np.unique(cell)) == len(cell))
    rng = Lcg(M.n)
    x = np.array(rng.complex_vector(M.n))
    data = M.data_vector().values
    summed = np.zeros(M.n * M.n, dtype=complex)
    np.add.at(summed, cell, coeff * data[param])
    for data_flags in flag_forms(len(data)):
        A = structured(M.kind, M.n, TrackedVector(data, data_flags), M.f, M.pattern,
                       M.levels if M.kind is StructureKind.MULTILEVEL else None)
        values, variable, structural = dense_parts(A)
        assert values.tobytes() == summed.tobytes() and structural is placement.structural
        marked = data_flags is None
        if not marked:
            reached = np.zeros(M.n * M.n, dtype=bool)
            reached[cell[data_flags[param]]] = True
            assert np.array_equal(variable, reached.reshape(M.n, M.n))
        for x_flags in flag_forms(M.n):
            ctx = CountContext()
            out = naive_matvec(A, TrackedVector(x, x_flags), ctx)
            counts, rows = todays_rule(values, mask if marked else variable, marked, x_flags)
            assert ctx == counts
            assert out.flags.dtype == bool and np.array_equal(out.flags, rows)
            assert out.flags is not placement.rows
            assert out.values.tobytes() == (summed.reshape(M.n, M.n) @ x).tobytes()


def spy(monkeypatch) -> list:
    """The validator's body, wrapped to record every run."""
    runs, body = [], structures._check

    def counted(*args):
        runs.append(args)
        return body(*args)

    structures._kept.cache_clear()
    monkeypatch.setattr(structures, "_check", counted)
    return runs


def test_a_repeated_sweep_checks_each_structure_once(monkeypatch):
    """Rounds of verify-style trials (parameters, matrix, formula count):
    the first round checks each distinct (kind, n, f, levels, size) once,
    and the later rounds check nothing again."""
    runs = spy(monkeypatch)
    rng = Lcg(5)
    bttb = (LevelSpec(TOEPLITZ, 2), LevelSpec(TOEPLITZ, 3))

    def sweep():
        for kind in SPECS:
            if kind is StructureKind.SPARSE:
                continue
            for n in range(2, 9):
                f = default_f(kind, None)
                M = random_structured(kind, n, rng, f=f)
                formula_count(kind, n)
                structured_matvec(M, variables(rng.complex_vector(n)), CountContext())
        M = random_structured(StructureKind.MULTILEVEL, 6, rng, levels=bttb)
        formula_count(StructureKind.MULTILEVEL, 6, levels=bttb)
        naive_matvec(M, variables(rng.complex_vector(6)), CountContext())

    sweep()
    first = len(runs)
    assert first == len(set(runs)) == structures._kept.cache_info().currsize
    sweep()
    sweep()
    assert len(runs) == first


def test_a_refused_structure_raises_on_every_call(monkeypatch):
    runs = spy(monkeypatch)
    for k in range(3):
        with pytest.raises(InputError, match="^order must be positive$"):
            structured("toeplitz", 0, [])
        with pytest.raises(InputError, match="^toeplitz of order 2 needs 3 parameters, got 1$"):
            check_structure("toeplitz", 2, size=1)
        assert len(runs) == 2 * (k + 1)
    assert structures._kept.cache_info().currsize == 0


def test_a_structure_with_a_pattern_is_checked_on_every_call(monkeypatch):
    runs = spy(monkeypatch)
    rng = Lcg(6)
    pattern = random_pattern(4, rng)
    for k in range(3):
        param_count(StructureKind.SPARSE, 4, pattern)
        assert len(runs) == k + 1
    assert structures._kept.cache_info().currsize == 0


def test_an_input_that_cannot_key_a_result_is_checked_not_kept(monkeypatch):
    """A 0-d array f passes the f rules but cannot key a kept result: it is
    checked on every call, as at first."""
    runs = spy(monkeypatch)
    for k in range(2):
        assert check_structure("f_circulant", 3, np.array(2.0), size=3).params == 3
        assert len(runs) == k + 1
    assert structures._kept.cache_info().currsize == 0


def test_the_kept_checks_stay_within_the_store_entry_bound():
    """Fresh f values make a fresh structure each: the kept checks stop at
    MAP_STORE_ENTRIES, the bound the store keeps a sweep's maps within."""
    bound = counting.MAP_STORE_ENTRIES
    assert structures._kept.cache_info().maxsize == bound
    for k in range(bound + 100):
        check_structure("f_circulant", 3, complex(1.0, k + 1), size=3)
        check_structure("multilevel", None, levels=(LevelSpec("f_circulant", 2, 1.0 + k),
                                                    LevelSpec(TOEPLITZ, 1 + k % 3)))
        assert structures._kept.cache_info().currsize <= bound
    assert structures._kept.cache_info().currsize == bound


def test_no_fresh_pattern_outlives_its_sweep(monkeypatch):
    """Sparse trials and multilevel trials with a sparse level, each on a
    fresh pattern: once the trials and the map store that kept their maps
    are gone, no pattern is alive, so no kept check holds one."""
    store = MapStore()
    monkeypatch.setattr(counting, "MAP_STORE", store)
    rng = Lcg(9)
    alive = []
    for n in range(2, 10):
        pattern = random_pattern(n, rng)
        alive.append(weakref.ref(pattern))
        M = random_structured(StructureKind.SPARSE, n, rng, pattern=pattern)
        x = variables(rng.complex_vector(n))
        structured_matvec(M, x, CountContext())
        naive_matvec(M, x, CountContext())
        assert M.kind.value == "sparse" and formula_count("sparse", n, pattern) >= 0
        levels = (LevelSpec(TOEPLITZ, 2), LevelSpec("sparse", n, pattern=pattern))
        L = random_structured(StructureKind.MULTILEVEL, 2 * n, rng, levels=levels)
        naive_matvec(L, variables(rng.complex_vector(2 * n)), CountContext())
        formula_count(StructureKind.MULTILEVEL, 2 * n, levels=levels)
    del pattern, M, L, levels, x
    store.entries.clear()
    store.owned.clear()
    gc.collect()
    assert [ref() for ref in alive] == [None] * len(alive)


@pytest.mark.parametrize("kind, n, f", [("skew_symmetric", 4, None), ("f_circulant", 3, -1.0),
                                        ("toeplitz", 3, None), ("tph", 2, None)])
def test_dense_values_are_zero_plus_the_weighted_parameters(kind, n, f):
    """A cell is 0 + its weighted parameters, whether the placement's cells
    are distinct or not: a weighted zero of either sign (-1 * +0.0 on a
    skew cell, or a -0.0 parameter) lands as +0.0, as np.add.at sums it."""
    P = param_count(kind, n)
    for data in (np.zeros(P, dtype=complex), np.full(P, complex(-0.0, -0.0)),
                 np.where(np.arange(P) % 2 == 0, complex(-0.0, 1.0), complex(2.0, -0.0))):
        M = structured(kind, n, data, f=f)
        placement = _placement(M.levels)
        want = np.zeros(n * n, dtype=complex)
        np.add.at(want, placement.cell, placement.coeff * data[placement.param])
        assert dense_parts(M)[0].tobytes() == want.tobytes()
