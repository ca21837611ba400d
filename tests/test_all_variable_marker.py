"""The all-Variable marker: flags held as None where every entry is known to
be Variable.  A product run with the marker gives the same counters and
bit-identical values and flags as the same product run with an explicit
all-True flag array, for every kind, for maps whose reach is not all True,
and next to mixed flags; so does every vector operation on a marked vector.
A grid of Variables or of raw numbers carries the marker too, into the
maps of the kernels that take grids."""

import numpy as np
import pytest

from bilinear_kernels import (CountContext, LevelSpec, SparsityPattern, StructureKind,
                              blocked_simultaneous, commutator_2x2, counting, naive_matvec,
                              structured, structured_matvec, toeplitz_matmul)
from bilinear_kernels.counting import (Kind, TrackedScalar, TrackedVector, as_matrix, as_vector,
                                       concat, reciprocal, take, tile, to_grid, to_scalars,
                                       variable_vector, variables, vmul)
from bilinear_kernels.kernels import SPECS
from bilinear_kernels.rng import Lcg
from bilinear_kernels.structures import default_f, param_count


def drawn_pattern(n: int, seed: int) -> SparsityPattern:
    rng = Lcg(seed)
    cells = sorted({(rng.randint(n), rng.randint(n)) for _ in range(1 + rng.randint(n * n))})
    return SparsityPattern(n, n, tuple(cells))


EMPTY_ROW = SparsityPattern(3, 3, ((0, 1), (2, 0), (2, 2)))      # row 1 has no entry
LEVELS = (LevelSpec("toeplitz", 2), LevelSpec("f_circulant", 3, 2.0),
          LevelSpec("sparse", 2, pattern=SparsityPattern(2, 2, ((0, 1), (1, 1)))))


def cases():
    for kind in SPECS:
        if kind is StructureKind.SPARSE:
            continue
        for n in (1, 2, 3, 8, 17):
            yield f"{kind.value}.n{n}", dict(kind=kind, n=n, f=default_f(kind, None))
    for n in (1, 2, 3, 8, 17):
        yield f"sparse.n{n}", dict(kind=StructureKind.SPARSE, n=n,
                                   pattern=drawn_pattern(n, 70 + n))
    yield "sparse.empty_row", dict(kind=StructureKind.SPARSE, n=3, pattern=EMPTY_ROW)
    yield "multilevel", dict(kind=StructureKind.MULTILEVEL, n=12, levels=LEVELS)
    yield "multilevel.skew1", dict(kind=StructureKind.MULTILEVEL, n=6,
                                   levels=(LevelSpec("skew_symmetric", 2),
                                           LevelSpec("circulant", 3)))


CASES = dict(cases())


def params(case: dict) -> list[complex]:
    return Lcg(7 * case["n"] + 3).complex_vector(param_count(
        case["kind"], case["n"], case.get("pattern"), case.get("levels")))


def with_flags(case: dict, flags):
    """A fresh matrix of the case's parameters whose data vector carries the
    given flags: None (the marker) or an explicit array."""
    M = structured(case["kind"], case["n"], params(case), f=case.get("f"),
                   pattern=case.get("pattern"), levels=case.get("levels"))
    if flags is not None:
        vec = M.data_vector()
        object.__setattr__(M, "_vector", TrackedVector(vec.values, flags))
    assert (M.data_vector().flags is None) == (flags is None)
    return M


def run(product, M, x):
    """Counters, values and flags of one product, run twice so that the
    second call reads the kept symbol."""
    got = []
    for _ in range(2):
        ctx = CountContext()
        out = product(M, x, ctx)
        vec = as_vector(out) if isinstance(out, list) else out
        got.append((ctx, vec.values.tobytes(), vec.variable.tolist()))
    assert got[0] == got[1]
    return got[0]


PRODUCTS = {"kernel": structured_matvec, "oracle": naive_matvec}


@pytest.mark.parametrize("product", PRODUCTS)
@pytest.mark.parametrize("name", CASES)
def test_the_marker_runs_as_an_all_true_array_does(name, product):
    case, product = CASES[name], PRODUCTS[product]
    n = case["n"]
    P = len(params(case))
    xs = Lcg(n + 11).complex_vector(n)
    values = np.array(xs, dtype=complex)
    ones, mixed = np.ones(n, dtype=bool), np.arange(n) % 3 != 1
    pmixed = np.arange(P) % 4 != 2
    array_data = with_flags(case, np.ones(P, dtype=bool))
    want = run(product, array_data, TrackedVector(values, ones.copy()))
    assert run(product, with_flags(case, None), TrackedVector(values, ones.copy())) == want
    for x in (variables(xs), list(xs), TrackedVector(values, None), variable_vector(xs)):
        assert run(product, with_flags(case, None), x) == want
        assert run(product, with_flags(case, np.ones(P, dtype=bool)), x) == want
        # the marker on one side only, mixed flags on the other
        assert run(product, with_flags(case, pmixed), x) == \
            run(product, with_flags(case, pmixed), TrackedVector(values, ones.copy()))
    assert run(product, with_flags(case, None), TrackedVector(values, mixed)) == \
        run(product, array_data, TrackedVector(values, mixed))


@pytest.mark.parametrize("name", [name for name in CASES if not name.startswith("multilevel")])
def test_a_marked_product_keeps_the_marker_through_maps_of_full_reach(name):
    """The marker comes out exactly where the pointwise product keeps it and
    W reaches every row."""
    case = CASES[name]
    U, V, W = SPECS[case["kind"]].maps(case["n"], case.get("f"), case.get("pattern"))
    out = structured_matvec(with_flags(case, None),
                            TrackedVector(np.ones(case["n"], dtype=complex), None),
                            CountContext())
    assert (out.flags is None) == ((U.full_reach or V.full_reach) and W.full_reach)
    if U.full_reach or V.full_reach:
        assert out.variable.tolist() == W.reach.tolist()


def test_maps_whose_reach_is_not_full_are_among_the_cases():
    reaches = [SPECS[StructureKind.SKEW_SYMMETRIC].maps(1, None, None)[2],
               SPECS[StructureKind.SPARSE].maps(3, None, EMPTY_ROW)[2]]
    assert [M.full_reach for M in reaches] == [False, False]


# ---------------------------------------------------------------------------
# Vector operations on a marked vector
# ---------------------------------------------------------------------------

VALUES = np.array([2, -1j, 3 + 1j, 0.5], dtype=complex)


def marked() -> TrackedVector:
    return TrackedVector(VALUES.copy(), None)


def explicit() -> TrackedVector:
    return TrackedVector(VALUES.copy(), np.ones(len(VALUES), dtype=bool))


def same(a: TrackedVector, b: TrackedVector) -> bool:
    return (a.values.shape == b.values.shape and a.values.tobytes() == b.values.tobytes()
            and a.variable.dtype == b.variable.dtype == bool
            and a.variable.tolist() == b.variable.tolist())


def test_the_marker_reads_as_a_read_only_all_true_view():
    for vec in (marked(), TrackedVector(np.zeros((3, 2), dtype=complex), None)):
        view = vec.variable
        assert view.dtype == bool and view.shape == vec.values.shape and view.all()
        with pytest.raises(ValueError):
            view[(0,) * view.ndim] = False
    assert as_vector(variables([1, 2])).flags is None
    assert as_vector([1, 2j]).flags is None and as_vector(np.arange(3)).flags is None
    assert as_vector([]).flags is None
    mixed = as_vector([TrackedScalar(1, Kind.VARIABLE), TrackedScalar(2, Kind.CONSTANT)])
    assert mixed.flags.tolist() == [True, False]


@pytest.mark.parametrize("other", [marked, explicit,
                                   lambda: TrackedVector(VALUES.copy(),
                                                         np.array([True, False, True, False]))])
def test_vmul_of_a_marked_vector(other):
    for left in (True, False):
        got_ctx, want_ctx = CountContext(), CountContext()
        pair = (marked(), other()) if left else (other(), marked())
        got = vmul(*pair, got_ctx)
        want = vmul(explicit(), other(), want_ctx)
        assert same(got, want) and got_ctx == want_ctx
        assert got.flags is None
    ctx = CountContext()
    vmul(marked(), marked(), ctx)
    assert ctx == CountContext(bilinear_mults=4)


def test_reciprocal_of_a_marked_vector():
    got_ctx, want_ctx = CountContext(), CountContext()
    got, want = reciprocal(marked(), got_ctx), reciprocal(explicit(), want_ctx)
    assert same(got, want) and got_ctx == want_ctx == CountContext(divisions=4)
    assert got.flags is None


def test_take_concat_tile_and_to_grid_keep_the_marker():
    idx = [3, 0, 0, 2]
    assert same(take(marked(), idx), take(explicit(), idx))
    assert take(marked(), idx).flags is None
    assert same(concat(marked(), marked()), concat(explicit(), explicit()))
    assert concat(marked(), marked()).flags is None
    mixed = TrackedVector(VALUES.copy(), np.array([False, True, True, False]))
    assert same(concat(marked(), mixed), concat(explicit(), mixed))
    assert concat(marked(), mixed).flags.tolist() == [True] * 4 + [False, True, True, False]
    assert same(tile(marked(), 3), tile(explicit(), 3)) and tile(marked(), 3).flags is None
    block = tile(marked(), 3)
    assert to_grid(block) == to_grid(tile(explicit(), 3))
    assert to_scalars(marked()) == to_scalars(explicit())
    assert {s.kind for row in to_grid(block) for s in row} == {Kind.VARIABLE}


# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------

ROWS = [[1, 2j], [3, -4]]
GRID_FORMS = {
    "Variables": lambda rows: [variables(row) for row in rows],
    "raw numbers": lambda rows: rows,
    "complex ndarray": lambda rows: np.array(rows, dtype=complex),
}


@pytest.mark.parametrize("form", GRID_FORMS)
def test_a_grid_of_variables_or_numbers_carries_the_marker(form):
    grid = as_matrix(GRID_FORMS[form](ROWS))
    assert grid.flags is None
    assert grid.values.tobytes() == np.array(ROWS, dtype=complex).tobytes()
    assert as_matrix(grid) is grid


def test_a_grid_with_a_constant_keeps_its_flags():
    grid = as_matrix([variables([1, 2]), [TrackedScalar(3, Kind.VARIABLE),
                                          TrackedScalar(4, Kind.CONSTANT)]])
    assert grid.flags.tolist() == [[True, True], [True, False]]
    with pytest.raises(ValueError, match=r"^expected a grid, got an operand of shape \(4,\)$"):
        as_matrix(marked())


GRID_CALLS = {
    "blocked_simultaneous": lambda form, ctx: blocked_simultaneous(
        form(ROWS), form([[1, 2, 3, 4], [5, 6, 7, 8]]), "g", ctx),
    "toeplitz_matmul": lambda form, ctx: toeplitz_matmul([1, 2, 3], form(ROWS), ctx),
    "commutator_2x2": lambda form, ctx: commutator_2x2(form(ROWS), form([[5, 6], [7j, 8]]), ctx),
}


@pytest.mark.parametrize("form", GRID_FORMS)
@pytest.mark.parametrize("call", GRID_CALLS)
def test_all_variable_grids_hand_u_and_v_the_marker(monkeypatch, call, form):
    seen, apply_matrix = [], counting.apply_matrix

    def spy(M, vec, ctx):
        seen.append(vec.flags)
        return apply_matrix(M, vec, ctx)

    monkeypatch.setattr(counting, "apply_matrix", spy)
    GRID_CALLS[call](GRID_FORMS[form], CountContext())
    assert len(seen) == 3 and seen[0] is None and seen[1] is None


@pytest.mark.parametrize("call", GRID_CALLS)
def test_a_marked_grid_runs_as_an_all_true_array_does(call):
    def explicit_grid(rows):
        values = np.array(rows, dtype=complex)
        return TrackedVector(values, np.ones(values.shape, dtype=bool))

    got_ctx, want_ctx = CountContext(), CountContext()
    got = GRID_CALLS[call](GRID_FORMS["raw numbers"], got_ctx)
    assert got == GRID_CALLS[call](explicit_grid, want_ctx) and got_ctx == want_ctx
