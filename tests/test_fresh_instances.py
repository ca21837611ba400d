"""A fresh verify instance at the cost of a warm one: bulk draws by jump
ahead, parameters kept as one array, f-circulant placements derived
from their order's base, and the map store's owned buffers.  Each
against the direct formulation it replaces.  Also the public kernels on
plain numbers."""

import gc

import numpy as np
import pytest

from bilinear_kernels import (CountContext, LevelSpec, SparsityPattern, StructureKind,
                              StructuredMatrix, TrackedScalar, TrackedVector, circulant_inverse,
                              circulant_matvec, constant, f_circulant_inverse,
                              f_circulant_matvec, hankel_matvec, naive_matvec, serialize_matrix,
                              skew_symmetric_matvec, structured, structured_matvec,
                              symmetric_matvec, toeplitz_matmul, toeplitz_matvec, tph_matvec,
                              triangular_toeplitz_matvec, variable, variables)
from bilinear_kernels import counting
from bilinear_kernels.counting import GatherMap, MapStore, _buffers, _key_bytes
from bilinear_kernels.kernels import _embedding_maps, _sparse_maps
from bilinear_kernels.rng import BULK_DRAWS, JUMP_BLOCK, Lcg
from bilinear_kernels.structures import _placement, default_f, param_count

SINGLE_KINDS = [k for k in StructureKind if k not in (StructureKind.SPARSE,
                                                        StructureKind.MULTILEVEL)]
PATTERN = SparsityPattern(4, 4, ((0, 1), (1, 1), (2, 0), (3, 3), (3, 0)))


def _enc(values):
    return [(z.real.hex(), z.imag.hex()) if isinstance(z, complex) else z.hex() for z in values]


# ---------------------------------------------------------------------------
# Bulk draws: the same stream and state as one draw at a time
# ---------------------------------------------------------------------------

# Each side of the switch to the jump ahead and of a jump block's edge, and
# several blocks.
EDGE_DRAWS = (BULK_DRAWS - 1, BULK_DRAWS, BULK_DRAWS + 1, JUMP_BLOCK - 1, JUMP_BLOCK,
              JUMP_BLOCK + 1, 1500)


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("draws", EDGE_DRAWS)
def test_complex_vector_equals_the_one_draw_loop_across_the_jump_edges(seed, draws):
    for n in sorted({draws // 2, (draws + 1) // 2}):
        bulk, single = Lcg(seed), Lcg(seed)
        assert _enc(bulk.complex_vector(n)) == _enc([single.complex_uniform() for _ in range(n)])
        assert bulk.state == single.state


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("k", EDGE_DRAWS)
@pytest.mark.parametrize("lo, hi", [(-1.0, 1.0), (0.0, 1.0), (-3.0, 5.0)])
def test_uniforms_equal_the_one_draw_loop_across_the_jump_edges(seed, k, lo, hi):
    bulk, single = Lcg(seed), Lcg(seed)
    assert _enc(bulk.uniforms(k, lo, hi)) == _enc([single.uniform(lo, hi) for _ in range(k)])
    assert bulk.state == single.state


def test_bulk_draws_return_python_numbers():
    rng = Lcg(3)
    assert {type(z) for z in rng.complex_vector(JUMP_BLOCK)} == {complex}
    assert {type(u) for u in rng.uniforms(JUMP_BLOCK)} == {float}


# ---------------------------------------------------------------------------
# f-circulant placements from the order's base
# ---------------------------------------------------------------------------

F_GRID = [1.0, -1.0, 2.0, 1j, 0.02, 60j, complex(0.3, -2.2), 1e-300, 1e300]


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16])
@pytest.mark.parametrize("f", F_GRID[1:])
def test_fresh_f_placement_equals_the_direct_formula_byte_for_byte(n, f):
    i, j = np.indices((n, n)).reshape(2, -1)
    want = ((i - j) % n, i * n + j, np.asarray(np.where(i > j, f, 1.0), dtype=complex),
            np.ones((n, n), dtype=bool))
    got = _placement((LevelSpec(StructureKind.F_CIRCULANT, n, complex(f)),))
    for arr, ref in zip(got, want):
        assert (arr.dtype, arr.shape) == (ref.dtype, ref.shape)
        assert arr.tobytes() == ref.tobytes() and not arr.flags.writeable
    circulant = _placement((LevelSpec(StructureKind.CIRCULANT, n),))
    assert got[0] is circulant[0] and got[1] is circulant[1]


@pytest.mark.parametrize("inner", [(), (LevelSpec(StructureKind.TOEPLITZ, 2),),
                                   (LevelSpec(StructureKind.TOEPLITZ_PLUS_HANKEL, 2),)],
                         ids=["one_level", "over_toeplitz", "over_tph"])
@pytest.mark.parametrize("f", [-1.0, 2.0, 1j, complex(0.3, -2.2), 1e300])
@pytest.mark.parametrize("n", [1, 3, 5])
def test_fresh_f_placement_keeps_circulants_arrays_and_facts(n, f, inner):
    """Only coeff is computed per f: param, cell, the mask and its row mask
    are the very arrays of circulant's entry at the same order, and its
    counts the same.  coeff is each cell's f weight times the inner
    placement's coefficients, as the Kronecker rule gives."""
    got = _placement((LevelSpec(StructureKind.F_CIRCULANT, n, complex(f)), *inner))
    circulant = _placement((LevelSpec(StructureKind.CIRCULANT, n), *inner))
    for field in ("param", "cell", "structural", "rows"):
        assert getattr(got, field) is getattr(circulant, field)
    assert ((got.terms, got.row_count, got.distinct)
            == (circulant.terms, circulant.row_count, circulant.distinct))
    i, j = np.indices((n, n)).reshape(2, -1)
    want = np.asarray(np.where(i > j, complex(f), 1.0), dtype=complex)
    if inner:
        want = (want[:, None] * _placement(inner).coeff).ravel()
    assert got.coeff.tobytes() == want.tobytes() and not got.coeff.flags.writeable


# ---------------------------------------------------------------------------
# Parameters kept as one array
# ---------------------------------------------------------------------------

def tracked_scalars() -> int:
    gc.collect()
    return sum(type(obj) is TrackedScalar for obj in gc.get_objects())


@pytest.mark.parametrize("kind", SINGLE_KINDS + [StructureKind.SPARSE])
def test_structured_from_raw_numbers_builds_no_scalar_until_data_is_read(kind):
    pattern = PATTERN if kind is StructureKind.SPARSE else None
    values = Lcg(8).complex_vector(param_count(kind, 4, pattern))
    before = tracked_scalars()
    M = structured(kind, 4, values, f=default_f(kind, None), pattern=pattern)
    x = variables(np.ones(4))
    outputs = structured_matvec(M, x, CountContext()), naive_matvec(M, x, CountContext())
    assert tracked_scalars() == before + len(x) + 2 * 4     # x and the two outputs alone
    data = M.data
    assert M.data is data and tracked_scalars() == before + len(x) + 2 * 4 + len(values)
    del outputs
    want = structured(kind, 4, variables(values), f=M.f, pattern=pattern)
    assert data == want.data and M == want and hash(M) == hash(want)
    assert serialize_matrix(M) == serialize_matrix(want)
    assert repr(M) == repr(want)


def test_a_matrix_kept_as_its_vector_has_no_other_missing_attribute():
    M = structured(StructureKind.CIRCULANT, 2, [1, 2])
    with pytest.raises(AttributeError, match="no attribute 'datum'"):
        M.datum
    with pytest.raises(AttributeError):
        M.data = ()


def test_structured_keeps_the_values_of_every_plain_number_type():
    data = [1, 2.5, -3j, 2**70, 0.0, -0.0]
    M = structured(StructureKind.SYMMETRIC, 3, data)
    assert _enc([s.value for s in M.data]) == _enc([complex(d) for d in data])


# One constructor: each form of the Toeplitz parameters 1, 2, 3 (order 2),
# made fresh per call, and the indices of its Constant entries.
DATA_FORMS = {
    "scalar tuple": (lambda: tuple(variables([1, 2, 3])), ()),
    "scalar list": (lambda: variables([1, 2, 3]), ()),
    "raw ints": (lambda: (1, 2, 3), ()),
    "float ndarray": (lambda: np.array([1.0, 2.0, 3.0]), ()),
    "scalars and numbers": (lambda: [variable(1), constant(2), 3], (1,)),
    "tracked vector": (lambda: TrackedVector(np.array([1, 2, 3], dtype=complex), None), ()),
    "tracked vector with flags":
        (lambda: TrackedVector(np.array([1.0, 2.0, 3.0]), np.array([True, False, True])), (1,)),
}


@pytest.mark.parametrize("form", DATA_FORMS)
def test_the_constructor_and_structured_build_one_matrix_of_each_data_form(form):
    make, constants = DATA_FORMS[form]
    want = structured("toeplitz", 2, [constant(v) if k in constants else variable(v)
                                      for k, v in enumerate([1, 2, 3])])
    kept = want.data_vector()
    x = variables([1, -1])
    for build in (StructuredMatrix, structured):
        M = build(StructureKind.TOEPLITZ, 2, make())
        assert M == want and hash(M) == hash(want) and repr(M) == repr(want)
        assert serialize_matrix(M) == serialize_matrix(want)
        vec = M.data_vector()
        assert vec.values.tobytes() == kept.values.tobytes()
        assert (vec.flags is None, vec.variable.tolist()) == (kept.flags is None,
                                                              kept.variable.tolist())
        assert not vec.values.flags.writeable
        assert structured_matvec(M, x, CountContext()) == structured_matvec(want, x, CountContext())


@pytest.mark.parametrize("data, message", [
    ("123", "expected a sequence of tracked scalars or numbers, got str '123'"),
    (b"123", "expected a sequence of tracked scalars or numbers, got bytes b'123'"),
    (["1", "2", "3"], "expected a number, got str '1'"),
    ([variable(1), "2", 3], "expected a number, got str '2'"),
])
def test_the_constructor_refuses_text_with_the_message_of_structured(data, message):
    for build in (StructuredMatrix, structured):
        with pytest.raises(TypeError) as caught:
            build(StructureKind.TOEPLITZ, 2, data)
        assert str(caught.value) == message


def test_a_vector_passed_in_is_copied_so_later_writes_leave_the_matrix_alone():
    values, flags = np.array([1, 2, 3], dtype=complex), np.array([True, False, True])
    M = StructuredMatrix(StructureKind.TOEPLITZ, 2, TrackedVector(values, flags))
    x = variables([1, -1])
    before = structured_matvec(M, x, CountContext())
    symbol = M._symbol[0].values.copy()
    values[:], flags[:] = 9, True
    assert structured_matvec(M, x, CountContext()) == before
    assert M._symbol[0].values.tobytes() == symbol.tobytes()
    assert M.data_vector().values.tolist() == [1, 2, 3]
    assert M.data_vector().variable.tolist() == [True, False, True]
    assert values.flags.writeable and flags.flags.writeable
    toeplitz_matvec(TrackedVector(values, flags), x, CountContext())
    assert values.flags.writeable and flags.flags.writeable


# ---------------------------------------------------------------------------
# The map store: owned buffers kept per entry
# ---------------------------------------------------------------------------

def test_store_sizes_equal_those_of_walking_every_base(monkeypatch):
    """An entry's size subtracts the owned buffers its bases keep; it equals
    the bytes left after walking every base's maps, as each read did."""
    store = MapStore()
    monkeypatch.setattr(counting, "MAP_STORE", store)
    monkeypatch.setattr(counting, "MAP_STORE_ENTRIES", 24)
    rng = Lcg(2)
    for k in range(40):
        _embedding_maps(StructureKind.F_CIRCULANT, 1 + k % 7, complex(1.0, k))
        _placement((LevelSpec(StructureKind.F_CIRCULANT, 1 + k % 5, complex(2.0, k)),
                    LevelSpec(StructureKind.TOEPLITZ, 2)))
        _embedding_maps(StructureKind.TOEPLITZ_PLUS_HANKEL, 1 + k % 4)
        n = 2 + k % 3
        _sparse_maps(n, SparsityPattern(n, n, ((0, 0), (n - 1, rng.randint(n)))))
        assert set(store.owned) == set(store.entries)
        for key, (value, size, chain) in store.entries.items():
            held = _buffers(value, {})
            for base in set(chain[1:]):
                for shared in _buffers(store.entries[base][0], {}):
                    held.pop(shared, None)
            assert size == sum(held.values()) + _key_bytes(key)
            assert store.owned[key] == held
    assert len(store.entries) == 24


@pytest.mark.parametrize("m, n", [(0, 3), (1, 1), (5, 3), (28, 9), (40, 40)])
def test_picking_builds_what_the_general_constructor_builds(m, n):
    index = np.array([Lcg(m + n).randint(n) for _ in range(m)], dtype=np.intp)
    want, got = GatherMap((m, n), np.arange(m), index), GatherMap.picking(n, index)
    for name in ("support", "terms", "signs", "reach"):
        a, b = getattr(want, name), getattr(got, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
        assert not b.flags.writeable
    assert (want.shape, want.full_reach, want.nbytes, want.cost) == \
        (got.shape, got.full_reach, got.nbytes, got.cost)
    values = np.arange(n * 2.0).reshape(n, 2) + 1j
    assert got.apply(values).tobytes() == want.apply(values).tobytes()
    assert got.dense().tobytes() == want.dense().tobytes()


# ---------------------------------------------------------------------------
# The public kernels on plain numbers
# ---------------------------------------------------------------------------

def raw_forms(values):
    """Plain numbers as a list of floats or complex numbers and as numpy arrays."""
    arr = np.array(values)
    return [list(values), arr, arr.real.tolist(), arr.real.copy(), arr.astype(np.complex64)]


def assert_same_product(got, want, ctx, ref_ctx):
    assert np.array([s.value for s in got]).tobytes() == \
        np.array([s.value for s in want]).tobytes()
    assert [s.kind for s in got] == [s.kind for s in want]
    assert ctx == ref_ctx


@pytest.mark.parametrize("kind", SINGLE_KINDS + [StructureKind.SPARSE, StructureKind.MULTILEVEL])
def test_structured_matvec_and_the_oracle_take_plain_numbers(kind):
    pattern = PATTERN if kind is StructureKind.SPARSE else None
    levels = ((LevelSpec(StructureKind.TOEPLITZ, 2), LevelSpec(StructureKind.F_CIRCULANT, 2, 3j))
              if kind is StructureKind.MULTILEVEL else None)
    rng = Lcg(4)
    M = structured(kind, 4, rng.complex_vector(param_count(kind, 4, pattern, levels)),
                   f=None if levels else default_f(kind, None), pattern=pattern, levels=levels)
    for x in raw_forms(rng.complex_vector(4)):
        want_x = variables(np.asarray(x).tolist())
        for run in (structured_matvec, naive_matvec):
            ctx, ref_ctx = CountContext(), CountContext()
            assert_same_product(run(M, x, ctx), run(M, want_x, ref_ctx), ctx, ref_ctx)


def per_kind_calls(rng):
    """Each public per-kind product: its name, and a call on (params, x) lists."""
    n = 4
    draw = rng.complex_vector
    return [
        ("circulant", lambda p, x, c: circulant_matvec(p, x, c), draw(n)),
        ("f_circulant", lambda p, x, c: f_circulant_matvec(p, 2j, x, c), draw(n)),
        ("toeplitz", lambda p, x, c: toeplitz_matvec(p, x, c), draw(2 * n - 1)),
        ("hankel", lambda p, x, c: hankel_matvec(p, x, c), draw(2 * n - 1)),
        ("triangular_toeplitz", lambda p, x, c: triangular_toeplitz_matvec(p, x, c), draw(n)),
        ("tph", lambda p, x, c: tph_matvec(p[:2 * n - 1], p[2 * n - 1:], x, c), draw(4 * n - 2)),
        ("symmetric", lambda p, x, c: symmetric_matvec(p, x, c), draw(n * (n + 1) // 2)),
        ("skew_symmetric", lambda p, x, c: skew_symmetric_matvec(p, x, c), draw(n * (n - 1) // 2)),
        ("circulant_inverse", lambda p, x, c: circulant_inverse(p, c), draw(n)),
        ("f_circulant_inverse", lambda p, x, c: f_circulant_inverse(p, 2j, c), draw(n)),
    ]


@pytest.mark.parametrize("case", range(10))
def test_every_public_kernel_takes_plain_numbers(case):
    rng = Lcg(6)
    name, call, params = per_kind_calls(rng)[case]
    x = rng.complex_vector(4)
    ctx, ref_ctx = CountContext(), CountContext()
    want = call(variables(params), variables(x), ref_ctx)
    for p_form, x_form in zip(raw_forms(params)[:2], raw_forms(x)[:2]):
        ctx = CountContext()
        assert_same_product(call(p_form, x_form, ctx), want, ctx, ref_ctx)


def test_toeplitz_matmul_takes_plain_diagonals():
    rng = Lcg(9)
    t, Y = rng.complex_vector(3), [variables(rng.complex_vector(2)) for _ in range(2)]
    ctx, ref_ctx = CountContext(), CountContext()
    got, want = toeplitz_matmul(np.array(t), Y, ctx), toeplitz_matmul(variables(t), Y, ref_ctx)
    assert [[s.value for s in row] for row in got] == [[s.value for s in row] for row in want]
    assert ctx == ref_ctx


@pytest.mark.parametrize("bad, error, message", [
    ([1.0, "x"], TypeError, "expected a number, got str 'x'"),
    ([1.0, None], TypeError, "complex() first argument must be a string or a number, "
                             "not 'NoneType'"),
    ([variable(1.0), 2.0], None, None),                 # raw numbers among scalars are read
    ([1.0, [2.0]], TypeError, "complex() first argument must be a string or a number, "
                              "not 'list'"),
    (np.ones((2, 2)), ValueError, "expected one vector of length 2, got an operand of "
                                  "shape (2, 2)"),
    (np.array(["a", "b"]), TypeError, "expected a number, got str_ np.str_('a')"),
], ids=[f"bad{k}" for k in range(6)])
def test_a_kernel_operand_that_is_not_numbers_is_a_one_line_type_error(bad, error, message):
    M = structured(StructureKind.CIRCULANT, 2, [1, 2])
    if error is None:
        want = structured_matvec(M, variables([1, 2]), CountContext())
        assert circulant_matvec(bad, [1.0, 2.0], CountContext()) == want
        assert structured_matvec(M, bad, CountContext()) == want
        return
    for run in (lambda: circulant_matvec(bad, [1.0, 2.0], CountContext()),
                lambda: structured_matvec(M, bad, CountContext())):
        with pytest.raises(error) as caught:
            run()
        assert str(caught.value) == message
