"""Every input rule of the structure table is written once, in
structures.check_structure, and every entry point refuses a broken rule
with its message: the library as the table words it, the JSON reader as a
SchemaError at the field's position, the CLI as one error line with exit
code 2.  Also the kernels outside the table on plain numbers, and the
one-line errors of empty or missing operands, of a block given for a
product's x or for its parameters, of a 2x2 kernel's factors of another
shape, and of text given for numbers."""

import json
import warnings

import numpy as np
import pytest

from bilinear_kernels import (CountContext, LevelSpec, SchemaError, SparsityPattern,
                              StructureKind, StructuredMatrix, Tensor3, TrackedScalar,
                              TrackedVector, blocked_simultaneous, build_structure_tensor,
                              certify_rank, circulant_inverse, circulant_matvec, commutator_2x2,
                              complex_mul_decomposition, cu_matmul, cyclic_group,
                              d4_simultaneous, dft, dihedral8, extract_decomposition,
                              f_circulant_inverse, f_circulant_matvec, formula_count,
                              gauss_complex_mul, group_algebra_mul, idft, multilevel_matvec,
                              naive_matvec, param_count, parse_decomposition, parse_matrix,
                              parse_vector, root_table, scaled_dft, scaled_idft,
                              serialize_matrix, serialize_vector, structure_tensor, structured,
                              structured_matvec, symmetric_matvec, to_scalars, toeplitz_matmul,
                              toeplitz_matvec, tph_matvec, variables, x8_simultaneous)
from bilinear_kernels.cli import main
from bilinear_kernels.structures import InputError, check_structure

PATTERN = SparsityPattern(3, 3, ((0, 0), (1, 2)))
EMPTY, TOEPLITZ2 = LevelSpec("skew_symmetric", 1), LevelSpec("toeplitz", 2)


def _doc(**fields) -> str:
    return json.dumps({"data": [[1, 0]] * fields.pop("count", 5), **fields})


# One row per rule: its message, and the call that breaks it at each entry
# point the rule applies to (None where it does not).  The JSON reader's
# position is the key of the field at fault, or None when no one field is;
# the CLI's is the option's.
RULES = {
    "bad kind": dict(
        message="unknown kind 'wat'",
        structured=lambda: structured("wat", 3, [1] * 5),
        count=lambda: param_count("wat", 3),
        kernel=None,
        tensor=lambda: structure_tensor("wat", 3),
        json=(_doc(kind="wat", n=3), "kind"),
        cli=("verify --kind wat --n 3", "--kind")),
    "order 0": dict(
        message="order must be positive",
        structured=lambda: structured("toeplitz", 0, []),
        count=lambda: formula_count("toeplitz", 0),
        kernel=lambda: toeplitz_matvec([], [], CountContext()),
        tensor=lambda: structure_tensor("toeplitz", 0),
        json=(_doc(kind="toeplitz", n=0), "n"),
        cli=("tensor --kind toeplitz --n 0", "--n")),
    "order not an integer": dict(
        message="order must be an integer, got float 2.0",
        structured=lambda: structured("toeplitz", 2.0, [1, 2, 3]),
        count=lambda: param_count("toeplitz", 2.0),
        kernel=None,
        tensor=lambda: structure_tensor("toeplitz", 2.0),
        json=None,
        cli=None),
    "order a bool": dict(
        message="order must be an integer, got bool True",
        structured=lambda: structured("circulant", True, [1]),
        count=lambda: formula_count("circulant", True),
        kernel=None,
        tensor=lambda: structure_tensor("circulant", True),
        json=None,
        cli=None),
    "order 0 of an inverse": dict(
        message="order must be positive",
        structured=None,
        count=None,
        kernel=lambda: circulant_inverse([], CountContext()),
        tensor=None,
        json=None,
        cli=None),
    "order 0 of an f-circulant inverse": dict(
        message="order must be positive",
        structured=None,
        count=None,
        kernel=lambda: f_circulant_inverse([], 2, CountContext()),
        tensor=None,
        json=None,
        cli=None),
    "f on toeplitz": dict(
        message="toeplitz takes no f",
        structured=lambda: structured("toeplitz", 3, [1] * 5, f=2),
        count=None,
        kernel=None,
        tensor=lambda: structure_tensor("toeplitz", 3, f=2),
        json=(_doc(kind="toeplitz", n=3, f=[2, 0]), "f"),
        cli=("verify --kind toeplitz --n 3 --f 2", "--f")),
    "f = 0": dict(
        message="f_circulant needs a nonzero f",
        structured=lambda: structured("f_circulant", 3, [1] * 3, f=0),
        count=None,
        kernel=lambda: f_circulant_matvec([1, 2, 3], 0, [1, 2, 3], CountContext()),
        tensor=lambda: structure_tensor("f_circulant", 3, f=0),
        json=(_doc(kind="f_circulant", n=3, f=[0, 0], count=3), "f"),
        cli=("verify --kind f_circulant --n 3 --f 0", "--f")),
    "f not finite": dict(
        message="f_circulant needs a finite f",
        structured=lambda: structured("f_circulant", 3, [1] * 3, f=float("nan")),
        count=None,
        kernel=lambda: f_circulant_matvec([1, 2, 3], complex("inf"), [1, 2, 3], CountContext()),
        tensor=lambda: structure_tensor("f_circulant", 3, f=complex(1, float("nan"))),
        json=None,
        cli=("verify --kind f_circulant --n 3 --f nan", "--f")),
    "missing pattern": dict(
        message="sparse structure needs a pattern",
        structured=lambda: structured("sparse", 3, [1] * 2),
        count=lambda: param_count("sparse", 3),
        kernel=None,
        tensor=lambda: structure_tensor("sparse", 3),
        json=(_doc(kind="sparse", n=3, count=2), "omega"),
        cli=None),
    "pattern on toeplitz": dict(
        message="toeplitz takes no sparsity pattern",
        structured=lambda: structured("toeplitz", 3, [1] * 5, pattern=PATTERN),
        count=lambda: formula_count("toeplitz", 3, PATTERN),
        kernel=None,
        tensor=lambda: structure_tensor("toeplitz", 3, pattern=PATTERN),
        json=(_doc(kind="toeplitz", n=3, omega=[[0, 0], [1, 2]]), "omega"),
        cli=None),
    "levels on toeplitz": dict(
        message="toeplitz takes no levels",
        structured=lambda: structured("toeplitz", 2, [1] * 3, levels=(TOEPLITZ2,)),
        count=lambda: param_count("toeplitz", 2, levels=(TOEPLITZ2,)),
        kernel=None,
        tensor=None,
        json=(_doc(kind="toeplitz", n=2, levels=[{"kind": "toeplitz", "n": 2}], count=3),
              "levels"),
        cli=("verify --kind toeplitz --n 2 --levels toeplitz:2", "--levels")),
    "level without parameters": dict(
        message="level skew_symmetric of order 1 has no parameters",
        structured=lambda: structured("multilevel", 2, [], levels=(EMPTY, TOEPLITZ2)),
        count=lambda: formula_count("multilevel", 2, levels=(EMPTY, TOEPLITZ2)),
        kernel=None,
        tensor=None,
        json=(_doc(kind="multilevel", n=2, count=0, levels=[
            {"kind": "skew_symmetric", "n": 1}, {"kind": "toeplitz", "n": 2}]), None),
        cli=("verify --kind multilevel --levels skew_symmetric:1,toeplitz:2", None)),
    "structure without parameters": dict(
        message="skew_symmetric of order 1 has no parameters",
        structured=lambda: structured("multilevel", 1, [], levels=(EMPTY,)),
        count=lambda: formula_count("multilevel", 1, levels=(EMPTY,)),
        kernel=None,
        tensor=lambda: structure_tensor("skew_symmetric", 1),
        json=(_doc(kind="multilevel", n=1, count=0, levels=[{"kind": "skew_symmetric", "n": 1}]),
              None),
        cli=("tensor --kind skew_symmetric --n 1", None)),
    "level-order mismatch": dict(
        message="multilevel order 5 != product of level orders 2",
        structured=lambda: structured("multilevel", 5, [1] * 3, levels=(TOEPLITZ2,)),
        count=lambda: param_count("multilevel", 5, levels=(TOEPLITZ2,)),
        kernel=None,
        tensor=None,
        json=(_doc(kind="multilevel", n=5, count=3, levels=[{"kind": "toeplitz", "n": 2}]),
              "n"),
        cli=("verify --kind multilevel --n 5 --levels toeplitz:2", "--n")),
    "wrong parameter count": dict(
        message="toeplitz of order 2 needs 3 parameters, got 1",
        structured=lambda: structured("toeplitz", 2, [1]),
        count=None,
        kernel=lambda: toeplitz_matvec([1], [1, 2], CountContext()),
        tensor=None,
        json=(_doc(kind="toeplitz", n=2, count=1), "data"),
        cli=None),
}
CASES = [(rule, point) for rule, row in RULES.items()
         for point in ("structured", "count", "kernel", "tensor", "json", "cli")
         if row[point] is not None]


@pytest.mark.parametrize("rule, point", CASES)
def test_every_entry_point_refuses_each_rule_with_its_message(capsys, rule, point):
    row = RULES[rule]
    message = row["message"]
    if point == "json":
        text, key = row["json"]
        error = SchemaError if key else ValueError
        with pytest.raises(error) as caught:
            parse_matrix(text)
        assert str(caught.value) == (f"{key}: {message}" if key else message)
    elif point == "cli":
        argv, option = row["cli"]
        assert main(argv.split()) == 2
        captured = capsys.readouterr()
        where = f"{option}: " if option else ""
        assert (captured.out, captured.err) == ("", f"error: {where}{message}\n")
    else:
        with pytest.raises(ValueError) as caught:
            row[point]()
        assert str(caught.value) == message and isinstance(caught.value, InputError)


def test_a_level_rule_names_its_level():
    levels = (TOEPLITZ2, LevelSpec("f_circulant", 2, 0))
    with pytest.raises(InputError) as caught:
        check_structure("multilevel", 4, levels=levels)
    assert (str(caught.value), caught.value.field, caught.value.level) == (
        "f_circulant needs a nonzero f", "f", 1)
    text = _doc(kind="multilevel", n=4, count=6, levels=[
        {"kind": "toeplitz", "n": 2}, {"kind": "f_circulant", "n": 2, "f": [0, 0]}])
    with pytest.raises(SchemaError, match=r"^levels\[1\]\.f: f_circulant needs a nonzero f$"):
        parse_matrix(text)


def test_a_level_order_that_is_not_an_integer_names_its_level():
    for bad in (2.0, True, "2", None):
        levels = (TOEPLITZ2, LevelSpec("toeplitz", bad))
        with pytest.raises(InputError) as caught:
            check_structure("multilevel", None, levels=levels)
        assert (caught.value.field, caught.value.level) == ("n", 1)
    with pytest.raises(InputError, match="^order must be an integer, got float 4.0$"):
        check_structure("multilevel", 4.0, levels=(TOEPLITZ2, TOEPLITZ2))


def test_an_order_equal_to_a_kept_one_is_still_refused():
    """A check is kept per structure, and 2.0 == 2 and True == 1: a kept
    check of the int order must not pass the float or the bool."""
    assert param_count("toeplitz", 2) == 3 and param_count("circulant", 1) == 1
    for _ in range(2):
        with pytest.raises(InputError, match="^order must be an integer, got float 2.0$"):
            param_count("toeplitz", 2.0)
        with pytest.raises(InputError, match="^order must be an integer, got bool True$"):
            check_structure("circulant", True, size=1)
    check_structure("multilevel", 4, levels=(TOEPLITZ2, TOEPLITZ2))
    with pytest.raises(InputError, match="^order must be an integer, got float 2.0$"):
        check_structure("multilevel", 4, levels=(TOEPLITZ2, LevelSpec("toeplitz", 2.0)))


@pytest.mark.parametrize("order", [np.int64(2), np.int32(2), np.uint8(2)])
def test_an_integer_order_of_another_type_is_read_as_a_plain_int(order):
    M = structured("toeplitz", order, [1, 2, 3])
    assert type(M.n) is int and type(M.levels[0].n) is int
    assert type(param_count("toeplitz", order)) is int
    assert parse_matrix(serialize_matrix(M)) == M
    L = structured("multilevel", None, range(9), levels=(LevelSpec("toeplitz", order),
                                                         LevelSpec("circulant", np.int64(3))))
    assert type(L.n) is int and all(type(lev.n) is int for lev in L.levels)
    assert parse_matrix(serialize_matrix(L)) == L
    assert structure_tensor("toeplitz", order).entries.shape == (3, 2, 2)


def test_the_counts_take_no_f_and_a_matrix_needs_its_own():
    """A count describes a kind at an order and takes no f; parameters
    given need the f their kind takes."""
    assert param_count("f_circulant", 3) == formula_count("f_circulant", 3) == 3
    with pytest.raises(InputError, match="^f_circulant needs a nonzero f$"):
        structured("f_circulant", 3, [1, 2, 3])
    with pytest.raises(SchemaError, match="^f: f_circulant needs a nonzero f$"):
        parse_matrix(_doc(kind="f_circulant", n=3, count=3))


def test_a_multilevel_order_not_given_is_its_levels_product():
    levels = (TOEPLITZ2, LevelSpec("circulant", 3))
    M = structured("multilevel", None, range(9), levels=levels)
    assert M.n == 6 and M == structured("multilevel", 6, range(9), levels=levels)
    assert check_structure("multilevel", None, levels=levels) == (
        StructureKind.MULTILEVEL, 6, 9, 9)


# ---------------------------------------------------------------------------
# Fields the JSON reader used to drop
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("extra, message", [
    ({"f": [2, 0]}, "f: toeplitz takes no f"),
    ({"levels": [{"kind": "toeplitz", "n": 1}]}, "levels: toeplitz takes no levels"),
    ({"omega": [[0, 0]]}, "omega: toeplitz takes no sparsity pattern"),
])
def test_the_reader_refuses_a_field_the_kind_does_not_take(extra, message):
    with pytest.raises(SchemaError, match=f"^{message}$"):
        parse_matrix(json.dumps({"kind": "toeplitz", "n": 1, "data": [[1, 0]], **extra}))
    M = parse_matrix('{"kind":"toeplitz","n":1,"data":[[1,0]]}')
    assert parse_matrix(serialize_matrix(M)) == M


# ---------------------------------------------------------------------------
# One-line errors of empty or missing operands
# ---------------------------------------------------------------------------

def test_toeplitz_matmul_of_empty_operands_is_its_shape_error():
    with pytest.raises(ValueError, match="^toeplitz_matmul expects 2n-1 diagonals and an "
                                         "n x n factor$"):
        toeplitz_matmul([], [], CountContext())


def test_toeplitz_matmul_of_a_block_of_diagonals_is_its_shape_error():
    ctx = CountContext()
    with pytest.raises(ValueError, match=r"^expected one vector of length 3, got an operand "
                                         r"of shape \(3, 2\)$"):
        toeplitz_matmul(TrackedVector(np.ones((3, 2)), None), [[1, 2], [3, 4]], ctx)
    assert ctx == CountContext()


def test_f_circulant_inverse_without_f_gives_the_tables_message():
    for f in (None, 0):
        with pytest.raises(InputError, match="^f_circulant needs a nonzero f$"):
            f_circulant_inverse(variables([1, 2]), f, CountContext())
    with pytest.raises(InputError, match="^f_circulant needs a finite f$") as caught:
        f_circulant_inverse(variables([1, 2]), float("inf"), CountContext())
    assert caught.value.field == "f"


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(1, float("-inf"))])
@pytest.mark.parametrize("kind, inverse", [
    ("circulant", lambda c, ctx: circulant_inverse(c, ctx)),
    ("f_circulant", lambda c, ctx: f_circulant_inverse(c, 2.0, ctx))])
def test_an_inverse_refuses_non_finite_parameters_before_any_transform(kind, inverse, bad):
    for form in (lambda c: c, variables):
        ctx = CountContext()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^{kind} parameters \[1, 3\] are not finite$"):
                inverse(form([4, bad, 1, bad]), ctx)
        assert ctx == CountContext()


@pytest.mark.parametrize("certify", [certify_rank, structure_tensor])
def test_the_tensor_chain_of_a_structure_without_parameters_gives_the_tables_message(certify):
    with pytest.raises(InputError, match="^skew_symmetric of order 1 has no parameters$"):
        certify("skew_symmetric", 1)
    assert len(extract_decomposition("skew_symmetric", 1)) == 0


# ---------------------------------------------------------------------------
# The kernels outside the structure table on plain numbers
# ---------------------------------------------------------------------------

def _values(out):
    """The values of a kernel's output: scalars, or lists or tuples of them."""
    return out.value if isinstance(out, TrackedScalar) else [_values(part) for part in out]


def _grid(rows):
    return [variables(row) for row in rows]


A, B = [[1, 2j], [3, -4]], [[5, 6], [7j, 8]]
WIDE = [[1, 2, 3, 4], [5, 6, 7, 8]]
PLAIN_CALLS = [
    ("gauss", lambda form, ctx: gauss_complex_mul(*form([1, 2, 3, 4]), ctx)),
    ("commutator", lambda form, ctx: commutator_2x2(form(A), form(B), ctx)),
    ("d4", lambda form, ctx: d4_simultaneous(form(A), form(B), ctx)),
    ("x8", lambda form, ctx: x8_simultaneous(form(A), form(B), ctx)),
    ("blocked", lambda form, ctx: blocked_simultaneous(form(A), form(WIDE), "g", ctx)),
    ("matmul", lambda form, ctx: toeplitz_matmul(form([1, 2, 3]), form(A), ctx)),
    ("dft", lambda form, ctx: dft(form([1, 2, 3]), ctx)),
    ("idft", lambda form, ctx: idft(form([1, 2, 3]), ctx)),
    ("scaled_dft", lambda form, ctx: scaled_dft(form([1, 2, 3]), 2j, ctx)),
    ("scaled_idft", lambda form, ctx: scaled_idft(form([1, 2, 3]), 2j, ctx)),
    ("group_algebra_mul",
     lambda form, ctx: group_algebra_mul(cyclic_group(2), form([1, 2]), form([3j, 4]), ctx)),
    ("cu_matmul",
     lambda form, ctx: cu_matmul(dihedral8(), (4, 0), (6, 0), (7, 0), form(A), form(B), ctx)),
]


def _tracked(x):
    return _grid(x) if isinstance(x[0], list) else variables(x)


def _numpy_floats(x):
    return [list(map(np.float64, np.real(row))) for row in x] if isinstance(x[0], list) \
        else list(map(np.float64, np.real(x)))


@pytest.mark.parametrize("name, call", PLAIN_CALLS)
@pytest.mark.parametrize("form", [lambda x: x, np.array])
def test_a_kernel_outside_the_table_takes_plain_numbers(name, call, form):
    ctx, ref_ctx = CountContext(), CountContext()
    assert _values(call(form, ctx)) == _values(call(_tracked, ref_ctx))
    assert ctx == ref_ctx


@pytest.mark.parametrize("name, call", PLAIN_CALLS)
def test_numpy_scalars_read_as_numbers(name, call):
    ctx, ref_ctx = CountContext(), CountContext()
    want = call(lambda x: _tracked(_numpy_floats(x)), ref_ctx)
    assert _values(call(_numpy_floats, ctx)) == _values(want)


@pytest.mark.parametrize("bad", [[["a", 2], [3, 4]], [[variables([1])[0], 2], [3, 4]]])
def test_a_grid_that_is_not_numbers_is_a_one_line_type_error(bad):
    if isinstance(bad[0][0], TrackedScalar):        # raw numbers among scalars are read
        want = commutator_2x2([variables(row) for row in [[1, 2], [3, 4]]], B, CountContext())
        assert commutator_2x2(bad, B, CountContext()) == want
        return
    with pytest.raises(TypeError) as caught:
        commutator_2x2(bad, B, CountContext())
    assert "\n" not in str(caught.value)


# ---------------------------------------------------------------------------
# A product's x is one vector, and text is not a number
# ---------------------------------------------------------------------------

def _block(rows, marked: bool) -> TrackedVector:
    """The block whose columns are vectors, as one TrackedVector of shape
    (n, B): with the all-Variable marker or with explicit flags."""
    values = np.array(rows, dtype=complex).T
    return TrackedVector(values, None if marked else np.ones(values.shape, dtype=bool))


BLOCK_CALLS = {
    "toeplitz_matvec": (2, lambda x, ctx: toeplitz_matvec([1, 2, 3], x, ctx)),
    "toeplitz structured_matvec":
        (2, lambda x, ctx: structured_matvec(structured("toeplitz", 2, [1, 2, 3]), x, ctx)),
    "toeplitz naive_matvec":
        (2, lambda x, ctx: naive_matvec(structured("toeplitz", 2, [1, 2, 3]), x, ctx)),
    "circulant_matvec": (3, lambda x, ctx: circulant_matvec([1, 2, 3], x, ctx)),
    "circulant structured_matvec":
        (3, lambda x, ctx: structured_matvec(structured("circulant", 3, [1, 2, 3]), x, ctx)),
    "circulant naive_matvec":
        (3, lambda x, ctx: naive_matvec(structured("circulant", 3, [1, 2, 3]), x, ctx)),
    "dense naive_matvec": (2, lambda x, ctx: naive_matvec([[1, 2], [3, 4]], x, ctx)),
}


@pytest.mark.parametrize("marked", [True, False])
@pytest.mark.parametrize("call", BLOCK_CALLS)
def test_a_block_operand_is_refused_with_its_shape(call, marked):
    n, run = BLOCK_CALLS[call]
    x = _block([list(range(1 + k * n, 1 + (k + 1) * n)) for k in range(3)], marked)
    ctx = CountContext()
    with pytest.raises(ValueError, match=rf"^expected one vector of length {n}, got an "
                                         rf"operand of shape \({n}, 3\)$"):
        run(x, ctx)
    assert ctx == CountContext()
    assert len(run(x.values[:, 0], ctx)) == n       # one of its columns is a vector


TEXT_CALLS = {
    "str operand": (lambda: circulant_matvec("12", "34", CountContext()),
                    "expected a sequence of tracked scalars or numbers, got str '12'"),
    "bytes operand": (lambda: circulant_matvec([1, 2], b"34", CountContext()),
                      "expected a sequence of tracked scalars or numbers, got bytes b'34'"),
    "str items": (lambda: circulant_matvec(["1", "2"], [3, 4], CountContext()),
                  "expected a number, got str '1'"),
    "numpy str items": (lambda: toeplitz_matvec([1, 2, 3], np.array(["3", "4"]), CountContext()),
                        "expected a number, got str_ np.str_('3')"),
    "naive str x": (lambda: naive_matvec(structured("circulant", 2, [1, 2]), ["3", "4"],
                                         CountContext()),
                    "expected a number, got str '3'"),
    "structured str items": (lambda: structured("circulant", 2, ["1", "2"]),
                             "expected a number, got str '1'"),
    "structured str among scalars": (lambda: structured("circulant", 2, [variables([1])[0], "2"]),
                                     "expected a number, got str '2'"),
    "structured str data": (lambda: structured("circulant", 2, "12"),
                            "expected a sequence of tracked scalars or numbers, got str '12'"),
    "structured bytes data":
        (lambda: structured("circulant", 2, b"12"),
         "expected a sequence of tracked scalars or numbers, got bytes b'12'"),
    "group str operand": (lambda: group_algebra_mul(cyclic_group(2), "12", [3, 4],
                                                    CountContext()),
                          "expected a sequence of tracked scalars or numbers, got str '12'"),
    "group str items": (lambda: group_algebra_mul(cyclic_group(2), [1, 2], ["3", "4"],
                                                  CountContext()),
                        "expected a number, got str '3'"),
    "cu_matmul str grid": (lambda: cu_matmul(dihedral8(), (4, 0), (6, 0), (7, 0),
                                             [["1", 2], [3, 4]], B, CountContext()),
                           "expected a number, got str '1'"),
}


@pytest.mark.parametrize("call", TEXT_CALLS)
def test_text_is_not_a_number(call):
    run, message = TEXT_CALLS[call]
    with pytest.raises(TypeError) as caught:
        run()
    assert str(caught.value) == message


# ---------------------------------------------------------------------------
# A kernel's parameters are one vector, and a 2x2 kernel takes 2x2 factors
# ---------------------------------------------------------------------------

NINE, TWELVE = [[1, 2, 3], [4, 5, 6], [7, 8, 9]], [[1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11, 12]]
# Per call: the block's rows (its columns as vectors, _block) and the call
# that takes the block for its parameters.
PARAMETER_CALLS = {
    "toeplitz_matvec": (NINE, lambda p, ctx: toeplitz_matvec(p, [1, 2], ctx)),
    "circulant_matvec": (NINE, lambda p, ctx: circulant_matvec(p, [1, 2, 3], ctx)),
    "f_circulant_matvec": (NINE, lambda p, ctx: f_circulant_matvec(p, 2, [1, 2, 3], ctx)),
    "symmetric_matvec": (NINE, lambda p, ctx: symmetric_matvec(p, [1, 2], ctx)),
    "tph_matvec t": (TWELVE, lambda p, ctx: tph_matvec(p, [1, 2, 3, 4], [1, 2, 3], ctx)),
    "tph_matvec h": (TWELVE, lambda p, ctx: tph_matvec([1, 2, 3, 4], p, [1, 2, 3], ctx)),
    "tph_matvec t and h": (TWELVE, lambda p, ctx: tph_matvec(p, p, [1, 2, 3], ctx)),
    "circulant_inverse": (NINE, lambda p, ctx: circulant_inverse(p, ctx)),
    "f_circulant_inverse": (NINE, lambda p, ctx: f_circulant_inverse(p, 2, ctx)),
}


@pytest.mark.parametrize("marked", [True, False])
@pytest.mark.parametrize("call", PARAMETER_CALLS)
def test_a_block_of_parameters_is_refused_with_its_shape(call, marked):
    rows, run = PARAMETER_CALLS[call]
    p = _block(rows, marked)
    n, k = p.values.shape
    ctx = CountContext()
    with pytest.raises(ValueError, match=rf"^expected one vector of length {n}, got an "
                                         rf"operand of shape \({n}, {k}\)$"):
        run(p, ctx)
    assert ctx == CountContext()


@pytest.mark.parametrize("factor", [[[1, 2, 3, 4]], NINE, [[1, 2, 3], [4, 5, 6]]])
def test_the_commutator_refuses_a_factor_that_is_not_2x2(factor):
    for pair in ((factor, B), (A, factor), (_grid(factor), _grid(B))):
        ctx = CountContext()
        with pytest.raises(ValueError, match="^commutator_2x2 expects 2x2 factors$"):
            commutator_2x2(*pair, ctx)
        assert ctx == CountContext()


# ---------------------------------------------------------------------------
# The readers' refusals, and the shape refusals of the kernels and builders
# outside the table: each one line
# ---------------------------------------------------------------------------

_SPARSE2 = '{"kind": "sparse", "n": 2, "omega": %s, "data": [[1, 0], [1, 0]]}'
_MULTI4 = '{"kind": "multilevel", "n": 4, "levels": %s, "data": []}'
_TERM = '{"dims": [1, 1, 1], "terms": [%s]}'
READER_REFUSALS = {
    "matrix not JSON": (lambda: parse_matrix("{"),
                        "offset 1: invalid JSON (Expecting property name enclosed in double "
                        "quotes)"),
    "matrix not an object": (lambda: parse_matrix("[]"), "top level: expected an object"),
    "matrix without data": (lambda: parse_matrix('{"kind": "toeplitz", "n": 2}'),
                            "top level: missing 'data'"),
    "matrix order not an integer": (lambda: parse_matrix(_doc(kind="toeplitz", n=2.0)),
                                    "n: expected an integer"),
    "pattern not a list": (lambda: parse_matrix(_SPARSE2 % "3"),
                           "omega: expected a list of [i, j] pairs"),
    "pattern pair not integers": (lambda: parse_matrix(_SPARSE2 % "[[0, 1.5]]"),
                                  "omega[0]: expected [i, j] with integer indices"),
    "pattern entry outside": (lambda: parse_matrix(_SPARSE2 % "[[0, 2], [1, 1]]"),
                              "omega: pattern entry (0,2) outside 2x2"),
    "pattern entry twice": (lambda: parse_matrix(_SPARSE2 % "[[0, 1], [0, 1]]"),
                            "omega: duplicate pattern entry (0,1)"),
    "levels not a list": (lambda: parse_matrix(_MULTI4 % "3"), "levels: expected a list"),
    "level without n": (lambda: parse_matrix(_MULTI4 % '[{"kind": "toeplitz"}]'),
                        "levels[0]: expected an object with kind and n"),
    "level order not an integer":
        (lambda: parse_matrix(_MULTI4 % '[{"kind": "toeplitz", "n": "2"}]'),
         "levels[0].n: expected an integer"),
    "data not a list": (lambda: parse_matrix('{"kind": "toeplitz", "n": 2, "data": 3}'),
                        "data: expected a list"),
    "vector not JSON": (lambda: parse_vector("{"),
                        "offset 1: invalid JSON (Expecting property name enclosed in double "
                        "quotes)"),
    "vector without data": (lambda: parse_vector('{"n": 2}'),
                            "top level: expected an object with n and data"),
    "vector order 0": (lambda: parse_vector('{"n": 0, "data": []}'),
                       "n: expected a positive integer"),
    "vector data not a list": (lambda: parse_vector('{"n": 2, "data": 3}'),
                               "data: expected 2 entries"),
    "decomposition not JSON": (lambda: parse_decomposition("{"),
                               "offset 1: invalid JSON (Expecting property name enclosed in "
                               "double quotes)"),
    "decomposition without terms": (lambda: parse_decomposition('{"dims": [1, 1, 1]}'),
                                    "top level: expected an object with dims and terms"),
    "dims not positive": (lambda: parse_decomposition('{"dims": [1, 0, 1], "terms": []}'),
                          "dims: expected three positive integers"),
    "terms not a list": (lambda: parse_decomposition('{"dims": [1, 1, 1], "terms": {}}'),
                         "terms: expected a list"),
    "term without factors": (lambda: parse_decomposition(_TERM % '{"lambda": [1, 0]}'),
                             "terms[0]: expected an object with lambda, u, v, w"),
    "factor not a list":
        (lambda: parse_decomposition(_TERM % '{"lambda": [1, 0], "u": 3, "v": [], "w": []}'),
         "terms[0].u: expected a list of [re, im]"),
}


@pytest.mark.parametrize("row", READER_REFUSALS)
def test_each_reader_refusal_is_a_schema_error_at_its_position(row):
    read, message = READER_REFUSALS[row]
    with pytest.raises(SchemaError) as caught:
        read()
    assert str(caught.value) == message


SQUARE = [[1, 2], [3, 4]]
SHAPE_REFUSALS = {
    "tph of unequal lengths": (lambda: tph_matvec([1, 2, 3], [1, 2, 3, 4, 5], [1, 2],
                                                  CountContext()),
                               "tph needs as many anti-diagonals as diagonals, got 5 and 3"),
    "multilevel product of one level":
        (lambda: multilevel_matvec(structured("toeplitz", 2, [1, 2, 3]), [1, 2], CountContext()),
         "multilevel_matvec expects a multilevel matrix"),
    "group algebra product of the wrong length":
        (lambda: group_algebra_mul(cyclic_group(3), [1, 2], [1, 2, 3], CountContext()),
         "coefficient vectors must have length equal to the group order"),
    "blocked variant": (lambda: blocked_simultaneous(SQUARE, SQUARE, "h", CountContext()),
                        "variant must be 'f' or 'g'"),
    "blocked shape": (lambda: blocked_simultaneous(NINE, SQUARE, "f", CountContext()),
                      "blocked_simultaneous expects a 2x2 A and a 2-row B"),
    "blocked odd columns": (lambda: blocked_simultaneous(SQUARE, NINE[:2], "g", CountContext()),
                            "B must have an even number of columns"),
    "matmul tensor without m and p": (lambda: build_structure_tensor("matmul", n=2),
                                      "matmul tensor needs m, n, p"),
    "unknown complex product preset": (lambda: complex_mul_decomposition("nope"),
                                       "unknown preset 'nope' (expected usual, gauss, or cube)"),
    "tensor with an empty dimension": (lambda: Tensor3(np.zeros((1, 0, 2))),
                                       "tensor dims must be positive"),
    "root table of order 0": (lambda: root_table(0), "root table needs n >= 1"),
    "commutator factor of grids": (lambda: commutator_2x2([[[1, 2]] * 2] * 2, SQUARE,
                                                          CountContext()),
                                   "expected a grid, got an operand of shape (2, 2, 2)"),
    "toeplitz_matmul block of arrays": (lambda: toeplitz_matmul([1, 2, 3], np.ones((2, 2, 3)),
                                                                CountContext()),
                                        "expected a grid, got an operand of shape (2, 2, 3)"),
}


@pytest.mark.parametrize("row", SHAPE_REFUSALS)
def test_each_shape_refusal_is_a_one_line_value_error(row):
    run, message = SHAPE_REFUSALS[row]
    with pytest.raises(ValueError) as caught:
        run()
    assert str(caught.value) == message


# ---------------------------------------------------------------------------
# One rule reads every vector operand (counting.as_vector)
# ---------------------------------------------------------------------------

V3, C3 = [2, 1 + 1j, -1], [1, 2, 3]

# Each entry point with its vector operand v of length 3 (its other
# operands fixed), run on ctx.
VECTOR_READERS = {
    "structured data": lambda v, ctx: structured_matvec(structured("circulant", 3, v), C3, ctx),
    "StructuredMatrix data": lambda v, ctx: StructuredMatrix(StructureKind.CIRCULANT, 3, v),
    "kernel parameters": lambda v, ctx: circulant_matvec(v, C3, ctx),
    "kernel x": lambda v, ctx: circulant_matvec(C3, v, ctx),
    "tph t": lambda v, ctx: tph_matvec(v, C3, [1, 2], ctx),
    "tph h": lambda v, ctx: tph_matvec(C3, v, [1, 2], ctx),
    "circulant_inverse": lambda v, ctx: circulant_inverse(v, ctx),
    "structured_matvec x":
        lambda v, ctx: structured_matvec(structured("circulant", 3, C3), v, ctx),
    "naive_matvec x": lambda v, ctx: naive_matvec(structured("circulant", 3, C3), v, ctx),
    "dft": lambda v, ctx: dft(v, ctx),
    "group_algebra_mul": lambda v, ctx: group_algebra_mul(cyclic_group(3), v, C3, ctx),
    "toeplitz_matmul t": lambda v, ctx: toeplitz_matmul(v, [[1, 2], [3, 4]], ctx),
    "serialize_vector": lambda v, ctx: serialize_vector(v),
}

VECTOR_FORMS = {
    "tracked scalars": lambda: variables(V3),
    "plain numbers": lambda: list(V3),
    "1-D array": lambda: np.array(V3),
    "scalars mixed with numbers": lambda: [variables(V3)[0], *V3[1:]],
    "2-D array": lambda: np.ones((3, 2)),
    "0-d array": lambda: np.array(2.0),
    "TrackedVector block": lambda: TrackedVector(np.ones((3, 2), dtype=complex), None),
    "text": lambda: "123",
    "text among numbers": lambda: [2, "1", -1],
    "1-D object array of tracked scalars": lambda: np.array(variables(V3), dtype=object),
    "0-d text array": lambda: np.array("12"),
    "2-D text array": lambda: np.array([["1", "2"]] * 3),
    "2-D object array": lambda: np.array([[1, None]] * 3, dtype=object),
    "2-D object array of tracked scalars":
        lambda: np.array(variables(V3 * 2), dtype=object).reshape(3, 2),
    "nested list": lambda: [[1, 2], [3, 4], [5, 6]],
    "ragged nested list": lambda: [[1, [2, 3]], [4, 5], [6, 7]],
    "list of arrays": lambda: [np.ones(2)] * 3,
}

# The refused forms, each with its error at every entry point; every other
# form is read as the tracked scalars are.
VECTOR_REFUSALS = {
    "2-D array": (ValueError, "expected one vector of length 3, got an operand of shape (3, 2)"),
    "0-d array": (ValueError, "expected one vector, got an operand of shape ()"),
    "TrackedVector block":
        (ValueError, "expected one vector of length 3, got an operand of shape (3, 2)"),
    "text": (TypeError, "expected a sequence of tracked scalars or numbers, got str '123'"),
    "text among numbers": (TypeError, "expected a number, got str '1'"),
    "0-d text array": (ValueError, "expected one vector, got an operand of shape ()"),
    "2-D text array":
        (ValueError, "expected one vector of length 3, got an operand of shape (3, 2)"),
    "2-D object array":
        (ValueError, "expected one vector of length 3, got an operand of shape (3, 2)"),
    "2-D object array of tracked scalars":
        (ValueError, "expected one vector of length 3, got an operand of shape (3, 2)"),
    "nested list": (ValueError, "expected one vector of length 3, got an operand of shape (3, 2)"),
    "ragged nested list":
        (ValueError, "expected one vector of length 3, got an operand of shape (3, 2)"),
    "list of arrays":
        (ValueError, "expected one vector of length 3, got an operand of shape (3, 2)"),
}


def _read(out):
    """A result as comparable values: a vector as its scalars."""
    return to_scalars(out) if isinstance(out, TrackedVector) else out


@pytest.mark.parametrize("form", VECTOR_FORMS)
@pytest.mark.parametrize("reader", VECTOR_READERS)
def test_every_vector_operand_is_read_by_one_rule(reader, form):
    run = VECTOR_READERS[reader]
    ref_ctx, ctx = CountContext(), CountContext()
    want = _read(run(variables(V3), ref_ctx))
    if form not in VECTOR_REFUSALS:
        assert _read(run(VECTOR_FORMS[form](), ctx)) == want
        assert ctx == ref_ctx
        return
    error, message = VECTOR_REFUSALS[form]
    with pytest.raises(error) as caught:
        run(VECTOR_FORMS[form](), ctx)
    assert (type(caught.value), str(caught.value)) == (error, message)
    assert ctx == CountContext()


@pytest.mark.parametrize("transform", [dft, idft, lambda v, ctx: scaled_dft(v, 2, ctx),
                                       lambda v, ctx: scaled_idft(v, 2, ctx)],
                         ids=["dft", "idft", "scaled_dft", "scaled_idft"])
def test_a_transform_refuses_a_block_with_its_shape(transform):
    ctx = CountContext()
    with pytest.raises(ValueError, match=r"^expected one vector of length 4, got an operand "
                                         r"of shape \(4, 2\)$"):
        transform(np.ones((4, 2)), ctx)
    assert ctx == CountContext()
