"""Every input rule of the structure table is written once, in
structures.check_structure, and every entry point refuses a broken rule
with its message: the library as the table words it, the JSON reader as a
SchemaError at the field's position, the CLI as one error line with exit
code 2.  Also the kernels outside the table on plain numbers, and the
one-line errors of empty or missing operands."""

import json

import numpy as np
import pytest

from bilinear_kernels import (CountContext, LevelSpec, SchemaError, SparsityPattern,
                              StructureKind, TrackedScalar, blocked_simultaneous, certify_rank,
                              commutator_2x2, d4_simultaneous, dft, extract_decomposition,
                              f_circulant_inverse, f_circulant_matvec, formula_count,
                              gauss_complex_mul, idft, param_count, parse_matrix, scaled_dft,
                              scaled_idft, serialize_matrix, structure_tensor, structured,
                              toeplitz_matmul, toeplitz_matvec, variables, x8_simultaneous)
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


def test_f_circulant_inverse_without_f_gives_the_tables_message():
    for f in (None, 0):
        with pytest.raises(InputError, match="^f_circulant needs a nonzero f$"):
            f_circulant_inverse(variables([1, 2]), f, CountContext())
    with pytest.raises(InputError, match="^f_circulant needs a finite f$") as caught:
        f_circulant_inverse(variables([1, 2]), float("inf"), CountContext())
    assert caught.value.field == "f"


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
    with pytest.raises(TypeError) as caught:
        commutator_2x2(bad, B, CountContext())
    assert "\n" not in str(caught.value)
