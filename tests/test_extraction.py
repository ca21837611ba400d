"""The extraction lane's pointwise product on hand-made linear-form rows.

A recorder over P = 2 parameters and n = 2 inputs with capacity c lays a
row out as [p0, p1, x0, x1, const, product_0 .. product_{c-1}].
"""

import numpy as np
import pytest

from bilinear_kernels.counting import TrackedVector
from bilinear_kernels.extraction import _Recorder

P0 = [1, 0, 0, 0, 0]          # parameter 0
P1 = [0, 1, 0, 0, 0]          # parameter 1
X0 = [0, 0, 1, 0, 0]          # input 0
X1 = [0, 0, 0, 1, 0]          # input 1
CONST = [0, 0, 0, 0, 3]       # the constant 3


def rows(capacity, *row_list):
    """Rows padded with zero product coordinates up to the recorder width."""
    arr = np.zeros((len(row_list), 5 + capacity), dtype=complex)
    for i, row in enumerate(row_list):
        arr[i, :len(row)] = row
    return arr


def pointwise(capacity, u_rows, v_rows, u_var, v_var):
    rec = _Recorder(2, 2, capacity)
    u = TrackedVector(rows(capacity, *u_rows), np.array(u_var))
    v = TrackedVector(rows(capacity, *v_rows), np.array(v_var))
    return rec.pointwise(u, v, u.variable & v.variable)


@pytest.mark.parametrize("u_row, v_row, message", [
    ([1, 0, 0, 0, 0.5], X0, "not linear in the inputs"),
    (P0, [0, 0, 1, 0, 0, 2], "not linear in the inputs"),
    ([1, 0, 1, 0, 0], X0, "mixes parameter and input coordinates"),
    (P0, [0, 1, 0, 1, 0], "mixes parameter and input coordinates"),
    (P0, P1, "one parameter-side and one input-side operand"),
    (X0, X1, "one parameter-side and one input-side operand"),
])
def test_refuses_a_bad_bilinear_operand(u_row, v_row, message):
    with pytest.raises(ValueError, match=message):
        pointwise(1, [u_row], [v_row], [True], [True])


def test_refuses_more_products_than_its_capacity():
    with pytest.raises(ValueError, match="recorder capacity exceeded"):
        pointwise(1, [P0, P1], [X0, X1], [True, True], [True, True])


@pytest.mark.parametrize("u_row, v_row, u_var, v_var", [
    (P0, [0, 0, 1, 0, 3], True, False),
    ([0, 0, 0, 0, 3, 1], X0, False, True),
    (CONST, [1, 0, 0, 0, 3], False, False),
])
def test_refuses_a_constant_operand_with_other_coordinates(u_row, v_row, u_var, v_var):
    with pytest.raises(ValueError, match="constant operand carries non-constant coordinates"):
        pointwise(1, [u_row], [v_row], [u_var], [v_var])


def test_first_refused_entry_decides_the_message():
    with pytest.raises(ValueError, match="one parameter-side"):
        pointwise(2, [P0, [1, 0, 0, 0, 1]], [P1, X0], [True, True], [True, True])


def test_products_and_constant_scalings():
    out = pointwise(2, [X1, [2, 1, 0, 0, 0], CONST, CONST, P1],
                    [P0, CONST, X0, CONST, X1],
                    [True, True, False, False, True], [True, False, True, False, True])
    want = rows(2, [0, 0, 0, 0, 0, 1],    # first product
                [6, 3, 0, 0, 0],          # (2 p0 + p1) * 3
                [0, 0, 3, 0, 0],          # 3 * x0
                [0, 0, 0, 0, 9],          # 3 * 3
                [0, 0, 0, 0, 0, 0, 1])    # second product
    assert np.array_equal(out.values, want)
    assert out.variable.tolist() == [True, True, True, False, True]


def test_small_residues_count_as_zero():
    out = pointwise(1, [[1, 1e-13, 1e-13, 0, 1e-13]], [X0], [True], [True])
    assert np.array_equal(out.values, rows(1, [0, 0, 0, 0, 0, 1]))
