import functools
import itertools

import numpy as np
import pytest

from bilinear_kernels import (CountContext, GroupAlgebraElement, GroupTable, blocked_simultaneous,
                              constant, cu_matmul, cyclic_group, d4_simultaneous,
                              dihedral8, group_algebra_mul, tpp_check, variable,
                              variables, wedderburn_d4, wedderburn_d4_inverse,
                              x8_simultaneous)
from bilinear_kernels.rng import Lcg

D4 = dihedral8()
# {y, 1}, {x^2 y, 1}, {x^3 y, 1}
D4_TRIPLE = ((4, 0), (6, 0), (7, 0))


def symmetric_group_3() -> GroupTable:
    """S3 as the permutations of (0, 1, 2), composed as functions."""
    perms = sorted(itertools.permutations(range(3)))
    index = {p: k for k, p in enumerate(perms)}
    product = tuple(tuple(index[tuple(p[q[i]] for i in range(3))] for q in perms)
                    for p in perms)
    inverse = tuple(row.index(0) for row in product)
    return GroupTable(6, product, 0, inverse, tuple(map(str, perms)))


S3 = symmetric_group_3()


def tpp_by_definition(G, S, T, U) -> bool:
    """s'^-1 s t^-1 t' u^-1 u' = 1 only for s = s', t = t', u = u'."""
    def prod(*xs):
        return functools.reduce(G.mul, xs, G.identity)
    inv = G.inverse
    return all(prod(inv[s2], s, inv[t], t2, inv[u], u2) != G.identity
               or (s, t, u) == (s2, t2, u2)
               for s, s2 in itertools.product(S, S) for t, t2 in itertools.product(T, T)
               for u, u2 in itertools.product(U, U))


def grid(vals):
    return [variables(row) for row in vals]


def grid_values(g):
    return np.array([[s.value for s in row] for row in g])


class TestGroupTables:
    def test_trivial_group(self):
        G = cyclic_group(1)
        assert G.order == 1 and G.identity == 0

    def test_cyclic_inverse_law(self):
        G = cyclic_group(4)
        assert G.mul(1, 3) == 0  # g * g^3 = 1

    def test_dihedral_defining_relation(self):
        # y x y = x^-1 = x^3
        assert D4.mul(D4.mul(4, 1), 4) == 3

    def test_dihedral_orders(self):
        assert D4.element_names == ("1", "x", "x^2", "x^3", "y", "xy", "x^2y", "x^3y")
        assert D4.mul(1, 1) == 2 and D4.mul(2, 2) == 0

    def test_bad_table_rejected(self):
        from bilinear_kernels.groups import GroupTable
        with pytest.raises(ValueError):
            GroupTable(2, ((0, 1), (1, 1)), 0, (0, 1), ("1", "g"))

    # Per row: the table's arguments after its order, and the one-line refusal.
    C2 = ((0, 1), (1, 0))
    C3 = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    BAD_TABLES = {
        "short table": ((2, ((0, 1),), 0, (0, 1), "ab"),
                        "product table must be an order x order index table"),
        "entry out of range": ((2, ((0, 1), (1, 2)), 0, (0, 1), "ab"),
                               "product[1][1] = 2 is not an element of a group of order 2"),
        "short inverse": ((2, C2, 0, (0,), "ab"),
                          "inverse and element_names must have length order"),
        "identity out of range": ((2, C2, 5, (0, 1), "ab"),
                                  "identity 5 is not an element of a group of order 2"),
        "negative identity": ((2, C2, -1, (0, 1), "ab"),
                              "identity -1 is not an element of a group of order 2"),
        "inverse out of range": ((2, C2, 0, (0, 7), "ab"),
                                 "inverse[1] = 7 is not an element of a group of order 2"),
        "negative inverse": ((2, C2, 0, (-2, 1), "ab"),
                             "inverse[0] = -2 is not an element of a group of order 2"),
        "float entry": ((2, ((0, 1.5), (1, 0)), 0, (0, 1), "ab"),
                        "product[0][1] = 1.5 is not an element of a group of order 2"),
        "text entry": ((2, ((0, "1"), (1, 0)), 0, (0, 1), "ab"),
                       "product[0][1] = '1' is not an element of a group of order 2"),
        "float identity": ((2, C2, 0.5, (0, 1), "ab"),
                           "identity 0.5 is not an element of a group of order 2"),
        "float inverse": ((2, C2, 0, (0, 1.0), "ab"),
                          "inverse[1] = 1.0 is not an element of a group of order 2"),
        "identity law": ((2, C2, 1, (0, 1), "ab"), "identity law fails"),
        "inverse law": ((3, C3, 0, (0, 1, 2), "abc"), "inverse law fails"),
        "associativity": ((3, ((0, 1, 2), (1, 0, 1), (2, 1, 0)), 0, (0, 1, 2), "abc"),
                          "associativity fails"),
    }

    @pytest.mark.parametrize("row", BAD_TABLES)
    def test_each_bad_table_is_a_one_line_error(self, row):
        args, message = self.BAD_TABLES[row]
        with pytest.raises(ValueError) as caught:
            GroupTable(*args)
        assert str(caught.value) == message

    def test_numpy_integer_entries_are_element_indices(self):
        G = GroupTable(2, np.array(self.C2), np.int64(0), (np.int64(0), np.int64(1)), "ab")
        assert G.mul(1, 1) == 0 and G.identity == 0

    def test_a_cyclic_group_needs_an_element(self):
        with pytest.raises(ValueError, match="^cyclic group needs n >= 1$"):
            cyclic_group(0)


class TestTpp:
    def test_d4_preset_true(self):
        assert tpp_check(D4, *D4_TRIPLE)

    def test_cyclic_1n1_true(self):
        for n in (1, 2, 4, 7):
            G = cyclic_group(n)
            assert tpp_check(G, (0,), tuple(range(n)), (0,))

    def test_c2_counterexample_false(self):
        G = cyclic_group(2)
        full = (0, 1)
        assert not tpp_check(G, full, full, full)

    def test_a_triple_whose_quotients_meet_is_refused(self):
        """s t u is one-to-one on this triple, but both quotient sets hold y
        (x^3y^-1 x^3 = y), and y y = 1: a_11 b_21 and a_12 b_11 land where
        entry (3, 1) of A B is read off, so a product that trusted s t u
        alone read [[33], [20], [30]] for A B = [[15], [20], [17]]."""
        S, T, U = (3, 6, 7), (3, 7), (7,)
        assert not tpp_check(D4, S, T, U)
        with pytest.raises(ValueError, match="triple product"):
            cu_matmul(D4, S, T, U, [[3, 1], [2, 4], [2, 3]], [[4], [3]], CountContext())

    def test_a_triple_with_the_property_is_accepted(self):
        """s t u is not one-to-one here (1 y x = x^3y = 1 1 x^3y), yet the
        quotient sets meet only at 1, so the product reads off exactly."""
        S, T, U = (0,), (0, 4), (1, 7)
        assert tpp_check(D4, S, T, U)
        A, B = np.array([[3, 5]]), np.array([[2, 7], [4, 1]])
        out = cu_matmul(D4, S, T, U, A.tolist(), B.tolist(), CountContext())
        assert np.array_equal(grid_values(out), A @ B)

    @pytest.mark.parametrize("subsets, message", [
        (((9,), (0,), (0,)), "S[0] = 9 is not an element of a group of order 8"),
        (((-4, 0), (6, 0), (7, 0)), "S[0] = -4 is not an element of a group of order 8"),
        (((4, 0), (6, 8), (7, 0)), "T[1] = 8 is not an element of a group of order 8"),
        (((4, 0), (6, 0), (7, -1)), "U[1] = -1 is not an element of a group of order 8"),
        (((1.5,), (0,), (0,)), "S[0] = 1.5 is not an element of a group of order 8"),
        (((4.0, 0), (6, 0), (7, 0)), "S[0] = 4.0 is not an element of a group of order 8"),
        (((4, 0), (6, "0"), (7, 0)), "T[1] = '0' is not an element of a group of order 8"),
        (((4, 0), (6, 0), (7, None)), "U[1] = None is not an element of a group of order 8"),
    ])
    def test_an_entry_that_is_no_element_is_a_one_line_error(self, subsets, message):
        with pytest.raises(ValueError) as caught:
            tpp_check(D4, *subsets)
        assert str(caught.value) == message
        ctx = CountContext()
        with pytest.raises(ValueError) as caught:
            cu_matmul(D4, *subsets, grid([[1, 2], [3, 4]]), grid([[5, 6], [7, 8]]), ctx)
        assert str(caught.value) == message and ctx == CountContext()

    def test_numpy_integer_subset_entries_are_element_indices(self):
        assert tpp_check(dihedral8(), (np.int64(4), 0), (6, 0), (7, 0))

    def test_a_repeated_element_is_refused(self):
        assert not tpp_check(D4, (4, 4), (6, 0), (7, 0))

    @pytest.mark.parametrize("G", [D4, S3], ids=["D4", "S3"])
    def test_sampled_triples_match_the_definition_and_read_off_exactly(self, G):
        """On 300 drawn triples of subsets of sizes 1..3, tpp_check equals the
        definition, and cu_matmul is exact on each triple it accepts."""
        rng = Lcg(G.order * 101)

        def subset():
            pool = list(range(G.order))
            return tuple(pool.pop(rng.randint(len(pool))) for _ in range(1 + rng.randint(3)))

        accepted = 0
        for _ in range(300):
            S, T, U = subset(), subset(), subset()
            assert tpp_check(G, S, T, U) == tpp_by_definition(G, S, T, U), (S, T, U)
            if tpp_check(G, S, T, U):
                accepted += 1
                A = np.array([[1 + rng.randint(8) for _ in T] for _ in S])
                B = np.array([[1 + rng.randint(8) for _ in U] for _ in T])
                out = cu_matmul(G, S, T, U, A.tolist(), B.tolist(), CountContext())
                assert np.array_equal(grid_values(out), A @ B), (S, T, U)
        assert accepted >= 10


class TestGroupAlgebra:
    def test_identity_element(self):
        e = [constant(1), constant(0)]
        b = variables([3, 4])
        out = group_algebra_mul(cyclic_group(2), e, b, CountContext())
        assert [s.value for s in out] == [3, 4]

    def test_one_plus_g_times_one_minus_g_vanishes(self):
        G = cyclic_group(2)
        out = group_algebra_mul(G, variables([1, 1]), variables([1, -1]), CountContext())
        assert all(s.value == 0 for s in out)

    def test_d4_x_times_x3_lands_on_identity(self):
        a = [constant(0)] * 8
        b = [constant(0)] * 8
        a[1] = variable(5)   # x
        b[3] = variable(7)   # x^3
        out = group_algebra_mul(D4, a, b, CountContext())
        assert out[0].value == 35
        assert all(out[k].value == 0 for k in range(1, 8))

    def test_wraps_group_algebra_elements(self):
        G = cyclic_group(3)
        a = GroupAlgebraElement(variables([1, 2, 3]))
        b = GroupAlgebraElement(variables([4, 5, 6]))
        out = group_algebra_mul(G, a, b, CountContext())
        assert isinstance(out, GroupAlgebraElement)

    @pytest.mark.parametrize("G", [cyclic_group(n) for n in (2, 3, 5, 8)] + [D4])
    def test_associative_on_random_triples(self, G):
        rng = Lcg(G.order * 13)
        a = variables(rng.complex_vector(G.order))
        b = variables(rng.complex_vector(G.order))
        c = variables(rng.complex_vector(G.order))
        ab_c = group_algebra_mul(G, group_algebra_mul(G, a, b, CountContext()), c,
                                 CountContext())
        a_bc = group_algebra_mul(G, a, group_algebra_mul(G, b, c, CountContext()),
                                 CountContext())
        lhs = np.array([s.value for s in ab_c])
        rhs = np.array([s.value for s in a_bc])
        assert np.abs(lhs - rhs).max() < 1e-10 * max(1.0, np.abs(rhs).max())


class TestCuMatmul:
    def test_cyclic_inner_product(self):
        G = cyclic_group(4)
        A = [variables([1, 2, 3, 4])]
        B = [[variable(5)], [variable(6)], [variable(7)], [variable(8)]]
        out = cu_matmul(G, (0,), (0, 1, 2, 3), (0,), A, B, CountContext())
        assert out[0][0].value == 1 * 5 + 2 * 6 + 3 * 7 + 4 * 8

    def test_identity_returns_other_factor(self):
        A = grid([[1, 0], [0, 1]])
        B = grid([[5, 6], [7, 8]])
        out = cu_matmul(D4, *D4_TRIPLE, A, B, CountContext())
        assert np.array_equal(grid_values(out), np.array([[5, 6], [7, 8]]))

    def test_two_by_two_dense_oracle(self):
        A = grid([[1, 2], [3, 4]])
        B = grid([[5, 6], [7, 8]])
        out = cu_matmul(D4, *D4_TRIPLE, A, B, CountContext())
        assert np.array_equal(grid_values(out), np.array([[19, 22], [43, 50]]))

    def test_tpp_violation_rejected(self):
        G = cyclic_group(2)
        with pytest.raises(ValueError, match="triple product"):
            cu_matmul(G, (0, 1), (0, 1), (0, 1), grid([[1, 1], [1, 1]]),
                      grid([[1, 1], [1, 1]]), CountContext())

    def test_cardinality_mismatch_rejected(self):
        with pytest.raises(ValueError, match="cardinalities"):
            cu_matmul(D4, *D4_TRIPLE, grid([[1, 2, 3], [4, 5, 6]]),
                      grid([[1, 2], [3, 4]]), CountContext())

    def test_random_trials_match_dense(self):
        rng = Lcg(77)
        for _ in range(30):
            a = np.array(rng.complex_vector(4)).reshape(2, 2)
            b = np.array(rng.complex_vector(4)).reshape(2, 2)
            out = cu_matmul(D4, *D4_TRIPLE, grid(a), grid(b), CountContext())
            assert np.abs(grid_values(out) - a @ b).max() < 1e-9 * max(1.0, np.abs(a @ b).max())


class TestD4Simultaneous:
    def test_worked_example(self):
        A = grid([[1, 2], [3, 4]])
        B = grid([[5, 6], [7, 8]])
        ctx = CountContext()
        m1, m2 = d4_simultaneous(A, B, ctx)
        assert np.abs(grid_values(m1) - np.array([[19, 22], [43, 50]])).max() < 1e-10
        assert np.abs(grid_values(m2) - np.array([[17, 20], [41, 48]])).max() < 1e-10
        assert ctx.bilinear_mults == 8

    def test_identity_b(self):
        A = grid([[1, 2], [3, 4]])
        B = grid([[1, 0], [0, 1]])
        m1, m2 = d4_simultaneous(A, B, CountContext())
        a = grid_values(A)
        assert np.abs(grid_values(m1) - a).max() < 1e-10
        assert np.abs(grid_values(m2) - a @ np.array([[0, 1], [1, 0]])).max() < 1e-10

    def test_count_is_input_independent(self):
        rng = Lcg(81)
        for _ in range(5):
            ctx = CountContext()
            d4_simultaneous(grid(np.array(rng.complex_vector(4)).reshape(2, 2)),
                            grid(np.array(rng.complex_vector(4)).reshape(2, 2)), ctx)
            assert ctx.bilinear_mults == 8

    def test_random_trials(self):
        rng = Lcg(83)
        flip = np.array([[0, 1], [1, 0]])
        for _ in range(50):
            a = np.array(rng.complex_vector(4)).reshape(2, 2)
            b = np.array(rng.complex_vector(4)).reshape(2, 2)
            m1, m2 = d4_simultaneous(grid(a), grid(b), CountContext())
            scale = max(1.0, np.abs(a @ b).max())
            assert np.abs(grid_values(m1) - a @ b).max() < 1e-10 * scale
            assert np.abs(grid_values(m2) - a @ (flip @ b)).max() < 1e-10 * scale


def bg(b):
    """Rows swapped, then first-row entries swapped."""
    return np.array([[b[1, 1], b[1, 0]], [b[0, 0], b[0, 1]]])


class TestX8Simultaneous:
    def test_count(self):
        rng = Lcg(85)
        ctx = CountContext()
        x8_simultaneous(grid(np.array(rng.complex_vector(4)).reshape(2, 2)),
                        grid(np.array(rng.complex_vector(4)).reshape(2, 2)), ctx)
        assert ctx.bilinear_mults == 8

    def test_identity_a(self):
        B = np.array([[5, 6], [7, 8]], dtype=complex)
        m1, m2 = x8_simultaneous(grid(np.eye(2)), grid(B), CountContext())
        assert np.abs(grid_values(m1) - B).max() < 1e-9
        assert np.abs(grid_values(m2) - bg(B)).max() < 1e-9

    def test_worked_example_against_dense_products(self):
        a = np.array([[1, 2], [3, 4]], dtype=complex)
        b = np.array([[5, 6], [7, 8]], dtype=complex)
        m1, m2 = x8_simultaneous(grid(a), grid(b), CountContext())
        assert np.array_equal(bg(b), np.array([[8, 7], [5, 6]]))
        assert np.abs(grid_values(m1) - a @ b).max() < 1e-9
        assert np.abs(grid_values(m2) - a @ bg(b)).max() < 1e-9
        assert np.abs(grid_values(m2) - np.array([[18, 19], [44, 45]])).max() < 1e-9

    def test_coefficient_positions_by_brute_force(self):
        """Re-derive the output positions from an independent convolution:
        embed entry indicators one at a time and track where products land."""
        a_degree = {0: 3, 1: 1, 2: 2, 3: 0}  # a, b, c, d -> x^3, x, x^2, 1
        b_degree = {0: 4, 1: 0, 2: 6, 3: 2}  # e, f, g, h -> x^4, 1, x^6, x^2
        hits = {}
        for ai in range(4):
            for bi in range(4):
                p = np.zeros(8)
                q = np.zeros(8)
                p[a_degree[ai]] = 1.0
                q[b_degree[bi]] = 1.0
                u = np.zeros(8)
                for i in range(8):
                    for j in range(8):
                        u[(i + j) % 8] += p[i] * q[j]
                for k in np.flatnonzero(u):
                    hits.setdefault(int(k), []).append((ai, bi))
        # AB = [[ae+bg, af+bh], [ce+dg, cf+dh]]: entries as (a-index, b-index) pairs
        ab = {7: [(0, 0), (1, 2)], 3: [(0, 1), (1, 3)],
              6: [(2, 0), (3, 2)], 2: [(2, 1), (3, 3)]}
        # AB^g = [[ah+be, ag+bf], [ch+de, cg+df]]
        abg = {5: [(0, 3), (1, 0)], 1: [(0, 2), (1, 1)],
               4: [(2, 3), (3, 0)], 0: [(2, 2), (3, 1)]}
        for k, pairs in {**ab, **abg}.items():
            assert sorted(hits[k]) == sorted(pairs)

    def test_random_trials(self):
        rng = Lcg(87)
        for _ in range(50):
            a = np.array(rng.complex_vector(4)).reshape(2, 2)
            b = np.array(rng.complex_vector(4)).reshape(2, 2)
            m1, m2 = x8_simultaneous(grid(a), grid(b), CountContext())
            scale = max(1.0, np.abs(a @ b).max())
            assert np.abs(grid_values(m1) - a @ b).max() < 1e-9 * scale
            assert np.abs(grid_values(m2) - a @ bg(b)).max() < 1e-9 * scale


class TestBlocked:
    def test_single_pair_reduces_to_2x2_kernels(self):
        rng = Lcg(89)
        a = np.array(rng.complex_vector(4)).reshape(2, 2)
        b = np.array(rng.complex_vector(4)).reshape(2, 2)
        for variant in ("f", "g"):
            ctx = CountContext()
            m1, m2 = blocked_simultaneous(grid(a), grid(b), variant, ctx)
            assert ctx.bilinear_mults == 8
            kernel = d4_simultaneous if variant == "f" else x8_simultaneous
            k1, k2 = kernel(grid(a), grid(b), CountContext())
            assert np.array_equal(grid_values(m1), grid_values(k1))
            assert np.array_equal(grid_values(m2), grid_values(k2))

    def test_count_8n(self):
        rng = Lcg(91)
        for pairs in (1, 2, 3, 4):
            a = np.array(rng.complex_vector(4)).reshape(2, 2)
            b = np.array(rng.complex_vector(4 * pairs)).reshape(2, 2 * pairs)
            ctx = CountContext()
            blocked_simultaneous(grid(a), grid(b), "f", ctx)
            assert ctx.bilinear_mults == 8 * pairs

    def test_variant_products_match_dense(self):
        rng = Lcg(93)
        pairs = 2
        a = np.array(rng.complex_vector(4)).reshape(2, 2)
        b = np.array(rng.complex_vector(4 * pairs)).reshape(2, 2 * pairs)
        for variant in ("f", "g"):
            m1, m2 = blocked_simultaneous(grid(a), grid(b), variant, CountContext())
            assert np.abs(grid_values(m1) - a @ b).max() < 1e-9
            bv = b[::-1].copy()
            if variant == "g":
                for p in range(pairs):
                    bv[0, 2 * p], bv[0, 2 * p + 1] = bv[0, 2 * p + 1], bv[0, 2 * p]
            assert np.abs(grid_values(m2) - a @ bv).max() < 1e-9

    def test_odd_columns_rejected(self):
        a = grid(np.eye(2))
        b = [variables([1, 2, 3]), variables([4, 5, 6])]
        with pytest.raises(ValueError, match="even"):
            blocked_simultaneous(a, b, "f", CountContext())


def test_wedderburn_roundtrip():
    rng = Lcg(95)
    for _ in range(10):
        c = np.array(rng.complex_vector(8))
        chars4, block = wedderburn_d4(c)
        back = wedderburn_d4_inverse(chars4, block)
        assert np.abs(back - c).max() < 1e-10
