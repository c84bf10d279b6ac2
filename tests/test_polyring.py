"""Exact polynomial ring and differential operator application."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pencil.polyring import (
    DiffOpTerm,
    RatPoly,
    op_apply,
    poly_gcd,
    poly_to_json,
    square_free_decomposition,
    square_free_part,
)

Z = RatPoly.monomial(1)


def second_order_flux_operator():
    # -(1+z^2) D^2 - 2z D, the divergence-form second-order operator
    return (
        DiffOpTerm(RatPoly([-1, 0, -1]), 2),
        DiffOpTerm(RatPoly([0, -2]), 1),
    )


rationals = st.fractions(
    max_denominator=40,
    min_value=Fraction(-50),
    max_value=Fraction(50),
)
polys = st.lists(rationals, min_size=0, max_size=13).map(RatPoly)


class TestArithmetic:
    def test_add_examples(self):
        assert RatPoly([-1, 0, 1]) + Z == RatPoly([-1, 1, 1])
        p = RatPoly([2, 0, 5])
        assert p + RatPoly.zero() == p
        assert (RatPoly([-1, 0, 1]) + RatPoly([1, 0, -1])).is_zero()

    def test_mul_examples(self):
        assert RatPoly([1, 0, 1]) * Z == RatPoly([0, 1, 0, 1])
        p = RatPoly([3, 1])
        assert p * RatPoly.one() == p
        assert RatPoly([-1, 1]) * RatPoly([1, 1]) == RatPoly([-1, 0, 1])

    def test_diff_examples(self):
        assert RatPoly([1, 0, -6, 0, 1]).diff() == RatPoly([0, -12, 0, 4])
        assert RatPoly([0, 0, 0, 1]).diff(3) == RatPoly([6])
        assert RatPoly([7]).diff().is_zero()

    def test_degree_sentinel(self):
        assert RatPoly.zero().degree == -1
        assert RatPoly([0, 0]).degree == -1
        assert RatPoly([0, 1]).degree == 1

    def test_product_degree(self):
        a, b = RatPoly([1, 2, 3]), RatPoly([0, 0, 5])
        assert (a * b).degree == a.degree + b.degree

    def test_exact_division(self):
        num = RatPoly([-1, 0, 0, 0, 1])
        quot = num / RatPoly([-1, 0, 1])
        assert quot == RatPoly([1, 0, 1])
        with pytest.raises(ValueError):
            RatPoly([1, 1]) / RatPoly([0, 1])

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            RatPoly([0.5])


def _fraction_horner(p: RatPoly, x):
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


points = st.one_of(
    st.integers(-10**6, 10**6),
    rationals,
    st.builds(Fraction, st.integers(-10**40, 10**40), st.integers(1, 10**30)),
)


class TestEval:
    @given(polys, points)
    @example(RatPoly.zero(), 0)
    @example(RatPoly.zero(), Fraction(-7, 10**25))
    @example(RatPoly([Fraction(-5, 3)]), -3)
    @example(RatPoly([Fraction(1, 6), 0, Fraction(-3, 4)]), Fraction(-2**70 + 1, 3**50))
    @settings(max_examples=200, deadline=None)
    def test_exact_equals_fraction_horner(self, p, x):
        value = p.eval(x)
        assert type(value) is Fraction
        assert value == _fraction_horner(p, x)

    @given(polys, st.floats(-8.0, 8.0))
    @settings(max_examples=100, deadline=None)
    def test_float_path_unchanged(self, p, x):
        acc = 0 * x
        for c in reversed(p.coeffs):
            acc = acc * x + c
        assert p.eval(x) == acc and type(p.eval(x)) is float


class TestOperators:
    def test_apply_to_linear(self):
        # expand -(1+z^2)*0 - 2z*1 by hand
        assert op_apply(second_order_flux_operator(), Z) == RatPoly([0, -2])

    def test_annihilates_constants(self):
        assert op_apply(second_order_flux_operator(), RatPoly.one()).is_zero()

    def test_apply_to_quadratic(self):
        # -(1+z^2)*2 - 2z*2z = -6z^2 - 2
        got = op_apply(second_order_flux_operator(), RatPoly([-1, 0, 1]))
        assert got == RatPoly([-2, 0, -6])

    @given(polys, polys, rationals, rationals)
    @settings(max_examples=60, deadline=None)
    def test_linearity(self, p, q, a, b):
        op = second_order_flux_operator()
        lhs = op_apply(op, p * a + q * b)
        rhs = op_apply(op, p) * a + op_apply(op, q) * b
        assert lhs == rhs


class TestProperties:
    @given(polys, polys)
    @settings(max_examples=80, deadline=None)
    def test_leibniz(self, p, q):
        lhs = (p * q).diff()
        rhs = p.diff() * q + p * q.diff()
        assert lhs == rhs

    @given(polys, polys, polys)
    @settings(max_examples=40, deadline=None)
    def test_ring_axioms(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r

    @given(polys)
    @settings(max_examples=80, deadline=None)
    def test_json_round_trip(self, p):
        assert RatPoly(Fraction(int(num), int(den)) for num, den in poly_to_json(p)) == p


class TestGcdSquareFree:
    def test_gcd(self):
        a = RatPoly([-1, 0, 1]) * RatPoly([2, 1])
        b = RatPoly([2, 1]) * RatPoly([5, 0, 0, 1])
        assert poly_gcd(a, b) == RatPoly([2, 1])

    def test_square_free_part(self):
        p = RatPoly([-1, 1]) ** 2 * RatPoly([1, 1])
        assert square_free_part(p) == RatPoly([-1, 1]) * RatPoly([1, 1])

    def test_yun_decomposition(self):
        p = RatPoly([-1, 1]) ** 2 * RatPoly([1, 1]) ** 3 * RatPoly([0, 1])
        decomp = square_free_decomposition(p)
        assert (RatPoly([0, 1]), 1) in decomp
        assert (RatPoly([-1, 1]), 2) in decomp
        assert (RatPoly([1, 1]), 3) in decomp

    @given(st.lists(st.integers(-6, 6), min_size=1, max_size=4, unique=True))
    @settings(max_examples=40, deadline=None)
    def test_square_free_of_simple_products(self, roots):
        p = RatPoly.one()
        for r in roots:
            p = p * RatPoly([-r, 1])
        assert square_free_part(p) == p.monic()
