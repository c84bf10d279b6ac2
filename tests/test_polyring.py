"""Exact polynomial ring and differential operator application."""

import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pencil.nodal import Combination, isolate_real_roots
from pencil.polyring import (
    DiffOpTerm,
    RatPoly,
    _from_int_form,
    _int_form,
    _remainder_sequence,
    integer_coefficients,
    op_apply,
    poly_gcd,
    poly_to_json,
    square_free_decomposition,
    square_free_part,
)
from pencil_oracles import float_horner, int_form, primitive_coefficients

Z = RatPoly([0, 1])


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


def euclid_gcd(a: RatPoly, b: RatPoly) -> RatPoly:
    """gcd over Q by Euclid's algorithm on RatPoly divmod, up to a constant."""
    while not b.is_zero():
        a, b = b, divmod(a, b)[1]
    return a


int_polys = st.lists(st.integers(-40, 40), max_size=5).map(RatPoly)


class TestRemainderSequence:
    @given(int_polys, int_polys, int_polys, st.lists(st.integers(-(2**70), 2**70), max_size=4))
    @example(RatPoly([1, 1]), RatPoly([2]), RatPoly([-1, 0, 1]), [])  # deg f < deg g
    @example(RatPoly([0, 0, 1]), RatPoly([]), RatPoly([1]), [])  # g = 0
    @settings(max_examples=150, deadline=None)
    def test_gcd_and_links(self, a, b, common, extra):
        # f and g share the factor common; extra makes g arbitrary, not only a multiple of it
        f, g = a * common, b * common + RatPoly(extra)
        polys, links = _remainder_sequence([int(c) for c in f.coeffs], [int(c) for c in g.coeffs])
        want = euclid_gcd(f, g)
        if want.is_zero():
            assert polys == [[]]
        else:
            assert RatPoly(polys[-1]).monic() == want.monic()
        assert len(links) == max(len(polys) - 2, 0)
        for q in polys:
            assert not q or (q[-1] != 0 and math.gcd(*q) == 1)
        for q, r in zip(polys[1:], polys[2:]):
            assert len(r) < len(q)
        for j, (scale, quot, kappa) in enumerate(links):
            p0, p1, p2 = (RatPoly(q) for q in polys[j : j + 3])
            assert p0 * scale == RatPoly(quot) * p1 + p2 * kappa
            assert scale * kappa < 0  # P_{j+2} is a positive multiple of -rem(P_j, P_{j+1})


def _outcome(f, *args):
    """f(*args), or the type of the exception it raises."""
    try:
        return f(*args)
    except Exception as e:
        return type(e)


huge = st.builds(lambda k, sign: RatPoly([1, 0, sign * 10**k]), st.integers(300, 400), st.sampled_from([-1, 1]))


class TestKeptForms:
    """A RatPoly keeps its integer form, primitive list and float coefficients; keeping them changes no result."""

    @given(st.one_of(polys, huge), st.one_of(st.floats(-8.0, 8.0), st.just(1e300), st.just("x")))
    @example(RatPoly.zero(), "x")
    @example(RatPoly([3, 0, 10**400]), 1.0)
    @settings(max_examples=150, deadline=None)
    def test_equal_to_their_formulas_fresh_and_reused(self, p, x):
        want = (int_form(p), primitive_coefficients(p), _outcome(float_horner, p, x))
        fresh = RatPoly(p.coeffs)
        for q in (fresh, fresh, p, p):
            assert (_int_form(q), integer_coefficients(q), _outcome(q.eval_float, x)) == want

    @given(polys, points)
    @settings(max_examples=60, deadline=None)
    def test_mutated_lists_change_no_later_result(self, p, x):
        nums, d = _int_form(p)
        primitive = integer_coefficients(p)
        nums.append(7)
        primitive[:0] = [1, 2]
        if nums:
            nums[0] += 1
        assert _int_form(p) == int_form(p)
        assert integer_coefficients(p) == primitive_coefficients(p)
        assert p.eval(x) == _fraction_horner(p, x)

    @given(polys)
    @settings(max_examples=60, deadline=None)
    def test_equality_and_hash_unchanged(self, p):
        plain = RatPoly(p.coeffs)
        before = hash(p)
        _int_form(p), integer_coefficients(p), p.eval_float(0.5)
        assert hash(p) == before == hash(plain) == hash(p.coeffs)
        assert p == plain and plain == p and p != p + 1

    @given(st.lists(st.integers(-(2**80), 2**80), max_size=12), st.integers(1, 10**12))
    @example([0, 0], 5)
    @example([6, 0, -12, 0], 18)
    @settings(max_examples=100, deadline=None)
    def test_preset_form_equals_the_form_of_its_fractions(self, nums, d):
        p = _from_int_form(nums, d)
        want = RatPoly(Fraction(v, d) for v in nums)
        assert p == want and hash(p) == hash(want)
        assert _int_form(p) == int_form(want) and integer_coefficients(p) == primitive_coefficients(want)


class TestUnreadCoefficients:
    """`_from_int_form` leaves coeffs unset until its first read: a polynomial built so behaves as one built from its `Fraction`s."""

    @given(st.lists(st.integers(-(2**80), 2**80), max_size=12), st.integers(1, 10**12), st.booleans())
    @example([0, 0], 5, False)
    @example([6, 0, -12, 0], 18, False)
    @settings(max_examples=100, deadline=None)
    def test_before_and_after_the_first_read(self, nums, d, read):
        want = RatPoly(Fraction(v, d) for v in nums)
        built = [_from_int_form(nums, d) for _ in range(6)]
        # degree, is_zero and bool read the integer form, and leave coeffs unset
        for q in built:
            assert (q.degree, q.is_zero(), bool(q)) == (want.degree, want.is_zero(), bool(want))
        if read:
            for q in built:
                assert q.coeffs == want.coeffs
        p, h, d_, c, pickled, frozen = built
        assert p == want and want == p and p != want + 1
        assert hash(h) == hash(want)
        for q in (pickle.loads(pickle.dumps(pickled)), copy.deepcopy(d_), copy.copy(c)):
            assert type(q) is RatPoly and q == want and q.coeffs == want.coeffs
            assert _int_form(q) == int_form(want)
        assert pickle.dumps(_from_int_form(nums, d)) == pickle.dumps(want)
        with pytest.raises(AttributeError):
            frozen.coeffs = ()
        with pytest.raises(AttributeError):
            frozen.missing
        assert frozen.coeffs == want.coeffs and frozen.degree == want.degree

    def test_isolation_builds_no_fraction(self):
        # a combination's polynomial keeps its integer form, and isolating it reads nothing else
        p = Combination("bilaplace", 12, (1, 2, 3, 4)).poly
        with pytest.raises(AttributeError):
            object.__getattribute__(p, "coeffs")
        isolate_real_roots(p)
        with pytest.raises(AttributeError):
            object.__getattribute__(p, "coeffs")


class TestPickling:
    @given(polys)
    @settings(max_examples=40, deadline=None)
    def test_round_trip_keeps_no_derived_form(self, p):
        plain = pickle.dumps(p)
        _int_form(p), integer_coefficients(p), p.eval_float(0.5)
        # a polynomial pickles as its coefficients alone, whatever forms it has kept
        assert pickle.dumps(p) == plain
        for q in (pickle.loads(plain), copy.deepcopy(p), copy.copy(p)):
            assert type(q) is RatPoly and q == p and hash(q) == hash(p)
            assert _int_form(q) == int_form(p) and q.eval_float(0.5) == float_horner(p, 0.5)
