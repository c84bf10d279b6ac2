"""Root isolation, transversality, and admissibility decisions."""

import bisect
import copy
import dataclasses
import functools
import hashlib
import itertools
import math
import pickle
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pencil import nodal, polyring
from pencil.nodal import (
    Combination,
    CrackConfig,
    _certified_roots,
    _dyadic,
    _dyadic_sign,
    _exact_newton,
    _filtered_sign,
    _goal,
    _parity_sign,
    _parity_split,
    _phase_seeds,
    _separators,
    _sign_kernel,
    _sturm_chain,
    _variations_at,
    check_admissibility_bilaplace,
    check_admissibility_laplace,
    count_real_roots,
    enumerate_admissible,
    isolate_real_roots,
    transversality_check,
)
from pencil.pencils import Eigenpair, quadratic_eigenfunction, quartic_eigenfunction
from pencil.polyring import (
    RatPoly,
    _int_form,
    _pseudo_divide,
    integer_coefficients,
    square_free_decomposition,
    square_free_part,
)
from pencil_oracles import (
    combination_poly,
    exact_admissibility,
    exact_newton,
    int_form,
    phase_seeds,
    primitive_coefficients,
    refine_root,
    sturm_count,
    sturm_isolation,
    variations_at,
)


_Z = RatPoly([0, 1])


def poly_from_roots(roots) -> RatPoly:
    p = RatPoly.one()
    for r in roots:
        p = p * RatPoly([-Fraction(r), 1])
    return p


def root_bound(coeffs) -> tuple[int, int]:
    """The program's root bound of p, a power of two, as the dyadic (num, shift) its separators use."""
    return nodal._power_of_two(nodal._root_bound(coeffs))


def whole_line_isolation(p: RatPoly, **kwargs) -> nodal.RootSet:
    """isolate_real_roots(p) with no chain seeds: Descartes bisection of the whole line isolates every root."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nodal, "_chain_seeds", lambda chain: None)
        return isolate_real_roots(p, **kwargs)


def assert_matches_oracle(rs: nodal.RootSet, tol: float = 1e-12) -> list:
    """rs holds the roots and multiplicities of Sturm bisection over the rationals (`pencil_oracles.sturm_isolation`), which it returns.

    Each refined root r lies in its oracle interval (a, b), up to
    h = tol max(|r|, 1).  A root of multiplicity m is a simple root of p's
    (m-1)-th derivative, which has a zero at r or opposite exact signs at
    the ends of (r - h, r + h) within (a, b), where p has no other root.
    Each interval of rs is open, sorted after the one before, and holds a
    root of any multiplicity with none at either end.
    """
    p = rs.poly
    oracle = sturm_isolation(p.coeffs)
    assert rs.multiplicities == tuple(m for *_, m in oracle)
    assert len(rs.isolating_intervals) == len(rs.refined_roots) == len(oracle)
    for (lo, hi), r, (a, b, m) in zip(rs.isolating_intervals, rs.refined_roots, oracle):
        x = Fraction(r)
        h = Fraction(tol) * max(abs(x), 1)
        assert a - h < x < b + h
        d = p.diff(m - 1)
        assert d.eval(x) == 0 or d.eval(max(x - h, a)) * d.eval(min(x + h, b)) < 0
        assert lo < hi and p.eval(lo) * p.eval(hi) * (-1) ** m > 0
    for (_, hi), (lo, _) in zip(rs.isolating_intervals, rs.isolating_intervals[1:]):
        assert hi <= lo
    return oracle


def _psi_roots(l: int, family: int) -> list[float]:
    """The roots of psi_{l,family}: cot((k + 1/2) pi / l) for family 1 and cot(k pi / (l + 1)) for family 2."""
    if family == 1:
        return [1 / math.tan((k + 0.5) * math.pi / l) for k in range(l)]
    return [1 / math.tan(k * math.pi / (l + 1)) for k in range(1, l + 1)]


@st.composite
def coprime_products(draw):
    """Coprime factors (f, real roots of f, multiplicity) and a nonzero scale.

    Linear factors d z - n have rational roots other than 0 and -1, 1, the
    only rational cotangents of rational multiples of pi, so none shares a
    root with z^2 - 2, z^2 + c (c > 0) or the one psi_{l,f}.
    """
    mult = st.integers(1, 4)
    ratios = st.tuples(st.integers(-30, 30), st.integers(1, 9)).map(lambda t: Fraction(*t))
    roots = draw(st.lists(ratios.filter(lambda r: r not in (-1, 0, 1)), max_size=3, unique=True))
    factors = [(RatPoly([-r.numerator, r.denominator]), [r], draw(mult)) for r in roots]
    if draw(st.booleans()):
        factors.append((RatPoly([-2, 0, 1]), [-math.sqrt(2), math.sqrt(2)], draw(mult)))
    if draw(st.booleans()):
        factors.append((RatPoly([draw(st.fractions(min_value=Fraction(1, 7), max_value=50)), 0, 1]), [], draw(mult)))
    if draw(st.booleans()):
        l, family = draw(st.integers(2, 7)), draw(st.integers(1, 2))
        factors.append((quadratic_eigenfunction(l, family).poly, _psi_roots(l, family), draw(mult)))
    if not factors:
        factors.append((RatPoly([-7, 2]), [Fraction(7, 2)], draw(mult)))
    return factors, draw(st.sampled_from([1, -1, Fraction(3, 5), -12]))


class TestIsolation:
    def test_simple_quadratic(self):
        rs = isolate_real_roots(RatPoly([-1, 0, 1]))
        assert rs.multiplicities == (1, 1)
        assert rs.refined_roots[0] == pytest.approx(-1.0, abs=1e-11)
        assert rs.refined_roots[1] == pytest.approx(1.0, abs=1e-11)

    def test_odd_cubic(self):
        rs = isolate_real_roots(RatPoly([0, -3, 0, 1]))
        expect = (-math.sqrt(3), 0.0, math.sqrt(3))
        assert rs.count == 3
        for got, want in zip(rs.refined_roots, expect):
            assert got == pytest.approx(want, abs=1e-11)

    def test_double_root(self):
        rs = isolate_real_roots(RatPoly([1, -2, 1]))
        assert rs.multiplicities == (2,)
        assert rs.refined_roots[0] == pytest.approx(1.0, abs=1e-10)

    def test_no_real_roots(self):
        rs = isolate_real_roots(RatPoly([1, 0, 1]))
        assert rs.count == 0

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            isolate_real_roots(RatPoly.zero())

    @pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0, math.inf])
    def test_tol_not_positive_finite_rejected(self, tol):
        # worded as in check_admissibility_*; no tol is replaced by a default
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            isolate_real_roots(RatPoly([-1, 0, 1]), tol=tol)

    def test_rational_roots_found_exactly(self):
        p = poly_from_roots([Fraction(1, 2), Fraction(-3, 4), 2])
        rs = isolate_real_roots(p)
        assert sorted(rs.refined_roots) == pytest.approx([-0.75, 0.5, 2.0], abs=1e-12)
        for (lo, hi), root in zip(rs.isolating_intervals, rs.refined_roots):
            assert float(lo) <= root <= float(hi)

    def test_residual_bound(self):
        tol = 1e-12
        p = quadratic_eigenfunction(9, 1).poly
        rs = isolate_real_roots(p, tol=tol)
        scale = max(abs(c) for c in p.coeffs)
        for r in rs.refined_roots:
            bound = tol * float(scale) * max(1.0, abs(r)) ** p.degree
            assert abs(p.eval_float(r)) <= bound

    @given(st.lists(st.fractions(max_denominator=6, min_value=-8, max_value=8), min_size=1, max_size=8, unique=True))
    @settings(max_examples=40, deadline=None)
    def test_recovers_constructed_roots(self, roots):
        p = poly_from_roots(roots)
        rs = isolate_real_roots(p)
        assert rs.count == len(roots)
        assert rs.multiplicities == (1,) * len(roots)
        for got, want in zip(rs.refined_roots, sorted(float(r) for r in roots)):
            assert got == pytest.approx(want, abs=1e-9)

    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=3, unique=True),
           st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_multiplicities(self, roots, power):
        p = poly_from_roots(roots) * RatPoly([-roots[0], 1]) ** (power - 1)
        rs = isolate_real_roots(p)
        romap = dict(zip(rs.refined_roots, rs.multiplicities))
        target = min(romap, key=lambda r: abs(r - roots[0]))
        assert romap[target] == power

    def test_exact_root_on_a_bisection_point_moves_toward_lo(self):
        # 0, the first bisection point of the whole line, moves halfway toward
        # lo; no interval is degenerate and p is nonzero at every end
        p = poly_from_roots([-1, 0])
        for rs in (whole_line_isolation(p), isolate_real_roots(p)):
            (lo, hi), (a, b) = rs.isolating_intervals
            assert lo < -1 < hi <= a < 0 < b
            assert p.eval(lo) * p.eval(hi) < 0 and p.eval(a) * p.eval(b) < 0
            assert_matches_oracle(rs)
        (lo, hi, _), (a, b, _) = sturm_isolation(p.coeffs)
        assert lo < -1 < hi <= a < 0 < b

    def test_multiplicities_with_exact_root_at_bisection_point(self):
        # 0 is the first bisection point; the cube factor z owns it
        z = RatPoly([0, 1])
        rs = isolate_real_roots(z ** 3 * (z - Fraction(1, 2)) ** 2 * (z ** 2 - 2))
        assert rs.multiplicities == (1, 3, 2, 1)
        assert rs.refined_roots == pytest.approx([-math.sqrt(2), 0.0, 0.5, math.sqrt(2)], abs=1e-12)

    @pytest.mark.parametrize("l, family", [(7, 1), (31, 2), (33, 1), (45, 1), (50, 2), (51, 1), (70, 2)])
    def test_eigenfunction_roots_match_closed_forms(self, l, family):
        # cot((2k-1)pi/(2l)) for family 1 and cot(k pi/(l+1)) for family 2, written
        # as tan(j pi/(2n)) so that the root 0 of odd l is exact; odd l puts it on
        # the first bisection point of the whole line
        n = l if family == 1 else l + 1
        expect = [math.tan(j * math.pi / (2 * n)) for j in range(1 - l, l, 2)]
        p = quadratic_eigenfunction(l, family).poly
        for rs in (isolate_real_roots(p), whole_line_isolation(p)):
            assert rs.multiplicities == (1,) * l
            for got, want in zip(rs.refined_roots, expect, strict=True):
                assert abs(got - want) <= 1e-12 * max(abs(want), 1.0)
            for (lo, hi), want in zip(rs.isolating_intervals, expect):
                assert lo <= want <= hi
            for (_, hi), (lo, _) in zip(rs.isolating_intervals, rs.isolating_intervals[1:]):
                assert hi <= lo

    @pytest.mark.parametrize("l, family", [(51, 1), (70, 1), (70, 2)])
    def test_refined_roots_carry_sign_certificates(self, l, family):
        tol = 1e-12
        p = quadratic_eigenfunction(l, family).poly
        rs = isolate_real_roots(p, tol=tol)
        for r in rs.refined_roots:
            x, h = Fraction(r), Fraction(tol) * max(abs(Fraction(r)), 1)
            assert p.eval(x - h) * p.eval(x + h) < 0

    @pytest.mark.parametrize(
        "factors, roots",
        [
            # coefficients of about 1111 bits: float() of them raises OverflowError
            (
                [RatPoly([-2 * 3**700 - 1, 3**700]), RatPoly([1, 1])],
                [-1, 2 + Fraction(1, 3**700)],
            ),
            # two roots closer than a float ulp; the refinement falls back to bisection
            (
                [RatPoly([-1, 1]), RatPoly([-1 - Fraction(1, 2**60), 1]), RatPoly([-2, 0, 1])],
                [-math.sqrt(2), 1, 1 + Fraction(1, 2**60), math.sqrt(2)],
            ),
        ],
    )
    def test_refined_roots_within_goal(self, factors, roots):
        tol = 1e-12
        rs = isolate_real_roots(math.prod(factors, start=RatPoly.one()), tol=tol)
        assert rs.multiplicities == (1,) * len(roots)
        for (lo, hi), got, want in zip(rs.isolating_intervals, rs.refined_roots, roots, strict=True):
            goal = tol / 8 * float(max(abs(lo), abs(hi), 1))
            assert abs(got - float(want)) <= goal

    @pytest.mark.parametrize(
        "p", [RatPoly([-(2**1100), 1]), RatPoly([-(2**2201), 0, 1]), RatPoly([-(2**1100), 1]) * RatPoly([1, 1, 1])]
    )
    def test_root_beyond_float_range_raises(self, p, monkeypatch):
        # the chain seeds overflow, so the line (or for z^2 - 2^2201 the half
        # line) would be bisected; one odd Descartes bound on (2^1024, B)
        # raises first, where the bisection of (z - 2^1100)(z^2 + z + 1) took
        # over 2,000 tests to separate the root from the complex pair
        calls = whole_line_calls(monkeypatch)
        bounds = []
        descartes_bound = nodal._descartes_bound
        monkeypatch.setattr(nodal, "_descartes_bound", lambda *args: bounds.append(args[1:]) or descartes_bound(*args))
        with pytest.raises(ValueError, match="beyond the float range"):
            isolate_real_roots(p)
        assert calls == [] and bounds == [((1 << 1024, 0), root_bound(integer_coefficients(p)))]

    @pytest.mark.parametrize("k", [40, 200, 2200])
    def test_goal_relative_to_the_root(self, k):
        # z^2 + 2^k widens the isolating intervals to about 2^(k/2), far beyond the real roots
        z, wide = RatPoly([0, 1]), RatPoly([2**k, 0, 1])
        assert isolate_real_roots((z - 1) * wide).refined_roots == (1.0,)
        rs = isolate_real_roots((z**2 - 2) * wide)
        assert rs.refined_roots == pytest.approx((-math.sqrt(2), math.sqrt(2)), rel=1e-12)
        assert all(hi - lo > 2 ** (k // 2 - 2) for lo, hi in rs.isolating_intervals)

    @pytest.mark.parametrize(
        "p, seeds",
        [
            (RatPoly([-2, 0, 1]), [-1.4, 1.4]),
            (quadratic_eigenfunction(10, 1).poly * RatPoly([1, 0, 1]), _psi_roots(10, 1)),
            (quadratic_eigenfunction(7, 2).poly ** 2, _psi_roots(7, 2)),
        ],
        ids=["z2-2", "psi10_1-complex-pair", "psi7_2-squared"],
    )
    def test_newton_ends_at_the_smallest_tol(self, p, seeds):
        # the goal lies far below float resolution: every certificate fails,
        # Newton stalls on a float and exact bisection finishes the root
        tol = 5e-324
        square_free = square_free_part(p)
        want = isolate_real_roots(p)
        for rs in (isolate_real_roots(p, tol=tol), isolate_real_roots(p, tol=tol, seeds=seeds), whole_line_isolation(p, tol=tol)):
            assert rs.multiplicities == want.multiplicities
            assert rs.refined_roots == pytest.approx(want.refined_roots, rel=1e-12)
            for r in rs.refined_roots:
                # r is the root, or the root lies strictly between r's float neighbours
                below, above = (Fraction(math.nextafter(r, side)) for side in (-math.inf, math.inf))
                assert square_free.eval(Fraction(r)) == 0 or square_free.eval(below) * square_free.eval(above) < 0

    @pytest.mark.parametrize("family", [1, 2])
    def test_refinement_stops_at_float_resolution(self, family, monkeypatch):
        # at tol = 1e-300 the goal lies far below float resolution: Newton
        # stalls on a float, the signs at its float neighbours narrow the
        # bracket to an ulp, and the exact bisection stops once both bracket
        # ends round to one float, the answer further halving would give;
        # halving down to the goal took about 1,000 exact signs per root, and
        # bisecting from the bracket Newton leaves 24 (family 1) and 29 per
        # root; from the ulp it takes 91 and 90 signs for the 20 roots
        p = quadratic_eigenfunction(20, family).poly
        want = isolate_real_roots(p)
        signs = []
        kernel = nodal._sign_kernel

        def counted(coeffs):
            sign = kernel(coeffs)
            return lambda num, shift: signs.append(1) or sign(num, shift)

        monkeypatch.setattr(nodal, "_sign_kernel", counted)
        rs = isolate_real_roots(p, tol=1e-300)
        assert len(signs) <= 5 * rs.count
        assert rs.isolating_intervals == want.isolating_intervals
        assert rs.refined_roots == pytest.approx(want.refined_roots, rel=1e-15)
        assert_matches_oracle(rs)
        for r in rs.refined_roots:
            # the root lies strictly between r's float neighbours
            below, above = (Fraction(math.nextafter(r, side)) for side in (-math.inf, math.inf))
            assert p.eval(below) * p.eval(above) < 0

    def test_roots_near_the_float_range_ends(self):
        assert isolate_real_roots(RatPoly([-(2**1000), 1])).refined_roots == (2.0**1000,)
        # 2^-1100 underflows to 0.0, which is within the goal of the root
        assert isolate_real_roots(RatPoly([-1, 2**1100])).refined_roots == (0.0,)

    @given(coprime_products())
    @example(([(RatPoly([-5, 3]), [Fraction(5, 3)], 4), (RatPoly([-2, 0, 1]), [-math.sqrt(2), math.sqrt(2)], 3),
               (RatPoly([3, 0, 1]), [], 2), (quadratic_eigenfunction(5, 1).poly, _psi_roots(5, 1), 2)], -1))
    @settings(max_examples=40, deadline=None)
    def test_products_of_coprime_factors(self, case):
        # the roots and multiplicities are those of the construction, not of a Yun decomposition
        factors, scale = case
        p = math.prod((f ** m for f, _, m in factors), start=RatPoly([scale]))
        expected = sorted((float(r), m) for _, roots, m in factors for r in roots)
        rs = isolate_real_roots(p)
        assert rs.multiplicities == tuple(m for _, m in expected)
        assert count_real_roots(p) == len(expected)
        square_free = math.prod((f for f, _, _ in factors), start=RatPoly.one())
        for (lo, hi), got, (want, _) in zip(rs.isolating_intervals, rs.refined_roots, expected, strict=True):
            # no interval is degenerate: both ends carry nonzero exact signs, and they differ
            assert lo < hi and square_free.eval(lo) * square_free.eval(hi) < 0
            assert float(lo) <= got <= float(hi)
            assert abs(got - want) <= 1e-12 * max(abs(want), 1.0)


# nodal-warm's crack slopes of one, two and three cracks, checked at l <= 30
ADM_POOL = (
    (("1/3",), ("-1/2",), ("2",), ("-3/4",)),
    (("-1", "1"), ("0", "1"), ("-1/2", "2/3"), ("-2", "1/3")),
    (("-2", "0", "1"), ("-3/2", "1/5", "2"), ("-1", "1/2", "3/2"), ("-1/3", "0", "1/3")),
)


def assert_within_contract(got: nodal.RootSet, want: nodal.RootSet, tol: float = 1e-12) -> None:
    """got and want, two isolations of one polynomial, have the same counts and multiplicities, and roots within the RootSet bound of each other."""
    assert got.count == want.count
    assert got.multiplicities == want.multiplicities
    # each refined root is within tol/16 * max(|lo|, |hi|, 1) of the true root
    scales = [[float(max(abs(lo), abs(hi), 1)) for lo, hi in rs.isolating_intervals] for rs in (got, want)]
    for a, b, s_a, s_b in zip(got.refined_roots, want.refined_roots, *scales):
        assert abs(a - b) <= tol / 16 * (s_a + s_b)


def assert_same_roots(seeded, plain, tol=1e-12):
    """Seeded and unseeded isolation of one polynomial agree; each seeded interval is certified."""
    p = seeded.poly
    assert_within_contract(seeded, plain, tol)
    for (lo, hi), m in zip(seeded.isolating_intervals, seeded.multiplicities):
        # every interval is open, with a root of any multiplicity inside and none at either end
        assert lo < hi and p.eval(lo) * p.eval(hi) * (-1) ** m > 0
    for (_, hi), (lo, _) in zip(seeded.isolating_intervals, seeded.isolating_intervals[1:]):
        assert hi <= lo


def certified(p, seeds) -> bool:
    """Whether seeds certify p's whole line: one simple root in each of deg p seed gaps (`_certified_roots`)."""
    coeffs = integer_coefficients(p)
    seps = _separators(seeds, root_bound(coeffs))
    return seps is not None and _certified_roots(coeffs, seps, sorted(seeds), functools.partial(_dyadic_sign, coeffs), p.degree, 1e-12) is not None


class TestSeededIsolation:
    @pytest.mark.parametrize("l", range(1, 71, 3))
    def test_laplace_combinations(self, l):
        # every Laplace combination has l (or l - 1) real simple roots, so its
        # closed-form seeds always certify
        rng = random.Random(l)
        rational = (Fraction(rng.randint(-9, 9), rng.randint(1, 9)), Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        combos = [rational, (0, 1) if l % 2 else (rng.uniform(-2, 2), rng.uniform(-2, 2))]
        for coeffs in combos:
            combo = Combination("laplace", l, coeffs)
            p = combo.poly
            if p.is_zero() or p.degree < 1:
                continue
            assert certified(p, _phase_seeds(l, coeffs))
            assert_matches_oracle(combo.roots())

    @pytest.mark.parametrize("l", range(2, 61, 2))
    def test_bilaplace_combinations(self, l):
        rng = random.Random(1000 + l)
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in Combination("bilaplace", l, (0, 0, 0, 0)).families]
        if l % 6 == 0:
            coeffs[0] = Fraction(0)  # degree below l: the phase form vanishes at phi = 0 and pi
        combo = Combination("bilaplace", l, coeffs)
        p = combo.poly
        if len(sturm_isolation(p.coeffs)) == p.degree and count_real_roots(p) == p.degree:
            assert certified(p, _phase_seeds(l, coeffs))
        assert_matches_oracle(combo.roots())

    @pytest.mark.parametrize("equation", ["laplace", "bilaplace"])
    @pytest.mark.parametrize("pool", ADM_POOL, ids=["m1", "m2", "m3"])
    def test_admissibility_verdicts(self, equation, pool):
        # each configuration at every other l, alternating the parity between
        # configurations: the zero set and the consecutive flag against Sturm bisection
        check = check_admissibility_laplace if equation == "laplace" else check_admissibility_bilaplace
        configs = [CrackConfig(tuple(Fraction(a) for a in alphas)) for alphas in pool]
        orders = [range(max(cfg.m, 2) + i % 2, 31, 2) for i, cfg in enumerate(configs)]
        for cfg, ls in zip(configs, orders):
            for l in ls:
                v = check(cfg, (l, l))[0]
                if v.full_zero_set is None:
                    continue
                oracle = assert_matches_oracle(v.full_zero_set)
                # every slope is an exact root: the oracle interval that holds it is its position
                at = sorted(next(i for i, (a, b, _) in enumerate(oracle) if a < alpha < b) for alpha in cfg.alphas)
                assert v.consecutive_flag == all(j - i == 1 for i, j in zip(at, at[1:]))

    @pytest.mark.parametrize(
        "spoil",
        [
            lambda s: s[1:],  # one seed dropped
            lambda s: [s[0], *s[:-1]],  # one seed duplicated, one dropped
            lambda s: [*s, 2 * s[-1]],  # one spurious seed
            lambda s: [s[0] - 1.0, *s[1:-1], s[1] - 0.1],  # two seeds in one gap, none in the last
            lambda s: [math.nan, *s[1:]],
            lambda s: [*s[:-1], math.inf],
        ],
    )
    def test_bad_seeds_fall_back(self, spoil):
        p = Combination("laplace", 12, (1, 3)).poly
        seeds = spoil(sorted(_phase_seeds(12, (1, 3))))
        assert not certified(p, seeds)
        assert isolate_real_roots(p, seeds=seeds) == isolate_real_roots(p)

    def test_complex_roots_fall_back(self):
        # z^2 + 1 adds two complex roots; n seeds can then never certify n real roots
        psi = quadratic_eigenfunction(10, 1).poly
        p = psi * RatPoly([1, 0, 1])
        real = sorted(_phase_seeds(10, (1, 0)))
        seeds = [*real, (real[0] + real[1]) / 2, (real[-2] + real[-1]) / 2]
        assert not certified(p, seeds)
        rs = isolate_real_roots(p, seeds=seeds)
        assert rs == isolate_real_roots(p) and rs.count == 10

    def test_rough_seeds_are_refined(self):
        # seeds off by 1e-6 fail the direct certificate; exact Newton steps finish
        p = quadratic_eigenfunction(20, 1).poly
        seeds = [s * (1 + 1e-6) for s in _phase_seeds(20, (1, 0))]
        assert_matches_oracle(isolate_real_roots(p, seeds=seeds))

    def test_isolation_never_runs_yun(self, monkeypatch):
        # p's own Sturm chain isolates every p, and gcds of chains give the
        # square-free part and the multiplicities: a square-free p bisected on
        # the whole line (an even or odd one on the positive half line, then
        # mirrored) gives what that bisection of its Yun factor gives, and a p
        # with repeated roots the RootSet of its Yun square-free part
        z = RatPoly([0, 1])
        square_free = [
            quadratic_eigenfunction(25, 1).poly,
            quartic_eigenfunction(17, 4).poly,
            (z - 1) * (z + Fraction(1, 3)) * (z ** 2 + 2) * (z ** 2 - 3),
            -(z ** 5) + 3 * z - 1,
        ]
        # the digests of these rung-4 isolations as the ladder gave them when
        # Descartes runs were certified by the signs at every separator
        digests = ["242b08bb2d98aca0", "55d1eee4aa956304", "b90cc6e50457c299", "12f95c083afdbd32"]
        expected = []
        for p in square_free:
            factors = square_free_decomposition(p)
            assert [m for _, m in factors] == [1]
            coeffs = integer_coefficients(factors[0][0])
            sign = functools.partial(_dyadic_sign, coeffs)
            bound = root_bound(coeffs)
            split = _parity_split(coeffs)
            if split is None:
                gaps, roots = nodal._descartes_roots(coeffs, [(-bound[0], bound[1]), bound], [None], sign, True, 1e-12)
                intervals = nodal._intervals(gaps)
            else:
                # s0 = 0, or for an odd p the inverse root bound of p / z reversed
                k = split[0]
                s0 = (0, 0) if k == 0 else nodal._power_of_two(-nodal._root_bound(coeffs[:0:-1]))
                gaps, positive = nodal._descartes_roots(coeffs, [s0, bound], [None], sign, True, 1e-12)
                gaps = nodal._intervals(gaps)
                zero = nodal._fraction(s0)
                intervals = [(-hi, -lo) for lo, hi in reversed(gaps)] + [(-zero, zero)] * k + gaps
                roots = [-r for r in reversed(positive)] + [0.0] * k + positive
            expected.append((tuple(intervals), tuple(roots)))
        repeated = [
            ((z - 1) ** 2 * (z + 2), (-2.0, 1.0), (1, 2)),
            ((z - Fraction(1, 3)) ** 4 * (z ** 2 + 1) ** 2 * z ** 3, (0.0, 1 / 3), (3, 4)),
            (-((z ** 2 - 2) ** 3) * (z + 5), (-5.0, -math.sqrt(2), math.sqrt(2)), (1, 3, 3)),
        ]
        parts = [isolate_real_roots(square_free_part(p)) for p, _, _ in repeated]

        def refuse(p):
            raise AssertionError("Yun's decomposition called by isolation")

        for name in ("square_free_decomposition", "square_free_part"):
            monkeypatch.setattr(nodal, name, refuse)
            monkeypatch.setattr(polyring, name, refuse)
        for p, (intervals, roots), digest in zip(square_free, expected, digests, strict=True):
            rs = whole_line_isolation(p)
            assert (rs.isolating_intervals, rs.refined_roots) == (intervals, roots)
            assert rootset_digest(rs) == digest
            assert rs.multiplicities == (1,) * len(roots)
            assert_matches_oracle(rs)
            assert_same_roots(isolate_real_roots(p), rs)
        for (p, roots, mults), part in zip(repeated, parts):
            rs = isolate_real_roots(p)
            assert (rs.isolating_intervals, rs.refined_roots) == (part.isolating_intervals, part.refined_roots)
            assert rs.refined_roots == pytest.approx(roots, abs=1e-12) and rs.multiplicities == mults
            assert_matches_oracle(rs)


@st.composite
def real_rooted_products(draw):
    """Distinct rational roots, some in clusters r + 1/k (k up to 10^6) about another root r, and a scale."""
    roots = draw(st.lists(st.fractions(min_value=-40, max_value=40, max_denominator=12), min_size=1, max_size=8, unique=True))
    for r, k in draw(st.lists(st.tuples(st.sampled_from(roots), st.integers(-(10**6), 10**6).filter(bool)), max_size=3)):
        roots.append(r + Fraction(1, k))
    return sorted(set(roots)), draw(st.sampled_from([1, -1, Fraction(3, 5), -12]))


def chain_seeds(p: RatPoly):
    return nodal._chain_seeds(_sturm_chain(integer_coefficients(p)))


def chain_degrees(monkeypatch) -> list:
    """The degree of every Sturm chain built from here on, in build order."""
    built = []
    chain = nodal._sturm_chain

    def spy(coeffs):
        built.append(len(coeffs) - 1)
        return chain(coeffs)

    monkeypatch.setattr(nodal, "_sturm_chain", spy)
    return built


def refinements(monkeypatch, record) -> None:
    """Call record(coeffs, lo, hi, tol, start, root) for every root refined from here on, in call order.

    Every rung refines a root in a gap between separators that
    `_certified_roots` certifies, from that gap's seed (None in bisection).
    """
    certify = nodal._certified_roots

    def certify_spy(coeffs, seps, starts, sign, count, tol):
        roots = certify(coeffs, seps, starts, sign, count, tol)
        for lo, hi, start, root in zip(seps, seps[1:], starts, roots or []):
            record(coeffs, lo, hi, tol, start, root)
        return roots

    monkeypatch.setattr(nodal, "_certified_roots", certify_spy)


def refinement_starts(monkeypatch) -> list:
    """The start of every root refined from here on (`refinements`), in call order."""
    starts = []
    refinements(monkeypatch, lambda coeffs, lo, hi, tol, start, root: starts.append(start))
    return starts


def assert_certified_on_chain_seeds(p: RatPoly, count: int) -> nodal.RootSet:
    """Unseeded isolation of a square-free p with count real roots takes its chain seeds' gaps and matches the Sturm oracle."""
    seeds = chain_seeds(p)
    assert seeds is not None and len(seeds) == count < p.degree
    coeffs = integer_coefficients(p)
    seps = [nodal._fraction(x) for x in _separators(seeds, root_bound(coeffs))]
    with pytest.MonkeyPatch.context() as mp:
        starts = refinement_starts(mp)
        mp.setattr(nodal, "_descartes_roots", lambda *args: pytest.fail("bisected the whole line"))
        rs = isolate_real_roots(p)
    assert rs.isolating_intervals == tuple(zip(seps, seps[1:]))
    assert starts == seeds and rs.multiplicities == (1,) * count
    assert_matches_oracle(rs)
    return rs


class TestChainSeeds:
    """Unseeded isolation seeds itself from p's Sturm chain read as a float continued fraction."""

    @given(real_rooted_products())
    @example(([Fraction(-1), Fraction(0)], 1))  # the exact root 0 on the whole line's first bisection point
    @example(([Fraction(0), Fraction(1, 39), Fraction(1), Fraction(2)], 1))  # the exact root 0 on a bracket end
    @example(
        (
            [Fraction(r) for r in ("-18", "-1000745/55597", "-133/8", "-13/6", "0", "1/17535", "2", "17/6", "83/11", "8311/1100", "57/4")],
            1,
        )
    )  # links whose unscaled float triples overflow
    @example(([Fraction(1) - Fraction(1, 999_999), Fraction(1), Fraction(1) + Fraction(1, 10**6)], -12))
    @settings(max_examples=60, deadline=None)
    def test_real_rooted_products_isolate_on_seed_gaps(self, case):
        roots, scale = case
        tol = 1e-12
        p = poly_from_roots(roots) * scale
        assert chain_seeds(p) is not None
        rs = isolate_real_roots(p, tol=tol)
        assert rs.multiplicities == (1,) * len(roots)
        for (lo, hi), got, want in zip(rs.isolating_intervals, rs.refined_roots, roots, strict=True):
            # every interval, an exact root's too, rests on exact opposite signs
            assert lo < want < hi and p.eval(lo) * p.eval(hi) < 0
            assert abs(got - float(want)) <= tol * max(abs(float(want)), 1.0)
        assert_matches_oracle(rs, tol)

    @pytest.mark.parametrize(
        "p, roots, mults",
        [
            # z^2 + z + 1 keeps p from being even, which `_parity_seeds` would isolate on q's chain
            (quadratic_eigenfunction(10, 1).poly ** 2 * RatPoly([1, 1, 1]), _psi_roots(10, 1), (2,) * 10),
            (poly_from_roots([-2, 1, 1]), [-2.0, 1.0], (1, 2)),
            (poly_from_roots([Fraction(1, 3)] * 3 + [5]) * RatPoly([2, 0, 1]), [1 / 3, 5.0], (3, 1)),
            (quadratic_eigenfunction(12, 2).poly ** 2, _psi_roots(12, 2), (2,) * 12),
        ],
    )
    def test_complex_or_repeated_roots_take_the_sturm_path(self, p, roots, mults, monkeypatch):
        # a repeated root ends p's Sturm chain at g = gcd(p, p'), with a complex
        # pair or not; the square-free part p / g is isolated in p's place, seeded
        # by its own chain or, when it is even or odd, by q's on the positive half line
        assert chain_seeds(p) is None
        starts = refinement_starts(monkeypatch)
        part = isolate_real_roots(square_free_part(p))
        part_starts = list(starts)
        starts.clear()
        rs = isolate_real_roots(p)
        # the square-free part's RootSet bit for bit, every refinement from the same seed
        assert (rs.isolating_intervals, rs.refined_roots) == (part.isolating_intervals, part.refined_roots)
        # one start per root, or for the even psi_{12,2}^2 one per positive root: the negative ones are their mirror images
        refined = len(roots) if _parity_split(integer_coefficients(p)) is None else sum(r > 0 for r in roots)
        assert starts == part_starts and None not in starts and len(starts) == refined
        assert_matches_oracle(rs)
        assert rs.multiplicities == mults and count_real_roots(p) == len(roots)
        assert rs.refined_roots == pytest.approx(sorted(roots), rel=1e-12, abs=1e-12)

    # c != 0 keeps p from being even or odd
    @given(
        real_rooted_products(),
        st.fractions(-40, 40, max_denominator=12).filter(bool),
        st.fractions(Fraction(1, 10**4), 9),
    )
    # a pair close to the line
    @example(([Fraction(-2), Fraction(0), Fraction(1), Fraction(3)], 1), Fraction(1, 2), Fraction(1, 10**4))
    @settings(max_examples=40, deadline=None)
    def test_complex_pair_certifies_on_the_chain_count(self, case, c, d):
        # (z - c)^2 + d^2 keeps p's chain normal; its seeds, one per real root,
        # certify against the chain's own count of real roots, not deg p
        roots, scale = case
        p = poly_from_roots(roots) * RatPoly([c * c + d * d, -2 * c, 1]) * scale
        assert_certified_on_chain_seeds(p, len(roots))

    @pytest.mark.parametrize("l", [10, 20, 45])
    def test_eigenfunction_times_a_complex_pair_certifies(self, l):
        # the case the Sturm path bisected before: psi_{l,1} (z^2 + z + 1)
        p = quadratic_eigenfunction(l, 1).poly * RatPoly([1, 1, 1])
        rs = assert_certified_on_chain_seeds(p, l)
        assert rs.refined_roots == pytest.approx(sorted(_psi_roots(l, 1)), rel=1e-12, abs=1e-12)

    def test_abnormal_chain_refines_from_the_midpoint(self, monkeypatch):
        # the first square-free z^5 + a z^2 + b z + c with three real roots
        # whose remainder sequence skips a degree: no chain seeds, so exact
        # Newton starts each root at its interval's midpoint
        tol = 1e-12
        z = RatPoly([0, 1])
        p = next(
            q
            for a, b, c in itertools.product(range(-3, 4), repeat=3)
            for q in [z**5 + RatPoly([c, b, a])]
            for chain in [_sturm_chain(integer_coefficients(q))]
            if len(chain.polys[-1]) == 1 and len(chain.polys) < 6 and count_real_roots(q) == 3
        )
        assert chain_seeds(p) is None
        starts = refinement_starts(monkeypatch)
        rs = isolate_real_roots(p, tol=tol)
        assert starts == [None] * 3 and rs.multiplicities == (1,) * 3
        for (lo, hi), r in zip(rs.isolating_intervals, rs.refined_roots, strict=True):
            x, h = Fraction(r), Fraction(tol) * max(abs(Fraction(r)), 1)
            assert lo < x < hi and p.eval(lo) * p.eval(hi) < 0
            # a root lies within tol * max(|r|, 1) of r
            assert p.eval(x) == 0 or p.eval(x - h) * p.eval(x + h) < 0

    @pytest.mark.parametrize("l, family", [(2, 1), (9, 2), (30, 1), (45, 1), (70, 2), (120, 1)])
    def test_eigenfunction_seeds_certify(self, l, family):
        seeds = chain_seeds(quadratic_eigenfunction(l, family).poly)
        assert len(seeds) == l and certified(quadratic_eigenfunction(l, family).poly, seeds)

    @pytest.mark.parametrize(
        "spoil",
        [
            lambda s: [s[0] - 1.0, *s[1:-1], s[1] - 0.1],  # two seeds in one gap, none in the last
            lambda s: [*s[:-1], (s[-3] + s[-2]) / 2],  # the last seed moved into a gap with no root
            lambda s: [s[0], *s[:-1]],  # one seed duplicated, one dropped
        ],
    )
    def test_wrong_chain_seeds_are_caught_by_the_certificate(self, spoil, monkeypatch):
        # the float guesses carry no guarantee: only exact signs at the separators accept them
        p = poly_from_roots([-3, Fraction(-1, 2), Fraction(1, 3), 2, Fraction(9, 4)])
        want = whole_line_isolation(p)
        assert_matches_oracle(want)
        seeds = chain_seeds(p)
        monkeypatch.setattr(nodal, "_chain_seeds", lambda chain: spoil(seeds))
        assert isolate_real_roots(p) == want

    def test_seeds_are_taken_as_floats(self):
        import numpy as np

        z = RatPoly([0, 1])
        p = z**2 - 2
        want = isolate_real_roots(p, seeds=[-1.4, 1.4])
        for seeds in ([Fraction(-7, 5), Fraction(7, 5)], np.array([-1.4, 1.4]), [np.float64(-1.4), Fraction(7, 5)]):
            assert isolate_real_roots(p, seeds=seeds) == want
        q = (z - 1) * (z + 2)
        want = isolate_real_roots(q, seeds=[1.0, -2.0])
        assert want.refined_roots == (-2.0, 1.0)
        for seeds in ([1, -2], [np.int64(1), Fraction(-2)], np.array([1, -2])):
            assert isolate_real_roots(q, seeds=seeds) == want

    @pytest.mark.parametrize("bad", [Fraction(10**400), 1j, "x", None, math.nan])
    def test_seed_without_a_finite_float_fails_the_certificate(self, bad):
        p = RatPoly([-2, 0, 1])
        assert isolate_real_roots(p, seeds=[-1.4, bad]) == isolate_real_roots(p)


@st.composite
def parity_products(draw):
    """An even or odd p from pairs of roots +-r and the roots and multiplicities it was built from.

    Each distinct rational r > 0 gives the factor z^2 - r^2.  Optional
    extras: a root 0 (z, so p is odd), a double root 0 (z^2), a complex
    pair (z^2 + d, d > 0) and the square of one pair's factor; then a
    nonzero scale.
    """
    pairs = draw(st.lists(st.fractions(min_value=Fraction(1, 9), max_value=30, max_denominator=9), max_size=5, unique=True))
    zero = draw(st.sampled_from([0, 1, 2, 3]))
    squared = draw(st.sampled_from([None, *pairs]))
    complex_pair = draw(st.one_of(st.none(), st.fractions(min_value=Fraction(1, 7), max_value=50, max_denominator=7)))
    if not pairs and not zero:
        pairs = [Fraction(1, 2)]
    p = RatPoly([draw(st.sampled_from([1, -1, Fraction(3, 5), -12]))])
    roots = {}
    for r in pairs:
        m = 2 if r == squared else 1
        p = p * RatPoly([-r * r, 0, 1]) ** m
        roots[r] = roots[-r] = m
    if zero:
        p = p * RatPoly([0, 1]) ** zero
        roots[Fraction(0)] = zero
    if complex_pair is not None:
        p = p * RatPoly([complex_pair, 0, 1])
    return p, sorted(roots.items())


@st.composite
def mirror_cases(draw):
    """An even or odd p from pairs of roots +-r, with optional factors z and z^2 + d, its distinct real roots, and how it is seeded.

    The seeds are None, the roots as floats ("exact"), or those floats
    moved by up to 1e-6 max(|r|, 1) each ("perturbed"), so the seed of the
    root 0 may be the least positive one.
    """
    z = RatPoly([0, 1])
    pairs = draw(st.lists(st.fractions(min_value=Fraction(1, 9), max_value=30, max_denominator=9), max_size=5, unique=True))
    odd = draw(st.booleans())
    d = draw(st.one_of(st.none(), st.fractions(min_value=Fraction(1, 7), max_value=50, max_denominator=7)))
    if not pairs and not odd and d is None:
        pairs = [Fraction(1, 2)]
    p = math.prod((z**2 - r * r for r in pairs), start=z if odd else RatPoly.one())
    if d is not None:
        p = p * (z**2 + d)
    roots = sorted([*(-r for r in pairs), *pairs] + [Fraction(0)] * odd)
    mode = draw(st.sampled_from(["none", "exact", "perturbed"]))
    seeds = None if mode == "none" else [float(r) for r in roots]
    if mode == "perturbed":
        seeds = [s + draw(st.floats(-1e-6, 1e-6)) * max(abs(s), 1.0) for s in seeds]
    return p * draw(st.sampled_from([1, -1, Fraction(3, 5), -12])), roots, d is not None, mode, seeds


class TestParitySplit:
    """An even or odd p = z^k q(z^2) is seeded and counted on its half-degree part q."""

    @given(parity_products())
    @example((poly_from_roots([-1, 1]), [(-1, 1), (1, 1)]))
    @example((poly_from_roots([-2, 0, 2]), [(-2, 1), (0, 1), (2, 1)]))
    @example((poly_from_roots([-1, 1, 0, 0]), [(-1, 1), (0, 2), (1, 1)]))  # k = 2 falls back
    @example((poly_from_roots([-3, 3]) * RatPoly([2, 0, 1]), [(-3, 1), (3, 1)]))  # a negative w falls back
    @example((poly_from_roots([Fraction(-1, 2), 0, Fraction(1, 2)]) * RatPoly([-1, 0, 1]) ** 2, [(-1, 2), (Fraction(-1, 2), 1), (0, 1), (Fraction(1, 2), 1), (1, 2)]))
    @settings(max_examples=80, deadline=None)
    def test_matches_the_sturm_path(self, case):
        p, roots = case
        assert _parity_split(integer_coefficients(p)) is not None
        rs = isolate_real_roots(p)
        assert_matches_oracle(rs)
        assert rs.multiplicities == tuple(m for _, m in roots)
        for got, (want, _) in zip(rs.refined_roots, roots, strict=True):
            assert abs(got - float(want)) <= 1e-12 * max(abs(float(want)), 1.0)
        assert count_real_roots(p) == sturm_count(p.coeffs) == len(roots)

    @pytest.mark.parametrize("l", [45, 51, 56, 62, 66, 70])
    @pytest.mark.parametrize("family", [1, 2])
    def test_eigenfunctions_build_only_the_half_degree_chain(self, l, family, monkeypatch):
        # the hot path of unseeded isolation: q's chain seeds, p's never built
        built = chain_degrees(monkeypatch)
        rs = isolate_real_roots(quadratic_eigenfunction(l, family).poly)
        assert built == [l // 2]
        assert rs.count == l and rs.multiplicities == (1,) * l

    @pytest.mark.parametrize("l", [20, 45, 70])
    def test_fallbacks_are_the_generic_path(self, l, monkeypatch):
        # a square, alone or with a complex pair: q has a repeated root (or
        # p = z^2 q(z^2) for odd l), so p's own chain is built and ends at
        # gcd(p, p'), and the RootSet is the one of the square-free part, even
        # or odd again, bit for bit; without the parity split it agrees
        psi_1, psi_2 = (quadratic_eigenfunction(l, f).poly for f in (1, 2))
        pair = RatPoly([2, 0, 1])
        cases = [(psi_1 * psi_1, psi_1), (psi_2 * psi_2 * pair, psi_2 * pair)]
        got = []
        for p, part in cases:
            rs, want = isolate_real_roots(p), isolate_real_roots(part)
            assert (rs.isolating_intervals, rs.refined_roots) == (want.isolating_intervals, want.refined_roots)
            assert rs.multiplicities == (2,) * l
            got.append(rs)
        monkeypatch.setattr(nodal, "_parity_split", lambda coeffs: None)
        for (p, _), rs in zip(cases, got):
            assert_same_roots(rs, isolate_real_roots(p))

    @pytest.mark.parametrize("l", [20, 45, 70])
    def test_complex_pair_on_the_imaginary_axis_counts_on_q(self, l, monkeypatch):
        # z^2 + 1 is the root w = -1 of q: q's chain counts p's real roots,
        # and p's own chain of twice the degree is never built
        p = quadratic_eigenfunction(l, 1).poly * RatPoly([1, 0, 1])
        assert_matches_oracle(isolate_real_roots(p))
        built = chain_degrees(monkeypatch)
        rs = isolate_real_roots(p)
        assert built == [l // 2 + 1]
        assert rs.multiplicities == (1,) * l
        assert rs.refined_roots == pytest.approx(sorted(_psi_roots(l, 1)), rel=1e-12, abs=1e-12)
        for lo, hi in rs.isolating_intervals:
            assert lo < hi and p.eval(lo) * p.eval(hi) < 0

    @pytest.mark.parametrize("k", [0, 1])
    def test_every_w_negative(self, k, monkeypatch):
        # q counts no positive root: p's real root is 0 (k = 1) or none, and p's chain is never built
        p = RatPoly([0] * k + [1]) * RatPoly([1, 0, 1]) * RatPoly([3, 0, 1])
        built = chain_degrees(monkeypatch)
        rs = isolate_real_roots(p)
        assert built == [2] and rs.count == k and rs.refined_roots == (0.0,) * k

    @given(mirror_cases())
    @example((poly_from_roots([-2, 0, 2]) * RatPoly([3, 0, 1]), [-2, 0, 2], True, "exact", [-2.0, 0.0, 2.0]))
    @example((poly_from_roots([-1, 0, 1]), [-1, 0, 1], False, "perturbed", [-1.0, 1e-7, 1.0]))  # the seed of 0 is positive
    @settings(max_examples=80, deadline=None)
    def test_negative_half_is_the_mirror(self, case):
        p, roots, pair, mode, seeds = case
        with pytest.MonkeyPatch.context() as mp:
            starts = refinement_starts(mp)
            calls = whole_line_calls(mp)
            rs = isolate_real_roots(p, seeds=seeds)
        intervals, refined = rs.isolating_intervals, rs.refined_roots
        assert intervals == tuple((-hi, -lo) for lo, hi in reversed(intervals))
        assert refined == tuple(-r for r in reversed(refined))
        assert rs.count == sturm_count(p.coeffs) == len(roots) and rs.multiplicities == (1,) * len(roots)
        assert_matches_oracle(rs)
        # only the positive roots are refined, each from a seed
        positive = [float(r) for r in roots if r > 0]
        assert len(starts) == len(positive) and None not in starts
        if mode == "exact":
            # N = deg q certifies them at once; past the pair z^2 + d Descartes runs do, on the half line
            assert calls == ([(len(positive) + 1, False)] if pair and positive else [])
            if not pair:
                assert starts == positive
        elif mode == "none":
            # q's chain seeds certify against its count of positive roots, with no bisection
            assert calls == []

    def test_seeds_that_miss_roots_next_to_0(self):
        # seeds -2, 0 and 2 of z (z^2 - 1/100) (z^2 - 4) put s0 = 1 above the
        # roots +-1/10: q has a root in (0, s0^2), so the Descartes runs from
        # s0, which would not see them, do not run, and q's chain finds all five
        z = RatPoly([0, 1])
        p = z * (z**2 - Fraction(1, 100)) * (z**2 - 4)
        assert _separators([0.0, 2.0], root_bound(integer_coefficients(p)))[1] == (1, 0)
        rs = isolate_real_roots(p, seeds=[-2.0, 0.0, 2.0])
        assert rs.refined_roots == pytest.approx([-2, -0.1, 0, 0.1, 2], rel=1e-12, abs=1e-12)
        assert_matches_oracle(rs)


def descartes_oracle(coeffs, lo: Fraction, hi: Fraction) -> int:
    """Sign variations of (1 + x)^n p((lo + hi x) / (1 + x)) as the rational sum of c_k (lo + hi x)^k (1 + x)^(n - k)."""
    n = len(coeffs) - 1
    total = RatPoly.zero()
    for k, c in enumerate(coeffs):
        total = total + RatPoly([lo, hi]) ** k * RatPoly([1, 1]) ** (n - k) * c
    signs = [(c > 0) - (c < 0) for c in total.coeffs if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


@st.composite
def complex_pair_cases(draw):
    """Distinct rational roots, the seeds of a real-rooted polynomial, and a quadratic (z - c)^2 + e next to them.

    c lies inside a gap between two roots, next to a root, or at one; e = d^2
    (a complex pair c +- i d) or -d^2 (two more real roots c +- d, which the
    seeds miss), with d from 1 down to 10^-4.
    """
    roots = draw(st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=9), min_size=2, max_size=7, unique=True))
    roots.sort()
    j = draw(st.integers(0, len(roots) - 2))
    where = draw(st.sampled_from(["gap", "next", "at"]))
    if where == "gap":
        c = roots[j] + (roots[j + 1] - roots[j]) * draw(st.fractions(min_value=Fraction(1, 9), max_value=Fraction(8, 9), max_denominator=9))
    else:
        c = roots[j] + (Fraction(1, draw(st.integers(2, 10**4))) if where == "next" else 0)
    d = Fraction(1, draw(st.integers(1, 10**4)))
    e = d * d * draw(st.sampled_from([1, -1]))
    return roots, c, e, draw(st.sampled_from([1, -1, Fraction(3, 5), -12]))


class TestDescartesGaps:
    """Seeds that miss a complex pair: Descartes bounds on runs of seed gaps certify the real roots, or isolation falls back."""

    @given(
        st.lists(st.integers(-50, 50), min_size=2, max_size=9).filter(lambda c: c[-1] != 0),
        st.fractions(min_value=-8, max_value=8, max_denominator=8),
        st.fractions(min_value=Fraction(1, 8), max_value=16, max_denominator=8),
    )
    @example([0, 0, 1], Fraction(0), Fraction(1))  # a double root at an end: only the oracle applies
    @settings(max_examples=100, deadline=None)
    def test_descartes_bound(self, coeffs, lo, width):
        # dyadic ends, in eighths
        lo = Fraction(math.floor(lo * 8), 8)
        hi = lo + Fraction(math.ceil(width * 8), 8)
        v = nodal._descartes_bound(coeffs, _dyadic(lo), _dyadic(hi))
        assert v == descartes_oracle(coeffs, lo, hi)
        p = RatPoly(coeffs)
        if p.eval(lo) and p.eval(hi):
            # at least the roots inside, with multiplicity, and of their parity
            inside = sum(m for *_, m in sturm_isolation(coeffs, lo, hi))
            assert v >= inside and (v - inside) % 2 == 0

    @given(complex_pair_cases())
    @example(([Fraction(-2), Fraction(0), Fraction(1), Fraction(3)], Fraction(-1, 2), Fraction(-1, 64), 1))  # three roots in one gap
    @example(([Fraction(-2), Fraction(0), Fraction(1), Fraction(3)], Fraction(1, 2), Fraction(1, 10**8), 1))  # a pair close to the line
    @example(([Fraction(-1), Fraction(1)], Fraction(1), Fraction(-1, 4), 1))  # three roots about a seed
    @example(([Fraction(-1), Fraction(1)], Fraction(1, 2), Fraction(-1, 4), 1))  # a double root at a seed
    @example(([Fraction(-3), Fraction(-1), Fraction(1), Fraction(3)], Fraction(0), Fraction(-4), 1))  # roots -2 and 2 on separators
    @settings(max_examples=80, deadline=None)
    def test_right_count_or_fallback(self, case):
        roots, c, e, scale = case
        p = poly_from_roots(roots) * RatPoly([c * c + e, -2 * c, 1]) * scale
        seeds = [float(r) for r in roots]
        coeffs = integer_coefficients(p)
        sign = functools.partial(_dyadic_sign, coeffs)
        found = nodal._descartes_roots(coeffs, _separators(seeds, root_bound(coeffs)), seeds, sign, False, 1e-12)
        oracle = sturm_isolation(p.coeffs)
        if found is not None:
            # never a wrong count: one simple root in each open interval with opposite exact signs
            gaps, refined = found
            assert len(gaps) == len(refined) == len(oracle) == sturm_count(p.coeffs) and all(m == 1 for *_, m in oracle)
            intervals = nodal._intervals(gaps)
            for lo, hi in intervals:
                assert [m for *_, m in sturm_isolation(p.coeffs, lo, hi)] == [1] and p.eval(lo) * p.eval(hi) < 0
            for (_, hi), (lo, _) in zip(intervals, intervals[1:]):
                assert hi <= lo
        assert_matches_oracle(isolate_real_roots(p, seeds=seeds))

    def test_roots_on_separators_fail(self):
        # seeds -3, -1, 1 and 3 miss the roots -2 and 2, which are separators:
        # each gap beside them has one root inside and a Descartes bound of 1,
        # and the two roots on the separators keep the count's parity, so only
        # their zero signs show that the separators do not alternate
        p = poly_from_roots([-3, -2, -1, 1, 2, 3])
        coeffs = integer_coefficients(p)
        seps = _separators([-3.0, -1.0, 1.0, 3.0], root_bound(coeffs))
        assert seps[1:-1] == [(-2, 0), (0, 0), (2, 0)]
        sign = functools.partial(_dyadic_sign, coeffs)
        assert nodal._descartes_roots(coeffs, seps, [-3.0, -1.0, 1.0, 3.0], sign, False, 1e-12) is None
        assert isolate_real_roots(p, seeds=[-3.0, -1.0, 1.0, 3.0]).refined_roots == (-3.0, -2.0, -1.0, 1.0, 2.0, 3.0)

    def test_run_with_two_roots_in_one_gap_and_none_in_the_next(self):
        # seeds -3, -1, 1 and 3 put separators at -2, 0 and 2; the real roots
        # -3, -5/2, 1 and 3 leave two in the first gap and none in the second.
        # Far from the pair 10 +- i the run of these two gaps has Descartes
        # bound 2, its number of gaps, but its separators fail to alternate:
        # it splits, and the first seed gap, with equal signs and bound 2,
        # gives up, as a repeated root there would never be isolated
        roots = [Fraction(-3), Fraction(-5, 2), Fraction(1), Fraction(3)]
        p = poly_from_roots(roots) * RatPoly([101, -20, 1])
        coeffs = integer_coefficients(p)
        seps = _separators([-3.0, -1.0, 1.0, 3.0], root_bound(coeffs))
        assert seps[1:-1] == [(-2, 0), (0, 0), (2, 0)] and nodal._descartes_bound(coeffs, seps[0], seps[2]) == 2
        sign = functools.partial(_dyadic_sign, coeffs)
        seeds = [-3.0, -1.0, 1.0, 3.0]
        assert nodal._descartes_roots(coeffs, seps, seeds, sign, False, 1e-12) is None
        # p is square-free: with that known, the seed gap is bisected, and the
        # next, with bound 0, holds no root
        gaps, refined = nodal._descartes_roots(coeffs, seps, seeds, sign, True, 1e-12)
        # the seed gap that holds each interval
        at = [next(i for i in range(len(seps) - 1) if not nodal._less(lo, seps[i]) and not nodal._less(seps[i + 1], hi)) for lo, hi in gaps]
        assert at == [0, 0, 2, 3]
        for (lo, hi), r in zip(nodal._intervals(gaps), roots, strict=True):
            assert lo < r < hi and p.eval(lo) * p.eval(hi) < 0
        assert refined == pytest.approx([float(r) for r in roots], rel=1e-12)
        assert_matches_oracle(isolate_real_roots(p, seeds=[-3.0, -1.0, 1.0, 3.0]))

    def test_seed_gap_about_a_repeated_root_gives_up_at_once(self, monkeypatch):
        # psi_{20,1} (z - 1/3)^2 seeded at 1/3 and at every root of psi but
        # the farthest from it: the gap about 1/3 holds the double root, with
        # equal signs and Descartes bound 2, and its pieces would keep that
        # bound; the seeded run gives up within a few tests, not at the cap
        psi = quadratic_eigenfunction(20, 1).poly
        roots = isolate_real_roots(psi).refined_roots
        far = max(roots, key=lambda r: abs(r - 1 / 3))
        seeds = sorted([r for r in roots if r != far] + [1 / 3])
        p = psi * RatPoly([Fraction(-1, 3), 1]) ** 2
        coeffs = integer_coefficients(p)
        seps = _separators(seeds, root_bound(coeffs))
        tests = []
        descartes_bound = nodal._descartes_bound
        monkeypatch.setattr(nodal, "_descartes_bound", lambda *args: tests.append(args) or descartes_bound(*args))
        assert nodal._descartes_roots(coeffs, seps, seeds, functools.partial(_dyadic_sign, coeffs), False, 1e-12) is None
        assert len(tests) < 10
        rs = isolate_real_roots(p, seeds=seeds)
        assert rs.count == 21 and rs.multiplicities == tuple(1 + (abs(r - 1 / 3) < 1e-12) for r in rs.refined_roots)
        assert_matches_oracle(rs)

    @pytest.mark.parametrize("alphas", ["-1/2,2/3", "0,1/3", "-2,1"])
    def test_bilaplace_complex_pairs_match_the_sturm_oracle(self, alphas, monkeypatch):
        # every combination with a complex pair up to l = 40: the seed gaps
        # certify past the pair, and count, multiplicities and roots are the
        # Sturm path's
        cfg = CrackConfig(tuple(Fraction(a) for a in alphas.split(",")))
        combos = [Combination("bilaplace", l, v.combo_coefficients) for v in check_admissibility_bilaplace(cfg, (3, 40)) for l in [v.l]]
        paired = [combo for combo in combos if 0 < count_real_roots(combo.poly) < combo.poly.degree]
        assert len(paired) >= 5
        for combo in paired:
            assert_matches_oracle(combo.roots())


@st.composite
def square_free_powers(draw):
    """A square-free s, even, odd, with a complex pair or none of these, a multiplicity m >= 2 and a nonzero scale c.

    Even and odd s pair their distinct rational roots as +-r, an odd s has
    the root 0 as well, and either may carry a pair z^2 + d, d > 0, on the
    imaginary axis.  Otherwise the roots are distinct rationals of any sign,
    with a pair (z - c)^2 + d, c != 0, or none.
    """
    shape = draw(st.sampled_from(["even", "odd", "complex pair", "none"]))
    z = RatPoly([0, 1])
    pair = st.fractions(min_value=Fraction(1, 9), max_value=30, max_denominator=9)
    if shape in ("even", "odd"):
        rs = draw(st.lists(st.fractions(min_value=Fraction(1, 9), max_value=20, max_denominator=9), max_size=4, unique=True))
        s = math.prod((z**2 - r * r for r in rs), start=z if shape == "odd" else RatPoly.one())
        if draw(st.booleans()) or s.degree == 0:
            s = s * (z**2 + draw(pair))
    else:
        rs = draw(st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=9), min_size=1, max_size=6, unique=True))
        s = poly_from_roots(rs)
        if shape == "complex pair":
            c = draw(st.fractions(min_value=-20, max_value=20, max_denominator=9).filter(bool))
            s = s * ((z - c) ** 2 + draw(pair))
    return s, draw(st.integers(2, 3)), draw(st.sampled_from([1, -1, Fraction(3, 5), -12]))


class TestSquareFreePart:
    """A repeated root ends p's chain at g = gcd(p, p'), and p / g is isolated in p's place."""

    @given(square_free_powers())
    @example((quadratic_eigenfunction(7, 2).poly, 2, 1))  # odd: p = z^2 q(z^2) is not split
    @example((quadratic_eigenfunction(8, 1).poly * RatPoly([1, 0, 1]), 3, -12))  # even, q^3 has no chain seeds
    @example((poly_from_roots([-2, 0, 1]), 2, Fraction(1, 3)))  # the bi-Laplace (-2, 0, 1) zero set at l = 4
    @settings(max_examples=40, deadline=None)
    def test_power_has_the_rootset_of_its_base(self, case):
        s, m, c = case
        base = isolate_real_roots(s)
        rs = isolate_real_roots(s**m * c)
        assert base.multiplicities == (1,) * base.count
        assert (rs.isolating_intervals, rs.refined_roots) == (base.isolating_intervals, base.refined_roots)
        assert rs.multiplicities == (m,) * base.count

    @pytest.mark.parametrize(
        "p, evaluated",
        [
            # the one chain of the tower, of psi, counts a root in every interval
            (quadratic_eigenfunction(10, 1).poly ** 2, 0),
            # ... and none for z^2 + 1
            ((_Z**2 + 1) ** 2 * poly_from_roots([-2, 1]), 0),
            (quadratic_eigenfunction(10, 1).poly ** 2 * (_Z - Fraction(1, 3)), 1),
            # two chains, of (z - 1)^2 (z + 2) and of z - 1
            (poly_from_roots([1, 1, 1, -2, -2, 5]), 2),
        ],
    )
    def test_tower_counts_each_end_once(self, p, evaluated, monkeypatch):
        # a chain whose whole-line count is 0 or the number of intervals
        # evaluates no point; any other evaluates each distinct end once
        points = []
        variations = nodal._variations_at
        monkeypatch.setattr(nodal, "_variations_at", lambda chain, x: points.append(x) or variations(chain, x))
        rs = isolate_real_roots(p)
        ends = {x for gap in rs.isolating_intervals for x in gap}
        assert len(points) == evaluated * len(ends) and set(points) == (ends if evaluated else set())
        assert_matches_oracle(rs)

    def test_seeds_of_p_do_not_refine_the_square_free_part(self):
        # the bi-Laplace (-2, 0, 1) zero set at l = 4, z (z - 1)^2 (z + 2) / 3:
        # its phase seeds certify on the square-free part, but only p's own
        # chain path runs there, and the roots come out exact
        combo = Combination("bilaplace", 4, (Fraction(1, 3), 0, 1, Fraction(2, 3)))
        assert combo.poly == poly_from_roots([-2, 0, 1, 1]) * Fraction(1, 3)
        rs = combo.roots()
        assert rs.refined_roots == (-2.0, 0.0, 1.0) and rs.multiplicities == (1, 1, 2)
        assert rs == isolate_real_roots(combo.poly)
        assert_matches_oracle(rs)


def whole_line_calls(monkeypatch) -> list:
    """(len(seps), square_free) of every `_descartes_roots` call from here on."""
    calls = []
    descartes = nodal._descartes_roots

    def spy(coeffs, seps, starts, sign, square_free, tol):
        calls.append((len(seps), square_free))
        return descartes(coeffs, seps, starts, sign, square_free, tol)

    monkeypatch.setattr(nodal, "_descartes_roots", spy)
    return calls



class TestWholeLine:
    """A square-free p whose seeds all fail is bisected on Descartes bounds from the whole line, with no cap."""

    @pytest.mark.parametrize(
        "p",
        [
            _Z**5 + _Z - 1,
            _Z**30 + _Z - 1,
            _Z**101 + _Z - 1,
            _Z**51 - 2,
            # Mignotte: two roots 1/64 +- 5.7e-14 apart
            _Z**60 - 2 * (64 * _Z - 1) ** 2,
            # three roots closer than a float ulp, and a complex pair
            poly_from_roots([1 + Fraction(k, 10**20) for k in (1, 2, 3)]) * (_Z**2 + _Z + 1),
        ],
        ids=["z5+z-1", "z30+z-1", "z101+z-1", "z51-2", "mignotte60", "ulp-cluster"],
    )
    def test_matches_the_sturm_oracle(self, p, monkeypatch):
        calls = whole_line_calls(monkeypatch)
        rs = isolate_real_roots(p)
        assert calls == [(2, True)]
        assert rs.multiplicities == (1,) * rs.count
        assert_matches_oracle(rs)

    @pytest.mark.parametrize(
        "p",
        [_Z**2 + _Z + 1, RatPoly(range(1, 8)), _Z**4 + 1, _Z * RatPoly([1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7])],
        ids=["z2+z+1", "7z6+...+2z+1", "z4+1", "z(7z12+...+2z2+1)"],
    )
    def test_rootless_stops_at_the_chain_count(self, p, monkeypatch):
        # a chain that counts no real root on the line leaves nothing to bisect, on either line, though
        # the chain of 7z^6 + ... + 2z + 1 (p's, and q's of the odd p) is not normal and seeds nothing
        def refuse(*args):
            raise AssertionError("bisected a polynomial with no real root on its line")

        monkeypatch.setattr(nodal, "_check_float_range", refuse)
        monkeypatch.setattr(nodal, "_descartes_roots", refuse)
        # an odd p keeps its exact root 0, on the whole root bound
        odd = p.coeffs[0] == 0
        bound = nodal._fraction(root_bound(integer_coefficients(p)))
        assert isolate_real_roots(p) == nodal.RootSet(p, ((-bound, bound),) * odd, (0.0,) * odd, (1,) * odd)


class TestTransversality:
    def test_quartic_harmonic(self):
        pair = quadratic_eigenfunction(4, 1)
        assert transversality_check(pair)
        roots = isolate_real_roots(pair.poly).refined_roots
        expect = sorted(
            s * math.sqrt(3 + t * 2 * math.sqrt(2)) for s in (-1, 1) for t in (-1, 1)
        )
        for got, want in zip(roots, expect):
            assert got == pytest.approx(want, abs=1e-10)

    def test_linear(self):
        assert transversality_check(quadratic_eigenfunction(1, 1))

    def test_count_matches_degree(self):
        # psi_{l,f} is even or odd: counted on the chain of its half-degree part
        for l in range(1, 26):
            for family in (1, 2):
                p = quadratic_eigenfunction(l, family).poly
                assert count_real_roots(p) == sturm_count(p.coeffs) == l

    def test_repeated_and_complex_roots_counted_once(self):
        z = RatPoly([0, 1])
        assert count_real_roots((z - 1) ** 2 * (z + 2) * (z ** 2 + 1) ** 3) == 2
        assert count_real_roots((z ** 2 + 1) ** 2) == 0

    def test_repeated_root_is_not_transversal(self):
        z = RatPoly([0, 1])
        assert not transversality_check(Eigenpair("quadratic", 1, 3, -3, (z - 1) ** 2 * (z + 2)))

    def test_rejects_quartic_pairs(self):
        with pytest.raises(ValueError):
            transversality_check(quartic_eigenfunction(2, 3))


class TestCrackConfig:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            CrackConfig((1, 0))
        with pytest.raises(ValueError):
            CrackConfig((0, 0))
        assert CrackConfig((Fraction(-1), Fraction(1))).m == 2

    def test_exactness_detection(self):
        assert CrackConfig((Fraction(1, 2), 2)).exact
        assert not CrackConfig((0.5, 2.0)).exact

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_slope_rejected(self, bad):
        # a non-finite slope used to reach the SVD and end in "SVD did not converge"
        for alphas in ((bad,), (-1.0, bad)):
            with pytest.raises(ValueError, match=f"crack slope {bad!r} is not finite"):
                CrackConfig(alphas)


class TestAdmissibility:
    @pytest.mark.parametrize(
        "check, alphas",
        [(check_admissibility_laplace, (Fraction(0), Fraction(1))), (check_admissibility_bilaplace, (-0.5, 0.25, 1.0))],
    )
    def test_pickle_and_deepcopy(self, check, alphas):
        # verdicts and root sets hold RatPolys, whose kept forms are not pickled
        verdicts = check(CrackConfig(alphas), (3, 8))
        assert any(v.full_zero_set is not None for v in verdicts)
        for v in verdicts:
            for value in (v, v.full_zero_set):
                for back in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
                    assert back == value and type(back) is type(value)
            if v.full_zero_set is not None:
                poly = pickle.loads(pickle.dumps(v.full_zero_set)).poly
                assert _int_form(poly) == int_form(v.full_zero_set.poly)

    def test_symmetric_pair(self):
        v = check_admissibility_laplace(CrackConfig((Fraction(-1), Fraction(1))), (2, 2))[0]
        assert v.admissible
        assert v.combo_coefficients == (1, 0)
        assert v.consecutive_flag is True
        assert v.exact

    def test_zero_one_config(self):
        vs = check_admissibility_laplace(CrackConfig((Fraction(0), Fraction(1))), (2, 4))
        assert [v.admissible for v in vs] == [False, False, True]
        v4 = vs[2]
        assert v4.combo_coefficients == (0, 1)
        assert [round(r, 9) for r in v4.full_zero_set.refined_roots] == [-1.0, 0.0, 1.0]
        assert v4.consecutive_flag is True

    def test_three_cracks_never_admissible(self):
        cfg = CrackConfig((Fraction(-2), Fraction(0), Fraction(1)))
        vs = check_admissibility_laplace(cfg, (3, 10))
        assert all(not v.admissible for v in vs)
        assert all(v.rank == 2 for v in vs)

    @pytest.mark.parametrize("seed", range(4))
    def test_codimension_grows_with_crack_count(self, seed):
        # the paper's claim: the codimension of the generating data, the rank of
        # the slope-value matrix at leading order, grows with the number of cracks
        # until it fills the families; generic slopes meet no coincidence
        rng = random.Random(seed)
        for m in range(1, 6):
            alphas = set()
            while len(alphas) < m:
                alphas.add(Fraction(rng.randint(-300, 300), rng.randint(1, 97)))
            config = CrackConfig(tuple(sorted(alphas)))
            for v in check_admissibility_bilaplace(config, (max(m, 3), 12)):
                assert v.exact and v.rank == min(m, 4)
                assert v.admissible == (m <= 3)
                assert len(v.nullspace_basis or ()) == 4 - v.rank
            if m >= 2:
                assert all(v.rank == 2 for v in check_admissibility_laplace(config, (m, 12)))

    def test_single_crack_on_axis(self):
        v = check_admissibility_laplace(CrackConfig((Fraction(0),)), (1, 1))[0]
        assert v.admissible and v.combo_coefficients == (1, 0)

    def test_range_validation(self):
        cfg = CrackConfig((Fraction(0), Fraction(1)))
        with pytest.raises(ValueError):
            check_admissibility_laplace(cfg, (3, 2))
        with pytest.raises(ValueError):
            check_admissibility_laplace(cfg, (1, 4))

    def test_zero_set_contains_all_alphas(self):
        cfg = CrackConfig((Fraction(0), Fraction(1)))
        v = check_admissibility_laplace(cfg, (4, 4))[0]
        roots = v.full_zero_set.refined_roots
        for a in cfg.alphas:
            assert min(abs(r - float(a)) for r in roots) < 1e-9

    def test_bilaplace_carries_laplace_combos(self):
        cfg = CrackConfig((Fraction(-1), Fraction(1)))
        lap = check_admissibility_laplace(cfg, (2, 2))[0]
        bil = check_admissibility_bilaplace(cfg, (2, 2))[0]
        assert bil.admissible
        c, d = lap.combo_coefficients
        assert any(
            tuple(vec[:2]) == (c, d) and all(x == 0 for x in vec[2:])
            for vec in bil.nullspace_basis
        )

    def test_bilaplace_three_cracks(self):
        cfg = CrackConfig((Fraction(-1), Fraction(0), Fraction(1)))
        v = check_admissibility_bilaplace(cfg, (3, 3))[0]
        assert v.admissible
        assert v.families == (1, 2, 3, 4)
        # the odd cubic combination from families 1 and 3 must be in the basis span:
        # check the alphas are roots of the first basis combination
        roots = v.full_zero_set.refined_roots
        for a in (-1.0, 0.0, 1.0):
            assert min(abs(r - a) for r in roots) < 1e-9

    def test_four_generic_cracks_inadmissible(self):
        cfg = CrackConfig((Fraction(-7, 5), Fraction(-1, 3), Fraction(2, 7), Fraction(9, 8)))
        v = check_admissibility_bilaplace(cfg, (4, 4))[0]
        assert not v.admissible
        assert v.rank == 4

    def test_float_path_uses_svd(self):
        cfg = CrackConfig((-1.0, 1.0))
        v = check_admissibility_laplace(cfg, (2, 2), tol=1e-9)[0]
        assert not v.exact
        assert v.admissible
        c, d = v.combo_coefficients
        assert c == pytest.approx(1.0) and d == pytest.approx(0.0, abs=1e-12)

    def test_float_path_inadmissible(self):
        cfg = CrackConfig((0.3141, 1.2718))
        v = check_admissibility_laplace(cfg, (2, 2), tol=1e-9)[0]
        assert not v.admissible and v.rank == 2

    @pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, math.inf])
    @pytest.mark.parametrize("check", [check_admissibility_laplace, check_admissibility_bilaplace])
    @pytest.mark.parametrize("alphas", [(Fraction(-1), Fraction(1)), (-1.0, 1.0)])
    def test_tol_not_positive_finite_rejected(self, check, alphas, tol):
        # a NaN or non-positive tol would match no root and, on the SVD path,
        # make every verdict inadmissible
        with pytest.raises(ValueError, match="tol"):
            check(CrackConfig(alphas), (2, 2), tol=tol)


def _gaussian_power(re, im, l):
    """(re + i im)^l over the Gaussian rationals."""
    out_re, out_im = Fraction(1), Fraction(0)
    for _ in range(l):
        out_re, out_im = out_re * re - out_im * im, out_re * im + out_im * re
    return out_re, out_im


def _angle_rule_admissible(alphas, l) -> bool:
    """Whether l (phi_i - phi_j) lies in pi Z for every pair, phi = arg(alpha + i).

    (a + i)(b - i) = ab + 1 + i (b - a) has the argument phi_a - phi_b, so the
    rule asks that its l-th power be real; no eigenfunction is built.
    """
    for i, a in enumerate(alphas):
        for b in alphas[i + 1 :]:
            if _gaussian_power(a * b + 1, b - a, l)[1] != 0:
                return False
    return True


class TestAngleRuleOracle:
    """Exact Laplace verdicts against the angle rule over the Gaussian rationals."""

    SLOPE_SETS = [
        (0, 1),
        (-1, 1),
        (Fraction(-1, 2), Fraction(2, 3)),
        (0, Fraction(1, 3)),
        (-2, 0, 1),
        (-1, 0, 1),
        (Fraction(1, 3),),
        # six random rational pairs
        (-3, Fraction(7, 6)),
        (-4, -2),
        (Fraction(-8, 7), Fraction(-5, 7)),
        (-2, 1),
        (Fraction(2, 3), Fraction(5, 6)),
        (Fraction(-3, 7), Fraction(2, 7)),
    ]

    @pytest.mark.parametrize("alphas", SLOPE_SETS, ids=str)
    def test_verdicts_match_angle_rule(self, alphas):
        alphas = tuple(Fraction(a) for a in alphas)
        verdicts = check_admissibility_laplace(CrackConfig(alphas), (len(alphas), 30))
        assert [v.l for v in verdicts] == list(range(len(alphas), 31))
        assert [v.admissible for v in verdicts] == [_angle_rule_admissible(alphas, v.l) for v in verdicts]

    def test_rule_admits_known_orders(self):
        # the oracle itself: -1, 0, 1 sit at 3pi/4, pi/2, pi/4, so l must be a multiple of 4
        alphas = (Fraction(-1), Fraction(0), Fraction(1))
        assert [l for l in range(3, 31) if _angle_rule_admissible(alphas, l)] == [4, 8, 12, 16, 20, 24, 28]
        assert all(_angle_rule_admissible((Fraction(1, 3),), l) for l in range(1, 31))


class TestNullspaceCertificate:
    @given(
        st.lists(
            st.fractions(max_denominator=8, min_value=-3, max_value=3),
            min_size=1,
            max_size=3,
            unique=True,
        ),
        st.integers(3, 8),
    )
    @settings(max_examples=25, deadline=None)
    def test_admissible_combos_vanish_exactly(self, alphas, l):
        cfg = CrackConfig(tuple(sorted(alphas)))
        v = check_admissibility_laplace(cfg, (l, l))[0]
        if v.admissible:
            combo = Combination("laplace", l, v.combo_coefficients).poly
            for a in cfg.alphas:
                assert combo.eval(Fraction(a)) == 0
        else:
            assert v.rank == min(cfg.m, 2)


class TestCombination:
    @pytest.mark.parametrize(
        "equation, l, coeffs, message",
        [
            ("laplace", 0, (1, 0), "family 1 has no degree-0 eigenfunction at k=0"),
            ("laplace", 0, (0, 2), "family 2 has no degree--1 eigenfunction at k=0"),
            ("bilaplace", 1, (1, 0, 3), "family 3 has no degree--1 eigenfunction at k=1"),
            ("bilaplace", 2, (0, 0, 0, 0.5), "family 4 has no degree--1 eigenfunction at k=2"),
        ],
    )
    def test_absent_family_weight_raises(self, equation, l, coeffs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Combination(equation, l, coeffs)

    @pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("family", [1, 2, 4])
    def test_non_finite_weight_raises(self, family, weight):
        # .poly takes each float weight as its exact binary value, which NaN and inf lack
        coeffs = [1, 0, 0, 0]
        coeffs[family - 1] = weight
        with pytest.raises(ValueError, match=rf"^the family {family} weight {weight!r} is not finite$"):
            Combination("bilaplace", 6, coeffs)

    def test_zero_weight_on_absent_family_is_accepted(self):
        assert Combination("bilaplace", 2, (1, 0, 0, 0)).poly == quartic_eigenfunction(2, 1).poly
        assert Combination("laplace", 1, (0, 1)).poly == RatPoly.one()

    @pytest.mark.parametrize("equation, coeffs", [("laplace", (1, 0, 0)), ("bilaplace", (1, 0, 0, 0, 0))])
    def test_too_many_coefficients_raise(self, equation, coeffs):
        with pytest.raises(ValueError, match="at most"):
            Combination(equation, 5, coeffs)

    def test_unknown_equation_raises(self):
        with pytest.raises(ValueError, match="equation must be"):
            Combination("heat", 3, (1,))

    @pytest.mark.parametrize("equation", ["laplace", "bilaplace"])
    @pytest.mark.parametrize("l", range(1, 9))
    def test_poly_is_the_weighted_sum_of_eigenfunctions(self, equation, l):
        build = quadratic_eigenfunction if equation == "laplace" else quartic_eigenfunction
        rng = random.Random(l)
        families = Combination(equation, l, (0,) * Combination.family_count(equation)).families
        # family f has degree l - f + 1: at least 1 for f = 1 and at least 0 otherwise
        assert families == tuple(range(1, (2 if equation == "laplace" else min(4, l + 1)) + 1))
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in families]
        coeffs[-1] = rng.uniform(-2, 2)  # a float weight enters as its exact binary value
        want = RatPoly.zero()
        for family, c in enumerate(coeffs, start=1):
            want = want + build(l - family + 1, family).poly * Fraction(c)
        assert Combination(equation, l, coeffs).poly == want


    @settings(max_examples=200, deadline=None)
    @given(equation=st.sampled_from(["laplace", "bilaplace"]), l=st.integers(1, 40), data=st.data())
    @example(equation="bilaplace", l=40, data=None)
    def test_poly_matches_the_ratpoly_sum(self, equation, l, data):
        # the integer sum over one common denominator equals the RatPoly sum of
        # psi_f Fraction(c_f), with a float weight as its exact binary value
        families = Combination(equation, l, (0,) * Combination.family_count(equation)).families
        weight = st.one_of(
            st.integers(-(10**30), 10**30),
            st.fractions(max_denominator=10**12),
            st.sampled_from([1e-300, 1e300, -0.0, 5e-324, -1.5]),
            st.floats(allow_nan=False, allow_infinity=False),
        )
        if data is None:
            coeffs = [Fraction(-7, 3), 1e-300, -0.0, 10**30][: len(families)]
        else:
            coeffs = data.draw(st.lists(weight, min_size=len(families), max_size=len(families)))
        combo = Combination(equation, l, coeffs)
        assert combo.poly == combination_poly(combo)
        assert all(type(c) is Fraction for c in combo.poly.coeffs)
        # the integer form the sum kept is the form of the Fractions
        assert _int_form(combo.poly) == int_form(combo.poly)
        assert integer_coefficients(combo.poly) == primitive_coefficients(combo.poly)


class TestExactVerdictOracle:
    @pytest.mark.parametrize("equation", ["laplace", "bilaplace"])
    @pytest.mark.parametrize("pool", ADM_POOL, ids=["m1", "m2", "m3"])
    def test_verdicts_match_the_fraction_path(self, equation, pool):
        # every exact verdict up to l = 30: rank, basis and zero set as the
        # Fraction matrix, the Fraction kernel and the RatPoly combination give them
        check = check_admissibility_laplace if equation == "laplace" else check_admissibility_bilaplace
        for alphas in pool:
            cfg = CrackConfig(tuple(Fraction(a) for a in alphas))
            for v in check(cfg, (cfg.m, 30)):
                rank, basis = exact_admissibility(equation, cfg.alphas, v.l)
                assert (v.rank, v.nullspace_basis, v.admissible) == (rank, basis, basis is not None)
                if basis is None:
                    continue
                assert v.combo_coefficients == basis[0]
                want = combination_poly(Combination(equation, v.l, basis[0]))
                if want.degree > 0:
                    assert v.full_zero_set == isolate_real_roots(want, seeds=_phase_seeds(v.l, basis[0]))
                else:
                    assert v.full_zero_set is None


class TestSeedsMatchTheirPolynomial:
    """With the Sturm chain disabled, every seeded isolation must certify."""

    @pytest.fixture(autouse=True)
    def no_sturm(self, monkeypatch):
        def refuse(coeffs):
            raise AssertionError("seeds failed to certify; Sturm fallback reached")

        monkeypatch.setattr(nodal, "_sturm_chain", refuse)

    def test_laplace_verdicts(self):
        configs = [CrackConfig(tuple(Fraction(a) for a in alphas)) for pool in ADM_POOL for alphas in pool]
        isolated = 0
        for cfg in configs:
            for v in check_admissibility_laplace(cfg, (cfg.m, 30)):
                isolated += v.full_zero_set is not None
        assert isolated > 0

    def test_bilaplace_verdicts(self):
        # past a complex pair the seed gaps certify by Descartes bounds; only
        # a combination with a repeated root still reaches the Sturm chain
        repeated = {(("-2", "0", "1"), 4)}  # (z + 2) z (z - 1)^2
        isolated = 0
        for alphas in (alphas for pool in ADM_POOL for alphas in pool):
            cfg = CrackConfig(tuple(Fraction(a) for a in alphas))
            for l in range(cfg.m, 31):
                if (alphas, l) in repeated:
                    with pytest.raises(AssertionError, match="Sturm fallback"):
                        check_admissibility_bilaplace(cfg, (l, l))
                else:
                    isolated += check_admissibility_bilaplace(cfg, (l, l))[0].full_zero_set is not None
        assert isolated > 300

    def test_enumeration(self):
        ratios = [-1.5, -0.3, 0.0, 0.45, Fraction(2, 3), 2]
        for m in (1, 2, 3):
            for l in range(m, 13):
                configs = enumerate_admissible(m, l, ratios)
                assert len(configs) == len(ratios) * (l - m + 1) + max(l - m, 0)

    @pytest.mark.parametrize(
        "terms",
        [{2: (1, 0)}, {3: (0.5, -1.25), 5: (0, 1)}, {4: (0, 1)}, {7: (1e-3, 4.0)}, {12: (-2.0, 0.3)}],
    )
    def test_laplace_boundary_traces(self, terms):
        from pencil.expansion import Expansion, synthesize_boundary_trace

        l = min(terms)
        trace = synthesize_boundary_trace(Expansion("laplace", terms), 8)
        assert len(trace.crack_angles) == (l if terms[l][0] else l - 1)


def _seed_weights(equation: str, l: int, rng: random.Random) -> list[list]:
    """Exact and float weights for every family present at order l, each with c_1 != 0 and c_1 = 0."""
    families = Combination(equation, l, (0,) * Combination.family_count(equation)).families
    cases = []
    for first in (True, False):
        exact = [Fraction(rng.randint(-99, 99), rng.randint(1, 99)) for _ in families]
        floats = [rng.uniform(-3, 3) for _ in families]
        exact[0] = (exact[0] or Fraction(1)) if first else Fraction(0)
        floats[0] = floats[0] if first else 0.0
        cases += [exact, floats]
    return cases


_SEED_WEIGHTS = st.one_of(
    st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6),
    st.floats(allow_nan=False, allow_infinity=False),
)


def assert_seeds_in_intervals(seeds, rs: nodal.RootSet) -> None:
    """Each seed lies inside the isolating interval of its own root of rs: no seed outside them, and no two in one."""
    intervals = rs.isolating_intervals
    held = [bisect.bisect_left(intervals, (Fraction(s),)) - 1 for s in seeds]
    assert all(i >= 0 and intervals[i][0] < s < intervals[i][1] for s, i in zip(seeds, held)), (seeds, intervals)
    assert len(set(held)) == len(held), (seeds, intervals)


def assert_oracle_seeded_alike(equation: str, l: int, coeffs) -> None:
    """The program's seeds and the numpy oracle's: bit for bit for Laplace; for bi-Laplace, the same RootSet contract.

    A bi-Laplace RootSet from the program's seeds has the counts and
    multiplicities of the one from the oracle's scan seeds, and roots
    within the RootSet bound of them; each program seed lies inside the
    isolating interval of its root.
    """
    if equation == "laplace":
        assert _phase_seeds(l, coeffs) == phase_seeds(l, coeffs), (l, coeffs)
        return
    combo = Combination(equation, l, coeffs)
    if combo.poly.degree < 1:
        return
    seeds = _phase_seeds(l, coeffs)
    program = combo.roots()
    assert_within_contract(program, isolate_real_roots(combo.poly, seeds=phase_seeds(l, coeffs)))
    assert_seeds_in_intervals(seeds, program)


class TestPhaseSeeds:
    """The seeds against a numpy oracle: the Laplace closed form bit for bit, and the bi-Laplace level crossings against a scan.

    The Laplace seeds do the same IEEE operations in the same order in both
    forms, so they and the roots refined from them are equal bit for bit
    as long as numpy's float64 sin and cos round as the platform libm
    behind `math` does.  A numpy build that dispatches to other (SIMD)
    routines can move a seed by a few ulps and fail those equalities while
    the program is correct: seeds are only guesses, certified exactly by
    `_certified_roots`.  The bi-Laplace seeds solve for level crossings of
    the phase, where the oracle scans the phase form, so only the RootSet
    contract holds between the two.
    """

    @pytest.mark.parametrize("equation", ["laplace", "bilaplace"])
    @pytest.mark.parametrize("ls", [range(k, k + 40) for k in range(1, 161, 40)], ids=lambda ls: f"l{ls[0]}-{ls[-1]}")
    def test_equal_to_numpy_oracle(self, equation, ls):
        for l in ls:
            rng = random.Random(f"{equation}-{l}")
            for coeffs in _seed_weights(equation, l, rng):
                assert_oracle_seeded_alike(equation, l, coeffs)

    @given(
        st.sampled_from(["laplace", "bilaplace"]), st.integers(1, 40), st.lists(_SEED_WEIGHTS, min_size=4, max_size=4)
    )
    @example("laplace", 3, [5e-324, -1.0, 0, 0])  # phi underflows: the cotangent is infinite and dropped
    @example("bilaplace", 5, [1e308, 1e308, -1e308, 1e308])  # scaled first, the phase form does not overflow
    @settings(max_examples=80, deadline=None)
    def test_only_finite_floats(self, equation, l, weights):
        n = len(Combination(equation, l, (0,) * Combination.family_count(equation)).families)
        seeds = _phase_seeds(l, weights[:n])
        assert all(type(s) is float and math.isfinite(s) for s in seeds)
        assert len(seeds) <= l

    @given(
        st.sampled_from(["laplace", "bilaplace"]),
        st.integers(1, 40),
        st.lists(_SEED_WEIGHTS, min_size=4, max_size=4),
        st.integers(-1100, 1100),
    )
    @example("bilaplace", 3, [0, 0, 0, 5e-324], 1100)
    @example("laplace", 3, [5e-324, -1.0, 0, 0], 1)
    @settings(max_examples=80, deadline=None)
    def test_unchanged_by_power_of_two(self, equation, l, weights, k):
        # the roots of the combination do not depend on a common factor, and
        # an exact factor 2^k leaves the scaled weights and so every seed as they were
        n = len(Combination(equation, l, (0,) * Combination.family_count(equation)).families)
        scaled = [Fraction(w) * Fraction(2) ** k for w in weights[:n]]
        assert _phase_seeds(l, scaled) == _phase_seeds(l, weights[:n])

    @pytest.mark.parametrize("c4", [5e-324, Fraction(1, 2**1100), 1, 1e308])
    def test_constant_combination_has_no_seeds(self, c4):
        # at l = 3 only psi_{0,4} = 1 is weighted: the phase form is c_4 sin^3,
        # which 5e-324 used to underflow into 37 sign changes
        assert Combination("bilaplace", 3, (0, 0, 0, c4)).poly.degree == 0
        assert _phase_seeds(3, [0, 0, 0, c4]) == []

    def test_roots_equal_with_oracle_seeds(self, monkeypatch):
        rng = random.Random(16)
        combos = [
            ("laplace", l, coeffs) for l in (1, 2, 5, 12, 29, 40, 70) for coeffs in _seed_weights("laplace", l, rng)
        ]
        combos += [
            ("bilaplace", l, coeffs) for l in (3, 4, 9, 20, 33) for coeffs in _seed_weights("bilaplace", l, rng)
        ]
        combos = [(e, l, c) for e, l, c in combos if Combination(e, l, c).poly.degree > 0]
        program = [Combination(*combo).roots() for combo in combos]
        seeds = [_phase_seeds(l, c) for _, l, c in combos]
        monkeypatch.setattr(nodal, "_phase_seeds", phase_seeds)
        oracle = [Combination(*combo).roots() for combo in combos]
        for (equation, *_), got, want, s in zip(combos, program, oracle, seeds):
            if equation == "laplace":
                assert got == want
            else:
                assert_within_contract(got, want)
                assert_seeds_in_intervals(s, got)


def ellipse_seed_count(p: RatPoly, symmetric: bool) -> int:
    """The seeds `_phase_seeds` makes for p: one per distinct real root by the `Fraction` Sturm oracle, or per root >= 0 for an even or odd p."""
    n = sturm_count(p.coeffs)
    return (n + (p.coefficient(0) == 0)) // 2 if symmetric else n


# weights that zero some families: none, c_1 (degree below l), c_2 and c_4 (even or
# odd), c_1 and c_3 (odd or even), c_1 and c_2 (a double zero of the phase form at 0)
_ZEROED = st.sampled_from([(), (0,), (1, 3), (0, 2), (0, 1)])


class TestEllipseSeeds:
    """The bi-Laplace seeds from the rotating ellipse: one per real root, each inside its root's certified interval."""

    @given(st.integers(3, 200), st.lists(st.fractions(-99, 99, max_denominator=99), min_size=4, max_size=4), _ZEROED)
    @example(64, [Fraction(0), Fraction(0), Fraction(-67, 4), Fraction(-73, 45)], ())  # |alpha / beta| within 7e-7 of 1
    @example(57, [Fraction(0), Fraction(21, 23), Fraction(-38), Fraction(-83, 4)], ())  # |beta / alpha| = 0.9976
    @settings(max_examples=60, deadline=None)
    def test_one_seed_per_real_root(self, l, weights, zeroed):
        # in the three monotone cases the exact case fixes the count, which the
        # Fraction Sturm oracle confirms to l = 40 (it takes seconds past l = 100);
        # in every case the seeds certify: each lies in the isolating interval of its
        # own root, with one seed per root (per root >= 0 for an even or odd p)
        weights = [0 if k in zeroed else w for k, w in enumerate(weights)]
        if weights[2] == weights[3] == 0:
            weights[3] = Fraction(1)
        combo = Combination("bilaplace", l, weights)
        p = combo.poly
        if p.degree < 1:
            return
        case, symmetric, _, _ = nodal._ellipse_case(l, [w.as_integer_ratio() for w in weights])
        seeds = _phase_seeds(l, weights)
        rs = combo.roots()
        assert_seeds_in_intervals(seeds, rs)
        held = sum(r >= 0 for r in rs.refined_roots) if symmetric else rs.count
        if case != "arc" or len(set(rs.multiplicities)) == 1:
            assert len(seeds) == held
        if symmetric:
            assert all(s >= 0 for s in seeds)
        if l <= 40:
            if case != "arc":
                assert len(seeds) == ellipse_seed_count(p, symmetric)
            assert_matches_oracle(rs)

    @pytest.mark.parametrize(
        "l, weights, case, count",
        [
            # alpha = -beta: the pure psi_{6,3}, whose roots are cot(k pi / 7); even
            (8, (0, 0, 1, 0), "equal", 3),
            # |alpha| = |beta| with c_1 = c_2 = 1 and c_3 = l - 1: both factors have roots
            (10, (1, 9, 9, 24), "equal", 10),
            # c_1 = 0: the degree is l - 1, and phi = 0 and pi are no roots
            (12, (0, 1, 2, 3), "alpha", 11),
            (9, (0, 1, 1, 5), "beta", 6),
            # an arc that recrosses levels: all l roots real
            (6, (Fraction(-5, 4), -4, -9, Fraction(9, 2)), "arc", 6),
            # an arc with l - 2 real roots and one complex pair
            (8, (1, 3, 9, 1), "arc", 6),
            # even and odd (c_2 = c_4 = 0, or c_1 = c_3 = 0): positive seeds only,
            # and 0.0 for the exact root 0 of an odd combination, or the double
            # root 0 of an even one
            (10, (1, 0, 3, 0), "alpha", 5),
            (11, (1, 0, 3, 0), "alpha", 6),
            (11, (0, 1, 0, 2), "alpha", 5),
            (11, (0, 1, 0, 3), "equal", 5),
        ],
    )
    def test_cases(self, l, weights, case, count):
        weights = tuple(Fraction(w) for w in weights)
        combo = Combination("bilaplace", l, weights)
        got, symmetric, origin, _ = nodal._ellipse_case(l, [w.as_integer_ratio() for w in weights])
        seeds = _phase_seeds(l, weights)
        assert got == case
        assert len(seeds) == count == ellipse_seed_count(combo.poly, symmetric)
        assert (0.0 in seeds) == origin
        if symmetric:
            assert all(s >= 0 for s in seeds)
        rs = combo.roots()
        assert_seeds_in_intervals(seeds, rs)
        assert_matches_oracle(rs)


class TestCertificateArithmetic:
    """The integer sign and goal arithmetic against their Fraction definitions."""

    @given(
        st.lists(st.integers(-(2**80), 2**80), min_size=1, max_size=12),
        st.integers(-(2**70), 2**70),
        st.integers(0, 90),
        st.integers(0, 40),
    )
    @settings(max_examples=200, deadline=None)
    def test_dyadic_sign(self, cofactor, num, shift, finer):
        # p has the root num / 2^shift; the signs there and one step of
        # 2^-(shift + finer) to either side are the ones a certificate needs
        p = RatPoly([-num, 1 << shift]) * RatPoly(cofactor)
        coeffs = integer_coefficients(p)
        near = [(num, shift), ((num << finer) - 1, shift + finer), ((num << finer) + 1, shift + finer)]
        for point, point_shift in near:
            x = Fraction(point, 1 << point_shift)
            expected = (p.eval(x) > 0) - (p.eval(x) < 0)
            # unreduced, and reduced by the conversion every caller makes
            assert _dyadic_sign(coeffs, point, point_shift) == _dyadic_sign(coeffs, *_dyadic(x)) == expected

    @given(
        st.lists(st.integers(-(2**40), 2**40), min_size=1, max_size=8).filter(lambda q: q[0] and q[-1]),
        st.integers(0, 1),
        st.integers(-(2**80), 2**80),
        st.integers(0, 100),
    )
    @example([3, -1], 1, -7, 2)  # odd p at a negative point
    @example([-1, 0, 2], 1, 0, 0)  # odd p at 0: p(0) = 0 although q(0) != 0
    @example([-1, 0, 2], 0, 0, 5)  # even p at 0
    @example([5, -(2**40), 1], 1, -(2**80) + 1, 100)  # a long mantissa at a negative point
    @settings(max_examples=200, deadline=None)
    def test_parity_sign(self, q, k, num, shift):
        # p(x) = x^k q(x^2): sign(x)^k times the sign of q at x^2, against p's exact value
        p = RatPoly([0] * k + [c for a in q for c in (a, 0)][:-1])
        split = _parity_split(integer_coefficients(p))
        assert split is not None and split[0] == k
        x = Fraction(num, 1 << shift)
        value = p.eval(x)
        assert _parity_sign(*split)(num, shift) == (value > 0) - (value < 0)

    @given(st.fractions(max_denominator=10**6).filter(lambda x: x.denominator & (x.denominator - 1)))
    @settings(max_examples=50, deadline=None)
    def test_non_dyadic_point_raises(self, x):
        # no exact sign is ever taken at a point that is not num / 2^shift:
        # isolation and refinement hold every point as that pair, and the
        # chain's sign variations, the one exact sign at a Fraction, refuse it
        with pytest.raises(ValueError, match="not a dyadic rational"):
            _dyadic(x)
        with pytest.raises(ValueError, match="not a dyadic rational"):
            _variations_at(_sturm_chain([-1, 0, 3]), x)

    @given(
        st.lists(st.integers(-(2**60), 2**60), min_size=1, max_size=10),
        st.floats(min_value=-1e6, max_value=1e6),
        st.sampled_from(["any", "root", "critical"]),
    )
    @example([1, 0, 1], 5e-324, "any")  # p'(x) = 2^-1073: the iterate overflows a float
    @settings(max_examples=200, deadline=None)
    def test_exact_newton(self, cofactor, x, where):
        # x is a root of p, or p'(x) = 0 with p(x) = 1, or neither
        p = RatPoly(cofactor) if any(cofactor) else RatPoly.one()
        if where == "root":
            p = p * RatPoly([-Fraction(x), 1])
        elif where == "critical":
            p = p * RatPoly([-Fraction(x), 1]) ** 2 + RatPoly.one()
        coeffs = integer_coefficients(p)
        sign, step = _exact_newton(coeffs, x)
        want_sign, want = exact_newton(coeffs, x)
        assert sign == want_sign
        try:
            want = None if want is None else float(want)
        except OverflowError:
            want = None
        assert step == want
        if where == "root":
            assert sign == 0
        if where == "critical":
            assert step is None

    @given(
        st.integers(-(10**9) << 70, 10**9 << 70),
        st.integers(1, 10**9 << 70),
        st.integers(0, 70),
        st.floats(min_value=1e-300, max_value=1e3),
    )
    @settings(max_examples=200, deadline=None)
    def test_goal(self, lo, width, shift, tol):
        # the bracket (lo / 2^shift, hi / 2^shift), in lowest terms or not
        hi = lo + width
        goal = Fraction(tol) / 8 * max(abs(Fraction(lo, 1 << shift)), abs(Fraction(hi, 1 << shift)), Fraction(1))
        num, goal_shift = _goal(lo, hi, shift, tol)
        assert Fraction(num, 1 << goal_shift) == goal
        # the certificate's h = 2^k
        k = num.bit_length() - goal_shift - 3
        assert goal / 8 < Fraction(2) ** k <= goal / 2


def exact_sign(coeffs, num: int, shift: int) -> int:
    """The sign of p(num / 2^shift) from the exact `Fraction` value."""
    value = RatPoly(coeffs).eval(Fraction(num, 1 << shift)) if any(coeffs) else 0
    return (value > 0) - (value < 0)


@st.composite
def sign_cases(draw):
    """Integer coefficients, up to 300 bits and degree 40, and a dyadic point num / 2^shift.

    The point is random (either side of 1 in size), or p is given the exact
    root a / 2^k and the point is that root or lies 2^-(k + finer) from it.
    """
    bits = draw(st.sampled_from([4, 60, 300]))
    coeffs = draw(st.lists(st.integers(-(2**bits), 2**bits), min_size=1, max_size=40))
    if draw(st.booleans()):
        return coeffs, draw(st.integers(-(2**80), 2**80)), draw(st.integers(0, 100))
    a, k = draw(st.integers(-(2**20), 2**20)), draw(st.integers(0, 30))
    cofactor = RatPoly(coeffs) if any(coeffs) else RatPoly.one()
    coeffs = integer_coefficients(cofactor * RatPoly([-a, 1 << k]))
    finer = draw(st.sampled_from([None, 1, 30, 64, 100, 200, 300]))
    if finer is None:
        return coeffs, a, k
    return coeffs, (a << finer) + draw(st.sampled_from([-1, 1])), k + finer


def fallbacks(monkeypatch) -> list:
    """(num, shift) of every exact Horner the sign kernels fall back to from here on."""
    calls = []
    exact = nodal._dyadic_sign
    monkeypatch.setattr(nodal, "_dyadic_sign", lambda coeffs, num, shift: calls.append((num, shift)) or exact(coeffs, num, shift))
    return calls


class TestSignKernel:
    """The fixed-point filter decides a sign only when its error bound proves it, and the kernel is always exact."""

    @given(sign_cases(), st.integers(0, 300))
    @example(([-1, 3], 1, 2), 64)  # 3x - 1 at 1/4: the floor errors of one step
    @example(([1] * 40, -(2**80) + 1, 79), 64)  # |x| < 1, close to -1, at degree 39
    @example(([-(2**300), 0, 1], 2**150, 0), 0)  # an exact integer root, no fraction bits at all
    @settings(max_examples=300, deadline=None)
    def test_filter_gives_the_exact_sign_or_none(self, case, bits):
        coeffs, num, shift = case
        got = _filtered_sign([c << bits for c in reversed(coeffs)], len(coeffs) - 1, num, shift)
        assert got in (0, exact_sign(coeffs, num, shift))

    @given(sign_cases())
    @settings(max_examples=300, deadline=None)
    def test_kernel_is_exact(self, case):
        coeffs, num, shift = case
        assert _sign_kernel(coeffs)(num, shift) == exact_sign(coeffs, num, shift)

    @pytest.mark.parametrize("cofactor", [[1], [3, -1, 0, 2], [2**200 + 1, -(2**200)], [5] * 30])
    @pytest.mark.parametrize("root", [(0, 0), (1, 0), (-3, 1), (5, 7), (2**40 + 1, 3)])
    def test_exact_roots_fall_back(self, cofactor, root, monkeypatch):
        # no floor error vanishes at a root: neither pass decides, and the
        # exact Horner gives the zero
        a, k = root
        coeffs = integer_coefficients(RatPoly(cofactor) * RatPoly([-a, 1 << k]))
        for bits in (nodal._FILTER_BITS, 2 * nodal._FILTER_BITS):
            assert _filtered_sign([c << bits for c in reversed(coeffs)], len(coeffs) - 1, a, k) == 0
        calls = fallbacks(monkeypatch)
        assert _sign_kernel(coeffs)(a, k) == 0 and calls == [(a, k)]

    @pytest.mark.parametrize("cofactor", [[1], [3, -1, 0, 2], [7, 1, 1, 1, 1, 1, 1, 1]])
    @pytest.mark.parametrize("root", [(1, 1), (-5, 3), (7, 0)])
    @pytest.mark.parametrize("side", [-1, 1])
    def test_points_near_a_root(self, cofactor, root, side, monkeypatch):
        # 2^-100 from the root |p(x)| is far below 2^-64: the first pass, 64
        # fraction bits beyond the growth of its bound, cannot decide, and the
        # doubled one does; 2^-200 from it only the exact Horner can
        a, k = root
        coeffs = integer_coefficients(RatPoly(cofactor) * RatPoly([-a, 1 << k]))
        sign = _sign_kernel(coeffs)
        calls = fallbacks(monkeypatch)
        for finer, exact in ((100, False), (200, True)):
            num, shift = (a << finer) + side, k + finer
            want = exact_sign(coeffs, num, shift)
            assert want and _filtered_sign([c << nodal._FILTER_BITS for c in reversed(coeffs)], len(coeffs) - 1, num, shift) == 0
            calls.clear()
            assert sign(num, shift) == want
            assert calls == ([(num, shift)] if exact else [])

    @pytest.mark.parametrize(
        "p, points",
        [
            # coefficients near 2^600, and the value about -1 at 1 and at 1 + 2^-400
            (RatPoly([-(2**300), 2**300 + 1]) * RatPoly([-(2**300) - 2, 2**300 + 1]), [(1, 0), ((1 << 400) + 1, 400)]),
            # coefficients near 2^400, and the value 1 at the double root 3/4 of the square
            (RatPoly([-3, 4]) ** 2 * 2**400 + 1, [(3, 2), (5, 3), ((3 << 60) + 1, 62)]),
            # coefficients near 2^300, and the value 2^-100 at 3/4 + 2^-202: the second pass decides
            (RatPoly([-3, 4]) ** 2 * RatPoly([2**300 + 1, 1]), [((3 << 200) + 1, 202), ((3 << 200) - 1, 202)]),
            # Wilkinson's product to 20: large coefficients, small values between its roots
            (poly_from_roots(range(1, 21)), [((2 * k + 1) << 40, 41) for k in range(1, 20)] + [((k << 60) + 1, 60) for k in (3, 17)]),
        ],
        ids=["huge-product", "huge-plus-1", "huge-tiny", "wilkinson20"],
    )
    def test_huge_coefficients_with_small_values(self, p, points, monkeypatch):
        # the filter's error is absolute, at most n 2^((n-1) g): coefficient size costs it nothing
        coeffs = integer_coefficients(p)
        sign = _sign_kernel(coeffs)
        calls = fallbacks(monkeypatch)
        for num, shift in points:
            assert sign(num, shift) == exact_sign(coeffs, num, shift) != 0
        assert calls == []

    def test_large_points_keep_no_coefficient_lists(self):
        # beyond |x| = 2^_KEPT_GROWTH each coefficient is shifted as the Horner
        # reaches it: kept, the lists for the points 2^17 + 1 ... 2^200 + 1
        # would hold 101 numbers of up to 20,000 bits for each point, about 25 MB
        q = _parity_split(integer_coefficients(quadratic_eigenfunction(200, 1).poly))[1]
        sign = _sign_kernel(q)
        tracemalloc.start()
        try:
            for g in range(nodal._KEPT_GROWTH + 1, 201):
                num = (1 << g) + 1
                assert sign(num, 0) == _dyadic_sign(q, num, 0)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 2**20

    @pytest.mark.parametrize("l, family", [(200, 1), (201, 2)])
    def test_beyond_1_at_degree_100(self, l, family, monkeypatch):
        # q, of degree 100, has roots up to about (2 l / pi)^2: every sign of
        # its isolation at |x| > 1 starts from 64 + 99 g fraction bits and
        # decides on the first pass, and the RootSet is the exact Horner's.
        # Each of the 100 positive roots takes the two signs of its seed's
        # bracket and no other
        p = quadratic_eigenfunction(l, family).poly
        coeffs = integer_coefficients(p)
        q = _parity_split(coeffs)[1]
        assert len(q) - 1 == 100
        calls = fallbacks(monkeypatch)
        # g = bitlen(num) - shift of every filter pass, and the number of signs
        passes, signs = [], []
        filtered, kernel = nodal._filtered_sign, nodal._sign_kernel
        monkeypatch.setattr(
            nodal, "_filtered_sign", lambda scaled, n, num, shift: passes.append(num.bit_length() - shift) or filtered(scaled, n, num, shift)
        )
        monkeypatch.setattr(nodal, "_sign_kernel", lambda c: (lambda sign: lambda *x: signs.append(x) or sign(*x))(kernel(c)))
        rs = isolate_real_roots(p)
        assert calls == [] and rs.count == l
        # one pass per sign, half of them at |x| >= 1
        assert len(signs) == len(passes) == 200 and sum(g > 0 for g in passes) == 100
        sign = _sign_kernel(q)
        for k in range(40):
            num, shift = (3 + 7 * k) ** 9 + 1, 10 + k
            assert sign(num, shift) == exact_sign(q, num, shift)
        monkeypatch.setattr(nodal, "_sign_kernel", lambda c: functools.partial(_dyadic_sign, c))
        assert isolate_real_roots(p) == rs


@st.composite
def refinement_cases(draw):
    """A p with rational and irrational roots, and the Sturm oracle's isolating intervals, the outer ones widened.

    p is square-free unless its factor z - 1/2^k meets a drawn root, which
    is then a double root.  The widened ends are dyadics beyond 64, a power
    of two or not, so that refinement cuts their far end to sixteenths.
    """
    roots = draw(st.lists(st.fractions(min_value=-40, max_value=40, max_denominator=12), min_size=1, max_size=5, unique=True))
    p = poly_from_roots(roots)
    if draw(st.booleans()):
        p = p * RatPoly([-2, 0, 1])
    if draw(st.booleans()):
        p = p * RatPoly([draw(st.integers(1, 10**6)), 0, 1])
    if draw(st.booleans()):
        p = p * RatPoly([-1, 1 << draw(st.integers(0, 1100))])
    intervals = [(a, b) for a, b, _ in sturm_isolation(p.coeffs)]
    if draw(st.booleans()):
        e = Fraction(draw(st.one_of(st.integers(2**12, 2**80), st.sampled_from([2**12, 2**40]))), 1 << draw(st.integers(0, 6)))
        intervals[0] = (-e, intervals[0][1])
        intervals[-1] = (intervals[-1][0], e)
    return p, intervals


def program_refinement(coeffs, lo, hi, tol, start, sign) -> float:
    """The program's refinement of the one distinct root in (lo, hi), dyadics (num, shift) with nonzero signs.

    A single gap that `_certified_roots` certifies gives its root.  A root
    of even multiplicity, as z - 1 gives with a drawn root 1, leaves equal
    signs at both ends: `_certified_roots` refuses that gap unless its
    bracket meets the root, and its seed bracket and exact Newton refine it.
    """
    roots = _certified_roots(coeffs, [lo, hi], [start], sign, 1, tol)
    if roots is not None:
        return roots[0]
    assert sign(*lo) == sign(*hi) != 0
    found, bracket = nodal._seed_bracket(lo, hi, tol, start, sign)
    return found if found is not None else nodal._newton_root(coeffs, bracket, tol, start, sign, sign(*lo))


class TestIntegerRefinement:
    """Root refinement on integers over a power of two, and signs through the filter, give what `Fraction` refinement and the exact Horner give, bit for bit."""

    @given(
        refinement_cases(),
        st.one_of(st.sampled_from([1e-12, 1e-3, 2.0**-60, 1e-30]), st.floats(min_value=1e-40, max_value=0.5)),
        st.sampled_from(["none", "root", "near", "middle", "outside"]),
        st.floats(min_value=-1e-6, max_value=1e-6),
    )
    @example((poly_from_roots([Fraction(1, 3)]), [(Fraction(0), Fraction(1))]), 1e-300, "none", 0.0)
    @example(
        (
            poly_from_roots([Fraction(1, 3), Fraction(-2)]) * RatPoly([-2, 0, 1]),
            [(Fraction(-3), Fraction(-3, 2)), (Fraction(-3, 2), Fraction(0)), (Fraction(0), Fraction(1)), (Fraction(1), Fraction(2))],
        ),
        1e-300,
        "root",
        0.0,
    )
    @settings(max_examples=150, deadline=None)
    def test_equal_to_the_fraction_oracle(self, case, tol, start_at, eps):
        p, intervals = case
        coeffs = integer_coefficients(p)
        sign = _sign_kernel(coeffs)
        for lo, hi in intervals:
            # the oracle's refinement at 1e-12 is a float within about 1e-12 of the root, or one that overflows
            try:
                root = refine_root(coeffs, lo, hi, 1e-12, None)
            except ValueError:
                root = float(lo / 2 + hi / 2)
            start = {
                "none": None,
                "root": root,
                "near": root * (1 + eps),
                "middle": float(lo / 2 + hi / 2),
                "outside": float(hi) + 1.0,
            }[start_at]
            results = []
            for refine in (
                lambda: program_refinement(coeffs, _dyadic(lo), _dyadic(hi), tol, start, sign),
                lambda: refine_root(coeffs, lo, hi, tol, start),
            ):
                try:
                    results.append(refine().hex())
                except ValueError as e:
                    results.append(str(e))
            assert results[0] == results[1]

    @pytest.mark.parametrize("family", [1, 2])
    @pytest.mark.parametrize("ls", [range(k, k + 14) for k in range(1, 71, 14)], ids=lambda ls: f"l{ls[0]}-{ls[-1]}")
    def test_eigenfunction_refinements_equal_the_fraction_oracle(self, family, ls, monkeypatch):
        # every refinement of the unseeded psi_{l,f} isolation, bit for bit
        calls = []

        def both(coeffs, lo, hi, tol, start, got):
            assert got.hex() == refine_root(coeffs, nodal._fraction(lo), nodal._fraction(hi), tol, start).hex()
            calls.append(got)

        refinements(monkeypatch, both)
        for l in ls:
            assert isolate_real_roots(quadratic_eigenfunction(l, family).poly).count == l
        # one refinement per positive root, l // 2 of them
        assert len(calls) == sum(l // 2 for l in ls)

    @pytest.mark.parametrize(
        "equation, alphas, lmin",
        [
            ("laplace", "-1,1", 2),
            ("laplace", "0,1", 2),
            ("bilaplace", "-1,1", 3),
            ("bilaplace", "-1/2,2/3", 3),
            ("bilaplace", "-1,0,1", 3),
            ("bilaplace", "0,1/3", 3),
            ("bilaplace", "-2,1", 3),
            ("bilaplace", "-2,0,1", 3),
            ("laplace", "1/3", 1),
        ],
    )
    def test_filter_and_exact_horner_give_the_same_rootsets(self, equation, alphas, lmin, monkeypatch):
        # every zero set of the sweep to l = 60, exact intervals and float.hex of the roots
        check = check_admissibility_laplace if equation == "laplace" else check_admissibility_bilaplace
        config = CrackConfig(tuple(Fraction(a) for a in alphas.split(",")))

        def zero_sets():
            return [
                None if (z := v.full_zero_set) is None else (z.isolating_intervals, [r.hex() for r in z.refined_roots], z.multiplicities)
                for v in check(config, (lmin, 60))
            ]

        filtered = zero_sets()
        assert any(filtered)
        monkeypatch.setattr(nodal, "_sign_kernel", lambda coeffs: functools.partial(_dyadic_sign, coeffs))
        assert zero_sets() == filtered


@st.composite
def sturm_inputs(draw):
    """An integer polynomial with the exact dyadic root a / 2^k, and points to evaluate its chain at.

    The cofactor is dense with coefficients up to 2^bits (bits 8 or 200) or
    sparse (a few terms at scattered degrees, so the remainder sequence
    skips degrees), times an optional square, so roots repeat.  Either
    leading sign occurs.  The points are the root, its two neighbours at
    2^-(k + finer) and random dyadics.
    """
    bits = draw(st.sampled_from([8, 200]))
    coeff = st.integers(-(2**bits), 2**bits)
    if draw(st.booleans()):
        cofactor = draw(st.lists(coeff, min_size=1, max_size=9))
    else:
        terms = draw(st.dictionaries(st.integers(0, 14), coeff.filter(bool), min_size=1, max_size=4))
        cofactor = [terms.get(i, 0) for i in range(max(terms) + 1)]
    p = RatPoly(cofactor)
    if p.is_zero():
        p = RatPoly.one()
    square = draw(st.lists(st.integers(-9, 9), min_size=0, max_size=3))
    if RatPoly(square).degree > 0:
        p = p * RatPoly(square) ** 2
    num, k, power = draw(st.integers(-(2**12), 2**12)), draw(st.integers(0, 12)), draw(st.integers(1, 3))
    p = p * RatPoly([-num, 1 << k]) ** power
    if draw(st.booleans()):
        p = -p
    finer = draw(st.integers(1, 30))
    points = [Fraction(num, 1 << k)] + [Fraction((num << finer) + d, 1 << (k + finer)) for d in (-1, 1)]
    dyadics = st.tuples(st.integers(-(2**40), 2**40), st.integers(0, 40))
    points += [Fraction(a, 1 << s) for a, s in draw(st.lists(dyadics, max_size=4))]
    return integer_coefficients(p), points


@functools.lru_cache(maxsize=None)
def _bilaplace_crack_combination(l: int) -> RatPoly:
    """The order-l bi-Laplace combination that admits the cracks at slopes -1/2 and 2/3."""
    verdict = check_admissibility_bilaplace(CrackConfig((Fraction(-1, 2), Fraction(2, 3))), (l, l))[0]
    return Combination("bilaplace", l, verdict.combo_coefficients).poly


class TestSturmLinks:
    """The Sturm chain: its pseudo-division links, and its sign-variation counts against an a/b Horner (`pencil_oracles.variations_at`)."""

    @given(
        st.lists(st.integers(-(2**200), 2**200), min_size=1, max_size=12),
        st.lists(st.integers(-(2**200), 2**200), min_size=1, max_size=8).filter(lambda g: g[-1] != 0),
    )
    @settings(max_examples=100, deadline=None)
    def test_pseudo_divide(self, f, g):
        scale, quot, rem = _pseudo_divide(f, g)
        assert RatPoly(f) * scale == RatPoly(quot) * RatPoly(g) + RatPoly(rem)
        assert len(rem) < len(g) and (not rem or rem[-1] != 0)
        # one factor lc(g) per step, at most deg f - deg g + 1 steps
        steps = max(RatPoly(f).degree - len(g) + 2, 0)
        assert any(scale == g[-1] ** n for n in range(steps + 1))

    @given(sturm_inputs())
    @example(([-1, 1, 0, 0, 0, 1], [Fraction(0), Fraction(1, 2), Fraction(-3)]))  # z^5 + z - 1: degrees skip
    @settings(max_examples=150, deadline=None)
    def test_links_and_signs_match_horner(self, case):
        coeffs, points = case
        chain = _sturm_chain(coeffs)
        polys = [RatPoly(q) for q in chain.polys]
        # the identities `_chain_seeds` reads as its continued fraction
        assert len(chain.identities) == max(len(polys) - 2, 0)
        for j, (scale, quot, kappa) in enumerate(chain.identities):
            assert polys[j] * scale == RatPoly(quot) * polys[j + 1] + polys[j + 2] * kappa
            assert scale * kappa < 0  # P_{j+2} is a negative multiple of the remainder
        for x in points:
            assert _variations_at(chain, x) == variations_at(chain, x)

    @pytest.mark.parametrize("family", [1, 2])
    @pytest.mark.parametrize("ls", [range(k, k + 14) for k in range(1, 71, 14)], ids=lambda ls: f"l{ls[0]}-{ls[-1]}")
    def test_eigenfunction_rootsets_equal_oracle_path(self, family, ls, monkeypatch):
        # the multiplicities of psi_{l,f}^2 come from the chain of gcd(p, p'),
        # whose whole-line count puts a root in every interval, so no point is
        # evaluated (`_multiplicities`): they are the same with the oracle's
        # counts, and every root is double; the intervals and roots are those of psi_{l,f}
        polys = [quadratic_eigenfunction(l, family).poly for l in ls]
        program = [isolate_real_roots(p**2) for p in polys]
        monkeypatch.setattr(nodal, "_variations_at", variations_at)
        for p, square in zip(polys, program):
            assert isolate_real_roots(p**2) == square
            assert square.multiplicities == (2,) * p.degree
            rs = isolate_real_roots(p)
            assert (square.isolating_intervals, square.refined_roots) == (rs.isolating_intervals, rs.refined_roots)

    @pytest.mark.parametrize("l", [30, 40])
    def test_bilaplace_rootsets_equal_oracle_path(self, l, monkeypatch):
        # the combination has a complex pair; its square goes through `_multiplicities`
        square = _bilaplace_crack_combination(l) ** 2
        program = isolate_real_roots(square)
        assert set(program.multiplicities) == {2}
        monkeypatch.setattr(nodal, "_variations_at", variations_at)
        assert isolate_real_roots(square) == program


class TestEnumeration:
    def test_ratio_zero_gives_symmetric_pair(self):
        configs = [c for c in enumerate_admissible(2, 2, [Fraction(0)]) if c.ratio is not None]
        assert len(configs) == 1
        assert configs[0].config.alphas == pytest.approx((-1.0, 1.0), abs=1e-10)

    @pytest.mark.parametrize("ratio", [math.nan, math.inf])
    def test_non_finite_ratio_raises(self, ratio):
        with pytest.raises(ValueError, match=rf"^the family 2 weight {ratio!r} is not finite$"):
            enumerate_admissible(1, 3, [Fraction(1), ratio])

    def test_single_crack_linear(self):
        for r in (Fraction(-2), Fraction(1, 3), Fraction(5)):
            configs = [c for c in enumerate_admissible(1, 1, [r]) if c.ratio is not None]
            assert configs[0].config.alphas[0] == pytest.approx(float(-r), abs=1e-10)

    def test_ratio_grid_quadratics(self):
        ratios = [Fraction(-1), Fraction(0), Fraction(1)]
        configs = [c for c in enumerate_admissible(2, 2, ratios) if c.ratio is not None]
        assert len(configs) == 3
        for cfg in configs:
            r = cfg.ratio
            lo, hi = cfg.config.alphas
            for root in (lo, hi):
                assert root * root + r * root - 1 == pytest.approx(0.0, abs=1e-9)

    def test_endpoint_included(self):
        configs = enumerate_admissible(1, 2, [])
        assert len(configs) == 1 and configs[0].ratio is None
        assert configs[0].config.alphas[0] == pytest.approx(0.0)

    def test_round_trip_admissibility(self):
        # every emitted configuration must verify admissible at its (l, ratio);
        # roots are floats, so this exercises the SVD path
        for cfg in enumerate_admissible(2, 4, [Fraction(-1), Fraction(1, 2), Fraction(3)]):
            fl = CrackConfig(tuple(float(a) for a in cfg.config.alphas))
            v = check_admissibility_laplace(fl, (cfg.l, cfg.l), tol=1e-6)[0]
            assert v.admissible

    def test_validation(self):
        with pytest.raises(ValueError):
            enumerate_admissible(0, 2, [1])
        with pytest.raises(ValueError):
            enumerate_admissible(3, 2, [1])


def rootset_digest(rs: nodal.RootSet) -> str:
    """A short sha256 of rs: exact interval ends, `float.hex` roots and multiplicities."""
    text = repr(([(str(lo), str(hi)) for lo, hi in rs.isolating_intervals], [r.hex() for r in rs.refined_roots], rs.multiplicities))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def rung_spies(monkeypatch) -> dict:
    """What the rungs of every isolation from here on run: the count of each `_certified_roots` call of rungs 1 and 3
    (those outside `_descartes_roots`), the square_free of each `_descartes_roots` call (rungs 2 and 4), and the
    number of `_sturm_chain` calls."""
    ran = {"certified": [], "descartes": [], "chains": 0}
    certify, descartes, chain = nodal._certified_roots, nodal._descartes_roots, nodal._sturm_chain
    inside = []

    def certified_spy(coeffs, seps, starts, sign, count, tol):
        if not inside:
            ran["certified"].append(count)
        return certify(coeffs, seps, starts, sign, count, tol)

    def descartes_spy(coeffs, seps, starts, sign, square_free, tol):
        ran["descartes"].append(square_free)
        inside.append(True)
        try:
            return descartes(coeffs, seps, starts, sign, square_free, tol)
        finally:
            inside.pop()

    def chain_spy(coeffs):
        ran["chains"] += 1
        return chain(coeffs)

    monkeypatch.setattr(nodal, "_certified_roots", certified_spy)
    monkeypatch.setattr(nodal, "_descartes_roots", descartes_spy)
    monkeypatch.setattr(nodal, "_sturm_chain", chain_spy)
    return ran


_WHOLE = (_Z - 1) * (_Z - 2) * (_Z + 3)
_WHOLE_PAIR = (_Z - 1) * (_Z - 2) * (_Z**2 + _Z + 1)
_EVEN = (_Z**2 - 1) * (_Z**2 - 4)
# q = (w - 1) (w - 4) (w + 1): the pair +-i is one root of q, so the seed deficit on the half line is odd
_EVEN_PAIR = _EVEN * (_Z**2 + 1)
_ODD = _Z * _EVEN
_ODD_PAIR = _Z * (_Z**2 - 1) * (_Z**2 + 1)

# case: (p, seeds or None, whether `_chain_seeds` fails, then what `rung_spies` records:
# the `_certified_roots` counts, the `_descartes_roots` square_free flags and the number
# of Sturm chains, and last the digest of the RootSet)
_RUNGS = {
    "whole/seeds": (_WHOLE, [-3.1, 0.9, 2.1], False, [3], [], 0, "8308a8cdb45f4fa5"),
    "whole/seeded-descartes": (_WHOLE_PAIR, [0.9, 2.1], False, [4], [False], 0, "7daf63bc2ba38b8a"),
    "whole/chain-seeds": (_WHOLE_PAIR, None, False, [2], [], 1, "e92e8da52a937075"),
    "whole/bisection": (_WHOLE_PAIR, None, True, [], [True], 1, "623a34891ba62930"),
    "even/seeds": (_EVEN, [-2.1, -0.9, 0.9, 2.1], False, [2], [], 0, "b3047d4f46da5e2d"),
    "even/seeded-descartes": (_EVEN_PAIR, [-2.1, -0.9, 0.9, 2.1], False, [3], [False], 0, "b3047d4f46da5e2d"),
    "even/chain-seeds": (_EVEN_PAIR, None, False, [2], [], 1, "b3047d4f46da5e2d"),
    "even/bisection": (_EVEN_PAIR, None, True, [], [True], 1, "80c32c61a298ec05"),
    # the seed 0.001 is the one nearest 0: it stands for the root 0 and is dropped
    "odd/seeds": (_ODD, [-2.1, -0.9, 0.001, 0.9, 2.1], False, [2], [], 0, "08078e20b018444d"),
    "odd/seeded-descartes": (_ODD_PAIR, [-1.1, 0.0, 1.1], False, [2], [False], 0, "ce48b77b04b31337"),
    "odd/chain-seeds": (_ODD_PAIR, None, False, [1], [], 1, "ce48b77b04b31337"),
    "odd/bisection": (_ODD_PAIR, None, True, [], [True], 1, "b1953fa12f2bfac7"),
    "constant-q": (RatPoly([0, 3]), None, False, [], [], 0, "a829fe9ad3dc23c2"),
    # p's chain, then s's and g's
    "square-free-part": ((_Z - 1) ** 2 * (_Z + 2), None, False, [2], [], 3, "415c5a2d713b040f"),
    # q's chain, then p's, then that of s's q and g's
    "even-square-free-part": ((_Z**2 - 2) ** 2, None, False, [1], [], 4, "d8e73ee260ae6e02"),
    "rootless-even": (_Z**4 + _Z**2 + 1, None, False, [], [], 1, "d1300cf8821c5ce1"),
}


class TestRungs:
    """One polynomial per rung of each line, unseeded or with float seeds (no trig): the rungs that ran and the RootSet's digest."""

    @pytest.mark.parametrize("case", list(_RUNGS))
    def test_rung(self, case, monkeypatch):
        p, seeds, no_chain_seeds, certified, descartes, chains, digest = _RUNGS[case]
        if no_chain_seeds:
            monkeypatch.setattr(nodal, "_chain_seeds", lambda chain: None)
        ran = rung_spies(monkeypatch)
        rs = isolate_real_roots(p, seeds=seeds)
        assert (ran["certified"], ran["descartes"], ran["chains"]) == (certified, descartes, chains)
        assert rootset_digest(rs) == digest
        assert_matches_oracle(rs)


def line_signs(monkeypatch) -> list:
    """The point of every exact sign of p that the ladder takes from here on (`_Line.sign`), as a `Fraction`, in call order."""
    points = []

    def wrapped(build):
        def line(*args):
            built = build(*args)
            sign = built.sign
            return dataclasses.replace(built, sign=lambda num, shift: points.append(Fraction(num, 1 << shift)) or sign(num, shift))

        return line

    monkeypatch.setattr(nodal, "_whole_line", wrapped(nodal._whole_line))
    monkeypatch.setattr(nodal, "_half_line", wrapped(nodal._half_line))
    return points


@st.composite
def perturbed_seeds(draw):
    """A Laplace combination with l simple real roots (l - 1 for c_1 = 0), and its phase seeds with some of them moved.

    A moved seed s becomes s (1 + d), 1e-9 <= |d| <= 1e-3: far enough that
    its r +- h bracket misses the root, near enough that the separators
    still part every pair of roots, so its gap certifies by its end signs.
    """
    l = draw(st.integers(3, 40))
    coeffs = draw(
        st.one_of(
            st.sampled_from([(1, 0), (0, 1)]),
            st.tuples(st.fractions(-9, 9, max_denominator=9).filter(bool), st.fractions(-9, 9, max_denominator=9)),
        )
    )
    seeds = sorted(_phase_seeds(l, coeffs))
    moved = draw(st.lists(st.booleans(), min_size=len(seeds), max_size=len(seeds)))
    d = st.floats(1e-9, 1e-3).flatmap(lambda d: st.sampled_from([d, -d]))
    seeds = [s * (1 + draw(d)) if m else s for s, m in zip(seeds, moved)]
    return Combination("laplace", l, coeffs).poly, seeds, moved


class TestSeedBrackets:
    """Every rung certifies each gap by its seed's r +- h bracket, and takes the signs at its separators only where that fails."""

    @pytest.mark.parametrize("family", [1, 2])
    @pytest.mark.parametrize("l", [20, 45, 70])
    def test_two_signs_per_positive_root(self, l, family, monkeypatch):
        # q's chain seeds every positive root of psi_{l,f}; no far end's sixteenth
        # lies inside its gap, so the far-end cut takes no sign, and each root
        # takes the two signs of its bracket, which straddle it, and no other
        p = quadratic_eigenfunction(l, family).poly
        coeffs = integer_coefficients(p)
        k, q = _parity_split(coeffs)
        seeds = nodal._parity_seeds(q, _sturm_chain(q))
        seps = [nodal._fraction(x) for x in nodal._half_separators(k, seeds, root_bound(coeffs))]
        assert all(hi <= 16 or hi / 16 <= lo for lo, hi in zip(seps, seps[1:]))
        points = line_signs(monkeypatch)
        rs = isolate_real_roots(p)
        positive = [r for r in rs.refined_roots if r > 0]
        assert len(positive) == l // 2 and len(points) == 2 * len(positive)
        assert not set(points) & set(seps)
        for (left, right), r in zip(zip(points[::2], points[1::2]), positive):
            assert left < Fraction(r) < right

    @given(perturbed_seeds())
    @example((quadratic_eigenfunction(12, 1).poly, [r * (1 + 1e-6) if k == 6 else r for k, r in enumerate(sorted(_psi_roots(12, 1)))], [k == 6 for k in range(12)]))
    @settings(max_examples=60, deadline=None)
    def test_failed_brackets_fall_back_to_end_signs(self, case):
        # every gap still holds one root: the seeded rung certifies, a moved seed by
        # its end signs, and exact Newton refines that root from the seed
        p, seeds, moved = case
        newton = []
        run = nodal._newton_root
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(nodal, "_newton_root", lambda *args: newton.append(args[3]) or run(*args))
            ran = rung_spies(mp)
            rs = isolate_real_roots(p, seeds=seeds)
        assert ran["chains"] == 0 and ran["descartes"] == []
        assert_matches_oracle(rs)
        # a seed in [1e-2, 1] moved by 1e-9 of itself is at least 1e-11 from its root,
        # and its bracket's points lie within 1e-12 of it; the positive seeds are on
        # the line whether p is even, odd or neither
        far_moved = [s for s, m in zip(seeds, moved) if m and 1e-2 <= s <= 1]
        assert set(far_moved) <= set(newton) <= set(seeds)

    @pytest.mark.parametrize("l, digest", [(13, "d223b8ca3e396e6c"), (23, "702b21218b8f925b"), (26, "158c0b8e2d6fd3ee"), (29, "91274b353ef6b4c0")])
    def test_descartes_runs_sign_each_point_once(self, l, digest, monkeypatch):
        # the bi-Laplace (-1/2, 2/3) zero set at l has a complex pair: the phase
        # seeds miss it, and rung 2 certifies the seed gaps in Descartes runs,
        # each run and each gap once, with every sign of the call taken once
        config = CrackConfig((Fraction(-1, 2), Fraction(2, 3)))
        ran = rung_spies(monkeypatch)
        points = line_signs(monkeypatch)
        rs = check_admissibility_bilaplace(config, (l, l))[0].full_zero_set
        assert ran["descartes"] == [False] and ran["chains"] == 0
        assert points and len(set(points)) == len(points)
        assert rootset_digest(rs) == digest

    @pytest.mark.parametrize(
        "equation, alphas, lmin, digests",
        [
            (
                "laplace",
                "-1,1",
                2,
                {
                    2: "4294c6454f227200", 4: "c553a4681768d448", 6: "4e36773bd464c1b2", 8: "45b3d02922cfea0b",
                    10: "759029df12d38716", 12: "eaa23ae2279d6e91", 14: "43258b3130ec30d2", 16: "f7c4643a504f12ff",
                    18: "3109d434f86bb9b5", 20: "e4b0e22fd9ca6948", 22: "d1a023df740046ed", 24: "6c88c62b74f0dc1c",
                    26: "8f388f81b9088094", 28: "9b15c6ea379facea", 30: "02d36ee2e85e572f", 32: "4447dd20c47ae22d",
                    34: "046fe8f514c6998c", 36: "9a550ce73b7af90b", 38: "d53ec794fa307276", 40: "b167165a51d094b3",
                },
            ),
            (
                "bilaplace",
                "-1/2,2/3",
                3,
                {
                    3: "0477c409c30aa5d6", 4: "3200e01d58f6b394", 5: "7f8f95660c751989", 6: "69f12da51d0397f3",
                    7: "78a4943cf03a5e0c", 8: "8b42056da11ccf97", 9: "d2a10d1cef884663", 10: "be88a09a37f545fd",
                    11: "cbd7d376e97b1ba2", 12: "132cc970354f6fde", 13: "d223b8ca3e396e6c", 14: "a78b045b112123cb",
                    15: "1abc2ccd46b65686", 16: "360d4ea8b99dcd16", 17: "5c56a1e89a4f12e5", 18: "dccfd0d4e2d9be66",
                    19: "ab34ab8ac3d5987f", 20: "aab197763bc478e9", 21: "e87dc739bba861b2", 22: "cff73edbdaaddf68",
                    23: "702b21218b8f925b", 24: "26144f076203e6ec", 25: "b90f90562590de24", 26: "158c0b8e2d6fd3ee",
                    27: "9c04f3ef92b13bec", 28: "012685366db2bf28", 29: "91274b353ef6b4c0", 30: "ce90efbf746f2845",
                    31: "9914d74a9ce2253b", 32: "4894960193130724", 33: "7594a7bdc709dbcf", 34: "24322a31862a5571",
                    35: "307418981b67992c", 36: "bf6eac61c401442d", 37: "d1397edf9e42792b", 38: "4eb46fb6db1e6f5d",
                    39: "d41dd052cab8b7dd", 40: "fc1d106dc93feeca",
                },
            ),
            (
                # even and odd combinations, a quarter of them with a complex pair:
                # rung 2 runs on the seed gaps of the positive half line
                "bilaplace",
                "-1,0,1",
                3,
                {
                    3: "c553a4681768d448", 4: "c553a4681768d448", 5: "c553a4681768d448", 6: "c553a4681768d448",
                    7: "47edf4af47ffcaab", 8: "45b3d02922cfea0b", 9: "45b3d02922cfea0b", 10: "45b3d02922cfea0b",
                    11: "40ecb24d56fb5f80", 12: "eaa23ae2279d6e91", 13: "78a92330e1444ce0", 14: "78a92330e1444ce0",
                    15: "e3b779222cb2f441", 16: "f7c4643a504f12ff", 17: "f7c4643a504f12ff", 18: "f7c4643a504f12ff",
                    19: "04e479b3cc63861b", 20: "e4b0e22fd9ca6948", 21: "e4b0e22fd9ca6948", 22: "e4b0e22fd9ca6948",
                    23: "2cad44c082ea0511", 24: "6c88c62b74f0dc1c", 25: "6da25c744a95ec80", 26: "6da25c744a95ec80",
                    27: "9b3b5f109ca1c183", 28: "9b15c6ea379facea", 29: "7a27dacf73fc409c", 30: "7a27dacf73fc409c",
                    31: "b8544a3ebf638918", 32: "4447dd20c47ae22d", 33: "4447dd20c47ae22d", 34: "4447dd20c47ae22d",
                    35: "2a40dc9dfe1ac843", 36: "9a550ce73b7af90b", 37: "ffc1b641ae839f01", 38: "ffc1b641ae839f01",
                    39: "133783c172b61124", 40: "b167165a51d094b3",
                },
            ),
        ],
        ids=["laplace", "bilaplace", "bilaplace-half-line"],
    )
    def test_sweep_rootsets_unchanged(self, equation, alphas, lmin, digests):
        # the digest of every zero set to l = 40, as the ladder that took a sign at
        # every separator gave it, and that certified Descartes runs by those signs
        # alone: one certificate for every rung moves no interval; a bi-Laplace
        # root is the level-crossing seed that certifies it
        check = check_admissibility_laplace if equation == "laplace" else check_admissibility_bilaplace
        config = CrackConfig(tuple(Fraction(a) for a in alphas.split(",")))
        got = {v.l: rootset_digest(v.full_zero_set) for v in check(config, (lmin, 40)) if v.full_zero_set is not None}
        assert got == digests
