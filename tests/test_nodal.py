"""Root isolation, transversality, and admissibility decisions."""

import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pencil import nodal, polyring
from pencil.nodal import (
    Combination,
    CrackConfig,
    _certified_gaps,
    _dyadic,
    _dyadic_sign,
    _exact_newton,
    _goal,
    _isolate,
    _parity_sign,
    _parity_split,
    _phase_seeds,
    _refine_root,
    _separators,
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
    _pseudo_divide,
    integer_coefficients,
    square_free_decomposition,
    square_free_part,
)
from pencil_oracles import (
    combination_poly,
    exact_admissibility,
    exact_newton,
    phase_seeds,
    sturm_count,
    variations_at,
)


def poly_from_roots(roots) -> RatPoly:
    p = RatPoly.one()
    for r in roots:
        p = p * RatPoly([-Fraction(r), 1])
    return p


def sturm_isolation(p: RatPoly, **kwargs) -> nodal.RootSet:
    """isolate_real_roots(p) on the exact Sturm path alone: no chain seeds, so `_isolate` bisects every root."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nodal, "_chain_seeds", lambda chain: None)
        return isolate_real_roots(p, **kwargs)


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
        # 0, the first bisection point of the Sturm path, moves halfway toward
        # lo; no interval is degenerate and p is nonzero at every end
        p = poly_from_roots([-1, 0])
        for rs in (sturm_isolation(p), isolate_real_roots(p)):
            (lo, hi), (a, b) = rs.isolating_intervals
            assert lo < -1 < hi <= a < 0 < b
            assert p.eval(lo) * p.eval(hi) < 0 and p.eval(a) * p.eval(b) < 0

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
        # the first bisection point of the Sturm path
        n = l if family == 1 else l + 1
        expect = [math.tan(j * math.pi / (2 * n)) for j in range(1 - l, l, 2)]
        p = quadratic_eigenfunction(l, family).poly
        for rs in (isolate_real_roots(p), sturm_isolation(p)):
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

    @pytest.mark.parametrize("p", [RatPoly([-(2**1100), 1]), RatPoly([-(2**2201), 0, 1])])
    def test_root_beyond_float_range_raises(self, p):
        # a bare OverflowError from the final float conversion before
        with pytest.raises(ValueError, match="beyond the float range"):
            isolate_real_roots(p)

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
        for rs in (isolate_real_roots(p, tol=tol), isolate_real_roots(p, tol=tol, seeds=seeds), sturm_isolation(p, tol=tol)):
            assert rs.multiplicities == want.multiplicities
            assert rs.refined_roots == pytest.approx(want.refined_roots, rel=1e-12)
            for r in rs.refined_roots:
                # r is the root, or the root lies strictly between r's float neighbours
                below, above = (Fraction(math.nextafter(r, side)) for side in (-math.inf, math.inf))
                assert square_free.eval(Fraction(r)) == 0 or square_free.eval(below) * square_free.eval(above) < 0

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


def assert_same_roots(seeded, plain, tol=1e-12):
    """Seeded and unseeded isolation of one polynomial agree; each seeded interval is certified."""
    p = seeded.poly
    assert seeded.count == plain.count
    assert seeded.multiplicities == plain.multiplicities
    # each refined root is within tol/16 * max(|lo|, |hi|, 1) of the true root
    scales = [
        [float(max(abs(lo), abs(hi), 1)) for lo, hi in rs.isolating_intervals] for rs in (seeded, plain)
    ]
    for a, b, s_a, s_b in zip(seeded.refined_roots, plain.refined_roots, *scales):
        assert abs(a - b) <= tol / 16 * (s_a + s_b)
    for (lo, hi), m in zip(seeded.isolating_intervals, seeded.multiplicities):
        # every interval is open, with a root of any multiplicity inside and none at either end
        assert lo < hi and p.eval(lo) * p.eval(hi) * (-1) ** m > 0
    for (_, hi), (lo, _) in zip(seeded.isolating_intervals, seeded.isolating_intervals[1:]):
        assert hi <= lo


def certified(p, seeds) -> bool:
    """Whether seeds certify p's whole line: one simple root in each of deg p seed gaps."""
    coeffs = integer_coefficients(p)
    seps = _separators(seeds, nodal._root_bound(coeffs))
    return seps is not None and _certified_gaps(seps, functools.partial(_dyadic_sign, coeffs), p.degree) is not None


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
            assert_same_roots(combo.roots(), sturm_isolation(p))

    @pytest.mark.parametrize("l", range(2, 61, 2))
    def test_bilaplace_combinations(self, l):
        rng = random.Random(1000 + l)
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in Combination("bilaplace", l, (0, 0, 0, 0)).families]
        if l % 6 == 0:
            coeffs[0] = Fraction(0)  # degree below l: the phase form vanishes at phi = 0 and pi
        combo = Combination("bilaplace", l, coeffs)
        p = combo.poly
        plain = sturm_isolation(p)
        if plain.count == p.degree and count_real_roots(p) == p.degree:
            assert certified(p, _phase_seeds(l, coeffs))
        assert_same_roots(combo.roots(), plain)

    @pytest.mark.parametrize("equation", ["laplace", "bilaplace"])
    @pytest.mark.parametrize("pool", ADM_POOL, ids=["m1", "m2", "m3"])
    def test_admissibility_verdicts(self, equation, pool, monkeypatch):
        # each configuration at every other l, alternating the parity between configurations
        check = check_admissibility_laplace if equation == "laplace" else check_admissibility_bilaplace
        configs = [CrackConfig(tuple(Fraction(a) for a in alphas)) for alphas in pool]
        orders = [range(max(cfg.m, 2) + i % 2, 31, 2) for i, cfg in enumerate(configs)]
        seeded = [[check(cfg, (l, l))[0] for l in ls] for cfg, ls in zip(configs, orders)]
        monkeypatch.setattr(nodal, "_phase_seeds", lambda l, coeffs: None)
        monkeypatch.setattr(nodal, "_chain_seeds", lambda chain: None)
        for cfg, ls, verdicts in zip(configs, orders, seeded):
            for a, b in zip(verdicts, [check(cfg, (l, l))[0] for l in ls], strict=True):
                assert (a.admissible, a.rank, a.combo_coefficients, a.consecutive_flag) == (
                    b.admissible, b.rank, b.combo_coefficients, b.consecutive_flag
                )
                if a.full_zero_set is not None:
                    assert_same_roots(a.full_zero_set, b.full_zero_set)

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
        assert_same_roots(isolate_real_roots(p, seeds=seeds), sturm_isolation(p))

    def test_isolation_never_runs_yun(self, monkeypatch):
        # p's own Sturm chain isolates every p, and gcds of chains give the
        # multiplicities; for square-free p the RootSet is what the Yun path gave
        z = RatPoly([0, 1])
        square_free = [
            quadratic_eigenfunction(25, 1).poly,
            quartic_eigenfunction(17, 4).poly,
            (z - 1) * (z + Fraction(1, 3)) * (z ** 2 + 2) * (z ** 2 - 3),
            -(z ** 5) + 3 * z - 1,
        ]
        expected = []
        for p in square_free:
            factors = square_free_decomposition(p)
            assert [m for _, m in factors] == [1]
            coeffs = integer_coefficients(factors[0][0])
            intervals = _isolate(_sturm_chain(coeffs))
            roots = tuple(_refine_root(coeffs, lo, hi, 1e-12) for lo, hi in intervals)
            expected.append((tuple(intervals), roots))

        def refuse(p):
            raise AssertionError("square_free_decomposition called by isolation")

        monkeypatch.setattr(nodal, "square_free_decomposition", refuse)
        monkeypatch.setattr(polyring, "square_free_decomposition", refuse)
        for p, (intervals, roots) in zip(square_free, expected):
            rs = sturm_isolation(p)
            assert (rs.isolating_intervals, rs.refined_roots) == (intervals, roots)
            assert rs.multiplicities == (1,) * len(roots)
            assert_same_roots(isolate_real_roots(p), rs)
        repeated = [
            ((z - 1) ** 2 * (z + 2), (-2.0, 1.0), (1, 2)),
            ((z - Fraction(1, 3)) ** 4 * (z ** 2 + 1) ** 2 * z ** 3, (0.0, 1 / 3), (3, 4)),
            (-((z ** 2 - 2) ** 3) * (z + 5), (-5.0, -math.sqrt(2), math.sqrt(2)), (1, 3, 3)),
        ]
        for p, roots, mults in repeated:
            rs = isolate_real_roots(p)
            assert rs.refined_roots == pytest.approx(roots, abs=1e-12) and rs.multiplicities == mults


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


def refinement_starts(monkeypatch) -> list:
    """The start of every `_refine_root` call from here on, in call order."""
    starts = []
    refine = nodal._refine_root

    def spy(coeffs, lo, hi, tol, start=None, sign=None):
        starts.append(start)
        return refine(coeffs, lo, hi, tol, start, sign)

    monkeypatch.setattr(nodal, "_refine_root", spy)
    return starts


def assert_certified_on_chain_seeds(p: RatPoly, count: int) -> nodal.RootSet:
    """Unseeded isolation of a square-free p with count real roots takes its chain seeds' gaps and matches the Sturm path."""
    seeds = chain_seeds(p)
    assert seeds is not None and len(seeds) == count < p.degree
    coeffs = integer_coefficients(p)
    seps = _separators(seeds, nodal._root_bound(coeffs))
    with pytest.MonkeyPatch.context() as mp:
        starts = refinement_starts(mp)
        mp.setattr(nodal, "_isolate", lambda chain: pytest.fail("bisected on the Sturm path"))
        rs = isolate_real_roots(p)
    assert rs.isolating_intervals == tuple(zip(seps, seps[1:]))
    assert starts == seeds and rs.multiplicities == (1,) * count
    assert_same_roots(rs, sturm_isolation(p))
    return rs


class TestChainSeeds:
    """Unseeded isolation seeds itself from p's Sturm chain read as a float continued fraction."""

    @given(real_rooted_products())
    @example(([Fraction(-1), Fraction(0)], 1))  # the exact root 0 on the Sturm path's first bisection point
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
        assert_same_roots(rs, sturm_isolation(p))

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
        # a repeated root ends the chain early, with a complex pair or not,
        # and the chain of the square-free part seeds the real roots
        seeds = chain_seeds(p)
        square_free = mults == (1,) * len(mults)
        assert (seeds is not None) == square_free
        plain = sturm_isolation(p)
        starts = refinement_starts(monkeypatch)
        rs = isolate_real_roots(p)
        # the same exact bisection, and every refinement starts from a seed
        assert rs.isolating_intervals == plain.isolating_intervals
        assert starts == chain_seeds(p if square_free else square_free_part(p)) and len(starts) == len(roots)
        assert_same_roots(rs, plain)
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
        want = sturm_isolation(p)
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
        assert_same_roots(rs, sturm_isolation(p))
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
        # a square, alone or with a complex pair: q has a repeated root, and
        # the RootSet is the one of p's own chain, bit for bit
        psi_1, psi_2 = (quadratic_eigenfunction(l, f).poly for f in (1, 2))
        cases = [psi_1 * psi_1, psi_2 * psi_2 * RatPoly([2, 0, 1])]
        got = [isolate_real_roots(p) for p in cases]
        monkeypatch.setattr(nodal, "_parity_split", lambda coeffs: None)
        assert got == [isolate_real_roots(p) for p in cases]

    @pytest.mark.parametrize("l", [20, 45, 70])
    def test_complex_pair_on_the_imaginary_axis_counts_on_q(self, l, monkeypatch):
        # z^2 + 1 is the root w = -1 of q: q's chain counts p's real roots,
        # and p's own chain of twice the degree is never built
        p = quadratic_eigenfunction(l, 1).poly * RatPoly([1, 0, 1])
        if l <= 40:
            assert_same_roots(isolate_real_roots(p), sturm_isolation(p))
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
    """Seeds that miss a complex pair: Descartes bounds on runs of seed gaps certify the real roots, or the Sturm path isolates them."""

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
        v = nodal._descartes_bound(coeffs, lo, hi)
        assert v == descartes_oracle(coeffs, lo, hi)
        p = RatPoly(coeffs)
        if p.eval(lo) and p.eval(hi):
            # at least the roots inside, with multiplicity, and of their parity
            plain = sturm_isolation(p)
            inside = sum(m for r, m in zip(plain.refined_roots, plain.multiplicities) if lo < r < hi)
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
        found = nodal._descartes_gaps(coeffs, _separators(seeds, nodal._root_bound(coeffs)), sign)
        plain = sturm_isolation(p)
        if found is not None:
            # never a wrong count: one simple root in each open interval with opposite exact signs
            assert len(found) == plain.count == sturm_count(p.coeffs) and plain.multiplicities == (1,) * plain.count
            for (i, lo, hi), r in zip(found, plain.refined_roots):
                assert lo < r < hi and p.eval(lo) * p.eval(hi) < 0
        assert_same_roots(isolate_real_roots(p, seeds=seeds), plain)

    def test_roots_on_separators_fail(self):
        # seeds -3, -1, 1 and 3 miss the roots -2 and 2, which are separators:
        # each gap beside them has one root inside and a Descartes bound of 1,
        # and the two roots on the separators keep the count's parity, so only
        # their zero signs show that the separators do not alternate
        p = poly_from_roots([-3, -2, -1, 1, 2, 3])
        coeffs = integer_coefficients(p)
        seps = _separators([-3.0, -1.0, 1.0, 3.0], nodal._root_bound(coeffs))
        assert seps[1:-1] == [-2, 0, 2]
        assert nodal._descartes_gaps(coeffs, seps, functools.partial(_dyadic_sign, coeffs)) is None
        assert isolate_real_roots(p, seeds=[-3.0, -1.0, 1.0, 3.0]).refined_roots == (-3.0, -2.0, -1.0, 1.0, 2.0, 3.0)

    def test_run_with_two_roots_in_one_gap_and_none_in_the_next(self):
        # seeds -3, -1, 1 and 3 put separators at -2, 0 and 2; the real roots
        # -3, -5/2, 1 and 3 leave two in the first gap and none in the second.
        # Far from the pair 10 +- i the run of these two gaps has Descartes
        # bound 2, its number of gaps, but its separators fail to alternate
        roots = [Fraction(-3), Fraction(-5, 2), Fraction(1), Fraction(3)]
        p = poly_from_roots(roots) * RatPoly([101, -20, 1])
        coeffs = integer_coefficients(p)
        seps = _separators([-3.0, -1.0, 1.0, 3.0], nodal._root_bound(coeffs))
        assert seps[1:-1] == [-2, 0, 2] and nodal._descartes_bound(coeffs, seps[0], seps[2]) == 2
        assert nodal._descartes_gaps(coeffs, seps, functools.partial(_dyadic_sign, coeffs)) is None
        rs = isolate_real_roots(p, seeds=[-3.0, -1.0, 1.0, 3.0])
        assert rs.count == 4 and rs.multiplicities == (1,) * 4
        assert_same_roots(rs, sturm_isolation(p))

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
            assert_same_roots(combo.roots(), sturm_isolation(combo.poly), tol=1e-12)


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


class TestPhaseSeeds:
    """The float-loop seeds against the numpy array form they replaced.

    Both forms do the same IEEE operations in the same order, so the seeds
    and the roots refined from them are equal bit for bit as long as numpy's
    float64 sin and cos round as the platform libm behind `math` does.  A
    numpy build that dispatches to other (SIMD) routines can move a seed by
    a few ulps and fail the equalities below while the program is correct:
    seeds are only guesses, certified exactly by `_certified_gaps`.
    """

    @pytest.mark.parametrize("equation", ["laplace", "bilaplace"])
    @pytest.mark.parametrize("ls", [range(k, k + 40) for k in range(1, 161, 40)], ids=lambda ls: f"l{ls[0]}-{ls[-1]}")
    def test_equal_to_numpy_oracle(self, equation, ls):
        for l in ls:
            rng = random.Random(f"{equation}-{l}")
            for coeffs in _seed_weights(equation, l, rng):
                assert _phase_seeds(l, coeffs) == phase_seeds(l, coeffs), (l, coeffs)

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
        monkeypatch.setattr(nodal, "_phase_seeds", phase_seeds)
        assert [Combination(*combo).roots() for combo in combos] == program


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
        # no exact sign is ever taken at a point that is not num / 2^shift
        with pytest.raises(ValueError, match="not a dyadic rational"):
            _dyadic(x)
        with pytest.raises(ValueError, match="not a dyadic rational"):
            _refine_root([-1, 0, 3], x - 2, x + 2, 1e-12)

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
        st.fractions(min_value=-(10**9), max_value=10**9, max_denominator=2**70),
        st.fractions(min_value=0, max_value=10**9, max_denominator=2**70).filter(lambda w: w > 0),
        st.floats(min_value=1e-300, max_value=1e3),
    )
    @settings(max_examples=200, deadline=None)
    def test_goal(self, lo, width, tol):
        hi = lo + width
        goal = Fraction(tol) / 8 * max(abs(lo), abs(hi), Fraction(1))
        num, den = _goal(lo, hi, tol)
        assert (num, den) == (goal.numerator, goal.denominator)
        # the certificate's h = 2^k
        k = num.bit_length() - den.bit_length() - 2
        assert goal / 8 < Fraction(2) ** k <= goal / 2


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
    """The Sturm chain: its pseudo-division links, and its exact signs against an a/b Horner (`pencil_oracles.variations_at`)."""

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
        # psi_{l,f} is real-rooted, so only the Sturm path evaluates its chain exactly
        polys = [quadratic_eigenfunction(l, family).poly for l in ls]
        program = [sturm_isolation(p) for p in polys]
        monkeypatch.setattr(nodal, "_variations_at", variations_at)
        assert [sturm_isolation(p) for p in polys] == program

    @pytest.mark.parametrize("l", [30, 40])
    def test_bilaplace_rootsets_equal_oracle_path(self, l, monkeypatch):
        p = _bilaplace_crack_combination(l)
        program = isolate_real_roots(p)
        monkeypatch.setattr(nodal, "_variations_at", variations_at)
        assert isolate_real_roots(p) == program


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
