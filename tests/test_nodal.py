"""Root isolation, transversality, and admissibility decisions."""

import functools
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
    _phase_seeds,
    _refine_root,
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
from pencil.polyring import RatPoly, _pseudo_divide, integer_coefficients, square_free_decomposition
from pencil_oracles import exact_newton, phase_seeds, variations_at


def poly_from_roots(roots) -> RatPoly:
    p = RatPoly.one()
    for r in roots:
        p = p * RatPoly([-Fraction(r), 1])
    return p


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

    def test_exact_root_margin_excludes_neighbouring_root(self):
        # the first margin carved around the root 0 would end on the root -1
        rs = isolate_real_roots(poly_from_roots([-1, 0]))
        (lo, hi), zero = rs.isolating_intervals
        assert lo < -1 < hi and zero == (0, 0)

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
        # the first bisection point
        n = l if family == 1 else l + 1
        expect = [math.tan(j * math.pi / (2 * n)) for j in range(1 - l, l, 2)]
        rs = isolate_real_roots(quadratic_eigenfunction(l, family).poly)
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
        for (lo, hi), got, (want, _) in zip(rs.isolating_intervals, rs.refined_roots, expected, strict=True):
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
        # a fallback may return an exact rational root as [r, r] and roots of any multiplicity
        if lo == hi:
            assert p.eval(lo) == 0
        else:
            assert p.eval(lo) * p.eval(hi) * (-1) ** m > 0
    for (_, hi), (lo, _) in zip(seeded.isolating_intervals, seeded.isolating_intervals[1:]):
        assert hi <= lo


def certified(p, seeds) -> bool:
    return _certified_gaps(integer_coefficients(p), seeds) is not None


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
            assert_same_roots(combo.roots(), isolate_real_roots(p))

    @pytest.mark.parametrize("l", range(2, 61, 2))
    def test_bilaplace_combinations(self, l):
        rng = random.Random(1000 + l)
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in Combination("bilaplace", l, (0, 0, 0, 0)).families]
        if l % 6 == 0:
            coeffs[0] = Fraction(0)  # degree below l: the phase form vanishes at phi = 0 and pi
        combo = Combination("bilaplace", l, coeffs)
        p = combo.poly
        plain = isolate_real_roots(p)
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
        assert_same_roots(isolate_real_roots(p, seeds=seeds), isolate_real_roots(p))

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
            rs = isolate_real_roots(p)
            assert (rs.isolating_intervals, rs.refined_roots) == (intervals, roots)
            assert rs.multiplicities == (1,) * len(roots)
        repeated = [
            ((z - 1) ** 2 * (z + 2), (-2.0, 1.0), (1, 2)),
            ((z - Fraction(1, 3)) ** 4 * (z ** 2 + 1) ** 2 * z ** 3, (0.0, 1 / 3), (3, 4)),
            (-((z ** 2 - 2) ** 3) * (z + 5), (-5.0, -math.sqrt(2), math.sqrt(2)), (1, 3, 3)),
        ]
        for p, roots, mults in repeated:
            rs = isolate_real_roots(p)
            assert rs.refined_roots == pytest.approx(roots, abs=1e-12) and rs.multiplicities == mults


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
        for l in range(1, 26):
            assert count_real_roots(quadratic_eigenfunction(l, 1).poly) == l

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


def _multiplier_bits(link) -> int:
    scale, quot, kappa = link
    return max(abs(x).bit_length() for x in (scale, kappa, *quot))


def _fully_linked(coeffs):
    """The Sturm chain with a link at every element that has two below it."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nodal, "_LINK_BITS_PER_DEGREE", math.inf)
        return _sturm_chain(coeffs)


@functools.lru_cache(maxsize=None)
def _bilaplace_crack_combination(l: int) -> RatPoly:
    """The order-l bi-Laplace combination that admits the cracks at slopes -1/2 and 2/3."""
    verdict = check_admissibility_bilaplace(CrackConfig((Fraction(-1, 2), Fraction(2, 3))), (l, l))[0]
    return Combination("bilaplace", l, verdict.combo_coefficients).poly


class TestSturmLinks:
    """The chain's pseudo-division links against per-element Horner (`pencil_oracles.variations_at`)."""

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
        chain, linked = _sturm_chain(coeffs), _fully_linked(coeffs)
        assert linked.polys == chain.polys
        polys = [RatPoly(q) for q in chain.polys]
        assert all(link is not None for link in linked.links[:-2]) and linked.links[-2:] == [None, None]
        for j, link in enumerate(linked.links[:-2]):
            scale, quot, kappa = link
            assert polys[j] * scale == RatPoly(quot) * polys[j + 1] + polys[j + 2] * kappa
            assert scale * kappa < 0  # P_{j+2} is a negative multiple of the remainder
            assert chain.links[j] in (None, link)
        for x in points:
            expected = variations_at(chain, x)
            assert _variations_at(chain, x) == expected
            assert _variations_at(linked, x) == expected

    @pytest.mark.parametrize("family", [1, 2])
    @pytest.mark.parametrize("ls", [range(k, k + 14) for k in range(1, 71, 14)], ids=lambda ls: f"l{ls[0]}-{ls[-1]}")
    def test_eigenfunction_rootsets_equal_oracle_path(self, family, ls, monkeypatch):
        polys = [quadratic_eigenfunction(l, family).poly for l in ls]
        program = [isolate_real_roots(p) for p in polys]
        monkeypatch.setattr(nodal, "_variations_at", variations_at)
        assert [isolate_real_roots(p) for p in polys] == program

    @pytest.mark.parametrize("l", [30, 40])
    def test_bilaplace_rootsets_equal_oracle_path(self, l, monkeypatch):
        p = _bilaplace_crack_combination(l)
        program = isolate_real_roots(p)
        monkeypatch.setattr(nodal, "_variations_at", variations_at)
        assert isolate_real_roots(p) == program

    def test_link_rule(self):
        # psi_{70,1}'s multipliers stay near 4 bits per degree: every link pays
        psi = _sturm_chain(integer_coefficients(quadratic_eigenfunction(70, 1).poly))
        assert len(psi.polys) == 71 and all(link is not None for link in psi.links[:-2])
        # the bi-Laplace chain's multipliers grow to thousands of bits per
        # degree, where linking every element was 2.5 to 3.5 times slower
        coeffs = integer_coefficients(_bilaplace_crack_combination(40))
        chain, linked = _sturm_chain(coeffs), _fully_linked(coeffs)
        horner = 0
        for q, link, full in zip(chain.polys, chain.links[:-2], linked.links):
            per_degree = _multiplier_bits(full) / (len(q) - 1)
            if per_degree > 128:
                assert link is None
            if per_degree <= 8:
                assert link is not None
            horner += link is None
        assert horner >= 30


class TestEnumeration:
    def test_ratio_zero_gives_symmetric_pair(self):
        configs = [c for c in enumerate_admissible(2, 2, [Fraction(0)]) if c.ratio is not None]
        assert len(configs) == 1
        assert configs[0].config.alphas == pytest.approx((-1.0, 1.0), abs=1e-10)

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
