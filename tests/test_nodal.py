"""Root isolation, transversality, and admissibility decisions."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pencil import nodal
from pencil.nodal import (
    Combination,
    CrackConfig,
    _certified_gaps,
    _isolate_square_free,
    _phase_seeds,
    _refine_root,
    _sturm_chain,
    check_admissibility_bilaplace,
    check_admissibility_laplace,
    count_real_roots,
    enumerate_admissible,
    isolate_real_roots,
    transversality_check,
)
from pencil.pencils import Eigenpair, quadratic_eigenfunction, quartic_eigenfunction
from pencil.polyring import RatPoly, integer_coefficients, square_free_decomposition


def poly_from_roots(roots) -> RatPoly:
    p = RatPoly.one()
    for r in roots:
        p = p * RatPoly([-Fraction(r), 1])
    return p


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

    def test_square_free_input_skips_yun(self, monkeypatch):
        # the Sturm chain of p decides square-freeness; Yun runs only when it
        # ends above a constant, and the RootSet is what the Yun path gives
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
            intervals = _isolate_square_free(_sturm_chain(coeffs))
            roots = tuple(_refine_root(coeffs, lo, hi, 1e-12) for lo, hi in intervals)
            expected.append((tuple(intervals), roots))

        def only_repeated(p):
            if len(_sturm_chain(integer_coefficients(p))[-1]) == 1:
                raise AssertionError("square_free_decomposition called on square-free input")
            return square_free_decomposition(p)

        monkeypatch.setattr(nodal, "square_free_decomposition", only_repeated)
        for p, (intervals, roots) in zip(square_free, expected):
            rs = isolate_real_roots(p)
            assert (rs.isolating_intervals, rs.refined_roots) == (intervals, roots)
            assert rs.multiplicities == (1,) * len(roots)
        rs = isolate_real_roots((z - 1) ** 2 * (z + 2))
        assert rs.multiplicities == (1, 2)


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
