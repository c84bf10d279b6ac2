"""Root isolation, transversality, and admissibility decisions."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pencil.nodal import (
    CrackConfig,
    _verdict_for_matrix,
    check_admissibility_bilaplace,
    check_admissibility_laplace,
    count_real_roots,
    enumerate_admissible,
    isolate_real_roots,
    transversality_check,
)
from pencil.pencils import Eigenpair, quadratic_eigenfunction, quartic_eigenfunction
from pencil.polyring import RatPoly


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

    def test_scale_invariance_of_matrix_verdict(self):
        cfg = CrackConfig((Fraction(0), Fraction(1)))
        polys = [quadratic_eigenfunction(4, 1).poly, quadratic_eigenfunction(3, 2).poly]
        base = _verdict_for_matrix(cfg, 4, (1, 2), polys, 1e-9)
        scaled = _verdict_for_matrix(cfg, 4, (1, 2), [polys[0] * Fraction(7, 3), polys[1] * -5], 1e-9)
        assert base.admissible == scaled.admissible
        assert base.rank == scaled.rank
        got = sorted(scaled.full_zero_set.refined_roots)
        want = sorted(base.full_zero_set.refined_roots)
        assert got == pytest.approx(want, abs=1e-10)


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
        from pencil.nodal import _combination, _eigenfunctions_for_order

        polys = [p for _, p in _eigenfunctions_for_order("laplace", l)]
        if v.admissible:
            combo = _combination(polys, v.combo_coefficients)
            for a in cfg.alphas:
                assert combo.eval(Fraction(a)) == 0
        else:
            assert v.rank == min(cfg.m, len(polys))


class TestEnumeration:
    def test_ratio_zero_gives_symmetric_pair(self):
        configs = enumerate_admissible(2, 2, [Fraction(0)], include_endpoint=False)
        assert len(configs) == 1
        assert configs[0].config.alphas == pytest.approx((-1.0, 1.0), abs=1e-10)

    def test_single_crack_linear(self):
        for r in (Fraction(-2), Fraction(1, 3), Fraction(5)):
            configs = enumerate_admissible(1, 1, [r], include_endpoint=False)
            assert configs[0].config.alphas[0] == pytest.approx(float(-r), abs=1e-10)

    def test_ratio_grid_quadratics(self):
        configs = enumerate_admissible(2, 2, [Fraction(-1), Fraction(0), Fraction(1)], include_endpoint=False)
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
