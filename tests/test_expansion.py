"""Scaling transform, germ evaluation, decay measurement, boundary traces."""

import collections
import gc
import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pencil.expansion import (
    BlowupCoords,
    Expansion,
    _neumaier_sum,
    decay_order,
    eval_expansion,
    eval_expansion_xy,
    from_blowup,
    perturbation_negligibility,
    synthesize_boundary_trace,
    to_blowup,
)


class TestBlowup:
    def test_examples(self):
        assert to_blowup(0.0, -1.0) == BlowupCoords(0.0, -0.0)
        assert to_blowup(1.0, -1.0) == BlowupCoords(1.0, -0.0)
        c = to_blowup(math.exp(-1), -math.exp(-1))
        assert c.z == pytest.approx(1.0)
        assert c.tau == pytest.approx(1.0)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            to_blowup(1.0, 0.0)
        with pytest.raises(ValueError):
            to_blowup(1.0, 0.5)

    @given(
        st.floats(min_value=-30.0, max_value=30.0),
        st.floats(min_value=-1.0, max_value=-1e-6),
    )
    @settings(max_examples=120, deadline=None)
    def test_round_trip(self, x, y):
        c = to_blowup(x, y)
        xb, yb = from_blowup(c)
        assert xb == pytest.approx(x, rel=1e-13, abs=1e-18)
        assert yb == pytest.approx(y, rel=1e-13)


class TestExpansionType:
    def test_leading_tuple_nontrivial(self):
        with pytest.raises(ValueError):
            Expansion("laplace", {2: (0, 0)})

    def test_family_count_checked(self):
        with pytest.raises(ValueError):
            Expansion("laplace", {2: (1, 0, 0, 0)})
        with pytest.raises(ValueError):
            Expansion("bilaplace", {3: (1, 0)})

    def test_absent_degree_must_be_zero(self):
        with pytest.raises(ValueError):
            Expansion("bilaplace", {2: (0, 0, 0, 1)})
        Expansion("bilaplace", {3: (0, 0, 0, 1)})  # degree-0 fourth family exists at k=3

    @pytest.mark.parametrize(
        "equation, terms, message",
        [
            ("laplace", {2: (math.nan, 0)}, "the family 1 weight nan is not finite"),
            ("laplace", {2: (1, 0), 3: (math.inf, 0)}, "the family 1 weight inf is not finite"),
            ("bilaplace", {3: (1, 0, 0, -math.inf)}, "the family 4 weight -inf is not finite"),
        ],
    )
    def test_non_finite_weight_raises(self, equation, terms, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Expansion(equation, terms)

    def test_bounds(self):
        e = Expansion("laplace", {2: (1, 0), 5: (0, 1)})
        assert e.l_start == 2
        assert e.k_max == 5

    def test_dropped_expansions_leave_nothing_behind(self):
        # a long-lived process evaluates many distinct expansions; once dropped,
        # none of them may stay reachable (a cache keyed on the coefficients
        # kept about 0.5 KB per expansion)
        def evaluate(start, count):
            for i in range(start, start + count):
                exp = Expansion("laplace", {2: (1.0, i * 1e-6), 3: (0.5, 0.25)})
                eval_expansion(exp, 0.5, 1.0)

        evaluate(0, 100)  # builds the eigenfunctions every expansion shares
        gc.collect()
        tracemalloc.start()
        try:
            evaluate(100, 2000)
            gc.collect()
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained < 2000 * 32


class TestEvaluation:
    def test_single_term_vanishes_on_crack_rays(self):
        e = Expansion("laplace", {2: (1, 0)})
        for tau in (0.0, 0.7, 3.0):
            assert eval_expansion(e, 1.0, tau) == 0.0
            assert eval_expansion(e, -1.0, tau) == 0.0

    def test_tau_zero_is_x(self):
        e = Expansion("laplace", {1: (1, 0)})
        for x in (-2.0, -0.3, 0.0, 1.7):
            assert eval_expansion_xy(e, x, -1.0) == pytest.approx(x, abs=1e-15)

    def test_higher_term_decays_relatively(self):
        e = Expansion("laplace", {2: (1, 0), 3: (1, 0)})
        z = 0.25
        lead = Expansion("laplace", {2: (1, 0)})
        ratios = []
        for tau in (1.0, 2.0, 4.0):
            rest = eval_expansion(e, z, tau) - eval_expansion(lead, z, tau)
            ratios.append(abs(rest / eval_expansion(lead, z, tau)))
        assert ratios[1] / ratios[0] == pytest.approx(math.exp(-1.0), rel=1e-6)
        assert ratios[2] / ratios[1] == pytest.approx(math.exp(-2.0), rel=1e-6)

    @given(
        st.integers(1, 5),
        st.floats(min_value=0.05, max_value=0.9),
        st.floats(min_value=-2.0, max_value=-0.05),
        st.floats(min_value=0.1, max_value=3.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_single_term_homogeneity(self, k, s, y, x):
        e = Expansion("laplace", {k: (1, 0)})
        u1 = eval_expansion_xy(e, s * x, s * y)
        u0 = eval_expansion_xy(e, x, y)
        assert u1 == pytest.approx(s**k * u0, rel=1e-12, abs=1e-14)

    def test_bilaplace_third_family_germ(self):
        # decay rate 3, third family: the degree-1 eigenfunction at lam=-3,
        # so u(x, y) = (-y)^2 * x, homogeneous of degree 3
        e = Expansion("bilaplace", {3: (0, 0, 1, 0)})
        for x, y in ((0.4, -0.7), (-1.2, -0.3), (2.0, -1.5)):
            assert eval_expansion_xy(e, x, y) == pytest.approx(y * y * x, rel=1e-12)
        for s in (0.5, 2.0):
            assert eval_expansion_xy(e, s * 0.4, s * -0.7) == pytest.approx(
                s**3 * eval_expansion_xy(e, 0.4, -0.7), rel=1e-12
            )

    @pytest.mark.parametrize(
        "equation, terms",
        [
            ("laplace", {2: (1.0, 0.0), 3: (0.25, -1.5), 6: (0.0, 3.0)}),
            ("bilaplace", {3: (0.5, 0.0, 1.0, -2.0), 5: (0.0, 1.25, 0.0, 0.75)}),
        ],
    )
    def test_equals_per_term_float_horner(self, equation, terms):
        # each term is exp(-k tau) times the float Horner value of the exact
        # order-k combination, and the terms are summed as before
        e = Expansion(equation, terms)
        for tau in (-1.0, 0.0, 0.5, 3.0):
            for z in (-2.75, -1.0, -0.125, 0.0, 0.3, 1.0, 4.5):
                values = []
                for k in e.terms:
                    acc = 0.0
                    for c in reversed([float(c) for c in e.combination(k).coeffs]):
                        acc = acc * z + c
                    values.append(math.exp(-k * tau) * acc)
                assert eval_expansion(e, z, tau) == _neumaier_sum(values)


class TestDecayOrder:
    def test_pure_terms(self):
        radii = [10 ** (-2 - 0.1 * i) for i in range(11)]
        for k in (2, 3):
            e = Expansion("laplace", {k: (1, 0) if k == 2 else (0, 1)})
            fit = decay_order(e, radii)
            assert fit.slope == pytest.approx(k, rel=0.01)

    def test_leading_term_dominates(self):
        e = Expansion("laplace", {2: (1, 0), 3: (0.5, 0.5), 4: (1, 1), 5: (2, 0)})
        radii = [10 ** (-2 - 0.2 * i) for i in range(6)]
        fit = decay_order(e, radii)
        assert fit.slope == pytest.approx(2.0, rel=0.01)

    def test_validation(self):
        e = Expansion("laplace", {2: (1, 0)})
        with pytest.raises(ValueError):
            decay_order(e, [0.5])
        with pytest.raises(ValueError):
            decay_order(e, [0.1, 0.5])
        with pytest.raises(ValueError):
            decay_order(e, [1.5, 0.5])


class TestBoundaryTrace:
    def test_saddle_trace(self):
        e = Expansion("laplace", {2: (1, 0)})
        trace = synthesize_boundary_trace(e, 64)
        for theta, value in trace.samples:
            assert value == pytest.approx(math.cos(2 * theta), abs=1e-12)
        assert sorted(trace.crack_angles) == pytest.approx([-3 * math.pi / 4, -math.pi / 4], abs=1e-9)

    def test_linear_trace(self):
        e = Expansion("laplace", {1: (1, 0)})
        trace = synthesize_boundary_trace(e, 32)
        for theta, value in trace.samples:
            assert value == pytest.approx(math.cos(theta), abs=1e-13)

    def test_each_combination_built_once(self, monkeypatch):
        # the trace reads combination(2) twice: for the float terms and for the crack angles
        from pencil import nodal

        calls = collections.Counter()
        original = nodal.quadratic_eigenfunction

        def counting(degree, family):
            calls[degree, family] += 1
            return original(degree, family)

        monkeypatch.setattr(nodal, "quadratic_eigenfunction", counting)
        e = Expansion("laplace", {2: (1, 0), 3: (0.5, 0.25)})
        synthesize_boundary_trace(e, 16)
        # k = 2 weights psi_{2,1}; k = 3 weights psi_{3,1} and psi_{2,2}
        assert calls == {(2, 1): 1, (3, 1): 1, (2, 2): 1}

    def test_trace_vanishes_at_crack_angles(self):
        e = Expansion("laplace", {2: (1, 0)})
        trace = synthesize_boundary_trace(e, 8)
        for angle in trace.crack_angles:
            assert eval_expansion_xy(e, math.cos(angle), math.sin(angle)) == pytest.approx(0.0, abs=1e-12)


class TestCrackVanishing:
    def test_admissible_combo_vanishes_on_rays(self):
        # nodal verdict -> single-leading-term germ -> zero along z = alpha_k
        from fractions import Fraction

        from pencil.nodal import CrackConfig, check_admissibility_laplace

        cfg = CrackConfig((Fraction(0), Fraction(1)))
        verdict = check_admissibility_laplace(cfg, (4, 4))[0]
        assert verdict.admissible
        c, d = (float(x) for x in verdict.combo_coefficients)
        germ = Expansion("laplace", {4: (c, d)})
        for alpha in cfg.alphas:
            for tau in (0.5, 1.5, 4.0):
                assert eval_expansion(germ, float(alpha), tau) == pytest.approx(0.0, abs=1e-13)


class TestNegligibility:
    @pytest.mark.parametrize(
        "l,p,expected",
        [(1, 3.0, -4.0), (2, 2.0, -4.0), (2, 3.0, -6.0)],
    )
    def test_slopes(self, l, p, expected):
        e = Expansion("laplace", {l: (1, 0)})
        rep = perturbation_negligibility(e, p, [1.0, 1.5, 2.0, 2.5, 3.0])
        assert rep.slope == pytest.approx(expected, abs=0.05)

    def test_ratio_goes_to_zero(self):
        e = Expansion("laplace", {3: (0.3, 0.7)})
        rep = perturbation_negligibility(e, 2.5, [1.0, 4.0, 8.0])
        ratios = [r for _, r in rep.rows]
        assert ratios[-1] < ratios[0] * 1e-6

    def test_p_validation(self):
        e = Expansion("laplace", {1: (1, 0)})
        with pytest.raises(ValueError):
            perturbation_negligibility(e, 1.0, [1.0, 2.0])
