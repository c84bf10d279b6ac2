"""Profile solvers: integrator cross-checks, symmetry, and far-field behavior.

scipy's independently implemented integrators, run on the original-variable
equations, and the closed forms of the oscillator f'' + |f|^(p-1) f = 0 serve
as oracles for the Dormand-Prince solvers.  The scalar integrator of that
oscillator matches the generic stage loop `pencil_oracles.generic_dp5` bit
for bit, and that loop is checked against scipy on the original equations.
"""

import math
import random
import re
import sys
import tracemalloc
from dataclasses import dataclass

import mpmath
import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.special import beta, betainc

from pencil import ode, semilinear
from pencil.ode import _rms, find_zeros, integrate
from pencil.semilinear import (
    FAR_FIELD_ROOT,
    NoProfileFoundError,
    crack_curves,
    curves_from_zeros,
    selfsimilar_zeros,
    solve_selfsimilar,
    solve_stationary,
)
from pencil_oracles import dense_value, generic_dp5


@dataclass(frozen=True)
class ODEProblem:
    """Profile equation in its original variable (z or s), the right-hand side
    the scipy oracles integrate; the solvers integrate the oscillator form."""

    kind: str
    p: float

    def rhs(self, t: float, y: tuple[float, ...]) -> tuple[float, float]:
        f, df = y
        nonlinear = math.copysign(abs(f) ** self.p, f) if f != 0.0 else 0.0
        if self.kind == "stationary":
            w = 1.0 + t * t
            return (df, -(2.0 * t * df + nonlinear / w) / w)
        t2 = t * t
        return (df, -(2.0 * t * df + nonlinear / t2) / t2)


@pytest.fixture(scope="module")
def symmetric_decay():
    return solve_stationary(3.0, "symmetric", "decay_inverse", tol=1e-9, z_end=40.0)


@pytest.fixture(scope="module")
def oscillatory():
    return solve_selfsimilar(3.0, 1.0, xi_far=50.0, xi_min=1e-3, tol=1e-9)


def _oscillator(p: float):
    """The oscillator f'' + |f|^(p-1) f = 0 as a right-hand side for the generic oracle."""
    return lambda t, y: (y[1], -math.copysign(abs(y[0]) ** p, y[0]))


class _Unevaluated:
    """An exponent p whose power raises: the oscillator must never be evaluated."""

    def __rpow__(self, base):
        raise AssertionError("the right-hand side was evaluated")


class TestIntegrator:
    def test_against_scipy_oscillator(self):
        # p = 3 from a start that is no unit orbit, over about four periods
        ours = integrate(3.0, 30.0, (1.1, 0.3), rtol=1e-11, atol=1e-13)
        ref = solve_ivp(
            _oscillator(3.0),
            (0.0, 30.0),
            [1.1, 0.3],
            method="DOP853",
            rtol=1e-12,
            atol=1e-14,
        )
        assert ours.ys[-1][0] == pytest.approx(ref.y[0, -1], rel=1e-8, abs=1e-12)
        assert ours.ys[-1][1] == pytest.approx(ref.y[1, -1], rel=1e-8, abs=1e-12)

    def test_against_scipy_stationary_shot(self):
        # the generic oracle, on the stationary equation in its original variable z
        problem = ODEProblem("stationary", 3.0)
        ts, ys, *_ = generic_dp5(problem.rhs, 0.0, 30.0, (1.1, 0.0), rtol=1e-11, atol=1e-13)
        ref = solve_ivp(
            lambda t, y: list(problem.rhs(t, tuple(y))),
            (0.0, 30.0),
            [1.1, 0.0],
            method="DOP853",
            rtol=1e-12,
            atol=1e-14,
        )
        assert ts[-1] == 30.0
        assert ys[-1][0] == pytest.approx(ref.y[0, -1], rel=1e-8, abs=1e-12)
        assert ys[-1][1] == pytest.approx(ref.y[1, -1], rel=1e-8, abs=1e-12)

    def test_dense_output_accuracy(self):
        # p = 1 is f'' + f = 0: from (0, 1) the state is (sin t, cos t)
        ours = integrate(1.0, 6.0, (0.0, 1.0), rtol=1e-10, atol=1e-12)
        for t in np.linspace(0.3, 5.7, 25):
            f, df = ours.interpolate(float(t))
            assert f == pytest.approx(math.sin(t), abs=1e-9)
            assert df == pytest.approx(math.cos(t), abs=1e-9)

    def test_find_zeros_of_sine(self):
        ours = integrate(1.0, 10.0, (0.0, 1.0), rtol=1e-11, atol=1e-13)
        zs = find_zeros(ours)
        assert zs == pytest.approx([0.0, math.pi, 2 * math.pi, 3 * math.pi], abs=1e-9)

    def test_tiny_atol_against_cosine(self):
        # f/atol = 1e200 at the start, whose square overflows a plain sum of
        # squares, and the initial step guess (about 1e-190) lies below the step floor
        ours = integrate(1.0, 10.0, (1.0, 0.0), atol=1e-200)
        assert not ours.truncated and ours.ts[-1] == 10.0
        for t, (f, df) in zip(ours.ts, ours.ys):
            assert f == pytest.approx(math.cos(t), abs=1e-9)
            assert df == pytest.approx(-math.sin(t), abs=1e-9)
        for t in np.linspace(0.05, 9.95, 25):
            assert ours.interpolate(float(t))[0] == pytest.approx(math.cos(t), abs=1e-9)

    def test_overflowing_step_error_rejects_step(self):
        # at tolerances of 1e-300 the first step sits at the floor, 1e-14, and
        # its scaled error is above 1e154, so its square overflows; the step is
        # rejected, and the step below the floor ends the run
        ours = integrate(1.0, 1.0, (1.0, 0.0), rtol=1e-300, atol=1e-300)
        assert ours.truncated and ours.ts == [0.0] and ours.nfev == 7

    def test_rms_rescales_only_on_overflow(self):
        rng = random.Random(3)
        for _ in range(200):
            a, b = (rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-150, 150) for _ in range(2))
            # bit-identical to the plain formula wherever it does not overflow
            assert _rms(a, b) == math.sqrt((a**2 + b**2) / 2)
        assert _rms(1e200, 0.0) == pytest.approx(1e200 / math.sqrt(2), rel=1e-15)
        # each square is finite (1e308), their sum is not
        assert _rms(1e154, -1e154) == pytest.approx(1e154, rel=1e-15)
        assert _rms(math.inf, 1.0) == math.inf

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("which", ["rtol", "atol"])
    def test_rejects_tolerance_not_positive_finite(self, which, bad):
        # rejected before the first step: an unchecked NaN tolerance walks the
        # whole step budget, so the oscillator must never be evaluated
        with pytest.raises(ValueError, match="tolerances"):
            integrate(_Unevaluated(), 1.0, (1.0, 0.0), **{which: bad})

    @pytest.mark.parametrize("t1", [-1.0, 0.0, math.nan, math.inf])
    def test_rejects_span_not_forward(self, t1):
        # integration runs forward from t = 0 to a finite end only; a NaN end
        # fails t1 > 0 as well, and an infinite one would walk the step budget
        with pytest.raises(ValueError, match="forward"):
            integrate(_Unevaluated(), t1, (1.0, 0.0))

    @pytest.mark.parametrize(
        "p, t1, y0",
        [
            *[
                (p, semilinear._quarter_period(p), y0)
                for p in (2.0, 2.5, 3.0, 5.0, 7.0)
                for y0 in ((1.0, 0.0), (0.0, math.sqrt(2 / (p + 1))))
            ],
            (1.0, 10.0, (1.0, 0.0)),
        ],
    )
    def test_matches_generic_stage_loop(self, p, t1, y0):
        # the scalar stages add the same terms in the same order as a loop
        # over the tableau, so the steps, values and dense output are identical
        ours = integrate(p, t1, y0, rtol=1e-10, atol=1e-12)
        ts, ys, nfev, segments, truncated = generic_dp5(_oscillator(p), 0.0, t1, y0, rtol=1e-10, atol=1e-12)
        assert (ours.ts, ours.ys, ours.nfev, ours.truncated) == (ts, ys, nfev, truncated)
        assert ours._segments == segments
        for segment in segments:
            t, h, *_ = segment
            assert ours.interpolate(t + h / 2) == dense_value(segment, t + h / 2)

    @given(
        p=st.floats(1.0, 12.0),
        start=st.one_of(
            st.sampled_from(["symmetric", "antisymmetric"]),
            st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)).filter(lambda y: max(map(abs, y)) > 1e-3),
        ),
        quarters=st.floats(0.05, 4.0),
        digits=st.floats(3.0, -math.log10(sys.float_info.epsilon)),
        tiny_atol=st.booleans(),
        where=st.randoms(use_true_random=False),
    )
    # no shrink phase: shrinking reran the generic oracle hundreds of times, so a
    # failure took minutes to report; the unshrunk example is reported at once
    @settings(max_examples=60, deadline=None, phases=[p for p in Phase if p is not Phase.shrink])
    def test_bit_identical_to_generic_stage_loop(self, p, start, quarters, digits, tiny_atol, where):
        rtol = max(10.0**-digits, sys.float_info.epsilon)
        if start == "symmetric":
            y0 = (1.0, 0.0)
        elif start == "antisymmetric":
            y0 = (0.0, math.sqrt(2 / (p + 1)))
        else:
            y0 = start
        # the orbit's amplitude a fixes its quarter period K_p a^((1-p)/2)
        f, df = y0
        a = ((p + 1) * df * df / 2 + abs(f) ** (p + 1)) ** (1 / (p + 1))
        t1 = quarters * semilinear._quarter_period(p) * a ** ((1 - p) / 2)
        atol = 1e-200 if tiny_atol else rtol * 1e-2
        ours = integrate(p, t1, y0, rtol=rtol, atol=atol)
        ts, ys, nfev, segments, truncated = generic_dp5(_oscillator(p), 0.0, t1, y0, rtol=rtol, atol=atol)
        assert (ours.ts, ours.ys, ours.nfev, ours.truncated) == (ts, ys, nfev, truncated)
        assert ours._segments == segments
        points, states = [], []
        for segment in segments:
            t, h, *_ = segment
            x = t + h * where.random()
            if x == t + h:  # rounded up to the next segment's start
                x = t
            assert ours.interpolate(x) == dense_value(segment, x)
            points.append(x)
            states.append(dense_value(segment, x))
        # all points in one call, in shuffled order
        order = list(range(len(points)))
        where.shuffle(order)
        assert ours.interpolate_all([points[i] for i in order]) == [states[i] for i in order]

    @pytest.mark.parametrize("budget", [1, 2, 7, 50])
    def test_step_budget_truncates_to_a_prefix(self, monkeypatch, budget):
        # the budget counts attempted steps; what was accepted before it ran
        # out is the start of the unbounded run
        p, t1, y0 = 3.0, 4 * semilinear._quarter_period(3.0), (1.0, 0.0)
        monkeypatch.setattr(ode, "MAX_STEPS", budget)
        ours = integrate(p, t1, y0, rtol=1e-10, atol=1e-12)
        ts, ys, nfev, segments, _ = generic_dp5(_oscillator(p), 0.0, t1, y0, rtol=1e-10, atol=1e-12)
        assert ours.truncated and ours.nfev == 1 + 6 * budget
        n = len(ours.ts)
        assert 1 < n <= budget + 1 < len(ts)
        assert (ours.ts, ours.ys, ours._segments) == (ts[:n], ys[:n], segments[: n - 1])

    def test_quarter_period_ends(self):
        # over K_p the orbit through (1, 0) reaches (0, -sqrt(2/(p+1))), and the
        # one through (0, sqrt(2/(p+1))) reaches (1, 0)
        p = 3.0
        k, v = semilinear._quarter_period(p), math.sqrt(2 / (p + 1))
        down = integrate(p, k, (1.0, 0.0)).ys[-1]
        up = integrate(p, k, (0.0, v)).ys[-1]
        assert abs(down[0]) < 1e-9 and abs(down[1] + v) < 1e-9
        assert abs(up[0] - 1.0) < 1e-9 and abs(up[1]) < 1e-9


class TestProblemSetup:
    def test_far_condition_root_map(self):
        assert FAR_FIELD_ROOT["decay_inverse"] == -1
        assert FAR_FIELD_ROOT["plateau_one"] == 0

    def test_p_validation(self):
        with pytest.raises(ValueError):
            solve_stationary(0.5)
        with pytest.raises(ValueError):
            solve_selfsimilar(1.0, 1.0)

    def test_odd_nonlinearity_exact(self):
        problem = ODEProblem("stationary", 2.5)
        up = problem.rhs(1.3, (0.7, 0.1))
        dn = problem.rhs(1.3, (-0.7, 0.1))
        assert up[1] + 2 * 1.3 * 0.1 / (1 + 1.3**2) == pytest.approx(
            -(dn[1] + 2 * 1.3 * 0.1 / (1 + 1.3**2))
        )


class TestStationary:
    def test_symmetric_decay_profile(self, symmetric_decay):
        sol = symmetric_decay
        assert sol.values[0] > 0
        assert sol.derivative_values[0] == pytest.approx(0.0, abs=1e-12)
        assert sol.zeros == ()
        zg = np.array(sol.grid)
        fv = np.array(sol.values)
        mask = zg >= zg[-1] / 2
        slope = np.polyfit(np.log(zg[mask]), np.log(np.abs(fv[mask])), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.05)
        assert sol.asymptotic_constant != 0.0

    def test_reflection_symmetry(self):
        # f -> -f maps the oscillator to itself, and every rounding of the
        # negated orbit is the negated rounding: the same steps, negated states
        a = integrate(3.0, 20.0, (0.9, 0.0), rtol=1e-10, atol=1e-12)
        b = integrate(3.0, 20.0, (-0.9, 0.0), rtol=1e-10, atol=1e-12)
        assert b.ts == a.ts and b.nfev == a.nfev
        assert b.ys == [(-f, -df) for f, df in a.ys]
        for t in np.linspace(1.0, 19.0, 13):
            fa, dfa = a.interpolate(float(t))
            assert b.interpolate(float(t)) == (-fa, -dfa)

    def test_ode_residual_on_refined_grid(self, symmetric_decay):
        # second-difference residual of the dense output against the equation:
        # in theta = arctan z the returned shot is the oscillator from (s, 0)
        sol = symmetric_decay
        p = sol.p
        h = 1e-3
        final = integrate(p, math.pi / 2, (sol.shot_parameter, 0.0), rtol=1e-9, atol=1e-11)
        worst = 0.0
        for theta in np.linspace(0.01, math.pi / 2 - 0.01, 200):
            fm = final.interpolate(float(theta - h))[0]
            f0 = final.interpolate(float(theta))[0]
            fp = final.interpolate(float(theta + h))[0]
            second = (fp - 2 * f0 + fm) / h**2
            worst = max(worst, abs(second + math.copysign(abs(f0) ** p, f0)))
        assert worst < 1e-5

    def test_shooting_robustness(self):
        a = solve_stationary(3.0, "antisymmetric", "decay_inverse", tol=1e-8, z_end=30.0)
        b = solve_stationary(3.0, "antisymmetric", "decay_inverse", tol=5e-9, z_end=30.0)
        shot_tol = 1e-8 * max(1.0, a.shot_parameter)
        assert abs(a.shot_parameter - b.shot_parameter) < 10 * shot_tol

    def test_plateau_profile(self):
        sol = solve_stationary(3.0, "symmetric", "plateau_one", tol=1e-9, z_end=40.0)
        assert abs(sol.values[-1] - 1.0) < 1e-3
        # the derivative dies like 1/z^2 toward the plateau
        assert abs(sol.derivative_values[-1]) < 30.0 / sol.grid[-1] ** 2

    @pytest.mark.parametrize(
        "p, symmetry, expected",
        [
            (1.5, "symmetric", 1.2037713709),
            (1.5, "antisymmetric", 36.0890113429),
            (2.0, "symmetric", 1.1952543850),
            (2.0, "antisymmetric", 8.5356161403),
            (3.0, "symmetric", 1.1803405990),
            (3.0, "antisymmetric", 3.9405757850),
            # one scan step passes several sign changes of f(pi/2) here
            (7.0, "symmetric", 1.1399969415),
            (7.0, "antisymmetric", 2.1279336219),
            (50.0, "symmetric", 1.0499556394),
            (50.0, "antisymmetric", 1.4122321134),
        ],
    )
    def test_decay_shot_closed_form(self, p, symmetry, expected):
        # theta = arctan z turns the equation into f'' + |f|^(p-1) f = 0 on
        # [0, pi/2]; decay is f(pi/2) = 0, a quarter (symmetric) or half
        # (antisymmetric) period of amplitude a, with quarter period C_p a^((1-p)/2)
        c_p = math.sqrt((p + 1) / 2) * beta(1 / (p + 1), 0.5) / (p + 1)
        if symmetry == "symmetric":
            a = (2 * c_p / math.pi) ** (2 / (p - 1))
            shot = a
        else:
            a = (4 * c_p / math.pi) ** (2 / (p - 1))
            shot = math.sqrt(2 / (p + 1)) * a ** ((p + 1) / 2)
        assert shot == pytest.approx(expected, rel=1e-9)
        sol = solve_stationary(p, symmetry, "decay_inverse")
        # the shot is bisected to the last float of its closed-form class
        assert sol.shot_parameter == pytest.approx(shot, rel=1e-14)
        # f ~ c/z with c = |f_theta(pi/2)| = sqrt(2E), E = a^(p+1)/(p+1)
        c = math.sqrt(2 / (p + 1)) * a ** ((p + 1) / 2)
        assert sol.asymptotic_constant == pytest.approx(c, rel=1e-14)
        assert len(sol.zeros) == (symmetry == "antisymmetric")

    @pytest.mark.parametrize("p", [1.5, 3.0, 7.0])
    @pytest.mark.parametrize("symmetry", ["symmetric", "antisymmetric"])
    def test_decay_shot_does_not_depend_on_tol(self, p, symmetry):
        # the decay class is a closed-form test of the shot: the orbit's
        # integration tolerance moves no bisection step
        loose, tight = (solve_stationary(p, symmetry, "decay_inverse", tol=tol) for tol in (1e-6, 1e-12))
        assert loose.shot_parameter == tight.shot_parameter
        assert loose.asymptotic_constant == tight.asymptotic_constant

    def test_z_end_validation(self):
        with pytest.raises(ValueError):
            solve_stationary(3.0, "symmetric", "decay_inverse", z_end=-10.0)

    @pytest.mark.parametrize("z_end", [math.inf, math.nan])
    def test_z_end_must_be_finite(self, z_end):
        with pytest.raises(ValueError, match="finite"):
            solve_stationary(3.0, "symmetric", "decay_inverse", z_end=z_end)

    @settings(max_examples=60, deadline=None)
    @given(
        p=st.floats(1.05, 9.0),
        symmetry=st.sampled_from(["symmetric", "antisymmetric"]),
        far=st.sampled_from(["decay_inverse", "plateau_one"]),
        z_end=st.floats(0.05, 1e4),
        s_range=st.sampled_from([(1e-3, 1e3), (1e3, 1e5), (-1e3, -1e-3)]),
    )
    @example(p=3.0, symmetry="symmetric", far="plateau_one", z_end=50.0, s_range=(1e3, 1e5))
    @example(p=2.0, symmetry="antisymmetric", far="decay_inverse", z_end=50.0, s_range=(1e-3, 1e3))
    def test_grid_rows_are_the_phase_function_per_row(self, p, symmetry, far, z_end, s_range):
        # the rows come from one `orbit.states` pass; each one must be, bit for
        # bit, a W(omega atan z) and a omega W'(omega atan z) / (1 + z^2) from
        # the phase function at that phase alone, many periods deep at large shots
        try:
            sol = solve_stationary(p, symmetry, far, z_end=z_end, s_range=s_range)
        except NoProfileFoundError:
            return
        symmetric = symmetry == "symmetric"
        s = sol.shot_parameter
        a = s if symmetric else math.copysign(((p + 1) * s * s / 2) ** (1 / (p + 1)), s)
        omega = abs(a) ** ((p - 1) / 2)
        _, orbit, _ = semilinear._unit_orbit(p, symmetric, semilinear.DEFAULT_TOL)
        states = [orbit(omega * math.atan(z)) for z in sol.grid]
        assert sol.values == tuple(a * w for w, _ in states)
        assert sol.derivative_values == tuple(a * omega * dw / (1 + z * z) for z, (_, dw) in zip(sol.grid, states))

    @pytest.mark.parametrize("symmetry", ["symmetric", "antisymmetric"])
    @pytest.mark.parametrize("far", ["decay_inverse", "plateau_one"])
    def test_one_stationary_integration(self, monkeypatch, symmetry, far):
        calls = []

        def recording(p, t1, y0, **kwargs):
            calls.append((p, t1, tuple(y0)))
            return integrate(p, t1, y0, **kwargs)

        monkeypatch.setattr(semilinear, "integrate", recording)
        p = 3.0
        solve_stationary(p, symmetry, far)
        quarter_period = math.sqrt((p + 1) / 2) * beta(1 / (p + 1), 0.5) / (p + 1)
        (exponent, t1, y0), = calls
        assert exponent == p
        assert t1 == pytest.approx(quarter_period, rel=1e-12)
        assert y0 == ((1.0, 0.0) if symmetry == "symmetric" else (0.0, math.sqrt(2 / (p + 1))))

    @pytest.mark.parametrize("symmetry", ["symmetric", "antisymmetric"])
    def test_negative_shots(self, symmetry):
        # f -> -f maps profiles to profiles: no negative shot decays with f > 0,
        # and a negative plateau shot starts with f(0) = s or f'(0) = s < 0
        with pytest.raises(NoProfileFoundError):
            solve_stationary(3.0, symmetry, "decay_inverse", s_range=(-1e3, -1e-3))
        sol = solve_stationary(3.0, symmetry, "plateau_one", s_range=(-1e3, -1e-3))
        s = sol.shot_parameter
        assert s < 0
        start = sol.values[0] if symmetry == "symmetric" else sol.derivative_values[0]
        assert start == pytest.approx(s, rel=1e-12)
        assert sol.values[-1] == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize(
        "symmetry, s_range", [("symmetric", (-1e6, -1e5)), ("antisymmetric", (-1e8, -1e7))]
    )
    def test_far_negative_bracket_ends(self, symmetry, s_range):
        # the float spacing of these shots is far above 1e-10: the bisection
        # stops when the bracket's midpoint is one of its ends, instead of
        # halving a bracket that no longer shrinks
        sol = solve_stationary(3.0, symmetry, "plateau_one", s_range=s_range)
        assert s_range[0] < sol.shot_parameter < s_range[1]
        assert abs(sol.values[-1] - 1.0) < 1e-3

    @pytest.mark.parametrize("s_range", [(1e5, 1e6), (1e6, 1e7)])
    def test_large_plateau_shot_meets_contract(self, s_range):
        # f(z_end) was 1.567 and 17.7: a positive bracket stopped at 1e-10 |s|,
        # where f moves by about s^2 theta_end per unit relative change of s
        sol = solve_stationary(3.0, "symmetric", "plateau_one", s_range=s_range)
        assert s_range[0] < sol.shot_parameter < s_range[1]
        assert abs(sol.values[-1] - 1.0) < semilinear.PLATEAU_TOL

    @pytest.mark.parametrize("s_range", [(1e7, 1e8), (-1e8, -1e7)])
    def test_plateau_out_of_float_reach_raises(self, s_range):
        # no float shot meets the plateau here (f(z_end) = 3932 and 2.37 were
        # returned before); the check runs before the grid and the millions of
        # zeros are built
        tracemalloc.start()
        try:
            with pytest.raises(NoProfileFoundError, match="meets the plateau"):
                solve_stationary(3.0, "symmetric", "plateau_one", s_range=s_range)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5_000_000

    @pytest.mark.parametrize("symmetry", ["symmetric", "antisymmetric"])
    def test_zeros_stop_at_max_steps(self, symmetry, monkeypatch):
        # the zeros' count grows like the shot's frequency: past the cap they
        # stop, the first ones kept, and the solution says it was truncated
        full = solve_stationary(3.0, symmetry, "plateau_one", s_range=(1e3, 1e4))
        assert not full.truncated and len(full.zeros) > 8
        monkeypatch.setattr(semilinear, "MAX_STEPS", len(full.zeros))
        assert solve_stationary(3.0, symmetry, "plateau_one", s_range=(1e3, 1e4)) == full
        monkeypatch.setattr(semilinear, "MAX_STEPS", 8)
        capped = solve_stationary(3.0, symmetry, "plateau_one", s_range=(1e3, 1e4))
        assert capped.truncated and capped.zeros == full.zeros[:8]
        assert (capped.grid, capped.values, capped.shot_parameter) == (full.grid, full.values, full.shot_parameter)

    @pytest.mark.parametrize("p", [2.0, 3.0, 5.0])
    @pytest.mark.parametrize("symmetric", [True, False])
    def test_unit_orbit_against_incomplete_beta(self, p, symmetric):
        # the orbit through (1, 0) takes K (1 - I_{y^(p+1)}(1/(p+1), 1/2)) to fall
        # from 1 to y, with I the regularized incomplete Beta function; the orbit
        # through (0, sqrt(2/(p+1))) is the same one shifted by a quarter period
        k, orbit, truncated = semilinear._unit_orbit(p, symmetric, 1e-10)
        assert not truncated
        for n in (0, 1, 17, 1000, 250_000):
            for y in (0.1, 0.5, 0.9):
                fraction = betainc(1 / (p + 1), 0.5, y ** (p + 1))
                x = 4 * n * k + (k - k * fraction if symmetric else k * fraction)
                assert abs(orbit(x)[0] - y) < 1e-9
                # the second half period is the first one negated
                assert abs(orbit(x + 2 * k)[0] + y) < 1e-9

    @pytest.mark.parametrize("p", [2.0, 3.0])
    @pytest.mark.parametrize("symmetry", ["symmetric", "antisymmetric"])
    @pytest.mark.parametrize("far", ["decay_inverse", "plateau_one"])
    def test_against_scipy_in_z(self, p, symmetry, far):
        # the returned shot, integrated by scipy in the original variable z
        sol = solve_stationary(p, symmetry, far)
        problem = ODEProblem("stationary", p)
        s = sol.shot_parameter
        ref = solve_ivp(
            lambda t, y: list(problem.rhs(t, tuple(y))),
            (0.0, sol.grid[-1]),
            [s, 0.0] if symmetry == "symmetric" else [0.0, s],
            method="DOP853",
            dense_output=True,
            rtol=1e-12,
            atol=1e-14,
        )
        f_ref, df_ref = ref.sol(np.array(sol.grid))
        assert np.max(np.abs(np.array(sol.values) - f_ref)) < 1e-8
        assert np.max(np.abs(np.array(sol.derivative_values) - df_ref)) < 1e-7
        if far == "plateau_one":
            assert abs(ref.y[0, -1] - 1.0) < 1e-8

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"p": math.nan}, "p"),
            ({"p": math.inf}, "p"),
            ({"tol": math.inf}, "tol"),
            ({"s_range": (-1.0, 1.0)}, "s_range"),
            ({"s_range": (0.0, 1.0)}, "s_range"),
            ({"s_range": (1.0, math.inf)}, "s_range"),
            ({"s_range": (2.0, 1.0)}, "s_range"),
            ({"tol": sys.float_info.epsilon / 2}, "tol"),
            ({"tol": 1e-170}, "tol"),
        ],
    )
    def test_rejects_bad_arguments(self, kwargs, name):
        with pytest.raises(ValueError, match=name):
            solve_stationary(**{"p": 3.0, **kwargs})

    def test_no_profile_in_tiny_range(self):
        with pytest.raises(NoProfileFoundError):
            solve_stationary(3.0, "symmetric", "decay_inverse", tol=1e-8, z_end=30.0, s_range=(1e-3, 2e-3))

    def test_tolerance_at_float_epsilon(self):
        # the smallest tolerance accepted: one quarter orbit in about 1,000 steps
        quarter = semilinear._unit_orbit(3.0, True, sys.float_info.epsilon)[1].quarter
        assert not quarter.truncated and len(quarter.ts) < 5_000
        sol = solve_stationary(3.0, "symmetric", "decay_inverse", tol=sys.float_info.epsilon)
        assert sol.shot_parameter == pytest.approx(1.1803405990, rel=1e-9)


def _beta_phase_zeros(p: float, amplitude: float, xi_far: float, xi_min: float, first: int | None = None) -> list[float]:
    """The profile's zeros on [xi_min, xi_far] in ascending xi, the first `first` of them or all, from its phase.

    In t = 1/xi the profile is an orbit of amplitude a, with
    a^(p+1) = (p+1) A^2/2 + |A t0|^(p+1); it rises from 0 to y a in
    K I_{y^(p+1)}(1/(p+1), 1/2) / omega, omega = a^((p-1)/2), so its last zero
    before t0 = 1/xi_far lies that long before t0, and zeros follow every
    half period 2 K / omega.
    """
    with mpmath.workdps(30):
        q, amp, t0 = 1 / (mpmath.mpf(p) + 1), mpmath.mpf(amplitude), 1 / mpmath.mpf(xi_far)
        a = (amp**2 / (2 * q) + abs(amp * t0) ** (p + 1)) ** q
        omega = a ** ((p - 1) / 2)
        k = mpmath.sqrt(1 / (2 * q)) * mpmath.beta(q, 0.5) * q
        rise = k * mpmath.betainc(q, 0.5, 0, (abs(amp * t0) / a) ** (p + 1), regularized=True) / omega
        t_zero, half = t0 - rise, 2 * k / omega
        count = int(mpmath.floor((1 / mpmath.mpf(xi_min) - t_zero) / half))
        last = 0 if first is None else max(count - first, 0)
        return [float(1 / (t_zero + j * half)) for j in range(count, last, -1)]


def _far_field_slope(p: float, amplitude: float, xi_far: float) -> float:
    """g'(0) of the self-similar profile in t = 1/xi, by scipy DOP853 on the
    oscillator from its start (A t0, A) at t0 = 1/xi_far back to t = 0.

    It integrates h = g / A, h'' = -|A|^(p-1) |h|^(p-1) h from (t0, 1), so a
    subnormal A keeps h of order one."""
    t0, weight = 1 / xi_far, abs(amplitude) ** (p - 1)
    ref = solve_ivp(
        lambda t, y: [y[1], -weight * math.copysign(abs(y[0]) ** p, y[0])],
        (t0, 0.0),
        [t0, 1.0],
        method="DOP853",
        rtol=1e-13,
        atol=1e-15,
    )
    assert ref.success
    return amplitude * float(ref.y[1, -1])


class TestSelfSimilar:
    def test_oscillation_and_zero_count(self, oscillatory):
        sol = oscillatory
        assert len(sol.zeros) >= 3
        assert all(a < b for a, b in zip(sol.zeros, sol.zeros[1:]))
        assert not sol.truncated

    def test_far_field_amplitude_recovered(self, oscillatory):
        assert oscillatory.asymptotic_constant == pytest.approx(1.0, rel=1e-4)

    def test_zero_count_monotone_in_cutoff(self, oscillatory):
        shallower = solve_selfsimilar(3.0, 1.0, xi_far=50.0, xi_min=1e-2, tol=1e-9)
        assert len(oscillatory.zeros) >= len(shallower.zeros)

    def test_trivial_amplitude(self):
        sol = solve_selfsimilar(3.0, 0.0)
        assert sol.zeros == ()
        assert all(v == 0.0 for v in sol.values)
        assert selfsimilar_zeros(3.0, 0.0, 5) == (0, ())

    def test_underflowing_amplitude(self):
        # |A|^(2/(p+1)) is taken out of the orbit energy, so it does not underflow;
        # the frequency omega = |a|^((p-1)/2) is about 1e-100, so the first quarter
        # period in t = 1/xi ends far past 1/xi_min, and the profile is the
        # linear branch A/xi with no zero
        sol = solve_selfsimilar(3.0, 1e-200)
        assert sol.zeros == () and not sol.truncated
        assert sol.grid[0] == 1e-4 and sol.grid[-1] == 100.0
        for x, v in zip(sol.grid, sol.values):
            assert v == pytest.approx(1e-200 / x, rel=1e-9)

    def test_zeros_against_scipy_events(self):
        xi_far, xi_min = 50.0, 0.05
        sol = solve_selfsimilar(3.0, 1.0, xi_far=xi_far, xi_min=xi_min)
        problem = ODEProblem("selfsimilar", 3.0)

        def crossing(t, y):
            return y[0]

        ref = solve_ivp(
            lambda t, y: list(problem.rhs(t, tuple(y))),
            (xi_far, xi_min),
            [1.0 / xi_far, -1.0 / xi_far**2],
            method="DOP853",
            events=crossing,
            dense_output=True,
            rtol=1e-12,
            atol=1e-14,
        )
        expected = sorted(ref.t_events[0])
        assert len(expected) == 6
        assert sol.zeros == pytest.approx(expected, abs=1e-8)
        # the repeated period follows the solution well past the first one
        for x in (0.06, 0.1, 0.2, 1.0):
            i = min(range(len(sol.grid)), key=lambda j: abs(sol.grid[j] - x))
            assert sol.values[i] == pytest.approx(ref.sol(sol.grid[i])[0], abs=1e-7)

    def test_one_integration_over_one_quarter(self, monkeypatch):
        calls = []

        def recording(p, t1, y0, **kwargs):
            calls.append((p, t1, tuple(y0)))
            return integrate(p, t1, y0, **kwargs)

        monkeypatch.setattr(semilinear, "integrate", recording)
        p = 3.0
        solve_selfsimilar(p, 1.0, xi_far=100.0, xi_min=1e-3)
        quarter_period = math.sqrt((p + 1) / 2) * beta(1 / (p + 1), 0.5) / (p + 1)
        (exponent, t1, y0), = calls
        assert exponent == p
        assert t1 == pytest.approx(quarter_period, rel=1e-12)
        assert y0 == (0.0, math.sqrt(2 / (p + 1)))

    def test_grid_budget_truncates(self, monkeypatch, oscillatory):
        monkeypatch.setattr(semilinear, "MAX_STEPS", 1000)
        sol = solve_selfsimilar(3.0, 1.0, xi_far=50.0, xi_min=1e-3, tol=1e-9)
        assert sol.truncated
        assert len(sol.grid) == len(sol.values) == len(sol.derivative_values) == 1001
        cut = sol.grid[0]
        assert cut > 1e-3 and sol.grid[-1] == 50.0
        assert sol.zeros and min(sol.zeros) >= cut
        # the zeros kept are those of the full solve above the cut-off
        assert sol.zeros == tuple(z for z in oscillatory.zeros if z >= cut)

    @pytest.mark.parametrize(
        "p, amplitude, xi_min, count",
        [(p, amplitude, 1e-2, None) for p in (2.0, 2.5, 3.0, 5.0) for amplitude in (1.0, 0.3, 30.0, -1.0)]
        # |A t0| carries nearly all the energy: the profile starts by its turning point
        + [(3.0, 1e6, 50.0, 27)],
    )
    def test_zeros_against_incomplete_beta_phase(self, p, amplitude, xi_min, count):
        expected = _beta_phase_zeros(p, amplitude, 100.0, xi_min)
        sol = solve_selfsimilar(p, amplitude, xi_far=100.0, xi_min=xi_min)
        assert not sol.truncated
        assert len(sol.zeros) == len(expected) == (count or len(expected))
        assert sol.zeros == pytest.approx(expected, rel=1e-11)

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(1.2, 5.0),
        st.floats(-10.0, 10.0),
        st.floats(10.0, 200.0),
        st.floats(1e-2, 9.0),
        st.integers(0, 40),
    )
    # g(0) = -0.186 here: xi f tends to no constant near xi_far
    @example(3.0, 1.0, 1.0, 1e-2, 3)
    def test_zeros_alone_are_the_solve_zeros(self, p, amplitude, xi_far, xi_min, first):
        # bit for bit, without a grid row; the grid ascends, and the far-field
        # constant is g'(0) of scipy's orbit in t = 1/xi.
        # with omega below 7 and t = 1/xi below 100, the grid keeps below 10^5 rows
        sol = solve_selfsimilar(p, amplitude, xi_far=xi_far, xi_min=xi_min)
        assert not sol.truncated
        count, zeros = selfsimilar_zeros(p, amplitude, first, xi_far=xi_far, xi_min=xi_min)
        assert count == len(sol.zeros) and zeros == sol.zeros[:first]
        assert all(a <= b for a, b in zip(sol.grid, sol.grid[1:]))
        assert sol.asymptotic_constant == pytest.approx(_far_field_slope(p, amplitude, xi_far), rel=1e-8)

    @pytest.mark.parametrize(
        "p, amplitude, xi_far",
        [(3.0, 1.0, 1.0), (3.0, 1.0, 10.0), (3.0, 1.0, 100.0), (2.0, -0.7, 5.0), (5.0, 2.0, 2.0)],
    )
    def test_far_field_constant_is_the_orbit_slope_at_infinity(self, p, amplitude, xi_far):
        # f = g(0) + g'(0)/xi + ... as xi -> infinity; at xi_far = 1 the orbit
        # has g(0) = -0.186, so no mean of xi f near xi_far is g'(0)
        constant = solve_selfsimilar(p, amplitude, xi_far=xi_far, xi_min=1e-2).asymptotic_constant
        assert constant == pytest.approx(_far_field_slope(p, amplitude, xi_far), rel=1e-8)
        if (p, amplitude, xi_far) == (3.0, 1.0, 1.0):
            assert constant == pytest.approx(1.224502522446, rel=1e-8)

    @pytest.mark.parametrize("xi_min, count", [(1e-5, 32_070), (1e-6, 320_700)])
    def test_zero_count_past_the_grid_budget(self, xi_min, count):
        # the grid stops at MAX_STEPS rows near xi = 4.4e-5 and its zeros with
        # it; the zeros alone are counted to xi_min, and only the first are built
        assert solve_selfsimilar(3.0, 1.0, xi_min=xi_min).truncated
        expected = _beta_phase_zeros(3.0, 1.0, 100.0, xi_min, first=12)
        got_count, zeros = selfsimilar_zeros(3.0, 1.0, 12, xi_min=xi_min)
        assert got_count == count and len(zeros) == 12
        assert zeros == pytest.approx(expected, rel=1e-11)
        assert zeros[0] == pytest.approx(1.000003 * xi_min, rel=1e-7)

    @pytest.mark.parametrize("xi_min", [1e-17, 5e-324])
    def test_zeros_that_are_not_distinct_floats_raise(self, xi_min):
        # near t = 1/xi_min the half period falls below the float spacing of t
        # (at 5e-324, t is infinite): the zeros would coincide; with fewer than
        # two zeros asked for, the innermost pair is still checked
        for first in (12, 1, 0):
            with pytest.raises(ValueError, match=re.escape(f"xi_min={xi_min!r} is too small for p=3.0, A=1.0")):
                selfsimilar_zeros(3.0, 1.0, first, xi_min=xi_min)

    @pytest.mark.parametrize("xi_min", [1e-16, 2.7731209715193655e-16, 1e-15, 1e-6])
    def test_count_is_the_exact_floor_of_the_phase(self, xi_min):
        # past about 1e15 zeros the float phase rounds across a multiple of 2 K
        # (the first two xi_min here): the count is the floor of the phase of
        # the float parameters, here to 60 digits
        o = semilinear._selfsimilar_orbit(3.0, 1.0, 100.0, xi_min, semilinear.DEFAULT_TOL)
        with mpmath.workdps(60):
            phase = mpmath.mpf(o.omega) * (mpmath.mpf(o.t_stop) - mpmath.mpf(o.t0)) + mpmath.mpf(o.phi0)
            expected = int(mpmath.floor(phase / (2 * mpmath.mpf(o.k))))
        for first in (0, 1, 2):
            count, zeros = selfsimilar_zeros(3.0, 1.0, first, xi_min=xi_min)
            assert count == expected and len(zeros) == first
        assert {1e-16: 3_207_009_758_150_989, 1e-6: 320_700}.get(xi_min, count) == count

    @pytest.mark.parametrize("p, amplitude", [(2.5, 1.0), (3.0, 30.0)])
    def test_negated_amplitude_negates_profile(self, p, amplitude):
        up = solve_selfsimilar(p, amplitude, xi_min=1e-2)
        down = solve_selfsimilar(p, -amplitude, xi_min=1e-2)
        assert down.grid == up.grid and down.zeros == up.zeros
        assert down.values == tuple(-f for f in up.values)
        assert down.derivative_values == tuple(-df for df in up.derivative_values)
        assert down.asymptotic_constant == -up.asymptotic_constant

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"p": math.nan}, "p"),
            ({"p": math.inf}, "p"),
            ({"amplitude": math.nan}, "amplitude A"),
            ({"amplitude": math.inf}, "amplitude A"),
            ({"amplitude": 1e300}, "amplitude A"),
            ({"xi_far": math.inf}, "xi_far"),
            ({"xi_min": math.nan}, "xi_min"),
            ({"tol": math.nan}, "tol"),
        ],
    )
    def test_rejects_non_finite_input(self, kwargs, name):
        args = {"p": 3.0, "amplitude": 1.0, **kwargs}
        with pytest.raises(ValueError, match=name) as solved:
            solve_selfsimilar(**args)
        # the zeros alone are checked by the same head, with the same message
        with pytest.raises(ValueError) as counted:
            selfsimilar_zeros(first=3, **args)
        assert str(counted.value) == str(solved.value)

    def test_oracle_spot_check(self):
        # the generic oracle on the equation in s: it is invariant under s -> -s,
        # so f(s) is integrated forward as g(u) = f(-u) from u = -20 to -0.5,
        # starting at g' = -f'
        problem = ODEProblem("selfsimilar", 3.0)
        ts, ys, *_ = generic_dp5(problem.rhs, -20.0, -0.5, (0.05, 0.0025), rtol=1e-11, atol=1e-13)
        ref = solve_ivp(
            lambda t, y: list(problem.rhs(t, tuple(y))),
            (20.0, 0.5),
            [0.05, -0.0025],
            method="DOP853",
            rtol=1e-12,
            atol=1e-14,
        )
        assert ts[-1] == -0.5
        assert ys[-1][0] == pytest.approx(ref.y[0, -1], rel=1e-7, abs=1e-12)


class TestCrackCurves:
    def test_log_exponent(self, oscillatory):
        curves = crack_curves(oscillatory, 1.0, 3.0, [-0.5, -0.1])
        xi = curves[0].xi
        for (y, x) in curves[0].points:
            assert x == pytest.approx(xi * (-y) * abs(math.log(-y)) ** 1.0, rel=1e-12)

    def test_ordering_preserved(self, oscillatory):
        curves = crack_curves(oscillatory, 1.0, 3.0, [-0.3, -0.05])
        for a, b in zip(curves, curves[1:]):
            for (ya, xa), (yb, xb) in zip(a.points, b.points):
                assert ya == yb and xa < xb

    def test_domain_validation(self, oscillatory):
        with pytest.raises(ValueError):
            crack_curves(oscillatory, 1.0, 3.0, [-0.5, 0.1])
        with pytest.raises(ValueError):
            crack_curves(oscillatory, 1.0, 3.0, [-1.0])
        with pytest.raises(ValueError):
            crack_curves(oscillatory, 0.0, 3.0, [-0.5])
        with pytest.raises(ValueError):
            crack_curves(oscillatory, 1.0, 1.0, [-0.5])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_alpha_or_p(self, oscillatory, bad):
        # NaN passed the old alpha <= 0 and p <= 1 tests and gave NaN curves
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            crack_curves(oscillatory, bad, 3.0, [-0.5])
        with pytest.raises(ValueError, match="p must be finite and exceed 1"):
            crack_curves(oscillatory, 1.0, bad, [-0.5])

    @pytest.mark.parametrize(
        "alpha, y",
        [
            (1e300, -1e-4),  # |ln(-y)|^beta overflows the float range
            (100.0, -1e300),  # a finite weight, 1e284, whose point xi (-y) w is infinite
        ],
    )
    def test_non_finite_weight_or_point(self, oscillatory, alpha, y):
        # beta = alpha (p-1)/2 = alpha at p = 3
        with pytest.raises(ValueError, match=re.escape(f"not a finite float at y={y!r}, beta={alpha!r}")):
            crack_curves(oscillatory, alpha, 3.0, [-0.5, y])

    def test_the_first_zeros_build_the_first_curves(self, oscillatory):
        ys = [-0.5, -0.1]
        curves = crack_curves(oscillatory, 1.0, 3.0, ys)
        assert len(curves) == len(oscillatory.zeros) > 2
        for n in (0, 2, len(curves), len(curves) + 5):
            assert curves_from_zeros(oscillatory.zeros[:n], 1.0, 3.0, ys) == curves[:n]

    def test_only_built_points_must_be_finite(self, oscillatory):
        # at beta = 3.5 the last zero's point at y = -1e300 is past the float
        # range and the first zero's is not; a curve that is not built cannot fail
        ys = [-0.5, -1e300]
        (first,) = curves_from_zeros(oscillatory.zeros[:1], 3.5, 3.0, ys)
        assert first.xi == oscillatory.zeros[0] and math.isfinite(first.points[-1][1])
        with pytest.raises(ValueError, match=re.escape("not a finite float at y=-1e+300, beta=3.5")):
            crack_curves(oscillatory, 3.5, 3.0, ys)

    def test_non_finite_beta(self, oscillatory):
        # alpha (p-1) overflows; |ln(-y)| < 1 would turn every weight into 0
        with pytest.raises(ValueError, match="beta = alpha"):
            crack_curves(oscillatory, 1e308, 5.0, [-0.5])
