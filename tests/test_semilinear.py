"""Profile solvers: integrator cross-checks, symmetry, and far-field behavior.

scipy's independently implemented integrators, run on the original-variable
equations, and the closed forms of the oscillator f'' + |f|^(p-1) f = 0 serve
as oracles for the Dormand-Prince solvers.
"""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.special import beta, betainc

from pencil import semilinear
from pencil.ode import find_zeros, integrate
from pencil.semilinear import (
    FAR_FIELD_ROOT,
    NoProfileFoundError,
    ODEProblem,
    crack_curves,
    linearized_exponents,
    solve_selfsimilar,
    solve_stationary,
)


@pytest.fixture(scope="module")
def symmetric_decay():
    return solve_stationary(3.0, "symmetric", "decay_inverse", tol=1e-9, z_end=40.0)


@pytest.fixture(scope="module")
def oscillatory():
    return solve_selfsimilar(3.0, 1.0, xi_far=50.0, xi_min=1e-3, tol=1e-9)


class TestIntegrator:
    def test_against_scipy_linear(self):
        rhs = lambda t, y: (-0.7 * y[0] + math.sin(t),)
        ours = integrate(rhs, 0.0, 12.0, (1.0,), rtol=1e-11, atol=1e-13)
        ref = solve_ivp(
            lambda t, y: [-0.7 * y[0] + math.sin(t)],
            (0.0, 12.0),
            [1.0],
            method="DOP853",
            rtol=1e-12,
            atol=1e-14,
        )
        assert ours.y_end[0] == pytest.approx(ref.y[0, -1], rel=1e-9)

    def test_against_scipy_stationary_shot(self):
        problem = ODEProblem("stationary", 3.0, "symmetric", "decay_inverse")
        ours = integrate(problem.rhs, 0.0, 30.0, (1.1, 0.0), rtol=1e-11, atol=1e-13)
        ref = solve_ivp(
            lambda t, y: list(problem.rhs(t, tuple(y))),
            (0.0, 30.0),
            [1.1, 0.0],
            method="DOP853",
            rtol=1e-12,
            atol=1e-14,
        )
        assert ours.y_end[0] == pytest.approx(ref.y[0, -1], rel=1e-8, abs=1e-12)
        assert ours.y_end[1] == pytest.approx(ref.y[1, -1], rel=1e-8, abs=1e-12)

    def test_dense_output_accuracy(self):
        ours = integrate(lambda t, y: (math.cos(t),), 0.0, 6.0, (0.0,), rtol=1e-10, atol=1e-12)
        for t in np.linspace(0.3, 5.7, 25):
            assert ours.interpolate(float(t))[0] == pytest.approx(math.sin(t), abs=1e-9)

    def test_backward_direction(self):
        ours = integrate(lambda t, y: (y[0],), 2.0, 0.0, (math.exp(2.0),), rtol=1e-11, atol=1e-13)
        assert ours.y_end[0] == pytest.approx(1.0, rel=1e-9)

    def test_find_zeros_of_sine(self):
        ours = integrate(lambda t, y: (y[1], -y[0]), 0.0, 10.0, (0.0, 1.0), rtol=1e-11, atol=1e-13)
        zs = find_zeros(ours)
        assert zs == pytest.approx([0.0, math.pi, 2 * math.pi, 3 * math.pi], abs=1e-9)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("which", ["rtol", "atol"])
    def test_rejects_tolerance_not_positive_finite(self, which, bad):
        # rejected before the first step: an unchecked NaN tolerance walks the
        # whole step budget, so the right-hand side must never run
        def rhs(t, y):
            raise AssertionError("the right-hand side was evaluated")

        with pytest.raises(ValueError, match="tolerances"):
            integrate(rhs, 0.0, 1.0, (1.0,), **{which: bad})


class TestProblemSetup:
    def test_linearized_exponents(self):
        assert linearized_exponents("stationary") == (-1, 0)
        assert linearized_exponents("selfsimilar") == (-1, 0)
        with pytest.raises(ValueError):
            linearized_exponents("other")

    def test_far_condition_root_map(self):
        assert FAR_FIELD_ROOT["decay_inverse"] == -1
        assert FAR_FIELD_ROOT["plateau_one"] == 0

    def test_p_validation(self):
        with pytest.raises(ValueError):
            ODEProblem("stationary", 1.0)
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
        problem = ODEProblem("stationary", 3.0)
        a = integrate(problem.rhs, 0.0, 20.0, (0.9, 0.0), rtol=1e-10, atol=1e-12)
        b = integrate(problem.rhs, 0.0, 20.0, (-0.9, 0.0), rtol=1e-10, atol=1e-12)
        for t in np.linspace(1.0, 19.0, 13):
            fa = a.interpolate(float(t))[0]
            fb = b.interpolate(float(t))[0]
            assert fb == pytest.approx(-fa, rel=1e-9, abs=1e-12)

    def test_ode_residual_on_refined_grid(self, symmetric_decay):
        # second-difference residual of the dense output against the equation
        sol = symmetric_decay
        p = sol.p
        h = 1e-3
        worst = 0.0
        problem = ODEProblem("stationary", p)
        zs = np.linspace(1.0, 30.0, 200)
        from pencil.ode import integrate as _integrate

        final = _integrate(
            problem.rhs, 0.0, sol.grid[-1], (sol.shot_parameter, 0.0), rtol=1e-9, atol=1e-11
        )
        for z in zs:
            fm = final.interpolate(float(z - h))[0]
            f0 = final.interpolate(float(z))[0]
            fp = final.interpolate(float(z + h))[0]
            second = (fp - 2 * f0 + fm) / h**2
            rhs_val = problem.rhs(float(z), (f0, (fp - fm) / (2 * h)))[1]
            worst = max(worst, abs(second - rhs_val))
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
            (2.0, "symmetric", 1.1952543850),
            (2.0, "antisymmetric", 8.5356161403),
            (3.0, "symmetric", 1.1803405990),
            (3.0, "antisymmetric", 3.9405757850),
            # one scan step passes several sign changes of f(pi/2) here
            (7.0, "symmetric", 1.1399969415),
            (7.0, "antisymmetric", 2.1279336219),
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
        assert sol.shot_parameter == pytest.approx(shot, rel=1e-8)
        # f ~ c/z with c = |f_theta(pi/2)| = sqrt(2E), E = a^(p+1)/(p+1)
        c = math.sqrt(2 / (p + 1)) * a ** ((p + 1) / 2)
        assert sol.asymptotic_constant == pytest.approx(c, rel=1e-8)

    def test_z_end_validation(self):
        with pytest.raises(ValueError):
            solve_stationary(3.0, "symmetric", "decay_inverse", z_end=-10.0)

    @pytest.mark.parametrize("z_end", [math.inf, math.nan])
    def test_z_end_must_be_finite(self, z_end):
        with pytest.raises(ValueError, match="finite"):
            solve_stationary(3.0, "symmetric", "decay_inverse", z_end=z_end)

    @pytest.mark.parametrize("symmetry", ["symmetric", "antisymmetric"])
    @pytest.mark.parametrize("far", ["decay_inverse", "plateau_one"])
    def test_one_stationary_integration(self, monkeypatch, symmetry, far):
        calls = []

        def recording(rhs, t0, t1, y0, **kwargs):
            calls.append((t0, t1, tuple(y0)))
            return integrate(rhs, t0, t1, y0, **kwargs)

        monkeypatch.setattr(semilinear, "integrate", recording)
        p = 3.0
        solve_stationary(p, symmetry, far)
        quarter_period = math.sqrt((p + 1) / 2) * beta(1 / (p + 1), 0.5) / (p + 1)
        (t0, t1, y0), = calls
        assert t0 == 0.0
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
        problem = ODEProblem("stationary", p, symmetry, far)
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

    def test_no_profile_in_tiny_range(self):
        with pytest.raises(NoProfileFoundError):
            solve_stationary(3.0, "symmetric", "decay_inverse", tol=1e-8, z_end=30.0,
                             s_range=(1e-3, 2e-3), n_scan=3)


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

    def test_underflowing_amplitude(self):
        # the orbit energy underflows to 0, so the period is taken as infinite;
        # the profile is then the linear branch A/xi with no zero
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

    def test_one_integration_over_one_period(self, monkeypatch):
        spans = []

        def recording(rhs, t0, t1, y0, **kwargs):
            spans.append((t0, t1))
            return integrate(rhs, t0, t1, y0, **kwargs)

        monkeypatch.setattr(semilinear, "integrate", recording)
        sol = solve_selfsimilar(3.0, 1.0, xi_far=100.0, xi_min=1e-3)
        assert len(spans) == 1
        t_zeros = [1.0 / z for z in sol.zeros]
        period = 2 * (t_zeros[0] - t_zeros[1])
        (t0, t1), = spans
        assert t0 == pytest.approx(1.0 / 100.0)
        assert t1 - t0 == pytest.approx(period, rel=1e-9)

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

    def test_oracle_spot_check(self):
        problem = ODEProblem("selfsimilar", 3.0)
        ours = integrate(problem.rhs, 20.0, 0.5, (0.05, -0.0025), rtol=1e-11, atol=1e-13)
        ref = solve_ivp(
            lambda t, y: list(problem.rhs(t, tuple(y))),
            (20.0, 0.5),
            [0.05, -0.0025],
            method="DOP853",
            rtol=1e-12,
            atol=1e-14,
        )
        assert ours.y_end[0] == pytest.approx(ref.y[0, -1], rel=1e-7, abs=1e-12)


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
