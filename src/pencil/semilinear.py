"""Solvers for the singularly perturbed stationary and self-similar profiles.

* stationary:    (1+z^2) f'' + 2z f' + |f|^(p-1) f / (1+z^2) = 0 on [0, Z],
  shot from z = 0 against an inverse-decay or unit-plateau far field;
* self-similar:  s^2 f'' + 2s f' + |f|^(p-1) f / s^2 = 0, started on the 1/s
  branch; its zero count grows without bound toward the singular origin.

Both are the autonomous oscillator f'' + |f|^(p-1) f = 0 in another variable,
and the solvers integrate only that: in theta = arctan z, z = infinity is the
regular point theta = pi/2, and in t = 1/s every solution is periodic, with
the period fixed by the energy E = f'^2/2 + |f|^(p+1)/(p+1).  The stationary
solver integrates one unit orbit per solve, over a quarter period, and takes
every shot from it by scaling: a W(a^((p-1)/2) theta) is again a solution.
The odd nonlinearity is evaluated as sign(f) |f|^p, exact for non-integer p
as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Sequence

from .ode import find_zeros, integrate

__all__ = [
    "NoProfileFoundError",
    "ODEProblem",
    "ProfileSolution",
    "CrackCurve",
    "linearized_exponents",
    "FAR_FIELD_ROOT",
    "solve_stationary",
    "solve_selfsimilar",
    "crack_curves",
]

STATIONARY = "stationary"
SELFSIMILAR = "selfsimilar"

DEFAULT_Z_END = 50.0
DEFAULT_XI_FAR = 100.0
DEFAULT_XI_MIN = 1e-4
DEFAULT_TOL = 1e-10
# self-similar grid rows kept (about 210 B each); the default xi_min = 1e-4 gives 434,551
MAX_STEPS = 1_000_000

FAR_FIELD_ROOT = {"decay_inverse": -1, "plateau_one": 0}


class NoProfileFoundError(RuntimeError):
    """The bisection bracket search found no sign change in the scanned range."""


@dataclass(frozen=True)
class ODEProblem:
    """Profile equation in its original variable (z or s) with its far-field and
    symmetry conditions; the tests integrate `rhs` against scipy, the solvers
    integrate the oscillator form instead."""

    kind: str
    p: float
    symmetry: str = "none"
    far_condition: str = "decay_inverse"

    def __post_init__(self):
        if self.kind not in (STATIONARY, SELFSIMILAR):
            raise ValueError("kind must be 'stationary' or 'selfsimilar'")
        if self.p <= 1:
            raise ValueError("the exponent p must exceed 1")

    def rhs(self, t: float, y: tuple[float, ...]) -> tuple[float, float]:
        f, df = y
        nonlinear = math.copysign(abs(f) ** self.p, f) if f != 0.0 else 0.0
        if self.kind == STATIONARY:
            w = 1.0 + t * t
            return (df, -(2.0 * t * df + nonlinear / w) / w)
        t2 = t * t
        return (df, -(2.0 * t * df + nonlinear / t2) / t2)


@dataclass(frozen=True)
class ProfileSolution:
    """A numerically resolved profile with its zeros and far-field constant."""

    kind: str
    p: float
    symmetry: str
    far_condition: str
    grid: tuple[float, ...]
    values: tuple[float, ...]
    derivative_values: tuple[float, ...]
    shot_parameter: float
    zeros: tuple[float, ...]
    asymptotic_constant: float
    truncated: bool = False


def linearized_exponents(kind: str) -> tuple[int, int]:
    """Characteristic roots of the far-field linearization (both equations
    share the indicial equation m^2 + m = 0)."""
    if kind not in (STATIONARY, SELFSIMILAR):
        raise ValueError("kind must be 'stationary' or 'selfsimilar'")
    return (-1, 0)


def _oscillator(p: float, t: float, y: tuple[float, ...]) -> tuple[float, float]:
    """Right-hand side of f'' + |f|^(p-1) f = 0 as a first-order system."""
    f, df = y
    return (df, -math.copysign(abs(f) ** p, f))


def _period(p: float, y: tuple[float, float]) -> float:
    """Period 4 C_p a^((1-p)/2) of the oscillator orbit through y, with
    C_p = sqrt((p+1)/2) B(1/(p+1), 1/2) / (p+1) and amplitude a = ((p+1) E)^(1/(p+1))."""
    f, df = y
    q = 1 / (p + 1)
    a = ((p + 1) * df * df / 2 + abs(f) ** (p + 1)) ** q
    c_p = math.sqrt((p + 1) / 2) * math.exp(math.lgamma(q) + math.lgamma(0.5) - math.lgamma(q + 0.5)) * q
    return 4 * c_p * a ** ((1 - p) / 2) if a > 0 else math.inf  # a = 0: E underflowed


def _unit_orbit(p: float, symmetric: bool, tol: float):
    """Quarter period K, phase function x -> (W(x), W'(x)) and truncation flag
    of the unit-amplitude oscillator orbit W, from one integration over [0, K].

    W starts at (1, 0) when `symmetric`, else at (0, sqrt(2/(p+1))); both have
    energy 1/(p+1).  Every real x is reduced modulo the period 4K, and the
    other three quarters are the first one reflected: W(x + 2K) = -W(x), and
    the symmetric orbit is even about 0 and odd about K, the antisymmetric one
    odd about 0 and even about K.
    """
    k = _period(p, (1.0, 0.0)) / 4
    y0 = (1.0, 0.0) if symmetric else (0.0, math.sqrt(2 / (p + 1)))
    quarter = integrate(partial(_oscillator, p), 0.0, k, y0, rtol=tol, atol=tol * 1e-2)

    def orbit(x: float) -> tuple[float, float]:
        q, u = divmod(x % (4 * k), k)
        q = int(q) % 4  # x % (4 k) rounds up to 4 k only for tiny negative x
        f, df = quarter.interpolate(k - u if q & 1 else u)  # odd quarters run backward
        sign = -1.0 if (q + symmetric) & 2 else 1.0
        return sign * f, (-sign if q & 1 else sign) * df

    return k, orbit, quarter.truncated


def _scan_bracket(above, s_lo: float, s_hi: float, n_scan: int) -> tuple[float, float, bool]:
    """First sign change of `above` on a log grid from s_lo, as (lo, hi, above(lo))."""
    lo, lo_above = s_lo, above(s_lo)
    for i in range(1, n_scan):
        s = s_lo * (s_hi / s_lo) ** (i / (n_scan - 1))
        if above(s) != lo_above:
            return lo, s, lo_above
        lo = s
    raise NoProfileFoundError(f"no classifier sign change for initial values in [{s_lo:g}, {s_hi:g}]")


def solve_stationary(
    p: float,
    symmetry: str = "symmetric",
    far: str = "decay_inverse",
    tol: float = DEFAULT_TOL,
    z_end: float = DEFAULT_Z_END,
    s_range: tuple[float, float] = (1e-3, 1e3),
    n_scan: int = 25,
    n_output: int = 1201,
) -> ProfileSolution:
    """Shooting/bisection solution of the stationary profile equation, with one
    unit orbit per solve and every shot by scaling.

    In theta = arctan z the equation is the oscillator, and its scaling
    symmetry makes every shot s a scaled copy of one unit orbit W (see
    `_unit_orbit`): f(theta) = a W(omega theta) with omega = a^((p-1)/2) and
    amplitude a = s (symmetric, f(0) = s) or a^(p+1) = (p+1) s^2 / 2
    (antisymmetric, f'(0) = s).  The target sits at theta_end: pi/2 for
    `decay_inverse` (f(pi/2) = 0), arctan(z_end) for `plateau_one`
    (f(z_end) = 1).  The initial value is scanned upward over s_range until its
    class first changes, then bisected: f(theta_end) > 1 for a plateau, one
    lookup of W; f > 0 on all of (0, pi/2] for decay, which holds exactly when
    the phase omega pi/2 lies below the first zero of W after 0 (monotone in s,
    as the first zero moves inward when s grows).  A decay profile is taken on
    the positive side and its constant c in f ~ c/z is -f_theta(pi/2).  The
    zeros are the zero phases of W below omega theta_end.  The output grid is
    uniform in z over [0, z_end], with f_z = f_theta / (1 + z^2).
    """
    if p <= 1:
        raise ValueError("the exponent p must exceed 1")
    if symmetry not in ("symmetric", "antisymmetric"):
        raise ValueError("symmetry must be 'symmetric' or 'antisymmetric'")
    if far not in FAR_FIELD_ROOT:
        raise ValueError("far must be 'decay_inverse' or 'plateau_one'")
    if not 0 < z_end < math.inf:
        raise ValueError("z_end must be positive and finite")
    symmetric = symmetry == "symmetric"
    decay = far == "decay_inverse"
    theta_end = math.pi / 2 if decay else math.atan(z_end)
    k, orbit, truncated = _unit_orbit(p, symmetric, tol)
    first = k if symmetric else 0.0  # W vanishes at the phases first + 2 k j, j >= 0
    first_zero = k if symmetric else 2 * k  # the first of them after 0

    def scaling(s: float) -> tuple[float, float]:
        a = s if symmetric else math.copysign(((p + 1) * s * s / 2) ** (1 / (p + 1)), s)
        return a, abs(a) ** ((p - 1) / 2)

    def above(s: float) -> bool:
        a, omega = scaling(s)
        if decay:
            return a > 0 and omega * theta_end < first_zero
        return a * orbit(omega * theta_end)[0] > 1

    lo, hi, lo_above = _scan_bracket(above, s_range[0], s_range[1], n_scan)
    shot_tol = max(tol, 1e-12) * max(1.0, min(lo, hi))
    while abs(hi - lo) > shot_tol:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if above(mid) == lo_above else (lo, mid)

    shot = lo if decay else 0.5 * (lo + hi)
    a, omega = scaling(shot)
    grid = tuple(z_end * i / (n_output - 1) for i in range(n_output))
    states = [orbit(omega * math.atan(z)) for z in grid]
    w_end, dw_end = orbit(omega * theta_end)
    n_zeros = max(0, math.ceil((omega * theta_end - first) / (2 * k)))
    return ProfileSolution(
        kind=STATIONARY,
        p=p,
        symmetry=symmetry,
        far_condition=far,
        grid=grid,
        values=tuple(a * w for w, _ in states),
        derivative_values=tuple(a * omega * dw / (1 + z * z) for z, (_, dw) in zip(grid, states)),
        shot_parameter=shot,
        zeros=tuple(math.tan((first + 2 * k * j) / omega) for j in range(n_zeros)),
        asymptotic_constant=-a * omega * dw_end if decay else a * w_end,
        truncated=truncated,
    )


def solve_selfsimilar(
    p: float,
    amplitude: float,
    xi_far: float = DEFAULT_XI_FAR,
    xi_min: float = DEFAULT_XI_MIN,
    tol: float = DEFAULT_TOL,
) -> ProfileSolution:
    """Self-similar profile on [xi_min, xi_far] from its far-field decay.

    In t = 1/xi the profile is a periodic orbit of the oscillator, started on
    the 1/xi branch at t0 = 1/xi_far with g = A t0, g' = A.  One integration
    over at most one period gives the first zero; the others follow every
    half period out to t = 1/xi_min, and the grid is that period repeated.
    Past MAX_STEPS grid rows the grid and the zeros stop, with `truncated` set.
    """
    if p <= 1:
        raise ValueError("the exponent p must exceed 1")
    if not (xi_far > xi_min > 0):
        raise ValueError("need xi_far > xi_min > 0")
    if amplitude == 0.0:
        grid = (xi_min, xi_far)
        return ProfileSolution(
            kind=SELFSIMILAR,
            p=p,
            symmetry="none",
            far_condition="decay_inverse",
            grid=grid,
            values=(0.0, 0.0),
            derivative_values=(0.0, 0.0),
            shot_parameter=0.0,
            zeros=(),
            asymptotic_constant=0.0,
            truncated=False,
        )
    t0, t_stop = 1.0 / xi_far, 1.0 / xi_min
    y0 = (amplitude * t0, amplitude)
    period = min(_period(p, y0), 2 * (t_stop - t0))  # a longer period repeats past t_stop only
    result = integrate(partial(_oscillator, p), t0, min(t0 + period, t_stop), y0, rtol=tol, atol=tol * 1e-2)
    if result.truncated:
        t_stop = result.t_end

    rows, k = [], 0
    while len(rows) <= MAX_STEPS and t0 + k * period < t_stop:
        shift = k * period
        rows += [(t + shift, y) for t, y in zip(result.ts[:-1], result.ys[:-1]) if t + shift < t_stop]
        k += 1
    del rows[MAX_STEPS + 1 :]
    truncated = result.truncated or len(rows) > MAX_STEPS
    if not truncated:
        rows.append((t_stop, result.interpolate(t0 + (t_stop - t0) % period)))
    first = find_zeros(result)[:1]
    half = period / 2
    n_zeros = math.floor((rows[-1][0] - first[0]) / half) + 1 if first else 0
    zeros = [first[0] + k * half for k in range(n_zeros)]

    rows.reverse()
    grid = [1.0 / t for t, _ in rows]
    grid[-1] = xi_far
    if not truncated:
        grid[0] = xi_min
    values = [y[0] for _, y in rows]
    tail = [x * f for x, f in zip(grid, values) if x >= xi_far / 2]
    return ProfileSolution(
        kind=SELFSIMILAR,
        p=p,
        symmetry="none",
        far_condition="decay_inverse",
        grid=tuple(grid),
        values=tuple(values),
        derivative_values=tuple(-t * t * y[1] for t, y in rows),
        shot_parameter=amplitude,
        zeros=tuple(1.0 / z for z in reversed(zeros)),
        asymptotic_constant=sum(tail) / len(tail),
        truncated=truncated,
    )


@dataclass(frozen=True)
class CrackCurve:
    """One log-perturbed zero curve x(y) emitted by a profile zero."""

    xi: float
    points: tuple[tuple[float, float], ...]


def crack_curves(
    sol: ProfileSolution, alpha: float, p: float, y_grid: Sequence[float]
) -> list[CrackCurve]:
    """Zero curves x_k(y) = xi_k (-y) |ln(-y)|^beta with beta = alpha (p-1)/2."""
    if sol.kind != SELFSIMILAR:
        raise ValueError("crack curves are built from a self-similar profile")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if p <= 1:
        raise ValueError("the exponent p must exceed 1")
    ys = [float(y) for y in y_grid]
    if any(y >= 0 for y in ys):
        raise ValueError("y grid must be negative")
    if any(y == -1.0 for y in ys):
        raise ValueError("y = -1 makes the logarithm vanish; exclude it")
    beta = alpha * (p - 1) / 2.0
    out = []
    for xi in sol.zeros:
        pts = tuple((y, xi * (-y) * abs(math.log(-y)) ** beta) for y in ys)
        out.append(CrackCurve(xi=xi, points=pts))
    return out
