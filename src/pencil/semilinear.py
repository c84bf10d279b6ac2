"""Solvers for the singularly perturbed stationary and self-similar profiles.

* stationary:    (1+z^2) f'' + 2z f' + |f|^(p-1) f / (1+z^2) = 0 on [0, Z],
  shot from z = 0 against an inverse-decay or unit-plateau far field;
* self-similar:  s^2 f'' + 2s f' + |f|^(p-1) f / s^2 = 0, started on the 1/s
  branch; its zero count grows without bound toward the singular origin.

Both are the autonomous oscillator f'' + |f|^(p-1) f = 0 in another variable,
and the solvers integrate only that: in theta = arctan z, z = infinity is the
regular point theta = pi/2, and in t = 1/s every solution is periodic, with
the period fixed by the energy E = f'^2/2 + |f|^(p+1)/(p+1).  Its scaling
symmetry makes a W(a^((p-1)/2) x) a solution for every unit orbit W, so each
solver integrates one unit orbit per solve, over a quarter period, and takes
the profile from it by scaling: every stationary shot, and the self-similar
profile with its zeros and grid.  That integration is `pencil.ode.integrate`,
the Dormand-Prince pair written for this oscillator alone, which evaluates
the odd nonlinearity as sign(f) |f|^p, exact for non-integer p as well.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

from .ode import integrate

# not called here; perfbench/tracing.py wraps it under this name on this module
from .ode import find_zeros  # noqa: F401

__all__ = [
    "NoProfileFoundError",
    "ProfileSolution",
    "CrackCurve",
    "FAR_FIELD_ROOT",
    "solve_stationary",
    "solve_selfsimilar",
    "selfsimilar_zeros",
    "crack_curves",
    "curves_from_zeros",
]

STATIONARY = "stationary"
SELFSIMILAR = "selfsimilar"

DEFAULT_Z_END = 50.0
DEFAULT_XI_FAR = 100.0
DEFAULT_XI_MIN = 1e-4
DEFAULT_TOL = 1e-10
# initial values scanned over s_range, and rows of the uniform output grid in z
N_SCAN = 25
N_OUTPUT = 1201
# self-similar grid rows and stationary zeros kept (about 150 B a row at
# peak); the default xi_min = 1e-4 gives 436,155 rows
MAX_STEPS = 1_000_000

FAR_FIELD_ROOT = {"decay_inverse": -1, "plateau_one": 0}
# a plateau shot must meet |f(z_end) - 1| < PLATEAU_TOL
PLATEAU_TOL = 1e-3


class NoProfileFoundError(RuntimeError):
    """The bracket search found no sign change in the scanned range, or no
    float shot in it meets the plateau."""


@dataclass(frozen=True)
class ProfileSolution:
    """A numerically resolved profile with its zeros and far-field constant.

    `asymptotic_constant` is c in f ~ c/z for a stationary decay profile,
    f(z_end) for a plateau one, and for a self-similar one g'(0), the 1/xi
    coefficient of its far field f = g(0) + g'(0)/xi + ... in t = 1/xi.
    """

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


def _quarter_period(p: float) -> float:
    """Quarter period K_p = sqrt((p+1)/2) B(1/(p+1), 1/2) / (p+1) of the
    unit-amplitude orbit; the orbit of amplitude a takes K_p a^((1-p)/2)."""
    q = 1 / (p + 1)
    return math.sqrt((p + 1) / 2) * math.exp(math.lgamma(q) + math.lgamma(0.5) - math.lgamma(q + 0.5)) * q


def _check_exponent_and_tol(p: float, tol: float) -> None:
    # NaN fails both comparisons: unchecked, it walks the integrator's step budget
    if not 1 < p < math.inf:
        raise ValueError(f"the exponent p must be finite and exceed 1, got p={p!r}")
    # below the float resolution the step count grows without bound (a DP5
    # quarter orbit takes about 1,000 steps at eps and over a million at 1e-23)
    if not sys.float_info.epsilon <= tol < math.inf:
        raise ValueError(f"tol must be finite and at least the float epsilon {sys.float_info.epsilon!r}, got {tol!r}")


def _unit_orbit(p: float, symmetric: bool, tol: float):
    """Quarter period K, phase function x -> (W(x), W'(x)) and truncation flag
    of the unit-amplitude oscillator orbit W, from one integration over [0, K].

    W starts at (1, 0) when `symmetric`, else at (0, sqrt(2/(p+1))); both have
    energy 1/(p+1).  Every real x is reduced modulo the period 4K, and the
    other three quarters are the first one reflected: W(x + 2K) = -W(x), and
    the symmetric orbit is even about 0 and odd about K, the antisymmetric one
    odd about 0 and even about K.  `orbit.states(xs)` gives the states at many
    phases from one dense-output pass over the quarter, and orbit(x) is that
    at one phase.  The phase function carries the quarter's integration as
    `orbit.quarter`, for callers that map its nodes themselves.
    """
    k = _quarter_period(p)
    y0 = (1.0, 0.0) if symmetric else (0.0, math.sqrt(2 / (p + 1)))
    quarter = integrate(p, k, y0, rtol=tol, atol=tol * 1e-2)

    def states(xs: Iterable[float]) -> list[tuple[float, float]]:
        quarters, points = [], []
        for x in xs:
            q, u = divmod(x % (4 * k), k)
            q = int(q) % 4  # x % (4 k) rounds up to 4 k only for tiny negative x
            quarters.append(q)
            points.append(k - u if q & 1 else u)  # odd quarters run backward
        out = []
        for q, (f, df) in zip(quarters, quarter.interpolate_all(points)):
            sign = -1.0 if (q + symmetric) & 2 else 1.0
            out.append((sign * f, (-sign if q & 1 else sign) * df))
        return out

    def orbit(x: float) -> tuple[float, float]:
        return states((x,))[0]

    orbit.states = states
    orbit.quarter = quarter
    return k, orbit, quarter.truncated


def _start_phase(p: float, quarter, value: float, slope: float) -> float:
    """The phase x of the antisymmetric unit orbit V, on its rising quarter,
    where (V, V') = (value, slope), by safeguarded Newton on the dense output.

    V rises and V' falls over the quarter.  Newton runs on V while its slope
    V' is the larger one, else on V', whose slope is -V^p: near the turning
    point V' vanishes and V no longer fixes the phase well.  The quarter's
    nodes bracket the root and give the first iterate by linear interpolation.
    """
    on_value = slope >= value**p
    key, target = (lambda y: y[0], value) if on_value else (lambda y: -y[1], -slope)
    ts, ys = quarter.ts, quarter.ys
    i = min(max(bisect_left(ys, target, key=key), 1), len(ts) - 1)
    lo, hi = ts[i - 1], ts[i]
    r_lo, r_hi = key(ys[i - 1]) - target, key(ys[i]) - target
    x = lo - r_lo * (hi - lo) / (r_hi - r_lo) if r_hi > r_lo else lo
    for _ in range(60):
        f, df = quarter.interpolate(x)
        r, dr = (f - value, df) if on_value else (slope - df, abs(f) ** p)
        if r == 0.0:
            break
        lo, hi = (lo, x) if r > 0 else (x, hi)
        x_new = x - r / dr if dr > 0 else lo
        if not lo < x_new < hi:  # Newton left the bracket: bisect
            x_new = 0.5 * (lo + hi)
        if abs(x_new - x) <= 1e-15 * x:
            return x_new
        x = x_new
    return x


def _scan_bracket(above, s_lo: float, s_hi: float) -> tuple[float, float, bool]:
    """First sign change of `above` on a log grid from s_lo, as (lo, hi, above(lo))."""
    lo, lo_above = s_lo, above(s_lo)
    for i in range(1, N_SCAN):
        s = s_lo * (s_hi / s_lo) ** (i / (N_SCAN - 1))
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
    as the first zero moves inward when s grows).  Every bracket is bisected
    until its midpoint is one of its ends.  A plateau shot with
    |f(z_end) - 1| >= PLATEAU_TOL raises NoProfileFoundError before the grid is
    built, and its constant is f(z_end).  The decay test is closed-form in s,
    so a decay shot is the last float on the positive side, whatever `tol`, and
    its constant c in f ~ c/z is |f_theta(pi/2)| = a omega sqrt(2/(p+1)), from
    the energy at a zero of W.  `tol` is the orbit's integration tolerance
    alone.  The zeros are the zero phases of W below omega theta_end, whose
    count grows like omega: past MAX_STEPS of them they stop, with `truncated`
    set.  The output grid is uniform in z over [0, z_end], with
    f_z = f_theta / (1 + z^2).
    """
    _check_exponent_and_tol(p, tol)
    if symmetry not in ("symmetric", "antisymmetric"):
        raise ValueError("symmetry must be 'symmetric' or 'antisymmetric'")
    if far not in FAR_FIELD_ROOT:
        raise ValueError("far must be 'decay_inverse' or 'plateau_one'")
    if not 0 < z_end < math.inf:
        raise ValueError("z_end must be positive and finite")
    s_lo, s_hi = s_range
    # the scan is geometric, so both ends share a sign; a negative range scans -|s|
    if not (0 < s_lo < s_hi < math.inf or -math.inf < s_lo < s_hi < 0):
        raise ValueError(f"s_range must be finite, of one sign and increasing, got {s_range!r}")
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

    lo, hi, lo_above = _scan_bracket(above, s_lo, s_hi)
    # every shot bisects to float resolution: f(z_end) = a W(omega theta_end)
    # moves by about a omega theta_end per unit relative change of s (s^2
    # theta_end for symmetric p = 3), so no tolerance in s holds a plateau
    # once |s| is large, and the decay class is a closed-form test of s
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if above(mid) == lo_above else (lo, mid)

    shot = lo if decay else mid
    a, omega = scaling(shot)
    if decay:
        # f_theta(pi/2) is a omega W' at a zero of W, where the unit orbit's
        # energy 1/(p+1) is all kinetic
        constant = a * omega * math.sqrt(2 / (p + 1))
    else:
        constant = a * orbit(omega * theta_end)[0]
        if not abs(constant - 1) < PLATEAU_TOL:
            # checked before the grid and the zeros, whose count grows like omega
            raise NoProfileFoundError(
                f"no float shot in [{s_lo:g}, {s_hi:g}] meets the plateau: the nearest, s={shot!r},"
                f" gives f(z_end)={constant!r}, not within {PLATEAU_TOL:g} of 1"
            )
    grid = tuple(z_end * i / (N_OUTPUT - 1) for i in range(N_OUTPUT))
    states = orbit.states(omega * math.atan(z) for z in grid)
    n_zeros = max(0, math.ceil((omega * theta_end - first) / (2 * k)))
    truncated = truncated or n_zeros > MAX_STEPS
    return ProfileSolution(
        kind=STATIONARY,
        p=p,
        symmetry=symmetry,
        far_condition=far,
        grid=grid,
        values=tuple(a * w for w, _ in states),
        derivative_values=tuple(a * omega * dw / (1 + z * z) for z, (_, dw) in zip(grid, states)),
        shot_parameter=shot,
        zeros=tuple(math.tan((first + 2 * k * j) / omega) for j in range(min(n_zeros, MAX_STEPS))),
        asymptotic_constant=constant,
        truncated=truncated,
    )


class _SelfSimilarOrbit(NamedTuple):
    """A nonzero self-similar profile g(t) = a V(phi0 + omega (t - t0)) in t = 1/xi."""

    k: float
    orbit: Callable[[float], tuple[float, float]]
    truncated: bool
    a: float
    omega: float
    phi0: float
    t0: float
    t_stop: float


def _selfsimilar_orbit(
    p: float, amplitude: float, xi_far: float, xi_min: float, tol: float
) -> _SelfSimilarOrbit | None:
    """The head of every self-similar solve: the inputs checked, then the
    profile's orbit, or None for A = 0.

    t_stop is 1/xi_min, clipped to the part of the quarter integrated when
    the unit orbit's quarter is `truncated`.
    """
    _check_exponent_and_tol(p, tol)
    if not math.isfinite(amplitude):
        raise ValueError(f"the amplitude A must be finite, got A={amplitude!r}")
    if not (math.inf > xi_far > xi_min > 0):
        raise ValueError("need xi_far > xi_min > 0, both finite")
    if amplitude == 0.0:
        return None
    t0, t_stop = 1.0 / xi_far, 1.0 / xi_min
    k, orbit, truncated = _unit_orbit(p, False, tol)
    try:
        # |A|^(2/(p+1)) taken out first, so a tiny A does not underflow the energy
        a = math.copysign(
            abs(amplitude) ** (2 / (p + 1))
            * ((p + 1) / 2 + abs(amplitude) ** (p - 1) * t0 ** (p + 1)) ** (1 / (p + 1)),
            amplitude,
        )
        omega = abs(a) ** ((p - 1) / 2)
    except OverflowError:
        omega = math.inf
    if not t0 + k / omega > t0:  # also an overflowed or NaN omega
        raise ValueError(
            f"the amplitude A={amplitude!r} is too large for p={p!r}: a quarter period"
            " of the profile in t = 1/xi is below the float resolution of t"
        )
    ratio = amplitude / a
    phi0 = _start_phase(p, orbit.quarter, min(ratio * t0, 1.0), ratio / omega)
    if truncated:  # the quarter stops short of K: keep to the part integrated
        t_stop = min(t_stop, t0 + (orbit.quarter.ts[-1] - phi0) / omega)
    return _SelfSimilarOrbit(k, orbit, truncated, a, omega, phi0, t0, t_stop)


def _zeros(o: _SelfSimilarOrbit, t_last: float, first: int | None) -> tuple[int, tuple[float, ...]]:
    """The number of zeros t0 + (2 j K - phi0) / omega, j >= 1, up to t_last,
    and xi of the first `first` of them in ascending xi (all without it),
    j = count, count - 1, ...; OverflowError when the count is not finite.

    The count is the floor of the phase taken exactly from its float
    parameters, over the integers: the float phase rounds by more than its
    distance to the next multiple of 2 K from about 1e15 zeros on
    (3207009758150990 for the exact 3207009758150989 at p = 3, A = 1,
    xi_min = 1e-16)."""
    # each float is n / d exactly: phase / (2 K) over one common denominator
    (nw, dw), (nt, dt), (n0, d0), (nf, df), (nk, dk) = (
        x.as_integer_ratio() for x in (o.omega, t_last, o.t0, o.phi0, o.k)
    )
    count = (nw * (nt * d0 - n0 * dt) * df + nf * dw * dt * d0) * dk // (2 * nk * dw * dt * d0 * df)
    last = 0 if first is None else max(count - first, 0)
    return count, tuple(1.0 / (o.t0 + (2 * o.k * j - o.phi0) / o.omega) for j in range(count, last, -1))


def solve_selfsimilar(
    p: float,
    amplitude: float,
    xi_far: float = DEFAULT_XI_FAR,
    xi_min: float = DEFAULT_XI_MIN,
    tol: float = DEFAULT_TOL,
) -> ProfileSolution:
    """Self-similar profile on [xi_min, xi_far] from its far-field decay, with
    one unit orbit per solve.

    In t = 1/xi the profile is an orbit of the oscillator, started on the 1/xi
    branch at t0 = 1/xi_far with g = A t0, g' = A.  So it is a scaled,
    phase-shifted copy of the antisymmetric unit orbit V (see `_unit_orbit`):
    g(t) = a V(phi0 + omega (t - t0)) with omega = |a|^((p-1)/2), the signed
    amplitude a fixed by the energy, |a|^(p+1) = (p+1) A^2/2 + |A t0|^(p+1),
    and the start phase phi0 in [0, K) by V(phi0) = A t0 / a.  The zeros are
    t0 + (2 j K - phi0) / omega, j >= 1, in closed form, and the grid is the
    quarter's nodes reflected onto every quarter out to t = 1/xi_min.  Past
    MAX_STEPS grid rows the grid and the zeros stop, with `truncated` set;
    `selfsimilar_zeros` counts the zeros without the rows.  The orbit continued
    to t = 0 gives the far field f = g(0) + g'(0)/xi + ..., and the constant is
    g'(0) = a omega V'(phi0 - omega t0).  `tol` is the unit orbit's integration
    tolerance.
    """
    o = _selfsimilar_orbit(p, amplitude, xi_far, xi_min, tol)
    if o is None:
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
    k, orbit, truncated, a, omega, phi0, t0, t_stop = o
    us, ws = orbit.quarter.ts, orbit.quarter.ys

    # each quarter runs over n nodes, excluding its end, the next one's start
    n = len(us) - 1
    forward = (
        [u / omega for u in us[:n]],
        [a * w for w, _ in ws[:n]],
        [a * omega * dw for _, dw in ws[:n]],
    )
    backward = (
        [(k - u) / omega for u in us[n:0:-1]],
        [a * w for w, _ in ws[n:0:-1]],
        [-a * omega * dw for _, dw in ws[n:0:-1]],
    )
    # the second half period is the first one negated
    quarters = (forward, backward) + tuple(
        (offsets, [-f for f in fs], [-df for df in dfs]) for offsets, fs, dfs in (forward, backward)
    )
    # ascending t from the exact start row (A t0, A); xi-derivatives are -t^2 g'
    grid, values, derivatives = [xi_far], [amplitude * t0], [-t0 * t0 * amplitude]
    t_last, q = t0, 0
    while len(values) <= MAX_STEPS:
        base = t0 + (q * k - phi0) / omega
        if base >= t_stop:
            break
        offsets, fs, dfs = quarters[q % 4]
        ts = [base + u for u in offsets]
        lo, hi = bisect_right(ts, t0), bisect_left(ts, t_stop)
        ts = ts[lo:hi]
        grid += [1.0 / t for t in ts]
        values += fs[lo:hi]
        derivatives += [-t * t * df for t, df in zip(ts, dfs[lo:hi])]
        t_last = ts[-1] if ts else t_last
        q += 1
    extra = len(values) - (MAX_STEPS + 1)
    if extra > 0:  # all from the last quarter, which started within the budget
        del grid[-extra:], values[-extra:], derivatives[-extra:]
        t_last = ts[-extra - 1]
    truncated = truncated or extra >= 0
    if not truncated:
        w, dw = orbit(phi0 + omega * (t_stop - t0))
        grid.append(xi_min)
        values.append(a * w)
        derivatives.append(-t_stop * t_stop * a * omega * dw)
        t_last = t_stop

    grid.reverse()
    values.reverse()
    derivatives.reverse()
    return ProfileSolution(
        kind=SELFSIMILAR,
        p=p,
        symmetry="none",
        far_condition="decay_inverse",
        grid=tuple(grid),
        values=tuple(values),
        derivative_values=tuple(derivatives),
        shot_parameter=amplitude,
        zeros=_zeros(o, t_last, None)[1],
        asymptotic_constant=a * omega * orbit(phi0 - omega * t0)[1],
        truncated=truncated,
    )


def selfsimilar_zeros(
    p: float,
    amplitude: float,
    first: int,
    xi_far: float = DEFAULT_XI_FAR,
    xi_min: float = DEFAULT_XI_MIN,
    tol: float = DEFAULT_TOL,
) -> tuple[int, tuple[float, ...]]:
    """The number of zeros of the self-similar profile on [xi_min, xi_far],
    and the first `first` of them in ascending xi, with no grid row built.

    The zeros are bit for bit those of `solve_selfsimilar` wherever its grid
    is not truncated; the count is the closed form's at any xi_min, and the
    work is O(first).  The inputs are checked as `solve_selfsimilar` checks
    them.  A negative `first` raises ValueError, and so does an xi_min
    so small that the innermost two zeros are not distinct floats, whatever
    `first` is: near t = 1/xi_min the half period 2 K / omega falls below the
    float resolution of t.
    """
    if first < 0:
        raise ValueError(f"first must be >= 0, got {first}")
    o = _selfsimilar_orbit(p, amplitude, xi_far, xi_min, tol)
    if o is None:
        return 0, ()
    too_small = (
        f"xi_min={xi_min!r} is too small for p={p!r}, A={amplitude!r}: the profile's zeros near it"
        " are not distinct floats"
    )
    try:
        count, zeros = _zeros(o, o.t_stop, max(first, 2))
    except OverflowError:  # t = 1/xi_min is infinite, or a zero's index is past the float range
        raise ValueError(too_small) from None
    # the zeros ascend in xi, so the innermost pair comes first and is the closest
    if len(set(zeros)) < len(zeros):
        raise ValueError(too_small)
    return count, zeros[:first]


@dataclass(frozen=True)
class CrackCurve:
    """One log-perturbed zero curve x(y) emitted by a profile zero."""

    xi: float
    points: tuple[tuple[float, float], ...]


def crack_curves(sol: ProfileSolution, alpha: float, p: float, y_grid: Sequence[float]) -> list[CrackCurve]:
    """Zero curves of a self-similar profile: `curves_from_zeros` on every zero."""
    if sol.kind != SELFSIMILAR:
        raise ValueError("crack curves are built from a self-similar profile")
    return curves_from_zeros(sol.zeros, alpha, p, y_grid)


def curves_from_zeros(zeros: Sequence[float], alpha: float, p: float, y_grid: Sequence[float]) -> list[CrackCurve]:
    """Zero curves x_k(y) = xi_k (-y) |ln(-y)|^beta with beta = alpha (p-1)/2,
    one for each profile zero xi_k; their points must be finite floats."""
    if not 0 < alpha < math.inf:
        raise ValueError(f"alpha must be positive and finite, got alpha={alpha!r}")
    if not 1 < p < math.inf:
        raise ValueError(f"the exponent p must be finite and exceed 1, got p={p!r}")
    ys = [float(y) for y in y_grid]
    if any(y >= 0 for y in ys):
        raise ValueError("y grid must be negative")
    if any(y == -1.0 for y in ys):
        raise ValueError("y = -1 makes the logarithm vanish; exclude it")
    beta = alpha * (p - 1) / 2.0
    if not math.isfinite(beta):
        raise ValueError(f"beta = alpha (p-1)/2 is not finite for alpha={alpha!r}, p={p!r}")
    top = max(zeros, default=0.0)
    weights = []
    for y in ys:
        try:
            w = abs(math.log(-y)) ** beta
        except OverflowError:
            w = math.inf
        # rounding is monotone, so the largest zero gives each y its largest
        # point; with no zeros, an infinite weight makes 0 * inf = NaN
        if not math.isfinite(top * (-y) * w):
            raise ValueError(
                f"the crack-curve weight |ln(-y)|^beta or its point is not a finite float at y={y!r}, beta={beta!r}"
            )
        weights.append(w)
    return [
        CrackCurve(xi=xi, points=tuple((y, xi * (-y) * w) for y, w in zip(ys, weights)))
        for xi in zeros
    ]
