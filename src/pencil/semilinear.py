"""Shooting and inward-integration solvers for the singularly perturbed profiles.

Two ordinary differential equations are covered:

* stationary:    (1+z^2) f'' + 2z f' + |f|^(p-1) f / (1+z^2) = 0 on [0, Z],
  solved by shooting from z = 0 and bisecting the initial value against a
  far-field classifier (inverse decay or unit plateau);
* self-similar:  s^2 f'' + 2s f' + |f|^(p-1) f / s^2 = 0, integrated inward
  from a far-field amplitude; the solution oscillates without bound in zero
  count as the singular origin is approached.

The odd nonlinearity is evaluated as sign(f) |f|^p so reflection symmetry is
exact for non-integer p as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .ode import IntegrationResult, find_zeros, integrate

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

FAR_FIELD_ROOT = {"decay_inverse": -1, "plateau_one": 0}


class NoProfileFoundError(RuntimeError):
    """The bisection bracket search found no sign change in the scanned range."""


@dataclass(frozen=True)
class ODEProblem:
    """Profile equation selector with its far-field and symmetry conditions."""

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


def _initial_state(symmetry: str, s: float) -> tuple[float, float]:
    if symmetry == "symmetric":
        return (s, 0.0)
    if symmetry == "antisymmetric":
        return (0.0, s)
    raise ValueError("symmetry must be 'symmetric' or 'antisymmetric'")


def _crosses_zero(result: IntegrationResult) -> bool:
    values = [y[0] for y in result.ys]
    # the antisymmetric shot starts exactly at zero; only interior behaviour counts
    for v in values[1:]:
        if v <= 0.0:
            return True
    return False


def _plateau_estimate(result: IntegrationResult) -> float:
    """Far-field constant c0 of f ~ c0 + c1/z, read off as d(z f)/dz at the cut.

    Classifying on |f| directly is wrong here: the finite-window threshold
    would be the profile with f(cut) = 0, not the 1/z branch.  On the true
    decaying branch this estimate vanishes.
    """
    z = result.t_end
    f, df = result.y_end
    return f + z * df


def _scan_bracket(classify, s_lo: float, s_hi: float, n_scan: int) -> tuple[float, float]:
    grid = [s_lo * (s_hi / s_lo) ** (i / (n_scan - 1)) for i in range(n_scan)]
    signs = [classify(s) for s in grid]
    for a, b, sa, sb in zip(grid, grid[1:], signs, signs[1:]):
        if sa < 0 <= sb or sb < 0 <= sa:
            return (a, b) if sa < 0 else (b, a)
    raise NoProfileFoundError(
        f"no classifier sign change for initial values in [{s_lo:g}, {s_hi:g}]"
    )


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
    """Shooting/bisection solution of the stationary profile equation.

    For `decay_inverse` the separating initial value between profiles that
    plateau above zero and profiles that cross zero is bracketed and bisected;
    the returned profile sits on the non-crossing side.  For `plateau_one`
    the plateau level itself is driven to 1.
    """
    if p <= 1:
        raise ValueError("the exponent p must exceed 1")
    if far not in FAR_FIELD_ROOT:
        raise ValueError("far must be 'decay_inverse' or 'plateau_one'")
    problem = ODEProblem(STATIONARY, p, symmetry, far)

    def shoot(s: float, rtol: float) -> IntegrationResult:
        return integrate(problem.rhs, 0.0, z_end, _initial_state(symmetry, s), rtol=rtol, atol=rtol * 1e-2)

    if far == "decay_inverse":

        def classify(s: float) -> int:
            result = shoot(s, tol)
            if _crosses_zero(result):
                return 1
            return 1 if _plateau_estimate(result) < 0 else -1

    else:

        def classify(s: float) -> int:
            return 1 if shoot(s, tol).y_end[0] - 1.0 > 0 else -1

    lo, hi = _scan_bracket(classify, s_range[0], s_range[1], n_scan)
    shot_tol = max(tol, 1e-12) * max(1.0, min(lo, hi))
    while abs(hi - lo) > shot_tol:
        mid = 0.5 * (lo + hi)
        if classify(mid) < 0:
            lo = mid
        else:
            hi = mid

    shot = lo if far == "decay_inverse" else 0.5 * (lo + hi)
    final = shoot(shot, tol)
    grid = tuple(z_end * i / (n_output - 1) for i in range(n_output))
    states = [final.interpolate(z) for z in grid]
    zeros = tuple(find_zeros(final))
    tail = [(z, fv[0]) for z, fv in zip(grid, states) if z >= z_end / 2]
    if far == "decay_inverse":
        asymptotic = sum(z * f for z, f in tail) / len(tail)
    else:
        asymptotic = final.y_end[0]
    return ProfileSolution(
        kind=STATIONARY,
        p=p,
        symmetry=symmetry,
        far_condition=far,
        grid=grid,
        values=tuple(s[0] for s in states),
        derivative_values=tuple(s[1] for s in states),
        shot_parameter=shot,
        zeros=zeros,
        asymptotic_constant=asymptotic,
        truncated=final.truncated,
    )


def solve_selfsimilar(
    p: float,
    amplitude: float,
    xi_far: float = DEFAULT_XI_FAR,
    xi_min: float = DEFAULT_XI_MIN,
    tol: float = DEFAULT_TOL,
) -> ProfileSolution:
    """Integrate the self-similar profile inward from its far-field decay.

    Starts at xi_far on the 1/xi branch with the given amplitude and records
    every sign change down to xi_min; the singular origin itself is never
    reached.  Step-size underflow returns the partial profile with the
    truncation flag set.
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
    problem = ODEProblem(SELFSIMILAR, p)
    y0 = (amplitude / xi_far, -amplitude / xi_far**2)
    result = integrate(problem.rhs, xi_far, xi_min, y0, rtol=tol, atol=tol * 1e-2)
    zeros = tuple(find_zeros(result))
    ts = result.ts[::-1]
    ys = result.ys[::-1]
    tail = [(t, y[0]) for t, y in zip(ts, ys) if t >= xi_far / 2]
    asymptotic = sum(t * f for t, f in tail) / len(tail)
    return ProfileSolution(
        kind=SELFSIMILAR,
        p=p,
        symmetry="none",
        far_condition="decay_inverse",
        grid=tuple(ts),
        values=tuple(y[0] for y in ys),
        derivative_values=tuple(y[1] for y in ys),
        shot_parameter=amplitude,
        zeros=zeros,
        asymptotic_constant=asymptotic,
        truncated=result.truncated,
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
