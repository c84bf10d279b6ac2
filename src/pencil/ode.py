"""Adaptive Dormand-Prince 5(4) integrator of the oscillator f'' + |f|^(p-1) f = 0.

Both profile equations reduce to this one autonomous oscillator (see
`pencil.semilinear`), so the integrator is written for it alone: the state
(f, f') runs forward from t = 0, each stage is two scalar expressions with the
right-hand side (f', -sign(f) |f|^p) inline, and the dense output is the
standard quartic interpolant of the pair, unrolled over the two components,
so interpolated values carry the same accuracy order as the step error
control.  The tableau and the dense output are those of Dormand & Prince
(J. Comput. Appl. Math. 6, 1980) and of Hairer, Norsett & Wanner, Solving
Ordinary Differential Equations I, section II.6.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

__all__ = ["IntegrationResult", "integrate", "find_zeros", "MAX_STEPS"]

# step budget of one integration; an integration that reaches it is truncated
MAX_STEPS = 5_000_000

# Dormand-Prince 5(4) tableau: stage weights _Asj, solution weights _Bj,
# error weights _Ej and the dense-output rows _Dj, whose entry s multiplies
# stage s in the coefficient of theta^j; the oscillator is autonomous, so the
# stage nodes do not enter.  Zero entries stay in the sums below, and each sum
# starts at 0.0 as sum() does, so every stage adds the same terms in the same
# order as a generic n-component loop over the tableau (`generic_dp5` in
# tests/pencil_oracles.py), and every step, value and coefficient is
# bit-identical to it.
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B2, _B3, _B4, _B5, _B6 = 35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E2, _E3, _E4, _E5, _E6, _E7 = (
    71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40
)
_D11, _D12, _D13, _D14, _D15, _D16, _D17 = 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0
_D21, _D22, _D23, _D24, _D25, _D26, _D27 = (
    -8048581381 / 2820520608,
    0.0,
    131558114200 / 32700410799,
    -1754552775 / 470086768,
    127303824393 / 49829197408,
    -282668133 / 205662961,
    40617522 / 29380423,
)
_D31, _D32, _D33, _D34, _D35, _D36, _D37 = (
    8663915743 / 2820520608,
    0.0,
    -68118460800 / 10900136933,
    14199869525 / 1410260304,
    -318862633887 / 49829197408,
    2019193451 / 616988883,
    -110615467 / 29380423,
)
_D41, _D42, _D43, _D44, _D45, _D46, _D47 = (
    -12715105075 / 11282082432,
    0.0,
    87487479700 / 32700410799,
    -10690763975 / 1880347072,
    701980252875 / 199316789632,
    -1453857185 / 822651844,
    69997945 / 29380423,
)

# steps below this fraction of max(1, |t|) end the integration as truncated
_MIN_REL_STEP = 1e-14
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_SAFETY = 0.9


@dataclass
class IntegrationResult:
    """The accepted steps of one integration: their starts and end in ts, the
    states (f, f') there in ys, and per step (t, h, (f, f'), q), with q the
    dense-output coefficients of theta, ..., theta^4, one (f, f') pair each."""

    ts: list[float]
    ys: list[tuple[float, float]]
    truncated: bool
    nfev: int
    _segments: list[tuple[float, float, tuple[float, float], list[tuple[float, float]]]]

    @property
    def y_end(self) -> tuple[float, float]:
        return self.ys[-1]

    def interpolate(self, t: float) -> tuple[float, float]:
        """Dense-output state (f, f') anywhere inside the covered span."""
        segments = self._segments
        if not segments:
            return self.ys[0]
        # ts holds each accepted segment's start, then the end of the last one
        idx = min(max(bisect_right(self.ts, t) - 1, 0), len(segments) - 1)
        t0, h, (f, df), (q1, q2, q3, q4) = segments[idx]
        theta = (t - t0) / h
        step = h * theta
        # Horner from 0.0, highest power first
        return (
            f + step * ((((0.0 * theta + q4[0]) * theta + q3[0]) * theta + q2[0]) * theta + q1[0]),
            df + step * ((((0.0 * theta + q4[1]) * theta + q3[1]) * theta + q2[1]) * theta + q1[1]),
        )


def _rms(a: float, b: float) -> float:
    """Root mean square of a and b that does not overflow.

    The plain sum of squares is used unless a square or the sum overflows;
    then math.hypot, which rescales, gives the norm.
    """
    try:
        total = a**2 + b**2
    except OverflowError:
        total = math.inf
    if total == math.inf:
        return math.hypot(a, b) / math.sqrt(2)
    return math.sqrt(total / 2)


def _initial_step(p: float, f: float, df: float, k: float, l: float, rtol: float, atol: float, span: float) -> float:
    """First step guess from the state (f, f') and its slope (k, l) = (f', -sign(f) |f|^p),
    after Hairer, Norsett & Wanner, section II.4; the probe slope is not counted in nfev."""
    s_f, s_df = atol + rtol * abs(f), atol + rtol * abs(df)
    d0 = _rms(f / s_f, df / s_df)
    d1 = _rms(k / s_f, l / s_df)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    # the slope at the Euler step (f + h0 k, f' + h0 l)
    u = f + h0 * k
    d2 = _rms((df + h0 * l - k) / s_f, (-math.copysign(abs(u) ** p, u) - l) / s_df) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, span)


def integrate(
    p: float, t1: float, y0: tuple[float, float], rtol: float = 1e-10, atol: float = 1e-12
) -> IntegrationResult:
    """Integrate f'' + |f|^(p-1) f = 0 for the state (f, f') from y0 at t = 0
    forward to a finite t1 > 0.

    Stops early with `truncated=True` when the step size underflows or the
    MAX_STEPS budget runs out; everything integrated up to that point is kept.
    Tolerances must be positive and finite: a NaN step never trips the step
    floor, so a NaN tolerance would walk the whole step budget.  nfev counts
    the slope at the start and six slopes per attempted step.
    """
    # NaN fails the comparison too; an infinite t1 would walk the whole step budget
    if not 0 < t1 < math.inf:
        raise ValueError(f"integration runs forward from t = 0 to a finite t1 > 0, got t1={t1!r}")
    if not (0 < rtol < math.inf and 0 < atol < math.inf):
        raise ValueError(f"tolerances must be positive and finite, got rtol={rtol!r}, atol={atol!r}")
    copysign = math.copysign
    f, df = (float(v) for v in y0)
    y = (f, df)
    # stage s has the slope (k_s, l_s): k_s is the f' of its stage state, l_s
    # the oscillator's -sign(u) |u|^p at that state's f = u; stage 1 of a step
    # is the slope at its start, the last stage of the step before
    k1, l1 = df, -copysign(abs(f) ** p, f)
    nfev = 1
    # the initial guess starts at the step floor at least; error control takes it from there
    h = max(_initial_step(p, f, df, k1, l1, rtol, atol, t1), _MIN_REL_STEP)

    t = 0.0
    ts = [t]
    ys = [y]
    segments: list[tuple[float, float, tuple[float, float], list[tuple[float, float]]]] = []
    truncated = False
    steps = 0

    while t < t1:
        steps += 1
        if steps > MAX_STEPS or h < _MIN_REL_STEP * max(1.0, t):
            truncated = True
            break
        h = min(h, t1 - t)

        u = f + h * (0.0 + _A21 * k1)
        k2 = df + h * (0.0 + _A21 * l1)
        l2 = -copysign(abs(u) ** p, u)
        u = f + h * (0.0 + _A31 * k1 + _A32 * k2)
        k3 = df + h * (0.0 + _A31 * l1 + _A32 * l2)
        l3 = -copysign(abs(u) ** p, u)
        u = f + h * (0.0 + _A41 * k1 + _A42 * k2 + _A43 * k3)
        k4 = df + h * (0.0 + _A41 * l1 + _A42 * l2 + _A43 * l3)
        l4 = -copysign(abs(u) ** p, u)
        u = f + h * (0.0 + _A51 * k1 + _A52 * k2 + _A53 * k3 + _A54 * k4)
        k5 = df + h * (0.0 + _A51 * l1 + _A52 * l2 + _A53 * l3 + _A54 * l4)
        l5 = -copysign(abs(u) ** p, u)
        u = f + h * (0.0 + _A61 * k1 + _A62 * k2 + _A63 * k3 + _A64 * k4 + _A65 * k5)
        k6 = df + h * (0.0 + _A61 * l1 + _A62 * l2 + _A63 * l3 + _A64 * l4 + _A65 * l5)
        l6 = -copysign(abs(u) ** p, u)
        # the new state is (f_new, k7): the f' of the last stage state is its slope k7
        f_new = f + h * (0.0 + _B1 * k1 + _B2 * k2 + _B3 * k3 + _B4 * k4 + _B5 * k5 + _B6 * k6)
        k7 = df + h * (0.0 + _B1 * l1 + _B2 * l2 + _B3 * l3 + _B4 * l4 + _B5 * l5 + _B6 * l6)
        l7 = -copysign(abs(f_new) ** p, f_new)
        nfev += 6
        # RMS of the error estimate, each component scaled by its own tolerance
        try:
            norm = math.sqrt(
                (
                    (
                        h * (0.0 + _E1 * k1 + _E2 * k2 + _E3 * k3 + _E4 * k4 + _E5 * k5 + _E6 * k6 + _E7 * k7)
                        / (atol + rtol * max(abs(f), abs(f_new)))
                    )
                    ** 2
                    + (
                        h * (0.0 + _E1 * l1 + _E2 * l2 + _E3 * l3 + _E4 * l4 + _E5 * l5 + _E6 * l6 + _E7 * l7)
                        / (atol + rtol * max(abs(df), abs(k7)))
                    )
                    ** 2
                )
                / 2
            )
        except OverflowError:
            # a scaled error above 1e154: rejected with the smallest factor, as any norm that large
            norm = math.inf

        if norm <= 1.0:
            q = [
                (
                    0.0 + k1 * _D11 + k2 * _D12 + k3 * _D13 + k4 * _D14 + k5 * _D15 + k6 * _D16 + k7 * _D17,
                    0.0 + l1 * _D11 + l2 * _D12 + l3 * _D13 + l4 * _D14 + l5 * _D15 + l6 * _D16 + l7 * _D17,
                ),
                (
                    0.0 + k1 * _D21 + k2 * _D22 + k3 * _D23 + k4 * _D24 + k5 * _D25 + k6 * _D26 + k7 * _D27,
                    0.0 + l1 * _D21 + l2 * _D22 + l3 * _D23 + l4 * _D24 + l5 * _D25 + l6 * _D26 + l7 * _D27,
                ),
                (
                    0.0 + k1 * _D31 + k2 * _D32 + k3 * _D33 + k4 * _D34 + k5 * _D35 + k6 * _D36 + k7 * _D37,
                    0.0 + l1 * _D31 + l2 * _D32 + l3 * _D33 + l4 * _D34 + l5 * _D35 + l6 * _D36 + l7 * _D37,
                ),
                (
                    0.0 + k1 * _D41 + k2 * _D42 + k3 * _D43 + k4 * _D44 + k5 * _D45 + k6 * _D46 + k7 * _D47,
                    0.0 + l1 * _D41 + l2 * _D42 + l3 * _D43 + l4 * _D44 + l5 * _D45 + l6 * _D46 + l7 * _D47,
                ),
            ]
            segments.append((t, h, y, q))
            t += h
            f, df, k1, l1 = f_new, k7, k7, l7
            y = (f, df)
            ts.append(t)
            ys.append(y)
            factor = _MAX_FACTOR if norm == 0.0 else min(_MAX_FACTOR, _SAFETY * norm**-0.2)
            h *= max(_MIN_FACTOR, factor)
        else:
            h *= max(_MIN_FACTOR, _SAFETY * norm**-0.2)

    return IntegrationResult(ts=ts, ys=ys, truncated=truncated, nfev=nfev, _segments=segments)


def find_zeros(result: IntegrationResult) -> list[float]:
    """Abscissae where the first component changes sign, refined on the dense output."""
    zeros: list[float] = []
    vals = [y[0] for y in result.ys]
    for i in range(len(vals) - 1):
        a, b = result.ts[i], result.ts[i + 1]
        fa, fb = vals[i], vals[i + 1]
        if fa == 0.0:
            zeros.append(a)
            continue
        if fa * fb < 0.0:
            for _ in range(80):
                mid = 0.5 * (a + b)
                fm = result.interpolate(mid)[0]
                if fm == 0.0 or abs(b - a) < 1e-15 * max(1.0, abs(mid)):
                    a = b = mid
                    break
                if (fm > 0) == (fa > 0):
                    a, fa = mid, fm
                else:
                    b = mid
            zeros.append(0.5 * (a + b))
    if vals and vals[-1] == 0.0:
        zeros.append(result.ts[-1])
    return sorted(zeros)
