"""Adaptive Dormand-Prince 5(4) integrator with dense output.

Small, dependency-free and forward-only (t1 > t0).  The dense output uses
the standard quartic interpolant of the pair, so interpolated values carry
the same accuracy order as the step error control.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Sequence

__all__ = ["IntegrationResult", "integrate", "find_zeros", "MAX_STEPS"]

# step budget of one integration; an integration that reaches it is truncated
MAX_STEPS = 5_000_000

# Dormand-Prince 5(4) tableau: nodes _Cs, stage weights _Asj, solution
# weights _Bj, error weights _Ej and the dense-output rows _Dj, whose entry s
# multiplies stage s in the coefficient of theta^j.  Zero entries stay in the
# sums below, and each sum starts at 0.0 as sum() does, so every stage adds
# the same terms in the same order as a generic sum over the tableau.
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
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
    ts: list[float]
    ys: list[tuple[float, ...]]
    truncated: bool
    nfev: int
    _segments: list[tuple[float, float, tuple[float, ...], list[tuple[float, ...]]]]

    @property
    def y_end(self) -> tuple[float, ...]:
        return self.ys[-1]

    def interpolate(self, t: float) -> tuple[float, ...]:
        """Dense-output evaluation anywhere inside the covered span."""
        if not self._segments:
            return self.ys[0]
        # ts holds each accepted segment's start, then the end of the last one
        idx = bisect_right(self.ts, t) - 1
        idx = min(max(idx, 0), len(self._segments) - 1)
        t0, h, y0, q = self._segments[idx]
        theta = (t - t0) / h
        n = len(y0)
        out = []
        for i in range(n):
            acc = 0.0
            for j in (3, 2, 1, 0):
                acc = acc * theta + q[j][i]
            out.append(y0[i] + h * theta * acc)
        return tuple(out)


def _rms(values: list[float]) -> float:
    """Root mean square that does not overflow.

    The plain sum of squares is used unless a square or the sum overflows;
    then math.hypot, which rescales, gives the norm.
    """
    try:
        total = sum([v**2 for v in values])
    except OverflowError:
        total = math.inf
    if total == math.inf:
        return math.hypot(*values) / math.sqrt(len(values))
    return math.sqrt(total / len(values))


def _initial_step(rhs, t0, y0, f0, rtol, atol, span) -> float:
    scale = [atol + rtol * abs(v) for v in y0]
    d0 = _rms([v / s for v, s in zip(y0, scale)])
    d1 = _rms([v / s for v, s in zip(f0, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    y1 = tuple(y + h0 * f for y, f in zip(y0, f0))
    f1 = rhs(t0 + h0, y1)
    d2 = _rms([(a - b) / s for a, b, s in zip(f1, f0, scale)]) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, span)


def integrate(
    rhs: Callable[[float, tuple[float, ...]], tuple[float, ...]],
    t0: float,
    t1: float,
    y0: Sequence[float],
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> IntegrationResult:
    """Integrate y' = rhs(t, y) forward from t0 to t1 > t0.

    Stops early with `truncated=True` when the step size underflows or the
    MAX_STEPS budget runs out; everything integrated up to that point is kept.
    Tolerances must be positive and finite: a NaN step never trips the step
    floor, so a NaN tolerance would walk the whole step budget.
    """
    # NaN fails the comparison too
    if not t1 > t0:
        raise ValueError(f"integration runs forward only: need t1 > t0, got t0={t0!r}, t1={t1!r}")
    if not (0 < rtol < math.inf and 0 < atol < math.inf):
        raise ValueError(f"tolerances must be positive and finite, got rtol={rtol!r}, atol={atol!r}")
    y = tuple(float(v) for v in y0)
    t = float(t0)
    f = tuple(rhs(t, y))
    nfev = 1
    # the initial guess starts at the step floor at least; error control takes it from there
    h = max(_initial_step(rhs, t, y, f, rtol, atol, t1 - t0), _MIN_REL_STEP * max(1.0, abs(t)))

    ts = [t]
    ys = [y]
    segments: list[tuple[float, float, tuple[float, ...], list[tuple[float, ...]]]] = []
    truncated = False
    n = len(y)
    steps = 0

    while t < t1:
        steps += 1
        if steps > MAX_STEPS:
            truncated = True
            break
        min_h = _MIN_REL_STEP * max(1.0, abs(t))
        if h < min_h:
            truncated = True
            break
        h = min(h, t1 - t)

        k1 = f
        y_s = tuple([v + h * (0.0 + _A21 * a) for v, a in zip(y, k1)])
        k2 = tuple(rhs(t + _C2 * h, y_s))
        y_s = tuple([v + h * (0.0 + _A31 * a + _A32 * b) for v, a, b in zip(y, k1, k2)])
        k3 = tuple(rhs(t + _C3 * h, y_s))
        y_s = tuple(
            [v + h * (0.0 + _A41 * a + _A42 * b + _A43 * c) for v, a, b, c in zip(y, k1, k2, k3)]
        )
        k4 = tuple(rhs(t + _C4 * h, y_s))
        y_s = tuple(
            [
                v + h * (0.0 + _A51 * a + _A52 * b + _A53 * c + _A54 * d)
                for v, a, b, c, d in zip(y, k1, k2, k3, k4)
            ]
        )
        k5 = tuple(rhs(t + _C5 * h, y_s))
        y_s = tuple(
            [
                v + h * (0.0 + _A61 * a + _A62 * b + _A63 * c + _A64 * d + _A65 * e)
                for v, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)
            ]
        )
        k6 = tuple(rhs(t + h, y_s))
        y_new = tuple(
            [
                v + h * (0.0 + _B1 * a + _B2 * b + _B3 * c + _B4 * d + _B5 * e + _B6 * g)
                for v, a, b, c, d, e, g in zip(y, k1, k2, k3, k4, k5, k6)
            ]
        )
        k7 = tuple(rhs(t + h, y_new))
        nfev += 6
        # RMS of the error estimate, each component scaled by its own tolerance
        try:
            norm = math.sqrt(
                sum(
                    [
                        (
                            h * (0.0 + _E1 * a + _E2 * b + _E3 * c + _E4 * d + _E5 * e + _E6 * g + _E7 * r)
                            / (atol + rtol * max(abs(v), abs(w)))
                        )
                        ** 2
                        for v, w, a, b, c, d, e, g, r in zip(y, y_new, k1, k2, k3, k4, k5, k6, k7)
                    ]
                )
                / n
            )
        except OverflowError:
            # a scaled error above 1e154: rejected with the smallest factor, as any norm that large
            norm = math.inf

        if norm <= 1.0:
            ks = tuple(zip(k1, k2, k3, k4, k5, k6, k7))
            q = [
                tuple(
                    [
                        0.0 + a * _D11 + b * _D12 + c * _D13 + d * _D14 + e * _D15 + g * _D16 + r * _D17
                        for a, b, c, d, e, g, r in ks
                    ]
                ),
                tuple(
                    [
                        0.0 + a * _D21 + b * _D22 + c * _D23 + d * _D24 + e * _D25 + g * _D26 + r * _D27
                        for a, b, c, d, e, g, r in ks
                    ]
                ),
                tuple(
                    [
                        0.0 + a * _D31 + b * _D32 + c * _D33 + d * _D34 + e * _D35 + g * _D36 + r * _D37
                        for a, b, c, d, e, g, r in ks
                    ]
                ),
                tuple(
                    [
                        0.0 + a * _D41 + b * _D42 + c * _D43 + d * _D44 + e * _D45 + g * _D46 + r * _D47
                        for a, b, c, d, e, g, r in ks
                    ]
                ),
            ]
            segments.append((t, h, y, q))
            t += h
            y = y_new
            f = k7
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
