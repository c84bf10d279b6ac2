"""Independent oracles and digests for the benchmark's checks.

Nothing here calls into `pencil`: every expected value is a closed form, an
mpmath quadrature or a digest recorded from the reference commit.

Both profile equations reduce to the autonomous oscillator
f'' + |f|^(p-1) f = 0 (stationary: theta = arctan z, self-similar: t = 1/xi).
It conserves E = f'^2/2 + |f|^(p+1)/(p+1); a solution of amplitude a has the
quarter period T(a) = C_p a^((1-p)/2) with
C_p = sqrt((p+1)/2) * B(1/(p+1), 1/2) / (p+1).
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import mpmath as mp

DIGITS_CAP = 16.0
DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"

_DPS = 30


def digits(value: float, oracle: float) -> float:
    """-log10 of the error of value against oracle, capped at DIGITS_CAP.

    The error is relative to max(|oracle|, 1), the same unit floor the root
    refinement uses for its own tolerance, so roots at or near 0 are scored
    by absolute error.
    """
    err = abs(value - oracle) / max(abs(oracle), 1.0)
    if err == 0.0:
        return DIGITS_CAP
    return min(DIGITS_CAP, -math.log10(err))


def digest(obj) -> str:
    """Short sha256 of a canonical JSON rendering (Fractions as 'n/d')."""

    def default(v):
        if isinstance(v, Fraction):
            return f"{v.numerator}/{v.denominator}"
        raise TypeError(f"cannot digest {type(v).__name__}")

    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=default)
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def bytes_digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(len(chunk).to_bytes(8, "little"))
        h.update(chunk)
    return h.hexdigest()[:20]


@lru_cache(maxsize=1)
def reference_digests() -> dict[str, str]:
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# pencil eigenfunction roots


@lru_cache(maxsize=None)
def eigenfunction_roots(l: int, family: int) -> tuple[float, ...]:
    """Ascending real roots of psi_{l,1} = cot((2k-1)pi/2l), psi_{l,2} = cot(k pi/(l+1))."""
    with mp.workdps(_DPS):
        if family == 1:
            roots = [mp.cot((2 * k - 1) * mp.pi / (2 * l)) for k in range(1, l + 1)]
        else:
            roots = [mp.cot(k * mp.pi / (l + 1)) for k in range(1, l + 1)]
        return tuple(sorted(float(r) for r in roots))


# ---------------------------------------------------------------------------
# the oscillator f'' + |f|^(p-1) f = 0


def _c_p(p):
    return mp.sqrt((p + 1) / 2) * mp.beta(1 / (p + 1), mp.mpf(1) / 2) / (p + 1)


def _rise_fraction(y, p):
    """Time to rise from 0 to y*a, in quarter periods, for amplitude a."""
    a = 1 / (p + 1)
    return mp.betainc(a, mp.mpf(1) / 2, 0, y ** (p + 1)) / mp.beta(a, mp.mpf(1) / 2)


def _shot_from_amplitude(p, a, symmetry: str) -> float:
    if symmetry == "symmetric":
        return float(a)
    return float(mp.sqrt(2 / (p + 1)) * a ** ((p + 1) / 2))


@lru_cache(maxsize=None)
def stationary_decay_shot(p: float, symmetry: str, zero_count: int) -> float | None:
    """Exact shot of the decaying stationary profile with the given zero count.

    In theta = arctan z the profile is f(theta) = a S(phi) with phase
    phi = theta / T(a) + shift (shift 1 when symmetric, 0 when antisymmetric)
    and S the unit oscillator of period 4 (S(0) = 0, S(1) = 1). Zeros are
    counted as the solver counts them: in [0, pi/2), the origin included.
    Decay means f(pi/2) = 0, i.e. the phase at pi/2 is an even integer 2k.
    """
    k = zero_count + 1 if symmetry == "symmetric" else zero_count
    if k < 1:
        return None
    with mp.workdps(_DPS):
        p = mp.mpf(p)
        span = 2 * k - 1 if symmetry == "symmetric" else 2 * k
        a = (_c_p(p) * span * 2 / mp.pi) ** (2 / (p - 1))
        return _shot_from_amplitude(p, a, symmetry)


@lru_cache(maxsize=None)
def stationary_plateau_shots(p: float, symmetry: str, zero_count: int) -> tuple[float, ...]:
    """All shots with f(pi/2) = 1 and the given zero count, ascending.

    With y = 1/a = S(phi(pi/2)), the phase is phi = lo + x(y) on the rising
    side of a positive lobe or lo + 2 - x(y) on its falling side, where lo is
    the lobe start that leaves exactly zero_count zeros before pi/2.
    """
    shift = 1 if symmetry == "symmetric" else 0
    lo = 2 * zero_count if symmetry == "symmetric" else 2 * zero_count - 2
    if lo < 0 or lo % 4:
        return ()
    with mp.workdps(_DPS):
        p = mp.mpf(p)
        c = _c_p(p)

        def phase(y):
            return (mp.pi / 2) * y ** ((1 - p) / 2) / c + shift - lo

        def h_rise(y):
            return phase(y) - _rise_fraction(y, p)

        def h_fall(y):
            return phase(y) - 2 + _rise_fraction(y, p)

        shots = []
        grid = [mp.mpf(i) / 400 for i in range(1, 401)]
        for h in (h_rise, h_fall):
            vals = [h(y) for y in grid]
            for y0, y1, v0, v1 in zip(grid, grid[1:], vals, vals[1:]):
                if v0 == 0:
                    shots.append(_shot_from_amplitude(p, 1 / y0, symmetry))
                elif v0 * v1 < 0:
                    y = mp.findroot(h, (y0, y1), solver="anderson")
                    shots.append(_shot_from_amplitude(p, 1 / y, symmetry))
        return tuple(sorted(shots))


def stationary_oracle(p: float, symmetry: str, far: str, zero_count: int, shot: float) -> float | None:
    """The exact shot on the branch with zero_count zeros; None if there is none.

    A plateau branch can hold two solutions; the one nearer `shot` is used.
    """
    if far == "decay_inverse":
        return stationary_decay_shot(p, symmetry, zero_count)
    candidates = stationary_plateau_shots(p, symmetry, zero_count)
    if not candidates:
        return None
    return min(candidates, key=lambda s: abs(s - shot))


def _selfsimilar_phase(p: float, amplitude: float, xi_far: float, xi_min: float):
    """(t of the last zero before the start, half period, 1/xi_min) in t = 1/xi.

    The profile starts at t0 = 1/xi_far with f = A t0 and f' = A, so it
    crossed zero T x(|A t0|/a) before t0 and crosses again every 2T(a).
    """
    p = mp.mpf(p)
    amp = mp.mpf(amplitude)
    t0 = 1 / mp.mpf(xi_far)
    energy = amp**2 / 2 + abs(amp * t0) ** (p + 1) / (p + 1)
    a = ((p + 1) * energy) ** (1 / (p + 1))
    quarter = _c_p(p) * a ** ((1 - p) / 2)
    t_zero = t0 - quarter * _rise_fraction(abs(amp * t0) / a, p)
    return t_zero, 2 * quarter, 1 / mp.mpf(xi_min)


@lru_cache(maxsize=None)
def selfsimilar_zeros(p: float, amplitude: float, xi_far: float, xi_min: float) -> tuple[float, ...]:
    """Ascending zeros in [xi_min, xi_far] of the self-similar profile."""
    with mp.workdps(_DPS):
        t_zero, half, t_end = _selfsimilar_phase(p, amplitude, xi_far, xi_min)
        count = int(mp.floor((t_end - t_zero) / half))
        return tuple(sorted(float(1 / (t_zero + k * half)) for k in range(1, count + 1)))


def selfsimilar_boundary_gap(p: float, amplitude: float, xi_far: float, xi_min: float) -> float:
    """Distance in t from 1/xi_min to the nearest oracle zero, relative to 1/xi_min.

    Inputs with a zero within about 1e-6 of the cut have an ill-posed zero
    count, so the workload generator redraws them.
    """
    with mp.workdps(_DPS):
        t_zero, half, t_end = _selfsimilar_phase(p, amplitude, xi_far, xi_min)
        phase = (t_end - t_zero) / half
        return float(min(phase - mp.floor(phase), mp.ceil(phase) - phase) * half / t_end)
