"""Real-root isolation and crack-admissibility decisions.

A `Combination`, the order-l weighted sum of the family eigenfunctions,
owns its polynomial and isolates its roots from seeds, one float guess per
root, taken from the phase form of its own weights (closed-form cotangents
for Laplace, a float scan in the angle for bi-Laplace).  Exact signs at
one short dyadic separator between consecutive seeds then certify, when
they alternate degree-many times, that every root is real and simple and
isolated by its gap; no Sturm chain is built.  Otherwise, and without
seeds, p's own Sturm chain over the integers (the remainder sequence of p
and p', `polyring._remainder_sequence`, scaled only by positive factors)
bisects p's distinct roots from a power-of-two Fujiwara bound, carrying the
sign-variation count at every interval endpoint; with repeated roots it
ends at gcd(p, p'), whose own chains give the multiplicities.  The chain
keeps the pseudo-division identity e P_j = Q P_{j+1} + kappa P_{j+2} that
made each element, so at a bisection point each element's value follows
from the two below it by a few integer products and one exact division,
where a Horner sum would cost one multiply-add per degree; elements whose
multipliers are too large for that to pay keep Horner.  Each isolated
root is refined by certified Newton: a seed or safeguarded float Newton,
exact Newton steps, and exact opposite signs on either side of the
result, with exact bisection only where that certificate fails.  Every
point p is evaluated at is dyadic, num / 2^shift (a point that is not
raises), so one Horner with shifts gives every exact sign, and exact
Newton is that same loop with a slope accumulator, its iterate one
correctly rounded integer division.  Root counts read the remainder
sequence of p at infinity.
Admissibility of a slope tuple at expansion order l is a nullspace
question for the matrix of eigenfunction values at the slopes: exact over
the rationals, SVD-thresholded for floating input.

numpy is imported only inside the SVD branch of `_verdict_at`, which only
float slopes reach; seeding, isolation and every exact decision run on
the standard library alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .linalg import rational_kernel
from .pencils import Eigenpair, quadratic_eigenfunction, quartic_eigenfunction
from .polyring import (
    RatPoly,
    _int_diff,
    _int_primitive,
    _pseudo_divide,
    _remainder_sequence,
    integer_coefficients,
)
# not called here; perfbench/tracing.py wraps them under these names on this module
from .polyring import poly_gcd, square_free_decomposition, square_free_part  # noqa: F401

__all__ = [
    "RootSet",
    "Combination",
    "CrackConfig",
    "AdmissibilityVerdict",
    "EnumeratedConfig",
    "isolate_real_roots",
    "count_real_roots",
    "transversality_check",
    "check_admissibility_laplace",
    "check_admissibility_bilaplace",
    "enumerate_admissible",
]


# ---------------------------------------------------------------------------
# Sturm sequences over the integers


def _dyadic(x: Fraction | float) -> tuple[int, int]:
    """x = num / 2^shift as (num, shift); ValueError unless x is dyadic."""
    num, den = x.as_integer_ratio()
    if den & (den - 1):
        raise ValueError(f"{x!r} is not a dyadic rational")
    return num, den.bit_length() - 1


def _dyadic_sign(coeffs: Sequence[int], num: int, shift: int) -> int:
    """Sign of p(num / 2^shift), shift >= 0."""
    acc = _dyadic_value(coeffs, num, shift)
    return (acc > 0) - (acc < 0)


def _dyadic_value(coeffs: Sequence[int], num: int, shift: int) -> int:
    """2^(shift n) p(num / 2^shift), n = len(coeffs) - 1 and shift >= 0, by Horner with shifts."""
    acc = 0
    bits = 0
    for c in reversed(coeffs):
        acc = acc * num + (c << bits)
        bits += shift
    return acc


# A link replaces the Horner sum of chain element j (degree d_j) by two
# products, a shift and one exact division, whose operands are the chain
# values at the point (integers about as long as the Horner accumulator)
# and the link's multipliers e, Q and kappa.  Schoolbook multiplication and
# division cost about (multiplier digits) x (accumulator digits) digit steps
# each, where Horner costs d_j passes of a few-digit multiply-add over the
# accumulator.  So a link pays while its multipliers have at most a few
# 30-bit digits per degree of P_j; past that (the bi-Laplace chains reach
# coefficients of 14k bits) Horner is cheaper.  Any bound from 8 to 128 bits
# per degree timed the same on psi_{l,f} and the bi-Laplace chains.
_LINK_BITS_PER_DEGREE = 32


@dataclass(frozen=True)
class _SturmChain:
    """The Sturm chain of p and its remainder-sequence identities.

    polys are the remainder sequence of p and p' (`_remainder_sequence`):
    P_0 = p, P_1 = p' and P_{j+2} a positive multiple of -rem(P_j, P_{j+1}),
    each primitive, down to gcd(p, p').  links[j] is (e, Q, kappa) with
    e P_j = Q P_{j+1} + kappa P_{j+2}, the pseudo-division that made
    P_{j+2}; it is None for the last two elements and where Horner on P_j
    is cheaper (`_LINK_BITS_PER_DEGREE`).
    """

    polys: list[list[int]]
    links: list[tuple[int, list[int], int] | None]


def _sturm_chain(coeffs: list[int]) -> _SturmChain:
    """Sturm chain of an integer polynomial with the links worth keeping.

    With repeated roots it ends at gcd(p, p') and still counts distinct
    roots at points that are not roots of p.
    """
    polys, identities = _remainder_sequence(coeffs, _int_diff(coeffs))
    links: list[tuple[int, list[int], int] | None] = []
    for p, (scale, quot, kappa) in zip(polys, identities):
        bits = max(map(int.bit_length, (scale, kappa, *quot)))
        links.append((scale, quot, kappa) if bits <= _LINK_BITS_PER_DEGREE * (len(p) - 1) else None)
    return _SturmChain(polys, links + [None] * (len(polys) - len(links)))


def _sign_variations(signs: Iterable[int]) -> int:
    nonzero = [s for s in signs if s]
    return sum(a != b for a, b in zip(nonzero, nonzero[1:]))


def _variations_at(chain: _SturmChain, point: Fraction) -> tuple[int, int]:
    """Sign of P_0 at the dyadic point and the chain's sign-variation count there.

    With point = a / 2^s the values V_j = 2^(s d_j) P_j(a / 2^s), d_j = deg P_j,
    are integers with the signs of P_j.  They are found bottom-up: Horner
    (`_dyadic_value`) gives the last two and every element without a link,
    and a link e P_j = Q P_{j+1} + kappa P_{j+2} gives
    V_j = (Q~ V_{j+1} + kappa V_{j+2} 2^(s (d_j - d_{j+2}))) / e, an exact
    division, with Q~ = 2^(s deg Q) Q(a / 2^s).  Both give the same integer.
    """
    num, shift = _dyadic(point)
    polys, links = chain.polys, chain.links
    values = [0] * len(polys)
    for j in range(len(polys) - 1, -1, -1):
        link = links[j]
        if link is None:
            values[j] = _dyadic_value(polys[j], num, shift)
        else:
            scale, quot, kappa = link
            lifted = kappa * values[j + 2] << shift * (len(polys[j]) - len(polys[j + 2]))
            values[j] = (_dyadic_value(quot, num, shift) * values[j + 1] + lifted) // scale
    signs = [(v > 0) - (v < 0) for v in values]
    return signs[0], _sign_variations(signs)


def count_real_roots(p: RatPoly) -> int:
    """Exact number of distinct real roots of p (Sturm's theorem on p's own chain)."""
    if p.is_zero():
        raise ValueError("the zero polynomial has no root count")
    if p.degree == 0:
        return 0
    coeffs = integer_coefficients(p)
    polys = _remainder_sequence(coeffs, _int_diff(coeffs))[0]
    at_plus = [1 if q[-1] > 0 else -1 for q in polys]
    at_minus = [s * (-1) ** (len(q) - 1) for s, q in zip(at_plus, polys)]
    return _sign_variations(at_minus) - _sign_variations(at_plus)


def _root_bound(coeffs: Sequence[int]) -> Fraction:
    """Fujiwara bound rounded up to a power of two: above every |root|.

    Every root has |z| <= 2 max_k |a_k/a_n|^(1/(n-k)), and
    |a_k/a_n| < 2^(bitlen a_k - bitlen a_n + 1).
    """
    n = len(coeffs) - 1
    top = abs(coeffs[-1]).bit_length()
    exponents = [-((top - abs(c).bit_length() - 1) // (n - k)) for k, c in enumerate(coeffs[:-1]) if c]
    return Fraction(2) ** (1 + max(exponents, default=0))


def _isolate(chain: _SturmChain) -> list[tuple[Fraction, Fraction]]:
    """Disjoint rational intervals each holding exactly one distinct real root of chain.polys[0].

    chain is the Sturm chain of p, square-free or not.  Each stack entry
    (lo, V(lo), hi, V(hi)) carries the sign-variation counts of its
    endpoints, which are never roots of p, so V(lo) - V(hi) distinct roots
    lie in (lo, hi) and every bisection point costs one evaluation of the
    chain, bottom-up through its links (`_variations_at`).  Every point is
    dyadic: the bound is a power of two, and midpoints and margins halve.
    Exact rational roots are returned as degenerate [r, r] intervals.
    """
    bound = _root_bound(chain.polys[0])
    out: list[tuple[Fraction, Fraction]] = []
    stack = [(-bound, _variations_at(chain, -bound)[1], bound, _variations_at(chain, bound)[1])]
    while stack:
        lo, v_lo, hi, v_hi = stack.pop()
        if v_lo - v_hi == 0:
            continue
        if v_lo - v_hi == 1:
            out.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        sign, v_mid = _variations_at(chain, mid)
        if sign == 0:
            # exact rational root at mid; carve out a root-free margin around it
            delta = (hi - lo) / 4
            while True:
                (s_a, v_a), (s_b, v_b) = _variations_at(chain, mid - delta), _variations_at(chain, mid + delta)
                if s_a and s_b and v_a - v_b == 1:
                    break
                delta /= 2
            out.append((mid, mid))
            stack.append((lo, v_lo, mid - delta, v_a))
            stack.append((mid + delta, v_b, hi, v_hi))
        else:
            stack.append((lo, v_lo, mid, v_mid))
            stack.append((mid, v_mid, hi, v_hi))
    return sorted(out)


def _root_in(chain: _SturmChain, lo: Fraction, hi: Fraction) -> bool:
    """Whether chain.polys[0] has a root in [lo, hi], for lo = hi or for ends that are not roots."""
    if lo == hi:
        return _dyadic_sign(chain.polys[0], *_dyadic(lo)) == 0
    return _variations_at(chain, lo)[1] > _variations_at(chain, hi)[1]


def _short_dyadic(lo: float, hi: float) -> Fraction:
    """The dyadic rational m / 2^k in [lo, hi] with the least k, for lo < hi.

    A separator's cost in an exact sign is its bit size, and this one has
    a few bits where the float midpoint of two seeds has 53.
    """
    if lo <= 0 <= hi:
        return Fraction(0)
    if hi < 0:
        return -_short_dyadic(-hi, -lo)
    k = 1 - math.frexp(hi - lo)[1]  # 2^-k <= hi - lo: some m / 2^k lies in [lo, hi]
    while math.ceil(math.ldexp(lo, k - 1)) <= math.floor(math.ldexp(hi, k - 1)):
        k -= 1
    m = math.ceil(math.ldexp(lo, k))
    return Fraction(m, 1 << k) if k >= 0 else Fraction(m << -k)


def _certified_gaps(coeffs: list[int], seeds: Sequence[float]) -> list[tuple[Fraction, Fraction]] | None:
    """Isolating intervals of every root of p from one seed per root, or None.

    One separator lies in the middle half of each gap between sorted seeds,
    and -B, B (B the root bound) close the ends.  If p is nonzero at every
    separator with alternating signs, each of the n gaps holds an odd
    number of roots; a degree-n p has n roots in all, so each gap holds
    exactly one and it is simple: p is square-free and all its roots are
    real.  Any other outcome (a wrong count, a non-finite seed, separators
    out of order, a sign that fails to alternate) returns None.
    """
    n = len(coeffs) - 1
    if len(seeds) != n or not all(math.isfinite(s) for s in seeds):
        return None
    seeds = sorted(seeds)
    bound = _root_bound(coeffs)
    seps = [-bound]
    for a, b in zip(seeds, seeds[1:]):
        if not a < b:
            return None
        lo, hi = 0.75 * a + 0.25 * b, 0.25 * a + 0.75 * b
        if not a <= lo < hi <= b:
            lo, hi = a, b
        seps.append(_short_dyadic(lo, hi))
    seps.append(bound)
    if not all(x < y for x, y in zip(seps, seps[1:])):
        return None
    sign = _dyadic_sign(coeffs, *_dyadic(seps[0]))
    for x in seps[1:]:
        nxt = _dyadic_sign(coeffs, *_dyadic(x))
        if sign == 0 or nxt != -sign:
            return None
        sign = nxt
    return list(zip(seps, seps[1:]))


# float Newton iterations per root; bisection alone takes about 45 to narrow
# a float bracket of width 2^8 to _FLOAT_STEP relative at a root near 1e-3
_NEWTON_STEPS = 100
# float Newton stops at a step this short relative to the iterate: one more
# float step reaches float resolution or the rounding noise of p near its root
_FLOAT_STEP = 2.0**-26
# coefficients are shifted below 2^960 so that the Horner sums of p and p'
# (at most (n + 1)^2 times the largest coefficient at |x| <= 1) stay finite;
# further out an overflowing p(x) keeps its sign and the step bisects
_FLOAT_COEFF_BITS = 960
# exact Newton steps from the float iterate before exact bisection takes
# over; one certifies every root of psi_{l,1} and psi_{l,2} for l <= 70, and
# the noisier float iterates of psi_{200,1} mostly need 2 to 7
_EXACT_STEPS = 8
# a Newton step at most this long, relative to max(|r|, 1), leaves an error
# near float resolution, so r is worth the two signs of a certificate
_CERTIFY_STEP = 2.0**-20


def _float_newton(coeffs: list[int], lo: Fraction, hi: Fraction, slo: int) -> float | None:
    """Safeguarded float Newton for the one root in (lo, hi); None if lo or hi overflows.

    slo is the sign of p at lo.  A Newton step that leaves the current float
    bracket, or is longer than half the step before last (the rule of
    rtsafe in Numerical Recipes), is replaced by bisection of the bracket.
    Coefficients are divided by a power of two, correctly rounded, only when
    they are too large for the float Horner sums.
    """
    try:
        a, b = float(lo), float(hi)
    except OverflowError:
        return None
    shift = max(0, max(abs(c).bit_length() for c in coeffs) - _FLOAT_COEFF_BITS)
    desc = [c / (1 << shift) for c in reversed(coeffs)]
    x = a / 2 + b / 2
    dx = dx_old = b - a
    for _ in range(_NEWTON_STEPS):
        p = dp = 0.0
        for c in desc:
            dp = dp * x + p
            p = p * x + c
        if p == 0.0:
            return x
        if (p > 0) == (slo > 0):
            a = x
        else:
            b = x
        step = p / dp if dp else math.inf
        nx = x - step
        if not (a < nx < b and abs(step) <= dx_old / 2):
            nx = a / 2 + b / 2
            if not a < nx < b:
                return x
        dx_old, dx = dx, abs(nx - x)
        if dx <= _FLOAT_STEP * abs(nx):
            return nx
        x = nx
    return x


def _exact_newton(coeffs: list[int], x: float) -> tuple[int, float | None]:
    """Exact sign of p(x) and the Newton iterate from x, correctly rounded to a float.

    With x = num / 2^s, the Horner with shifts of `_dyadic_value` and a
    slope accumulator give V = 2^(s n) p(x) and D = 2^(s (n-1)) p'(x), so
    the iterate x - V / (2^s D) is the one integer division
    (num D - V) / (2^s D), which rounds correctly.  It is None when
    p'(x) = 0 or when it lies beyond the float range.
    """
    num, shift = _dyadic(x)
    value = slope = 0
    bits = 0
    for c in reversed(coeffs):
        slope = slope * num + value
        value = value * num + (c << bits)
        bits += shift
    sign = (value > 0) - (value < 0)
    try:
        return sign, ((num * slope - value) / (slope << shift) if slope else None)
    except OverflowError:
        return sign, None


def _certificate_points(r: float, k: int, lo: Fraction, hi: Fraction) -> tuple[int, int, int] | None:
    """r - 2^k and r + 2^k as (left, right, shift), integers over 2^shift.

    None unless both points lie strictly inside (lo, hi).  No Fraction is
    built: r is its float mantissa over a power of two.
    """
    num, r_shift = _dyadic(r)
    shift = max(r_shift, -k)
    x, h = num << (shift - r_shift), 1 << (shift + k)
    left, right = x - h, x + h
    if lo.numerator << shift < left * lo.denominator and right * hi.denominator < hi.numerator << shift:
        return left, right, shift
    return None


def _sign_certificate(coeffs: list[int], r: float, left: int, right: int, shift: int) -> float | None:
    """r if p has opposite exact signs at left / 2^shift and right / 2^shift, a zero there, or None."""
    s_left, s_right = _dyadic_sign(coeffs, left, shift), _dyadic_sign(coeffs, right, shift)
    if s_left * s_right < 0:
        return r
    if s_left == 0:
        return left / (1 << shift)
    if s_right == 0:
        return right / (1 << shift)
    return None


def _goal(lo: Fraction, hi: Fraction, tol: float) -> tuple[int, int]:
    """goal = tol/8 * max(|lo|, |hi|, 1) as its reduced numerator and denominator."""
    top = max(abs(lo.numerator) * hi.denominator, abs(hi.numerator) * lo.denominator)
    scale = lo.denominator * hi.denominator
    if top < scale:
        top = scale = 1
    tn, td = tol.as_integer_ratio()
    num, den = tn * top, 8 * td * scale
    g = math.gcd(num, den)
    return num // g, den // g


def _float(x: Fraction) -> float:
    """float(x) of a point of `_refine_root`; ValueError where it overflows, for a root past 2^1020."""
    try:
        return float(x)
    except OverflowError:
        e = abs(x.numerator).bit_length() - x.denominator.bit_length()
        raise ValueError(f"a real root near 2^{e} lies beyond the float range (|x| < 2^1024)") from None


def _refine_root(coeffs: list[int], lo: Fraction, hi: Fraction, tol: float, start: float | None = None) -> float:
    """Refine the one root in an isolating interval to a float within goal/2 of it.

    First the end of (lo, hi) farther from 0 is cut to a sixteenth, by
    exact signs, while the root lies within that sixteenth, so that
    goal = tol/8 * max(|lo|, |hi|, 1) <= 2 tol max(|root|, 1) however wide
    the isolating interval (one in [-16, 16], or not containing a
    sixteenth of its far end, costs no sign).  A start is tried first by
    the sign certificate below and, if it lies inside (lo, hi), proposes the
    root; without one, float Newton proposes it.  Exact Newton steps polish
    it, each correctly rounded to a float r, narrowing the bracket by the
    exact sign at its start and bisecting the bracket instead when r would
    leave it (an r rounded onto an edge stays).
    With h = 2^k in (goal/8, goal/2], exact opposite signs at r - h and
    r + h, both strictly inside (lo, hi), certify r (a zero sign there is
    the root itself).  Without a certificate the bracket is bisected exactly
    down to width goal.
    """
    if lo == hi:
        return _float(lo)
    while hi > 16 or lo < -16:
        far = hi if hi > -lo else lo
        cut = far / 16
        if not lo < cut < hi:
            break
        s_cut, s_far = (_dyadic_sign(coeffs, *_dyadic(x)) for x in (cut, far))
        if s_cut == 0:
            return _float(cut)
        if s_cut != s_far:
            break
        lo, hi = (lo, cut) if far == hi else (cut, hi)
    goal_num, goal_den = _goal(lo, hi, tol)
    k = goal_num.bit_length() - goal_den.bit_length() - 2
    points = None if start is None else _certificate_points(start, k, lo, hi)
    if points is not None:
        found = _sign_certificate(coeffs, start, *points)
        if found is not None:
            return found
    goal = Fraction(goal_num, goal_den)
    r = start if start is not None and lo < Fraction(start) < hi else None
    slo = _dyadic_sign(coeffs, *_dyadic(lo))
    if r is None:
        r = _float_newton(coeffs, lo, hi, slo)
    if r is not None:
        a, b = lo, hi
        for _ in range(_EXACT_STEPS):
            x = Fraction(r)
            sign, step = _exact_newton(coeffs, r)
            if a < x < b:
                if sign == 0:
                    return r
                a, b = (x, b) if sign == slo else (a, x)
            if step is None or not a <= step <= b:
                step = _float((a + b) / 2)
            r, last = step, r
            if b - a <= goal:
                break
            if abs(r - last) > _CERTIFY_STEP * max(abs(r), 1.0):
                continue
            points = _certificate_points(r, k, lo, hi)
            if points is None:
                break
            found = _sign_certificate(coeffs, r, *points)
            if found is not None:
                return found
            if r == last:
                break
        lo, hi = a, b
    while hi - lo > goal:
        mid = (lo + hi) / 2
        smid = _dyadic_sign(coeffs, *_dyadic(mid))
        if smid == 0:
            return _float(mid)
        if smid == slo:
            lo = mid
        else:
            hi = mid
    return _float((lo + hi) / 2)


@dataclass(frozen=True)
class RootSet:
    """All real roots of a polynomial: exact isolation and multiplicities, certified floats.

    Each isolating interval [lo, hi] holds exactly one distinct real root:
    the square-free part of p has exact opposite signs at lo and hi, or
    lo = hi is the root.  Each refined root lies within
    tol * max(|root|, 1), and within tol/16 * max(|lo|, |hi|, 1), up to
    the rounding to a float, of that root.  Seeded and unseeded isolation of one polynomial give the same
    counts and multiplicities and roots within that bound, but different
    intervals.
    """

    poly: RatPoly
    isolating_intervals: tuple[tuple[Fraction, Fraction], ...]
    refined_roots: tuple[float, ...]
    multiplicities: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.refined_roots)


def _check_tol(tol: float) -> None:
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")


def isolate_real_roots(p: RatPoly, tol: float = 1e-12, seeds: Sequence[float] | None = None) -> RootSet:
    """Isolate and refine every real root of p with exact multiplicities.

    seeds, one float guess per root of p, let one exact sign per separator
    between them certify that all roots are real and simple
    (`_certified_gaps`); each root is then refined from its seed.  When the
    certificate fails, or without seeds, p's own Sturm chain isolates its
    distinct roots and ends at g_1 = gcd(p, p').  If g_1 is not constant,
    roots are refined on the primitive part of p / g_1, and the tower
    g_{i+1} = gcd(g_i, g_i'), each the last element of g_i's chain, counts
    multiplicities: a root of multiplicity m is a root of exactly
    g_1 ... g_{m-1} (`_root_in`).  A tol outside (0, inf), or a real root
    beyond the float range, raises ValueError.
    """
    _check_tol(tol)
    if p.is_zero():
        raise ValueError("cannot isolate roots of the zero polynomial")
    if p.degree == 0:
        return RootSet(p, (), (), ())
    coeffs = integer_coefficients(p)
    gaps = None if seeds is None else _certified_gaps(coeffs, seeds)
    if gaps is not None:
        roots = tuple(_refine_root(coeffs, lo, hi, tol, s) for (lo, hi), s in zip(gaps, sorted(seeds)))
        return RootSet(p, tuple(gaps), roots, (1,) * len(gaps))
    chains = [_sturm_chain(coeffs)]
    while len(chains[-1].polys[-1]) > 1:
        chains.append(_sturm_chain(chains[-1].polys[-1]))
    chain, *tower = chains
    intervals = _isolate(chain)
    mults = tuple(1 + sum(_root_in(c, lo, hi) for c in tower) for lo, hi in intervals)
    if tower:
        coeffs = _int_primitive(_pseudo_divide(coeffs, chain.polys[-1])[1])
    roots = tuple(_refine_root(coeffs, lo, hi, tol) for lo, hi in intervals)
    return RootSet(p, tuple(intervals), roots, mults)


# phase-scan samples per unit of l: two roots of a bi-Laplace combination
# closer than pi / (_PHASE_SAMPLES * l) in angle share a bracket, the scan
# finds fewer seeds than roots, and isolation falls back to the Sturm path
_PHASE_SAMPLES = 32
# safeguarded Newton steps per scan bracket, at most: from the bracket's
# midpoint the error falls about as e -> l e^2 / 2, so four or five steps
# reach float resolution; a step that would leave the bracket bisects it
_PHASE_STEPS = 12


def _phase_seeds(l: int, coeffs: Sequence) -> list[float]:
    """Float guesses of the real roots of c_1 psi_{l,1} + c_2 psi_{l-1,2} + c_3 psi_{l-2,3} + c_4 psi_{l-3,4}.

    coeffs holds c_1, c_2 and, for bi-Laplace, c_3 and c_4; the psi are the
    monic family eigenfunctions.  With z = cot(phi), the closed forms in
    z + i that `pencil.pencils` builds them from give
    sin^l(phi) p(cot phi) = A cos(l phi) + B sin(l phi)
                            + sin(phi) (C sin((l-1) phi) + D cos((l-1) phi)),
    a sum well conditioned in phi for every l, whose zeros in (0, pi) are
    the roots' angles.  For Laplace (C = D = 0) it is
    |w| cos(l phi - theta) with w = c_1 - i c_2 / l = |w| e^(-i theta), so the
    roots are the l closed-form cot((theta + pi/2 + k pi) / l).  Otherwise
    the sum is sampled at 32 l + 1 evenly spaced angles in [0, pi], and
    Newton steps in phi, safeguarded by bisection, refine every sign-change
    bracket together until all have converged.  When c_1 = 0 the degree is
    below l and the endpoint zeros at phi = 0 and pi are not roots.  Plain
    float loops do all of it, on the weights scaled exactly by the one power
    of two that brings the largest below 2 and above 1/2: the roots do not
    change, and tiny or huge weights neither underflow nor overflow the
    form.  A guess whose cotangent is not a finite float is dropped.  The
    guesses carry no guarantee: `isolate_real_roots` certifies them or falls
    back.
    """
    # |n/d| in lowest terms lies in (2^(e-1), 2^(e+1)) with e = len(n) - len(d)
    # in bits; the largest e sets the scale, and one integer true division,
    # correctly rounded, gives each scaled weight as a float
    ratios = [c.as_integer_ratio() for c in coeffs]
    shift = max([n.bit_length() - d.bit_length() for n, d in ratios if n], default=0)
    if shift >= 0:
        scaled = [n / (d << shift) for n, d in ratios]
    else:
        scaled = [(n << -shift) / d for n, d in ratios]
    c1, c2, c3, c4 = (scaled + [0.0, 0.0, 0.0])[:4]
    if c3 == 0 and c4 == 0:
        if c1 == 0:
            return _cotangents([k * (math.pi / l) for k in range(1, l)])
        # t = theta + pi/2 = arg(i (c_1 + i c_2 / l)), taken in (0, pi)
        s = 1 if c1 > 0 else -1
        t = math.atan2(s * c1, -s * c2 / l)
        return _cotangents([(t + k * math.pi) / l for k in range(l)])
    a = c1
    b = c2 / l + (3 * c4 / (l * (l - 1) * (l - 2)) if c4 else 0.0)
    c = c3 / (l - 1) if c3 else 0.0
    d = -3 * c4 / ((l - 1) * (l - 2)) if c4 else 0.0
    m = l - 1
    cos, sin = math.cos, math.sin

    n = _PHASE_SAMPLES * l
    width = math.pi / n
    phi = [k * width for k in range(n)] + [math.pi]
    # the exact endpoint values; with c_1 = 0 both are zeros that are not roots
    values = [a] + [a * cos(l * x) + b * sin(l * x) + sin(x) * (c * sin(m * x) + d * cos(m * x)) for x in phi[1:-1]]
    values.append(a * (-1) ** l)
    signs = [(v > 0) - (v < 0) for v in values]
    roots = [x for x, v in zip(phi[1:-1], values[1:-1]) if v == 0]
    # [lo, hi, sign at lo, iterate] for each sign-change bracket
    brackets = [
        [phi[j], phi[j + 1], signs[j], 0.5 * (phi[j] + phi[j + 1])] for j in range(n) if signs[j] * signs[j + 1] < 0
    ]
    for _ in range(_PHASE_STEPS):
        done = True
        for bracket in brackets:
            lo, hi, s_lo, x = bracket
            cos_l, sin_l, cos_m, sin_m = cos(l * x), sin(l * x), cos(m * x), sin(m * x)
            cos_1, sin_1 = cos(x), sin(x)
            inner = c * sin_m + d * cos_m
            value = a * cos_l + b * sin_l + sin_1 * inner
            slope = l * (b * cos_l - a * sin_l) + cos_1 * inner + m * sin_1 * (c * cos_m - d * sin_m)
            if (value > 0) - (value < 0) == s_lo:
                lo = x
            else:
                hi = x
            # a zero slope, or an infinite or NaN quotient, bisects
            step = x - value / slope if slope else math.nan
            if not lo <= step <= hi:
                step = 0.5 * (lo + hi)
            done = done and abs(step - x) <= 2 * math.ulp(x)
            bracket[:] = lo, hi, s_lo, step
        if done:
            break
    return _cotangents(roots + [x for *_, x in brackets])


def _cotangents(angles: Iterable[float]) -> list[float]:
    """cot(phi) for each angle whose cotangent is a finite float."""
    out = []
    for phi in angles:
        s = math.sin(phi)
        if s:
            z = math.cos(phi) / s
            if math.isfinite(z):
                out.append(z)
    return out


# ---------------------------------------------------------------------------
# the order-l eigenfunction combination


@dataclass(frozen=True)
class Combination:
    """c_1 psi_{l,1} + c_2 psi_{l-1,2} (+ c_3 psi_{l-2,3} + c_4 psi_{l-3,4} for bi-Laplace).

    The psi are the monic eigenfunctions of the quadratic pencil for
    "laplace" and of the quartic pencil for "bilaplace".  Family f enters
    with degree l - f + 1 and is absent where that degree is below 1 (f = 1)
    or below 0 (f > 1).  coeffs holds c_1, c_2, ...; weights left off are
    zero.  A nonzero weight on an absent family, or more weights than
    families, raises ValueError.  The combination's nodal set is the crack
    it admits, and `roots` isolates it with seeds from the phase form of
    these same weights.
    """

    equation: str
    l: int
    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        n = self.family_count(self.equation)
        if len(self.coeffs) > n:
            raise ValueError(f"a {self.equation} combination has at most {n} coefficients, got {len(self.coeffs)}")
        for family, c in enumerate(self.coeffs, start=1):
            if c != 0 and family not in self.families:
                raise ValueError(f"family {family} has no degree-{self.l - family + 1} eigenfunction at k={self.l}")

    @staticmethod
    def family_count(equation: str) -> int:
        """2 eigenfunction families for "laplace", 4 for "bilaplace"."""
        if equation not in ("laplace", "bilaplace"):
            raise ValueError("equation must be 'laplace' or 'bilaplace'")
        return 2 if equation == "laplace" else 4

    @property
    def families(self) -> tuple[int, ...]:
        """The families present at order l, always 1, 2, ... in order."""
        n = self.family_count(self.equation)
        return tuple(f for f in range(1, n + 1) if self.l - f + 1 >= (1 if f == 1 else 0))

    def eigenfunction(self, family: int) -> RatPoly:
        """psi_{l-family+1,family}, the polynomial that c_family weights."""
        build = quadratic_eigenfunction if self.equation == "laplace" else quartic_eigenfunction
        return build(self.l - family + 1, family).poly

    @functools.cached_property
    def poly(self) -> RatPoly:
        """The combination, exactly: a float weight is taken as its exact binary value."""
        out = RatPoly.zero()
        for family, c in enumerate(self.coeffs, start=1):
            if c != 0:
                out = out + self.eigenfunction(family) * (c if _is_exact(c) else Fraction(float(c)))
        return out

    def roots(self) -> RootSet:
        """Every real root of poly, seeded from the phase form of coeffs."""
        return isolate_real_roots(self.poly, seeds=_phase_seeds(self.l, self.coeffs))


def transversality_check(pair: Eigenpair) -> bool:
    """True iff the eigenfunction has deg-many distinct real roots, hence all simple."""
    if pair.order != "quadratic":
        raise ValueError("transversality is asserted for quadratic eigenpairs")
    return count_real_roots(pair.poly) == pair.poly.degree


# ---------------------------------------------------------------------------
# crack configurations and admissibility


def _is_exact(value) -> bool:
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


@dataclass(frozen=True)
class CrackConfig:
    """Ordered crack slopes alpha_1 < ... < alpha_m."""

    alphas: tuple

    def __post_init__(self):
        alphas = tuple(self.alphas)
        object.__setattr__(self, "alphas", alphas)
        if not alphas:
            raise ValueError("a crack configuration needs at least one slope")
        for a in alphas:
            if not _is_exact(a) and not math.isfinite(a):
                raise ValueError(f"crack slope {a!r} is not finite")
        for a, b in zip(alphas, alphas[1:]):
            if not a < b:
                raise ValueError("crack slopes must be strictly increasing")

    @property
    def m(self) -> int:
        return len(self.alphas)

    @property
    def exact(self) -> bool:
        return all(_is_exact(a) for a in self.alphas)


@dataclass(frozen=True)
class AdmissibilityVerdict:
    """Outcome of the order-l admissibility test for one crack configuration."""

    l: int
    admissible: bool
    combo_coefficients: tuple | None
    nullspace_basis: tuple | None
    full_zero_set: RootSet | None
    consecutive_flag: bool | None
    exact: bool
    rank: int
    families: tuple[int, ...]


def _normalize_max_entry(vec: Sequence) -> tuple:
    biggest = max(vec, key=abs)
    return tuple(v / biggest for v in vec)


def _match_consecutive(alphas: Sequence, roots: Sequence[float], tol: float) -> bool | None:
    """Whether the alphas occupy consecutive positions in the ordered root list."""
    indices = []
    for a in alphas:
        target = float(a)
        close = [i for i, r in enumerate(roots) if abs(r - target) <= tol * max(1.0, abs(target))]
        if len(close) != 1:
            return None
        indices.append(close[0])
    indices.sort()
    return all(b - a == 1 for a, b in zip(indices, indices[1:]))


def _verdict_at(equation: str, config: CrackConfig, l: int, tol: float) -> AdmissibilityVerdict:
    """The order-l verdict: the kernel of the matrix of eigenfunction values at the slopes."""
    order = Combination(equation, l, (0,) * Combination.family_count(equation))
    polys = [order.eigenfunction(f) for f in order.families]
    if config.exact:
        matrix = [[p.eval(Fraction(a)) for p in polys] for a in config.alphas]
        kernel = rational_kernel(matrix, ncols=len(polys))
        rank = len(polys) - len(kernel)
        admissible = bool(kernel)
        basis = tuple(_normalize_max_entry(v) for v in kernel) if kernel else None
    else:
        import numpy as np

        matrix = np.array([[p.eval_float(float(a)) for p in polys] for a in config.alphas])
        u, sing, vt = np.linalg.svd(matrix)
        cutoff = tol * (sing[0] if sing.size and sing[0] > 0 else 1.0)
        null_rows = [vt[i] for i in range(len(polys)) if i >= sing.size or sing[i] < cutoff]
        rank = len(polys) - len(null_rows)
        admissible = bool(null_rows)
        basis = tuple(_normalize_max_entry(tuple(float(x) for x in row)) for row in null_rows) if null_rows else None

    combo = basis[0] if basis else None
    zero_set = None
    consecutive = None
    if combo is not None:
        # the families present are always 1..len(polys), so combo is c_1, c_2, ... in order
        lead = Combination(equation, l, combo)
        if lead.poly.degree > 0:
            zero_set = lead.roots()
            consecutive = _match_consecutive(config.alphas, zero_set.refined_roots, max(tol, 1e-9))
    return AdmissibilityVerdict(
        l=l,
        admissible=admissible,
        combo_coefficients=combo,
        nullspace_basis=basis,
        full_zero_set=zero_set,
        consecutive_flag=consecutive,
        exact=config.exact,
        rank=rank,
        families=order.families,
    )


def _check_admissibility(
    equation: str, config: CrackConfig, l_range: tuple[int, int], tol: float
) -> list[AdmissibilityVerdict]:
    _check_tol(tol)
    lo, hi = l_range
    if lo > hi:
        raise ValueError("empty l range")
    if lo < max(config.m, 1):
        raise ValueError(f"l range must start at or above max(m, 1) = {max(config.m, 1)}")
    return [_verdict_at(equation, config, l, tol) for l in range(lo, hi + 1)]


def check_admissibility_laplace(
    config: CrackConfig, l_range: tuple[int, int], tol: float = 1e-9
) -> list[AdmissibilityVerdict]:
    """Admissibility of the crack slopes against two-family combinations."""
    return _check_admissibility("laplace", config, l_range, tol)


def check_admissibility_bilaplace(
    config: CrackConfig, l_range: tuple[int, int], tol: float = 1e-9
) -> list[AdmissibilityVerdict]:
    """Admissibility against four-family combinations (shifted degrees)."""
    return _check_admissibility("bilaplace", config, l_range, tol)


# ---------------------------------------------------------------------------
# enumeration of admissible configurations


@dataclass(frozen=True)
class EnumeratedConfig:
    """An admissible crack configuration tagged with its generating order and ratio.

    ratio is the second-family weight relative to the first; None marks the
    projective endpoint where the first-family coefficient vanishes.
    """

    config: CrackConfig
    l: int
    ratio: float | None


def enumerate_admissible(m: int, l: int, ratios: Sequence) -> list[EnumeratedConfig]:
    """Emit every m-subset of consecutive roots of the sampled combinations.

    The combination at ratio r is psi_{l,1} + r * psi_{l-1,2}; the endpoint
    combination (first coefficient zero) is included separately because the
    ratio parameterization misses it.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if l < m:
        raise ValueError("need l >= m so the combination can have m zeros")
    jobs = [(float(r), Combination("laplace", l, (1, r))) for r in ratios]
    jobs.append((None, Combination("laplace", l, (0, 1))))
    out = []
    for ratio, combo in jobs:
        if combo.poly.degree < 1:
            continue
        roots = combo.roots().refined_roots
        for start in range(0, len(roots) - m + 1):
            window = roots[start : start + m]
            out.append(EnumeratedConfig(CrackConfig(tuple(window)), l, ratio))
    return out
