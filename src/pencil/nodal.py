"""Real-root isolation and crack-admissibility decisions.

A `Combination`, the order-l weighted sum of the family eigenfunctions,
owns its polynomial and isolates its roots from seeds, one float guess per
root, taken from the phase form of its own weights (closed-form cotangents
for Laplace, a float scan in the angle for bi-Laplace).  Exact signs at
one short dyadic separator between consecutive seeds then certify, when
they alternate degree-many times, that every root is real and simple and
isolated by its gap; no Sturm chain is built.  Otherwise, and without
seeds, isolation uses exact Sturm sequences over the integers (primitive
pseudo-remainders, so only positive rescalings ever touch the chain
signs).  The chain of p itself shows whether p is square-free; if so it
bisects p's roots from a power-of-two Fujiwara bound, carrying the
sign-variation count at every interval endpoint.  Otherwise the chain of the square-free part does, and
multiplicities come from the signs of the Yun factors.  Each isolated root
is refined by certified Newton: a seed or safeguarded float Newton, exact
Newton steps, and exact opposite signs on either side of the result, with
exact bisection only where that certificate fails.  Root counts use the
chain of p.  Admissibility of a slope tuple at expansion order l is a
nullspace question for the matrix of eigenfunction values at the slopes:
exact over the rationals, SVD-thresholded for floating input.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .linalg import rational_kernel
from .pencils import Eigenpair, quadratic_eigenfunction, quartic_eigenfunction
from .polyring import (
    RatPoly,
    _int_diff,
    _int_primitive,
    _signed_prem,
    integer_coefficients,
    square_free_decomposition,
)
# not called here; perfbench/tracing.py wraps them under these names on this module
from .polyring import poly_gcd, square_free_part  # noqa: F401

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


def _int_eval_sign(coeffs: Sequence[int], point: Fraction) -> int:
    """Sign of p(point) for integer coefficients: integer Horner on b^n p(a/b)."""
    a, b = point.numerator, point.denominator
    acc = 0
    bp = 1
    for c in reversed(coeffs):
        acc = acc * a + c * bp
        bp *= b
    return (acc > 0) - (acc < 0)


def _sturm_chain(coeffs: list[int]) -> list[list[int]]:
    """Sturm chain of an integer polynomial, primitive at each step.

    With repeated roots it ends at gcd(p, p') and still counts distinct roots.
    """
    chain = [_int_primitive(list(coeffs))]
    d = _int_primitive(_int_diff(chain[0]))
    if d:
        chain.append(d)
    while len(chain[-1]) > 1:
        rem = _signed_prem(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-c for c in rem])
    return chain


def _sign_variations(signs: Iterable[int]) -> int:
    out = 0
    prev = 0
    for s in signs:
        if s == 0:
            continue
        if prev != 0 and s != prev:
            out += 1
        prev = s
    return out


def _variations_at(chain: list[list[int]], point: Fraction) -> tuple[int, int]:
    """Sign of chain[0] at point and the chain's sign-variation count there."""
    signs = [_int_eval_sign(p, point) for p in chain]
    return signs[0], _sign_variations(signs)


def _variations_at_infinity(chain: list[list[int]], negative: bool) -> int:
    signs = []
    for p in chain:
        lead = (p[-1] > 0) - (p[-1] < 0)
        if negative and (len(p) - 1) % 2:
            lead = -lead
        signs.append(lead)
    return _sign_variations(signs)


def count_real_roots(p: RatPoly) -> int:
    """Exact number of distinct real roots of p (Sturm's theorem on p's own chain)."""
    if p.is_zero():
        raise ValueError("the zero polynomial has no root count")
    if p.degree == 0:
        return 0
    chain = _sturm_chain(integer_coefficients(p))
    return _variations_at_infinity(chain, True) - _variations_at_infinity(chain, False)


def _root_bound(coeffs: Sequence[int]) -> Fraction:
    """Fujiwara bound rounded up to a power of two: above every |root|.

    Every root has |z| <= 2 max_k |a_k/a_n|^(1/(n-k)), and
    |a_k/a_n| < 2^(bitlen a_k - bitlen a_n + 1).
    """
    n = len(coeffs) - 1
    top = abs(coeffs[-1]).bit_length()
    exponents = [-((top - abs(c).bit_length() - 1) // (n - k)) for k, c in enumerate(coeffs[:-1]) if c]
    return Fraction(2) ** (1 + max(exponents, default=0))


def _isolate_square_free(chain: list[list[int]]) -> list[tuple[Fraction, Fraction]]:
    """Disjoint rational intervals each holding exactly one real root of chain[0].

    chain is the Sturm chain of a square-free polynomial.  Each stack entry
    (lo, V(lo), hi, V(hi)) carries the sign-variation counts of its
    endpoints, which are never roots, so V(lo) - V(hi) roots lie in (lo, hi)
    and every bisection point costs one chain evaluation.  Exact rational
    roots are returned as degenerate [r, r] intervals.
    """
    bound = _root_bound(chain[0])
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
    sign = _int_eval_sign(coeffs, seps[0])
    for x in seps[1:]:
        nxt = _int_eval_sign(coeffs, x)
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


def _exact_newton(coeffs: list[int], x: float) -> tuple[int, Fraction | None]:
    """Exact sign of p(x) and the Newton iterate from the dyadic x = a/b.

    The Horner sums give N = b^n p(x) and D = b^(n-1) p'(x), so the iterate
    is x - N / (b D); it is None when p'(x) = 0.
    """
    a, b = x.as_integer_ratio()
    n_acc = d_acc = 0
    bp = 1
    for c in reversed(coeffs):
        d_acc = d_acc * a + n_acc
        n_acc = n_acc * a + c * bp
        bp *= b
    sign = (n_acc > 0) - (n_acc < 0)
    return sign, (Fraction(a * d_acc - n_acc, b * d_acc) if d_acc else None)


def _sign_certificate(coeffs: list[int], r: float, left: Fraction, right: Fraction) -> float | None:
    """r if p has opposite exact signs at left < r < right, a zero there, or None."""
    s_left, s_right = _int_eval_sign(coeffs, left), _int_eval_sign(coeffs, right)
    if s_left * s_right < 0:
        return r
    if s_left == 0:
        return float(left)
    if s_right == 0:
        return float(right)
    return None


def _refine_root(coeffs: list[int], lo: Fraction, hi: Fraction, tol: float, start: float | None = None) -> float:
    """Refine the one root in an isolating interval to a float within goal/2 of it.

    goal = tol/8 * max(|lo|, |hi|, 1).  A start inside (lo, hi) is tried
    first by the sign certificate below and then proposes the root; without
    one, float Newton proposes it.  Exact Newton steps polish it, each
    rounded to a float r, narrowing the bracket by the exact sign at its
    start and bisecting the bracket instead when it would leave it.  With h
    a power of two in (goal/8, goal/2], exact opposite signs at r - h and
    r + h, both strictly inside (lo, hi), certify r (a zero sign there is
    the root itself).  Without a certificate the bracket is bisected exactly
    down to width goal.
    """
    if lo == hi:
        return float(lo)
    goal = Fraction(tol if tol > 0 else 1e-12) / 8 * max(abs(lo), abs(hi), Fraction(1))
    half = Fraction(2) ** (goal.numerator.bit_length() - goal.denominator.bit_length() - 2)
    r = None
    x = None if start is None else Fraction(start)
    if x is not None and lo < x < hi:
        r = start
        left, right = x - half, x + half
        if lo < left and right < hi:
            found = _sign_certificate(coeffs, r, left, right)
            if found is not None:
                return found
    slo = _int_eval_sign(coeffs, lo)
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
            if step is None or not a < step < b:
                step = (a + b) / 2
            r, last = float(step), r
            if b - a <= goal:
                break
            if abs(r - last) > _CERTIFY_STEP * max(abs(r), 1.0):
                continue
            x = Fraction(r)
            left, right = x - half, x + half
            if not (lo < left and right < hi):
                break
            found = _sign_certificate(coeffs, r, left, right)
            if found is not None:
                return found
            if r == last:
                break
        lo, hi = a, b
    while hi - lo > goal:
        mid = (lo + hi) / 2
        smid = _int_eval_sign(coeffs, mid)
        if smid == 0:
            return float(mid)
        if smid == slo:
            lo = mid
        else:
            hi = mid
    return float((lo + hi) / 2)


@dataclass(frozen=True)
class RootSet:
    """All real roots of a polynomial: exact isolation and multiplicities, certified floats.

    Each isolating interval [lo, hi] holds exactly one distinct real root:
    the square-free part of p has exact opposite signs at lo and hi, or
    lo = hi is the root.  Each refined root lies within
    tol/16 * max(|lo|, |hi|, 1), up to the rounding to a float, of that
    root.  Seeded and unseeded isolation of one polynomial give the same
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


def isolate_real_roots(p: RatPoly, tol: float = 1e-12, seeds: Sequence[float] | None = None) -> RootSet:
    """Isolate and refine every real root of p with exact multiplicities.

    seeds, one float guess per root of p, let one exact sign per separator
    between them certify that all roots are real and simple
    (`_certified_gaps`); each root is then refined from its seed.  When the
    certificate fails, or without seeds, p's Sturm chain decides: if it
    ends in a constant, p is square-free and the chain isolates its roots.
    Otherwise the square-free part is the product of the Yun factors f_i of
    p = lc * prod f_i^i; these are coprime and square-free, so the one
    factor that changes sign across an isolating interval, or vanishes at a
    degenerate [r, r], owns its root, and i is the root's multiplicity.
    """
    if p.is_zero():
        raise ValueError("cannot isolate roots of the zero polynomial")
    if p.degree == 0:
        return RootSet(p, (), (), ())
    coeffs = integer_coefficients(p)
    gaps = None if seeds is None else _certified_gaps(coeffs, seeds)
    if gaps is not None:
        roots = tuple(_refine_root(coeffs, lo, hi, tol, s) for (lo, hi), s in zip(gaps, sorted(seeds)))
        return RootSet(p, tuple(gaps), roots, (1,) * len(gaps))
    chain = _sturm_chain(coeffs)
    if len(chain[-1]) == 1:
        intervals = _isolate_square_free(chain)
        mults = (1,) * len(intervals)
    else:
        factors = square_free_decomposition(p)
        coeffs = integer_coefficients(math.prod((f for f, _ in factors), start=RatPoly.one()))
        intervals = _isolate_square_free(_sturm_chain(coeffs))
        factor_ints = [(integer_coefficients(f), mult) for f, mult in factors]
        mults = tuple(
            next(mult for f, mult in factor_ints if _int_eval_sign(f, lo) * _int_eval_sign(f, hi) <= 0)
            for lo, hi in intervals
        )
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
    roots are cot((theta + pi/2 + k pi) / l).  Otherwise the sum is sampled
    on [0, pi], and Newton steps in phi, safeguarded by bisection, refine
    every sign-change bracket at once.  When c_1 = 0 the degree is below l
    and the endpoint zeros at phi = 0 and pi are not roots.  The guesses
    carry no guarantee: `isolate_real_roots` certifies them or falls back.
    """
    c1, c2, c3, c4 = (list(coeffs) + [0, 0, 0])[:4]
    if c3 == 0 and c4 == 0:
        if c1 == 0:
            phi = np.arange(1, l) * (math.pi / l)
        else:
            # t = theta + pi/2 = arg(i (c_1 + i c_2 / l)), taken in (0, pi)
            s = 1 if c1 > 0 else -1
            t = math.atan2(s * float(c1), -s * float(c2) / l)
            phi = (t + np.arange(l) * math.pi) / l
        return (np.cos(phi) / np.sin(phi)).tolist()
    a = float(c1)
    b = float(c2) / l + (3 * float(c4) / (l * (l - 1) * (l - 2)) if c4 else 0.0)
    c = float(c3) / (l - 1) if c3 else 0.0
    d = -3 * float(c4) / ((l - 1) * (l - 2)) if c4 else 0.0

    def form(phi):
        """The phase form and its derivative in phi."""
        cos_l, sin_l = np.cos(l * phi), np.sin(l * phi)
        cos_m, sin_m = np.cos((l - 1) * phi), np.sin((l - 1) * phi)
        cos_1, sin_1 = np.cos(phi), np.sin(phi)
        inner = c * sin_m + d * cos_m
        value = a * cos_l + b * sin_l + sin_1 * inner
        slope = l * (b * cos_l - a * sin_l) + cos_1 * inner + (l - 1) * sin_1 * (c * cos_m - d * sin_m)
        return value, slope

    phi = np.linspace(0.0, math.pi, _PHASE_SAMPLES * l + 1)
    values = form(phi)[0]
    # the exact endpoint values; with c_1 = 0 both are zeros that are not roots
    values[0], values[-1] = a, a * (-1) ** l
    sign = np.sign(values)
    exact = phi[1:-1][sign[1:-1] == 0]
    j = np.flatnonzero(sign[:-1] * sign[1:] < 0)
    lo, hi, s_lo = phi[j], phi[j + 1], sign[j]
    x = 0.5 * (lo + hi)
    for _ in range(_PHASE_STEPS):
        value, slope = form(x)
        below = np.sign(value) == s_lo
        lo, hi = np.where(below, x, lo), np.where(below, hi, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = x - value / slope
        step = np.where((lo <= step) & (step <= hi), step, 0.5 * (lo + hi))
        done = np.all(np.abs(step - x) <= 2 * np.spacing(x))
        x = step
        if done:
            break
    phi = np.concatenate((exact, x))
    return (np.cos(phi) / np.sin(phi)).tolist()


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
