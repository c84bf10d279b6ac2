"""Real-root isolation and crack-admissibility decisions.

A `Combination`, the order-l weighted sum of the family eigenfunctions,
owns its polynomial and isolates its roots from seeds, one float guess per
real root, taken from the phase form of its own weights (closed-form
cotangents for Laplace, a float scan in the angle for bi-Laplace).  One
short dyadic separator between consecutive seeds, and the root bound at
either end, cut the line into gaps.  One certificate (`_certified_gaps`)
takes the separators, p's exact sign and an upper bound N on p's real
roots between the outer separators: alternating nonzero signs put an odd
number of roots in each gap, so with N gaps each holds exactly one simple
root, and no Sturm chain is built.  Seeds for every root give N = deg p.
Seeds that miss a complex pair leave fewer gaps: then the number of sign
variations V after the Moebius map of a run of consecutive gaps onto
(0, +inf) bounds the roots in the run from above, with their parity
(Descartes' rule of signs), and V equal to the run's number of gaps is its
N; a run that fails splits at its middle separator, and a single gap is
bisected until every piece has V <= 1.  An even or odd p = z^k q(z^2),
k <= 1, q(0) != 0 (split once), takes every exact sign as sign(x)^k times
that of q at x^2, a Horner of half the steps.  Without seeds, or when they
fail, such a p seeds itself from the Sturm chain of q, of half its degree:
the chain seeds q's roots w as p's own chain would seed p's, each w takes
one exact Newton step on q, and the positive ones give +-sqrt(w) (and 0
for k = 1); when q is square-free, that chain also gives N =
2 (V_q(0) - V_q(+inf)) + k, p's exact number of real roots, so a pair
+-iy on the imaginary axis (a root -y^2 of q) costs nothing more.  Any
other p, and any p that this does not isolate, builds p's own Sturm chain
over the integers (the remainder sequence of p and p',
`polyring._remainder_sequence`, scaled only by positive factors) once.
When the chain is normal (an element of every degree), its identities read
as a continued fraction of float ratios seed p's real roots themselves
(float bisection on the count of negative ratios, then Newton on p / p'),
and the same certificate, with N the chain's exact count of p's real roots
(V(-inf) - V(+inf)), accepts or rejects them, past complex pairs too.  Any
other outcome (repeated roots, an abnormal chain, a float overflow, a spent
evaluation budget, a failed certificate) falls back to exact bisection of
p's distinct roots on the chain from a power-of-two Fujiwara bound,
carrying the sign-variation count at every interval endpoint, into open
intervals with nonzero exact signs at both ends; with repeated roots the
chain ends at gcd(p, p'), whose own chains give the multiplicities.
Every root is refined by one seeded exact Newton: from its seed (the
caller's, q's, the chain's, or those of the square-free part's chain), or
from its interval's midpoint when there is none,
safeguarded by the bracket, and certified by exact opposite signs on either
side of the result, with exact bisection only where that certificate
fails.  Every point p is evaluated at is dyadic, num / 2^shift (a point
that is not raises), so one Horner with shifts gives every exact sign, and
exact Newton is that same loop with a slope accumulator, its iterate one
correctly rounded integer division.  Root counts read the remainder
sequence at infinity: of q, at 0 and +inf, for an even or odd p, and of p
otherwise.
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
from typing import Callable, Iterable, Sequence

from .linalg import rational_kernel
from .pencils import Eigenpair, quadratic_eigenfunction, quartic_eigenfunction
from .polyring import (
    RatPoly,
    _int_diff,
    _int_form,
    _int_horner,
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
    """Sign of p(num / 2^shift), shift >= 0, as that of 2^(shift deg p) p(num / 2^shift) by Horner with shifts."""
    acc = 0
    bits = 0
    for c in reversed(coeffs):
        acc = acc * num + (c << bits)
        bits += shift
    return (acc > 0) - (acc < 0)


def _parity_split(coeffs: list[int]) -> tuple[int, list[int]] | None:
    """(k, q) with p(z) = z^k q(z^2) and q(0) != 0, or None unless p's nonzero coefficients all sit at degrees of one parity."""
    k = next(i for i, c in enumerate(coeffs) if c)
    if any(coeffs[k + 1 :: 2]):
        return None
    return k, coeffs[k::2]


def _parity_sign(k: int, q: list[int]) -> Callable[[int, int], int]:
    """Exact signs of p(x) = x^k q(x^2), k <= 1, at x = num / 2^shift: sign(x)^k times that of q at num^2 / 2^(2 shift).

    The Horner with shifts of `_dyadic_sign` on q takes half the steps of one on p.
    """
    if k == 0:
        return lambda num, shift: _dyadic_sign(q, num * num, 2 * shift)
    return lambda num, shift: _dyadic_sign(q, num * num, 2 * shift) * ((num > 0) - (num < 0))


@dataclass(frozen=True)
class _SturmChain:
    """The Sturm chain of p and its remainder-sequence identities.

    polys are the remainder sequence of p and p' (`_remainder_sequence`):
    P_0 = p, P_1 = p' and P_{j+2} a positive multiple of -rem(P_j, P_{j+1}),
    each primitive, down to gcd(p, p').  identities[j] is (e, Q, kappa)
    with e P_j = Q P_{j+1} + kappa P_{j+2}, the pseudo-division that made
    P_{j+2}; `_chain_seeds` reads them as a float continued fraction.
    Exact signs of the elements come from Horner with shifts
    (`_variations_at`), as every other exact sign does.
    """

    polys: list[list[int]]
    identities: list[tuple[int, list[int], int]]


def _sturm_chain(coeffs: list[int]) -> _SturmChain:
    """Sturm chain of an integer polynomial.

    With repeated roots it ends at gcd(p, p') and still counts distinct
    roots at points that are not roots of p.
    """
    return _SturmChain(*_remainder_sequence(coeffs, _int_diff(coeffs)))


def _sign_variations(signs: Iterable[int]) -> int:
    nonzero = [s for s in signs if s]
    return sum(a != b for a, b in zip(nonzero, nonzero[1:]))


def _variations_at(chain: _SturmChain, point: Fraction) -> tuple[int, int]:
    """Sign of P_0 at the dyadic point and the chain's sign-variation count there, one `_dyadic_sign` per element."""
    num, shift = _dyadic(point)
    signs = [_dyadic_sign(q, num, shift) for q in chain.polys]
    return signs[0], _sign_variations(signs)


def count_real_roots(p: RatPoly) -> int:
    """Exact number of distinct real roots of p, by Sturm's theorem.

    An even or odd p, z^k q(z^2) with q(0) != 0 (`_parity_split`), counts on
    the chain of q, of half p's degree: its roots are the square roots
    +-sqrt(w) of q's positive roots w, and 0 when k > 0, so it has
    2 (V_q(0) - V_q(+inf)) + [k > 0] distinct real roots.  Any other p
    counts on its own chain over the whole line.
    """
    if p.is_zero():
        raise ValueError("the zero polynomial has no root count")
    if p.degree == 0:
        return 0
    coeffs = integer_coefficients(p)
    split = _parity_split(coeffs)
    if split is None:
        return _distinct_real_roots(_sturm_chain(coeffs).polys)
    k, q = split
    return 2 * _positive_roots(_sturm_chain(q).polys) + (k > 0)


def _positive_roots(polys: list[list[int]]) -> int:
    """The Sturm count over (0, +inf), V(0) - V(+inf), for a chain whose first element is nonzero at 0."""
    at_zero = _sign_variations((c[0] > 0) - (c[0] < 0) for c in polys)
    at_plus = _sign_variations(1 if c[-1] > 0 else -1 for c in polys)
    return at_zero - at_plus


def _distinct_real_roots(polys: list[list[int]]) -> int:
    """The Sturm count over the whole line: sign variations of the chain at -inf minus those at +inf."""
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
    """Disjoint open intervals each holding exactly one distinct real root of chain.polys[0].

    chain is the Sturm chain of p, square-free or not.  Each stack entry
    (lo, V(lo), hi, V(hi)) carries the sign-variation counts of its
    endpoints, which are never roots of p, so V(lo) - V(hi) distinct roots
    lie in (lo, hi) and every bisection point costs one exact sign per
    chain element (`_variations_at`).  A bisection point that is a root of
    p moves halfway toward lo until it is not, so p has a nonzero exact
    sign at both ends of every interval.  Every point is dyadic: the bound
    is a power of two, and midpoints halve.
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
        while sign == 0:
            mid = (lo + mid) / 2
            sign, v_mid = _variations_at(chain, mid)
        stack.append((lo, v_lo, mid, v_mid))
        stack.append((mid, v_mid, hi, v_hi))
    return sorted(out)


def _root_in(chain: _SturmChain, lo: Fraction, hi: Fraction) -> bool:
    """Whether chain.polys[0] has a root in (lo, hi), for ends that are not roots."""
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


def _float_seeds(seeds: Iterable) -> list[float] | None:
    """float(s) of every seed, sorted; None, a failed certificate, if one has no float value."""
    try:
        return sorted(float(s) for s in seeds)
    except (TypeError, ValueError, OverflowError):
        return None


def _separators(seeds: Sequence[float], bound: Fraction) -> list[Fraction] | None:
    """-bound, one short dyadic in the middle half of each gap between sorted seeds, and bound.

    None unless there is a seed, every seed is finite, and the separators
    are strictly increasing (seeds out of order, or outside (-bound, bound)).
    """
    if not seeds or not all(math.isfinite(s) for s in seeds):
        return None
    seeds = sorted(seeds)
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
    return seps


def _certified_gaps(
    seps: Sequence[Fraction], sign: Callable[[int, int], int], count: int
) -> list[tuple[Fraction, Fraction]] | None:
    """The gaps between consecutive separators, each certified to hold exactly one simple root of p, or None.

    count is an upper bound on the real roots of p, with multiplicity, in
    (seps[0], seps[-1]).  If p is nonzero at every separator with
    alternating signs, each gap holds an odd number of roots, so at least
    one; when there are count gaps, each holds exactly one and it is
    simple.  Any other outcome (another number of gaps, a zero or a sign
    that fails to alternate) returns None.  sign(num, shift) is p's exact
    sign at num / 2^shift: `_dyadic_sign` on p's coefficients, or
    `_parity_sign` on its half-degree part.  The count is checked first, so
    a wrong one costs no sign.
    """
    if len(seps) - 1 != count:
        return None
    last = sign(*_dyadic(seps[0]))
    for x in seps[1:]:
        nxt = sign(*_dyadic(x))
        if last == 0 or nxt != -last:
            return None
        last = nxt
    return list(zip(seps, seps[1:]))


def _descartes_bound(coeffs: list[int], lo: Fraction, hi: Fraction) -> int:
    """Sign variations of (1 + x)^n p((lo + hi x) / (1 + x)), n = deg p, for dyadic lo < hi.

    The Moebius map takes (0, +inf) onto (lo, hi), so by Descartes' rule of
    signs the count is at least the number of roots of p in (lo, hi),
    counted with multiplicity, and of the same parity when neither end is
    a root (Collins & Akritas, SYMSAC 1976).  In integers over 2^shift:
    2^(shift n) p((a + y) / 2^shift) by a Taylor shift at a = lo 2^shift,
    y scaled by d = (hi - lo) 2^shift, the coefficients reversed, and a
    Taylor shift at 1.
    """
    a, s = _dyadic(lo)
    b, t = _dyadic(hi)
    shift = max(s, t)
    a, d = a << (shift - s), (b << (shift - t)) - (a << (shift - s))
    n = len(coeffs) - 1
    c = [ck << (shift * (n - k)) for k, ck in enumerate(coeffs)]
    if a:
        for i in range(n):
            for j in range(n - 1, i - 1, -1):
                c[j] += a * c[j + 1]
    power = 1
    for k in range(1, n + 1):
        power *= d
        c[k] *= power
    c.reverse()
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            c[j] += c[j + 1]
    return _sign_variations((x > 0) - (x < 0) for x in c)


# Descartes tests in one seeded isolation past a complex pair before it
# gives up and the Sturm path isolates instead; the bi-Laplace combinations
# of the crack sweeps take 3 to 13
_DESCARTES_TESTS = 64


def _descartes_gaps(
    coeffs: list[int], seps: list[Fraction], sign: Callable[[int, int], int]
) -> list[tuple[int, Fraction, Fraction]] | None:
    """(i, lo, hi) for every real root of p, (lo, hi) isolating it within gap i of seps; or None.

    seps separate seeds that miss some of p's roots, most often the two of
    a complex pair.  A run of consecutive gaps, the whole line first, takes
    the Descartes bound V of its ends (`_descartes_bound`).  V equal to the
    run's number of gaps is the count of `_certified_gaps`: alternating
    signs then leave one simple root in each gap.  Otherwise the run splits
    at its middle separator.  A single gap goes on only if p has opposite
    nonzero signs at its ends, so that it holds an odd number of roots and
    none on its ends; otherwise the separators fail to alternate and the
    answer is None, as after _DESCARTES_TESTS tests.  The gap, and each
    piece of it, with V = 0 holds no root and with V = 1 exactly one; with
    V >= 2 it is bisected, a midpoint that is a root of p moving halfway
    toward lo as in `_isolate`.
    """
    out: list[tuple[int, Fraction, Fraction]] = []
    # (i, run, piece): the run's first gap is gap i of seps; a piece lies within gap i
    stack: list[tuple[int, list[Fraction], bool]] = [(0, seps, False)]
    for _ in range(_DESCARTES_TESTS):
        if not stack:
            return out
        i, run, piece = stack.pop()
        v = _descartes_bound(coeffs, run[0], run[-1])
        if v == 0 and piece:
            continue
        gaps = _certified_gaps(run, sign, v)
        if gaps is not None:
            out += [(i + j, lo, hi) for j, (lo, hi) in enumerate(gaps)]
        elif len(run) > 2:
            mid = len(run) // 2
            stack += [(i + mid, run[mid:], False), (i, run[: mid + 1], False)]
        elif not piece and sign(*_dyadic(run[0])) * sign(*_dyadic(run[1])) >= 0:
            return None
        else:
            lo, hi = run
            mid = (lo + hi) / 2
            while sign(*_dyadic(mid)) == 0:
                mid = (lo + mid) / 2
            stack += [(i, [mid, hi], True), (i, [lo, mid], True)]
    return None if stack else out


# continued-fraction evaluations per root before `_chain_seeds` gives up;
# psi_{l,f} takes about 8 (bisection to isolation, then Newton)
_CF_EVALS = 64
# the float bisection splits (lo, hi) at lo + _CF_SPLIT (hi - lo), a point
# with a long mantissa, so that a short dyadic root (0, 1, -1/2, ...) does
# not end up on a bracket end: Newton steps toward such an end overshoot it
# by rounding and bisect instead, leaving the guess short of float
# resolution (psi_{70,1}'s root 1 came out 14.7 digits accurate, not 15.7)
_CF_SPLIT = 0.4711
# stands in for a zero ratio r_{j+1} as a divisor: P_{j+1}(x) = 0, so P_j and
# P_{j+2} have opposite signs, r_j = ... + gamma / _TINY is negative (gamma < 0),
# and the three elements count the one variation they have
_TINY = 2.0**-1022


def _float_ratio(a: int, b: int, shift: int) -> float:
    """a / (b 2^shift), correctly rounded; OverflowError beyond the float range."""
    return (a << -shift) / b if shift < 0 else a / (b << shift)


def _chain_seeds(chain: _SturmChain) -> list[float] | None:
    """One float guess per distinct real root of p from its own Sturm chain, if the chain is normal.

    A normal chain has an element of every degree n, ..., 0: every
    quotient is linear, the chain ends in a constant, and p is square-free.
    The identities e P_j = Q P_{j+1} + kappa P_{j+2} then make the ratios
    r_j = P_j / P_{j+1} a continued fraction,
    r_j = (Q(x) + kappa / r_{j+1}) / e down to r_{n-1} = P_{n-1} / P_n.  Each
    r_j is kept over a power of two near lc(P_j) / lc(P_{j+1}), so that the
    one float triple per identity stays in range however large the integers,
    and the fraction is evaluated bottom-up in floats (Gautschi, SIAM Rev.
    9, 1967).  r_j < 0 exactly where P_j and P_{j+1} differ in sign, so the
    number of negative ratios is the Sturm count (Barth, Martin & Wilkinson,
    Numer. Math. 9, 1967): float bisection from the root bound isolates
    each of the chain's own count of real roots (deg p of them when all are
    real, fewer past a complex pair), and Newton x - c r_0(x), with
    c r_0 = p / p' (P_1 is p' over its content), safeguarded by the count as
    in rtsafe, refines it.  None when the chain is not normal (p has
    repeated roots, or a remainder drops more than one degree), an identity
    overflows a float, a ratio is NaN, the counts contradict each other, or
    the evaluations exceed _CF_EVALS per degree.  The guesses carry no
    guarantee: `_certified_gaps` certifies them, or exact Sturm bisection
    isolates the roots they start refinement from.
    """
    polys = chain.polys
    n = len(polys[0]) - 1
    if len(polys) != n + 1:
        return None
    count = _distinct_real_roots(polys)
    lead = [abs(q[-1]).bit_length() for q in polys]
    m = [a - b for a, b in zip(lead, lead[1:])]
    (b0, b1), (last,) = polys[-2:]
    try:
        steps = [(_float_ratio(b1, last, m[-1]), _float_ratio(b0, last, m[-1]), 0.0)]
        for j in range(n - 2, -1, -1):
            e, (q0, q1), kappa = chain.identities[j]
            steps.append((_float_ratio(q1, e, m[j]), _float_ratio(q0, e, m[j]), _float_ratio(kappa, e, m[j] + m[j + 1])))
        c = _float_ratio(polys[1][-1], n * polys[0][-1], -m[0])
        bound = float(_root_bound(polys[0]))
    except OverflowError:
        return None
    budget = _CF_EVALS * n

    def ratio(x: float) -> tuple[float, int]:
        """r_0(x) over its power of two and the number of negative ratios at x."""
        nonlocal budget
        budget -= 1
        r, negative = math.inf, 0
        for a, b, g in steps:
            r = a * x + b + g / (r or _TINY)
            negative += r < 0
        return r, negative

    v_lo, v_hi = ratio(-bound)[1], ratio(bound)[1]
    if v_lo - v_hi != count:
        return None
    seeds: list[float] = []
    stack = [(-bound, v_lo, bound, v_hi)]
    while stack:
        lo, v_lo, hi, v_hi = stack.pop()
        if v_lo - v_hi > 1:
            x = lo * (1 - _CF_SPLIT) + hi * _CF_SPLIT
            r, v = ratio(x)
            if r != r or not (lo < x < hi and v_hi <= v <= v_lo) or budget < 0:
                return None
            stack += [(lo, v_lo, x, v), (x, v, hi, v_hi)]
        elif v_lo - v_hi == 1:
            x = lo / 2 + hi / 2
            dx = dx_old = hi - lo
            polish = False
            while True:
                r, v = ratio(x)
                if r != r or budget < 0:
                    return None
                # the one root lies in (lo, hi]: in (x, hi] if none lies in (lo, x]
                lo, hi = (x, hi) if v == v_lo else (lo, x)
                # a step out of [lo, hi], or longer than half the step before
                # last, bisects instead
                nx = x - c * r
                if not (lo <= nx <= hi and abs(nx - x) <= dx_old / 2):
                    nx = lo / 2 + hi / 2
                dx_old, dx = dx, abs(nx - x)
                x = nx
                if polish:
                    break
                # one more step after a short one, measured against
                # max(|x|, 1) as the refinement goal is, reaches float resolution
                polish = dx <= _FLOAT_STEP * max(abs(x), 1.0)
            seeds.append(x)
    return sorted(seeds)


# a Newton step this short relative to max(|x|, 1) leaves an error near float
# resolution: `_chain_seeds` takes one more step, and `_refine_root` tries the
# r +- h certificate of its iterate
_FLOAT_STEP = 2.0**-26


def _exact_newton(coeffs: list[int], x: float) -> tuple[int, float | None]:
    """Exact sign of p(x) and the Newton iterate from x, correctly rounded to a float.

    With x = num / 2^s, the Horner with shifts of `_dyadic_sign` and a
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


def _sign_certificate(sign: Callable[[int, int], int], r: float, left: int, right: int, shift: int) -> float | None:
    """r if p has opposite exact signs at left / 2^shift and right / 2^shift, a zero there, or None."""
    s_left, s_right = sign(left, shift), sign(right, shift)
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


def _refine_root(
    coeffs: list[int],
    lo: Fraction,
    hi: Fraction,
    tol: float,
    start: float | None = None,
    sign: Callable[[int, int], int] | None = None,
) -> float:
    """Refine the one root in an open isolating interval to a float within goal/2 of it.

    p has nonzero exact signs at lo and hi.  First the end of (lo, hi)
    farther from 0 is cut to a sixteenth, by exact signs, while the root
    lies within that sixteenth, so that
    goal = tol/8 * max(|lo|, |hi|, 1) <= 2 tol max(|root|, 1) however wide
    the isolating interval (one in [-16, 16], or not containing a
    sixteenth of its far end, costs no sign).  With h = 2^k in
    (goal/8, goal/2], exact opposite signs at r - h and r + h, both strictly
    inside (lo, hi), certify r (a zero sign there is the root itself); a
    start is tried by that certificate first.  Then one exact Newton runs
    from the start, if it lies inside (lo, hi), or from the midpoint.  Each
    iterate is correctly rounded to a float, and its exact sign narrows the
    bracket.  A step that leaves the bracket, or is longer than half the
    step before last (the rule of rtsafe, as in `_chain_seeds`), bisects the
    bracket instead.  After a step shorter than _FLOAT_STEP relative to
    max(|r|, 1) the iterate is tried by the certificate.  Newton ends on a
    certificate, on an iterate that is not strictly inside the bracket (it
    has stalled at float resolution) or on a bracket narrower than goal;
    then the bracket is bisected exactly down to width goal.  Exact signs
    come from sign, as in `_certified_gaps`; Newton runs on coeffs.
    """
    if sign is None:
        sign = functools.partial(_dyadic_sign, coeffs)
    while hi > 16 or lo < -16:
        far = hi if hi > -lo else lo
        cut = far / 16
        if not lo < cut < hi:
            break
        s_cut, s_far = (sign(*_dyadic(x)) for x in (cut, far))
        if s_cut == 0:
            return _float(cut)
        if s_cut != s_far:
            break
        lo, hi = (lo, cut) if far == hi else (cut, hi)
    goal_num, goal_den = _goal(lo, hi, tol)
    k = goal_num.bit_length() - goal_den.bit_length() - 2
    points = None if start is None else _certificate_points(start, k, lo, hi)
    if points is not None:
        found = _sign_certificate(sign, start, *points)
        if found is not None:
            return found
    goal = Fraction(goal_num, goal_den)
    slo = sign(*_dyadic(lo))
    r = start if start is not None and lo < Fraction(start) < hi else _float((lo + hi) / 2)
    a, b = lo, hi
    dx = dx_old = math.inf
    while True:
        x = Fraction(r)
        if not a < x < b:
            break
        sx, step = _exact_newton(coeffs, r)
        if sx == 0:
            return r
        a, b = (x, b) if sx == slo else (a, x)
        if step is None or not (a <= step <= b and abs(step - r) <= dx_old / 2):
            step = _float((a + b) / 2)
        dx_old, dx = dx, abs(step - r)
        r = step
        if b - a <= goal:
            break
        if dx <= _FLOAT_STEP * max(abs(r), 1.0):
            points = _certificate_points(r, k, lo, hi)
            found = None if points is None else _sign_certificate(sign, r, *points)
            if found is not None:
                return found
    while b - a > goal:
        mid = (a + b) / 2
        smid = sign(*_dyadic(mid))
        if smid == 0:
            return _float(mid)
        if smid == slo:
            a = mid
        else:
            b = mid
    return _float((a + b) / 2)


def _parity_seeds(k: int, q: list[int]) -> tuple[list[float], int] | None:
    """Float guesses of the real roots of p(z) = z^k q(z^2), k <= 1, deg q >= 1, and their exact number, or None.

    Both come from the Sturm chain of q, of half p's degree.  When it ends
    in a nonzero constant, q is square-free, and with q(0) != 0 so is p:
    its real roots are the square roots +-sqrt(w) of q's positive roots w,
    and 0 when k = 1, 2 (V_q(0) - V_q(+inf)) + k of them, all simple.  q's
    chain seeds (`_chain_seeds`), at a quarter of the float work of p's,
    guess the w; each takes one exact Newton step on q, which brings a small
    w to full relative accuracy, and the positive ones give -sqrt(w) and
    sqrt(w).  A nonpositive w is a pair of roots of p off the real line.
    None when q has a repeated root or its chain seeds none.  The guesses
    carry no guarantee: `_certified_gaps` certifies them on p against the
    count.
    """
    chain = _sturm_chain(q)
    if len(chain.polys[-1]) != 1:
        return None
    ws = _chain_seeds(chain)
    if ws is None:
        return None
    polished = []
    for w in ws:
        step = _exact_newton(q, w)[1]
        polished.append(w if step is None else step)
    roots = [math.sqrt(w) for w in polished if w > 0]
    return sorted([-r for r in roots] + [0.0] * k + roots), 2 * _positive_roots(chain.polys) + k


@dataclass(frozen=True)
class RootSet:
    """All real roots of a polynomial: exact isolation and multiplicities, certified floats.

    Each isolating interval (lo, hi) is open and holds exactly one distinct
    real root: lo < hi, and the square-free part of p has nonzero, opposite
    exact signs at lo and hi.  Each refined root lies within
    tol * max(|root|, 1), and within tol/16 * max(|lo|, |hi|, 1), up to the
    rounding to a float, of that root.  Seeded and unseeded isolation of one
    polynomial give the same counts and multiplicities and roots within that
    bound, but not always the same intervals: seeds that certify give their
    own gaps, or pieces of them past a complex pair; without seeds, an even
    or odd p gives the gaps of q's seeds, and another p with a normal chain
    the gaps of its chain's seeds, complex pairs or not; and the Sturm path
    gives the intervals of its bisection, with roots that differ only where
    the caller's seeds, not the chain's, start the refinement.
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

    p is split once: an even or odd p = z^k q(z^2), k <= 1 (`_parity_split`),
    takes every exact sign on q (`_parity_sign`).  seeds, guesses of p's real
    roots, each taken as float(s), are cut apart by separators
    (`_separators`).  With deg p of them, one exact sign per separator
    certifies that all roots are real and simple (`_certified_gaps` with
    N = deg p).  With deg p - 2j of them, the missing roots being a complex
    pair or more, Descartes bounds on runs of their gaps certify them
    instead (`_descartes_gaps`).  Each root is then refined from its seed.
    A seed with no finite float value fails.  When the seeds fail, or
    without seeds, an even or odd p with deg q >= 1 is seeded from q's chain
    (`_parity_seeds`), and those seeds go through the same certificate,
    with N the real-root count of that chain, and the same refinement.
    Failing that, p's own Sturm chain is built; if it is normal, it seeds
    p's real roots itself (`_chain_seeds`), and they go through the same
    certificate, with N the chain's real-root count, and the same
    refinement.  Otherwise the chain isolates p's distinct roots by exact
    bisection (`_isolate`) and ends at
    g_1 = gcd(p, p').  If g_1 is not constant, roots are refined on the
    primitive part of p / g_1, and the tower g_{i+1} = gcd(g_i, g_i'), each
    the last element of g_i's chain, counts multiplicities: a root of
    multiplicity m is a root of exactly g_1 ... g_{m-1} (`_root_in`).  Each
    interval's refinement starts from the first of p's chain seeds, the
    caller's seeds and the chain seeds of p / g_1 to hold as many seeds as
    there are intervals, zipped in order; without one, or from a seed
    outside its interval, it starts at the midpoint (`_refine_root`).  A
    tol outside (0, inf), or a real root beyond the float range, raises
    ValueError.
    """
    _check_tol(tol)
    if p.is_zero():
        raise ValueError("cannot isolate roots of the zero polynomial")
    if p.degree == 0:
        return RootSet(p, (), (), ())
    coeffs = integer_coefficients(p)
    n = len(coeffs) - 1
    split = _parity_split(coeffs)
    # k >= 2 makes 0 a repeated root
    parity = split is not None and split[0] <= 1
    sign = _parity_sign(*split) if parity else functools.partial(_dyadic_sign, coeffs)
    bound = _root_bound(coeffs)
    seeds = None if seeds is None else _float_seeds(seeds)
    seps = None if seeds is None else _separators(seeds, bound)
    if seps is not None:
        gaps = _certified_gaps(seps, sign, n)
        if gaps is not None:
            return _refined(p, coeffs, gaps, seeds, tol, sign)
        if len(seeds) < n and (n - len(seeds)) % 2 == 0:
            found = _descartes_gaps(coeffs, seps, sign)
            if found is not None:
                gaps = [(lo, hi) for _, lo, hi in found]
                return _refined(p, coeffs, gaps, [seeds[i] for i, _, _ in found], tol, sign)
    # a constant q makes p linear
    if parity and len(split[1]) > 1:
        own = _parity_seeds(*split)
        if own is not None:
            own, count = own
            if count == 0:
                return RootSet(p, (), (), ())
            seps = _separators(own, bound)
            gaps = None if seps is None else _certified_gaps(seps, sign, count)
            if gaps is not None:
                return _refined(p, coeffs, gaps, own, tol, sign)
    chains = [_sturm_chain(coeffs)]
    own = _chain_seeds(chains[0])
    seps = None if own is None else _separators(own, bound)
    # a normal chain makes p square-free, so its count of distinct real roots is N
    gaps = None if seps is None else _certified_gaps(seps, sign, _distinct_real_roots(chains[0].polys))
    if gaps is not None:
        return _refined(p, coeffs, gaps, own, tol, sign)
    while len(chains[-1].polys[-1]) > 1:
        chains.append(_sturm_chain(chains[-1].polys[-1]))
    chain, *tower = chains
    intervals = _isolate(chain)
    mults = tuple(1 + sum(_root_in(c, lo, hi) for c in tower) for lo, hi in intervals)
    starts = next((s for s in (own, seeds) if s is not None and len(s) == len(intervals)), None)
    if tower:
        coeffs = _int_primitive(_pseudo_divide(coeffs, chain.polys[-1])[1])
        if starts is None:
            starts = _chain_seeds(_sturm_chain(coeffs))
    if starts is None or len(starts) != len(intervals):
        starts = [None] * len(intervals)
    roots = tuple(_refine_root(coeffs, lo, hi, tol, s) for (lo, hi), s in zip(intervals, starts))
    return RootSet(p, tuple(intervals), roots, mults)


def _refined(
    p: RatPoly,
    coeffs: list[int],
    gaps: list[tuple[Fraction, Fraction]],
    starts: Sequence[float],
    tol: float,
    sign: Callable[[int, int], int],
) -> RootSet:
    """The RootSet of simple roots isolated by gaps, each refined from its start (`_refine_root`)."""
    roots = tuple(_refine_root(coeffs, lo, hi, tol, s, sign) for (lo, hi), s in zip(gaps, starts))
    return RootSet(p, tuple(gaps), roots, (1,) * len(gaps))


# phase-scan samples per unit of l: two roots of a bi-Laplace combination
# closer than pi / (_PHASE_SAMPLES * l) in angle can share a sample interval
# with no sign change; the scan misses both, and `_descartes_gaps` bisects
# their seed gap until it finds them, or isolation falls back to the Sturm path
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
    zero.  A nonzero weight on an absent family, a float weight that is not
    finite, or more weights than families, raises ValueError.  The
    combination's nodal set is the crack it admits, and `roots` isolates it
    with seeds from the phase form of these same weights.
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
            if not _is_exact(c) and not math.isfinite(c):
                raise ValueError(f"the family {family} weight {c!r} is not finite")
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
        """The combination, exactly: a float weight is taken as its exact binary value.

        Each nonzero weight enters as its integer ratio and each eigenfunction
        as its integer numerators over their common denominator, so the sum
        runs over the integers, over one common denominator, and only the
        coefficients of the result are `Fraction`s.
        """
        terms = []
        for family, c in enumerate(self.coeffs, start=1):
            if c != 0:
                num, den = (c if _is_exact(c) else float(c)).as_integer_ratio()
                nums, d = _int_form(self.eigenfunction(family))
                terms.append((num, den * d, nums))
        common = math.lcm(*(den for _, den, _ in terms))
        total: list[int] = []
        for num, den, nums in terms:
            scale = num * (common // den)
            total += [0] * (len(nums) - len(total))
            for k, v in enumerate(nums):
                if v:
                    total[k] += scale * v
        return RatPoly(Fraction(v, common) for v in total)

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
        # row j holds psi_f(a/b) = H_f / (d_f b^n_f), with H_f the integer Horner
        # sum of psi_f's numerators; scaled by the positive lcm(d_f) b^max(n_f),
        # which leaves the kernel as it is, every entry is an integer
        forms = [_int_form(p) for p in polys]
        common = math.lcm(*(d for _, d in forms))
        top = max(len(nums) for nums, _ in forms)
        matrix = []
        for alpha in config.alphas:
            a, b = alpha.as_integer_ratio()
            matrix.append([_int_horner(nums, a, b) * (common // d) * b ** (top - len(nums)) for nums, d in forms])
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
