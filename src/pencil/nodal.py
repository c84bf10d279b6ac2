"""Real-root isolation and crack-admissibility decisions.

A `Combination`, the order-l weighted sum of the family eigenfunctions,
owns its polynomial and isolates its roots from seeds, one float guess per
real root, taken from the phase form of its own weights with no sampling
(`_phase_seeds`): closed-form cotangents for Laplace; for bi-Laplace, the
crossings of the phase of a rotating ellipse with its levels, one
safeguarded Newton solve per root, in the case (all l roots real, l - 2 of
them, a closed form, or an arc where the phase turns back) that the exact
weights decide.  An even or odd combination gets seeds on the positive
half line only, with 0.0 for an exact root 0.

`isolate_real_roots` climbs one ladder (`_ladder`) on one line (`_Line`).
An even or odd p = z^k q(z^2), k <= 1, q(0) != 0, is isolated on the
positive half line (s0, B), every exact sign of p taken on q at x^2, and
its negative roots are the mirror images -r on (-hi, -lo), with the exact
root 0 on (-s0, s0) for k = 1.  Any other p is isolated on the whole line
(-B, B).  B is the root bound.  Short dyadic separators cut seeds apart
into gaps, one seed in each.  With N an upper bound on the roots between
the outer two separators, N gaps that each hold a root hold one simple
root each.  A gap holds a root when its seed's r +- h bracket has
opposite exact signs, which also certifies the seed as the refined root,
or failing that when its two separators do (`_certified_roots`): a seed
that certifies costs two exact signs, and its separators none.  Every gap
of every rung is certified so.  The rungs, each taken when those before
it fail:

1. the caller's seeds on the line, with N = deg p (deg q on the half line),
   certified gap by gap (`_certified_roots`);
2. Descartes runs on their gaps past a complex pair (`_descartes_roots`):
   a run of gaps, with N its Descartes bound and nonzero signs at its two
   ends, certified as in rung 1;
3. the seeds of p's Sturm chain (q's on the half line, `_parity_seeds`),
   with N the chain's exact count of the roots on the line, certified as
   in rung 1; a count of 0 is no root;
4. Descartes bisection of the line with no cap (`_descartes_roots` with
   no seed), each piece certified as in rung 2.

A chain that ends at a non-constant gcd g shows a repeated root (when it is
q's chain, p's own chain gives g): p then gets the intervals and roots of
its square-free part p / g, climbed without seeds, and a root's
multiplicity counts the elements of the gcd tower g_{i+1} = gcd(g_i, g_i')
with a root in its interval (`_multiplicities`).  A root whose seed's
bracket certifies it is that seed; every other root is refined by a
safeguarded exact Newton from its seed, or from its interval's midpoint
without one (`_seed_bracket`, `_newton_root`).  Every point p is
evaluated at is dyadic, num / 2^shift, held as that pair of integers, and
every exact sign comes from a fixed-point filter with an exact fallback
(`_sign_kernel`); `Fraction`s are built only for the intervals of the
result.  Root counts (`count_real_roots`) read the Sturm chain of q at 0
and +inf for an even or odd p, and of p at -inf and +inf otherwise.

Admissibility of a slope tuple at expansion order l is a nullspace
question for the matrix of eigenfunction values at the slopes: exact over
the rationals, SVD-thresholded for floating input.

numpy is imported only inside the SVD branch of `_verdict_at`, which only
float slopes reach; seeding, isolation and every exact decision run on
the standard library alone.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .linalg import rational_kernel
from .pencils import Eigenpair, quadratic_eigenfunction, quartic_eigenfunction
from .polyring import (
    RatPoly,
    _from_int_form,
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
# dyadic points and exact signs


def _dyadic(x: Fraction | float) -> tuple[int, int]:
    """x = num / 2^shift as (num, shift); ValueError unless x is dyadic."""
    num, den = x.as_integer_ratio()
    if den & (den - 1):
        raise ValueError(f"{x!r} is not a dyadic rational")
    return num, den.bit_length() - 1


def _reduced(num: int, shift: int) -> tuple[int, int]:
    """num / 2^shift, shift >= 0, as (num', shift') with the least shift' >= 0."""
    if not num:
        return 0, 0
    z = min((num & -num).bit_length() - 1, shift)
    return num >> z, shift - z


def _power_of_two(e: int) -> tuple[int, int]:
    """2^e as a dyadic (num, shift)."""
    return (1 << e, 0) if e >= 0 else (1, -e)


def _less(x: tuple[int, int], y: tuple[int, int]) -> bool:
    """x < y for dyadics (num, shift)."""
    return x[0] << y[1] < y[0] << x[1]


def _midpoint(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """(x + y) / 2 for dyadics (num, shift), reduced."""
    (a, s), (b, t) = x, y
    shift = max(s, t)
    return _reduced((a << (shift - s)) + (b << (shift - t)), shift + 1)


def _fraction(x: tuple[int, int]) -> Fraction:
    return Fraction(x[0], 1 << x[1])


def _intervals(gaps: Sequence[tuple[tuple[int, int], tuple[int, int]]]) -> list[tuple[Fraction, Fraction]]:
    """Dyadic gaps as `Fraction` intervals, one `Fraction` per distinct end."""
    ends = {x: _fraction(x) for x in dict.fromkeys(x for gap in gaps for x in gap)}
    return [(ends[lo], ends[hi]) for lo, hi in gaps]


def _dyadic_sign(coeffs: Sequence[int], num: int, shift: int) -> int:
    """Sign of p(num / 2^shift), shift >= 0, as that of 2^(shift deg p) p(num / 2^shift) by exact Horner with shifts."""
    acc = 0
    bits = 0
    for c in reversed(coeffs):
        acc = acc * num + (c << bits)
        bits += shift
    return (acc > 0) - (acc < 0)


# fixed-point fraction bits of the filter's first pass in `_sign_kernel`, at |x| < 1
_FILTER_BITS = 64
# `_sign_kernel` keeps its shifted coefficients for points with |x| < 2^_KEPT_GROWTH,
# which holds for all but 18 of the 58,002 signs of nodal-warm and of the Laplace
# (-1, 1) and bi-Laplace (-1/2, 2/3) sweeps; a larger point shifts each coefficient
# as its Horner reaches it, so no kept list grows with the point's size
_KEPT_GROWTH = 16


def _filtered_sign(scaled: Iterable[int], n: int, num: int, shift: int) -> int:
    """Sign of p(x), x = num / 2^shift, from a fixed-point Horner, or 0 when that cannot decide it.

    scaled is c_n 2^P, ..., c_0 2^P for p = sum c_j z^j of degree at most n.
    From A = c_n 2^P, each step A <- floor(A num / 2^shift) + c_j 2^P loses
    less than 1 to its floor, and every later step multiplies that loss by
    x, so |A - 2^P p(x)| < sum_{i<n} |x|^i <= n 2^((n-1) g), with
    g = max(0, bitlen(num) - shift) and |x| < 2^g.  |A| above that bound
    has the sign of p(x); a zero of p, or a value too small for P, is no
    decision.
    """
    acc = 0
    for c in scaled:
        acc = (acc * num >> shift) + c
    g = abs(num).bit_length() - shift
    bound = n << ((n - 1) * g) if g > 0 and n > 1 else n
    return 1 if acc > bound else -1 if acc < -bound else 0


def _sign_kernel(coeffs: Sequence[int]) -> Callable[[int, int], int]:
    """p's exact sign at num / 2^shift, shift >= 0: a fixed-point filter first, the exact Horner where it cannot decide.

    The filter (`_filtered_sign`) keeps P fraction bits, where the exact
    Horner of `_dyadic_sign` grows its accumulator by the point's whole bit
    size at every step.  Its error bound n 2^((n-1) g) grows with
    |x| < 2^g, so P starts at _FILTER_BITS + (n-1) g for |x| >= 1 and at
    _FILTER_BITS below: either way the filter decides once |p(x)| exceeds
    about n 2^-_FILTER_BITS.  Without a decision P is doubled once, and
    then the exact Horner decides; a root of p always gets there.  The
    coefficients shifted by P are kept once per P for g <= _KEPT_GROWTH.
    """
    n = len(coeffs) - 1
    top = list(reversed(coeffs))
    spread = max(n - 1, 0)
    scaled: dict[int, list[int]] = {}

    def sign(num: int, shift: int) -> int:
        g = abs(num).bit_length() - shift
        first = _FILTER_BITS + spread * g if g > 0 else _FILTER_BITS
        for bits in (first, 2 * first):
            cs = scaled.get(bits)
            if cs is None:
                cs = (c << bits for c in top)
                if g <= _KEPT_GROWTH:
                    cs = scaled[bits] = list(cs)
            s = _filtered_sign(cs, n, num, shift)
            if s:
                return s
        return _dyadic_sign(coeffs, num, shift)

    return sign


def _parity_split(coeffs: list[int]) -> tuple[int, list[int]] | None:
    """(k, q) with p(z) = z^k q(z^2) and q(0) != 0, or None unless p's nonzero coefficients all sit at degrees of one parity."""
    k = next(i for i, c in enumerate(coeffs) if c)
    if any(coeffs[k + 1 :: 2]):
        return None
    return k, coeffs[k::2]


def _parity_sign(k: int, q: list[int]) -> Callable[[int, int], int]:
    """Exact signs of p(x) = x^k q(x^2), k <= 1, at x = num / 2^shift: sign(x)^k times that of q at num^2 / 2^(2 shift).

    The sign kernel of q (`_sign_kernel`) takes half the steps of one of p.
    """
    sign = _sign_kernel(q)
    if k == 0:
        return lambda num, shift: sign(num * num, 2 * shift)
    return lambda num, shift: sign(num * num, 2 * shift) * ((num > 0) - (num < 0))


# ---------------------------------------------------------------------------
# Sturm sequences over the integers


@dataclass(frozen=True)
class _SturmChain:
    """The Sturm chain of p and its remainder-sequence identities.

    polys are the remainder sequence of p and p' (`_remainder_sequence`):
    P_0 = p, P_1 = p' and P_{j+2} a positive multiple of -rem(P_j, P_{j+1}),
    each primitive, down to gcd(p, p').  identities[j] is (e, Q, kappa)
    with e P_j = Q P_{j+1} + kappa P_{j+2}, the pseudo-division that made
    P_{j+2}; `_chain_seeds` reads them as a float continued fraction.
    `_variations_at` counts the chain's sign variations at a point from the
    elements' exact signs (`_sign_kernel`).
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


def _variations_at(chain: _SturmChain, point: Fraction) -> int:
    """The chain's sign-variation count at the dyadic point, one exact sign (`_sign_kernel`) per element."""
    num, shift = _dyadic(point)
    return _sign_variations(_sign_kernel(q)(num, shift) for q in chain.polys)


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


def _root_bound(coeffs: Sequence[int]) -> int:
    """e with 2^e the Fujiwara bound rounded up to a power of two: above every |root|.

    Every root has |z| <= 2 max_k |a_k/a_n|^(1/(n-k)), and
    |a_k/a_n| < 2^(bitlen a_k - bitlen a_n + 1).
    """
    n = len(coeffs) - 1
    top = abs(coeffs[-1]).bit_length()
    exponents = [-((top - abs(c).bit_length() - 1) // (n - k)) for k, c in enumerate(coeffs[:-1]) if c]
    return 1 + max(exponents, default=0)


def _short_dyadic(lo: float, hi: float) -> tuple[int, int]:
    """The dyadic rational m / 2^k in [lo, hi] with the least k, for lo < hi, as (num, shift) with shift >= 0.

    A separator's cost in an exact sign is its bit size, and this one has
    a few bits where the float midpoint of two seeds has 53.
    """
    if lo <= 0 <= hi:
        return 0, 0
    if hi < 0:
        m, k = _short_dyadic(-hi, -lo)
        return -m, k
    k = 1 - math.frexp(hi - lo)[1]  # 2^-k <= hi - lo: some m / 2^k lies in [lo, hi]
    while math.ceil(math.ldexp(lo, k - 1)) <= math.floor(math.ldexp(hi, k - 1)):
        k -= 1
    m = math.ceil(math.ldexp(lo, k))
    return (m, k) if k >= 0 else (m << -k, 0)


def _float_seeds(seeds: Iterable) -> list[float] | None:
    """float(s) of every seed, sorted; None, a failed certificate, if one has no float value."""
    try:
        return sorted(float(s) for s in seeds)
    except (TypeError, ValueError, OverflowError):
        return None


def _separators(seeds: Sequence[float], bound: tuple[int, int]) -> list[tuple[int, int]] | None:
    """-bound, one short dyadic in the middle half of each gap between sorted seeds, and bound, each as (num, shift).

    None unless there is a seed, every seed is finite, and the separators
    are strictly increasing (seeds out of order, or outside (-bound, bound)).
    """
    if not seeds or not all(math.isfinite(s) for s in seeds):
        return None
    seeds = sorted(seeds)
    seps = [(-bound[0], bound[1])]
    for a, b in zip(seeds, seeds[1:]):
        if not a < b:
            return None
        lo, hi = 0.75 * a + 0.25 * b, 0.25 * a + 0.75 * b
        if not a <= lo < hi <= b:
            lo, hi = a, b
        seps.append(_short_dyadic(lo, hi))
    seps.append(bound)
    if not all(_less(x, y) for x, y in zip(seps, seps[1:])):
        return None
    return seps


def _descartes_bound(coeffs: list[int], lo: tuple[int, int], hi: tuple[int, int]) -> int:
    """Sign variations of (1 + x)^n p((lo + hi x) / (1 + x)), n = deg p, for dyadics lo < hi as (num, shift).

    The Moebius map takes (0, +inf) onto (lo, hi), so by Descartes' rule of
    signs the count is at least the number of roots of p in (lo, hi),
    counted with multiplicity, and of the same parity when neither end is
    a root (Collins & Akritas, SYMSAC 1976).  In integers over 2^shift:
    2^(shift n) p((a + y) / 2^shift) by a Taylor shift at a = lo 2^shift,
    y scaled by d = (hi - lo) 2^shift, the coefficients reversed, and a
    Taylor shift at 1.
    """
    (a, s), (b, t) = lo, hi
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
    guarantee: `_certified_roots` certifies them, or isolation falls back to
    Descartes bisection of the line: the whole line for p's own chain, or
    the half line (s0, bound) for q's chain (`_parity_seeds`).
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
        bound = 2.0 ** _root_bound(polys[0])
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
# resolution: `_chain_seeds` takes one more step, and `_newton_root` tries the
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


def _certificate(sign: Callable[[int, int], int], r: float, k: int, bracket: tuple[int, int, int]) -> float | None:
    """The root that p's exact signs at r - 2^k and r + 2^k certify: r if they are opposite, a point whose sign is 0, else None.

    Both points must lie strictly inside (a / 2^shift, b / 2^shift) for
    bracket (a, b, shift), or there is no certificate.  r is taken as its
    float mantissa over a power of two, and the points as integers over
    2^s.
    """
    a, b, shift = bracket
    num, r_shift = _dyadic(r)
    s = max(r_shift, -k)
    x, h = num << (s - r_shift), 1 << (s + k)
    left, right = x - h, x + h
    if not (a << s < left << shift and right << shift < b << s):
        return None
    s_left, s_right = sign(left, s), sign(right, s)
    if s_left * s_right < 0:
        return r
    if s_left == 0:
        return left / (1 << s)
    if s_right == 0:
        return right / (1 << s)
    return None


def _goal(lo: int, hi: int, shift: int, tol: float) -> tuple[int, int]:
    """goal = tol/8 * max(|lo|, |hi|, 1) for the bracket (lo / 2^shift, hi / 2^shift), as (g, t) with goal = g / 2^t.

    tol is a float, so its denominator is a power of two, and so is goal's.
    """
    tn, td = tol.as_integer_ratio()
    return tn * max(abs(lo), abs(hi), 1 << shift), td.bit_length() + 2 + shift


def _float(num: int, shift: int) -> float:
    """num / 2^shift correctly rounded, a point of a refinement; ValueError where it overflows, for a root past 2^1020."""
    try:
        return num / (1 << shift)
    except OverflowError:
        e = abs(num).bit_length() - shift - 1
        raise ValueError(f"a real root near 2^{e} lies beyond the float range (|x| < 2^1024)") from None


def _one_float(lo: int, hi: int, shift: int) -> bool:
    """Whether lo / 2^shift and hi / 2^shift round to the same float, the same zero included; False beyond the float range."""
    try:
        x, y = lo / (1 << shift), hi / (1 << shift)
    except OverflowError:
        return False
    return x == y and math.copysign(1.0, x) == math.copysign(1.0, y)


def _seed_bracket(
    lo: tuple[int, int], hi: tuple[int, int], tol: float, start: float | None, sign: Callable[[int, int], int]
) -> tuple[float | None, tuple[int, int, int]]:
    """The far-end cut of (lo, hi) and the r +- h certificate of start in what is left: (root or None, (a, b, shift)).

    lo and hi are dyadics (num, shift), and (a / 2^shift, b / 2^shift) is
    what is left of (lo, hi) after the cut.  The end of (lo, hi) farther
    from 0 is cut to a sixteenth, by exact signs, while the sixteenth and
    the end have one sign, so that goal = tol/8 * max(|a|, |b|, 1) is at
    most 2 tol max(|root|, 1) however wide the interval (one in [-16, 16],
    or not containing a sixteenth of its far end, costs no sign); a zero
    at the cut is the root.  goal's denominator is a power of two
    (`_goal`).  With h = 2^k in (goal/8, goal/2], exact opposite signs at
    start - h and start + h, both strictly inside (a, b), certify start,
    and a zero sign there is the root itself (`_certificate`).  Either way
    p has a root strictly inside (lo, hi); None is no certificate, and
    always so for no start.  The cut moves an end only while the end and
    the cut have one sign, so p has the same sign at a as at lo.  Every gap
    of every rung starts here (`_certified_roots`).
    """
    (a, s), (b, t) = lo, hi
    shift = max(s, t)
    a, b = a << (shift - s), b << (shift - t)
    while b > 16 << shift or a < -16 << shift:
        far = b if b > -a else a
        # the cut, far / 16, lies in (a, b) iff 16 a < far < 16 b
        if not a << 4 < far < b << 4:
            break
        s_cut, s_far = sign(*_reduced(far, shift + 4)), sign(*_reduced(far, shift))
        if s_cut == 0:
            return _float(far, shift + 4), (a, b, shift)
        if s_cut != s_far:
            break
        at_hi = far == b
        if far & 15:
            a, b, shift = a << 4, b << 4, shift + 4
        else:
            far >>= 4
        # far is now the cut, over 2^shift
        if at_hi:
            b = far
        else:
            a = far
    bracket = a, b, shift
    if start is None:
        return None, bracket
    goal, goal_shift = _goal(a, b, shift, tol)
    return _certificate(sign, start, goal.bit_length() - goal_shift - 3, bracket), bracket


def _newton_root(
    coeffs: list[int],
    bracket: tuple[int, int, int],
    tol: float,
    start: float | None,
    sign: Callable[[int, int], int],
    slo: int,
) -> float:
    """The one root in (a / 2^shift, b / 2^shift) as a float within goal/2 of it, for bracket (a, b, shift) and p's nonzero sign slo at a.

    Every point here is an integer over one power of two 2^shift, which
    grows when a finer point (a float iterate, a bisection midpoint) needs
    it, and each exact sign is taken at the point in lowest terms, so no
    `Fraction` is built.  goal and h are those of `_seed_bracket` for this
    bracket.  One exact Newton runs from the start, if it lies inside the
    bracket, or from the midpoint.  Each iterate is correctly rounded to a
    float, and its exact sign narrows the bracket.  A step that leaves the
    bracket, or is longer than half the step before last (the rule of
    rtsafe, as in `_chain_seeds`), bisects the bracket instead.  After a
    step shorter than _FLOAT_STEP relative to max(|r|, 1) the iterate is
    tried by the r +- h certificate.  Newton ends on a certificate, on an
    iterate that is not strictly inside the bracket (it has stalled at
    float resolution) or on a bracket narrower than goal.  A stalled
    iterate sits on an end of the bracket, with the root within about an
    ulp of it: its float neighbours, those strictly inside the bracket,
    take exact signs that narrow it, most often to one ulp.  Then the
    bracket is bisected exactly down to width goal, or until both of its
    ends round to one float: the root lies between them, so that float is
    the answer further bisection would give.  Exact signs come from sign:
    a fixed-point filter, with the exact Horner where it cannot decide
    (`_sign_kernel`).  Newton runs on coeffs.
    """
    a, b, shift = bracket
    goal, goal_shift = _goal(a, b, shift, tol)
    k = goal.bit_length() - goal_shift - 3
    r = start
    if start is not None:
        num, s = _dyadic(start)
        if not a << s < num << shift < b << s:
            r = None
    if r is None:
        r = _float(a + b, shift + 1)
    dx = dx_old = math.inf
    while True:
        num, s = _dyadic(r)
        if s > shift:
            a, b, shift = a << (s - shift), b << (s - shift), s
        x = num << (shift - s)
        if not a < x < b:
            # r has stalled at float resolution: its float neighbours inside
            # the bracket take exact signs, and bisection starts from there
            for side in (-math.inf, math.inf):
                y = math.nextafter(r, side)
                if not math.isfinite(y):
                    continue
                num, s = _dyadic(y)
                if s > shift:
                    a, b, shift = a << (s - shift), b << (s - shift), s
                x = num << (shift - s)
                if a < x < b:
                    sy = sign(num, s)
                    if sy == 0:
                        return y
                    if sy == slo:
                        a = x
                    else:
                        b = x
            break
        sx, step = _exact_newton(coeffs, r)
        if sx == 0:
            return r
        if sx == slo:
            a = x
        else:
            b = x
        if step is not None:
            num, s = _dyadic(step)
            if not (a << s <= num << shift <= b << s and abs(step - r) <= dx_old / 2):
                step = None
        if step is None:
            step = _float(a + b, shift + 1)
        dx_old, dx = dx, abs(step - r)
        r = step
        if (b - a) << goal_shift <= goal << shift:
            break
        if dx <= _FLOAT_STEP * max(abs(r), 1.0):
            # the certificate's points lie inside the bracket as it was given
            found = _certificate(sign, r, k, bracket)
            if found is not None:
                return found
    while (b - a) << goal_shift > goal << shift and not _one_float(a, b, shift):
        mid = a + b
        if mid & 1:
            a, b, shift = a << 1, b << 1, shift + 1
        else:
            mid >>= 1
        s_mid = sign(*_reduced(mid, shift))
        if s_mid == 0:
            return _float(mid, shift)
        if s_mid == slo:
            a = mid
        else:
            b = mid
    return _float(a + b, shift + 1)


def _certified_roots(
    coeffs: list[int],
    seps: Sequence[tuple[int, int]],
    starts: Sequence[float | None],
    sign: Callable[[int, int], int],
    count: int,
    tol: float,
) -> list[float] | None:
    """The refined root in each gap between consecutive separators, every gap certified to hold exactly one simple root of p; or None.

    seps are dyadics (num, shift), starts holds one seed (or None) per gap,
    and count is an upper bound on the real roots of p, with multiplicity,
    in (seps[0], seps[-1]).  A gap is certified when its seed's bracket
    certifies a root (`_seed_bracket`), or failing that when p has
    nonzero, opposite exact signs at its two separators.  Either way it
    holds at least one root strictly inside; when there are count gaps,
    each holds exactly one and it is simple, and no root lies in
    (seps[0], seps[-1]) outside them, so p alternates in sign across the
    inner separators.  sign(num, shift) is p's exact sign at num / 2^shift:
    `_sign_kernel` of p's coefficients, or `_parity_sign` on its
    half-degree part.  A bracket's root is its seed, or the zero at its cut
    or at a point; exact Newton finishes the other gaps once all are
    certified (`_newton_root`), from the sign at their lower separator,
    which is p's sign at the lower end of the cut bracket.  Any other
    outcome (another number of gaps, or a gap that neither certifies)
    returns None, and the count is checked first, so a wrong one costs no
    sign.
    """
    if len(seps) - 1 != count:
        return None
    found = []
    ends: dict[int, int] = {}
    for i, start in enumerate(starts):
        root, bracket = _seed_bracket(seps[i], seps[i + 1], tol, start, sign)
        if root is None:
            for j in (i, i + 1):
                if j not in ends:
                    ends[j] = sign(*seps[j])
            if not ends[i] * ends[i + 1] < 0:
                return None
        found.append((root, bracket))
    return [
        root if root is not None else _newton_root(coeffs, bracket, tol, start, sign, ends[i])
        for i, ((root, bracket), start) in enumerate(zip(found, starts))
    ]


# Descartes tests in one seeded isolation before it gives up: p may have a
# repeated root there, where bisection never ends; the bi-Laplace
# combinations of the crack sweeps take 3 to 13
_DESCARTES_TESTS = 64


def _descartes_roots(
    coeffs: list[int],
    seps: list[tuple[int, int]],
    starts: Sequence[float | None],
    sign: Callable[[int, int], int],
    square_free: bool,
    tol: float,
) -> tuple[list[tuple[tuple[int, int], tuple[int, int]]], list[float]] | None:
    """(gaps, roots): one gap inside a gap of seps for each real root of p in (seps[0], seps[-1]), isolating it, and the refined roots; or None.

    seps separate starts, one per gap, that miss some of p's roots, most
    often the two of a complex pair; or they are the two ends of the line
    of a square-free p, with the start None.  A run of consecutive gaps,
    all of seps first, takes p's exact signs at its two ends, and a zero
    there gives None: the run's Descartes bound V (`_descartes_bound`)
    counts only the roots strictly inside it, so a root on an end would go
    unseen.  The run is then certified and refined by `_certified_roots`,
    with V for the count and each gap's start.  Otherwise a run of several
    gaps splits at its middle separator, and a single gap holds no root if
    V = 0; with V >= 2 it is bisected, a midpoint that is a root of p
    moving halfway toward lo until it is not, and each piece keeps the
    gap's start.  For a square-free p bisection ends (Collins & Akritas,
    SYMSAC 1976).  Otherwise p may have a repeated root, whose pieces keep
    V >= 2: then a seed gap (not a piece of one) with equal signs and
    V >= 2, an even number of roots about one seed, gives None at once, and
    so do more than _DESCARTES_TESTS tests.  Every sign is memoized for
    the call, so a separator that ends several runs is signed once.
    """
    sign = functools.cache(sign)
    tests = math.inf if square_free else _DESCARTES_TESTS
    gaps: list[tuple[tuple[int, int], tuple[int, int]]] = []
    roots: list[float] = []
    # (i, run): the run's first gap is gap i of seps, or a piece of it
    stack: list[tuple[int, list[tuple[int, int]]]] = [(0, seps)]
    while stack:
        if tests <= 0:
            return None
        tests -= 1
        i, run = stack.pop()
        lo, hi = run[0], run[-1]
        s_lo, s_hi = sign(*lo), sign(*hi)
        if not (s_lo and s_hi):
            # a root on a run end, which V does not count
            return None
        v = _descartes_bound(coeffs, lo, hi)
        found = _certified_roots(coeffs, run, starts[i : i + len(run) - 1], sign, v, tol)
        if found is not None:
            gaps += zip(run, run[1:])
            roots += found
        elif len(run) > 2:
            mid = len(run) // 2
            stack += [(i + mid, run[mid:]), (i, run[: mid + 1])]
        elif v:
            if s_lo == s_hi and not square_free and run == seps[i : i + 2]:
                return None
            mid = _midpoint(lo, hi)
            while sign(*mid) == 0:
                mid = _midpoint(lo, mid)
            stack += [(i, [mid, hi]), (i, [lo, mid])]
    return gaps, roots


def _parity_seeds(q: list[int], chain: _SturmChain) -> list[float] | None:
    """Float guesses of the positive real roots of p(z) = z^k q(z^2), sorted, or None.

    They come from chain, the Sturm chain of q, of half p's degree, which
    ends in a nonzero constant: q is square-free, and with q(0) != 0 so is
    p.  Its positive roots are the square roots sqrt(w) of q's positive
    roots w, V_q(0) - V_q(+inf) of them (`_positive_roots`), all simple;
    the negative ones are their mirror images, and 0 is the last root when
    k = 1.  q's chain seeds (`_chain_seeds`), at a quarter of the float
    work of p's, guess the w; each takes one exact Newton step on q, which
    brings a small w to full relative accuracy, and the positive ones give
    sqrt(w).  A nonpositive w is a pair of roots of p off the real line.
    None when q's chain seeds none.  The guesses carry no guarantee:
    `_certified_roots` certifies them on the positive half line against the
    count.
    """
    ws = _chain_seeds(chain)
    if ws is None:
        return None
    polished = []
    for w in ws:
        step = _exact_newton(q, w)[1]
        polished.append(w if step is None else step)
    return sorted(math.sqrt(w) for w in polished if w > 0)


@dataclass(frozen=True)
class RootSet:
    """All real roots of a polynomial: exact isolation and multiplicities, certified floats.

    Each isolating interval (lo, hi) is open and holds exactly one distinct
    real root: lo < hi, and the square-free part of p has nonzero, opposite
    exact signs at lo and hi.  Those signs are proven, not always taken: a
    seed gap whose seed's r +- h bracket certifies a root takes no sign at
    its ends, since N such gaps for at most N roots leave p nonzero at
    every separator with alternating signs (`_certified_roots`).  Each
    refined root lies within tol * max(|root|, 1), and within
    tol/16 * max(|lo|, |hi|, 1), up to the rounding to a float, of that
    root.  For an even or odd p the negative half is the exact mirror of
    the positive one: the interval (-hi, -lo) and the root -r for each
    positive (lo, hi) and r, and for an odd p (z^k q(z^2) with k = 1) the
    exact root 0.0 on (-s0, s0).  Seeded and
    unseeded isolation of one polynomial give the same counts and
    multiplicities and roots within that bound, but not always the same
    intervals: each rung of the ladder (see the module docstring) gives its
    own gaps, the seeds' gaps or pieces of them, or the pieces of the
    bisection.  A p with a repeated root gives the intervals and roots of
    its square-free part, bit for bit.
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
    """Isolate and refine every real root of p with exact multiplicities, by the ladder of the module docstring.

    seeds are guesses of p's real roots, each taken as float(s); one with
    no finite float value fails them all.  A tol outside (0, inf), or a
    real root beyond the float range, raises ValueError.
    """
    _check_tol(tol)
    if p.is_zero():
        raise ValueError("cannot isolate roots of the zero polynomial")
    if p.degree == 0:
        return RootSet(p, (), (), ())
    seeds = None if seeds is None else _float_seeds(seeds)
    intervals, roots, mults = _real_roots(integer_coefficients(p), seeds, tol)
    return RootSet(p, tuple(intervals), tuple(roots), tuple(mults))


# isolating intervals, refined roots and multiplicities
_Roots = tuple[list[tuple[Fraction, Fraction]], list[float], list[int]]


def _real_roots(coeffs: list[int], seeds: list[float] | None, tol: float) -> _Roots:
    """p's real roots on the half line of an even or odd p, else on the whole line; through its square-free part at a repeated root."""
    split = _parity_split(coeffs)
    bound = _power_of_two(_root_bound(coeffs))
    # k >= 2 makes 0 a repeated root
    half = split is not None and split[0] <= 1
    found = _ladder(_half_line(coeffs, *split, bound) if half else _whole_line(coeffs, bound), seeds, tol)
    if isinstance(found, tuple):
        return found
    # found ends a chain at a non-constant gcd: p's own, g, or q's, and then p has a repeated root too
    g = _sturm_chain(coeffs).polys[-1] if half else found
    # the caller's seeds guess p's roots; without them p's RootSet is that of isolate_real_roots(s)
    intervals, roots, _ = _real_roots(_int_primitive(_pseudo_divide(coeffs, g)[1]), None, tol)
    return intervals, roots, _multiplicities(g, intervals)


@dataclass(frozen=True)
class _Line:
    """What differs between the lines `_ladder` climbs: the whole line of p, or the positive half line of p = z^k q(z^2).

    coeffs is p, whose roots are refined; sign is p's exact sign at
    num / 2^shift, and bound the root bound.  kept takes the caller's
    sorted seeds to those on the line, and separators cuts seeds on the
    line apart (None if it cannot).  chained is the polynomial whose degree
    is N for the caller's seeds and whose Sturm chain seeds the line:
    count(chain.polys) is the exact number of p's real roots on the line,
    N for chain_seeds(chain), the chain's seeds (None if it gives none).
    descartes(deficit, s0) tells whether Descartes runs may start on the
    caller's seed gaps, deficit being N less their number and s0 the least
    separator.  Bisection runs on (start, bound), and
    finish(s0, intervals, roots) gives all of p's roots from those on the
    line above s0.
    """

    coeffs: list[int]
    sign: Callable[[int, int], int]
    bound: tuple[int, int]
    kept: Callable[[list[float]], list[float]]
    separators: Callable[[list[float]], list[tuple[int, int]] | None]
    descartes: Callable[[int, tuple[int, int]], bool]
    chained: list[int]
    count: Callable[[list[list[int]]], int]
    chain_seeds: Callable[[_SturmChain], list[float] | None]
    start: tuple[int, int]
    finish: Callable[[tuple[int, int], list, list[float]], tuple[list, list[float]]]


def _whole_line(coeffs: list[int], bound: tuple[int, int]) -> _Line:
    """The whole line (-bound, bound) of p: every seed, N = deg p, p's own chain, and the roots as they are."""
    return _Line(
        coeffs,
        _sign_kernel(coeffs),
        bound,
        kept=lambda seeds: seeds,
        separators=functools.partial(_separators, bound=bound),
        # p's missing roots are complex pairs
        descartes=lambda deficit, s0: deficit % 2 == 0,
        chained=coeffs,
        count=_distinct_real_roots,
        chain_seeds=_chain_seeds,
        start=(-bound[0], bound[1]),
        finish=lambda s0, intervals, roots: (intervals, roots),
    )


def _half_line(coeffs: list[int], k: int, q: list[int], bound: tuple[int, int]) -> _Line:
    """The positive half line (s0, bound) of p = z^k q(z^2), k <= 1, q(0) != 0: signs and chain on q, N = deg q, and the mirror."""
    return _Line(
        coeffs,
        _parity_sign(k, q),
        bound,
        kept=functools.partial(_positive_seeds, k),
        separators=functools.partial(_half_separators, k, bound=bound),
        # for k = 1 the runs start at s0, so (0, s0) must hold no root: q has none in (0, s0^2)
        descartes=lambda deficit, s0: k == 0 or _descartes_bound(q, (0, 0), (s0[0] ** 2, 2 * s0[1])) == 0,
        chained=q,
        count=_positive_roots,
        chain_seeds=functools.partial(_parity_seeds, q),
        # for k = 1, the root bound of p / z reversed: s0 lies below |r| for every root r != 0 of p
        start=(0, 0) if k == 0 else _power_of_two(-_root_bound(coeffs[:0:-1])),
        finish=functools.partial(_mirror, k),
    )


def _positive_seeds(k: int, seeds: list[float]) -> list[float]:
    """The positive seeds, less the one nearest 0 for k = 1 when it is positive: it stands for the exact root 0.

    `_phase_seeds` guesses the root 0 as 0.0, which is not positive, so
    each of its positive seeds is kept.
    """
    positive = [s for s in seeds if s > 0]
    return positive[1:] if k and positive and positive[0] == min(seeds, key=abs) else positive


def _half_separators(k: int, seeds: list[float], bound: tuple[int, int]) -> list[tuple[int, int]] | None:
    """The separators of the positive half line for sorted positive seeds, or None.

    s0 first, then one short dyadic in the middle half of each gap between
    seeds, and bound, as `_separators` places them on the whole line.  s0
    is 0 for k = 0; for k = 1 it is the separator the whole line places
    between the root 0 and the least seed a, in the middle half of (0, a).
    None without seeds, as `_separators` gives it, or when s0 is not
    positive for k = 1 (an a so small that the middle half of (0, a)
    rounds to hold 0).
    """
    seps = _separators([0.0] * k + seeds, bound) if seeds else None
    if seps is None or seps[1][0] <= 0:
        return None
    return seps[1:] if k else [(0, 0), *seps[1:]]


def _ladder(line: _Line, seeds: list[float] | None, tol: float) -> _Roots | list[int]:
    """p's real roots from the rungs of the module docstring, in order, on line; or the last element of a chain that ends at a non-constant gcd."""

    def finish(s0, gaps, roots):
        """p's real roots from gaps that each isolate one simple root on the line above s0, and their refined roots."""
        intervals, roots = line.finish(s0, _intervals(gaps), roots)
        return intervals, roots, [1] * len(roots)

    def seeded(seps, seeds, count):
        """p's real roots if seeds, separated by seps, certify count gaps (`_certified_roots`), else None."""
        roots = _certified_roots(line.coeffs, seps, seeds, line.sign, count, tol)
        return None if roots is None else finish(seps[0], list(zip(seps, seps[1:])), roots)

    n = len(line.chained) - 1
    if seeds is not None:
        seeds = line.kept(seeds)
        seps = line.separators(seeds)
        if seps is not None:
            found = seeded(seps, seeds, n)
            if found is not None:
                return found
            if len(seeds) < n and line.descartes(n - len(seeds), seps[0]):
                found = _descartes_roots(line.coeffs, seps, seeds, line.sign, False, tol)
                if found is not None:
                    return finish(seps[0], *found)
    # a constant q, of p = c z, has neither roots nor a chain
    count = 0
    if n:
        chain = _sturm_chain(line.chained)
        if len(chain.polys[-1]) > 1:
            return chain.polys[-1]
        count = line.count(chain.polys)
    if count == 0:
        return finish(line.bound, [], [])
    seeds = line.chain_seeds(chain)
    seps = None if seeds is None else line.separators(seeds)
    found = None if seps is None else seeded(seps, seeds, count)
    if found is not None:
        return found
    _check_float_range(line.coeffs, line.start, line.bound)
    return finish(line.start, *_descartes_roots(line.coeffs, [line.start, line.bound], [None], line.sign, True, tol))


def _mirror(k: int, s0: tuple[int, int], positive: list, roots: list[float]) -> tuple[list, list[float]]:
    """All real roots of an even or odd p from its positive ones: -r on (-hi, -lo) for each r on (lo, hi), and for k = 1 the exact root 0 on (-s0, s0)."""
    zero = _fraction(s0)
    intervals = [(-hi, -lo) for lo, hi in reversed(positive)] + [(-zero, zero)] * k + positive
    return intervals, [-r for r in reversed(roots)] + [0.0] * k + roots


# 2^1024, the least power of two beyond the float range
_FLOAT_END = 1 << 1024


def _check_float_range(coeffs: list[int], lo: tuple[int, int], hi: tuple[int, int]) -> None:
    """Before Descartes bisection of (lo, hi): one Descartes bound on each part of it beyond the float range.

    An odd bound there means an odd number of roots, so a real root that
    no float can hold, and ValueError is raised at once, where the
    bisection would first separate it from every complex root near 0.
    """
    for a, b in (((_FLOAT_END, 0), hi), (lo, (-_FLOAT_END, 0))):
        if not _less(a, lo) and _less(a, b) and not _less(hi, b) and _descartes_bound(coeffs, a, b) % 2:
            raise ValueError("a real root beyond 2^1024 lies beyond the float range (|x| < 2^1024)")


def _multiplicities(g: list[int], intervals: list[tuple[Fraction, Fraction]]) -> list[int]:
    """The multiplicity of the one root of p in each isolating interval, for g = gcd(p, p') not constant.

    A root of multiplicity m is a root of exactly g_1 ... g_{m-1} in the gcd
    tower g_1 = g, g_{i+1} = gcd(g_i, g_i'), each the last element of the
    chain of g_i.  A chain with no real root adds nothing, one with a root
    in every interval adds 1 to each (its whole-line count tells both), and
    any other adds 1 where its sign variations fall across the interval,
    counted once at each distinct end.
    """
    mults = [1] * len(intervals)
    ends = {x for gap in intervals for x in gap}
    chain = _sturm_chain(g)
    while True:
        count = _distinct_real_roots(chain.polys)
        if count == len(intervals):
            mults = [m + 1 for m in mults]
        elif count:
            v = {x: _variations_at(chain, x) for x in ends}
            mults = [m + (v[lo] > v[hi]) for m, (lo, hi) in zip(mults, intervals)]
        if len(chain.polys[-1]) == 1:
            return mults
        chain = _sturm_chain(chain.polys[-1])


# safeguarded Newton steps per level crossing, at most: from the crossing
# before it the error falls about as e -> C e^2, so three to five steps reach
# 2 ulps; a step that would leave the bracket bisects it instead, and 64
# halvings bring any bracket in [0, pi/2] to float resolution
_LEVEL_STEPS = 64


def _phase_seeds(l: int, coeffs: Sequence) -> list[float]:
    """Float guesses of the real roots of c_1 psi_{l,1} + c_2 psi_{l-1,2} + c_3 psi_{l-2,3} + c_4 psi_{l-3,4}.

    coeffs holds c_1, c_2 and, for bi-Laplace, c_3 and c_4; the psi are the
    monic family eigenfunctions.  With z = cot(phi), the closed forms in
    z + i that `pencil.pencils` builds them from give
    F(phi) = sin^l(phi) p(cot phi) = A cos(l phi) + B sin(l phi)
                                     + sin(phi) (C sin((l-1) phi) + D cos((l-1) phi)),
    whose zeros in (0, pi) are the roots' angles.  For Laplace (C = D = 0)
    it is |w| cos(l phi - theta) with w = c_1 - i c_2 / l = |w| e^(-i theta),
    so the roots are the l closed-form cot((theta + pi/2 + k pi) / l).

    For bi-Laplace, with a, b, c, d the scaled weights below, F is
    Re(e^(i (l-1) phi) G(phi)), G(phi) = alpha e^(i phi) + beta e^(-i phi),
    alpha = (a - c/2) - i (b + d/2) and beta = (c + i d) / 2: G runs round an
    ellipse, and the zeros are the crossings of the phase
    Theta = (l-1) phi + arg G with the levels pi/2 + k pi, where
    Theta' = (l-1) + (|alpha|^2 - |beta|^2) / |G|^2.  The exact weights
    decide which of four cases holds (`_ellipse_case`), and no case samples:
    - |alpha| > |beta|: Theta = l phi + arg alpha + Arg(1 + (beta/alpha) e^(-2 i phi))
      rises with Theta' >= l - 1, and all l roots are real;
    - |alpha| = |beta|: F = 2 |alpha| cos(phi + (a' - b')/2) cos((l-1) phi + (a' + b')/2),
      a' and b' the arguments of alpha and beta, and the roots are
      closed-form cotangents, as for Laplace;
    - |alpha| < |beta| and l^2 |alpha|^2 < (l-2)^2 |beta|^2:
      Theta = (l-2) phi + arg beta + Arg(1 + (alpha/beta) e^(2 i phi)) rises,
      and l - 2 roots are real;
    - otherwise Theta has the same form but falls on one arc, between the
      two angles where |G|^2 = (|beta|^2 - |alpha|^2) / (l-1), each a
      closed-form arccosine; it is monotone on at most three pieces of
      (0, pi), and l - 2 or l roots are real.
    Each half of (0, pi) is taken from its own end (`_half_angles`): the
    angles in (0, pi/2) give the positive roots, and those of the mirror
    image, p(-z), with weights (a, -b, c, -d), the negative ones.  An even
    or odd combination (c_2 = c_4 = 0, or c_1 = c_3 = 0) is its own mirror
    image, so only its positive roots are guessed, the half line that
    `isolate_real_roots` isolates it on.  An exact root 0 (p(0) = 0, exactly)
    is guessed as 0.0, the seed `_positive_seeds` takes for it, and a level
    that F meets exactly at an end, phi = 0 and pi for c_1 = 0 or pi/2 for
    p(0) = 0, is no crossing.  Every crossing is one solve of
    Theta = level by Newton steps in phi, safeguarded by the bracket from the
    crossing before it to the end of its piece, to 2 ulps.

    Plain float loops do all of it, on the weights scaled exactly by the
    one power of two that brings the largest below 2 and above 1/2: the
    roots do not change, and tiny or huge weights neither underflow nor
    overflow the form.  A guess whose cotangent is not a finite float is
    dropped.  The guesses carry no guarantee: `isolate_real_roots`
    certifies them or falls back.
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
    case, symmetric, origin, flags = _ellipse_case(l, ratios)
    angles = functools.partial(_half_angles, l, case, flags, origin)
    negative = [] if symmetric else [-z for z in _cotangents(angles(a, -b, c, -d))]
    return negative + [0.0] * origin + _cotangents(angles(a, b, c, d))[::-1]


def _ellipse_case(l: int, ratios: list[tuple[int, int]]) -> tuple[str, bool, bool, tuple[bool, ...]]:
    """(case, symmetric, origin, flags) of a bi-Laplace combination, from the integer ratios of its weights, exactly.

    case is "alpha" (|alpha| > |beta|), "equal", "beta" (|alpha| < |beta|
    and l^2 |alpha|^2 < (l-2)^2 |beta|^2) or "arc", for the alpha and beta of
    `_phase_seeds`; symmetric tells an even or odd combination, and origin
    whether p(0) = F(pi/2) = Re(i^l (alpha - beta)) is 0.  flags is
    (c_1 = c_2 = 0,), which makes phi = 0 a turning point of an arc, except
    in the equal case: there it tells, for the factor cos(phi + (a' - b')/2)
    and then for cos((l-1) phi + (a' + b')/2), whether the factor vanishes
    at phi = 0 and whether at pi/2.  a, b, c and d here are the weights of
    `_phase_seeds` times one positive integer, so integers.
    """
    (n1, d1), (n2, d2), (n3, d3), (n4, d4) = (ratios + [(0, 1)] * 3)[:4]
    e = l * (l - 1) * (l - 2 if n4 else 1)
    den = d1 * d2 * d3 * d4
    a = n1 * (den // d1) * e
    b = n2 * (den // d2) * (e // l)
    c = n3 * (den // d3) * (e // (l - 1))
    d = 0
    if n4:
        w = 3 * n4 * (den // d4)
        b, d = b + w, -w * l
    # 2 alpha = x - i y and 2 beta = c + i d
    x, y = 2 * a - c, 2 * b + d
    na, nb = x * x + y * y, c * c + d * d
    if na > nb:
        case = "alpha"
    elif na == nb:
        case = "equal"
    elif l * l * na < (l - 2) ** 2 * nb:
        case = "beta"
    else:
        case = "arc"
    origin = a == c if l % 2 == 0 else b + d == 0
    symmetric = n2 == n4 == 0 or n1 == n3 == 0
    flags: tuple[bool, ...] = (n1 == n2 == 0,)
    if case == "equal":
        # 4 alpha conj(beta) = r1 + i i1 and 4 alpha beta = r2 + i i2: a factor
        # vanishes at 0 where its product is a negative real, and at pi/2 where
        # that product, times (-1)^l for the second factor, is a positive real
        r1, i1 = x * c - y * d, -(x * d + y * c)
        r2, i2 = x * c + y * d, x * d - y * c
        flags = (i1 == 0 and r1 < 0, i1 == 0 and r1 > 0, i2 == 0 and r2 < 0, i2 == 0 and (r2 > 0) == (l % 2 == 0))
    return case, symmetric, origin, flags


def _half_angles(l: int, case: str, flags: tuple[bool, ...], origin: bool, a: float, b: float, c: float, d: float) -> list[float]:
    """The angles in (0, pi/2) where the phase form of scaled weights a, b, c, d crosses a level, ascending (see `_phase_seeds`).

    In the equal case each factor of F has a linear phase, n phi plus the
    argument of the square root of gamma (n = 1 and gamma = alpha conj(beta),
    or n = l - 1 and gamma = alpha beta), and its crossings are the closed
    forms (delta + k pi) / n.  Otherwise Theta - Theta(0) is measured from
    phi = 0, where Theta(0) = arg(a - i b), so that a small angle keeps its
    relative accuracy, and the levels are delta + k pi, delta in [0, pi)
    (`_level_offset`), crossed on each monotone piece between the ends and
    the turning points.  A level met exactly at an end, phi = 0 for c_1 = 0
    (delta = 0) or pi/2 for origin, is no crossing.
    """
    alpha, beta = complex(a - c / 2, -(b + d / 2)), complex(c / 2, d / 2)
    if case == "equal":
        angles = []
        for n, gamma, at_zero, at_end in ((1, alpha * beta.conjugate(), *flags[:2]), (l - 1, alpha * beta, *flags[2:])):
            delta = _level_offset(cmath.sqrt(gamma), at_zero)
            end = n * math.pi / 2
            angles += [level / n for level in _levels(delta, 0.0, _snapped(delta, end) if at_end else end)]
        return sorted(angles)
    if case == "alpha":
        n, sigma, num, den = l, -1.0, beta, alpha
    else:
        n, sigma, num, den = l - 2, 1.0, alpha, beta
    if not den:
        return []
    rho = num / den
    # with w = e^(2 i sigma phi), Theta(phi) - Theta(0) = n phi + arg((1 + rho w) / (1 + rho))
    # = n phi + arg(v), v = |1 + rho|^2 + rho (1 + conj(rho)) (w - 1), and
    # w - 1 = 2 i sin(sigma phi) e^(i sigma phi) keeps v - |1 + rho|^2 accurate near 0;
    # 1 + rho = G(0) / den = (a - i b) / den keeps its accuracy for rho near -1
    one = complex(a, -b) / den
    k0 = one.real * one.real + one.imag * one.imag
    k1 = 2j * rho * one.conjugate()
    q = sigma * (1 - abs(rho) ** 2) * k0
    m = l - 1

    def phase(x: float) -> tuple[float, float]:
        """Theta(x) - Theta(0) and Theta'(x) = (l-1) - sigma (1 - |rho|^2) / |1 + rho w|^2, 0.0 where that is undefined."""
        e = cmath.rect(1.0, sigma * x)
        v = k0 + k1 * (e.imag * e)
        s = v.real * v.real + v.imag * v.imag
        return n * x + cmath.phase(v), (m - q / s if s else 0.0)

    ends = [0.0, math.pi / 2]
    if case == "arc" and rho:
        # Theta' = 0 where |1 + rho w|^2 = 1 + |rho|^2 + 2 |rho| cos(2 phi + arg rho) = (1 - |rho|^2) / (l-1)
        r = abs(rho)
        kappa = ((1 - r * r) / m - 1 - r * r) / (2 * r)
        if -1 < kappa < 1:
            turn, t = math.acos(kappa), cmath.phase(rho)
            turns = [(turn - t) / 2 % math.pi, (-turn - t) / 2 % math.pi]
            if flags[0]:
                # c_1 = c_2 = 0: F has a double zero at 0, and one turning point is 0 itself
                turns.remove(min(turns, key=lambda x: min(x, math.pi - x)))
            ends[1:1] = sorted(x for x in turns if 0 < x < math.pi / 2)
    delta = _level_offset(complex(a, -b), False)
    values = [0.0] + [phase(x)[0] for x in ends[1:]]
    if origin:
        values[-1] = _snapped(delta, values[-1])
    angles: list[float] = []
    rect, arg, ulp = cmath.rect, cmath.phase, math.ulp
    for x0, x1, v0, v1 in zip(ends, ends[1:], values, values[1:]):
        rising = v1 > v0
        lo, prev, slope = x0, v0, 0.0
        for level in _levels(delta, v0, v1):
            # a Newton step from the crossing before, else the chord to the piece's end
            x = lo + (level - prev) / slope if slope else lo + (level - prev) / (v1 - prev) * (x1 - lo)
            hi = x1
            if not lo < x < hi:
                x = 0.5 * (lo + hi)
            dx = dx_old = math.inf
            for _ in range(_LEVEL_STEPS):
                # phase(x), written out: this loop is where the seeds' time goes
                e = rect(1.0, sigma * x)
                v = k0 + k1 * (e.imag * e)
                s = v.real * v.real + v.imag * v.imag
                residual = n * x + arg(v) - level
                slope = m - q / s if s else 0.0
                if (residual < 0) == rising:
                    lo = x
                else:
                    hi = x
                step = x - residual / slope if slope else math.nan
                # a step that leaves the bracket, or is longer than half the step
                # before last (the rule of rtsafe), bisects it instead
                if not (lo <= step <= hi and abs(step - x) <= dx_old / 2):
                    step = 0.5 * (lo + hi)
                dx_old, dx = dx, abs(step - x)
                x = step
                if dx <= 2 * ulp(x):
                    break
            angles.append(x)
            lo, prev = x, level
    return angles


def _level_offset(z: complex, zero: bool) -> float:
    """The delta in [0, pi) with arg z + delta in pi/2 + pi Z; 0.0 when zero, or when z is imaginary (arg z is itself a level)."""
    x, y = z.real, z.imag
    if zero or x == 0:
        return 0.0
    # (y, x) is z turned by pi/2 - 2 arg z; the sign puts it in the upper half plane
    return math.atan2(x, y) if x > 0 else math.atan2(-x, -y)


def _snapped(delta: float, value: float) -> float:
    """The level delta + k pi nearest value, as `_levels` computes it: value is exactly a level, up to rounding."""
    return delta + round((value - delta) / math.pi) * math.pi


def _levels(delta: float, v0: float, v1: float) -> list[float]:
    """The levels delta + k pi strictly between v0 and v1, in order from v0 to v1."""
    lo, hi = min(v0, v1), max(v0, v1)
    k = math.floor((lo - delta) / math.pi)
    while delta + k * math.pi <= lo:
        k += 1
    levels = []
    while (level := delta + k * math.pi) < hi:
        levels.append(level)
        k += 1
    return levels if v1 >= v0 else levels[::-1]


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
        as its kept integer form, numerators over their common denominator,
        so the sum runs over the integers, over one common denominator, and
        the result keeps its integer form (`_from_int_form`).
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
        return _from_int_form(total, common)

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
