"""Real-root isolation and crack-admissibility decisions.

Root counting uses exact Sturm sequences over the integers (primitive
pseudo-remainders, so only positive rescalings ever touch the chain signs).
Isolation bisects the square-free part from a power-of-two Fujiwara bound,
carrying the chain's sign-variation count at every interval endpoint, and
reads multiplicities off the signs of the Yun factors.  Each isolated root
is refined by certified Newton: safeguarded float Newton, exact Newton
steps from the float iterate, and exact opposite signs on either side of
the result, with exact bisection only where that certificate fails.
Admissibility of a slope tuple at expansion order l is a nullspace question
for the matrix of eigenfunction values at the slopes: exact over the
rationals, SVD-thresholded for floating input.
"""

from __future__ import annotations

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


def _isolate_square_free(coeffs: list[int]) -> list[tuple[Fraction, Fraction]]:
    """Disjoint rational intervals each holding exactly one real root.

    Each stack entry (lo, V(lo), hi, V(hi)) carries the sign-variation counts
    of its endpoints, which are never roots, so V(lo) - V(hi) roots lie in
    (lo, hi) and every bisection point costs one chain evaluation.  Exact
    rational roots are returned as degenerate [r, r] intervals.
    """
    chain = _sturm_chain(coeffs)
    bound = _root_bound(coeffs)
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


def _refine_root(coeffs: list[int], lo: Fraction, hi: Fraction, tol: float) -> float:
    """Refine the one root in an isolating interval to a float within goal/2 of it.

    goal = tol/8 * max(|lo|, |hi|, 1).  Float Newton proposes the root; exact
    Newton steps polish it, each rounded to a float r, narrowing the bracket
    by the exact sign at its start and bisecting the bracket instead when it
    would leave it.  With h a power of two in (goal/8, goal/2], exact
    opposite signs at r - h and r + h, both strictly inside (lo, hi), certify
    r (a zero sign there is the root itself).  Without a certificate the
    bracket is bisected exactly down to width goal.
    """
    if lo == hi:
        return float(lo)
    slo = _int_eval_sign(coeffs, lo)
    goal = Fraction(tol if tol > 0 else 1e-12) / 8 * max(abs(lo), abs(hi), Fraction(1))
    r = _float_newton(coeffs, lo, hi, slo)
    if r is not None:
        half = Fraction(2) ** (goal.numerator.bit_length() - goal.denominator.bit_length() - 2)
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
            left, right = Fraction(r) - half, Fraction(r) + half
            if not (lo < left and right < hi):
                break
            s_left, s_right = _int_eval_sign(coeffs, left), _int_eval_sign(coeffs, right)
            if s_left * s_right < 0:
                return r
            if s_left == 0:
                return float(left)
            if s_right == 0:
                return float(right)
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

    Each refined root lies within tol/16 * max(|lo|, |hi|, 1), up to the
    rounding to a float, of the one root in its isolating interval [lo, hi],
    and is that root for a degenerate [r, r].
    """

    poly: RatPoly
    isolating_intervals: tuple[tuple[Fraction, Fraction], ...]
    refined_roots: tuple[float, ...]
    multiplicities: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.refined_roots)


def isolate_real_roots(p: RatPoly, tol: float = 1e-12) -> RootSet:
    """Isolate and refine every real root of p with exact multiplicities.

    The square-free part is the product of the Yun factors f_i of p = lc *
    prod f_i^i.  These are coprime and square-free, so the one factor that
    changes sign across an isolating interval, or vanishes at a degenerate
    [r, r], owns its root, and i is the root's multiplicity.
    """
    if p.is_zero():
        raise ValueError("cannot isolate roots of the zero polynomial")
    if p.degree == 0:
        return RootSet(p, (), (), ())
    factors = square_free_decomposition(p)
    sq_int = integer_coefficients(math.prod((f for f, _ in factors), start=RatPoly.one()))
    intervals = _isolate_square_free(sq_int)
    factor_ints = [(integer_coefficients(f), mult) for f, mult in factors]
    mults = tuple(
        next(mult for f, mult in factor_ints if _int_eval_sign(f, lo) * _int_eval_sign(f, hi) <= 0)
        for lo, hi in intervals
    )
    roots = tuple(_refine_root(sq_int, lo, hi, tol) for lo, hi in intervals)
    return RootSet(p, tuple(intervals), roots, mults)


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


def _eigenfunctions_for_order(equation: str, l: int) -> list[tuple[int, RatPoly]]:
    """Family-tagged eigenfunction polynomials entering the order-l combination.

    Degrees follow the shifted convention: families 1..4 contribute degrees
    l, l-1, l-2, l-3; families whose degree would be negative are absent.
    """
    if equation == "laplace":
        fams = [(1, l), (2, l - 1)]
    elif equation == "bilaplace":
        fams = [(1, l), (2, l - 1), (3, l - 2), (4, l - 3)]
    else:
        raise ValueError("equation must be 'laplace' or 'bilaplace'")
    out = []
    for family, degree in fams:
        if degree < (1 if family == 1 else 0):
            continue
        if equation == "laplace":
            out.append((family, quadratic_eigenfunction(degree, family).poly))
        else:
            out.append((family, quartic_eigenfunction(degree, family).poly))
    return out


def _normalize_max_entry(vec: Sequence) -> tuple:
    biggest = max(vec, key=abs)
    return tuple(v / biggest for v in vec)


def _combination(polys: Sequence[RatPoly], coeffs: Sequence) -> RatPoly:
    combo = RatPoly.zero()
    for c, p in zip(coeffs, polys):
        frac = c if isinstance(c, (int, Fraction)) else Fraction(float(c))
        combo = combo + p * frac
    return combo


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


def _verdict_for_matrix(
    config: CrackConfig,
    l: int,
    families: tuple[int, ...],
    polys: list[RatPoly],
    tol: float,
) -> AdmissibilityVerdict:
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
        combo_poly = _combination(polys, combo)
        if not combo_poly.is_zero() and combo_poly.degree > 0:
            zero_set = isolate_real_roots(combo_poly)
            consecutive = _match_consecutive(
                config.alphas, zero_set.refined_roots, max(tol, 1e-9)
            )
    return AdmissibilityVerdict(
        l=l,
        admissible=admissible,
        combo_coefficients=combo,
        nullspace_basis=basis,
        full_zero_set=zero_set,
        consecutive_flag=consecutive,
        exact=config.exact,
        rank=rank,
        families=families,
    )


def _check_admissibility(
    equation: str, config: CrackConfig, l_range: tuple[int, int], tol: float
) -> list[AdmissibilityVerdict]:
    lo, hi = l_range
    if lo > hi:
        raise ValueError("empty l range")
    if lo < max(config.m, 1):
        raise ValueError(f"l range must start at or above max(m, 1) = {max(config.m, 1)}")
    out = []
    for l in range(lo, hi + 1):
        tagged = _eigenfunctions_for_order(equation, l)
        families = tuple(f for f, _ in tagged)
        polys = [p for _, p in tagged]
        out.append(_verdict_for_matrix(config, l, families, polys, tol))
    return out


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


def enumerate_admissible(
    m: int, l: int, ratios: Sequence, include_endpoint: bool = True
) -> list[EnumeratedConfig]:
    """Emit every m-subset of consecutive roots of the sampled combinations.

    The combination at ratio r is psi_{l,1} + r * psi_{l-1,2}; the endpoint
    combination (first coefficient zero) is included separately because the
    ratio parameterization misses it.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if l < m:
        raise ValueError("need l >= m so the combination can have m zeros")
    base = quadratic_eigenfunction(l, 1).poly
    second = quadratic_eigenfunction(l - 1, 2).poly
    jobs: list[tuple[float | None, RatPoly]] = []
    for r in ratios:
        frac = r if isinstance(r, (int, Fraction)) else Fraction(float(r))
        jobs.append((float(r), base + second * frac))
    if include_endpoint:
        jobs.append((None, second))
    out = []
    for ratio, combo in jobs:
        if combo.is_zero() or combo.degree < 1:
            continue
        roots = isolate_real_roots(combo).refined_roots
        for start in range(0, len(roots) - m + 1):
            window = roots[start : start + m]
            out.append(EnumeratedConfig(CrackConfig(tuple(window)), l, ratio))
    return out
