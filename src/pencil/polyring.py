"""Exact univariate polynomial arithmetic over the rationals.

A polynomial in the scaling variable z is stored as a dense tuple of
`fractions.Fraction` coefficients indexed by degree, so every ring operation
here is exact.  Linear differential operators with polynomial coefficients
are finite sums of :class:`DiffOpTerm` and are applied symbolically.

All values are immutable after construction; operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

__all__ = [
    "RatPoly",
    "DiffOpTerm",
    "op_apply",
    "poly_to_json",
    "poly_gcd",
    "square_free_part",
    "square_free_decomposition",
    "integer_coefficients",
]


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot use {type(value).__name__} as an exact rational coefficient")


class RatPoly:
    """Dense univariate polynomial with exact rational coefficients.

    ``RatPoly([1, 0, -2])`` is ``1 - 2*z^2``.  The zero polynomial has
    degree -1.  Trailing zero coefficients are trimmed on construction.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("RatPoly is immutable")

    @classmethod
    def zero(cls) -> "RatPoly":
        return cls(())

    @classmethod
    def one(cls) -> "RatPoly":
        return cls((1,))

    @classmethod
    def monomial(cls, degree: int, coeff=1) -> "RatPoly":
        if degree < 0:
            raise ValueError("monomial degree must be >= 0")
        return cls([0] * degree + [coeff])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, RatPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == RatPoly((other,))
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def coefficient(self, degree: int) -> Fraction:
        if 0 <= degree < len(self.coeffs):
            return self.coeffs[degree]
        return Fraction(0)

    @property
    def leading_coefficient(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def __add__(self, other) -> "RatPoly":
        if isinstance(other, (int, Fraction)):
            other = RatPoly((other,))
        if not isinstance(other, RatPoly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return RatPoly(
            (self.coefficient(i) + other.coefficient(i) for i in range(n))
        )

    __radd__ = __add__

    def __neg__(self) -> "RatPoly":
        return RatPoly((-c for c in self.coeffs))

    def __sub__(self, other) -> "RatPoly":
        return self + (-other if isinstance(other, RatPoly) else RatPoly((-_as_fraction(other),)))

    def __rsub__(self, other) -> "RatPoly":
        return (-self) + other

    def __mul__(self, other) -> "RatPoly":
        if isinstance(other, (int, Fraction)):
            return RatPoly((c * other for c in self.coeffs))
        if not isinstance(other, RatPoly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return RatPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b != 0:
                    out[i + j] += a * b
        return RatPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "RatPoly":
        if n < 0:
            raise ValueError("negative polynomial powers are not defined")
        result = RatPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other: "RatPoly") -> tuple["RatPoly", "RatPoly"]:
        """Exact long division over Q; `other` must be nonzero."""
        if not isinstance(other, RatPoly):
            raise TypeError("divmod expects a RatPoly divisor")
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dn = other.degree
        lead = other.leading_coefficient
        quot = [Fraction(0)] * max(len(rem) - dn, 0)
        for i in range(len(rem) - 1, dn - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            q = c / lead
            quot[i - dn] = q
            for j, b in enumerate(other.coeffs):
                rem[i - dn + j] -= q * b
        return RatPoly(quot), RatPoly(rem)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            f = _as_fraction(other)
            if f == 0:
                raise ZeroDivisionError("division by zero scalar")
            return self * (Fraction(1) / f)
        quot, rem = divmod(self, other)
        if not rem.is_zero():
            raise ValueError("polynomial division is not exact")
        return quot

    def diff(self, order: int = 1) -> "RatPoly":
        """Exact order-th derivative; order must be >= 0."""
        if order < 0:
            raise ValueError("derivative order must be >= 0")
        cs = self.coeffs
        for _ in range(order):
            cs = tuple(cs[i] * i for i in range(1, len(cs)))
        return RatPoly(cs)

    def eval(self, x):
        """Horner evaluation; exact for Fraction/int input, float for float.

        At x = a/b the value is N / (D b^n) with D the lcm of the coefficient
        denominators and N = sum_k (c_k D) a^k b^(n-k), an integer Horner sum,
        so only the final quotient is a Fraction.
        """
        if not isinstance(x, (int, Fraction)):
            acc = 0 * x
            for c in reversed(self.coeffs):
                acc = acc * x + c
            return acc
        if not self.coeffs:
            return Fraction(0)
        a, b = x.numerator, x.denominator
        d = lcm(*(c.denominator for c in self.coeffs))
        num, b_pow = 0, 1
        for c in reversed(self.coeffs):
            num = num * a + c.numerator * (d // c.denominator) * b_pow
            b_pow *= b
        return Fraction(num, d * (b_pow // b))

    __call__ = eval

    def eval_float(self, x: float) -> float:
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + float(c)
        return acc

    def monic(self) -> "RatPoly":
        if self.is_zero():
            raise ValueError("the zero polynomial has no monic normalization")
        return self / self.leading_coefficient

    def parity_support(self) -> set[int]:
        """Set of degree parities (0 and/or 1) carrying nonzero coefficients."""
        return {i % 2 for i, c in enumerate(self.coeffs) if c != 0}

    def __repr__(self) -> str:
        return f"RatPoly({self.pretty()!r})"

    def pretty(self, var: str = "z") -> str:
        """Sparse human-readable form, highest degree first."""
        if not self.coeffs:
            return "0"
        out = ""
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            term = "" if i == 0 else (var if i == 1 else f"{var}^{i}")
            coeff = "" if (mag == 1 and term) else str(mag)
            body = coeff + ("*" if coeff and term else "") + term
            if not out:
                out = ("-" if c < 0 else "") + body
            else:
                out += f" {sign} {body}"
        return out


@dataclass(frozen=True)
class DiffOpTerm:
    """One term `coefficient_poly * d^order/dz^order` of a differential operator."""

    coefficient_poly: RatPoly
    derivative_order: int

    def __post_init__(self):
        if self.derivative_order < 0:
            raise ValueError("derivative order must be >= 0")


def op_apply(op: Sequence[DiffOpTerm], p: RatPoly) -> RatPoly:
    """Apply an operator (a finite sum of terms) to p, exactly."""
    out = RatPoly.zero()
    for term in op:
        out = out + term.coefficient_poly * p.diff(term.derivative_order)
    return out


# ---------------------------------------------------------------------------
# JSON form


def poly_to_json(p: RatPoly) -> list[list[str]]:
    """JSON form: [numerator-string, denominator-string] pairs indexed by degree."""
    return [[str(c.numerator), str(c.denominator)] for c in p.coeffs]


# ---------------------------------------------------------------------------
# gcd and square-free structure


def integer_coefficients(p: RatPoly) -> list[int]:
    """Primitive integer coefficient list with the same sign and roots as p."""
    if p.is_zero():
        return []
    scale = 1
    for c in p.coeffs:
        scale = scale * c.denominator // gcd(scale, c.denominator)
    ints = [int(c * scale) for c in p.coeffs]
    content = 0
    for v in ints:
        content = gcd(content, abs(v))
    return [v // content for v in ints]


def _int_primitive(cs: list[int]) -> list[int]:
    while cs and cs[-1] == 0:
        cs.pop()
    if not cs:
        return []
    content = 0
    for v in cs:
        content = gcd(content, abs(v))
    return [v // content for v in cs]


def _int_diff(cs: list[int]) -> list[int]:
    return [cs[i] * i for i in range(1, len(cs))]


def _signed_prem(f: list[int], g: list[int]) -> list[int]:
    """Primitive pseudo-remainder of f by g, scaled by a positive constant.

    Sign fidelity matters: the result differs from the true remainder
    rem(f, g) over Q only by a positive factor.
    """
    r = list(f)
    lg = g[-1]
    flips = 0
    while len(r) >= len(g) and any(r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) < len(g):
            break
        lr = r[-1]
        shift = len(r) - len(g)
        r = [lg * c for c in r]
        for j, b in enumerate(g):
            r[shift + j] -= lr * b
        if lg < 0:
            flips += 1
        while r and r[-1] == 0:
            r.pop()
    if flips % 2:
        r = [-c for c in r]
    return _int_primitive(r)


def _int_gcd_poly(a: list[int], b: list[int]) -> list[int]:
    a = _int_primitive(list(a))
    b = _int_primitive(list(b))
    if not a:
        return b
    if not b:
        return a
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _signed_prem(a, b)
    return a


def poly_gcd(a: RatPoly, b: RatPoly) -> RatPoly:
    """Monic gcd over Q (primitive pseudo-remainder sequence internally)."""
    if a.is_zero():
        return b.monic() if not b.is_zero() else RatPoly.zero()
    if b.is_zero():
        return a.monic()
    g = _int_gcd_poly(integer_coefficients(a), integer_coefficients(b))
    return RatPoly(g).monic()


def square_free_part(p: RatPoly) -> RatPoly:
    """Monic polynomial with the same roots as p, all simple."""
    if p.is_zero():
        raise ValueError("the zero polynomial has no square-free part")
    if p.degree == 0:
        return RatPoly.one()
    return (p / poly_gcd(p, p.diff())).monic()


def square_free_decomposition(p: RatPoly) -> list[tuple[RatPoly, int]]:
    """Yun decomposition: monic factors f_i with p = lc * prod f_i^i."""
    if p.is_zero():
        raise ValueError("cannot decompose the zero polynomial")
    p = p.monic()
    if p.degree == 0:
        return []
    d = poly_gcd(p, p.diff())
    b = p / d
    c = p.diff() / d
    out: list[tuple[RatPoly, int]] = []
    i = 1
    while b.degree > 0:
        w = c - b.diff()
        a = poly_gcd(b, w)
        if a.degree > 0:
            out.append((a, i))
        b = b / a
        c = w / a
        i += 1
    return out
