"""Exact univariate polynomial arithmetic over the rationals.

A polynomial in the scaling variable z is stored as a dense tuple of
`fractions.Fraction` coefficients indexed by degree, so every ring operation
here is exact.  Linear differential operators with polynomial coefficients
are finite sums of :class:`DiffOpTerm` and are applied symbolically.
Over the integers, one signed remainder sequence (`_remainder_sequence`)
gives the gcds here and the Sturm chains of `pencil.nodal`.

A `RatPoly` derives each of three forms at most once and keeps it: its
integer form, numerators over the lcm of the denominators (`_int_form`);
its primitive integer list (`integer_coefficients`); and its float
coefficients (`eval_float`).  A builder that has summed the integer form
already presets it (`_from_int_form`), and then the `Fraction` coefficients
are built only when something reads them.  Callers get fresh lists, so
none can change a kept form, and pickling rebuilds a polynomial from its
coefficients alone.

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

    # coeffs, then the kept forms of the module docstring, each set on first use
    __slots__ = ("coeffs", "_ints", "_primitive", "_floats")

    def __init__(self, coeffs: Iterable = ()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("RatPoly is immutable")

    def __reduce__(self):
        return RatPoly, (self.coeffs,)

    @classmethod
    def zero(cls) -> "RatPoly":
        return cls(())

    @classmethod
    def one(cls) -> "RatPoly":
        return cls((1,))

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
        nums, d = _kept(self, "_ints", _ints)
        return Fraction(_int_horner(nums, a, b), d * b ** (len(nums) - 1))

    __call__ = eval

    def eval_float(self, x: float) -> float:
        acc = 0.0
        for c in reversed(_kept(self, "_floats", _floats)):
            acc = acc * x + c
        return acc

    def monic(self) -> "RatPoly":
        if self.is_zero():
            raise ValueError("the zero polynomial has no monic normalization")
        return self / self.leading_coefficient

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
# kept integer and float forms


def _kept(p: RatPoly, name: str, derive):
    """p's form in slot name, derived as derive(p) and kept on first use."""
    try:
        return getattr(p, name)
    except AttributeError:
        form = derive(p)
        object.__setattr__(p, name, form)
        return form


def _ints(p: RatPoly) -> tuple[tuple[int, ...], int]:
    d = lcm(*(c.denominator for c in p.coeffs))
    return tuple(c.numerator * (d // c.denominator) for c in p.coeffs), d


def _primitive(p: RatPoly) -> tuple[int, ...]:
    nums = _kept(p, "_ints", _ints)[0]
    content = gcd(*nums)
    return nums if content == 1 else tuple(v // content for v in nums)


def _floats(p: RatPoly) -> tuple[float | Fraction, ...]:
    # a coefficient beyond the float range stays a Fraction, so that Horner
    # raises OverflowError where it reaches it, after any error from x
    out: list[float | Fraction] = []
    for c in p.coeffs:
        try:
            out.append(float(c))
        except OverflowError:
            out.append(c)
    return tuple(out)


def _int_form(p: RatPoly) -> tuple[list[int], int]:
    """(nums, d) with p = sum_k nums[k] z^k / d and d > 0 the lcm of p's denominators."""
    nums, d = _kept(p, "_ints", _ints)
    return list(nums), d


class _IntFormPoly(RatPoly):
    """A `RatPoly` made from its integer form (`_from_int_form`), whose coeffs slot stays unset until its first read.

    Only an unset slot reaches `__getattr__`, which derives coeffs from the
    kept integer form and sets it.  degree, is_zero and bool read whichever
    form is there, so root isolation, which reads only the integer form,
    builds no `Fraction`.  `__getattr__` lives on this subclass alone: on
    RatPoly itself it would slow every attribute read.  A copy or a pickle
    is a plain RatPoly (`RatPoly.__reduce__`).
    """

    __slots__ = ()

    def __getattr__(self, name):
        if name != "coeffs":
            raise AttributeError(name)
        nums, d = self._ints
        coeffs = tuple(Fraction(v, d) for v in nums)
        object.__setattr__(self, "coeffs", coeffs)
        return coeffs

    def _terms(self) -> tuple:
        """coeffs if it is set, else the kept numerators: the same length, with zeros in the same places."""
        try:
            return object.__getattribute__(self, "coeffs")
        except AttributeError:
            return self._ints[0]

    @property
    def degree(self) -> int:
        return len(self._terms()) - 1

    def is_zero(self) -> bool:
        return not self._terms()

    def __bool__(self) -> bool:
        return bool(self._terms())


def _from_int_form(nums: Sequence[int], d: int) -> RatPoly:
    """The polynomial sum_k nums[k] z^k / d, d > 0, with its integer form kept and its coeffs built on first read."""
    nums = list(nums)
    while nums and nums[-1] == 0:
        nums.pop()
    g = gcd(d, *nums)
    if g != 1:
        nums, d = [v // g for v in nums], d // g
    p = object.__new__(_IntFormPoly)
    object.__setattr__(p, "_ints", (tuple(nums), d))
    return p


def _int_horner(nums: Sequence[int], a: int, b: int) -> int:
    """sum_k nums[k] a^k b^(n-k), n = len(nums) - 1: b^n times the polynomial at a/b, by integer Horner."""
    acc, b_pow = 0, 1
    for c in reversed(nums):
        acc = acc * a + c * b_pow
        b_pow *= b
    return acc


def integer_coefficients(p: RatPoly) -> list[int]:
    """Primitive integer coefficient list with the same sign and roots as p."""
    return list(_kept(p, "_primitive", _primitive))


# ---------------------------------------------------------------------------
# gcd and square-free structure


def _int_primitive(cs: list[int]) -> list[int]:
    while cs and cs[-1] == 0:
        cs.pop()
    content = gcd(*cs)
    return [v // content for v in cs]


def _int_diff(cs: list[int]) -> list[int]:
    return [cs[i] * i for i in range(1, len(cs))]


def _pseudo_divide(f: list[int], g: list[int]) -> tuple[int, list[int], list[int]]:
    """Integer pseudo-division: (scale, quotient, remainder) with scale f = quotient g + remainder.

    Each step cancels the leading term of the running remainder against
    lc(g) times a shift of g, so scale = lc(g)^steps, one factor per nonzero
    leading term cancelled.  The remainder has degree below g's and no
    trailing zeros; g must be nonzero.
    """
    r = list(f)
    while r and r[-1] == 0:
        r.pop()
    lg = g[-1]
    scale = 1
    quot: list[int] = []
    while len(r) >= len(g):
        lr = r[-1]
        shift = len(r) - len(g)
        # quotient terms so far sit above x^shift: quot <- lg quot + lr x^shift
        quot = [lg * c for c in quot] if quot else [0] * (shift + 1)
        quot[shift] = lr
        r = [lg * c for c in r]
        for j, b in enumerate(g):
            r[shift + j] -= lr * b
        scale *= lg
        while r and r[-1] == 0:
            r.pop()
    return scale, quot, r


def _remainder_sequence(f: Sequence[int], g: Sequence[int]) -> tuple[list[list[int]], list[tuple[int, list[int], int]]]:
    """The signed remainder sequence of f and g over the integers, with its identities.

    P_0 and P_1 are the primitive parts of f and g (a zero g is left out),
    and each P_{j+2} is the primitive pseudo-remainder of P_j by P_{j+1},
    scaled to a positive multiple of -rem(P_j, P_{j+1}) over Q, so only
    positive rescalings touch the signs.  identities[j] is (e, Q, kappa) with
    e P_j = Q P_{j+1} + kappa P_{j+2}, e kappa < 0.  The sequence stops at
    a constant or at an exact division; its last element is gcd(f, g) up
    to a constant, and for g = f' it is the Sturm chain of f.
    """
    polys = [_int_primitive(list(f)), _int_primitive(list(g))]
    identities: list[tuple[int, list[int], int]] = []
    while len(polys[-1]) > 1:
        scale, quot, rem = _pseudo_divide(polys[-2], polys[-1])
        if not rem:
            break
        kappa = -gcd(*rem) if scale > 0 else gcd(*rem)
        identities.append((scale, quot, kappa))
        polys.append([c // kappa for c in rem])
    if not polys[-1]:
        polys.pop()
    return polys, identities


def _int_gcd_poly(a: list[int], b: list[int]) -> list[int]:
    return _remainder_sequence(a, b)[0][-1]


def poly_gcd(a: RatPoly, b: RatPoly) -> RatPoly:
    """Monic gcd over Q: the last element of the integer remainder sequence."""
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
