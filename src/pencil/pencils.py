"""Quadratic and quartic operator pencils and their polynomial eigenfunctions.

The quadratic pencil is the one-parameter family of ordinary differential
operators obtained by blow-up scaling of the Laplacian,

    (1+z^2) psi'' + 2(lam+1) z psi' + lam (lam+1) psi,

and the quartic pencil is the fourth-order analogue for the bi-Laplacian.
Both admit integer eigenvalue families with monic polynomial eigenfunctions.
Each eigenfunction is built from its closed form in z + i, the real or
imaginary part of a power (z+i)^n with integer binomial coefficients, and is
certified by its exact pencil residual.  The dense nullspace of the pencil
matrix and the coefficient recursions are test oracles (tests/pencil_oracles.py).
`sturm_liouville_check` certifies the reduction of the quadratic pencil to
a standard Sturm-Liouville problem just as exactly: the substitution leaves
a polynomial, which must vanish at every sample point.

Each eigenfunction is also certified in (x, y): u(x, y) = (-y)^n psi(x / -y)
is homogeneous of degree n, and on the coefficient list of such a
polynomial the Laplacian is a banded map.  For u = sum_k c_k x^k (-y)^(n-k),
Delta u has the coefficient (j+2)(j+1) c_{j+2} + (n-j)(n-j-1) c_j at
x^j (-y)^(n-2-j); `reconstruct_xy` applies it, twice for the bi-Laplacian,
to the integer numerators of psi.  `xy_laplacian` takes any bivariate
polynomial as a dict of monomials.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

# not called here; perfbench/tracing.py wraps it under this name on this module
from .linalg import rational_kernel  # noqa: F401
from .polyring import DiffOpTerm, RatPoly, _from_int_form, _int_form, op_apply, poly_to_json

__all__ = [
    "Eigenpair",
    "SLReduction",
    "ReconstructionReport",
    "quadratic_pencil",
    "quartic_pencil",
    "quadratic_spectrum",
    "quartic_spectrum",
    "quadratic_eigenfunction",
    "quartic_eigenfunction",
    "pencil_residual",
    "reconstruct_xy",
    "xy_laplacian",
    "sturm_liouville_check",
    "eigenpair_to_json",
]

QUADRATIC = "quadratic"
QUARTIC = "quartic"


@dataclass(frozen=True)
class Eigenpair:
    """An integer pencil eigenvalue with its monic polynomial eigenfunction."""

    order: str
    family: int
    l: int
    eigenvalue: int
    poly: RatPoly


# ---------------------------------------------------------------------------
# operators


def quadratic_pencil(lam) -> tuple[DiffOpTerm, ...]:
    """Second-order pencil operator at spectral parameter lam."""
    lam = Fraction(lam)
    return (
        DiffOpTerm(RatPoly([1, 0, 1]), 2),
        DiffOpTerm(RatPoly([0, 2 * (lam + 1)]), 1),
        DiffOpTerm(RatPoly([lam * (lam + 1)]), 0),
    )


def quartic_pencil(lam) -> tuple[DiffOpTerm, ...]:
    """Fourth-order pencil operator at spectral parameter lam."""
    lam = Fraction(lam)
    c3 = 4 * lam + 12
    c2 = 2 * lam * (lam + 5) + 12
    c1 = 4 * lam * (lam**2 + 6 * lam + 11) + 24
    c0 = lam * (lam + 1) * (lam + 2) * (lam + 3)
    return (
        DiffOpTerm(RatPoly([1, 0, 2, 0, 1]), 4),
        DiffOpTerm(RatPoly([0, c3, 0, c3]), 3),
        DiffOpTerm(RatPoly([c2, 0, 3 * c2]), 2),
        DiffOpTerm(RatPoly([0, c1]), 1),
        DiffOpTerm(RatPoly([c0]), 0),
    )


# ---------------------------------------------------------------------------
# spectra


def _spectrum(n_families: int, l_max: int) -> tuple[tuple[int, int, int], ...]:
    if l_max < 1:
        raise ValueError("l_max must be >= 1")
    return tuple(
        (family, l, _eigenvalue(l, family))
        for family in range(1, n_families + 1)
        for l in range(1 if family == 1 else 0, l_max + 1)
    )


def quadratic_spectrum(l_max: int) -> tuple[tuple[int, int, int], ...]:
    """(family, l, eigenvalue) entries for both quadratic families up to l_max."""
    return _spectrum(2, l_max)


def quartic_spectrum(l_max: int) -> tuple[tuple[int, int, int], ...]:
    """(family, l, eigenvalue) entries for the four quartic families up to l_max.

    The eigenvalues are the roots {-l, ..., -l-3} of the characteristic
    quartic; the tests prove that factorization by exact division
    (`verify_quartic_factorization` in tests/pencil_oracles.py).
    """
    return _spectrum(4, l_max)


# ---------------------------------------------------------------------------
# eigenfunctions from their closed forms in z + i


def _z_plus_i_power(n: int) -> tuple[list[int], list[int]]:
    """Integer coefficients of Re (z+i)^n and Im (z+i)^n, lowest degree first.

    The term C(n, k) z^(n-k) i^k is real for even k and imaginary for odd k,
    with sign (-1)^(k//2); the binomials follow exactly from
    C(n, k+1) = C(n, k) (n-k) / (k+1).
    """
    re = [0] * (n + 1)
    im = [0] * (n + 1)
    c = 1
    for k in range(n + 1):
        (im if k % 2 else re)[n - k] = -c if k % 4 >= 2 else c
        c = c * (n - k) // (k + 1)
    return re, im


def _eigenvalue(l: int, family: int) -> int:
    """The eigenvalue of family f at degree l, in either pencil: -l - (f - 1)."""
    return -l - (family - 1)


def _check_family_l(order: str, l: int, family: int) -> None:
    n_families = 2 if order == QUADRATIC else 4
    if family not in range(1, n_families + 1):
        raise ValueError(f"{order} pencil has families 1..{n_families}, got {family}")
    min_l = 1 if family == 1 else 0
    if l < min_l:
        raise ValueError(f"family {family} requires l >= {min_l}, got {l}")


@functools.lru_cache(maxsize=None)
def quadratic_eigenfunction(l: int, family: int) -> Eigenpair:
    """Monic degree-l eigenfunction of the quadratic pencil.

    Family 1 is Re (z+i)^l and family 2 is Im (z+i)^(l+1) / (l+1).  The
    residual `pencil_residual` certifies them; the tests also compare them
    with the dense nullspace and the coefficient recursion.
    """
    _check_family_l(QUADRATIC, l, family)
    lam = _eigenvalue(l, family)
    if family == 1:
        poly = _from_int_form(_z_plus_i_power(l)[0], 1)
    else:
        poly = _from_int_form(_z_plus_i_power(l + 1)[1], l + 1)
    return Eigenpair(QUADRATIC, family, l, lam, poly)


@functools.lru_cache(maxsize=None)
def quartic_eigenfunction(l: int, family: int) -> Eigenpair:
    """Monic degree-l eigenfunction of the quartic pencil.

    Families 1 and 2 are the harmonic eigenfunctions of the quadratic pencil,
    and family 3 shares family 2's polynomial, Im (z+i)^(l+1) / (l+1).
    Family 4 is 3 (Im (z+i)^n - n Re (z+i)^(n-1)) / (n(n-1)(n-2)) with
    n = l + 3, whose terms above z^l cancel.
    """
    _check_family_l(QUARTIC, l, family)
    lam = _eigenvalue(l, family)
    if family < 4:
        poly = quadratic_eigenfunction(l, min(family, 2)).poly
    else:
        n = l + 3
        im = _z_plus_i_power(n)[1]
        re = _z_plus_i_power(n - 1)[0]
        den = n * (n - 1) * (n - 2)
        poly = _from_int_form([3 * (im[k] - n * re[k]) for k in range(l + 1)], den)
    return Eigenpair(QUARTIC, family, l, lam, poly)


def _widest_coefficient_bits(order: str, l: int, family: int) -> tuple[int, int]:
    """(lo, hi) with 2^lo <= W < 2^hi, W the widest numerator or denominator of the eigenfunction's coefficients, from l alone.

    The order, l and family are checked as the eigenfunction builders check
    them.  A reduced coefficient c = num / den has |num| >= |c|, so W is at
    least the largest |c|, and that is at least the mean of the |c| over
    the terms present; each closed form gives the sum of those |c| exactly:
    - Re (z+i)^l (family 1 of either pencil): C(l, j) for even j, which sum
      to 2^(l-1) over l // 2 + 1 terms, and each C(l, j) < 2^l;
    - Im (z+i)^n / n, n = l + 1 (family 2, and quartic families 2 and 3): C(n, j) / n
      for odd j, which sum to 2^(n-1) / n over (n + 1) // 2 terms, and each
      numerator and denominator is below 2^n;
    - quartic family 4, n = l + 3: 3 (j-1) C(n, j) / (n (n-1) (n-2)) for odd
      j >= 3, as n C(n-1, j-1) = j C(n, j), where the (j-1) C(n, j) sum to
      (n-2) 2^(n-2) over (n - 1) // 2 terms, and each numerator is below
      3 (n-1) 2^n, which also exceeds n (n-1) (n-2).
    A mean above 2^e / m is above 2^(e - bitlen m).
    """
    _check_family_l(order, l, family)
    if family == 1:
        return l - 1 - (l // 2 + 1).bit_length(), l
    if family < 4:
        n = l + 1
        return n - 1 - ((n + 1) // 2 * n).bit_length(), n
    n = l + 3
    return n - 2 - ((n - 1) // 2 * n * (n - 1)).bit_length(), n + (3 * (n - 1)).bit_length()


def pencil_residual(pair: Eigenpair) -> RatPoly:
    """Apply the pencil at the pair's eigenvalue to its eigenfunction, exactly.

    The zero polynomial certifies the eigenpair; a nonzero result is data.
    """
    pencil = quadratic_pencil if pair.order == QUADRATIC else quartic_pencil
    return op_apply(pencil(pair.eigenvalue), pair.poly)


# ---------------------------------------------------------------------------
# reconstruction in (x, y)


def xy_laplacian(coeffs: dict[tuple[int, int], Fraction]) -> dict[tuple[int, int], Fraction]:
    """Exact Laplacian of a bivariate polynomial given as {(i, j): c} monomials."""
    out: dict[tuple[int, int], Fraction] = {}
    for (i, j), c in coeffs.items():
        if i >= 2:
            key = (i - 2, j)
            out[key] = out.get(key, Fraction(0)) + c * i * (i - 1)
        if j >= 2:
            key = (i, j - 2)
            out[key] = out.get(key, Fraction(0)) + c * j * (j - 1)
    return {k: v for k, v in out.items() if v != 0}


@dataclass(frozen=True)
class ReconstructionReport:
    """Result of expanding an eigenpair back into (x, y) and differentiating."""

    pair: Eigenpair
    homogeneity_degree: int
    xy_coefficients: tuple[tuple[tuple[int, int], Fraction], ...]
    laplacian_zero: bool
    bilaplacian_zero: bool


def _banded_laplacian(cs: list[int]) -> list[int]:
    """Delta u as its coefficient list, for u = sum_k cs[k] x^k (-y)^(m-k) with m = len(cs) - 1.

    The entry at x^j (-y)^(m-2-j) is (j+2)(j+1) cs[j+2] + (m-j)(m-j-1) cs[j]:
    d^2/dy^2 (-y)^e = e (e-1) (-y)^(e-2).
    """
    m = len(cs) - 1
    return [(j + 2) * (j + 1) * cs[j + 2] + (m - j) * (m - j - 1) * cs[j] for j in range(m - 1)]


def reconstruct_xy(pair: Eigenpair) -> ReconstructionReport:
    """Expand u(x, y) = (-y)^n poly(x / -y), n = -lam, and apply the Laplacian.

    Requires n >= deg(poly) so the reconstruction is a polynomial, the sum of
    c_k x^k (-y)^(n-k) over poly's coefficients c_k; its xy_coefficients are
    the nonzero c_k (-1)^(n-k) at (k, n-k), k ascending.  The Laplacian and
    the bi-Laplacian are the banded map of the module docstring, applied
    once and twice to poly's integer numerators padded to n + 1 entries;
    the report says whether each vanishes identically.
    """
    n = -pair.eigenvalue
    if pair.poly.degree > n:
        raise ValueError(
            f"reconstruction is not polynomial: degree {pair.poly.degree} exceeds {n}"
        )
    nums = _int_form(pair.poly)[0]
    lap = _banded_laplacian(nums + [0] * (n + 1 - len(nums)))
    laplacian_zero = not any(lap)
    return ReconstructionReport(
        pair=pair,
        homogeneity_degree=n,
        xy_coefficients=tuple(((k, n - k), -c if (n - k) & 1 else c) for k, c in enumerate(pair.poly.coeffs) if c),
        laplacian_zero=laplacian_zero,
        bilaplacian_zero=laplacian_zero or not any(_banded_laplacian(lap)),
    )


# ---------------------------------------------------------------------------
# Sturm-Liouville reduction check


@dataclass(frozen=True)
class SLReduction:
    """Exact certificate for the reduction to a standard eigenproblem.

    The substitution psi = (1+z^2)^exponent phi with exponent = -(lam+1)/2
    turns the quadratic pencil into -(1+z^2)^2 phi'' = mu phi with
    mu = (lam+1)(lam-1).  Each residual is that equation's left side less
    its right at a sample point, 0.0 exactly when the equation holds there.
    """

    eigenvalue: int
    exponent: Fraction
    sl_eigenvalue: int
    residuals: tuple[tuple[Fraction, float], ...]


DEFAULT_SL_SAMPLES = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(4))


def sturm_liouville_check(pair: Eigenpair) -> SLReduction:
    """The residual -(1+z^2)^2 phi'' - mu phi of the transformed equation at the
    rational points `DEFAULT_SL_SAMPLES`.

    With w = 1 + z^2 and phi = w^g psi, g = -exponent, the product rule gives
    -w^2 phi'' - mu phi = -w^g B for the polynomial

        B = w^2 psi'' + 4g w z psi' + (4g(g-1) z^2 + 2g w + mu) psi.

    B is built exactly, with 4g, 4g(g-1) and 2g taken from the exponent and
    mu on its own, so a wrong exponent or a wrong mu leaves B nonzero.  At
    each sample, -B(z) w^ceil(g) is an exact rational rounded once to a
    float, times w^(g - ceil(g)), which is 1 or w^(-1/2).  A residual is 0.0
    exactly when B(z) = 0: a nonzero one too small for a float reads as the
    smallest subnormal of its sign, and one whose -B(z) w^ceil(g) is past the
    float range (a large positive g) as the infinity of its sign.
    """
    if pair.order != QUADRATIC:
        raise ValueError("the Sturm-Liouville reduction applies to quadratic eigenpairs")
    lam = pair.eigenvalue
    exponent = Fraction(-(lam + 1), 2)
    mu = (lam + 1) * (lam - 1)
    g = -exponent
    psi, w, z = pair.poly, RatPoly([1, 0, 1]), RatPoly([0, 1])
    b = w * w * psi.diff(2) + 4 * g * w * z * psi.diff() + (4 * g * (g - 1) * z * z + 2 * g * w + mu) * psi
    whole = math.ceil(g)
    residuals = []
    for x in DEFAULT_SL_SAMPLES:
        wx = 1 + x * x
        exact = -b.eval(x) * wx**whole
        try:
            value = float(exact)
        except OverflowError:
            value = math.inf if exact > 0 else -math.inf
        value *= 1.0 if g == whole else float(wx) ** -0.5
        if value == 0 and exact:
            value = math.copysign(math.ulp(0.0), exact)
        residuals.append((x, value))
    return SLReduction(eigenvalue=lam, exponent=exponent, sl_eigenvalue=mu, residuals=tuple(residuals))


# ---------------------------------------------------------------------------
# serialization


def eigenpair_to_json(pair: Eigenpair) -> dict:
    return {
        "order": pair.order,
        "family": pair.family,
        "l": pair.l,
        "lambda": pair.eigenvalue,
        "coefficients": poly_to_json(pair.poly),
    }
