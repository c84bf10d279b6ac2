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
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

# not called here; perfbench/tracing.py wraps it under this name on this module
from .linalg import rational_kernel  # noqa: F401
from .polyring import DiffOpTerm, RatPoly, op_apply, poly_to_json

__all__ = [
    "Eigenpair",
    "SLReduction",
    "AnalyticityVerdict",
    "ReconstructionReport",
    "quadratic_pencil",
    "quartic_pencil",
    "characteristic_quartic",
    "verify_quartic_factorization",
    "quadratic_spectrum",
    "quartic_spectrum",
    "quadratic_eigenfunction",
    "quartic_eigenfunction",
    "pencil_residual",
    "reconstruct_xy",
    "xy_laplacian",
    "sturm_liouville_check",
    "analyticity_filter",
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


def characteristic_quartic(l: int) -> RatPoly:
    """Quartic characteristic polynomial in lam for degree l, expanded form."""
    return RatPoly(
        [
            l**4 + 6 * l**3 + 11 * l**2 + 6 * l,
            4 * l**3 + 18 * l**2 + 22 * l + 6,
            6 * l**2 + 18 * l + 11,
            2 * (2 * l + 3),
            1,
        ]
    )


def verify_quartic_factorization(l: int) -> bool:
    """Exact division check: the quartic characteristic polynomial for degree l
    has root set {-l, -l-1, -l-2, -l-3} and nothing else."""
    poly = characteristic_quartic(l)
    for root in (-l, -l - 1, -l - 2, -l - 3):
        quot, rem = divmod(poly, RatPoly([-root, 1]))
        if not rem.is_zero():
            return False
        poly = quot
    return poly == RatPoly.one()


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
    quartic; `verify_quartic_factorization` proves that factorization.
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
        poly = RatPoly(_z_plus_i_power(l)[0])
    else:
        poly = RatPoly(Fraction(c, l + 1) for c in _z_plus_i_power(l + 1)[1])
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
        poly = RatPoly(Fraction(3 * (im[k] - n * re[k]), den) for k in range(l + 1))
    return Eigenpair(QUARTIC, family, l, lam, poly)


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


def reconstruct_xy(pair: Eigenpair) -> ReconstructionReport:
    """Expand u(x, y) = (-y)^(-lam) * poly(x / -y) and apply the Laplacian.

    Requires -eigenvalue >= deg(poly) so the reconstruction is a polynomial;
    reports whether the Laplacian and the bi-Laplacian vanish identically.
    """
    n = -pair.eigenvalue
    if pair.poly.degree > n:
        raise ValueError(
            f"reconstruction is not polynomial: degree {pair.poly.degree} exceeds {n}"
        )
    coeffs: dict[tuple[int, int], Fraction] = {}
    for k in range(pair.poly.degree + 1):
        c = pair.poly.coefficient(k)
        if c != 0:
            sign = -1 if (n - k) % 2 else 1
            coeffs[(k, n - k)] = c * sign
    lap = xy_laplacian(coeffs)
    bilap = xy_laplacian(lap)
    return ReconstructionReport(
        pair=pair,
        homogeneity_degree=n,
        xy_coefficients=tuple(sorted(coeffs.items())),
        laplacian_zero=not lap,
        bilaplacian_zero=not bilap,
    )


# ---------------------------------------------------------------------------
# Sturm-Liouville reduction check


@dataclass(frozen=True)
class SLReduction:
    """Numeric certificate for the reduction to a standard eigenproblem.

    The substitution psi = (1+z^2)^exponent phi with exponent = -(lam+1)/2
    turns the quadratic pencil into -(1+z^2)^2 phi'' = mu phi with
    mu = (lam+1)(lam-1).
    """

    eigenvalue: int
    exponent: Fraction
    sl_eigenvalue: int
    residuals: tuple[tuple[Fraction, float], ...]


DEFAULT_SL_SAMPLES = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(4))


def sturm_liouville_check(pair: Eigenpair, sample_points=None, dps: int = 60) -> SLReduction:
    """Evaluate the transformed-equation residual at rational sample points.

    The transform carries a half-integer power of (1+z^2), so phi'' is taken
    numerically (high-precision central differences) rather than symbolically.
    """
    if pair.order != QUADRATIC:
        raise ValueError("the Sturm-Liouville reduction applies to quadratic eigenpairs")
    lam = pair.eigenvalue
    exponent = Fraction(-(lam + 1), 2)
    mu = (lam + 1) * (lam - 1)
    samples = DEFAULT_SL_SAMPLES if sample_points is None else tuple(Fraction(z) for z in sample_points)
    residuals = []
    with mp.workdps(dps):
        power = mp.mpf(-exponent.numerator) / exponent.denominator
        poly_coeffs = [mp.mpf(c.numerator) / c.denominator for c in pair.poly.coeffs]

        def phi(t):
            acc = mp.mpf(0)
            for c in reversed(poly_coeffs):
                acc = acc * t + c
            return (1 + t * t) ** power * acc

        for z in samples:
            zm = mp.mpf(z.numerator) / z.denominator
            second = mp.diff(phi, zm, 2)
            res = -((1 + zm * zm) ** 2) * second - mu * phi(zm)
            residuals.append((z, float(res)))
    return SLReduction(eigenvalue=lam, exponent=exponent, sl_eigenvalue=mu, residuals=tuple(residuals))


# ---------------------------------------------------------------------------
# admissible-candidate filter


@dataclass(frozen=True)
class AnalyticityVerdict:
    accepted: bool
    reason: str
    crack_relevant: bool


def analyticity_filter(candidate) -> AnalyticityVerdict:
    """Accept polynomial modes, reject the bounded inverse-tangent mode.

    The eigenvalue-zero bounded solution arctan(z) is rejected because its
    blow-up limit is the discontinuous trace sign(x), impossible for an
    analytic solution; polynomial modes are accepted, with degree-0 modes
    flagged as having no zeros and therefore no crack content.
    """
    if isinstance(candidate, str):
        if candidate == "arctan":
            return AnalyticityVerdict(False, "limit trace is the discontinuous sign(x)", False)
        if candidate == "polynomial":
            return AnalyticityVerdict(True, "finite polynomial mode", True)
        raise ValueError(f"unknown candidate kind {candidate!r}")
    poly = candidate.poly if isinstance(candidate, Eigenpair) else candidate
    if not isinstance(poly, RatPoly):
        raise TypeError("candidate must be 'polynomial', 'arctan', a RatPoly, or an Eigenpair")
    if poly.degree <= 0:
        return AnalyticityVerdict(True, "constant mode: no zeros, not crack-relevant", False)
    return AnalyticityVerdict(True, "finite polynomial mode", True)


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
