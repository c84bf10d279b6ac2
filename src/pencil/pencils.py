"""Quadratic and quartic operator pencils and their polynomial eigenfunctions.

The quadratic pencil is the one-parameter family of ordinary differential
operators obtained by blow-up scaling of the Laplacian,

    (1+z^2) psi'' + 2(lam+1) z psi' + lam (lam+1) psi,

and the quartic pencil is the fourth-order analogue for the bi-Laplacian.
Both admit integer eigenvalue families with monic polynomial eigenfunctions.
Each eigenfunction has one construction: exact back-substitution over the
banded pencil matrix on the monomial basis.  The closed-form coefficient
recursions are independent public closed forms that tests compare against.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

# not called here; perfbench/tracing.py wraps it under this name on this module
from .linalg import rational_kernel  # noqa: F401
from .polyring import DiffOpTerm, RatPoly, op_apply, poly_from_json, poly_to_json

__all__ = [
    "InternalConsistencyError",
    "KernelDimensionError",
    "Eigenpair",
    "PencilSpec",
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
    "quadratic_recursion_poly",
    "quartic_recursion_report",
    "pencil_residual",
    "reconstruct_xy",
    "xy_laplacian",
    "sturm_liouville_check",
    "analyticity_filter",
    "eigenpair_to_json",
    "eigenpair_from_json",
]

QUADRATIC = "quadratic"
QUARTIC = "quartic"


class InternalConsistencyError(RuntimeError):
    """Two independent computations that must agree did not."""


class KernelDimensionError(InternalConsistencyError):
    """The pencil kernel in the constrained degree/parity class is not 1-dimensional."""


@dataclass(frozen=True)
class Eigenpair:
    """An integer pencil eigenvalue with its monic polynomial eigenfunction."""

    order: str
    family: int
    l: int
    eigenvalue: int
    poly: RatPoly


@dataclass(frozen=True)
class PencilSpec:
    """A pencil order together with a value of the spectral parameter."""

    order: str
    eigenvalue: Fraction

    def __post_init__(self):
        if self.order not in (QUADRATIC, QUARTIC):
            raise ValueError("order must be 'quadratic' or 'quartic'")
        object.__setattr__(self, "eigenvalue", Fraction(self.eigenvalue))

    def terms(self) -> tuple[DiffOpTerm, ...]:
        if self.order == QUADRATIC:
            return quadratic_pencil(self.eigenvalue)
        return quartic_pencil(self.eigenvalue)

    def apply(self, p: RatPoly) -> RatPoly:
        return op_apply(self.terms(), p)


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


def quadratic_spectrum(l_max: int) -> tuple[tuple[int, int, int], ...]:
    """(family, l, eigenvalue) entries for both quadratic families up to l_max."""
    if l_max < 1:
        raise ValueError("l_max must be >= 1")
    out = [(1, l, -l) for l in range(1, l_max + 1)]
    out += [(2, l, -l - 1) for l in range(0, l_max + 1)]
    return tuple(out)


def quartic_spectrum(l_max: int) -> tuple[tuple[int, int, int], ...]:
    """(family, l, eigenvalue) entries for the four quartic families up to l_max.

    The eigenvalues are the roots {-l, ..., -l-3} of the characteristic
    quartic; `verify_quartic_factorization` proves that factorization.
    """
    if l_max < 1:
        raise ValueError("l_max must be >= 1")
    out = [(1, l, -l) for l in range(1, l_max + 1)]
    for family in (2, 3, 4):
        out += [(family, l, -l - (family - 1)) for l in range(0, l_max + 1)]
    return tuple(out)


# ---------------------------------------------------------------------------
# eigenfunctions by back-substitution over the band


def _kernel_in_class(op: tuple[DiffOpTerm, ...], l: int, context: str) -> RatPoly:
    """Unique monic kernel element of exact degree l and parity of l.

    The pencils map z^d into span{z^d, z^(d-2), z^(d-4), ...}, so on the
    degree<=l, parity-of-l monomials their matrix is square and upper
    triangular.  The class holds exactly one kernel element of exact degree
    l iff the diagonal vanishes at d = l and at no lower d; its coefficients
    then follow by back-substitution from the monic top coefficient.
    """
    # band[s]: (j, c) for each term c*z^(j-s) * D^j, which maps z^d to z^(d-s)
    band: dict[int, list[tuple[int, Fraction]]] = {}
    for term in op:
        j = term.derivative_order
        for m, c in enumerate(term.coefficient_poly.coeffs):
            if c:
                band.setdefault(j - m, []).append((j, c))

    def entry(d: int, s: int) -> Fraction:
        """Coefficient of z^(d-s) in op(z^d)."""
        return sum(c * math.perm(d, j) for j, c in band.get(s, ()))

    if entry(l, 0) != 0:
        raise KernelDimensionError(f"{context}: the diagonal does not vanish at degree {l}")
    coeffs = [Fraction(0)] * (l + 1)
    coeffs[l] = Fraction(1)
    for k in range(l - 2, -1, -2):
        pivot = entry(k, 0)
        if pivot == 0:
            raise KernelDimensionError(f"{context}: the diagonal also vanishes at degree {k} < {l}")
        coeffs[k] = -sum(entry(k + s, s) * coeffs[k + s] for s in band if 0 < s <= l - k) / pivot
    return RatPoly(coeffs)


def quadratic_eigenvalue(l: int, family: int) -> int:
    return -l if family == 1 else -l - 1


def quartic_eigenvalue(l: int, family: int) -> int:
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

    Built by back-substitution over the banded pencil matrix; tests compare
    it against the independent closed form `quadratic_recursion_poly`.
    """
    _check_family_l(QUADRATIC, l, family)
    lam = quadratic_eigenvalue(l, family)
    poly = _kernel_in_class(quadratic_pencil(lam), l, f"quadratic l={l} family={family}")
    return Eigenpair(QUADRATIC, family, l, lam, poly)


@functools.lru_cache(maxsize=None)
def quartic_eigenfunction(l: int, family: int) -> Eigenpair:
    """Monic degree-l eigenfunction of the quartic pencil.

    Families 1 and 2 are the harmonic eigenfunctions carried over from the
    quadratic pencil (the constrained quartic kernel is 2-dimensional there,
    so harmonicity is the tie-break); families 3 and 4 come from the
    1-dimensional constrained quartic kernel.
    """
    _check_family_l(QUARTIC, l, family)
    lam = quartic_eigenvalue(l, family)
    if family in (1, 2):
        poly = quadratic_eigenfunction(l, family).poly
    else:
        poly = _kernel_in_class(quartic_pencil(lam), l, f"quartic l={l} family={family}")
    return Eigenpair(QUARTIC, family, l, lam, poly)


def pencil_residual(pair: Eigenpair) -> RatPoly:
    """Apply the pencil at the pair's eigenvalue to its eigenfunction, exactly.

    The zero polynomial certifies the eigenpair; a nonzero result is data.
    """
    return PencilSpec(pair.order, pair.eigenvalue).apply(pair.poly)


# ---------------------------------------------------------------------------
# closed-form coefficient recursions (independent oracles for the tests)


def quadratic_recursion_poly(l: int, family: int) -> RatPoly:
    """Monic eigenfunction generated by the two-term coefficient recursion.

    Reading the recursion downward from the monic top coefficient, each lower
    coefficient is determined by a_k = -(k+2)(k+1) a_{k+2} / B(k) where
    B(k) = k(k-1) + 2(lam+1)k + lam(lam+1) is nonzero for k < l.
    """
    _check_family_l(QUADRATIC, l, family)
    lam = quadratic_eigenvalue(l, family)
    coeffs = {l: Fraction(1)}
    for k in range(l - 2, -1, -2):
        bracket = Fraction(k * (k - 1) + 2 * (lam + 1) * k + lam * (lam + 1))
        if bracket == 0:
            raise InternalConsistencyError(f"recursion bracket vanished at k={k}, l={l}, family={family}")
        coeffs[k] = -Fraction((k + 2) * (k + 1)) * coeffs[k + 2] / bracket
    dense = [coeffs.get(i, Fraction(0)) for i in range(l + 1)]
    return RatPoly(dense)


def _reference_quartic_relation(k: int, lam: int) -> tuple[int, int, int]:
    """Coefficients (A4, A2, A0) of the reference four-term relation
    A4*b_{k+4} + A2*b_{k+2} + A0*b_k = 0, transcribed as-is, low-order
    special lines included."""
    if k == 0:
        return (
            24,
            4 * (lam**2 + 5 * lam) + 24,
            lam * (lam**3 + 6 * lam**2 + 11 * lam + 6),
        )
    if k == 1:
        return (120, 12 * (lam**2 + 7 * lam + 12), lam**4 + 10 * lam**3 + 17 * lam**2 + 17 * lam + 24)
    if k == 2:
        return (360, 24 * (lam**2 + 9 * lam + 20), lam**4 + 10 * lam**3 + 47 * lam**2 + 110 * lam + 120)
    if k == 3:
        return (840, 240 * (lam + 5), lam**4 + 10 * lam**3 + 71 * lam**2 + 254 * lam + 460)
    n2 = 2 * lam * (lam + 5) + 4 * lam * k + 2 * k * (k - 1) + 12 * k + 12
    n0 = (
        lam * (lam**3 + 6 * lam**2 + 11 * lam + 6)
        + 4 * lam * (lam**2 + 6 * lam + 11)
        + 6 * lam * (lam + 5) * k * (k - 1)
        + 4 * lam * k * (k - 1) * (k - 2)
        + k * (k - 1) * (k - 2) * (k - 3)
        + 12 * k * (k - 1) * (k - 2)
        + 36 * k * (k - 1)
        + 24 * k
    )
    return ((k + 4) * (k + 3) * (k + 2) * (k + 1), (k + 2) * (k + 1) * n2, n0)


def quartic_recursion_report(l: int, family: int) -> list[dict]:
    """Compare oracle-built quartic coefficients against the reference recursion.

    Returns one record per determined coefficient with both values; callers
    log mismatches (the exact operator residual stays authoritative).
    Families 1 and 2 are covered by the quadratic recursion instead.
    """
    if family not in (3, 4):
        raise ValueError("the quartic recursion report applies to families 3 and 4")
    pair = quartic_eigenfunction(l, family)
    lam = pair.eigenvalue
    oracle = {k: pair.poly.coefficient(k) for k in range(l % 2, l + 1, 2)}
    reference: dict[int, Fraction] = {l: Fraction(1), l + 2: Fraction(0), l + 4: Fraction(0)}
    report = []
    for k in range(l - 2, -1, -2):
        a4, a2, a0 = _reference_quartic_relation(k, lam)
        if a0 == 0:
            value = None
        else:
            value = -(Fraction(a4) * reference[k + 4] + Fraction(a2) * reference[k + 2]) / a0
        # continue the chain from the oracle so one bad line is reported once
        reference[k] = oracle[k] if value is None else value
        report.append(
            {
                "k": k,
                "oracle": oracle[k],
                "reference": value,
                "match": value is not None and value == oracle[k],
            }
        )
    return report


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


def eigenpair_from_json(data: dict) -> Eigenpair:
    return Eigenpair(
        order=data["order"],
        family=int(data["family"]),
        l=int(data["l"]),
        eigenvalue=int(data["lambda"]),
        poly=poly_from_json(data["coefficients"]),
    )
