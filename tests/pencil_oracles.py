"""Independent oracles for the pencil eigenfunctions.

The program builds every eigenfunction from its closed form in z + i.  These
constructions share none of that code: the exact dense nullspace of the
pencil matrix, the two-term quadratic coefficient recursion and the
reference four-term quartic relation.
"""

from fractions import Fraction

from pencil.linalg import rational_kernel
from pencil.pencils import quartic_eigenfunction
from pencil.polyring import RatPoly, op_apply


def dense_kernel_in_class(op, l: int) -> RatPoly | None:
    """Exact dense nullspace of the operator matrix on the degree<=l,
    parity-of-l monomials, made monic; None unless it is one element of
    exact degree l."""
    degrees = list(range(l % 2, l + 1, 2))
    columns = [op_apply(op, RatPoly.monomial(d)) for d in degrees]
    rows = [[col.coefficient(r) for col in columns] for r in range(l + 1)]
    kernel = rational_kernel(rows, ncols=len(degrees))
    if len(kernel) != 1 or kernel[0][-1] == 0:
        return None
    coeffs = [Fraction(0)] * (l + 1)
    for d, v in zip(degrees, kernel[0]):
        coeffs[d] = v
    return RatPoly(coeffs).monic()


def quadratic_recursion_poly(l: int, family: int) -> RatPoly:
    """Monic eigenfunction generated by the two-term coefficient recursion.

    Reading the recursion downward from the monic top coefficient, each lower
    coefficient is determined by a_k = -(k+2)(k+1) a_{k+2} / B(k) where
    B(k) = k(k-1) + 2(lam+1)k + lam(lam+1) is nonzero for k < l.
    """
    lam = -l if family == 1 else -l - 1
    coeffs = {l: Fraction(1)}
    for k in range(l - 2, -1, -2):
        bracket = Fraction(k * (k - 1) + 2 * (lam + 1) * k + lam * (lam + 1))
        assert bracket != 0, f"recursion bracket vanished at k={k}, l={l}, family={family}"
        coeffs[k] = -Fraction((k + 2) * (k + 1)) * coeffs[k + 2] / bracket
    return RatPoly([coeffs.get(i, Fraction(0)) for i in range(l + 1)])


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
    """Compare the program's quartic coefficients against the reference relation.

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
        # continue the chain from the program's value so one bad line is reported once
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
