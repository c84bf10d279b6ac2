"""Independent oracles for the pencil eigenfunctions.

The program builds every eigenfunction from its closed form in z + i.  These
constructions share none of that code: the exact dense nullspace of the
pencil matrix, the two-term quadratic coefficient recursion, the quartic
relation `quartic_relation` derived by applying the written-out quartic
operator to monomials over the integers, and the transcribed reference
four-term quartic relation, whose mismatches are only logged.
`phase_seeds` takes root seeds from the phase form on numpy arrays: the
Laplace closed form with the operations of `pencil.nodal._phase_seeds` in
the same order, and for bi-Laplace a scan of 32 l + 1 samples, where the
program solves for the level crossings of the phase without sampling.
`variations_at` counts a Sturm chain's sign variations with one Horner sum
in a and b per element at the point a/b, where
`pencil.nodal._variations_at` takes each element's sign from its sign
kernel (`pencil.nodal._sign_kernel`) at a dyadic point.  `exact_newton` is
the exact Newton step as a reduced Fraction from powers of the denominator, where
`pencil.nodal._exact_newton` shifts and divides once.  `refine_root`
refines a root with every point a `Fraction` and every sign an a/b
Horner sum, where `pencil.nodal` (`_seed_bracket` and `_newton_root`, for
each gap `_certified_roots` certifies) keeps integers over a power of two
and takes its signs through a fixed-point filter.  `sturm_count` is
the distinct real root count of the classical Sturm sequence of p and p'
over the rationals on the whole line, where `pencil.nodal.count_real_roots`
counts an even or odd p on the integer chain of its half-degree part.
`sturm_isolation` bisects on that same rational sequence into isolating
intervals, with multiplicities from the Sturm sequences of its gcd tower,
where `pencil.nodal.isolate_real_roots` certifies seed gaps (of the
positive half line for an even or odd p, whose negative half is their
mirror image), isolates a repeated root through the square-free part and bisects only by Descartes
bounds.  Both Sturm oracles are memoized on their arguments.
`fraction_rref` and `fraction_kernel` are Gauss-Jordan elimination over
`Fraction`s, each pivot row divided by its pivot, where
`pencil.linalg.rational_kernel` eliminates fraction-free over the integers,
on the integer matrices `pencil.nodal` builds; `dense_kernel_in_class`
takes its nullspace from `fraction_kernel`.  `combination_poly` sums a
`Combination`'s weighted eigenfunctions in `RatPoly` arithmetic, where
`Combination.poly` sums integer numerators over one common denominator, and
`exact_admissibility` is an exact verdict's rank and kernel basis from a
matrix of `Fraction` power sums, where `pencil.nodal` scales each row to integers.
`int_form`, `primitive_coefficients` and `float_horner` derive a
`RatPoly`'s integer form, primitive integer list and float value from its
`Fraction`s on every call, where the `RatPoly` derives each once and keeps it.
`reconstruct_xy_by_monomials` expands an eigenpair into a dict of (x, y)
monomials and applies `pencil.pencils.xy_laplacian` to it, where
`pencil.pencils.reconstruct_xy` applies the banded map of a homogeneous
polynomial's coefficient list to integer numerators.
`characteristic_quartic` and `verify_quartic_factorization` prove the
quartic eigenvalue rule {-l, ..., -l-3} by exact division.  `generic_dp5`
is the adaptive Dormand-Prince 5(4) pair for any right-hand side and any
number of components, one stage at a time in loops over the tableau, where
`pencil.ode.integrate` writes out the two scalar components of the
oscillator f'' + |f|^(p-1) f = 0; `dense_value` evaluates one of its
dense-output segments.  `json_text`, `csv_text` and `render_line_chart`
write CLI output with the stdlib JSON encoder, one csv.writer row per data
row and one `svg._fmt` call per polyline coordinate, where `pencil.cli` and
`pencil.svg` format whole containers, rows and points at once.
"""

import csv
import functools
import io
import json
import math
import re
from fractions import Fraction
from typing import Sequence

from pencil import svg
from pencil.nodal import _FLOAT_STEP
from pencil.pencils import ReconstructionReport, quadratic_eigenfunction, quartic_eigenfunction, xy_laplacian
from pencil.polyring import RatPoly, op_apply


def fraction_rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row-echelon form and pivot columns by Gauss-Jordan elimination
    over `Fraction`s, each pivot row divided by its pivot."""
    m = [list(map(Fraction, row)) for row in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def fraction_kernel(rows: Sequence[Sequence[Fraction]], ncols: int) -> list[tuple[Fraction, ...]]:
    """Right nullspace basis from `fraction_rref`, one free coordinate set to 1 in each vector."""
    if not rows:
        return [tuple(Fraction(int(i == j)) for i in range(ncols)) for j in range(ncols)]
    rref, pivots = fraction_rref(rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rref[r][fc]
        basis.append(tuple(v))
    return basis


def int_form(p: RatPoly) -> tuple[list[int], int]:
    """(nums, d): p's numerators over d, the lcm of its coefficients' denominators."""
    d = math.lcm(*(c.denominator for c in p.coeffs))
    return [c.numerator * (d // c.denominator) for c in p.coeffs], d


def primitive_coefficients(p: RatPoly) -> list[int]:
    """p's integer form divided by the gcd of its numerators."""
    nums = int_form(p)[0]
    content = math.gcd(*nums)
    return [v // content for v in nums]


def float_horner(p: RatPoly, x) -> float:
    """Horner's rule at x with each coefficient converted to a float as it is reached."""
    acc = 0.0
    for c in reversed(p.coeffs):
        acc = acc * x + float(c)
    return acc


def combination_poly(combo) -> RatPoly:
    """sum_f psi_f Fraction(c_f) over `Combination` combo's nonzero weights, in
    `RatPoly` arithmetic, with a float weight as Fraction(float(c))."""
    out = RatPoly.zero()
    for family, c in enumerate(combo.coeffs, start=1):
        if c != 0:
            weight = c if isinstance(c, (int, Fraction)) and not isinstance(c, bool) else Fraction(float(c))
            out = out + combo.eigenfunction(family) * weight
    return out


def exact_admissibility(equation: str, alphas: Sequence[Fraction], l: int) -> tuple[int, tuple | None]:
    """(rank, kernel basis) of the order-l matrix [psi_{l-f+1,f}(alpha_j)], each
    entry a `Fraction` sum of c_k alpha^k, reduced by `fraction_kernel`; each
    basis vector divided by its entry of largest magnitude, and None for a
    trivial kernel."""
    build = quadratic_eigenfunction if equation == "laplace" else quartic_eigenfunction
    families = [f for f in range(1, (2 if equation == "laplace" else 4) + 1) if l - f + 1 >= (1 if f == 1 else 0)]
    polys = [build(l - f + 1, f).poly for f in families]
    matrix = [[sum((c * a**k for k, c in enumerate(p.coeffs)), Fraction(0)) for p in polys] for a in alphas]
    kernel = fraction_kernel(matrix, len(polys))
    basis = tuple(tuple(v / max(vec, key=abs) for v in vec) for vec in kernel)
    return len(polys) - len(kernel), basis or None


def reconstruct_xy_by_monomials(pair) -> ReconstructionReport:
    """The report of `reconstruct_xy` from u(x, y) = (-y)^n psi(x / -y), n = -lam, as {(i, j): c} monomials.

    The Laplacian and the bi-Laplacian are `xy_laplacian` applied once and
    twice to that dict.
    """
    n = -pair.eigenvalue
    if pair.poly.degree > n:
        raise ValueError(f"reconstruction is not polynomial: degree {pair.poly.degree} exceeds {n}")
    coeffs = {}
    for k in range(pair.poly.degree + 1):
        c = pair.poly.coefficient(k)
        if c != 0:
            coeffs[(k, n - k)] = c * (-1 if (n - k) % 2 else 1)
    lap = xy_laplacian(coeffs)
    return ReconstructionReport(
        pair=pair,
        homogeneity_degree=n,
        xy_coefficients=tuple(sorted(coeffs.items())),
        laplacian_zero=not lap,
        bilaplacian_zero=not xy_laplacian(lap),
    )


def dense_kernel_in_class(op, l: int) -> RatPoly | None:
    """Exact dense nullspace of the operator matrix on the degree<=l,
    parity-of-l monomials, made monic; None unless it is one element of
    exact degree l."""
    degrees = list(range(l % 2, l + 1, 2))
    columns = [op_apply(op, RatPoly([0] * d + [1])) for d in degrees]
    rows = [[col.coefficient(r) for col in columns] for r in range(l + 1)]
    kernel = fraction_kernel(rows, len(degrees))
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


def _quartic_operator(lam: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The quartic pencil at lam, written out as (coefficients of a polynomial in z, lowest first; derivative order) terms:

    (1+z^2)^2 D^4 + c3 (z + z^3) D^3 + c2 (1 + 3 z^2) D^2 + c1 z D + c0.
    """
    c3 = 4 * lam + 12
    c2 = 2 * lam * (lam + 5) + 12
    c1 = 4 * lam * (lam**2 + 6 * lam + 11) + 24
    c0 = lam * (lam + 1) * (lam + 2) * (lam + 3)
    return (((1, 0, 2, 0, 1), 4), ((0, c3, 0, c3), 3), ((c2, 0, 3 * c2), 2), ((0, c1), 1), ((c0,), 0))


def _on_monomial(terms, j: int) -> dict[int, int]:
    """The operator applied to z^j over the integers: {degree: coefficient}, D^d z^j = j (j-1) ... (j-d+1) z^(j-d)."""
    out: dict[int, int] = {}
    for coeffs, order in terms:
        falling = math.prod(range(j - order + 1, j + 1))
        for i, c in enumerate(coeffs):
            if c and falling:
                out[i + j - order] = out.get(i + j - order, 0) + c * falling
    return out


def quartic_relation(k: int, lam: int) -> tuple[int, int, int]:
    """(A4, A2, A0) of A4 b_{k+4} + A2 b_{k+2} + A0 b_k = 0, derived by applying the quartic operator to monomials.

    Every term of the operator lowers the degree by 4, 2 or 0, so only
    z^(k+4), z^(k+2) and z^k reach z^k: the coefficient of z^k in the
    operator applied to sum_j b_j z^j is that sum, which vanishes for an
    eigenfunction.
    """
    terms = _quartic_operator(lam)
    return tuple(_on_monomial(terms, k + d).get(k, 0) for d in (4, 2, 0))


def quartic_relation_residuals(l: int, family: int) -> list[Fraction]:
    """A4 b_{k+4} + A2 b_{k+2} + A0 b_k (`quartic_relation`) on the program's eigenfunction, for k = l mod 2, ..., l - 2, l."""
    pair = quartic_eigenfunction(l, family)
    b = [pair.poly.coefficient(j) for j in range(l + 5)]
    out = []
    for k in range(l % 2, l + 1, 2):
        a4, a2, a0 = quartic_relation(k, pair.eigenvalue)
        out.append(a4 * b[k + 4] + a2 * b[k + 2] + a0 * b[k])
    return out


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


# the scan's samples per unit of l, and its safeguarded Newton steps per bracket
_PHASE_SAMPLES = 32
_PHASE_STEPS = 12


def phase_seeds(l: int, coeffs: Sequence) -> list[float]:
    """Root seeds of a `pencil.nodal.Combination` from a numpy scan of its phase form.

    The Laplace seeds are the closed-form cotangents that
    `pencil.nodal._phase_seeds` computes, with the same operations in the
    same order.  The bi-Laplace phase form is sampled at 32 l + 1 evenly
    spaced angles in [0, pi], and every sign-change bracket is stepped by
    one vectorised safeguarded Newton iteration, up to 12 times, where the
    program solves for level crossings of the phase with no sampling.  Two
    roots closer than pi / (32 l) in angle can share a sample interval
    with no sign change, and the scan misses both.  A zero sine gives an
    infinite or NaN guess here, where the program drops the guess.
    """
    import numpy as np

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


def variations_at(chain, point: Fraction) -> int:
    """The sign-variation count of chain.polys at point.

    Each element's sign is that of b^n p(a/b), an integer Horner sum at the
    point a/b; zero signs are skipped in the count.
    """
    a, b = point.numerator, point.denominator
    signs = []
    for coeffs in chain.polys:
        acc, b_pow = 0, 1
        for c in reversed(coeffs):
            acc = acc * a + c * b_pow
            b_pow *= b
        signs.append((acc > 0) - (acc < 0))
    nonzero = [s for s in signs if s]
    return sum(s != t for s, t in zip(nonzero, nonzero[1:]))


def exact_newton(coeffs: Sequence[int], x: float) -> tuple[int, Fraction | None]:
    """Exact sign of p(x) and the Newton iterate x - p(x) / p'(x) as a Fraction, None where p'(x) = 0.

    With x = a/b the Horner sums are N = b^n p(x) and D = b^(n-1) p'(x), so
    the iterate is x - N / (b D).
    """
    a, b = Fraction(x).as_integer_ratio()
    n_acc = d_acc = 0
    b_pow = 1
    for c in reversed(coeffs):
        d_acc = d_acc * a + n_acc
        n_acc = n_acc * a + c * b_pow
        b_pow *= b
    return (n_acc > 0) - (n_acc < 0), (Fraction(a * d_acc - n_acc, b * d_acc) if d_acc else None)


def refine_root(coeffs: Sequence[int], lo: Fraction, hi: Fraction, tol: float, start: float | None) -> float:
    """The refinement of a certified gap's root in `pencil.nodal._certified_roots` with every point a `Fraction`.

    The one root of p in the open interval (lo, hi), with nonzero signs at
    both ends, refined step for step as the program refines it: the far end
    cut to sixteenths, the r +- 2^k certificate of the start, safeguarded
    exact Newton, the signs at the float neighbours of an iterate that has
    stalled, then exact bisection down to width goal, where the
    program stops as soon as both bracket ends round to one float (the
    answer is that float either way).  Every sign is that of a Horner sum
    in a and b at a/b (`_horner`), and every Newton iterate is
    `exact_newton` rounded to a float; the program keeps integers over one
    power of two and takes its signs through a fixed-point filter.
    ValueError where the answer overflows a float.
    """

    def sign(x: Fraction) -> int:
        v = _horner(coeffs, x)
        return (v > 0) - (v < 0)

    def to_float(x: Fraction) -> float:
        try:
            return float(x)
        except OverflowError:
            e = abs(x.numerator).bit_length() - x.denominator.bit_length()
            raise ValueError(f"a real root near 2^{e} lies beyond the float range (|x| < 2^1024)") from None

    def newton(r: float) -> tuple[int, float | None]:
        s, step = exact_newton(coeffs, r)
        try:
            return s, None if step is None else float(step)
        except OverflowError:
            return s, None

    def certified(r: float) -> float | None:
        x, h = Fraction(r), Fraction(2) ** k
        if not (lo < x - h and x + h < hi):
            return None
        s_left, s_right = sign(x - h), sign(x + h)
        if s_left * s_right < 0:
            return r
        if s_left == 0:
            return float(x - h)
        if s_right == 0:
            return float(x + h)
        return None

    while hi > 16 or lo < -16:
        far = hi if hi > -lo else lo
        cut = far / 16
        if not lo < cut < hi:
            break
        s_cut, s_far = sign(cut), sign(far)
        if s_cut == 0:
            return to_float(cut)
        if s_cut != s_far:
            break
        lo, hi = (lo, cut) if far == hi else (cut, hi)
    goal = Fraction(tol) / 8 * max(abs(lo), abs(hi), 1)
    # the largest k with 2^k <= goal / 2
    k = goal.numerator.bit_length() - goal.denominator.bit_length() - 2
    found = None if start is None else certified(start)
    if found is not None:
        return found
    slo = sign(lo)
    r = start if start is not None and lo < Fraction(start) < hi else to_float((lo + hi) / 2)
    a, b = lo, hi
    dx = dx_old = math.inf
    while True:
        x = Fraction(r)
        if not a < x < b:
            # stalled: r's float neighbours inside (a, b) take signs, below first
            for y in (math.nextafter(r, -math.inf), math.nextafter(r, math.inf)):
                if math.isfinite(y) and a < Fraction(y) < b:
                    s_y = sign(Fraction(y))
                    if s_y == 0:
                        return y
                    a, b = (Fraction(y), b) if s_y == slo else (a, Fraction(y))
            break
        sx, step = newton(r)
        if sx == 0:
            return r
        a, b = (x, b) if sx == slo else (a, x)
        if step is None or not (a <= step <= b and abs(step - r) <= dx_old / 2):
            step = to_float((a + b) / 2)
        dx_old, dx = dx, abs(step - r)
        r = step
        if b - a <= goal:
            break
        if dx <= _FLOAT_STEP * max(abs(r), 1.0):
            found = certified(r)
            if found is not None:
                return found
    while b - a > goal:
        mid = (a + b) / 2
        s_mid = sign(mid)
        if s_mid == 0:
            return to_float(mid)
        if s_mid == slo:
            a = mid
        else:
            b = mid
    return to_float((a + b) / 2)


def sturm_sequence(coeffs: Sequence) -> tuple[tuple[Fraction, ...], ...]:
    """The classical Sturm sequence of p and p' over the rationals (coefficients lowest first, rational, top nonzero).

    p_0 = p, p_1 = p', and p_{j+1} = -rem(p_{j-1}, p_j) by Fraction long
    division, times the positive rational that makes its coefficients
    coprime integers (a positive scale keeps every sign, and the next
    division works on shorter numbers), down to the last nonzero remainder,
    gcd(p, p') up to a constant.  Memoized on the coefficient tuple, so the
    result is immutable.
    """
    return _sturm_sequence(tuple(coeffs))


@functools.lru_cache(maxsize=4096)
def _sturm_sequence(coeffs: tuple) -> tuple[tuple[Fraction, ...], ...]:
    chain = [[Fraction(c) for c in coeffs]]
    derivative = [k * c for k, c in enumerate(chain[0])][1:]
    if derivative:
        chain.append(derivative)
    while len(chain[-1]) > 1:
        rem, div = list(chain[-2]), chain[-1]
        while len(rem) >= len(div):
            factor = rem[-1] / div[-1]
            shift = len(rem) - len(div)
            for j, c in enumerate(div):
                rem[shift + j] -= factor * c
            rem.pop()
            while rem and rem[-1] == 0:
                rem.pop()
        if not rem:
            break
        scale = Fraction(math.lcm(*(c.denominator for c in rem)), math.gcd(*(c.numerator for c in rem)))
        chain.append([-c * scale for c in rem])
    return tuple(map(tuple, chain))


def sturm_count(coeffs: Sequence) -> int:
    """Distinct real roots of the polynomial with these coefficients (lowest first, rational, top nonzero).

    The count is the sign variations of `sturm_sequence` at -inf minus
    those at +inf.
    """
    chain = sturm_sequence(coeffs)

    def variations(signs):
        return sum(a != b for a, b in zip(signs, signs[1:]))

    at_plus = [1 if q[-1] > 0 else -1 for q in chain]
    at_minus = [s if len(q) % 2 else -s for s, q in zip(at_plus, chain)]
    return variations(at_minus) - variations(at_plus)


def _horner(coeffs: Sequence[int], x: Fraction) -> int:
    """b^n p(a/b) for x = a/b, an integer Horner sum."""
    a, b = x.numerator, x.denominator
    acc, b_pow = 0, 1
    for c in reversed(coeffs):
        acc = acc * a + c * b_pow
        b_pow *= b
    return acc


def _sturm_variations(chain: Sequence[Sequence[int]], x: Fraction) -> int:
    """Sign variations of the chain's elements at x, zeros skipped."""
    signs = [v > 0 for v in (_horner(q, x) for q in chain) if v]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _integers(sequence: list[list[Fraction]]) -> list[list[int]]:
    """Each element of a Sturm sequence scaled by the positive lcm of its denominators to integers."""
    return [[int(c * math.lcm(*(d.denominator for d in q))) for c in q] for q in sequence]


def sturm_isolation(
    coeffs: Sequence, lo: Fraction | None = None, hi: Fraction | None = None
) -> tuple[tuple[Fraction, Fraction, int], ...]:
    """(a, b, m) for each distinct real root of p, sorted: the open interval (a, b) holds it alone, with multiplicity m.

    Sturm bisection of p's `sturm_sequence`: V(a) - V(b) distinct roots lie
    in (a, b) when neither end is a root, and a midpoint that is a root of
    p moves halfway toward a until it is not.  Without lo and hi it starts
    from the Cauchy bound 1 + max |a_k / a_n|, rounded up to a power of
    two; lo < hi, neither a root of p, restrict it to the roots in (lo, hi).
    The sequence ends at g_1 = gcd(p, p'), and a root of multiplicity m is a
    root of exactly g_1, ..., g_{m-1}, each g_{i+1} the last element of the
    Sturm sequence of g_i, so m is 1 plus the number of those sequences
    that count a root in (a, b).  Memoized on the coefficient tuple and the
    ends, so the result is immutable.
    """
    return _sturm_isolation(tuple(coeffs), lo, hi)


@functools.lru_cache(maxsize=4096)
def _sturm_isolation(coeffs: tuple, lo: Fraction | None, hi: Fraction | None) -> tuple[tuple[Fraction, Fraction, int], ...]:
    seq = sturm_sequence(coeffs)
    chain = _integers(seq)
    if lo is None:
        bound, cauchy = Fraction(1), 1 + max((abs(c / seq[0][-1]) for c in seq[0][:-1]), default=0)
        while bound <= cauchy:
            bound *= 2
        lo, hi = -bound, bound
    found = []
    stack = [(lo, _sturm_variations(chain, lo), hi, _sturm_variations(chain, hi))]
    while stack:
        a, v_a, b, v_b = stack.pop()
        if v_a - v_b == 1:
            found.append((a, b))
        elif v_a - v_b > 1:
            mid = (a + b) / 2
            while _horner(chain[0], mid) == 0:
                mid = (a + mid) / 2
            v_mid = _sturm_variations(chain, mid)
            stack += [(a, v_a, mid, v_mid), (mid, v_mid, b, v_b)]
    tower = []
    while len(seq[-1]) > 1:
        seq = sturm_sequence(seq[-1])
        tower.append(_integers(seq))
    return tuple(
        (a, b, 1 + sum(_sturm_variations(t, a) > _sturm_variations(t, b) for t in tower)) for a, b in sorted(found)
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


# Dormand-Prince 5(4) tableau, for the generic stage loop below
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_DP_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_DP_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
# dense output: row j holds the theta^(j+1) weight of each of the 7 stages
_DP_P = (
    (1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    (
        -8048581381 / 2820520608, 0.0, 131558114200 / 32700410799, -1754552775 / 470086768,
        127303824393 / 49829197408, -282668133 / 205662961, 40617522 / 29380423,
    ),
    (
        8663915743 / 2820520608, 0.0, -68118460800 / 10900136933, 14199869525 / 1410260304,
        -318862633887 / 49829197408, 2019193451 / 616988883, -110615467 / 29380423,
    ),
    (
        -12715105075 / 11282082432, 0.0, 87487479700 / 32700410799, -10690763975 / 1880347072,
        701980252875 / 199316789632, -1453857185 / 822651844, 69997945 / 29380423,
    ),
)
_MIN_REL_STEP = 1e-14


def _rms(values: list[float]) -> float:
    """Root mean square that does not overflow: the plain sum of squares,
    unless a square or the sum overflows; then math.hypot, which rescales."""
    try:
        total = sum([v**2 for v in values])
    except OverflowError:
        total = math.inf
    if total == math.inf:
        return math.hypot(*values) / math.sqrt(len(values))
    return math.sqrt(total / len(values))


def _initial_step(rhs, t0, y0, f0, rtol, atol, span) -> float:
    """First step guess of Hairer, Norsett & Wanner, section II.4."""
    scale = [atol + rtol * abs(v) for v in y0]
    d0 = _rms([v / s for v, s in zip(y0, scale)])
    d1 = _rms([v / s for v, s in zip(f0, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    y1 = tuple(y + h0 * f for y, f in zip(y0, f0))
    f1 = rhs(t0 + h0, y1)
    d2 = _rms([(a - b) / s for a, b, s in zip(f1, f0, scale)]) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, span)


def _weighted(weights, ks, i):
    acc = 0.0
    for w, k in zip(weights, ks):
        acc += w * k[i]
    return acc


def generic_dp5(rhs, t0, t1, y0, rtol, atol):
    """Step history (ts, ys, nfev, segments, truncated) of the adaptive
    Dormand-Prince 5(4) pair for y' = rhs(t, y), one stage at a time, every
    weighted sum accumulated left to right from 0.0.

    It has no step budget; a step below 1e-14 max(1, |t|) ends it as
    truncated, and an error norm that overflows rejects the step.
    """
    t, y = float(t0), tuple(float(v) for v in y0)
    f = tuple(rhs(t, y))
    nfev, n = 1, len(y)
    h = max(_initial_step(rhs, t, y, f, rtol, atol, t1 - t0), _MIN_REL_STEP * max(1.0, abs(t)))
    ts, ys, segments, truncated = [t], [y], [], False
    while t < t1:
        if h < _MIN_REL_STEP * max(1.0, abs(t)):
            truncated = True
            break
        h = min(h, t1 - t)
        k = [f]
        for s in range(1, 6):
            y_s = tuple(y[i] + h * _weighted(_DP_A[s], k, i) for i in range(n))
            k.append(tuple(rhs(t + _DP_C[s] * h, y_s)))
        y_new = tuple(y[i] + h * _weighted(_DP_B, k, i) for i in range(n))
        k.append(tuple(rhs(t + h, y_new)))
        nfev += 6
        try:
            total = 0.0
            for i in range(n):
                err = h * _weighted(_DP_E, k, i)
                total += (err / (atol + rtol * max(abs(y[i]), abs(y_new[i])))) ** 2
            norm = math.sqrt(total / n)
        except OverflowError:
            norm = math.inf
        if norm <= 1.0:
            q = [tuple(_weighted(row, k, i) for i in range(n)) for row in _DP_P]
            segments.append((t, h, y, q))
            t, y, f = t + h, y_new, k[6]
            ts.append(t)
            ys.append(y)
            h *= max(0.2, 10.0 if norm == 0.0 else min(10.0, 0.9 * norm**-0.2))
        else:
            h *= max(0.2, 0.9 * norm**-0.2)
    return ts, ys, nfev, segments, truncated


def dense_value(segment, t: float) -> tuple[float, ...]:
    """The quartic dense output of one `generic_dp5` segment at t, by
    Horner's rule from 0.0 in each component."""
    t0, h, y, q = segment
    theta = (t - t0) / h
    out = []
    for i, v in enumerate(y):
        acc = 0.0
        for row in reversed(q):
            acc = acc * theta + row[i]
        out.append(v + h * theta * acc)
    return tuple(out)


def json_text(value) -> str:
    """`value` as the stdlib encoder writes a CLI JSON document, before its
    final newline."""
    return json.dumps(value, indent=2, sort_keys=True, default=str)


def csv_text(header: str, columns: list[str], rows) -> str:
    """A CLI table with one csv.writer row per data row, each float cell as
    f"{v:.17g}"."""
    buf = io.StringIO()
    buf.write(f"# {header}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def polyline_points(series) -> list[str]:
    """The points attribute of each nonempty series' polyline, from the padded
    data bounds with one `svg._fmt` call per coordinate."""
    xs = [p[0] for _, pts in series for p in pts]
    ys = [p[1] for _, pts in series for p in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    x_pad, y_pad = 0.05 * (x_hi - x_lo), 0.05 * (y_hi - y_lo)
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad
    plot_w = svg._WIDTH - svg._MARGIN_L - svg._MARGIN_R
    plot_h = svg._HEIGHT - svg._MARGIN_T - svg._MARGIN_B

    def sx(x: float) -> float:
        return svg._MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return svg._MARGIN_T + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    return [" ".join(f"{svg._fmt(sx(x))},{svg._fmt(sy(y))}" for x, y in pts) for _, pts in series if pts]


def render_line_chart(series, *args, **kwargs) -> str:
    """`svg.render_line_chart`'s document with every polyline's points
    replaced by `polyline_points`."""
    points = iter(polyline_points(series))
    doc = svg.render_line_chart(series, *args, **kwargs)
    return re.sub(r'<polyline points="[^"]*"', lambda _: f'<polyline points="{next(points)}"', doc)

