"""Independent oracles for the pencil eigenfunctions.

The program builds every eigenfunction from its closed form in z + i.  These
constructions share none of that code: the exact dense nullspace of the
pencil matrix, the two-term quadratic coefficient recursion and the
reference four-term quartic relation.  `phase_seeds` is the numpy array
form of the phase-form root seeds, which `pencil.nodal._phase_seeds`
computes in plain float loops with the same operations in the same order.
`variations_at` counts a Sturm chain's sign variations with one Horner sum
in a and b per element at the point a/b, where
`pencil.nodal._variations_at` runs the Horner with shifts of
`pencil.nodal._dyadic_sign` at a dyadic point.  `exact_newton` is the exact Newton step as a
reduced Fraction from powers of the denominator, where
`pencil.nodal._exact_newton` shifts and divides once.  `sturm_count` is
the distinct real root count of the classical Sturm sequence of p and p'
over the rationals on the whole line, where `pencil.nodal.count_real_roots`
counts an even or odd p on the integer chain of its half-degree part.
`fraction_rref` and `fraction_kernel` are Gauss-Jordan elimination over
`Fraction`s, each pivot row divided by its pivot, where `pencil.linalg`
clears each row's denominators and eliminates fraction-free over the
integers.  `combination_poly` sums a `Combination`'s weighted
eigenfunctions in `RatPoly` arithmetic, where `Combination.poly` sums
integer numerators over one common denominator, and `exact_admissibility`
is an exact verdict's rank and kernel basis from a matrix of `Fraction`
power sums, where `pencil.nodal` scales each row to integers.
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
import io
import json
import math
import re
from fractions import Fraction
from typing import Sequence

from pencil import svg
from pencil.linalg import rational_kernel
from pencil.nodal import _PHASE_SAMPLES, _PHASE_STEPS
from pencil.pencils import quadratic_eigenfunction, quartic_eigenfunction
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


def phase_seeds(l: int, coeffs: Sequence) -> list[float]:
    """`pencil.nodal._phase_seeds` computed on numpy arrays.

    The same phase form on the same samples, with every sign-change bracket
    stepped by one vectorised safeguarded Newton iteration; see the
    program's docstring for the mathematics.  A zero sine gives an infinite
    or NaN guess here, where the program drops the guess.
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


def variations_at(chain, point: Fraction) -> tuple[int, int]:
    """Sign of chain.polys[0] at point and the sign-variation count of chain.polys there.

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
    return signs[0], sum(s != t for s, t in zip(nonzero, nonzero[1:]))


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


def sturm_count(coeffs: Sequence) -> int:
    """Distinct real roots of the polynomial with these coefficients (lowest first, rational, top nonzero).

    The Sturm sequence p_0 = p, p_1 = p', p_{j+1} = -rem(p_{j-1}, p_j) by
    Fraction long division, down to the last nonzero remainder; the count is
    its sign variations at -inf minus those at +inf.
    """
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
        chain.append([-c for c in rem])

    def variations(signs):
        return sum(a != b for a, b in zip(signs, signs[1:]))

    at_plus = [1 if q[-1] > 0 else -1 for q in chain]
    at_minus = [s if len(q) % 2 else -s for s, q in zip(at_plus, chain)]
    return variations(at_minus) - variations(at_plus)


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
