"""Pencil spectra, eigenfunctions, reconstructions, and cross-checks."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pencil.linalg import rational_kernel, rational_rref
from pencil.pencils import (
    Eigenpair,
    eigenpair_to_json,
    pencil_residual,
    quadratic_eigenfunction,
    quadratic_pencil,
    quadratic_spectrum,
    quartic_eigenfunction,
    quartic_pencil,
    quartic_spectrum,
    reconstruct_xy,
    sturm_liouville_check,
    xy_laplacian,
)
from pencil.polyring import RatPoly, op_apply

from pencil_oracles import (
    characteristic_quartic,
    dense_kernel_in_class,
    fraction_kernel,
    fraction_rref,
    quadratic_recursion_poly,
    quartic_recursion_report,
    verify_quartic_factorization,
)


def binomial_harmonic(l: int, kind: str) -> RatPoly:
    """Independent reference: real or imaginary part of (x+iy)^l, rewritten
    in z = x/(-y) by substituting x = z, y = -1."""
    coeffs = [Fraction(0)] * (l + 1)
    for j in range(l + 1):
        c = Fraction(math.comb(l, j))
        if kind == "re" and j % 2 == 0:
            coeffs[l - j] += c * (-1) ** (j // 2)      # i^j real part, y^j(-1)^-l sign
        elif kind == "im" and j % 2 == 1:
            coeffs[l - j] += -(c * (-1) ** ((j - 1) // 2))
    return RatPoly(coeffs)


def quartic_kernel_degrees(lam: int, max_degree: int) -> tuple[int, ...]:
    """Independent oracle: the exact degrees realized by the quartic pencil's
    kernel within degree <= max_degree, from its dense nullspace brought to
    echelon form by leading degree."""
    op = quartic_pencil(lam)
    degrees = list(range(0, max_degree + 1))
    columns = [op_apply(op, RatPoly.monomial(d)) for d in degrees]
    max_row = max((c.degree for c in columns if not c.is_zero()), default=0)
    rows = [[col.coefficient(r) for col in columns] for r in range(max(max_row, max_degree) + 1)]
    echelon: dict[int, RatPoly] = {}
    for vec in rational_kernel(rows, ncols=len(degrees)):
        p = RatPoly(vec)
        while not p.is_zero() and p.degree in echelon:
            q = echelon[p.degree]
            p = p - q * (p.leading_coefficient / q.leading_coefficient)
        if not p.is_zero():
            echelon[p.degree] = p
    return tuple(sorted(echelon))


class TestSpectra:
    def test_quadratic_families(self):
        entries = quadratic_spectrum(3)
        fam1 = [lam for f, l, lam in entries if f == 1]
        fam2 = [lam for f, l, lam in entries if f == 2 and l <= 2]
        assert fam1 == [-1, -2, -3]
        assert fam2 == [-1, -2, -3]
        union = {lam for _, _, lam in entries}
        assert union == {-1, -2, -3, -4}

    def test_quadratic_requires_positive_lmax(self):
        with pytest.raises(ValueError):
            quadratic_spectrum(0)

    def test_quartic_l1_eigenvalues(self):
        entries = quartic_spectrum(1)
        at_l1 = sorted(lam for f, l, lam in entries if l == 1)
        assert at_l1 == [-4, -3, -2, -1]

    def test_quartic_l0(self):
        entries = quartic_spectrum(1)
        at_l0 = sorted(lam for f, l, lam in entries if l == 0)
        assert at_l0 == [-3, -2, -1]

    def test_factorization_identity(self):
        # lam^2 + (2l+5) lam + l^2+5l+6 == (lam+l+2)(lam+l+3)
        for l in range(0, 20):
            lhs = RatPoly([l * l + 5 * l + 6, 2 * l + 5, 1])
            rhs = RatPoly([l + 2, 1]) * RatPoly([l + 3, 1])
            assert lhs == rhs

    def test_characteristic_quartic_roots(self):
        assert all(verify_quartic_factorization(l) for l in range(0, 51))
        bad = characteristic_quartic(2) + RatPoly([1])
        quot, rem = divmod(bad, RatPoly([2, 1]))
        assert not rem.is_zero()

    def test_eigenvalue_family_relations(self):
        # lam_{l,4} = lam_{l-3,1}, lam_{l,3} = lam_{l-2,1}, lam_{l,2} = lam_{l-1,1}
        entries = {(f, l): lam for f, l, lam in quartic_spectrum(12)}
        for l in range(3, 10):
            assert entries[(4, l)] == entries[(1, l + 3)]
            assert entries[(3, l)] == entries[(1, l + 2)]
            assert entries[(2, l)] == entries[(1, l + 1)]


class TestOperatorStructure:
    def test_quartic_is_iterated_quadratic(self):
        # the fourth-order rescaled operator is the second-order one applied
        # twice, with the decay parameter shifted by 2 on the outer pass
        for lam in (-7, -3, 0, 2, Fraction(1, 2)):
            for k in range(0, 12):
                mono = RatPoly.monomial(k)
                lhs = op_apply(quartic_pencil(lam), mono)
                inner = op_apply(quadratic_pencil(lam), mono)
                rhs = op_apply(quadratic_pencil(Fraction(lam) + 2), inner)
                assert lhs == rhs

    def test_quartic_leading_action_is_characteristic(self):
        # coefficient of z^k in the quartic pencil applied to z^k equals the
        # characteristic quartic evaluated at that degree
        for lam in range(-9, 1):
            for k in range(0, 10):
                applied = op_apply(quartic_pencil(lam), RatPoly.monomial(k))
                assert applied.coefficient(k) == characteristic_quartic(k).eval(Fraction(lam))


class TestQuadraticEigenfunctions:
    def test_classical_table(self):
        assert quadratic_eigenfunction(1, 1).poly == RatPoly([0, 1])
        assert quadratic_eigenfunction(2, 1).poly == RatPoly([-1, 0, 1])
        assert quadratic_eigenfunction(1, 2).poly == RatPoly([0, 1])
        assert quadratic_eigenfunction(3, 1).poly == RatPoly([0, -3, 0, 1])
        assert quadratic_eigenfunction(2, 2).poly == RatPoly([Fraction(-1, 3), 0, 1])
        assert quadratic_eigenfunction(4, 1).poly == RatPoly([1, 0, -6, 0, 1])
        assert quadratic_eigenfunction(3, 2).poly == RatPoly([0, -1, 0, 1])

    def test_monic_normalization_of_classical_row(self):
        # 3z^2 - 1 appears non-monic in the classical table; monic form is z^2 - 1/3
        got = quadratic_eigenfunction(2, 2).poly
        assert got * 3 == RatPoly([-1, 0, 3])

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            quadratic_eigenfunction(0, 1)
        with pytest.raises(ValueError):
            quadratic_eigenfunction(2, 3)

    def test_residual_zero_small(self):
        for l in range(1, 16):
            for fam in (1, 2):
                assert pencil_residual(quadratic_eigenfunction(l, fam)).is_zero()

    def test_wrong_eigenvalue_not_annihilated(self):
        pair = quadratic_eigenfunction(2, 1)
        wrong = op_apply(quadratic_pencil(-3), pair.poly)
        assert not wrong.is_zero()

    def test_parity_support(self):
        for l in range(1, 20):
            for fam in (1, 2):
                assert quadratic_eigenfunction(l, fam).poly.parity_support() == {l % 2}

    def test_recursion_matches_oracle(self):
        for l in range(1, 30):
            for fam in (1, 2):
                assert quadratic_recursion_poly(l, fam) == quadratic_eigenfunction(l, fam).poly

    def test_harmonic_identification(self):
        # family 1 is the monic real part, family 2 the monic imaginary part
        for l in range(1, 21):
            re = binomial_harmonic(l, "re")
            assert quadratic_eigenfunction(l, 1).poly == re.monic()
            im = binomial_harmonic(l, "im")
            assert quadratic_eigenfunction(l - 1, 2).poly == im.monic()


def z_plus_i_power(n: int) -> tuple[RatPoly, RatPoly]:
    """Independent reference: Re (z+i)^n and Im (z+i)^n from the binomial theorem."""
    re = [0] * (n + 1)
    im = [0] * (n + 1)
    for k in range(n + 1):
        c = math.comb(n, k) * (-1) ** (k // 2)  # i^k = (-1)^(k//2) i^(k%2)
        (im if k % 2 else re)[n - k] += c
    return RatPoly(re), RatPoly(im)


class TestClosedForms:
    @pytest.mark.parametrize("l", [*range(1, 61), 100, 200, 300])
    def test_four_families_are_integer_binomial_forms(self, l):
        # the phase-form root seeds of pencil.nodal rest on these normalizations
        re_l, im_l = z_plus_i_power(l)
        assert quadratic_eigenfunction(l, 1).poly == re_l
        assert quadratic_eigenfunction(l - 1, 2).poly == im_l * Fraction(1, l)
        for family, degree in ((1, l), (2, l - 1)):
            assert quartic_eigenfunction(degree, family).poly == quadratic_eigenfunction(degree, family).poly
        if l >= 2:
            im_prev = z_plus_i_power(l - 1)[1]
            assert quartic_eigenfunction(l - 2, 3).poly == im_prev * Fraction(1, l - 1)
        if l >= 3:
            form = im_l - z_plus_i_power(l - 1)[0] * l
            assert form.degree == l - 3
            assert form.leading_coefficient == Fraction(l * (l - 1) * (l - 2), 3)
            assert quartic_eigenfunction(l - 3, 4).poly == form * Fraction(3, l * (l - 1) * (l - 2))


class TestClosedFormCertificates:
    """Exact certificates beyond the degrees the dense oracle reaches."""

    @pytest.mark.parametrize("l", [100, 200, 300])
    @pytest.mark.parametrize(
        "order, family",
        [("quadratic", 1), ("quadratic", 2), ("quartic", 1), ("quartic", 2), ("quartic", 3), ("quartic", 4)],
    )
    def test_residual_degree_and_reconstruction(self, order, family, l):
        build = quadratic_eigenfunction if order == "quadratic" else quartic_eigenfunction
        pair = build(l, family)
        assert pencil_residual(pair).is_zero()
        assert pair.poly.degree == l
        assert pair.poly.leading_coefficient == 1
        rep = reconstruct_xy(pair)
        if family <= 2:
            assert rep.laplacian_zero
        else:
            assert rep.bilaplacian_zero and not rep.laplacian_zero


class TestQuarticEigenfunctions:
    def test_spec_examples(self):
        assert quartic_eigenfunction(2, 3).poly == RatPoly([Fraction(-1, 3), 0, 1])
        assert quartic_eigenfunction(2, 3).eigenvalue == -4
        assert quartic_eigenfunction(1, 3).poly == RatPoly([0, 1])
        assert quartic_eigenfunction(0, 3).poly == RatPoly([1])
        assert quartic_eigenfunction(2, 1).poly == RatPoly([-1, 0, 1])

    def test_residual_zero_small(self):
        for l in range(0, 12):
            for fam in (1, 2, 3, 4):
                if fam == 1 and l == 0:
                    continue
                pair = quartic_eigenfunction(l, fam)
                assert pencil_residual(pair).is_zero()
                assert pair.poly.degree == l
                assert pair.poly.leading_coefficient == 1

    def test_invalid_family(self):
        with pytest.raises(ValueError):
            quartic_eigenfunction(2, 5)
        with pytest.raises(ValueError):
            quartic_eigenfunction(0, 1)

    def test_kernel_degrees(self):
        for n in range(3, 12):
            assert quartic_kernel_degrees(-n, n) == (n - 3, n - 2, n - 1, n)

    def test_family3_is_ring_times_harmonic_correction(self):
        # independent reconstruction: (1+z^2) psi_{6,1} - psi_{8,1}, monic
        p6 = quadratic_eigenfunction(6, 1).poly
        p8 = quadratic_eigenfunction(8, 1).poly
        expected = (RatPoly([1, 0, 1]) * p6 - p8).monic()
        assert quartic_eigenfunction(6, 3).poly == expected

    def test_recursion_report_structure(self):
        report = quartic_recursion_report(6, 3)
        assert [row["k"] for row in report] == [4, 2, 0]
        for row in report:
            assert isinstance(row["oracle"], Fraction)
        with pytest.raises(ValueError):
            quartic_recursion_report(4, 1)

    def test_shared_eigenvalue_kernel_is_ambiguous_without_tiebreak(self):
        # at lam=-6 the even-degree class holds both the degree-6 harmonic
        # and the degree-4 third-family element, so the constrained kernel
        # alone cannot define a family-1 eigenfunction
        assert dense_kernel_in_class(quartic_pencil(-6), 6) is None

    def test_wrong_eigenvalue_has_no_kernel_element(self):
        # at lam=-5 the quadratic diagonal at degree 2 is 6, not 0
        assert dense_kernel_in_class(quadratic_pencil(-5), 2) is None


class TestReconstruction:
    def test_quartic_family1_even(self):
        rep = reconstruct_xy(quadratic_eigenfunction(4, 1))
        assert dict(rep.xy_coefficients) == {(4, 0): 1, (2, 2): -6, (0, 4): 1}
        assert rep.laplacian_zero

    def test_odd_family2(self):
        rep = reconstruct_xy(quadratic_eigenfunction(3, 2))
        assert dict(rep.xy_coefficients) == {(3, 1): -1, (1, 3): 1}
        assert rep.laplacian_zero

    def test_pure_biharmonic_mode(self):
        rep = reconstruct_xy(quartic_eigenfunction(0, 3))
        assert dict(rep.xy_coefficients) == {(0, 2): 1}
        assert not rep.laplacian_zero
        assert rep.bilaplacian_zero
        # the single Laplacian is the constant 2
        lap = xy_laplacian(dict(rep.xy_coefficients))
        assert lap == {(0, 0): 2}

    def test_rejects_non_polynomial(self):
        pair = quadratic_eigenfunction(3, 1)
        bad = type(pair)(pair.order, pair.family, pair.l, -2, pair.poly)
        with pytest.raises(ValueError):
            reconstruct_xy(bad)


class TestSturmLiouville:
    def test_identity_case(self):
        red = sturm_liouville_check(quadratic_eigenfunction(1, 1))
        assert red.sl_eigenvalue == 0
        assert red.exponent == 0
        assert all(abs(r) < 1e-30 for _, r in red.residuals)

    def test_l2_case(self):
        red = sturm_liouville_check(quadratic_eigenfunction(2, 1))
        assert red.sl_eigenvalue == 3
        assert all(abs(r) < 1e-10 for _, r in red.residuals)

    def test_mu_monotone(self):
        mus = [sturm_liouville_check(quadratic_eigenfunction(l, 1)).sl_eigenvalue for l in range(1, 9)]
        assert mus == [l * l - 1 for l in range(1, 9)]
        assert all(a < b for a, b in zip(mus, mus[1:]))

    def test_quartic_rejected(self):
        with pytest.raises(ValueError):
            sturm_liouville_check(quartic_eigenfunction(0, 3))


class TestSerialization:
    def test_round_trip_residual(self):
        pair = quartic_eigenfunction(5, 4)
        data = eigenpair_to_json(pair)
        poly = RatPoly(Fraction(int(num), int(den)) for num, den in data["coefficients"])
        back = Eigenpair(data["order"], data["family"], data["l"], data["lambda"], poly)
        assert back == pair
        assert pencil_residual(back).is_zero()

    def test_lambda_key(self):
        data = eigenpair_to_json(quadratic_eigenfunction(4, 1))
        assert data["lambda"] == -4
        assert data["coefficients"] == [["1", "1"], ["0", "1"], ["-6", "1"], ["0", "1"], ["1", "1"]]


@st.composite
def rational_matrices(draw):
    """Matrices of up to 6 x 6 rationals with entries up to 2^200 over denominators
    up to b^60, made rank deficient by duplicate rows, rational combinations of
    rows and zero rows and columns; entries are ints where they are integers."""
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    entry = st.builds(
        lambda n, scale, den: Fraction(n * scale, den),
        st.integers(-9, 9),
        st.sampled_from([1, 2**200, -(3**127)]),
        st.sampled_from([1, 2, 3, 12, 2**60, 3**60, 7**60]),
    )
    basis = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=1, max_size=nrows))
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(["basis", "copy", "combination", "zero"]))
        if kind == "zero":
            rows.append([Fraction(0)] * ncols)
        elif kind == "combination":
            u, v = draw(st.sampled_from(basis)), draw(st.sampled_from(basis))
            c = draw(st.fractions(max_denominator=2**64).filter(lambda x: abs(x) < 2**64))
            rows.append([x + c * y for x, y in zip(u, v)])
        else:
            rows.append(list(draw(st.sampled_from(basis))))
    for col in draw(st.lists(st.integers(0, ncols - 1), max_size=2)):
        for row in rows:
            row[col] = Fraction(0)
    return [[int(x) if x.denominator == 1 and draw(st.booleans()) else x for x in row] for row in rows]


class TestLinalg:
    @settings(max_examples=300, deadline=None)
    @given(rational_matrices())
    @example([[Fraction(1, 3), Fraction(2, 3)], [Fraction(1, 2), Fraction(1)]])  # denominators cleared per row
    @example([[0, 2, 4], [3, 1, 0], [6, 2, 1]])  # a swap, then a negative pivot
    @example([[0, 0], [0, 0]])
    def test_fraction_free_matches_the_fraction_oracle(self, rows):
        rref, pivots = rational_rref(rows)
        assert (rref, pivots) == fraction_rref(rows)
        assert all(type(v) is Fraction for row in rref for v in row)
        ncols = len(rows[0])
        basis = rational_kernel(rows, ncols=ncols)
        assert basis == fraction_kernel(rows, ncols)
        assert len(basis) + len(pivots) == ncols
        for v in basis:
            assert all(sum((a * x for a, x in zip(row, v)), Fraction(0)) == 0 for row in rows)

    @pytest.mark.parametrize("l", [12, 25])
    def test_dense_pencil_matrices_match_the_fraction_oracle(self, l):
        # the oracle's dense quartic-pencil matrix at its eigenvalue: large, sparse and rank deficient
        op = quartic_pencil(-l)
        columns = [op_apply(op, RatPoly.monomial(d)) for d in range(l + 1)]
        rows = [[col.coefficient(r) for col in columns] for r in range(l + 4)]
        assert rational_rref(rows) == fraction_rref(rows)
        assert rational_kernel(rows, ncols=l + 1) == fraction_kernel(rows, l + 1)

    def test_edge_shapes(self):
        assert rational_rref([]) == ([], [])
        assert rational_rref([[], []]) == ([[], []], [])
        assert rational_kernel([], ncols=2) == [(1, 0), (0, 1)]
        assert rational_kernel([[0, 0]]) == [(1, 0), (0, 1)]
        # anything Fraction accepts is an entry, as before
        assert rational_rref([["1/2", 0.25], [True, 3]]) == fraction_rref([["1/2", 0.25], [True, 3]])

    def test_kernel_of_rank_deficient(self):
        m = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
        basis = rational_kernel(m)
        assert len(basis) == 1
        v = basis[0]
        assert v[0] * 1 + v[1] * 2 == 0

    def test_rank(self):
        m = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
        assert rational_rref(m)[1] == [0, 1]
        assert rational_rref([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])[1] == [0]


class TestDenseOracle:
    def test_eigenfunctions_match_dense_nullspace(self):
        for l in range(0, 46):
            for fam in (1, 2):
                if fam == 1 and l == 0:
                    continue
                pair = quadratic_eigenfunction(l, fam)
                assert dense_kernel_in_class(quadratic_pencil(pair.eigenvalue), l) == pair.poly
        for l in range(0, 31):
            for fam in (3, 4):
                pair = quartic_eigenfunction(l, fam)
                assert dense_kernel_in_class(quartic_pencil(pair.eigenvalue), l) == pair.poly


def test_random_pairs_recursion_agreement():
    rng = random.Random(7)
    for _ in range(10):
        fam = rng.choice((1, 2))
        l = rng.randint(1 if fam == 1 else 0, 40)
        assert quadratic_recursion_poly(l, fam) == quadratic_eigenfunction(l, fam).poly
