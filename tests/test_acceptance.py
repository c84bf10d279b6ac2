"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run as `pytest -s tests/test_acceptance.py` to see the per-criterion lines,
or `python tests/test_acceptance.py` for a standalone report.  Tolerances
and ranges are pinned here and are not meant to be tuned.
"""

import random
import time
from fractions import Fraction

import numpy as np

from pencil.expansion import Expansion, decay_order, perturbation_negligibility
from pencil.nodal import (
    Combination,
    CrackConfig,
    check_admissibility_bilaplace,
    check_admissibility_laplace,
    count_real_roots,
    transversality_check,
)
from pencil.pencils import (
    pencil_residual,
    quadratic_eigenfunction,
    quartic_eigenfunction,
    reconstruct_xy,
    sturm_liouville_check,
)
from pencil.polyring import RatPoly, poly_gcd
from pencil.semilinear import solve_selfsimilar, solve_stationary

from pencil_oracles import (
    quadratic_recursion_poly,
    quartic_recursion_report,
    quartic_relation_residuals,
    verify_quartic_factorization,
)


def _criterion(number: int, description: str, ok: bool, note: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({note})" if note else ""
    line = f"criterion {number:2d} {status}: {description}{suffix}"
    print(line)
    assert ok, line


def test_criterion_01_classical_table():
    t0 = time.time()
    expected = {
        (1, 1): RatPoly([0, 1]),
        (2, 1): RatPoly([-1, 0, 1]),
        (1, 2): RatPoly([0, 1]),
        (3, 1): RatPoly([0, -3, 0, 1]),
        (2, 2): RatPoly([-1, 0, 3]),  # classical form 3z^2 - 1; compare up to monic scaling
        (4, 1): RatPoly([1, 0, -6, 0, 1]),
        (3, 2): RatPoly([0, -1, 0, 1]),
    }
    ok = all(
        quadratic_eigenfunction(l, fam).poly == poly.monic() for (l, fam), poly in expected.items()
    )
    elapsed = time.time() - t0
    _criterion(1, "classical low-order eigenfunction table reproduced exactly", ok and elapsed < 1.0, f"{elapsed:.3f}s")


def test_criterion_02_exact_residuals():
    t0 = time.time()
    ok = True
    for l in range(1, 51):
        for fam in (1, 2):
            pair = quadratic_eigenfunction(l, fam)
            ok = ok and pencil_residual(pair).is_zero() and pair.poly.degree == l
    for l in range(0, 31):
        for fam in (1, 2, 3, 4):
            if fam == 1 and l == 0:
                continue
            pair = quartic_eigenfunction(l, fam)
            ok = ok and pencil_residual(pair).is_zero() and pair.poly.degree == l
    elapsed = time.time() - t0
    _criterion(
        2,
        "exact zero residuals: quadratic l<=50 (2 families), quartic l<=30 (4 families)",
        ok and elapsed < 60.0,
        f"{elapsed:.1f}s single-threaded",
    )


def test_criterion_03_characteristic_factorization():
    ok = all(verify_quartic_factorization(l) for l in range(0, 51))
    _criterion(3, "quartic characteristic roots {-l,...,-l-3} by exact division, l<=50", ok)


def test_criterion_04_transversality():
    ok = True
    for l in range(1, 51):
        pair = quadratic_eigenfunction(l, 1)
        ok = ok and transversality_check(pair)
        ok = ok and count_real_roots(pair.poly) == l
        ok = ok and poly_gcd(pair.poly, pair.poly.diff()).degree == 0
    _criterion(4, "family-1 eigenfunctions have l simple real roots, l<=50", ok)


def test_criterion_05_reconstruction():
    ok = True
    for l in range(1, 21):
        for fam in (1, 2):
            ok = ok and reconstruct_xy(quadratic_eigenfunction(l, fam)).laplacian_zero
    for l in range(0, 16):
        for fam in (1, 2, 3, 4):
            if fam == 1 and l == 0:
                continue
            rep = reconstruct_xy(quartic_eigenfunction(l, fam))
            ok = ok and rep.bilaplacian_zero
            if fam in (3, 4):
                ok = ok and not rep.laplacian_zero
    _criterion(
        5,
        "reconstructions: Laplacian zero (quadratic l<=20), bi-Laplacian zero with "
        "families 3-4 genuinely non-harmonic (quartic l<=15)",
        ok,
    )


def test_criterion_06_sturm_liouville():
    points = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(4))
    worst = 0.0
    for l in range(1, 11):
        for fam in (1, 2):
            red = sturm_liouville_check(quadratic_eigenfunction(l, fam), points)
            worst = max(worst, max(abs(r) for _, r in red.residuals))
    _criterion(
        6,
        "transformed-equation residual < 1e-10 at z in {0, 1/2, 1, 2, 4}, l<=10",
        worst < 1e-10,
        f"worst {worst:.2e}",
    )


def test_criterion_07_admissibility_examples():
    ok = True
    v = check_admissibility_laplace(CrackConfig((Fraction(-1), Fraction(1))), (2, 2))[0]
    ok = ok and v.admissible and v.combo_coefficients == (1, 0)

    vs = check_admissibility_laplace(CrackConfig((Fraction(0), Fraction(1))), (2, 4))
    ok = ok and [x.admissible for x in vs] == [False, False, True]
    ok = ok and vs[2].combo_coefficients == (0, 1)
    ok = ok and [round(r, 9) for r in vs[2].full_zero_set.refined_roots] == [-1.0, 0.0, 1.0]

    vs = check_admissibility_laplace(CrackConfig((Fraction(-2), Fraction(0), Fraction(1))), (3, 10))
    ok = ok and all(not x.admissible and x.rank == 2 for x in vs)

    for alphas, l in (((Fraction(-1), Fraction(1)), 2), ((Fraction(0), Fraction(1)), 4)):
        cfg = CrackConfig(alphas)
        lap = check_admissibility_laplace(cfg, (l, l))[0]
        bil = check_admissibility_bilaplace(cfg, (l, l))[0]
        ok = ok and bil.admissible
        # zero-padding the two-family combination must annihilate every slope
        padded = Combination("bilaplace", l, lap.combo_coefficients).poly
        for a in cfg.alphas:
            ok = ok and padded.eval(Fraction(a)) == 0
    _criterion(7, "worked admissibility examples with exact ranks and carried combos", ok)


def test_criterion_08_decay_order():
    radii = [10 ** (-2 - 0.1 * i) for i in range(11)]  # 1e-2 down to 1e-3
    worst_rel = 0.0
    for l in range(1, 7):
        fit = decay_order(Expansion("laplace", {l: (1, 0)}), radii)
        worst_rel = max(worst_rel, abs(fit.slope - l) / l)
    _criterion(
        8,
        "single-term decay order matches l within 1% for l in 1..6",
        worst_rel < 0.01,
        f"worst rel err {worst_rel:.2e}",
    )


def test_criterion_09_negligibility_slopes():
    taus = [1.0, 1.5, 2.0, 2.5, 3.0]
    ok = True
    notes = []
    for l, p in ((1, 3.0), (2, 2.0), (2, 3.0)):
        rep = perturbation_negligibility(Expansion("laplace", {l: (1, 0)}), p, taus)
        target = -(2 + l * (p - 1))
        ok = ok and abs(rep.slope - target) < 0.05
        notes.append(f"(l={l},p={p:g})->{rep.slope:.3f}")
    _criterion(9, "perturbation log-ratio slope is -(2 + l(p-1)) within 0.05", ok, "; ".join(notes))


def test_criterion_10_ode_profiles():
    t0 = time.time()
    ok = True
    notes = []

    sym = solve_stationary(3.0, "symmetric", "decay_inverse", tol=1e-10)
    ok = ok and sym.values[0] > 0 and sym.zeros == ()
    zg = np.array(sym.grid)
    fv = np.array(sym.values)
    mask = zg >= zg[-1] / 2
    slope = float(np.polyfit(np.log(zg[mask]), np.log(np.abs(fv[mask])), 1)[0])
    ok = ok and abs(slope + 1.0) < 0.05
    notes.append(f"sym f(0)={sym.values[0]:.4f} tail slope {slope:.3f}")

    anti = solve_stationary(3.0, "antisymmetric", "decay_inverse", tol=1e-10)
    ok = ok and anti.values[0] == 0.0 and anti.derivative_values[0] > 0
    notes.append(f"anti f'(0)={anti.derivative_values[0]:.4f}")

    plat = solve_stationary(3.0, "symmetric", "plateau_one", tol=1e-10)
    ok = ok and abs(plat.values[-1] - 1.0) < 1e-3
    notes.append(f"plateau f(Z)={plat.values[-1]:.6f}")

    counts = []
    for xi_min in (1e-2, 1e-3, 1e-4):
        sol = solve_selfsimilar(3.0, 1.0, xi_far=100.0, xi_min=xi_min, tol=1e-10)
        counts.append(len(sol.zeros))
        if xi_min == 1e-4:
            in_unit = [z for z in sol.zeros if 1e-4 < z < 1.0]
            ok = ok and len(in_unit) >= 3
            notes.append(f"zeros in (1e-4,1): {len(in_unit)}")
    ok = ok and counts[0] <= counts[1] <= counts[2]
    notes.append(f"zero counts by cutoff: {counts}")

    elapsed = time.time() - t0
    ok = ok and elapsed < 120.0
    _criterion(10, "profile classes exist with correct far fields and oscillation", ok,
               "; ".join(notes) + f"; {elapsed:.0f}s")


def test_criterion_11_oracle_independence():
    rng = random.Random(2024)
    ok = True
    for _ in range(10):
        fam = rng.choice((1, 2))
        l = rng.randint(1 if fam == 1 else 0, 45)
        ok = ok and quadratic_recursion_poly(l, fam) == quadratic_eigenfunction(l, fam).poly
    mismatches = 0
    for _ in range(6):
        fam = rng.choice((3, 4))
        l = rng.randint(4, 24)
        for row in quartic_recursion_report(l, fam):
            if not row["match"]:
                mismatches += 1
                print(
                    f"  note: reference quartic recursion disagrees at l={l} family={fam} "
                    f"k={row['k']}: oracle={row['oracle']} reference={row['reference']}"
                )
    # the relation derived from the written-out quartic operator holds exactly
    derived = [r for fam in (3, 4) for l in range(4, 40) for r in quartic_relation_residuals(l, fam)]
    ok = ok and len(derived) == 828 and not any(derived)
    _criterion(
        11,
        "quadratic recursion matches the nullspace oracle exactly on 10 random pairs; "
        "the derived quartic relation holds on all 828 coefficients of families 3 and 4, l = 4..39; "
        "quartic reference-recursion mismatches are logged, not fatal",
        ok,
        f"{mismatches} quartic lines logged",
    )


def main() -> int:
    globs = sorted(
        (name, fn)
        for name, fn in globals().items()
        if name.startswith("test_criterion_") and callable(fn)
    )
    failures = 0
    for _, fn in globs:
        try:
            fn()
        except AssertionError:
            failures += 1
    print(f"\n{len(globs) - failures}/{len(globs)} criteria passed")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
