"""Command-line entry point: eigenfunctions, crack checks, expansions, profiles.

Output contract: JSON/CSV/SVG emission is deterministic (byte-identical for
identical inputs), every run echoes its resolved configuration, files are
written atomically, and exit codes are 0 (success), 1 (domain error,
structured JSON on stderr), 2 (usage error).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import expansion as expmod
from . import nodal, pencils, semilinear
from .svg import render_line_chart

SCHEMA_VERSION = "1"
# most points a range spec, a log y grid or the product of the grid axes may have
MAX_POINTS = 1_000_000

__all__ = ["main", "entrypoint", "VerifyReport"]


# ---------------------------------------------------------------------------
# small emit helpers


def _atomic_write(path: str, data: str) -> None:
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _frac_str(value) -> str:
    f = Fraction(value)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _coeff_json(value):
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return _frac_str(value)
    return float(value)


def _config_dict(args: argparse.Namespace) -> dict:
    # output paths are excluded so emitted artifacts are location-independent
    # (and byte-identical for identical inputs)
    skip = {"func", "out", "csv", "svg"}
    out = {}
    for key, value in sorted(vars(args).items()):
        if key in skip or value is None:
            continue
        out[key] = value if isinstance(value, (str, int, float, bool, list)) else str(value)
    return out


def _payload(args: argparse.Namespace, command: str, body: dict) -> dict:
    return {"schema_version": SCHEMA_VERSION, "command": command, "config": _config_dict(args), **body}


def _emit_json(args: argparse.Namespace, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n"
    if getattr(args, "out", None):
        _atomic_write(args.out, text)
    else:
        sys.stdout.write(text)


def _print_config_header(args: argparse.Namespace) -> None:
    print("# config: " + json.dumps(_config_dict(args), sort_keys=True))


def _emit_csv(args: argparse.Namespace, header_config: dict, columns: list[str], rows) -> None:
    buf = io.StringIO()
    buf.write("# config: " + json.dumps(header_config, sort_keys=True) + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in row])
    if getattr(args, "csv", None):
        _atomic_write(args.csv, buf.getvalue())
    else:
        sys.stdout.write(buf.getvalue())


def _emit_svg(args: argparse.Namespace, series, title: str, x_label: str, y_label: str) -> None:
    doc = render_line_chart(
        series,
        title=title,
        x_label=x_label,
        y_label=y_label,
        header_comment="config: " + json.dumps(_config_dict(args), sort_keys=True),
    )
    _atomic_write(args.svg, doc)


# ---------------------------------------------------------------------------
# argument parsing helpers


def _parse_alpha(text: str):
    try:
        return Fraction(text)
    except ValueError:
        return float(text)


def _parse_alphas(text: str) -> tuple:
    return tuple(_parse_alpha(chunk) for chunk in text.split(",") if chunk)


def _check_points(what: str, n: int) -> None:
    if n > MAX_POINTS:
        raise ValueError(f"{what} has {n} points, more than the bound of {MAX_POINTS}")


def _parse_range(text: str) -> list[float]:
    if ":" not in text:
        return [float(chunk) for chunk in text.split(",") if chunk]
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"range spec must be start:stop:step, got {text!r}")
    start, stop, step = (float(p) for p in parts)
    if step <= 0:
        raise ValueError("range step must be positive")
    span = (stop - start) / step
    if not math.isfinite(span):
        raise ValueError(f"range spec {text!r} must be finite")
    n = max(int(math.floor(span + 1e-9)) + 1, 1)
    _check_points(f"range {text!r}", n)
    return [start + i * step for i in range(n)]


def _parse_ygrid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) >= 3 and parts[2] == "log":
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[3]) if len(parts) > 3 else 50
        if not (start < 0 and stop < 0):
            raise ValueError("y grid endpoints must be negative")
        if count < 2:
            raise ValueError(f"a log y grid needs at least 2 points, got {count}")
        _check_points(f"y grid {text!r}", count)
        a, b = -start, -stop
        return [-(a * (b / a) ** (i / (count - 1))) for i in range(count)]
    return _parse_range(text)


def _parse_grid(text: str) -> dict[str, list[float]]:
    out = {}
    for chunk in text.split(","):
        name, _, spec = chunk.partition("=")
        if not spec:
            raise ValueError(f"grid chunk {chunk!r} must look like name=start:stop:step")
        out[name.strip()] = _parse_range(spec)
    _check_points(f"grid {text!r}", math.prod(len(axis) for axis in out.values()))
    return out


def _parse_terms(text: str, equation: str) -> expmod.Expansion:
    raw = json.loads(text)
    terms = {int(k): tuple(float(x) for x in v) for k, v in raw.items()}
    return expmod.Expansion(equation, terms)


_VALUE_FLAGS = {"--alphas", "--ratios", "--ygrid", "--A", "--terms", "--grid"}


def _fuse_flag_values(argv: list[str]) -> list[str]:
    # argparse mistakes values like "-1,1" for option strings; fuse them
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


# ---------------------------------------------------------------------------
# commands


def _cmd_eig(args) -> int:
    if args.order == "quadratic":
        pair = pencils.quadratic_eigenfunction(args.l, args.family)
    else:
        pair = pencils.quartic_eigenfunction(args.l, args.family)
    if args.json or args.out:
        _emit_json(args, _payload(args, "eig", {"eigenpair": pencils.eigenpair_to_json(pair)}))
    else:
        _print_config_header(args)
        print(f"order={pair.order} family={pair.family} l={pair.l} lambda={pair.eigenvalue}")
        print(f"psi(z) = {pair.poly.pretty()}")
    return 0


def _cmd_spectrum(args) -> int:
    fn = pencils.quadratic_spectrum if args.order == "quadratic" else pencils.quartic_spectrum
    entries = [{"family": f, "l": l, "lambda": lam} for f, l, lam in fn(args.lmax)]
    if args.json or args.out:
        _emit_json(args, _payload(args, "spectrum", {"entries": entries}))
    else:
        _print_config_header(args)
        for e in entries:
            print(f"family={e['family']} l={e['l']} lambda={e['lambda']}")
    return 0


def _rootset_json(rs: nodal.RootSet | None) -> dict | None:
    if rs is None:
        return None
    return {
        "roots": list(rs.refined_roots),
        "multiplicities": list(rs.multiplicities),
        "intervals": [[_frac_str(lo), _frac_str(hi)] for lo, hi in rs.isolating_intervals],
    }


def _verdict_json(v: nodal.AdmissibilityVerdict) -> dict:
    return {
        "l": v.l,
        "admissible": v.admissible,
        "combo": None if v.combo_coefficients is None else [_coeff_json(c) for c in v.combo_coefficients],
        "nullspace_basis": None
        if v.nullspace_basis is None
        else [[_coeff_json(c) for c in vec] for vec in v.nullspace_basis],
        "zero_set": _rootset_json(v.full_zero_set),
        "consecutive": v.consecutive_flag,
        "exact": v.exact,
        "rank": v.rank,
        "families": list(v.families),
    }


def _cmd_cracks_check(args) -> int:
    config = nodal.CrackConfig(_parse_alphas(args.alphas))
    check = (
        nodal.check_admissibility_laplace
        if args.equation == "laplace"
        else nodal.check_admissibility_bilaplace
    )
    verdicts = check(config, (args.lmin, args.lmax), tol=args.tol)
    if args.json or args.out:
        body = {"alphas": [str(a) for a in config.alphas], "verdicts": [_verdict_json(v) for v in verdicts]}
        _emit_json(args, _payload(args, "cracks-check", body))
    else:
        _print_config_header(args)
        for v in verdicts:
            combo = "" if v.combo_coefficients is None else " combo=" + ",".join(
                str(c) for c in v.combo_coefficients
            )
            print(f"l={v.l} admissible={v.admissible} rank={v.rank}{combo}")
    return 0


def _cmd_cracks_enum(args) -> int:
    ratios = _parse_range(args.ratios)
    configs = nodal.enumerate_admissible(args.m, args.l, ratios)
    rows = [
        {
            "alphas": list(c.config.alphas),
            "l": c.l,
            "ratio": c.ratio,
        }
        for c in configs
    ]
    if args.json or args.out:
        _emit_json(args, _payload(args, "cracks-enum", {"configs": rows}))
    else:
        _print_config_header(args)
        for row in rows:
            ratio = "endpoint" if row["ratio"] is None else f"{row['ratio']:g}"
            print(f"l={row['l']} ratio={ratio} alphas=" + ",".join(f"{a:.12g}" for a in row["alphas"]))
    return 0


def _cmd_expand_eval(args) -> int:
    exp = _parse_terms(args.terms, args.equation)
    grid = _parse_grid(args.grid)
    if "z" not in grid or "tau" not in grid:
        raise ValueError("grid must define z and tau, e.g. z=-3:3:0.5,tau=0:5:1")
    rows = []
    for tau in grid["tau"]:
        for z in grid["z"]:
            x, y = expmod.from_blowup(expmod.BlowupCoords(z, tau))
            rows.append((z, tau, x, y, expmod.eval_expansion(exp, z, tau)))
    if args.json:
        _emit_json(args, _payload(args, "expand-eval", {"columns": ["z", "tau", "x", "y", "w"], "rows": rows}))
    else:
        _emit_csv(args, _config_dict(args), ["z", "tau", "x", "y", "w"], rows)
    return 0


def _cmd_expand_trace(args) -> int:
    exp = _parse_terms(args.terms, args.equation)
    trace = expmod.synthesize_boundary_trace(exp, args.samples)
    if args.svg:
        series = [("u on lower unit circle", list(trace.samples))]
        _emit_svg(args, series, "boundary trace", "theta", "u")
    if args.json or args.out or not args.svg:
        body = {
            "samples": [[t, v] for t, v in trace.samples],
            "crack_angles": list(trace.crack_angles),
        }
        _emit_json(args, _payload(args, "expand-trace", body))
    return 0


def _profile_outputs(args, sol: semilinear.ProfileSolution, command: str) -> None:
    rows = list(zip(sol.grid, sol.values, sol.derivative_values))
    if args.svg:
        stride = max(1, len(rows) // 4000)
        pts = [(g, v) for g, v, _ in rows[::stride]]
        _emit_svg(args, [("f", pts)], command, "abscissa", "f")
    if args.csv:
        _emit_csv(args, _config_dict(args), ["abscissa", "f", "f'"], rows)
    body = {
        "shot_parameter": sol.shot_parameter,
        "zeros": list(sol.zeros),
        "zero_count": len(sol.zeros),
        "asymptotic_constant": sol.asymptotic_constant,
        "truncated": sol.truncated,
        "f_at_cut": sol.values[-1],
    }
    if args.json or args.out:
        _emit_json(args, _payload(args, command, body))
    elif not (args.svg or args.csv):
        _print_config_header(args)
        for key, value in body.items():
            if key != "zeros":
                print(f"{key}={value}")


def _cmd_ode_stationary(args) -> int:
    far = {"decay": "decay_inverse", "plateau": "plateau_one"}[args.far]
    sol = semilinear.solve_stationary(args.p, args.symmetry, far, tol=args.tol, z_end=args.zend)
    _profile_outputs(args, sol, "ode-stationary")
    return 0


def _cmd_ode_selfsimilar(args) -> int:
    sol = semilinear.solve_selfsimilar(args.p, args.A, xi_far=args.Xi, xi_min=args.ximin, tol=args.tol)
    _profile_outputs(args, sol, "ode-selfsimilar")
    return 0


def _cmd_ode_crackcurves(args) -> int:
    sol = semilinear.solve_selfsimilar(args.p, args.A, xi_far=args.Xi, xi_min=args.ximin, tol=args.tol)
    ys = _parse_ygrid(args.ygrid)
    curves = semilinear.crack_curves(sol, args.alpha, args.p, ys)
    shown = curves[: args.maxcurves]
    if args.svg:
        series = [(f"xi={c.xi:.4g}", [(x, y) for y, x in c.points]) for c in shown]
        _emit_svg(args, series, "crack curves", "x", "y")
    if args.csv:
        rows = [(c.xi, y, x) for c in shown for y, x in c.points]
        _emit_csv(args, _config_dict(args), ["xi", "y", "x"], rows)
    if args.json or args.out or not (args.svg or args.csv):
        body = {
            "beta": args.alpha * (args.p - 1) / 2.0,
            "curves": [{"xi": c.xi, "points": [[y, x] for y, x in c.points]} for c in shown],
            "total_zero_count": len(sol.zeros),
        }
        _emit_json(args, _payload(args, "ode-crackcurves", body))
    return 0


# ---------------------------------------------------------------------------
# verify suites


@dataclass
class VerifyReport:
    suite: str
    passed: int
    failed: int
    details: list[str]


def _residual_task(job: tuple[str, int, int]) -> tuple[str, bool]:
    order, l, family = job
    if order == "quadratic":
        pair = pencils.quadratic_eigenfunction(l, family)
    else:
        pair = pencils.quartic_eigenfunction(l, family)
    ok = pencils.pencil_residual(pair).is_zero() and pair.poly.degree == l
    return (f"{order} l={l} family={family}", ok)


def _suite_residuals(lmax: int, parallelism: int = 1) -> VerifyReport:
    lmax_quartic = min(lmax, 30)
    jobs: list[tuple[str, int, int]] = []
    jobs += [("quadratic", l, 1) for l in range(1, lmax + 1)]
    jobs += [("quadratic", l, 2) for l in range(0, lmax + 1)]
    for family in (1, 2, 3, 4):
        start = 1 if family == 1 else 0
        jobs += [("quartic", l, family) for l in range(start, lmax_quartic + 1)]
    if parallelism > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=parallelism) as pool:
            results = list(pool.map(_residual_task, jobs, chunksize=8))
    else:
        results = [_residual_task(j) for j in jobs]
    failures = [label for label, ok in results if not ok]
    return VerifyReport(
        suite="residuals",
        passed=len(results) - len(failures),
        failed=len(failures),
        details=[f"nonzero residual: {label}" for label in failures],
    )


def _suite_roots(lmax: int) -> VerifyReport:
    failures = []
    for l in range(1, lmax + 1):
        if not nodal.transversality_check(pencils.quadratic_eigenfunction(l, 1)):
            failures.append(f"family-1 l={l} is not transversal")
    return VerifyReport("roots", lmax - len(failures), len(failures), failures)


def _suite_reconstruction(lmax: int) -> VerifyReport:
    lmax_quartic = min(lmax, 15)
    passed = 0
    failures = []
    for l in range(1, lmax + 1):
        for family in (1, 2):
            rep = pencils.reconstruct_xy(pencils.quadratic_eigenfunction(l, family))
            if rep.laplacian_zero:
                passed += 1
            else:
                failures.append(f"quadratic l={l} family={family}: Laplacian not zero")
    for family in (1, 2, 3, 4):
        start = 1 if family == 1 else 0
        for l in range(start, lmax_quartic + 1):
            rep = pencils.reconstruct_xy(pencils.quartic_eigenfunction(l, family))
            ok = rep.bilaplacian_zero and (family in (1, 2) or not rep.laplacian_zero)
            if ok:
                passed += 1
            else:
                failures.append(f"quartic l={l} family={family}: reconstruction check failed")
    return VerifyReport("reconstruction", passed, len(failures), failures)


def _suite_sturm_liouville(lmax: int, tol: float = 1e-10) -> VerifyReport:
    passed = 0
    failures = []
    for l in range(1, lmax + 1):
        for family in (1, 2):
            red = pencils.sturm_liouville_check(pencils.quadratic_eigenfunction(l, family))
            worst = max(abs(r) for _, r in red.residuals)
            if worst < tol:
                passed += 1
            else:
                failures.append(f"l={l} family={family}: residual {worst:.3e} >= {tol:g}")
    return VerifyReport("sturm-liouville", passed, len(failures), failures)


def _laplace_combo_carries(cfg: "nodal.CrackConfig", l: int) -> bool:
    """The order-l two-family combination, zero-padded over four families,
    must lie in the four-family kernel (and the verdict must be admissible)."""
    lap = nodal.check_admissibility_laplace(cfg, (l, l))[0]
    bil = nodal.check_admissibility_bilaplace(cfg, (l, l))[0]
    if not (lap.admissible and bil.admissible):
        return False
    c, d = lap.combo_coefficients
    polys = [p for _, p in nodal._eigenfunctions_for_order("bilaplace", l)]
    padded = [c, d] + [Fraction(0)] * (len(polys) - 2)
    return all(
        sum(v * p.eval(Fraction(a)) for v, p in zip(padded, polys)) == 0
        for a in cfg.alphas
    )


def _suite_admissibility_examples() -> VerifyReport:
    checks: list[tuple[str, bool]] = []
    cfg = nodal.CrackConfig((Fraction(-1), Fraction(1)))
    v = nodal.check_admissibility_laplace(cfg, (2, 2))[0]
    checks.append(("(-1,1) admissible at l=2 with (1,0)", v.admissible and v.combo_coefficients == (1, 0)))

    cfg = nodal.CrackConfig((Fraction(0), Fraction(1)))
    vs = nodal.check_admissibility_laplace(cfg, (2, 4))
    checks.append(("(0,1) inadmissible at l=2", not vs[0].admissible))
    checks.append(("(0,1) inadmissible at l=3", not vs[1].admissible))
    v4 = vs[2]
    zero_ok = v4.full_zero_set is not None and [round(r, 6) for r in v4.full_zero_set.refined_roots] == [-1.0, 0.0, 1.0]
    checks.append(("(0,1) admissible at l=4 via the odd cubic", v4.admissible and v4.combo_coefficients == (0, 1) and zero_ok))

    cfg = nodal.CrackConfig((Fraction(-2), Fraction(0), Fraction(1)))
    vs = nodal.check_admissibility_laplace(cfg, (3, 10))
    checks.append(("(-2,0,1) inadmissible for l<=10", all(not v.admissible for v in vs)))
    checks.append(("(-2,0,1) ranks all equal 2", all(v.rank == 2 for v in vs)))

    for alphas, l in (((Fraction(-1), Fraction(1)), 2), ((Fraction(0), Fraction(1)), 4)):
        cfg = nodal.CrackConfig(alphas)
        checks.append(
            (f"laplace combo carries to bilaplace at l={l} zero-padded", _laplace_combo_carries(cfg, l))
        )

    failures = [name for name, ok in checks if not ok]
    return VerifyReport("admissibility-examples", len(checks) - len(failures), len(failures), failures)


_SUITES = ("residuals", "roots", "reconstruction", "sturm-liouville", "admissibility-examples")


def _run_suite(name: str, lmax: int | None, parallelism: int) -> VerifyReport:
    if name == "residuals":
        return _suite_residuals(lmax or 50, parallelism)
    if name == "roots":
        return _suite_roots(lmax or 50)
    if name == "reconstruction":
        return _suite_reconstruction(lmax or 20)
    if name == "sturm-liouville":
        return _suite_sturm_liouville(lmax or 10)
    if name == "admissibility-examples":
        return _suite_admissibility_examples()
    raise ValueError(f"unknown suite {name!r}")


def _cmd_verify(args) -> int:
    names = list(_SUITES) if args.all else [args.suite]
    if not names or names == [None]:
        raise ValueError("choose --suite NAME or --all")
    parallelism = int(os.environ.get("PENCIL_PARALLELISM", args.parallelism))
    cpus = os.cpu_count() or 1
    if not 1 <= parallelism <= cpus:
        raise ValueError(f"parallelism must lie in 1..{cpus}, got {parallelism}")
    reports = [_run_suite(name, args.lmax, parallelism) for name in names]
    total_failed = sum(r.failed for r in reports)
    body = {
        "suites": [
            {"suite": r.suite, "passed": r.passed, "failed": r.failed, "details": r.details}
            for r in reports
        ],
        "failed": total_failed,
    }
    if args.json or args.out:
        _emit_json(args, _payload(args, "verify", body))
    else:
        _print_config_header(args)
        for r in reports:
            print(f"suite={r.suite} passed={r.passed} failed={r.failed}")
            for d in r.details:
                print(f"  FAIL {d}")
    return 0 if total_failed == 0 else 1


# ---------------------------------------------------------------------------
# parser


def _add_common_output(p: argparse.ArgumentParser, svg: bool = False, csv_flag: bool = False) -> None:
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.add_argument("--out", help="write the JSON payload to a file instead of stdout")
    if svg:
        p.add_argument("--svg", help="write an SVG figure to this path")
    if csv_flag:
        p.add_argument("--csv", help="write CSV to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pencil", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eig", help="one pencil eigenfunction")
    p.add_argument("--order", choices=("quadratic", "quartic"), required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--family", type=int, required=True)
    _add_common_output(p)
    p.set_defaults(func=_cmd_eig)

    p = sub.add_parser("spectrum", help="eigenvalue families up to lmax")
    p.add_argument("--order", choices=("quadratic", "quartic"), required=True)
    p.add_argument("--lmax", type=int, required=True)
    _add_common_output(p)
    p.set_defaults(func=_cmd_spectrum)

    cracks = sub.add_parser("cracks", help="crack admissibility").add_subparsers(
        dest="subcommand", required=True
    )
    p = cracks.add_parser("check", help="decide admissibility of a slope tuple")
    p.add_argument("--alphas", required=True, help="comma-separated slopes, e.g. -1,1")
    p.add_argument("--equation", choices=("laplace", "bilaplace"), default="laplace")
    p.add_argument("--lmin", type=int, required=True)
    p.add_argument("--lmax", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    _add_common_output(p)
    p.set_defaults(func=_cmd_cracks_check)

    p = cracks.add_parser("enum", help="enumerate admissible configurations")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--ratios", required=True, help="start:stop:step or comma list")
    _add_common_output(p)
    p.set_defaults(func=_cmd_cracks_enum)

    expand = sub.add_parser("expand", help="expansion evaluation").add_subparsers(
        dest="subcommand", required=True
    )
    p = expand.add_parser("eval", help="evaluate a truncated expansion on a grid")
    p.add_argument("--terms", required=True, help='JSON like {"2":[1,0]}')
    p.add_argument("--equation", choices=("laplace", "bilaplace"), default="laplace")
    p.add_argument("--grid", required=True, help="z=-3:3:0.01,tau=0:5:0.5")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", help="write the JSON payload to a file")
    p.add_argument("--csv", help="write CSV to this path (default: stdout)")
    p.set_defaults(func=_cmd_expand_eval)

    p = expand.add_parser("trace", help="boundary trace on the lower unit circle")
    p.add_argument("--terms", required=True)
    p.add_argument("--equation", choices=("laplace", "bilaplace"), default="laplace")
    p.add_argument("--samples", type=int, default=720)
    _add_common_output(p, svg=True)
    p.set_defaults(func=_cmd_expand_trace)

    ode = sub.add_parser("ode", help="semilinear profiles").add_subparsers(
        dest="subcommand", required=True
    )
    p = ode.add_parser("stationary", help="stationary profile by shooting")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--symmetry", choices=("symmetric", "antisymmetric"), default="symmetric")
    p.add_argument("--far", choices=("decay", "plateau"), default="decay")
    p.add_argument("--tol", type=float, default=semilinear.DEFAULT_TOL)
    p.add_argument("--zend", type=float, default=semilinear.DEFAULT_Z_END)
    _add_common_output(p, svg=True, csv_flag=True)
    p.set_defaults(func=_cmd_ode_stationary)

    p = ode.add_parser("selfsimilar", help="oscillatory profile, scaled from one unit orbit in t = 1/xi")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--A", type=float, default=1.0, help="far-field amplitude")
    p.add_argument("--Xi", type=float, default=semilinear.DEFAULT_XI_FAR)
    p.add_argument("--ximin", type=float, default=semilinear.DEFAULT_XI_MIN)
    p.add_argument("--tol", type=float, default=semilinear.DEFAULT_TOL)
    _add_common_output(p, svg=True, csv_flag=True)
    p.set_defaults(func=_cmd_ode_selfsimilar)

    p = ode.add_parser("crackcurves", help="log-perturbed crack curves from profile zeros")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--ygrid", required=True, help="-0.5:-1e-4:log[:count] or start:stop:step")
    p.add_argument("--A", type=float, default=1.0)
    p.add_argument("--Xi", type=float, default=semilinear.DEFAULT_XI_FAR)
    p.add_argument("--ximin", type=float, default=1e-2)
    p.add_argument("--tol", type=float, default=semilinear.DEFAULT_TOL)
    p.add_argument("--maxcurves", type=int, default=12)
    _add_common_output(p, svg=True, csv_flag=True)
    p.set_defaults(func=_cmd_ode_crackcurves)

    p = sub.add_parser("verify", help="acceptance-style verification suites")
    p.add_argument("--suite", choices=_SUITES)
    p.add_argument("--all", action="store_true")
    p.add_argument("--lmax", type=int)
    p.add_argument("--parallelism", type=int, default=1)
    _add_common_output(p)
    p.set_defaults(func=_cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # one parser per process: no argument has a mutable default or appends, and
    # prog is fixed, so parsing leaves the parser as it was
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _parser().parse_args(_fuse_flag_values(argv))
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, semilinear.NoProfileFoundError, pencils.InternalConsistencyError) as exc:
        sys.stderr.write(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}, sort_keys=True) + "\n"
        )
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
