"""Command-line entry point: eigenfunctions, crack checks, expansions, profiles.

Output rule, the same for every command: --svg writes the chart, --csv the
table, and --json or --out the JSON payload (to the --out file, else stdout).
Without --json or --out, and with no file written, stdout gets the text form:
text lines, the CSV table for `expand eval`, the JSON for `expand trace` and
`ode crackcurves`. Every form opens with the same config JSON; output is
byte-identical for identical inputs, files are written atomically, and exit
codes are 0 (success), 1 (domain error, structured JSON on stderr), 2 (usage).

Byte contract: the JSON payload is the json.dumps(indent=2, sort_keys=True)
layout plus a newline, every CSV data cell is %.17g, and every SVG polyline
coordinate is %.6g.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Callable

from . import expansion as expmod
from . import nodal, pencils, semilinear
from .svg import render_line_chart

# the C string encoder that json.dumps uses with ensure_ascii
_encode_str = json.encoder.encode_basestring_ascii

SCHEMA_VERSION = "1"
# most points a range spec, a log y grid, the product of the grid axes, a
# boundary trace or a spectrum may have
MAX_POINTS = 1_000_000

__all__ = ["main", "entrypoint", "VerifyReport"]


# ---------------------------------------------------------------------------
# output


def _atomic_write(path: str, parts) -> None:
    """Write the strings of `parts` to `path` through a temporary file."""
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(parts)
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


_SEQUENCES = (list, tuple)
_FLOAT = {float}


def _json_text(value, pad: str) -> str:
    """`value` as json.dumps(value, indent=2, sort_keys=True, default=str)
    writes it when nested at indent `pad`, in one call per container.

    The stdlib encoder runs in pure Python once `indent` is set, with several
    generator frames per value; here a finite float in a list, and a nonempty
    list or tuple of finite floats in a list (a curve's [y, x] point), are
    written inline, and only other containers and scalars recurse.
    """
    if isinstance(value, str):
        return _encode_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value - value == 0:
            return float.__repr__(value)
        return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"
    inner = pad + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        open_, sep, close = "[\n" + inner + "  ", ",\n" + inner + "  ", "\n" + inner + "]"
        items = [
            float.__repr__(x)
            if type(x) is float and x - x == 0
            else open_ + sep.join(map(float.__repr__, x)) + close
            if type(x) in _SEQUENCES and x and {*map(type, x)} == _FLOAT and all(map(math.isfinite, x))
            else _json_text(x, inner)
            for x in value
        ]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [_encode_str(_json_key(k)) + ": " + _json_text(v, inner) for k, v in sorted(value.items())]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    return _encode_str(str(value))


def _json_key(key) -> str:
    # json writes a float, int, bool or None key as the text of its value
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return _json_text(key, "")
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _csv_lines(header: str, columns: list[str], rows):
    """The table's lines, made as they are written: the header comment, the
    column names, then each row tuple with every cell, a float, as %.17g."""
    row_format = ",".join(["%.17g"] * len(columns)) + "\n"
    return itertools.chain((f"# {header}\n", ",".join(columns) + "\n"), map(row_format.__mod__, rows))


def _emit(
    args: argparse.Namespace, command: str, body: dict | Callable[[], dict], text="json", table=None, chart=None
) -> None:
    """Write a command's output by the rule in the module docstring.

    `body` is the payload's dict, or a callable that builds it only if the
    payload is written.  `text` is the text lines, or "json" or "csv" when
    the text form is the payload or the table; `table` is (columns, rows),
    the rows tuples of floats read once, and `chart` is the (series, title, x label, y label) that
    render_line_chart takes.
    """
    config = _config_dict(args)
    header = "config: " + json.dumps(config, sort_keys=True)
    svg, csv_path = getattr(args, "svg", None), getattr(args, "csv", None)
    if svg:
        _atomic_write(svg, [render_line_chart(*chart, header_comment=header)])
    if csv_path:
        _atomic_write(csv_path, _csv_lines(header, *table))
    if args.json or args.out or (text == "json" and not (svg or csv_path)):
        body = body() if callable(body) else body
        payload = {"schema_version": SCHEMA_VERSION, "command": command, "config": config, **body}
        data = [_json_text(payload, ""), "\n"]
        if args.out:
            _atomic_write(args.out, data)
        else:
            sys.stdout.writelines(data)
    elif not (svg or csv_path):
        if text == "csv":
            sys.stdout.writelines(_csv_lines(header, *table))
        else:
            sys.stdout.write("\n".join([f"# {header}", *text]) + "\n")


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
    if not isinstance(raw, dict) or not all(
        isinstance(v, list) and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in v)
        for v in raw.values()
    ):
        raise ValueError('terms must be a JSON object mapping decay rates to lists of numbers, like {"2":[1,0]}')
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


def _past_digit_limit(build, order: str, l: int, family: int) -> bool:
    """Whether a coefficient of the eigenfunction that build(l, family) gives reaches 10^d, d = sys.get_int_max_str_digits().

    The widest numerator or denominator W lies in [2^lo, 2^hi)
    (`pencils._widest_coefficient_bits`), and 2^(3.3219 d) < 10^d < 2^(3.3220 d),
    so l alone decides unless 10^d falls between the bounds; only then is
    the eigenfunction built and W compared with 10^d.
    """
    digits = sys.get_int_max_str_digits()
    lo, hi = pencils._widest_coefficient_bits(order, l, family)
    if not digits or hi <= 33219 * digits // 10**4:
        return False
    if lo >= -(-33220 * digits // 10**4):
        return True
    return max(max(abs(c.numerator), c.denominator) for c in build(l, family).poly.coeffs) >= 10**digits


def _cmd_eig(args) -> int:
    build = pencils.quadratic_eigenfunction if args.order == "quadratic" else pencils.quartic_eigenfunction
    if _past_digit_limit(build, args.order, args.l, args.family):
        raise ValueError(
            f"--l {args.l} gives coefficients of more than {sys.get_int_max_str_digits()} digits, "
            "the limit of sys.get_int_max_str_digits()"
        )
    pair = build(args.l, args.family)
    text = [
        f"order={pair.order} family={pair.family} l={pair.l} lambda={pair.eigenvalue}",
        f"psi(z) = {pair.poly.pretty()}",
    ]
    _emit(args, "eig", {"eigenpair": pencils.eigenpair_to_json(pair)}, text=text)
    return 0


def _cmd_spectrum(args) -> int:
    n_families = 2 if args.order == "quadratic" else 4
    _check_points(f"the {args.order} spectrum to --lmax {args.lmax}", n_families * (args.lmax + 1) - 1)
    fn = pencils.quadratic_spectrum if args.order == "quadratic" else pencils.quartic_spectrum
    entries = [{"family": f, "l": l, "lambda": lam} for f, l, lam in fn(args.lmax)]
    text = [f"family={e['family']} l={e['l']} lambda={e['lambda']}" for e in entries]
    _emit(args, "spectrum", {"entries": entries}, text=text)
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
    text = [
        f"l={v.l} admissible={v.admissible} rank={v.rank}"
        + ("" if v.combo_coefficients is None else " combo=" + ",".join(str(c) for c in v.combo_coefficients))
        for v in verdicts
    ]
    alphas = [str(a) for a in config.alphas]
    # text mode never builds the JSON body
    _emit(args, "cracks-check", lambda: {"alphas": alphas, "verdicts": [_verdict_json(v) for v in verdicts]}, text=text)
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
    text = [
        f"l={row['l']} ratio={'endpoint' if row['ratio'] is None else format(row['ratio'], 'g')} alphas="
        + ",".join(f"{a:.12g}" for a in row["alphas"])
        for row in rows
    ]
    _emit(args, "cracks-enum", {"configs": rows}, text=text)
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
    columns = ["z", "tau", "x", "y", "w"]
    _emit(args, "expand-eval", {"columns": columns, "rows": rows}, text="csv", table=(columns, rows))
    return 0


def _cmd_expand_trace(args) -> int:
    exp = _parse_terms(args.terms, args.equation)
    _check_points("--samples", args.samples)
    trace = expmod.synthesize_boundary_trace(exp, args.samples)
    body = {"samples": [[t, v] for t, v in trace.samples], "crack_angles": list(trace.crack_angles)}
    chart = ([("u on lower unit circle", list(trace.samples))], "boundary trace", "theta", "u")
    _emit(args, "expand-trace", body, chart=chart)
    return 0


def _profile_outputs(args, sol: semilinear.ProfileSolution, command: str) -> None:
    body = {
        "shot_parameter": sol.shot_parameter,
        "zeros": list(sol.zeros),
        "zero_count": len(sol.zeros),
        "asymptotic_constant": sol.asymptotic_constant,
        "truncated": sol.truncated,
        # the cut is the inner end xi_min of a self-similar grid, which ascends
        # from it (or from the last xi reached, when truncated), and z_end of a stationary one
        "f_at_cut": sol.values[0] if sol.kind == semilinear.SELFSIMILAR else sol.values[-1],
    }
    text = [f"{key}={value}" for key, value in body.items() if key != "zeros"]
    # a deep self-similar solve has ~436k points: the table stays a lazy zip and the chart keeps ~4000
    stride = max(1, len(sol.grid) // 4000)
    chart = ([("f", list(zip(sol.grid[::stride], sol.values[::stride])))], command, "abscissa", "f")
    table = (["abscissa", "f", "f'"], zip(sol.grid, sol.values, sol.derivative_values))
    _emit(args, command, body, text=text, table=table, chart=chart)


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
    if args.maxcurves < 0:
        raise ValueError(f"maxcurves must be >= 0, got {args.maxcurves}")
    count, zeros = semilinear.selfsimilar_zeros(
        args.p, args.A, args.maxcurves, xi_far=args.Xi, xi_min=args.ximin, tol=args.tol
    )
    ys = _parse_ygrid(args.ygrid)
    shown = semilinear.curves_from_zeros(zeros, args.alpha, args.p, ys)
    if args.svg and not shown:
        # the chart needs a curve; say why there is none
        cause = (
            "--maxcurves is 0" if count else f"the profile has no zero in [ximin, Xi] = [{args.ximin:g}, {args.Xi:g}]"
        )
        raise ValueError(f"no crack curve to draw in the --svg chart: {cause}")
    body = {
        "beta": args.alpha * (args.p - 1) / 2.0,
        "curves": [{"xi": c.xi, "points": c.points} for c in shown],
        "total_zero_count": count,
    }
    chart = ([(f"xi={c.xi:.4g}", [(x, y) for y, x in c.points]) for c in shown], "crack curves", "x", "y")
    table = (["xi", "y", "x"], ((c.xi, y, x) for c in shown for y, x in c.points))
    _emit(args, "ode-crackcurves", body, table=table, chart=chart)
    return 0


# ---------------------------------------------------------------------------
# verify suites: each returns (failure message, ok) pairs


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
    return (f"nonzero residual: {order} l={l} family={family}", ok)


def _suite_residuals(lmax: int, parallelism: int) -> list[tuple[str, bool]]:
    jobs = [("quadratic", l, family) for family, l, _ in pencils.quadratic_spectrum(lmax)]
    jobs += [("quartic", l, family) for family, l, _ in pencils.quartic_spectrum(min(lmax, 30))]
    if parallelism > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=parallelism) as pool:
            return list(pool.map(_residual_task, jobs, chunksize=8))
    return [_residual_task(j) for j in jobs]


def _suite_roots(lmax: int) -> list[tuple[str, bool]]:
    return [
        (f"family-1 l={l} is not transversal", nodal.transversality_check(pencils.quadratic_eigenfunction(l, 1)))
        for l in range(1, lmax + 1)
    ]


def _suite_reconstruction(lmax: int) -> list[tuple[str, bool]]:
    checks = []
    for l in range(1, lmax + 1):
        for family in (1, 2):
            rep = pencils.reconstruct_xy(pencils.quadratic_eigenfunction(l, family))
            checks.append((f"quadratic l={l} family={family}: Laplacian not zero", rep.laplacian_zero))
    for family, l, _ in pencils.quartic_spectrum(lmax):
        rep = pencils.reconstruct_xy(pencils.quartic_eigenfunction(l, family))
        ok = rep.bilaplacian_zero and (family in (1, 2) or not rep.laplacian_zero)
        checks.append((f"quartic l={l} family={family}: reconstruction check failed", ok))
    return checks


def _suite_sturm_liouville(lmax: int) -> list[tuple[str, bool]]:
    checks = []
    for l in range(1, lmax + 1):
        for family in (1, 2):
            red = pencils.sturm_liouville_check(pencils.quadratic_eigenfunction(l, family))
            worst = max(abs(r) for _, r in red.residuals)
            checks.append((f"l={l} family={family}: residual {worst:.3e} is not 0", worst == 0))
    return checks


def _laplace_combo_carries(cfg: "nodal.CrackConfig", l: int) -> bool:
    """The order-l two-family combination, zero-padded over four families,
    must lie in the four-family kernel (and the verdict must be admissible)."""
    lap = nodal.check_admissibility_laplace(cfg, (l, l))[0]
    bil = nodal.check_admissibility_bilaplace(cfg, (l, l))[0]
    if not (lap.admissible and bil.admissible):
        return False
    padded = nodal.Combination("bilaplace", l, lap.combo_coefficients).poly
    return all(padded.eval(Fraction(a)) == 0 for a in cfg.alphas)


def _suite_admissibility_examples(lmax: int | None) -> list[tuple[str, bool]]:
    checks: list[tuple[str, bool]] = []
    cfg = nodal.CrackConfig((Fraction(-1), Fraction(1)))
    v = nodal.check_admissibility_laplace(cfg, (2, 2))[0]
    checks.append(("(-1,1) admissible at l=2 with (1,0)", v.admissible and v.combo_coefficients == (1, 0)))

    cfg = nodal.CrackConfig((Fraction(0), Fraction(1)))
    vs = nodal.check_admissibility_laplace(cfg, (2, 4))
    checks.append(("(0,1) inadmissible at l=2", not vs[0].admissible))
    checks.append(("(0,1) inadmissible at l=3", not vs[1].admissible))
    v4, zs = vs[2], vs[2].full_zero_set
    # the odd cubic's roots are -1, 0 and 1 exactly, each in its own isolating interval
    zero_ok = zs is not None and zs.count == 3 and all(
        lo < r < hi and zs.poly.eval(r) == 0 for r, (lo, hi) in zip((-1, 0, 1), zs.isolating_intervals)
    )
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
    return checks


# name -> (suite(lmax, parallelism), the lmax it runs at when --lmax is not
# given); only the residual suite runs jobs in worker processes
_SUITES = {
    "residuals": (_suite_residuals, 50),
    "roots": (lambda lmax, _: _suite_roots(lmax), 50),
    "reconstruction": (lambda lmax, _: _suite_reconstruction(lmax), 20),
    "sturm-liouville": (lambda lmax, _: _suite_sturm_liouville(lmax), 10),
    "admissibility-examples": (lambda lmax, _: _suite_admissibility_examples(lmax), None),
}


def _cmd_verify(args) -> int:
    names = list(_SUITES) if args.all else [args.suite]
    if names == [None]:
        raise ValueError("choose --suite NAME or --all")
    if args.lmax is not None and args.lmax < 1:
        raise ValueError(f"lmax must be >= 1, got {args.lmax}")
    cpus = os.cpu_count() or 1
    if not 1 <= args.parallelism <= cpus:
        raise ValueError(f"parallelism must lie in 1..{cpus}, got {args.parallelism}")
    reports, text = [], []
    for name in names:
        suite, default_lmax = _SUITES[name]
        checks = suite(default_lmax if args.lmax is None else args.lmax, args.parallelism)
        failures = [message for message, ok in checks if not ok]
        reports.append(VerifyReport(name, len(checks) - len(failures), len(failures), failures))
        text += [f"suite={name} passed={reports[-1].passed} failed={len(failures)}", *(f"  FAIL {d}" for d in failures)]
    body = {"suites": [asdict(r) for r in reports], "failed": sum(r.failed for r in reports)}
    _emit(args, "verify", body, text=text)
    return 0 if body["failed"] == 0 else 1


# ---------------------------------------------------------------------------
# parser


def _add_outputs_and_handler(p: argparse.ArgumentParser, func, svg: bool = False, csv_flag: bool = False) -> None:
    p.set_defaults(func=func)
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
    _add_outputs_and_handler(p, _cmd_eig)

    p = sub.add_parser("spectrum", help="eigenvalue families up to lmax")
    p.add_argument("--order", choices=("quadratic", "quartic"), required=True)
    p.add_argument("--lmax", type=int, required=True)
    _add_outputs_and_handler(p, _cmd_spectrum)

    cracks = sub.add_parser("cracks", help="crack admissibility").add_subparsers(
        dest="subcommand", required=True
    )
    p = cracks.add_parser("check", help="decide admissibility of a slope tuple")
    p.add_argument("--alphas", required=True, help="comma-separated slopes, e.g. -1,1")
    p.add_argument("--equation", choices=("laplace", "bilaplace"), default="laplace")
    p.add_argument("--lmin", type=int, required=True)
    p.add_argument("--lmax", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    _add_outputs_and_handler(p, _cmd_cracks_check)

    p = cracks.add_parser("enum", help="enumerate admissible configurations")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--ratios", required=True, help="start:stop:step or comma list")
    _add_outputs_and_handler(p, _cmd_cracks_enum)

    expand = sub.add_parser("expand", help="expansion evaluation").add_subparsers(
        dest="subcommand", required=True
    )
    p = expand.add_parser("eval", help="evaluate a truncated expansion on a grid")
    p.add_argument("--terms", required=True, help='JSON like {"2":[1,0]}')
    p.add_argument("--equation", choices=("laplace", "bilaplace"), default="laplace")
    p.add_argument("--grid", required=True, help="z=-3:3:0.01,tau=0:5:0.5")
    _add_outputs_and_handler(p, _cmd_expand_eval, csv_flag=True)

    p = expand.add_parser("trace", help="boundary trace on the lower unit circle")
    p.add_argument("--terms", required=True)
    p.add_argument("--equation", choices=("laplace", "bilaplace"), default="laplace")
    p.add_argument("--samples", type=int, default=720)
    _add_outputs_and_handler(p, _cmd_expand_trace, svg=True)

    ode = sub.add_parser("ode", help="semilinear profiles").add_subparsers(
        dest="subcommand", required=True
    )
    p = ode.add_parser("stationary", help="stationary profile by shooting")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--symmetry", choices=("symmetric", "antisymmetric"), default="symmetric")
    p.add_argument("--far", choices=("decay", "plateau"), default="decay")
    p.add_argument("--tol", type=float, default=semilinear.DEFAULT_TOL)
    p.add_argument("--zend", type=float, default=semilinear.DEFAULT_Z_END)
    _add_outputs_and_handler(p, _cmd_ode_stationary, svg=True, csv_flag=True)

    p = ode.add_parser("selfsimilar", help="oscillatory profile, scaled from one unit orbit in t = 1/xi")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--A", type=float, default=1.0, help="far-field amplitude")
    p.add_argument("--Xi", type=float, default=semilinear.DEFAULT_XI_FAR)
    p.add_argument("--ximin", type=float, default=semilinear.DEFAULT_XI_MIN)
    p.add_argument("--tol", type=float, default=semilinear.DEFAULT_TOL)
    _add_outputs_and_handler(p, _cmd_ode_selfsimilar, svg=True, csv_flag=True)

    p = ode.add_parser("crackcurves", help="log-perturbed crack curves from profile zeros")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--ygrid", required=True, help="-0.5:-1e-4:log[:count] or start:stop:step")
    p.add_argument("--A", type=float, default=1.0)
    p.add_argument("--Xi", type=float, default=semilinear.DEFAULT_XI_FAR)
    p.add_argument("--ximin", type=float, default=1e-2)
    p.add_argument("--tol", type=float, default=semilinear.DEFAULT_TOL)
    p.add_argument("--maxcurves", type=int, default=12)
    _add_outputs_and_handler(p, _cmd_ode_crackcurves, svg=True, csv_flag=True)

    p = sub.add_parser("verify", help="acceptance-style verification suites")
    p.add_argument("--suite", choices=_SUITES)
    p.add_argument("--all", action="store_true")
    p.add_argument("--lmax", type=int)
    p.add_argument("--parallelism", type=int, default=1)
    _add_outputs_and_handler(p, _cmd_verify)

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
    except (ValueError, ArithmeticError, semilinear.NoProfileFoundError) as exc:
        sys.stderr.write(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}, sort_keys=True) + "\n"
        )
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
