"""The four workloads: seeded op lists, how each op runs, and how it is checked.

An op list is a sequence of rounds. Every round of a workload has the same
composition: the same op kinds in the same cost strata. The seed picks the
inputs inside each stratum and the order. A run stops at the first round
boundary after --seconds of measured op time and 100 ops, so runs on
different seeds do comparable work and the latency quantiles fall in the
same strata.

Each op kind has three parts. `run` is the timed call into the program and
returns its raw result. `summarize` reduces that result to a small record
outside the timed region. `check` compares the record with a digest recorded
at the reference commit or with an independent oracle. It returns
(ok, digits, detail), where digits is -log10 of the relative error against
the oracle, or None when the op has no numerical oracle.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import shutil
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from pencil import cli, nodal, pencils, semilinear  # noqa: E402

import oracles  # noqa: E402

OUT_DIR = Path(__file__).resolve().parent / "out"

# Captured before any tracing wrapper is installed, so the cold workload can
# always reach the caches it empties.
_EIG_BUILDERS = (pencils.quadratic_eigenfunction, pencils.quartic_eigenfunction)


@dataclass(frozen=True)
class Op:
    kind: str
    args: tuple

    @property
    def key(self) -> str:
        return ":".join([self.kind, *(",".join(map(str, a)) if isinstance(a, tuple) else str(a) for a in self.args)])


def _clear_eigen_caches() -> None:
    for fn in _EIG_BUILDERS:
        clear = getattr(fn, "cache_clear", None)
        if clear is not None:
            clear()


def _eigenpair(order: str, l: int, family: int):
    if order == "quadratic":
        return pencils.quadratic_eigenfunction(l, family)
    return pencils.quartic_eigenfunction(l, family)


def _prebuild(quadratic_degrees, quartic_lmax: int) -> None:
    for l in quadratic_degrees:
        for family in (1, 2):
            if l >= (1 if family == 1 else 0):
                pencils.quadratic_eigenfunction(l, family)
    for l in range(quartic_lmax + 1):
        for family in (1, 2, 3, 4):
            if l >= (1 if family == 1 else 0):
                pencils.quartic_eigenfunction(l, family)


def _fracs(texts) -> tuple[Fraction, ...]:
    return tuple(Fraction(t) for t in texts)


def _digest_check(op: Op, summary: dict):
    expected = oracles.reference_digests().get(op.key)
    if expected is None:
        return False, None, "no reference digest for this op"
    if summary["digest"] != expected:
        return False, None, f"digest {summary['digest']} != reference {expected}"
    return True, None, ""


def _roots_digits(found, expected) -> float:
    return min((oracles.digits(x, y) for x, y in zip(found, expected)), default=oracles.DIGITS_CAP)


def _nearest_digits(roots, alphas) -> float:
    if not roots:
        return 0.0
    return min(oracles.digits(min(roots, key=lambda r: abs(r - a)), a) for a in alphas)


def _sign(poly, x: Fraction) -> int:
    v = poly.eval(x)
    return (v > 0) - (v < 0)


def _brackets_root(poly, r: float, rel: float) -> bool:
    """True iff poly changes sign on [r - d, r + d], d = rel * max(1, |r|)."""
    d = Fraction(rel) * max(1, abs(Fraction(r)))
    return _sign(poly, Fraction(r) - d) * _sign(poly, Fraction(r) + d) < 0


# ---------------------------------------------------------------------------
# exact-cold: build and certify one eigenpair with empty caches


def _run_eig(order: str, family: int, l: int):
    _clear_eigen_caches()
    pair = _eigenpair(order, l, family)
    residual_zero = pencils.pencil_residual(pair).is_zero()
    rep = pencils.reconstruct_xy(pair)
    if order == "quadratic":
        recon_ok = rep.laplacian_zero
    else:
        recon_ok = rep.bilaplacian_zero and (family in (1, 2) or not rep.laplacian_zero)
    transversal = nodal.transversality_check(pair) if order == "quadratic" and family == 1 else True
    return pair, residual_zero, recon_ok, transversal


def _sum_eig(op: Op, raw) -> dict:
    pair, residual_zero, recon_ok, transversal = raw
    return {
        "digest": oracles.digest([pair.order, pair.family, pair.l, pair.eigenvalue, list(pair.poly.coeffs)]),
        "certified": bool(residual_zero and recon_ok and transversal),
        "degree": pair.poly.degree,
    }


def _check_eig(op: Op, s: dict):
    l = op.args[2]
    if not s["certified"]:
        return False, 0.0, "residual, reconstruction or transversality check failed"
    if s["degree"] != l:
        return False, 0.0, f"degree {s['degree']} != {l}"
    ok, _, detail = _digest_check(op, s)
    # an exact answer equal to its reference has zero error
    return ok, oracles.DIGITS_CAP if ok else 0.0, detail


def exact_population() -> list[Op]:
    ops = [Op("eig", ("quadratic", 1, l)) for l in range(1, 71)]
    ops += [Op("eig", ("quadratic", 2, l)) for l in range(0, 71)]
    for family in (1, 2, 3, 4):
        ops += [Op("eig", ("quartic", family, l)) for l in range(1 if family == 1 else 0, 31)]
    return ops


class ExactCold:
    name = "exact-cold"

    def setup(self) -> None:
        _clear_eigen_caches()

    def round(self, rng: random.Random, index: int) -> list[Op]:
        # rounds alternate between even and odd l: each is half the population
        # at nearly half its cost, and two consecutive rounds never repeat a pair
        ops = [op for op in exact_population() if op.args[2] % 2 == index % 2]
        rng.shuffle(ops)
        return ops


# ---------------------------------------------------------------------------
# nodal-warm: root isolation and admissibility on prebuilt eigenfunctions

# Isolation cost grows about 7.5% per degree, an odd degree costs 2-3x the
# neighbouring even one (the exact root at 0), and family 1 up to 1.5x
# family 2. So the heavy degrees are fixed, the light ones come in pairs
# (lo + 2j, hi - 2j) of one parity that cost the same within 3% whatever j
# the seed picks, and families alternate by slot and round. The costliest ops
# of every two rounds are then the same, which keeps p90 and the round's cost
# steady.
ISOLATE_STRATA = ((10, 20), (21, 31), (30, 40))
ISOLATE_FIXED = (45, 51, 56, 62, 66, 70)

ADM_POOL = {
    1: (("1/3",), ("-1/2",), ("2",), ("-3/4",)),
    2: (("-1", "1"), ("0", "1"), ("-1/2", "2/3"), ("-2", "1/3")),
    3: (("-2", "0", "1"), ("-3/2", "1/5", "2"), ("-1", "1/2", "3/2"), ("-1/3", "0", "1/3")),
}
ADM_LMAX = 30


def _stratified(rng: random.Random, lo: int, hi: int, n: int) -> list[int]:
    """One integer drawn from each of n equal slices of [lo, hi].

    A round's mix of degrees, and so its cost profile and its median op,
    stays the same from seed to seed.
    """
    width = hi - lo + 1
    return [rng.randint(lo + width * k // n, lo + width * (k + 1) // n - 1) for k in range(n)]


def _run_isolate(family: int, l: int):
    return nodal.isolate_real_roots(pencils.quadratic_eigenfunction(l, family).poly)


def _sum_isolate(op: Op, rs) -> dict:
    return {"roots": list(rs.refined_roots), "mults": list(rs.multiplicities)}


def _check_isolate(op: Op, s: dict):
    family, l = op.args
    if len(s["roots"]) != l or any(m != 1 for m in s["mults"]):
        return False, 0.0, f"{len(s['roots'])} roots with multiplicities {s['mults']}, expected {l} simple"
    return True, _roots_digits(s["roots"], oracles.eigenfunction_roots(l, family)), ""


def _admissibility(equation: str):
    if equation == "laplace":
        return nodal.check_admissibility_laplace
    return nodal.check_admissibility_bilaplace


def _run_adm(equation: str, alphas: tuple, l: int):
    return _admissibility(equation)(nodal.CrackConfig(_fracs(alphas)), (l, l))[0]


def _verdict_record(v) -> dict:
    zs = v.full_zero_set
    return {
        "admissible": v.admissible,
        "rank": v.rank,
        "families": list(v.families),
        "combo": None if v.combo_coefficients is None else list(v.combo_coefficients),
        "root_count": None if zs is None else zs.count,
        "mults": None if zs is None else list(zs.multiplicities),
        "consecutive": v.consecutive_flag,
    }


def _sum_adm(op: Op, v) -> dict:
    return {"digest": oracles.digest(_verdict_record(v))}


def _check_adm(op: Op, s: dict):
    # the digest pins the consecutive flag, which matches every slope to a
    # refined root within 1e-9
    ok, _, detail = _digest_check(op, s)
    return ok, None, detail


def _run_float_adm(alphas: tuple, l: int):
    return nodal.check_admissibility_laplace(nodal.CrackConfig(alphas), (l, l))[0]


def _sum_float_adm(op: Op, v) -> dict:
    rec = _verdict_record(v)
    rec["roots"] = [] if v.full_zero_set is None else list(v.full_zero_set.refined_roots)
    return rec


def _check_float_adm(op: Op, s: dict):
    # a nonzero combination of psi_{l,1} and psi_{l-1,2} has l simple real
    # roots (the two root sets interlace), and one row or two roots of one
    # combination always leave a one-dimensional null space
    alphas, l = op.args
    if not s["admissible"] or s["rank"] != 1:
        return False, 0.0, f"admissible={s['admissible']} rank={s['rank']}, expected True and 1"
    if s["root_count"] != l or any(m != 1 for m in s["mults"]):
        return False, 0.0, f"{s['root_count']} roots, expected {l} simple"
    # the combination comes from a float SVD, so a slope is one of its roots
    # only to the SVD's rounding: a structural check, not an oracle digit count
    if _nearest_digits(s["roots"], alphas) < 8:
        return False, 0.0, "a slope is not among the combination's roots"
    return True, None, ""


def _run_enum(m: int, l: int, ratios: tuple):
    return nodal.enumerate_admissible(m, l, list(ratios))


def _sum_enum(op: Op, configs) -> dict:
    return {"windows": [[c.ratio, [float(a) for a in c.config.alphas]] for c in configs]}


def _check_windows(m: int, l: int, ratios, windows, rel: float):
    """Window count per ratio, and every reported root brackets a sign change."""
    base = pencils.quadratic_eigenfunction(l, 1).poly
    second = pencils.quadratic_eigenfunction(l - 1, 2).poly
    by_ratio: dict = {}
    for ratio, alphas in windows:
        by_ratio.setdefault(ratio, []).append(alphas)
    expected = {float(r): l - m + 1 for r in ratios}
    expected[None] = l - m
    expected = {r: n for r, n in expected.items() if n > 0}
    counts = {r: len(w) for r, w in by_ratio.items()}
    if counts != expected:
        return False, f"windows per ratio {counts} != {expected}"
    for ratio, wins in by_ratio.items():
        combo = second if ratio is None else base + second * Fraction(ratio)
        roots = sorted({a for w in wins for a in w})
        if any(not _brackets_root(combo, r, rel) for r in roots):
            return False, f"a reported root of the ratio {ratio} combination brackets no sign change"
    return True, ""


def _check_enum(op: Op, s: dict):
    m, l, ratios = op.args
    ok, detail = _check_windows(m, l, ratios, s["windows"], 1e-9)
    return ok, None, detail


def adm_population() -> list[Op]:
    ops = []
    for equation in ("laplace", "bilaplace"):
        for m, pool in ADM_POOL.items():
            for alphas in pool:
                ops += [Op("adm", (equation, alphas, l)) for l in range(max(m, 2), ADM_LMAX + 1)]
    return ops


class NodalWarm:
    name = "nodal-warm"

    def setup(self) -> None:
        _prebuild([*range(max(hi for _, hi in ISOLATE_STRATA) + 1), *ISOLATE_FIXED], ADM_LMAX)

    def round(self, rng: random.Random, index: int) -> list[Op]:
        ops = []
        for k, (lo, hi) in enumerate(ISOLATE_STRATA):
            j = rng.randint(0, (hi - lo) // 4)
            family = 1 + (k + index) % 2
            ops += [Op("isolate", (family, lo + 2 * j)), Op("isolate", (family, hi - 2 * j))]
        for k, l in enumerate(ISOLATE_FIXED):
            ops.append(Op("isolate", (1 + (k + index) % 2, l)))
        for equation in ("laplace", "bilaplace"):
            for m, pool in ADM_POOL.items():
                for l in _stratified(rng, max(m, 2), ADM_LMAX, 3):
                    ops.append(Op("adm", (equation, rng.choice(pool), l)))
        for l in _stratified(rng, 2, ADM_LMAX, 8):
            ops.append(Op("float_adm", ((rng.uniform(-3.0, 3.0),), l)))
        for l in _stratified(rng, 3, ADM_LMAX, 8):
            k = rng.randint(1, l - 1)
            pair = tuple(1 / math.tan((2 * i + 1) * math.pi / (2 * l)) for i in (k, k - 1))
            ops.append(Op("float_adm", (pair, l)))
        for m in (2, 3):
            for l in _stratified(rng, m + 2, 14, 3):
                start = rng.choice((-2.0, -1.5, -1.0))
                step = rng.choice((0.3, 0.45, 0.6, 0.7))
                ops.append(Op("enum", (m, l, tuple(start + i * step for i in range(4)))))
        rng.shuffle(ops)
        return ops


# ---------------------------------------------------------------------------
# profiles: stationary shooting and inward self-similar solves

STATIONARY_CASES = tuple(
    (p, sym, far)
    for p in (2.0, 3.0)
    for sym in ("symmetric", "antisymmetric")
    for far in ("decay_inverse", "plateau_one")
)
SELFSIMILAR_PER_ROUND = 91
XI_FAR = semilinear.DEFAULT_XI_FAR
XI_MIN = 1e-2
XI_MIN_DEEP = 1e-3
Y_GRID = tuple(-(0.5 * (1e-4 / 0.5) ** (i / 39)) for i in range(40))


def _run_stationary(p: float, symmetry: str, far: str):
    return semilinear.solve_stationary(p, symmetry, far)


def _sum_stationary(op: Op, sol) -> dict:
    return {
        "digest": oracles.digest({"zero_count": len(sol.zeros)}),
        "shot": sol.shot_parameter,
        "zero_count": len(sol.zeros),
        "truncated": sol.truncated,
    }


def _check_stationary(op: Op, s: dict):
    p, symmetry, far = op.args
    if s["truncated"]:
        return False, 0.0, "truncated"
    ok, _, detail = _digest_check(op, s)
    if not ok:
        return False, 0.0, "wrong branch: " + detail
    oracle = oracles.stationary_oracle(p, symmetry, far, s["zero_count"], s["shot"])
    if oracle is None:
        return False, 0.0, f"no {far} profile has {s['zero_count']} zeros"
    return True, oracles.digits(s["shot"], oracle), ""


def _run_selfsimilar(p: float, amplitude: float, alpha: float, xi_min: float):
    sol = semilinear.solve_selfsimilar(p, amplitude, xi_min=xi_min)
    return sol, semilinear.crack_curves(sol, alpha, p, Y_GRID)


def _sum_selfsimilar(op: Op, raw) -> dict:
    sol, curves = raw
    p, _, alpha, _ = op.args
    beta = alpha * (p - 1) / 2
    curves_ok = [c.xi for c in curves] == list(sol.zeros) and all(
        math.isclose(x, c.xi * (-y) * abs(math.log(-y)) ** beta, rel_tol=1e-12)
        for c in curves
        for y, x in c.points
    )
    return {"zeros": list(sol.zeros), "truncated": sol.truncated, "curves_ok": curves_ok}


def _check_selfsimilar(op: Op, s: dict):
    p, amplitude, _, xi_min = op.args
    expected = oracles.selfsimilar_zeros(p, amplitude, XI_FAR, xi_min)
    if s["truncated"]:
        return False, 0.0, "truncated"
    if len(s["zeros"]) != len(expected):
        return False, 0.0, f"{len(s['zeros'])} zeros, oracle has {len(expected)}"
    if not s["curves_ok"]:
        return False, 0.0, "crack curves do not follow the profile zeros"
    return True, _roots_digits(s["zeros"], expected), ""


def _amplitude_for_zero_count(p: float, zeros: float) -> float:
    """Far-field amplitude whose profile has about `zeros` zeros on [XI_MIN, XI_FAR].

    Zeros are a half period 2T(a) apart in t = 1/xi, so a = (2 C_p / H)^(2/(p-1))
    with H = (1/XI_MIN - 1/XI_FAR) / zeros, and A = sqrt(2 E) with
    E = a^(p+1)/(p+1) (the |A/xi_far|^(p+1) term is below 1e-6 here).
    """
    c_p = math.sqrt((p + 1) / 2) * math.exp(math.lgamma(1 / (p + 1)) + math.lgamma(0.5) - math.lgamma(1 / (p + 1) + 0.5)) / (p + 1)
    half_period = (1 / XI_MIN - 1 / XI_FAR) / zeros
    a = (2 * c_p / half_period) ** (2 / (p - 1))
    return math.sqrt(2 / (p + 1)) * a ** ((p + 1) / 2)


def _selfsimilar_params(rng: random.Random, p: float, amplitude_draw, xi_min: float) -> tuple:
    # a zero within 1e-6 of the cut makes the zero count ill-posed
    while True:
        amplitude = amplitude_draw()
        if oracles.selfsimilar_boundary_gap(p, amplitude, XI_FAR, xi_min) > 1e-6:
            return (p, amplitude, rng.uniform(0.5, 2.0), xi_min)


def stationary_population() -> list[Op]:
    return [Op("stationary", case) for case in STATIONARY_CASES]


class Profiles:
    name = "profiles"

    def setup(self) -> None:
        semilinear.solve_selfsimilar(3.0, 1.0, xi_min=0.5)

    def round(self, rng: random.Random, index: int) -> list[Op]:
        n = SELFSIMILAR_PER_ROUND
        # p is a Latin-hypercube draw; A is drawn for a zero count cycling
        # through 20..30, since a solve's cost follows its zero count. So every
        # round holds the same mix of solve costs, and p90 sits on a stable tail.
        p_slots = rng.sample(range(n), n)
        ops = stationary_population()
        for i in range(n):
            p = 2.0 + 1.5 * (p_slots[i] + rng.random()) / n
            zeros = 20 + i % 11
            draw = lambda p=p, zeros=zeros: _amplitude_for_zero_count(p, zeros + rng.uniform(0.05, 0.95))  # noqa: E731
            ops.append(Op("selfsimilar", _selfsimilar_params(rng, p, draw, XI_MIN)))
        deep = _selfsimilar_params(rng, rng.uniform(2.8, 3.2), lambda: rng.uniform(0.9, 1.1), XI_MIN_DEEP)
        ops.append(Op("selfsimilar", deep))
        rng.shuffle(ops)
        return ops


# ---------------------------------------------------------------------------
# cli-session: in-process CLI calls

CLI_EIG = tuple(("quadratic", l, f) for l in (5, 10, 15, 20, 25, 30) for f in (1, 2)) + tuple(
    ("quartic", l, f) for l in (4, 8, 12, 16, 20) for f in (1, 2, 3, 4)
)
CLI_SPECTRUM = tuple((order, lmax) for order in ("quadratic", "quartic") for lmax in (10, 20, 30, 40))
CLI_CHECK = (
    ("-1,1", "laplace", 2, 12),
    ("0,1", "laplace", 2, 10),
    ("-1/2,2/3", "bilaplace", 3, 10),
    ("-2,0,1", "laplace", 3, 10),
    ("1/3", "bilaplace", 1, 8),
    ("-1.5,0.3", "laplace", 2, 20),
)
CLI_ENUM = tuple((m, l, r) for m in (1, 2, 3) for l in (6, 8, 10) for r in ("-1:1:0.5", "-2:2:1", "0.25,0.5,3"))
CLI_TERMS = ('{"2":[1,0]}', '{"2":[1,0],"3":[0.5,0.25]}', '{"3":[1,-0.5],"4":[0.25,0.125]}')
CLI_EVAL = tuple((t, g) for t in CLI_TERMS for g in ("z=-3:3:0.1,tau=0:4:0.5", "z=-1:1:0.05,tau=0:2:0.25"))
CLI_TRACE = tuple((t, n) for t in CLI_TERMS for n in (180, 360))
CLI_CURVES = ((2.0, 1.0, 1.0), (3.0, 1.0, 1.0), (3.0, 0.5, 2.0), (4.0, 1.5, 0.5), (2.5, 2.0, 1.5), (3.5, 0.75, 1.0))
CLI_YGRID = "-0.5:-1e-4:log:40"


def _cli_argv(kind: str, args: tuple, tmp: Path) -> list[str]:
    if kind == "cli-eig":
        order, l, family, as_json = args
        return ["eig", "--order", order, "--l", str(l), "--family", str(family)] + (["--json"] if as_json else [])
    if kind == "cli-spectrum":
        order, lmax, as_json = args
        return ["spectrum", "--order", order, "--lmax", str(lmax)] + (["--json"] if as_json else [])
    if kind == "cli-check":
        alphas, equation, lmin, lmax = args
        return ["cracks", "check", "--alphas", alphas, "--equation", equation, "--lmin", str(lmin), "--lmax", str(lmax)]
    if kind == "cli-enum":
        m, l, ratios = args
        return ["cracks", "enum", "--m", str(m), "--l", str(l), "--ratios", ratios]
    if kind == "cli-eval":
        terms, grid = args
        return ["expand", "eval", "--terms", terms, "--grid", grid, "--csv", str(tmp / "eval.csv")]
    if kind == "cli-trace":
        terms, samples = args
        return ["expand", "trace", "--terms", terms, "--samples", str(samples), "--svg", str(tmp / "trace.svg")]
    if kind == "cli-curves":
        p, amplitude, alpha = args
        return [
            "ode", "crackcurves", "--p", str(p), "--A", str(amplitude), "--alpha", str(alpha),
            "--ygrid", CLI_YGRID, "--svg", str(tmp / "curves.svg"), "--csv", str(tmp / "curves.csv"),
            "--out", str(tmp / "curves.json"),
        ]
    if kind == "cli-verify":
        return ["verify", "--suite", "admissibility-examples"]
    raise ValueError(kind)


def _cli_tmp() -> Path:
    return OUT_DIR / "cli-tmp"


def _run_cli(*args, kind: str):
    tmp = _cli_tmp()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(_cli_argv(kind, args, tmp))
    return rc, out.getvalue(), err.getvalue()


def _take_files(names) -> list[bytes]:
    out = []
    for name in names:
        path = _cli_tmp() / name
        out.append(path.read_bytes() if path.exists() else b"")
        path.unlink(missing_ok=True)
    return out


_CLI_FILES = {"cli-eval": ("eval.csv",), "cli-trace": ("trace.svg",), "cli-curves": ("curves.svg", "curves.csv", "curves.json")}


def _sum_cli(op: Op, raw) -> dict:
    rc, stdout, stderr = raw
    files = _take_files(_CLI_FILES.get(op.kind, ()))
    s = {"rc": rc, "stderr": stderr[-500:]}
    if op.kind == "cli-enum":
        windows = []
        for line in stdout.splitlines():
            if line.startswith("l="):
                fields = dict(part.split("=", 1) for part in line.split())
                ratio = None if fields["ratio"] == "endpoint" else float(fields["ratio"])
                windows.append([ratio, [float(a) for a in fields["alphas"].split(",")]])
        s["windows"] = windows
    elif op.kind == "cli-curves":
        svg, csv_bytes, payload = files
        xis = []
        for line in csv_bytes.decode().splitlines()[2:]:
            xi = float(line.split(",")[0])
            if not xis or xis[-1] != xi:
                xis.append(xi)
        s["xis"] = xis
        s["total_zero_count"] = json.loads(payload)["total_zero_count"] if payload else None
        s["svg_ok"] = svg.startswith(b"<svg") or svg.startswith(b"<?xml")
        s["svg_ok"] = s["svg_ok"] and svg.rstrip().endswith(b"</svg>")
    else:
        s["digest"] = oracles.bytes_digest(str(rc).encode(), stdout.encode(), *files)
    return s


def _check_cli(op: Op, s: dict):
    if s["rc"] != 0:
        return False, 0.0, f"exit code {s['rc']}: {s['stderr']}"
    if op.kind == "cli-enum":
        m, l, ratios = op.args
        ok, detail = _check_windows(m, l, cli._parse_range(ratios), s["windows"], 1e-10)
        return ok, None, detail
    if op.kind == "cli-curves":
        p, amplitude, _ = op.args
        expected = oracles.selfsimilar_zeros(p, amplitude, XI_FAR, XI_MIN)
        if not s["svg_ok"]:
            return False, 0.0, "malformed SVG"
        if s["total_zero_count"] != len(expected):
            return False, 0.0, f"{s['total_zero_count']} zeros, oracle has {len(expected)}"
        if len(s["xis"]) != min(12, len(expected)):
            return False, 0.0, f"{len(s['xis'])} curves in the CSV"
        return True, _roots_digits(s["xis"], expected), ""
    ok, _, detail = _digest_check(op, s)
    return ok, None, detail


def cli_population() -> list[Op]:
    """Every CLI op whose output bytes are pinned by a reference digest."""
    ops = [Op("cli-eig", (*e, j)) for e in CLI_EIG for j in (False, True)]
    ops += [Op("cli-spectrum", (*s, j)) for s in CLI_SPECTRUM for j in (False, True)]
    ops += [Op("cli-check", c) for c in CLI_CHECK]
    ops += [Op("cli-eval", e) for e in CLI_EVAL]
    ops += [Op("cli-trace", t) for t in CLI_TRACE]
    ops.append(Op("cli-verify", ()))
    return ops


class CliSession:
    name = "cli-session"

    def setup(self) -> None:
        shutil.rmtree(_cli_tmp(), ignore_errors=True)
        _cli_tmp().mkdir(parents=True)
        _prebuild(range(31), 20)
        warm = random.Random(0)
        for op in self.round(warm, 0):
            _sum_cli(op, KINDS[op.kind][0](*op.args))

    def round(self, rng: random.Random, index: int) -> list[Op]:
        if index % len(CLI_CURVES) == 0:
            # every run that reaches six rounds solves every curve case once
            self._curve_order = rng.sample(CLI_CURVES, len(CLI_CURVES))
        ops = [
            Op("cli-eig", (*rng.choice(CLI_EIG), rng.random() < 0.5)),
            Op("cli-spectrum", (*rng.choice(CLI_SPECTRUM), rng.random() < 0.5)),
            Op("cli-check", rng.choice(CLI_CHECK)),
            Op("cli-enum", rng.choice(CLI_ENUM)),
            Op("cli-eval", rng.choice(CLI_EVAL)),
            Op("cli-trace", rng.choice(CLI_TRACE)),
            Op("cli-curves", self._curve_order[index % len(CLI_CURVES)]),
            Op("cli-verify", ()),
        ]
        rng.shuffle(ops)
        return ops

    def teardown(self) -> None:
        shutil.rmtree(_cli_tmp(), ignore_errors=True)


# ---------------------------------------------------------------------------
# registry

KINDS = {
    "eig": (_run_eig, _sum_eig, _check_eig),
    "isolate": (_run_isolate, _sum_isolate, _check_isolate),
    "adm": (_run_adm, _sum_adm, _check_adm),
    "float_adm": (_run_float_adm, _sum_float_adm, _check_float_adm),
    "enum": (_run_enum, _sum_enum, _check_enum),
    "stationary": (_run_stationary, _sum_stationary, _check_stationary),
    "selfsimilar": (_run_selfsimilar, _sum_selfsimilar, _check_selfsimilar),
}
for _kind in ("cli-eig", "cli-spectrum", "cli-check", "cli-enum", "cli-eval", "cli-trace", "cli-curves", "cli-verify"):
    KINDS[_kind] = (lambda *a, _k=_kind: _run_cli(*a, kind=_k), _sum_cli, _check_cli)

WORKLOADS = {w.name: w for w in (ExactCold, NodalWarm, Profiles, CliSession)}


def make_workload(name: str):
    return WORKLOADS[name]()


def digest_population() -> list[Op]:
    """Every op whose check compares against a reference digest."""
    return exact_population() + adm_population() + stationary_population() + cli_population()


def run_op(op: Op):
    return KINDS[op.kind][0](*op.args)


def summarize(op: Op, raw) -> dict:
    return KINDS[op.kind][1](op, raw)


def check(op: Op, summary: dict):
    return KINDS[op.kind][2](op, summary)
