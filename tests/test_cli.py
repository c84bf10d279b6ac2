"""Command-line surface: schemas, determinism, exit codes, file emission."""

import dataclasses
import itertools
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest

from pencil import cli, pencils, semilinear
from pencil.cli import main
from pencil.pencils import Eigenpair, pencil_residual
from pencil.polyring import RatPoly


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _text_field(out: str, key: str) -> str:
    """The value of the text-mode line `key=value`."""
    (value,) = [line.split("=", 1)[1] for line in out.splitlines() if line.startswith(f"{key}=")]
    return value


class TestEig:
    def test_json_schema(self, capsys):
        code, out, _ = run_cli(capsys, "eig", "--order", "quadratic", "--l", "4", "--family", "1", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == "1"
        assert payload["config"]["l"] == 4
        eig = payload["eigenpair"]
        assert eig["coefficients"] == [["1", "1"], ["0", "1"], ["-6", "1"], ["0", "1"], ["1", "1"]]
        assert eig["lambda"] == -4

    def test_json_round_trip_residual(self, capsys):
        code, out, _ = run_cli(capsys, "eig", "--order", "quartic", "--l", "5", "--family", "3", "--json")
        eig = json.loads(out)["eigenpair"]
        poly = RatPoly(Fraction(int(num), int(den)) for num, den in eig["coefficients"])
        pair = Eigenpair(eig["order"], eig["family"], eig["l"], eig["lambda"], poly)
        assert pencil_residual(pair).is_zero()

    def test_text_mode(self, capsys):
        code, out, _ = run_cli(capsys, "eig", "--order", "quadratic", "--l", "2", "--family", "1")
        assert code == 0
        assert "z^2 - 1" in out

    def test_domain_error_exit_1(self, capsys):
        code, out, err = run_cli(capsys, "eig", "--order", "quadratic", "--l", "0", "--family", "1")
        assert code == 1
        assert json.loads(err)["error"] == "ValueError"

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["eig", "--order", "cubic", "--l", "1", "--family", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("as_json", [False, True])
    def test_coefficients_past_the_string_digit_limit_exit_1(self, capsys, as_json):
        # at 640 digits, the smallest limit CPython allows, psi_{l,1} first has
        # a coefficient of 641 digits at l = 2132
        argv = ["eig", "--order", "quadratic", "--family", "1", "--l"]
        flags = ["--json"] if as_json else []
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(640)
            code, out, _ = run_cli(capsys, *argv, "2131", *flags)
            assert code == 0 and out
            code, out, err = run_cli(capsys, *argv, "2132", *flags)
            assert code == 1 and out == ""
            assert json.loads(err) == {
                "error": "ValueError",
                "message": "--l 2132 gives coefficients of more than 640 digits, "
                "the limit of sys.get_int_max_str_digits()",
            }
            sys.set_int_max_str_digits(0)
            code, out, _ = run_cli(capsys, *argv, "2132", *flags)
            assert code == 0 and out
        finally:
            sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize("order, family", [("quadratic", 1), ("quadratic", 2), ("quartic", 3), ("quartic", 4)])
    def test_refuses_from_l_before_it_builds(self, capsys, monkeypatch, order, family):
        # at 4,300 digits, CPython's default limit, every coefficient bound of
        # l = 40,000 is past 10^4300: the eigenfunction, of 12,000-digit
        # coefficients, is never built (that takes about 0.8 s and 170 MB), and
        # the refusal takes well under 0.1 s
        def build(l, family):
            raise AssertionError("the eigenfunction was built")

        monkeypatch.setattr(pencils, f"{order}_eigenfunction", build)
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(4300)
            start = time.perf_counter()
            code, out, err = run_cli(capsys, "eig", "--order", order, "--family", str(family), "--l", "40000", "--json")
            elapsed = time.perf_counter() - start
        finally:
            sys.set_int_max_str_digits(limit)
        assert code == 1 and out == ""
        assert json.loads(err)["message"].startswith("--l 40000 gives coefficients of more than 4300 digits")
        assert elapsed < 0.05

    @pytest.mark.parametrize("order, family", [("quadratic", 1), ("quadratic", 2), ("quartic", 1), ("quartic", 2), ("quartic", 3), ("quartic", 4)])
    def test_every_l_keeps_the_exact_verdict(self, order, family):
        # at 640 digits every order from 2,100 to 2,169, where each family's first
        # coefficient of 641 digits appears, gets the verdict of the exact
        # comparison of the widest coefficient with 10^640; only a run of l inside
        # that range, where the bounds straddle 10^640, builds the eigenfunction
        build = pencils.quadratic_eigenfunction if order == "quadratic" else pencils.quartic_eigenfunction
        built = []
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(640)
            for l in range(2100, 2170):
                widest = max(max(abs(c.numerator), c.denominator) for c in build(l, family).poly.coeffs)
                assert cli._past_digit_limit(lambda l, f: built.append(l) or build(l, f), order, l, family) == (widest >= 10**640)
        finally:
            sys.set_int_max_str_digits(limit)
        assert built == list(range(built[0], built[-1] + 1)) and 2100 < built[0] and built[-1] < 2169


class TestSpectrum:
    @pytest.mark.parametrize("order, lmax, count", [("quadratic", 500000, 1000001), ("quartic", 250000, 1000003)])
    def test_entry_bound_exit_1(self, capsys, monkeypatch, order, lmax, count):
        def spectrum(l_max):
            raise AssertionError("the spectrum was built")

        monkeypatch.setattr(pencils, f"{order}_spectrum", spectrum)
        code, out, err = run_cli(capsys, "spectrum", "--order", order, "--lmax", str(lmax))
        assert code == 1 and out == ""
        assert json.loads(err) == {
            "error": "ValueError",
            "message": f"the {order} spectrum to --lmax {lmax} has {count} points, more than the bound of 1000000",
        }

    @pytest.mark.parametrize("order, lmax", [("quadratic", 5), ("quartic", 2)])
    def test_entry_count_is_the_bound(self, capsys, monkeypatch, order, lmax):
        # 11 entries either way: 2 lmax + 1 quadratic, 4 lmax + 3 quartic
        monkeypatch.setattr(cli, "MAX_POINTS", 11)
        code, out, _ = run_cli(capsys, "spectrum", "--order", order, "--lmax", str(lmax), "--json")
        assert code == 0 and len(json.loads(out)["entries"]) == 11
        code, _, err = run_cli(capsys, "spectrum", "--order", order, "--lmax", str(lmax + 1))
        assert code == 1 and "more than the bound of 11" in json.loads(err)["message"]


class TestCracks:
    def test_check_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "cracks", "check", "--alphas", "-1,1", "--equation", "laplace",
            "--lmin", "2", "--lmax", "3", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        verdicts = payload["verdicts"]
        assert verdicts[0]["admissible"] is True
        assert verdicts[0]["combo"] == ["1", "0"]
        assert verdicts[0]["consecutive"] is True
        assert verdicts[1]["admissible"] is False

    def test_negative_alpha_fusion(self, capsys):
        # "-2,0,1" must not be mistaken for an option
        code, out, _ = run_cli(
            capsys, "cracks", "check", "--alphas", "-2,0,1", "--lmin", "3", "--lmax", "4", "--json"
        )
        assert code == 0
        assert all(not v["admissible"] for v in json.loads(out)["verdicts"])

    def test_text_mode_builds_no_json_body(self, capsys, monkeypatch):
        def refuse(v):
            raise AssertionError("text mode built the JSON verdict body")

        monkeypatch.setattr(cli, "_verdict_json", refuse)
        code, out, _ = run_cli(capsys, "cracks", "check", "--alphas", "-1,1", "--lmin", "2", "--lmax", "3")
        assert code == 0
        assert out.splitlines()[1:] == ["l=2 admissible=True rank=1 combo=1,0", "l=3 admissible=False rank=2"]

    @pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
    def test_non_finite_alpha_exit_1(self, capsys, alpha):
        code, out, err = run_cli(capsys, "cracks", "check", "--alphas", alpha, "--lmin", "1", "--lmax", "3")
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert payload["message"] == f"crack slope {float(alpha)!r} is not finite"

    @pytest.mark.parametrize("equation", ["laplace", "bilaplace"])
    @pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
    def test_tol_not_positive_finite_exit_1(self, capsys, equation, tol):
        code, out, err = run_cli(
            capsys, "cracks", "check", "--alphas", "-1,1", "--equation", equation,
            "--lmin", "2", "--lmax", "2", "--json", "--tol", tol,
        )
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert payload["message"] == f"tol must be positive and finite, got {float(tol)!r}"

    def test_root_beyond_float_range_exit_1(self, capsys):
        # the l = 1 combination's root is the slope 1e400 itself
        code, out, err = run_cli(capsys, "cracks", "check", "--alphas", "1e400", "--lmin", "1", "--lmax", "2")
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert "beyond the float range" in payload["message"]

    def test_enum(self, capsys):
        # the endpoint combination is linear here, so it admits no 2-crack window
        code, out, _ = run_cli(capsys, "cracks", "enum", "--m", "2", "--l", "2", "--ratios", "-1:1:1", "--json")
        configs = json.loads(out)["configs"]
        assert len(configs) == 3
        pair = [c for c in configs if c["ratio"] == 0.0][0]
        assert pair["alphas"] == pytest.approx([-1.0, 1.0], abs=1e-10)

    def test_enum_endpoint_for_single_crack(self, capsys):
        code, out, _ = run_cli(capsys, "cracks", "enum", "--m", "1", "--l", "2", "--ratios", "0:0:1", "--json")
        configs = json.loads(out)["configs"]
        assert any(c["ratio"] is None for c in configs)

    def test_enum_ratio_range_bound_exit_1(self):
        # a child capped at 1 GiB of address space (one BLAS thread keeps numpy's
        # import well below it): building the 1e9-point list would raise
        # MemoryError there instead of the structured error
        code = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from pencil.cli import main\n"
            "sys.exit(main(['cracks', 'enum', '--m', '2', '--l', '2', '--ratios', '0:1e9:1']))\n"
        )
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env)
        assert out.returncode == 1
        err = json.loads(out.stderr)
        assert err["error"] == "ValueError"
        assert "1000000001 points" in err["message"]


class TestExpand:
    EVAL = ("expand", "eval", "--terms", '{"2":[1,0]}', "--grid", "z=-1:1:1,tau=0:1:1")

    def test_eval_csv_columns(self, capsys):
        code, out, _ = run_cli(
            capsys, "expand", "eval", "--terms", '{"2":[1,0]}', "--grid", "z=-1:1:1,tau=0:1:1"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# config:")
        assert lines[1] == "z,tau,x,y,w"
        assert len(lines) == 2 + 6

    def test_eval_grid_product_bound_exit_1(self, capsys, monkeypatch):
        # each axis is within the bound, their product is not
        def evaluated(*args):
            raise AssertionError("the grid was evaluated")

        monkeypatch.setattr("pencil.expansion.eval_expansion", evaluated)
        code, _, err = run_cli(
            capsys, "expand", "eval", "--terms", '{"2":[1,0]}', "--grid", "z=0:999:1,tau=0:1000:1"
        )
        assert code == 1
        assert "1001000 points" in json.loads(err)["message"]

    def test_eval_out_without_json_writes_payload(self, tmp_path, capsys):
        path = tmp_path / "eval.json"
        code, out, _ = run_cli(capsys, *self.EVAL, "--out", str(path))
        assert code == 0 and out == ""
        payload = json.loads(path.read_text())
        assert payload["columns"] == ["z", "tau", "x", "y", "w"]
        assert len(payload["rows"]) == 6

    def test_eval_json_with_csv_writes_both(self, tmp_path, capsys):
        path = tmp_path / "eval.csv"
        code, out, _ = run_cli(capsys, *self.EVAL, "--json", "--csv", str(path))
        assert code == 0
        assert len(json.loads(out)["rows"]) == 6
        assert path.read_text().splitlines()[1] == "z,tau,x,y,w"

    @pytest.mark.parametrize("command", ["eval", "trace"])
    @pytest.mark.parametrize("terms", ['{"2": 5}', "[1]", '"2"', '{"2": [[1], 0]}', '{"2": [true, false]}'])
    def test_malformed_terms_exit_1(self, capsys, command, terms):
        extra = ["--grid", "z=0:1:1,tau=0:1:1"] if command == "eval" else []
        code, out, err = run_cli(capsys, "expand", command, "--terms", terms, *extra)
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert "lists of numbers" in payload["message"]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["cracks", "enum", "--m", "1", "--l", "3", "--ratios", "nan"], "the family 2 weight nan is not finite"),
            (["cracks", "enum", "--m", "1", "--l", "3", "--ratios", "inf"], "the family 2 weight inf is not finite"),
            (
                ["expand", "eval", "--terms", '{"2":[NaN,0]}', "--grid", "z=0:1:0.5,tau=0:1:1"],
                "the family 1 weight nan is not finite",
            ),
            (["expand", "trace", "--terms", '{"2":[1,0],"3":[Infinity,0]}'], "the family 1 weight inf is not finite"),
        ],
    )
    def test_non_finite_weight_exit_1(self, capsys, argv, message):
        # json.loads and float() accept NaN and Infinity, which no exact polynomial can weight
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": "ValueError", "message": message}

    def test_trace_svg(self, tmp_path, capsys):
        path = tmp_path / "trace.svg"
        code, _, _ = run_cli(
            capsys, "expand", "trace", "--terms", '{"2":[1,0]}', "--samples", "16",
            "--svg", str(path),
        )
        assert code == 0
        body = path.read_text()
        assert body.startswith("<?xml")
        assert "<polyline" in body and "</svg>" in body

    def test_trace_samples_bound_exit_1(self, capsys, monkeypatch):
        def synthesized(*args):
            raise AssertionError("the trace was sampled")

        monkeypatch.setattr("pencil.expansion.synthesize_boundary_trace", synthesized)
        code, out, err = run_cli(capsys, "expand", "trace", "--terms", '{"2":[1,0]}', "--samples", "1000001")
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert "1000001 points" in payload["message"]


class TestDeterminism:
    def test_json_byte_identical(self, capsys):
        _, out1, _ = run_cli(capsys, "spectrum", "--order", "quartic", "--lmax", "4", "--json")
        _, out2, _ = run_cli(capsys, "spectrum", "--order", "quartic", "--lmax", "4", "--json")
        assert out1 == out2

    def test_svg_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        for path in (a, b):
            run_cli(
                capsys, "expand", "trace", "--terms", '{"3":[1,1]}', "--samples", "64",
                "--svg", str(path),
            )
        assert a.read_bytes() == b.read_bytes()

    def test_csv_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            run_cli(
                capsys, "expand", "eval", "--terms", '{"2":[1,0]}',
                "--grid", "z=-2:2:0.5,tau=0:2:0.5", "--csv", str(path),
            )
        assert a.read_bytes() == b.read_bytes()

    def test_no_stray_tmp_files(self, tmp_path, capsys):
        path = tmp_path / "out.json"
        run_cli(capsys, "eig", "--order", "quadratic", "--l", "3", "--family", "2", "--out", str(path))
        assert json.loads(path.read_text())["eigenpair"]["lambda"] == -4
        assert os.listdir(tmp_path) == ["out.json"]

    def test_failed_replace_removes_tmp_file(self, tmp_path, capsys, monkeypatch):
        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="replace refused"):
            main(["eig", "--order", "quadratic", "--l", "3", "--family", "2", "--out", str(tmp_path / "out.json")])
        assert os.listdir(tmp_path) == []


class TestVerify:
    def test_small_residual_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "residuals", "--lmax", "8", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["failed"] == 0
        assert payload["suites"][0]["passed"] > 0

    def test_admissibility_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "admissibility-examples")
        assert code == 0
        assert "failed=0" in out

    def test_reconstruction_counts_every_family_to_lmax(self, capsys):
        # 2 quadratic checks per l, and the 4 quartic families over l = 0..lmax
        # less the l = 0 eigenfunctions the spectrum does not have: 6 lmax + 3
        code, out, _ = run_cli(capsys, "verify", "--suite", "reconstruction", "--lmax", "20", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["failed"] == 0
        (suite,) = payload["suites"]
        assert (suite["suite"], suite["passed"], suite["failed"]) == ("reconstruction", 123, 0)

    def test_a_failed_check_is_reported_and_exits_1(self, capsys, monkeypatch):
        reconstruct = pencils.reconstruct_xy

        def broken(pair):
            rep = reconstruct(pair)
            if (pair.order, pair.l, pair.family) == ("quadratic", 3, 2):
                return dataclasses.replace(rep, laplacian_zero=False)
            return rep

        monkeypatch.setattr(pencils, "reconstruct_xy", broken)
        code, out, _ = run_cli(capsys, "verify", "--suite", "reconstruction", "--lmax", "4")
        assert code == 1
        assert "suite=reconstruction passed=26 failed=1" in out.splitlines()
        assert [line for line in out.splitlines() if line.startswith("  FAIL")] == [
            "  FAIL quadratic l=3 family=2: Laplacian not zero"
        ]
        code, out, _ = run_cli(capsys, "verify", "--suite", "reconstruction", "--lmax", "4", "--json")
        assert code == 1
        payload = json.loads(out)
        assert payload["failed"] == 1
        assert payload["suites"][0]["details"] == ["quadratic l=3 family=2: Laplacian not zero"]

    def test_a_nonzero_sturm_liouville_residual_fails_and_exits_1(self, capsys, monkeypatch):
        check = pencils.sturm_liouville_check

        def broken(pair):
            red = check(pair)
            if (pair.l, pair.family) == (3, 2):
                return dataclasses.replace(red, residuals=(*red.residuals[:-1], (Fraction(4), math.ulp(0.0))))
            return red

        monkeypatch.setattr(pencils, "sturm_liouville_check", broken)
        code, out, _ = run_cli(capsys, "verify", "--suite", "sturm-liouville", "--lmax", "4")
        assert code == 1
        assert "suite=sturm-liouville passed=7 failed=1" in out.splitlines()
        assert [line for line in out.splitlines() if line.startswith("  FAIL")] == [
            "  FAIL l=3 family=2: residual 4.941e-324 is not 0"
        ]
        code, out, _ = run_cli(capsys, "verify", "--suite", "sturm-liouville", "--lmax", "4", "--json")
        assert code == 1
        payload = json.loads(out)
        assert payload["failed"] == 1
        assert payload["suites"][0]["details"] == ["l=3 family=2: residual 4.941e-324 is not 0"]

    def test_parallel_agrees_with_serial(self, capsys):
        argv = ("verify", "--suite", "residuals", "--lmax", "6", "--json")
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv, "--parallelism", "2")
        assert code1 == code2 == 0
        body1 = {k: v for k, v in json.loads(out1).items() if k != "config"}
        body2 = {k: v for k, v in json.loads(out2).items() if k != "config"}
        assert body1 == body2

    def test_parallelism_out_of_range_exit_1(self, capsys, monkeypatch):
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was created")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        for bad in (0, (os.cpu_count() or 1) + 1):
            argv = ("verify", "--suite", "residuals", "--lmax", "2")
            code, _, err = run_cli(capsys, *argv, "--parallelism", str(bad))
            assert code == 1
            assert json.loads(err)["error"] == "ValueError"
            assert "parallelism" in json.loads(err)["message"]

    @pytest.mark.parametrize("lmax", ["0", "-3"])
    def test_lmax_below_1_exit_1(self, capsys, lmax):
        # --lmax 0 used to run at the default 50, and --lmax -3 passed with no checks
        code, out, err = run_cli(capsys, "verify", "--suite", "residuals", "--lmax", lmax)
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert f"got {lmax}" in payload["message"]

    def test_lmax_runs_as_given(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "residuals", "--lmax", "1", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["lmax"] == 1
        # quadratic family 1 at l = 1 and family 2 at l = 0, 1; quartic family 1 at l = 1, families 2-4 at l = 0, 1
        assert payload["suites"][0]["passed"] == 3 + 7


class TestOde:
    def test_stationary_json_and_csv(self, tmp_path, capsys):
        path = tmp_path / "prof.csv"
        code, out, _ = run_cli(
            capsys, "ode", "stationary", "--p", "3", "--symmetry", "antisymmetric",
            "--far", "decay", "--tol", "1e-7", "--zend", "25", "--csv", str(path), "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["shot_parameter"] > 0
        lines = path.read_text().splitlines()
        assert lines[1] == "abscissa,f,f'"

    @pytest.mark.parametrize(
        "argv",
        [
            ("stationary", "--p", "3", "--tol", "0"),
            ("stationary", "--p", "3", "--tol", "-1"),
            ("stationary", "--p", "3", "--zend", "inf"),
        ],
    )
    def test_bad_tolerance_or_zend_exit_1(self, capsys, argv):
        code, out, err = run_cli(capsys, "ode", *argv)
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "ValueError"

    @pytest.mark.parametrize(
        "argv",
        [
            ["stationary", "--p", "3", "--tol", "nan"],
            ["selfsimilar", "--p", "3", "--A", "1", "--tol", "nan"],
        ],
    )
    def test_nan_tolerance_exit_1(self, argv):
        # in a child with a timeout: a NaN step never trips the step floor, so
        # an unchecked NaN tolerance walks the whole step budget
        code = f"import sys\nfrom pencil.cli import main\nsys.exit(main({['ode'] + argv!r}))\n"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
        assert out.returncode == 1
        assert json.loads(out.stderr)["error"] == "ValueError"

    @pytest.mark.parametrize(
        "argv",
        [
            ["stationary", "--p", "3", "--tol", "1e-23"],
            ["selfsimilar", "--p", "3", "--A", "1", "--tol", "1e-23"],
            ["stationary", "--p", "3", "--tol", "1e-170"],
        ],
    )
    def test_tolerance_below_epsilon_exit_1(self, argv):
        # in a child with a timeout: below the float epsilon the step count grows
        # without bound (1e-23 took over a million steps and 1 GB), and 1e-170
        # overflowed the initial step's scaled norm
        code = f"import sys\nfrom pencil.cli import main\nsys.exit(main({['ode'] + argv!r}))\n"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
        assert out.returncode == 1 and out.stdout == ""
        err = json.loads(out.stderr)
        assert err["error"] == "ValueError" and "tol" in err["message"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["selfsimilar", "--p", "3", "--A", "nan"],
            ["selfsimilar", "--p", "nan"],
            ["stationary", "--p", "nan"],
            ["selfsimilar", "--p", "3", "--A", "1e300"],
            ["selfsimilar", "--p", "3", "--Xi", "inf"],
            ["selfsimilar", "--p", "inf"],
        ],
    )
    def test_non_finite_input_exit_1(self, argv):
        # in a child with a timeout: a NaN p or A used to walk the integrator's
        # whole step budget, and a huge A overflowed
        code = f"import sys\nfrom pencil.cli import main\nsys.exit(main({['ode'] + argv!r}))\n"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
        assert out.returncode == 1
        assert json.loads(out.stderr)["error"] == "ValueError"

    @pytest.mark.parametrize(
        "argv",
        [
            ["stationary", "--p", "1e12"],
            ["selfsimilar", "--p", "1e20"],
        ],
    )
    def test_overflow_exit_1(self, argv):
        # in a child with a timeout: a huge finite exponent overflows |f|^p
        code = f"import sys\nfrom pencil.cli import main\nsys.exit(main({['ode'] + argv!r}))\n"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
        assert out.returncode == 1 and out.stdout == ""
        assert json.loads(out.stderr)["error"] == "OverflowError"

    def test_selfsimilar_svg_and_json(self, tmp_path, capsys):
        path = tmp_path / "osc.svg"
        code, out, _ = run_cli(
            capsys, "ode", "selfsimilar", "--p", "3", "--A", "1", "--Xi", "20",
            "--ximin", "0.05", "--tol", "1e-8", "--svg", str(path), "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["zero_count"] >= 1
        assert not payload["truncated"]
        assert path.read_text().startswith("<?xml")

    @pytest.mark.parametrize("as_json", [True, False])
    def test_f_at_cut_is_the_inner_end(self, monkeypatch, capsys, as_json):
        # a self-similar grid ascends from xi_min: f at the cut is its first row,
        # not f(xi_far) = A / xi_far, the input; a truncated grid stops at the last xi reached
        argv = ["ode", "selfsimilar", "--p", "3", "--A", "1", "--Xi", "1", "--ximin", "1e-2"]
        for budget in (semilinear.MAX_STEPS, 40):
            monkeypatch.setattr(semilinear, "MAX_STEPS", budget)
            sol = semilinear.solve_selfsimilar(3.0, 1.0, xi_far=1.0, xi_min=1e-2)
            assert sol.truncated == (budget == 40)
            assert (sol.grid[0] == 1e-2) != sol.truncated and sol.grid[-1] == 1.0
            code, out, _ = run_cli(capsys, *argv, *(["--json"] if as_json else []))
            assert code == 0
            value = json.loads(out)["f_at_cut"] if as_json else float(_text_field(out, "f_at_cut"))
            assert value == sol.values[0] != sol.values[-1]

    @pytest.mark.parametrize("as_json", [True, False])
    def test_f_at_cut_stationary_is_at_z_end(self, capsys, as_json):
        argv = ["ode", "stationary", "--p", "3", "--far", "plateau", "--zend", "25"]
        code, out, _ = run_cli(capsys, *argv, *(["--json"] if as_json else []))
        assert code == 0
        value = json.loads(out)["f_at_cut"] if as_json else float(_text_field(out, "f_at_cut"))
        sol = semilinear.solve_stationary(3.0, far="plateau_one", z_end=25.0)
        assert sol.grid[-1] == 25.0
        assert value == sol.values[-1] == pytest.approx(1.0, abs=1e-6)

    def test_bilaplace_check(self, capsys):
        code, out, _ = run_cli(
            capsys, "cracks", "check", "--alphas", "-1,0,1", "--equation", "bilaplace",
            "--lmin", "3", "--lmax", "3", "--json",
        )
        assert code == 0
        v = json.loads(out)["verdicts"][0]
        assert v["admissible"] is True
        assert v["families"] == [1, 2, 3, 4]

    def test_crackcurves(self, capsys):
        code, out, _ = run_cli(
            capsys, "ode", "crackcurves", "--p", "3", "--alpha", "1",
            "--ygrid", "-0.5:-1e-2:log:5", "--Xi", "30", "--ximin", "0.05",
            "--tol", "1e-8", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["beta"] == pytest.approx(1.0)
        assert payload["total_zero_count"] >= 1
        curve = payload["curves"][0]
        assert len(curve["points"]) == 5

    @pytest.mark.parametrize("count", [1, 0])
    def test_crackcurves_log_ygrid_count_below_2_exit_1(self, capsys, count):
        code, out, err = run_cli(
            capsys, "ode", "crackcurves", "--p", "3", "--alpha", "1",
            "--ygrid", f"-0.5:-1e-2:log:{count}", "--Xi", "30", "--ximin", "0.05", "--json",
        )
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert f"got {count}" in payload["message"]

    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    def test_crackcurves_non_finite_alpha_exit_1(self, capsys, alpha):
        # exit 0 with NaN or Infinity in the JSON before
        code, out, err = run_cli(
            capsys, "ode", "crackcurves", "--p", "3", "--alpha", alpha, "--ygrid", "-0.5:-1e-4:log:5", "--json",
        )
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert payload["message"] == f"alpha must be positive and finite, got alpha={float(alpha)!r}"

    def test_crackcurves_non_finite_weight_exit_1(self, capsys):
        # a bare OverflowError from |ln(-y)|^beta before
        code, out, err = run_cli(
            capsys, "ode", "crackcurves", "--p", "3", "--A", "1", "--alpha", "1e300",
            "--ygrid", "-0.5:-1e-4:log:3", "--json",
        )
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert "not a finite float" in payload["message"] and "beta=1e+300" in payload["message"]

    def test_crackcurves_negative_maxcurves_exit_1(self, capsys):
        # a negative count used to slice from the end and print all but the last curves
        code, out, err = run_cli(
            capsys, "ode", "crackcurves", "--p", "3", "--alpha", "1",
            "--ygrid", "-0.5:-1e-2:log:5", "--Xi", "30", "--ximin", "0.05", "--maxcurves", "-1", "--json",
        )
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert "maxcurves" in payload["message"]

    @pytest.mark.parametrize(
        "extra, cause",
        [
            (["--A", "1e-9"], "the profile has no zero in [ximin, Xi] = [0.01, 100]"),
            (["--maxcurves", "0"], "--maxcurves is 0"),
        ],
    )
    def test_crackcurves_svg_with_no_curve_exit_1(self, tmp_path, capsys, extra, cause):
        # the renderer's "cannot render an empty series list" before
        argv = ["ode", "crackcurves", "--p", "3", "--alpha", "1", "--ygrid", "-0.5:-1e-2:log:5", *extra]
        code, out, err = run_cli(capsys, *argv, "--svg", str(tmp_path / "c.svg"))
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert payload["message"] == f"no crack curve to draw in the --svg chart: {cause}"
        assert os.listdir(tmp_path) == []
        # the table of no curves is its header alone
        code, _, _ = run_cli(capsys, *argv, "--csv", str(tmp_path / "c.csv"))
        assert code == 0
        assert (tmp_path / "c.csv").read_text().splitlines()[1:] == ["xi,y,x"]

    def test_crackcurves_curve_not_shown_is_not_built(self, capsys):
        # the 32nd zero's point at y = -1e300 is past the float range and the
        # first's is not; with every curve built, --maxcurves 1 exited 1 too
        argv = ["ode", "crackcurves", "--p", "3", "--alpha", "3.3", "--ygrid=-0.5,-1e300", "--json"]
        code, out, _ = run_cli(capsys, *argv, "--maxcurves", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["total_zero_count"] == 32 and len(payload["curves"]) == 1
        assert payload["curves"][0]["points"][-1] == [-1e300, 2.3483467088238674e307]
        code, out, err = run_cli(capsys, *argv, "--maxcurves", "32")
        assert code == 1 and out == ""
        assert "not a finite float at y=-1e+300, beta=3.3" in json.loads(err)["message"]

    @pytest.mark.parametrize("ximin, count", [("1e-5", 32_070), ("1e-6", 320_700)])
    def test_crackcurves_count_every_zero_past_the_grid_budget(self, capsys, ximin, count):
        # the profile's grid stops at MAX_STEPS rows near xi = 4.4e-5, and the
        # command counted 7,352 zeros and drew its curves from there; only the
        # zeros shown are built now, and only those take memory
        argv = ["ode", "crackcurves", "--p", "3", "--A", "1", "--alpha", "1", "--ximin", ximin]
        tracemalloc.start()
        try:
            code, out, _ = run_cli(capsys, *argv, "--ygrid=-0.5:-1e-4:log:40", "--json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and peak < 2_000_000
        payload = json.loads(out)
        assert payload["total_zero_count"] == count and len(payload["curves"]) == 12
        assert payload["curves"][0]["xi"] == pytest.approx(1.000003 * float(ximin), rel=1e-7)

    def test_crackcurves_count_is_exact_past_the_float_phase(self, capsys):
        # near xi = 1e-16 the zeros are still distinct floats, and the floor of
        # the float phase, 3207009758150990, is one more than the exact count
        argv = ["ode", "crackcurves", "--p", "3", "--A", "1", "--alpha", "1", "--ximin", "1e-16", "--maxcurves", "0"]
        code, out, _ = run_cli(capsys, *argv, "--ygrid=-0.5:-1e-4:log:5", "--json")
        assert code == 0
        assert json.loads(out)["total_zero_count"] == 3_207_009_758_150_989

    def test_crackcurves_zeros_that_are_not_distinct_floats_exit_1(self, capsys):
        # near xi = 1e-17 the half period in t = 1/xi is below the float
        # spacing of t: the shown curves would coincide, and the innermost
        # pair is checked even with none shown
        for maxcurves in ([], ["--maxcurves", "1"], ["--maxcurves", "0"]):
            code, out, err = run_cli(
                capsys, "ode", "crackcurves", "--p", "3", "--alpha", "1", "--ygrid", "-0.5:-1e-4:log:5", "--ximin", "1e-17",
                *maxcurves,
            )
            assert code == 1 and out == ""
            payload = json.loads(err)
            assert payload["error"] == "ValueError"
            assert payload["message"] == (
                "xi_min=1e-17 is too small for p=3.0, A=1.0: the profile's zeros near it are not distinct floats"
            )

    def test_crackcurves_svg_past_float_range_exit_1(self, tmp_path, capsys):
        # the x range reaches 1.75e308, past which the chart's padded span overflows; no output is written
        argv = ["ode", "crackcurves", "--p", "3", "--alpha", "316.0267795602176", "--ygrid=-2,-1e4", "--maxcurves", "100"]
        outputs = ["--svg", str(tmp_path / "c.svg"), "--csv", str(tmp_path / "c.csv"), "--out", str(tmp_path / "c.json")]
        code, out, err = run_cli(capsys, *argv, *outputs)
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert payload["message"].startswith("cannot chart the x data range [9.966974906159579e-53, 1.7500000000001407e+308]")
        assert os.listdir(tmp_path) == []


def _config_of(form: str, data: str) -> dict:
    """The config JSON that opens one emitted form."""
    if form == "json":
        return json.loads(data)["config"]
    if form == "svg":
        line = next(line for line in data.splitlines() if line.startswith("<!-- config: "))
        return json.loads(line[len("<!-- config: ") : -len(" -->")])
    first = data.splitlines()[0]
    assert first.startswith("# config: ")
    return json.loads(first[len("# config: ") :])


# command -> (argv, output flags it accepts, the form stdout gets when no flag applies)
_RULE_COMMANDS = {
    "eig": (["eig", "--order", "quadratic", "--l", "3", "--family", "1"], (), "text"),
    "cracks-check": (["cracks", "check", "--alphas", "-1,1", "--lmin", "2", "--lmax", "3"], (), "text"),
    "expand-eval": (
        ["expand", "eval", "--terms", '{"2":[1,0]}', "--grid", "z=-1:1:1,tau=0:1:1"], ("csv",), "csv"
    ),
    "expand-trace": (["expand", "trace", "--terms", '{"2":[1,0]}', "--samples", "16"], ("svg",), "json"),
    "ode-stationary": (
        ["ode", "stationary", "--p", "3", "--symmetry", "antisymmetric", "--tol", "1e-7", "--zend", "25"],
        ("csv", "svg"),
        "text",
    ),
    "ode-crackcurves": (
        ["ode", "crackcurves", "--p", "3", "--alpha", "1", "--ygrid", "-0.5:-1e-2:log:5",
         "--Xi", "30", "--ximin", "0.05", "--tol", "1e-8"],
        ("csv", "svg"),
        "json",
    ),
    "verify": (["verify", "--suite", "roots", "--lmax", "3"], (), "text"),
}


def _rule_cases():
    for name, (_, file_flags, _) in _RULE_COMMANDS.items():
        flags = ("json", "out") + file_flags
        for n in range(len(flags) + 1):
            for chosen in itertools.combinations(flags, n):
                yield pytest.param(name, chosen, id=f"{name}[{','.join(chosen) or 'plain'}]")


class TestOutputRule:
    """--svg writes the chart and --csv the table; --json or --out emits the
    payload; stdout gets the text form only when neither applies and no file
    was written; every form opens with the same config JSON."""

    @pytest.mark.parametrize("name, flags", list(_rule_cases()))
    def test_destinations_and_config(self, tmp_path, capsys, name, flags):
        argv, _, text_form = _RULE_COMMANDS[name]
        paths = {"out": tmp_path / "out.json", "csv": tmp_path / "out.csv", "svg": tmp_path / "out.svg"}
        extra = []
        for flag in flags:
            extra += [f"--{flag}"] if flag == "json" else [f"--{flag}", str(paths[flag])]
        code, out, err = run_cli(capsys, *argv, *extra)
        assert code == 0 and err == ""

        wrote_file = "csv" in flags or "svg" in flags
        if "json" in flags and "out" not in flags:
            stdout_form = "json"
        elif "json" in flags or "out" in flags or wrote_file:
            stdout_form = None
        else:
            stdout_form = text_form
        assert bool(out) == (stdout_form is not None)
        for flag, path in paths.items():
            assert path.exists() == (flag in flags)

        files = (("json", paths["out"]), ("csv", paths["csv"]), ("svg", paths["svg"]))
        forms = [(form, path.read_text()) for form, path in files if path.exists()]
        if stdout_form is not None:
            forms.append((stdout_form, out))
        configs = [_config_of(form, data) for form, data in forms]
        assert configs and all(c == configs[0] for c in configs)
        assert configs[0]["command"] == argv[0] and configs[0]["json"] == ("json" in flags)


class TestSession:
    EIG = ["eig", "--order", "quartic", "--l", "6", "--family", "3", "--json"]

    def test_repeated_calls_identical_bytes(self, capsys, tmp_path):
        first = run_cli(capsys, *self.EIG)
        assert first[0] == 0 and first[1]
        assert run_cli(capsys, *self.EIG) == first
        # another command, then a usage error, must leave no trace in the next call
        svg = tmp_path / "trace.svg"
        code, _, _ = run_cli(
            capsys, "expand", "trace", "--terms", '{"2":[1,0]}', "--samples", "16", "--svg", str(svg)
        )
        assert code == 0
        assert run_cli(capsys, *self.EIG) == first
        with pytest.raises(SystemExit) as exc:
            main(["eig", "--order", "quartic", "--l", "six", "--family", "3"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert run_cli(capsys, *self.EIG) == first
        again = tmp_path / "again.svg"
        run_cli(capsys, "expand", "trace", "--terms", '{"2":[1,0]}', "--samples", "16", "--svg", str(again))
        assert again.read_bytes() == svg.read_bytes()

    def test_one_parser_per_process(self):
        assert cli._parser() is cli._parser()
        assert cli.build_parser() is not cli.build_parser()


def test_python_m_pencil():
    out = subprocess.run(
        [sys.executable, "-m", "pencil", "spectrum", "--order", "quadratic", "--lmax", "1"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode == 0
    assert "family=1 l=1 lambda=-1" in out.stdout


def test_console_script_installed():
    out = subprocess.run(
        [sys.executable, "-m", "pencil.cli", "spectrum", "--order", "quadratic", "--lmax", "1"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert "family=1 l=1 lambda=-1" in out.stdout
