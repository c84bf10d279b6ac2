"""numpy loads only in the functions that use it, and mpmath never.

Each case runs in a fresh interpreter, since this test process has imported
both long before.  No CLI command loads numpy: every slope the CLI reads is
exact, and root seeds are plain float loops, so numpy is left to the float
SVD of `_verdict_at` and the least-squares fits of `pencil.expansion`,
which only the library API reaches.  The API paths must still run when the
import happens inside the call.  The package does not import mpmath at all:
the `sturm-liouville` verify suite, once its one caller, is exact.
"""

import json
import subprocess
import sys

import pytest

_REPORT = (
    "import contextlib, io, json, sys\n"
    "import pencil\n"
    "import pencil.cli\n"
    "argv = json.loads(sys.argv[1])\n"
    "code = None\n"
    "if argv:\n"
    "    with contextlib.redirect_stdout(io.StringIO()):\n"
    "        code = pencil.cli.main(argv)\n"
    "print(json.dumps({'code': code, 'loaded': sorted({'numpy', 'mpmath'} & set(sys.modules))}))\n"
)


def _fresh(argv: list[str]) -> dict:
    out = subprocess.run(
        [sys.executable, "-c", _REPORT, json.dumps(argv)], capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_import_loads_neither():
    assert _fresh([]) == {"code": None, "loaded": []}


@pytest.mark.parametrize(
    "argv",
    [
        ["eig", "--order", "quartic", "--l", "6", "--family", "3", "--json"],
        ["spectrum", "--order", "quadratic", "--lmax", "8"],
        ["ode", "stationary", "--p", "3"],
        ["expand", "eval", "--terms", '{"2":[1,0],"3":[0,1]}', "--grid", "z=-1:1:0.5,tau=0:1:0.5"],
        ["cracks", "check", "--alphas", "-1,1", "--equation", "laplace", "--lmin", "2", "--lmax", "6"],
        pytest.param(
            ["cracks", "check", "--alphas", "-1,0,1", "--equation", "bilaplace", "--lmin", "3", "--lmax", "5"],
            id="cracks check bilaplace",
        ),
        ["cracks", "enum", "--m", "2", "--l", "5", "--ratios", "-1:1:0.5"],
        ["expand", "trace", "--terms", '{"3":[1,0.5]}', "--samples", "16"],
        pytest.param(
            ["expand", "trace", "--terms", '{"4":[1,0,0.5,-1]}', "--equation", "bilaplace", "--samples", "16"],
            id="expand trace bilaplace",
        ),
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_exact_commands_load_neither(argv):
    assert _fresh(argv) == {"code": 0, "loaded": []}


def test_verify_all_loads_neither():
    assert _fresh(["verify", "--all"]) == {"code": 0, "loaded": []}


_API = (
    "import json, sys\n"
    "from pencil.expansion import Expansion, decay_order\n"
    "from pencil.nodal import CrackConfig, check_admissibility_laplace\n"
    "before = 'numpy' in sys.modules\n"
    "verdicts = check_admissibility_laplace(CrackConfig((-1.5, 0.3)), (2, 3))\n"
    "after_svd = 'numpy' in sys.modules\n"
    "fit = decay_order(Expansion('laplace', {2: (1, 0)}), [0.01, 0.005, 0.0025])\n"
    "report = {'before': before, 'after_svd': after_svd, 'verdicts': len(verdicts), 'slope': round(fit.slope)}\n"
    "print(json.dumps(report))\n"
)


def test_api_float_paths_import_numpy_on_call():
    out = subprocess.run([sys.executable, "-c", _API], capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == {"before": False, "after_svd": True, "verdicts": 2, "slope": 2}


def test_sturm_liouville_suite_loads_neither():
    assert _fresh(["verify", "--suite", "sturm-liouville"]) == {"code": 0, "loaded": []}
