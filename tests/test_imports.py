"""numpy and mpmath load only in the functions that use them.

Each case runs in a fresh interpreter, since this test process has imported
both long before.  The exact commands never touch a float array, so they
must leave both out of sys.modules; the commands that do use them must still
run when the import happens inside the call.
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
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_exact_commands_load_neither(argv):
    assert _fresh(argv) == {"code": 0, "loaded": []}


@pytest.mark.parametrize(
    "argv",
    [
        ["cracks", "check", "--alphas", "-1,0,1", "--equation", "bilaplace", "--lmin", "3", "--lmax", "5"],
        ["verify", "--suite", "sturm-liouville"],
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_float_commands_import_on_call(argv):
    assert _fresh(argv)["code"] == 0
