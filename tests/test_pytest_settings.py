"""The project's pytest settings keep a failing test an ordinary failure.

Every warning is an error, but reporting a failing hypothesis example imports
libcst, whose import warns; without its one ignore entry pytest stopped the
run with an internal error, and no later test ran.
"""

import tomllib
from pathlib import Path

pytest_plugins = ["pytester"]

_PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_hypothesis_test_does_not_stop_the_run(pytester):
    filters = tomllib.loads(_PYPROJECT.read_text())["tool"]["pytest"]["ini_options"]["filterwarnings"]
    assert "error" in filters
    pytester.makeini("[pytest]\nfilterwarnings =\n" + "".join(f"    {f}\n" for f in filters))
    pytester.makepyfile(
        """
        from hypothesis import given, settings, strategies as st

        @given(st.integers())
        @settings(database=None)
        def test_fails(n):
            assert n != 0

        def test_runs_after_it():
            pass
        """
    )
    # a child interpreter, so libcst is imported afresh and warns again
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
    assert result.ret == 1
