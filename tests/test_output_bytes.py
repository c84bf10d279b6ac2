"""CLI output bytes against the stdlib serializers in `pencil_oracles`.

`cli._json_text` must write what json.dumps(indent=2, sort_keys=True,
default=str) writes, `cli._csv_lines` what one csv.writer row per data row
writes, and `svg.render_line_chart` the polylines of one `_fmt` call per
coordinate; the golden tests run whole commands both ways.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pencil_oracles as oracles
from pencil import cli, svg
from pencil.cli import main

EXTREME_FLOATS = (math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.7976931348623157e308)
TRICKY_TEXT = ('"', "\\", 'a"b\\c', "\x00\x01\x1f\x7f", "\n\r\t\b\f", "é", "ξ_k ∈ ℝ", "\U0001f600", "\ud800")

floats = st.floats() | st.sampled_from(EXTREME_FLOATS)
scalars = (
    floats
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**200)
    | st.integers(max_value=-(2**64))
    | st.booleans()
    | st.none()
    | st.text()
    | st.sampled_from(TRICKY_TEXT)
    | st.fractions()
)


def _keyed_dicts(values):
    # keys of one type per dict: json sorts the keys before it converts them,
    # and keys of mixed types do not sort
    key_types = (st.text(), st.integers(), floats, st.booleans(), st.none())
    return st.one_of([st.dictionaries(keys, values, max_size=4) for keys in key_types])


payloads = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=5)
    | st.lists(children, max_size=5).map(tuple)
    | _keyed_dicts(children),
    max_leaves=40,
)


class TestJson:
    @settings(max_examples=300, deadline=None)
    @given(payloads)
    def test_matches_stdlib_encoder(self, value):
        assert cli._json_text(value, "") == oracles.json_text(value)

    @pytest.mark.parametrize(
        "value",
        [
            [],
            {},
            (),
            [[], {}, ()],
            {"a": [], "b": {}},
            list(EXTREME_FLOATS),
            [2**64, -(2**64) - 1, 10**100, True, False, None],
            list(TRICKY_TEXT),
            [Fraction(1, 3), Fraction(-7), {"x": Fraction(2, 5)}],
            {1: "int", 2: "keys"},
            {1.5: "a", -0.0: "b", math.inf: "c", math.nan: "d"},
            {True: 1, False: 0},
            {None: [1.0, -0.0]},
            {"nested": [[1.0, [2.5, {"k": [math.nan]}]], (3, 4.0)]},
            # float pairs inside a list are written inline unless an item is not a finite float
            [[1.0, -0.0], (2.5, 1e308), [math.nan, 1.0], [1.0, 1], [True, 1.0], [[]], [5e-324], ((0.5, 0.25),)],
            5e-324,
            "top-level string",
            Fraction(3, 4),
        ],
        ids=repr,
    )
    def test_edge_cases(self, value):
        assert cli._json_text(value, "") == oracles.json_text(value)

    @pytest.mark.parametrize("key", [Fraction(1, 2), (1, 2)])
    def test_unsupported_key_raises_as_json_does(self, key):
        with pytest.raises(TypeError):
            oracles.json_text({key: 1})
        with pytest.raises(TypeError, match="keys must be str, int, float, bool or None"):
            cli._json_text({key: 1}, "")


class TestCsv:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=1, max_value=5).flatmap(lambda n: st.lists(st.tuples(*[floats] * n), max_size=20)))
    def test_matches_csv_writer(self, rows):
        columns = [f"c{i}" for i in range(len(rows[0]))] if rows else ["c0"]
        assert "".join(cli._csv_lines("config: {}", columns, rows)) == oracles.csv_text("config: {}", columns, rows)

    def test_lazy_rows_and_extremes(self):
        columns = ["abscissa", "f", "f'"]
        rows = [(a, b, c) for a in EXTREME_FLOATS for b in EXTREME_FLOATS[:3] for c in (0.1, 1 / 3, -2.5e-300)]
        expected = oracles.csv_text("h", columns, rows)
        assert "".join(cli._csv_lines("h", columns, iter(rows))) == expected
        assert "".join(cli._csv_lines("h", columns, [])) == oracles.csv_text("h", columns, [])


class TestPolyline:
    points = st.lists(st.tuples(st.floats(-1e12, 1e12), st.floats(-1e12, 1e12)), max_size=30)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(points, min_size=1, max_size=4).filter(lambda series: any(series)))
    def test_matches_fmt_per_coordinate(self, series):
        labelled = [(f"s{i}", pts) for i, pts in enumerate(series)]
        doc = svg.render_line_chart(labelled, "t", "x", "y")
        assert doc == oracles.render_line_chart(labelled, "t", "x", "y")
        assert doc.count("<polyline") == sum(1 for pts in series if pts)

    def test_zero_crossing_and_flat_series(self):
        series = [("a", [(-1.0, -0.0), (0.0, 0.0), (1.0, -0.0)]), ("b", [(-0.0, 2.0)]), ("c", [])]
        assert svg.render_line_chart(series) == oracles.render_line_chart(series)


_CURVES = ((2.0, 1.0, 1.0), (3.0, 1.0, 1.0), (3.0, 0.5, 2.0), (4.0, 1.5, 0.5), (2.5, 2.0, 1.5), (3.5, 0.75, 1.0))
# argv, and the output flags that take a path
_GOLDEN = [
    *(
        pytest.param(
            ["ode", "crackcurves", "--p", str(p), "--A", str(a), "--alpha", str(alpha), "--ygrid", "-0.5:-1e-4:log:40"],
            ("out", "csv", "svg"),
            id=f"crackcurves-p{p}-A{a}-alpha{alpha}",
        )
        for p, a, alpha in _CURVES
    ),
    pytest.param(
        ["ode", "crackcurves", "--p", "3", "--A", "1", "--alpha", "1", "--ximin", "1e-4", "--ygrid", "-0.5:-1e-4:log:40"],
        ("out", "csv", "svg"),
        id="crackcurves-ximin-1e-4",
    ),
    pytest.param(["ode", "stationary", "--p", "3"], ("out", "csv", "svg"), id="stationary"),
    pytest.param(
        ["ode", "stationary", "--p", "2", "--symmetry", "antisymmetric", "--far", "plateau"],
        ("out", "csv", "svg"),
        id="stationary-plateau",
    ),
    pytest.param(
        ["ode", "selfsimilar", "--p", "3", "--A", "1", "--ximin", "1e-3"], ("out", "csv", "svg"), id="selfsimilar"
    ),
    pytest.param(
        ["expand", "eval", "--terms", '{"2":[1,0],"3":[0.5,0.25]}', "--grid", "z=-3:3:0.1,tau=0:4:0.5"],
        ("out", "csv"),
        id="expand-eval",
    ),
    pytest.param(
        ["expand", "eval", "--terms", '{"2":[1,0]}', "--grid", "z=-1:1:0.25,tau=0:1:0.5"], (), id="eval-stdout"
    ),
    pytest.param(["expand", "trace", "--terms", '{"2":[1,0]}', "--samples", "90"], ("svg",), id="trace"),
    pytest.param(["expand", "trace", "--terms", '{"3":[1,-0.5]}', "--samples", "45"], (), id="trace-stdout"),
    pytest.param(["eig", "--order", "quartic", "--l", "12", "--family", "3", "--json"], (), id="eig"),
    pytest.param(
        ["cracks", "check", "--alphas", "-1/2,2/3", "--equation", "bilaplace", "--lmin", "3", "--lmax", "8", "--json"],
        (),
        id="cracks-check",
    ),
    pytest.param(["verify", "--suite", "admissibility-examples", "--json"], (), id="verify"),
]


def _outputs(capsys, directory, argv, flags) -> list[bytes]:
    directory.mkdir()
    paths = [directory / f"output.{flag}" for flag in flags]
    extra = [arg for flag, path in zip(flags, paths) for arg in (f"--{flag}", str(path))]
    assert main([*argv, *extra]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    return [captured.out.encode(), *(path.read_bytes() for path in paths)]


@pytest.mark.parametrize("argv, flags", _GOLDEN)
def test_cli_bytes_equal_oracle_serializers(tmp_path, capsys, monkeypatch, argv, flags):
    written = _outputs(capsys, tmp_path / "cli", argv, flags)
    monkeypatch.setattr(cli, "_json_text", lambda value, pad: oracles.json_text(value))
    monkeypatch.setattr(cli, "_csv_lines", lambda *table: [oracles.csv_text(*table)])
    monkeypatch.setattr(cli, "render_line_chart", oracles.render_line_chart)
    assert written == _outputs(capsys, tmp_path / "oracle", argv, flags)
    assert any(written)
