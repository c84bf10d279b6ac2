"""Deterministic SVG emitter structure checks."""

import xml.etree.ElementTree as ET

import pytest

from pencil.svg import render_line_chart


def _polylines(doc: str):
    root = ET.fromstring(doc)
    ns = "{http://www.w3.org/2000/svg}"
    return root.findall(f".//{ns}polyline")


def test_single_curve_parses_with_one_polyline():
    pts = [(i / 10, (i / 10) ** 2) for i in range(100)]
    doc = render_line_chart([("squared", pts)], title="t", x_label="x", y_label="y")
    assert len(_polylines(doc)) == 1


def test_two_curves_have_legend_entries():
    pts = [(float(i), float(i)) for i in range(10)]
    doc = render_line_chart([("first", pts), ("second", pts)])
    assert len(_polylines(doc)) == 2
    assert ">first<" in doc and ">second<" in doc


def test_empty_series_rejected():
    with pytest.raises(ValueError):
        render_line_chart([])
    with pytest.raises(ValueError):
        render_line_chart([("empty", [])])


def test_byte_identical_for_identical_input():
    pts = [(float(i), float(i % 3)) for i in range(50)]
    a = render_line_chart([("series", pts)], title="same")
    b = render_line_chart([("series", pts)], title="same")
    assert a == b


def test_header_comment_embedded():
    doc = render_line_chart([("s", [(0.0, 0.0), (1.0, 1.0)])], header_comment="config: {}")
    assert "<!-- config: {} -->" in doc


@pytest.mark.parametrize("top", [5e-324, 1e-323, 3e-323, 1e-320])
def test_subnormal_span_renders(top):
    # the tick step underflowed: log10(0) or an unbound step raised before
    doc = render_line_chart([("tiny", [(0.0, 0.0), (1.0, top)])])
    assert len(_polylines(doc)) == 1


@pytest.mark.parametrize(
    "pts, axis, data",
    [
        ([(0.0, 0.0), (1.7e308, 1.0)], "x", "[0.0, 1.7e+308]"),
        ([(-1e308, 0.0), (1e308, 1.0)], "x", "[-1e+308, 1e+308]"),
        ([(0.0, -1e308), (1.0, 1e308)], "y", "[-1e+308, 1e+308]"),
    ],
)
def test_span_past_float_range_rejected(pts, axis, data):
    # the 5% padding, or the span itself, overflows the float range
    with pytest.raises(ValueError) as err:
        render_line_chart([("huge", pts)])
    assert str(err.value) == f"cannot chart the {axis} data range {data}: its padded span inf is not a positive finite float"


def test_constant_axis_below_unit_resolution_rejected():
    # 1e20 + 1.0 == 1e20: a constant axis there has no unit span to scale by
    with pytest.raises(ValueError, match=r"the x data range \[1e\+20, 1e\+20\]: its padded span 0.0"):
        render_line_chart([("flat", [(1e20, 0.0), (1e20, 1.0)])])
