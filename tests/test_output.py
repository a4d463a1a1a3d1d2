"""Tests for deterministic JSON encoding and the SVG renderer."""

import json
import re

import numpy as np
import pytest

import support
from equicell import (ConvexPolygon, equalize_perimeters, power_diagram,
                      render_power_diagram_svg)
from equicell import jsonio


class TestJsonEncoding:
    def test_real_formatting(self):
        assert jsonio.format_real(0.5) == "0.5"
        assert jsonio.format_real(1.0) == "1"
        assert jsonio.format_real(-0.0) == "-0"
        text = jsonio.format_real(1 / 3)
        assert float(text) == 1 / 3  # 17 significant digits roundtrip

    def test_rejects_non_finite(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                jsonio.format_real(bad)
            with pytest.raises(ValueError):
                jsonio.dumps({"x": bad})

    def test_numpy_scalars(self):
        doc = jsonio.dumps({"a": np.float64(0.25), "b": np.int64(7)})
        assert json.loads(doc) == {"a": 0.25, "b": 7}

    def test_structure_and_layout(self):
        doc = jsonio.dumps({"b": [1, 2.5, True, None], "a": {"k": "v"}})
        parsed = json.loads(doc)
        assert parsed == {"b": [1, 2.5, True, None], "a": {"k": "v"}}
        assert doc.endswith("\n")
        # key order is preserved, not sorted
        assert doc.index('"b"') < doc.index('"a"')

    def test_deterministic(self):
        payload = {"xs": [1 / 3, 2 / 7, 0.1], "n": 3}
        assert jsonio.dumps(payload) == jsonio.dumps(payload)

    def test_non_string_keys_rejected(self):
        with pytest.raises(TypeError):
            jsonio.dumps({1: "x"})


class TestSvg:
    def make_diagram(self):
        sites = ((0.25, 0.25), (0.75, 0.25), (0.5, 0.75))
        return power_diagram(support.UNIT_SQUARE, sites)

    def test_structure(self):
        svg = render_power_diagram_svg(self.make_diagram())
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        assert svg.count("<circle") == 3
        assert svg.count("<polygon") >= 4  # 3 cells + outline

    def test_fixed_decimals(self):
        svg = render_power_diagram_svg(self.make_diagram())
        for num in re.findall(r'points="([^"]+)"', svg):
            for tok in num.replace(",", " ").split():
                assert re.fullmatch(r"-?\d+\.\d{3}", tok), tok

    def test_no_negative_zero(self):
        svg = render_power_diagram_svg(self.make_diagram())
        assert "-0.000" not in svg

    def test_deterministic(self):
        a = render_power_diagram_svg(self.make_diagram())
        b = render_power_diagram_svg(self.make_diagram())
        assert a == b

    def test_empty_cells_skipped(self):
        pd = power_diagram(support.UNIT_SQUARE, ((0.5, 0.5), (0.5, 0.52)),
                           (0.4, -0.4))
        svg = render_power_diagram_svg(pd)
        assert svg.count("<circle") == 2
        assert svg.startswith("<svg")

    def test_sites_outside_polygon_on_canvas(self):
        # the equal-perimeter search may leave sites outside the polygon (not
        # at seed 0 today, so a hand-placed site far below it is drawn too)
        quad = ConvexPolygon(((0.0, 0.0), (2.0, 0.0), (1.6, 1.1), (0.2, 0.8)))
        searched = equalize_perimeters(quad, 3, tol=1e-6, seed=0).diagram
        placed = power_diagram(quad, ((0.6, -0.4), (1.2, 0.5), (0.8, 0.7)))
        for diagram in (searched, placed):
            svg = render_power_diagram_svg(diagram)
            width, height = map(float, re.search(
                r'viewBox="0 0 ([\d.]+) ([\d.]+)"', svg).groups())
            circles = re.findall(
                r'<circle cx="([-\d.]+)" cy="([-\d.]+)" r="([\d.]+)"', svg)
            assert len(circles) == 3
            for cx, cy, r in ((float(a), float(b), float(c)) for a, b, c in circles):
                assert r <= cx <= width - r and r <= cy <= height - r
