"""Tests for deterministic JSON encoding and the SVG renderer."""

import json
import re

import pytest

import support
from equicell import (ConvexPolygon, equalize_perimeters, power_diagram,
                      render_power_diagram_svg)
from equicell import cli, jsonio

SQUARE = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
# argv of each command that writes JSON with --output; a dict is its --input
JSON_OUTPUTS = {
    "complex-d2-n4": ["complex", "--d", "2", "--n", "4"],
    "strata-d1-n4": ["complex", "--kind", "stratification", "--d", "1", "--n", "4"],
    "obstruction-n6": ["obstruction", "--n", "6"],
    "obstruction-n8": ["obstruction", "--n", "8"],
    "label": ["label", "--input", {"points": [[0.0, 0.0], [1.0, 0.5], [0.0, 1.0]]}],
    "weights": ["equipart", "--input", {"mode": "weights", "polygon": SQUARE,
                                        "sites": [[0.21, 0.41], [0.62, 0.53],
                                                  [0.44, 0.78]]}],
    "equalize": ["equipart", "--input", {"mode": "equalize", "polygon": SQUARE, "n": 3}],
}


def csv_row(*reals):
    """The CSV row that `equipart --format csv` writes for one site."""
    site_x, site_y, weight, area, perimeter = reals
    payload = {"sites": [[site_x, site_y]], "weights": [weight], "areas": [area],
               "perimeters": [perimeter]}
    return cli._payload_csv(payload).splitlines()[1]


class TestJsonEncoding:
    def test_real_formatting(self):
        row = csv_row(0.5, 1.0, -0.0, 0.1, 1 / 3)
        # 0.1 in the shortest form, and 1/3 in a form that reads back exactly
        assert row.split(",")[:5] == ["0", "0.5", "1.0", "-0.0", "0.1"]
        assert float(row.split(",")[5]) == 1 / 3

    def test_rejects_non_finite(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                csv_row(0.5, 0.5, 0.0, bad, 1.0)
            with pytest.raises(ValueError):
                jsonio.dumps({"x": bad})

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
        # json.dumps writes int, float, bool and None keys as strings
        with pytest.raises(TypeError):
            jsonio.dumps({(1, 2): "x"})


@pytest.mark.parametrize("name", JSON_OUTPUTS)
def test_json_outputs_are_stdlib_json(name, tmp_path, monkeypatch):
    # every JSON output, the streamed poset export too, is json.dumps's text
    monkeypatch.delenv("EQUICELL_BUDGET", raising=False)
    argv = JSON_OUTPUTS[name]
    if isinstance(argv[-1], dict):
        (tmp_path / "in.json").write_text(json.dumps(argv[-1]))
        argv = argv[:-1] + [str(tmp_path / "in.json")]
    out = tmp_path / "out.json"
    assert cli.main(argv + ["--output", str(out)]) == 0
    text = out.read_text()
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


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
