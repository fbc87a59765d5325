"""Tests for the SVG rendering of planar configurations."""

import xml.etree.ElementTree as ET

from prismcat.geometry import realize
from prismcat.labelings import Labeling
from prismcat.svg import render_svg, write_svg

SVG_NS = "{http://www.w3.org/2000/svg}"

FIXTURE = Labeling(2, 6, 2, 7, 3, 2, 2, 3, 2)


def test_render_is_deterministic():
    config_a = realize(FIXTURE)
    config_b = realize(FIXTURE)
    assert render_svg(config_a, FIXTURE) == render_svg(config_b, FIXTURE)


def test_document_structure():
    config = realize(FIXTURE)
    text = render_svg(config, FIXTURE)
    assert text.startswith("<?xml")
    root = ET.fromstring(text)
    assert root.tag == f"{SVG_NS}svg"
    assert root.get("viewBox") == "-1.6 -1.6 3.2 3.2"

    title = root.find(f"{SVG_NS}title")
    assert "2 6 2 7 3 2 2 3 2" in title.text

    group = root.find(f"{SVG_NS}g")
    assert group.get("fill") == "none"
    # y-axis flip so the mathematical orientation renders upright
    assert group.get("transform") == "matrix(1 0 0 -1 0 0)"

    lines = group.findall(f"{SVG_NS}line")
    circles = group.findall(f"{SVG_NS}circle")
    assert [line.get("stroke") for line in lines] == ["red", "green", "blue"]
    assert [c.get("stroke") for c in circles] == ["black", "black"]


def test_faces_are_drawn_in_place():
    config = realize(FIXTURE)
    root = ET.fromstring(render_svg(config, FIXTURE))
    group = root.find(f"{SVG_NS}g")
    lines = group.findall(f"{SVG_NS}line")
    circles = group.findall(f"{SVG_NS}circle")

    # red is the vertical axis
    red = lines[0]
    assert float(red.get("x1")) == 0.0 and float(red.get("x2")) == 0.0

    # green is horizontal at cos(pi/7) for this labeling
    green = lines[1]
    assert abs(float(green.get("y1")) - 0.9009688679) <= 1e-9
    assert float(green.get("y1")) == float(green.get("y2"))

    # unit circle first, then the top circle from the realization
    back, top = circles
    assert (back.get("cx"), back.get("cy"), back.get("r")) == ("0", "0", "1")
    assert abs(float(top.get("cx")) - config.top.cx) <= 1e-9
    assert abs(float(top.get("r")) - config.top.r) <= 1e-9


def test_line_segments_span_the_viewport():
    labeling = Labeling(3, 3, 2, 4, 3, 5, 3, 2, 2)
    root = ET.fromstring(render_svg(realize(labeling), labeling))
    group = root.find(f"{SVG_NS}g")
    for line in group.findall(f"{SVG_NS}line"):
        x1, y1 = float(line.get("x1")), float(line.get("y1"))
        x2, y2 = float(line.get("x2")), float(line.get("y2"))
        assert (x2 - x1) ** 2 + (y2 - y1) ** 2 >= (2 * 1.6) ** 2 * 2


def test_write_svg_round_trip(tmp_path):
    config = realize(FIXTURE)
    path = tmp_path / "figure.svg"
    write_svg(config, str(path), FIXTURE)
    on_disk = path.read_text(encoding="utf-8")
    assert on_disk == render_svg(config, FIXTURE)
    assert on_disk.endswith("</svg>\n")
