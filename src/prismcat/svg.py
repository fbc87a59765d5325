"""Deterministic SVG rendering of a planar configuration.

The figure uses a fixed viewport covering [-1.6, 1.6] in both axes with the
mathematical orientation (y up).  Faces are stroked in a fixed order -- red,
green, blue lines, then the two black circles -- so repeated renders of the
same configuration are byte-identical.
"""

from __future__ import annotations

from typing import Sequence

from .geometry import PlanarConfig, PlanarLine

VIEW_HALF = 1.6
# Half-length of each rendered line segment; long enough to cross the whole
# viewport from any foot point a catalog configuration produces.
LINE_REACH = 4.8
STROKE_WIDTH = 0.02


def _fmt(value: float) -> str:
    text = f"{value:.10f}".rstrip("0").rstrip(".")
    return "0" if text == "-0" else text


def _line_element(line: PlanarLine, color: str) -> str:
    # Foot of the perpendicular from the origin, extended along the direction.
    fx, fy = line.d * line.nx, line.d * line.ny
    dx, dy = -line.ny, line.nx
    x1, y1 = fx - LINE_REACH * dx, fy - LINE_REACH * dy
    x2, y2 = fx + LINE_REACH * dx, fy + LINE_REACH * dy
    return (
        f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
        f'stroke="{color}"/>'
    )


def render_svg(config: PlanarConfig, labeling: Sequence[int]) -> str:
    """Render the five faces of a labeling's configuration as a standalone SVG document."""
    title = "prism configuration " + " ".join(str(v) for v in labeling)
    size = 2 * VIEW_HALF
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        (
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="480" height="480" '
            f'viewBox="{_fmt(-VIEW_HALF)} {_fmt(-VIEW_HALF)} {_fmt(size)} {_fmt(size)}">'
        ),
        f"<title>{title}</title>",
        (
            f'<g transform="matrix(1 0 0 -1 0 0)" fill="none" '
            f'stroke-width="{_fmt(STROKE_WIDTH)}" stroke-linecap="round">'
        ),
        *(_line_element(getattr(config, color), color) for color in ("red", "green", "blue")),
        *(
            f'<circle cx="{_fmt(c.cx)}" cy="{_fmt(c.cy)}" r="{_fmt(c.r)}" stroke="black"/>'
            for c in (config.back, config.top)
        ),
        "</g>",
        "</svg>",
    ]
    return "\n".join(parts) + "\n"


def write_svg(config: PlanarConfig, path: str, labeling: Sequence[int]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render_svg(config, labeling))
