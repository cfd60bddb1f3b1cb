"""SVG rendering of hives on the triangulated grid.

One labeled node per grid point, the three families of unit edges, and a
translucent highlight over every violated rhombus.  All coordinates are
integers and elements are emitted in canonical point order, so the output
is byte-identical across runs for a fixed input.
"""

from __future__ import annotations

from .grids import tri_points
from .hive import Hive, validate_dc

UNIT = 40          # horizontal distance between neighbours
ROW = 35           # vertical distance between rows (~ UNIT * sqrt(3)/2)
MARGIN = 30


def _pos(i: int, j: int, n: int) -> tuple[int, int]:
    x = MARGIN + UNIT * i + (UNIT // 2) * j
    y = MARGIN + ROW * (n - j)
    return x, y


def render_hive_svg(h: Hive) -> str:
    """A standalone SVG document for the hive, violations highlighted."""
    n = h.n
    width = 2 * MARGIN + UNIT * n
    height = 2 * MARGIN + ROW * n
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        "<style>"
        "line{stroke:#888;stroke-width:1}"
        ".bad{fill:#e44;fill-opacity:0.35;stroke:#c00;stroke-width:2}"
        "circle{fill:#fff;stroke:#333;stroke-width:1}"
        "text{font-family:monospace;font-size:13px;text-anchor:middle;"
        "dominant-baseline:central}"
        "</style>",
    ]

    edges = []
    for (i, j) in tri_points(n):
        if i + j < n:
            edges.append(((i, j), (i + 1, j)))
            edges.append(((i, j), (i, j + 1)))
            edges.append(((i + 1, j), (i, j + 1)))
    for (p, q) in edges:
        x1, y1 = _pos(*p, n)
        x2, y2 = _pos(*q, n)
        lines.append(f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}"/>')

    for rh in validate_dc(h):
        (c1, c2), (f1, f2) = rh.cut, rh.free  # diagonal ends alternate
        pts = " ".join("%d,%d" % _pos(i, j, n) for (i, j) in (f1, c1, f2, c2))
        lines.append(f'<polygon class="bad" points="{pts}">'
                     f'<title>{rh}</title></polygon>')

    for (i, j) in tri_points(n):
        x, y = _pos(i, j, n)
        lines.append(f'<circle cx="{x}" cy="{y}" r="12"/>')
        lines.append(f'<text x="{x}" y="{y}">{h[i, j]}</text>')

    lines.append("</svg>")
    return "\n".join(lines) + "\n"
