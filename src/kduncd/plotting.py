"""Deterministic SVG rendering of uncertainty diagrams.

Styling is fixed in code so output is golden-file comparable: integer axis
ticks 1..d, the classical hyperbola n_a * n_b = d dashed, the line
n_a + n_b = d + 1 dot-dashed, Present points on the hyperbola as red squares,
other Present points as blue diamonds, and holes as open red circles.
"""

from __future__ import annotations

from .diagram import PointStatus, UncertaintyDiagram

__all__ = ["diagram_svg"]

CELL = 44
MARGIN = 58
CURVE_SAMPLES = 256

COLOR_CLASSICAL = "#d62728"
COLOR_PRESENT = "#1f77b4"
COLOR_HOLE = "#d62728"
COLOR_GUIDE = "#444444"


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def diagram_svg(diag: UncertaintyDiagram) -> str:
    d = diag.d
    size = 2 * MARGIN + d * CELL

    def px(x: float) -> float:
        return MARGIN + (x - 0.5) * CELL

    def py(y: float) -> float:
        return size - MARGIN - (y - 0.5) * CELL

    lines: list[str] = []
    lines.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">'
    )
    lines.append(f'<rect width="{size}" height="{size}" fill="white"/>')
    lines.append(
        f'<text x="{_fmt(size / 2)}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">uncertainty diagram, d = {d}</text>'
    )

    lo, hi = px(0.5), px(d + 0.5)
    lines.append(
        f'<rect x="{_fmt(lo)}" y="{_fmt(py(d + 0.5))}" width="{_fmt(hi - lo)}" '
        f'height="{_fmt(hi - lo)}" fill="none" stroke="black" stroke-width="1"/>'
    )
    for k in range(1, d + 1):
        x = px(k)
        y = py(k)
        lines.append(
            f'<line x1="{_fmt(x)}" y1="{_fmt(py(0.5))}" x2="{_fmt(x)}" '
            f'y2="{_fmt(py(0.5) + 5)}" stroke="black" stroke-width="1"/>'
        )
        lines.append(
            f'<text x="{_fmt(x)}" y="{_fmt(py(0.5) + 20)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{k}</text>'
        )
        lines.append(
            f'<line x1="{_fmt(lo)}" y1="{_fmt(y)}" x2="{_fmt(lo - 5)}" '
            f'y2="{_fmt(y)}" stroke="black" stroke-width="1"/>'
        )
        lines.append(
            f'<text x="{_fmt(lo - 10)}" y="{_fmt(y + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12">{k}</text>'
        )
    lines.append(
        f'<text x="{_fmt(size / 2)}" y="{_fmt(size - 12)}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">n_A</text>'
    )
    lines.append(
        f'<text x="16" y="{_fmt(size / 2)}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 16 {_fmt(size / 2)})">n_B</text>'
    )

    # hyperbola n_a * n_b = d, clipped to the plotted square
    x0 = max(0.5, d / (d + 0.5))
    x1 = d + 0.5
    pts = []
    for k in range(CURVE_SAMPLES + 1):
        x = x0 + (x1 - x0) * k / CURVE_SAMPLES
        y = d / x
        if 0.5 <= y <= d + 0.5:
            pts.append(f"{_fmt(px(x))},{_fmt(py(y))}")
    lines.append(
        f'<polyline points="{" ".join(pts)}" fill="none" stroke="{COLOR_GUIDE}" '
        f'stroke-width="1.2" stroke-dasharray="6 4"/>'
    )

    # line n_a + n_b = d + 1
    lines.append(
        f'<line x1="{_fmt(px(0.5))}" y1="{_fmt(py(d + 0.5))}" '
        f'x2="{_fmt(px(d + 0.5))}" y2="{_fmt(py(0.5))}" stroke="{COLOR_GUIDE}" '
        f'stroke-width="1.2" stroke-dasharray="10 4 2 4"/>'
    )

    half = 5.0
    for (n_a, n_b) in sorted(diag.points):
        p = diag.points[(n_a, n_b)]
        cx, cy = px(n_a), py(n_b)
        if p.status is PointStatus.PRESENT and n_a * n_b == d:
            lines.append(
                f'<rect x="{_fmt(cx - half)}" y="{_fmt(cy - half)}" '
                f'width="{_fmt(2 * half)}" height="{_fmt(2 * half)}" '
                f'fill="{COLOR_CLASSICAL}"/>'
            )
        elif p.status is PointStatus.PRESENT:
            lines.append(
                f'<path d="M {_fmt(cx)} {_fmt(cy - 6.5)} L {_fmt(cx + 6.5)} {_fmt(cy)} '
                f'L {_fmt(cx)} {_fmt(cy + 6.5)} L {_fmt(cx - 6.5)} {_fmt(cy)} Z" '
                f'fill="{COLOR_PRESENT}"/>'
            )
        else:
            lines.append(
                f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="5.50" fill="none" '
                f'stroke="{COLOR_HOLE}" stroke-width="1.6"/>'
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
