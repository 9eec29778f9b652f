"""Deterministic SVG rendering of contours, traces and particle clouds.

Output is byte-stable: fixed six-decimal formatting, fixed element order,
and a viewBox fitted to the data with a five-percent margin.  A scale bar
(one round decade, roughly a fifth of the width) is drawn bottom-left.
"""

from __future__ import annotations

import math

import numpy as np

_PRECISION = 6
_WIDTH = 640  # pixels; the height follows the data's aspect ratio


def _fmt(x: float) -> str:
    return f"{x:.{_PRECISION}f}"


def _bounds(layers):
    xs, ys = [], []
    for kind, pts, _style in layers:
        arr = np.asarray(pts, dtype=complex)
        if arr.size:
            xs.extend([float(arr.real.min()), float(arr.real.max())])
            ys.extend([float(arr.imag.min()), float(arr.imag.max())])
    if not xs:
        return None
    return min(xs), max(xs), min(ys), max(ys)


def render_svg(layers) -> str:
    """Render layered geometry to an SVG document string.

    ``layers`` is a sequence of ``(kind, points, style)`` with ``kind`` in
    {"polyline", "points"}, ``points`` complex, and ``style`` a dict that may
    carry ``stroke``/``fill``/``radius``.  Empty input produces a valid SVG
    containing a warning comment.
    """
    layers = [(k, np.asarray(p, dtype=complex).reshape(-1), dict(s or {})) for k, p, s in layers]
    box = _bounds(layers)
    if box is None:
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_WIDTH}" '
            f'viewBox="0 0 1 1"><!-- warning: empty input --></svg>\n'
        )
    xmin, xmax, ymin, ymax = box
    span = max(xmax - xmin, ymax - ymin, 1e-9)
    margin = 0.05 * span
    xmin, xmax = xmin - margin, xmax + margin
    ymin, ymax = ymin - margin, ymax + margin
    w_box, h_box = xmax - xmin, ymax - ymin
    height = int(round(_WIDTH * h_box / w_box))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{height}" '
        f'viewBox="{_fmt(xmin)} {_fmt(-ymax)} {_fmt(w_box)} {_fmt(h_box)}">'
    ]
    # the y axis is flipped so that the mathematical orientation is preserved
    for kind, pts, style in layers:
        if pts.size == 0:
            continue
        stroke = style.get("stroke", "#1f3a5f")
        if kind == "polyline":
            d = "M " + " L ".join(f"{_fmt(p.real)} {_fmt(-p.imag)}" for p in pts)
            if style.get("closed"):
                d += " Z"
            parts.append(
                f'<path d="{d}" fill="none" stroke="{stroke}" '
                f'stroke-width="{_fmt(span / 300.0)}"/>'
            )
        elif kind == "points":
            radius = style.get("radius", span / 200.0)
            fill = style.get("fill", "#b3402a")
            for p in pts:
                parts.append(
                    f'<circle cx="{_fmt(p.real)}" cy="{_fmt(-p.imag)}" '
                    f'r="{_fmt(radius)}" fill="{fill}"/>'
                )
        else:
            raise ValueError(f"unknown layer kind {kind!r}")
    bar = 10.0 ** math.floor(math.log10(w_box / 5.0))
    bx, by = xmin + 0.05 * w_box, -(ymin + 0.05 * h_box)
    parts.append(
        f'<path d="M {_fmt(bx)} {_fmt(by)} L {_fmt(bx + bar)} {_fmt(by)}" '
        f'fill="none" stroke="#000000" stroke-width="{_fmt(span / 200.0)}"/>'
    )
    parts.append(
        f'<text x="{_fmt(bx)}" y="{_fmt(by - 0.015 * h_box)}" '
        f'font-size="{_fmt(0.03 * h_box)}">{bar:g}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
