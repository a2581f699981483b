"""Deterministic SVG rendering of city tours and activation grids.

Output is built from formatted strings only, so identical inputs always
produce identical bytes, making the images usable as golden files.
"""

import numpy as np

from .errors import TsphnnError
from .instance import Instance
from .tour import Tour


def _fmt(v: float) -> str:
    return f"{v:.4f}"


def _preamble(size: int) -> list:
    """The opening parts of a square image: the XML header, the ``<svg>``
    tag and a white background."""
    return [
        '<?xml version="1.0" encoding="UTF-8"?>\n',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">\n',
        f'<rect width="{size}" height="{size}" fill="white"/>\n',
    ]


def render_tour_svg(inst: Instance, tour: Tour = None) -> str:
    """City markers with labels, plus the closed tour polygon when given;
    the tour must visit the instance's n cities."""
    if tour is not None and tour.n != inst.n:
        raise TsphnnError(f"tour has {tour.n} cities, instance has {inst.n}")
    size, margin = 480, 40
    pts = inst.coords()
    lo = pts.min(axis=0)
    span = pts.max(axis=0) - lo
    span[span == 0] = 1.0
    inner = size - 2 * margin

    def sx(x):
        return margin + (x - lo[0]) / span[0] * inner

    def sy(y):
        # flip so larger y is drawn higher
        return size - margin - (y - lo[1]) / span[1] * inner

    parts = _preamble(size)
    if tour is not None:
        coords = " ".join(
            f"{_fmt(sx(pts[c, 0]))},{_fmt(sy(pts[c, 1]))}" for c in tour.order
        )
        parts.append(
            f'<polygon points="{coords}" fill="none" stroke="steelblue" stroke-width="1.5"/>\n'
        )
    for city, (x, y) in zip(inst.cities, pts):
        parts.append(
            f'<circle cx="{_fmt(sx(x))}" cy="{_fmt(sy(y))}" r="4" fill="crimson"/>\n'
        )
        parts.append(
            f'<text x="{_fmt(sx(x) + 6)}" y="{_fmt(sy(y) - 6)}" font-size="12" '
            f'font-family="sans-serif">{city.label}</text>\n'
        )
    parts.append("</svg>\n")
    return "".join(parts)


def render_grid_svg(grid: np.ndarray) -> str:
    """n x n cell lattice; active units are filled."""
    cell, margin = 32, 20
    g = np.asarray(grid)
    n = g.shape[0]
    size = 2 * margin + n * cell
    parts = _preamble(size)
    for r in range(n):
        for c in range(n):
            fill = "black" if g[r, c] else "white"
            parts.append(
                f'<rect x="{margin + c * cell}" y="{margin + r * cell}" '
                f'width="{cell}" height="{cell}" fill="{fill}" '
                f'stroke="gray" stroke-width="1"/>\n'
            )
    parts.append("</svg>\n")
    return "".join(parts)
