"""Static SVG rendering of parameter-plane maps.

Produces self-contained SVG 1.1 documents: log-log heatmaps of any
sweep field with per-cell rectangles, optional iso-contours (marching
squares on cell centers), and a color legend. Pure functions of their
inputs — identical inputs give identical documents. Plain Python on
`math` and lists: the grids are small, and `render` loads no numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import DomainError

# fields that are best viewed on a logarithmic color scale
LOG_FIELDS = {"d2", "schmidt_number", "var_rel_pos_um2", "var_tot_wv_um_inv2"}

# small viridis-like ramp (position, r, g, b)
_RAMP = [
    (0.0, 68, 1, 84),
    (0.2, 59, 82, 139),
    (0.4, 33, 145, 140),
    (0.6, 94, 201, 98),
    (0.8, 253, 231, 37),
    (1.0, 255, 255, 255),
]

# document size (px) and axis labels of every heatmap
_WIDTH, _HEIGHT = 640, 520
_X_LABEL = "dq_perp (1/um)"
_Y_LABEL = "dk_ph (1/um)"

REGIME_COLORS = {
    "A": "#3b528b",
    "B": "#21918c",
    "C": "#fde725",
    "anomalous": "#d62728",
    "error": "#808080",
}


def _color(t: float) -> str:
    t = min(max(t, 0.0), 1.0)
    for (p0, r0, g0, b0), (p1, r1, g1, b1) in zip(_RAMP, _RAMP[1:]):
        if t <= p1:
            u = (t - p0) / (p1 - p0)
            return "#{:02x}{:02x}{:02x}".format(
                round(r0 + u * (r1 - r0)), round(g0 + u * (g1 - g0)), round(b0 + u * (b1 - b0))
            )
    return "#ffffff"


@dataclass(frozen=True)
class ContourSpec:
    values: Sequence[Sequence[float]]  # same shape as the heatmap values
    level: float
    color: str
    label: str


def _edges(log_centers: list) -> list:
    """Cell edges around log-spaced centers (midpoints, clamped ends)."""
    c = log_centers
    if len(c) == 1:
        return [c[0] - 0.5, c[0] + 0.5]
    mid = [0.5 * (a + b) for a, b in zip(c, c[1:])]
    return [c[0] - (mid[0] - c[0]), *mid, c[-1] + (c[-1] - mid[-1])]


def _grid(values, nx: int, ny: int, what: str) -> list:
    """`values` (an array or nested sequences) as nx lists of ny floats."""
    try:
        rows = [[float(v) for v in row] for row in values]
    except TypeError:  # a row that is a number, not a sequence
        rows = []
    if len(rows) != nx or any(len(row) != ny for row in rows):
        raise DomainError(f"{what} shape must be (len(x_values), len(y_values))")
    return rows


def _marching_squares(xc, yc, vals, level):
    """Line segments of the iso-contour on the cell-center lattice."""
    segs = []
    for i in range(len(xc) - 1):
        for j in range(len(yc) - 1):
            corners = [
                (xc[i], yc[j], vals[i][j]),
                (xc[i + 1], yc[j], vals[i + 1][j]),
                (xc[i + 1], yc[j + 1], vals[i + 1][j + 1]),
                (xc[i], yc[j + 1], vals[i][j + 1]),
            ]
            if any(not math.isfinite(c[2]) for c in corners):
                continue
            pts = []
            for (x0, y0, v0), (x1, y1, v1) in zip(corners, corners[1:] + corners[:1]):
                if (v0 < level) != (v1 < level):
                    u = (level - v0) / (v1 - v0)
                    pts.append((x0 + u * (x1 - x0), y0 + u * (y1 - y0)))
            if len(pts) >= 2:
                segs.append((pts[0], pts[1]))
            if len(pts) == 4:
                segs.append((pts[2], pts[3]))
    return segs


def render_heatmap(
    x_values: Sequence[float],
    y_values: Sequence[float],
    values: Sequence[Sequence[float]],
    field: str,
    contours: Sequence[ContourSpec] = (),
    categories: Optional[Sequence[str]] = None,
) -> str:
    """SVG heatmap of `values` over log-log axes (x_values, y_values).

    `values` has shape (len(x_values), len(y_values)), as an array or
    as nested sequences. If `categories` is given, `values` is ignored
    for coloring and cells are painted by category name (flattened
    row-major); otherwise a continuous ramp is used, logarithmic for
    fields in LOG_FIELDS. NaN cells render grey.
    """
    x = [float(u) for u in x_values]
    y = [float(u) for u in y_values]
    v = _grid(values, len(x), len(y), "values")
    if any(not u > 0.0 for u in (*x, *y)):
        raise DomainError("log-log axes require positive coordinates")

    lx, ly = [math.log10(u) for u in x], [math.log10(u) for u in y]
    xe, ye = _edges(lx), _edges(ly)
    ml, mr, mt, mb = 70, 110, 30, 55
    pw, ph = _WIDTH - ml - mr, _HEIGHT - mt - mb

    def sx(u):
        return ml + (u - xe[0]) / (xe[-1] - xe[0]) * pw

    def sy(u):
        return mt + (ye[-1] - u) / (ye[-1] - ye[0]) * ph

    finite = [u for row in v for u in row if math.isfinite(u)]
    use_log = field in LOG_FIELDS and len(finite) > 0 and all(u > 0.0 for u in finite)
    if finite:
        tv = [math.log10(u) for u in finite] if use_log else finite
        vmin, vmax = min(tv), max(tv)
    else:
        vmin, vmax = 0.0, 1.0
    vspan = vmax - vmin

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
    ]
    cats = None
    if categories is not None:
        cats = [str(c) for c in categories]
        if len(cats) != len(x) * len(y):
            raise DomainError("categories must hold len(x_values) * len(y_values) names")
    for i in range(len(x)):
        for j in range(len(y)):
            if cats is not None:
                fill = REGIME_COLORS.get(cats[i * len(y) + j], "#808080")
            elif not math.isfinite(v[i][j]):
                fill = "#808080"
            elif vspan == 0.0:
                fill = _color(0.5)
            else:
                t = (math.log10(v[i][j]) if use_log else v[i][j]) - vmin
                fill = _color(t / vspan)
            x0, x1 = sx(xe[i]), sx(xe[i + 1])
            y1, y0 = sy(ye[j]), sy(ye[j + 1])
            out.append(
                f'<rect x="{x0:.2f}" y="{y0:.2f}" width="{x1 - x0:.2f}" height="{y1 - y0:.2f}" fill="{fill}"/>'
            )

    for spec in contours:
        cv = _grid(spec.values, len(x), len(y), "contour grid")
        for (xa, ya), (xb, yb) in _marching_squares(lx, ly, cv, spec.level):
            out.append(
                f'<line x1="{sx(xa):.2f}" y1="{sy(ya):.2f}" x2="{sx(xb):.2f}" y2="{sy(yb):.2f}" '
                f'stroke="{spec.color}" stroke-width="2"/>'
            )

    # frame and axis ticks at decades
    out.append(
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" stroke="#000000"/>'
    )
    for d in range(math.ceil(xe[0]), math.floor(xe[-1]) + 1):
        out.append(
            f'<text x="{sx(d):.2f}" y="{_HEIGHT - mb + 18}" font-size="12" text-anchor="middle" '
            f'font-family="sans-serif">1e{d}</text>'
        )
        out.append(
            f'<line x1="{sx(d):.2f}" y1="{mt + ph}" x2="{sx(d):.2f}" y2="{mt + ph + 4}" stroke="#000"/>'
        )
    for d in range(math.ceil(ye[0]), math.floor(ye[-1]) + 1):
        out.append(
            f'<text x="{ml - 8}" y="{sy(d):.2f}" font-size="12" text-anchor="end" '
            f'dominant-baseline="middle" font-family="sans-serif">1e{d}</text>'
        )
        out.append(f'<line x1="{ml - 4}" y1="{sy(d):.2f}" x2="{ml}" y2="{sy(d):.2f}" stroke="#000"/>')
    out.append(
        f'<text x="{ml + pw / 2:.2f}" y="{_HEIGHT - 12}" font-size="13" text-anchor="middle" '
        f'font-family="sans-serif">{_X_LABEL}</text>'
    )
    out.append(
        f'<text x="16" y="{mt + ph / 2:.2f}" font-size="13" text-anchor="middle" '
        f'font-family="sans-serif" transform="rotate(-90 16 {mt + ph / 2:.2f})">{_Y_LABEL}</text>'
    )

    # legend
    lg_x = _WIDTH - mr + 18
    if cats is not None:
        used = sorted(set(cats))
        for n, name in enumerate(used):
            yy = mt + 18 * n
            out.append(
                f'<rect x="{lg_x}" y="{yy}" width="14" height="14" fill="{REGIME_COLORS.get(name, "#808080")}"/>'
            )
            out.append(
                f'<text x="{lg_x + 20}" y="{yy + 11}" font-size="12" font-family="sans-serif">{name}</text>'
            )
    else:
        steps = 40
        for n in range(steps):
            yy = mt + ph * (1.0 - (n + 1) / steps)
            out.append(
                f'<rect x="{lg_x}" y="{yy:.2f}" width="14" height="{ph / steps + 0.5:.2f}" '
                f'fill="{_color(n / (steps - 1))}"/>'
            )
        top = f"1e{vmax:.2f}" if use_log else f"{vmax:.3g}"
        bot = f"1e{vmin:.2f}" if use_log else f"{vmin:.3g}"
        out.append(
            f'<text x="{lg_x + 18}" y="{mt + 10}" font-size="11" font-family="sans-serif">{top}</text>'
        )
        out.append(
            f'<text x="{lg_x + 18}" y="{mt + ph}" font-size="11" font-family="sans-serif">{bot}</text>'
        )
        out.append(
            f'<text x="{lg_x}" y="{mt - 8}" font-size="12" font-family="sans-serif">{field}</text>'
        )
    for n, spec in enumerate(contours):
        yy = _HEIGHT - 30 + 14 * n
        out.append(
            f'<line x1="{lg_x}" y1="{yy}" x2="{lg_x + 14}" y2="{yy}" stroke="{spec.color}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{lg_x + 20}" y="{yy + 4}" font-size="11" font-family="sans-serif">{spec.label}</text>'
        )
    out.append("</svg>")
    return "\n".join(out)
