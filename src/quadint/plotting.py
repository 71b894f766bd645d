"""Self-contained SVG emission for trajectories and the singular lines.

Orthographic projection onto a coordinate plane (xy, xz, yz) or a
fixed-angle 3D view; no external assets, one polyline per trajectory,
the two singular lines dashed.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .catalog import singular_lines

if TYPE_CHECKING:  # dynamics imports numpy; VIEWS and the renderer need none
    from .dynamics import TrajectoryRecord

VIEWS = ("xy", "xz", "yz", "3d")

# fixed-angle orthographic 3D: rotate about z then tilt about x
_AZIMUTH = math.radians(30.0)
_ELEVATION = math.radians(25.0)

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


class MalformedInput(Exception):
    """Trajectory CSV did not match the expected header/shape."""


def _project(view: str):
    if view == "xy":
        return lambda x, y, z: (x, y), "x", "y"
    if view == "xz":
        return lambda x, y, z: (x, z), "x", "z"
    if view == "yz":
        return lambda x, y, z: (y, z), "y", "z"
    ca, sa = math.cos(_AZIMUTH), math.sin(_AZIMUTH)
    ce, se = math.cos(_ELEVATION), math.sin(_ELEVATION)

    def proj3d(x, y, z):
        xr = ca * x + sa * y
        yr = -sa * x + ca * y
        return (xr, ce * z - se * yr)

    return proj3d, "view-u", "view-v"


def _tick_values(lo: float, hi: float, n: int = 6) -> list[float]:
    span = hi - lo
    if span <= 0:
        return [lo]
    raw = span / n
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 1e-12 * span:
        ticks.append(round(v, 12))
        v += step
    return ticks


def render_svg(
    trajectories: list[TrajectoryRecord],
    a: float,
    b: float,
    view: str = "xy",
    width: int = 640,
    height: int = 640,
) -> str:
    """Render trajectories plus dashed singular lines to an SVG document."""
    if view not in VIEWS:
        raise ValueError(f"view must be one of {VIEWS}")
    proj, xlabel, ylabel = _project(view)

    curves = []
    for rec in trajectories:
        pts = [proj(row[1], row[2], row[3]) for row in rec.rows]
        if pts:
            curves.append(pts)

    # data bounds, including the singular-line offsets so the dashes show
    xs = [p[0] for c in curves for p in c]
    ys = [p[1] for c in curves for p in c]
    for line in singular_lines(a, b):
        px, py = proj(*(float(v) for v in line.point))[:2]
        xs.append(px)
        ys.append(py)
    if not xs:
        xs, ys = [-1.0, 1.0], [-1.0, 1.0]
    lo_x, hi_x = min(xs), max(xs)
    lo_y, hi_y = min(ys), max(ys)
    pad_x = 0.1 * max(hi_x - lo_x, 1e-6)
    pad_y = 0.1 * max(hi_y - lo_y, 1e-6)
    lo_x, hi_x = lo_x - pad_x, hi_x + pad_x
    lo_y, hi_y = lo_y - pad_y, hi_y + pad_y
    for label, lo, hi in ((xlabel, lo_x, hi_x), (ylabel, lo_y, hi_y)):
        # a finite row near the binary64 limit can pad to inf, or to a
        # range whose width is inf
        if not math.isfinite(hi - lo):
            raise ValueError(
                f"the {label} axis range [{lo:g}, {hi:g}] is not finite after "
                "padding: the data are too close to the binary64 limit to plot"
            )

    margin = 50
    pw, ph = width - 2 * margin, height - 2 * margin

    def to_px(pt):
        u, v = pt
        px = margin + (u - lo_x) / (hi_x - lo_x) * pw
        py = margin + (hi_y - v) / (hi_y - lo_y) * ph
        return px, py

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<clipPath id="plot"><rect x="{margin}" y="{margin}" width="{pw}" height="{ph}"/></clipPath>',
        f'<rect x="{margin}" y="{margin}" width="{pw}" height="{ph}" '
        'fill="none" stroke="black" stroke-width="1"/>',
    ]

    # axes ticks and labels
    for tv in _tick_values(lo_x, hi_x):
        px, _ = to_px((tv, lo_y))
        parts.append(
            f'<line x1="{px:.1f}" y1="{height - margin}" x2="{px:.1f}" '
            f'y2="{height - margin + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px:.1f}" y="{height - margin + 18}" font-size="11" '
            f'text-anchor="middle">{tv:g}</text>'
        )
    for tv in _tick_values(lo_y, hi_y):
        _, py = to_px((lo_x, tv))
        parts.append(
            f'<line x1="{margin - 5}" y1="{py:.1f}" x2="{margin}" y2="{py:.1f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{margin - 8}" y="{py + 4:.1f}" font-size="11" '
            f'text-anchor="end">{tv:g}</text>'
        )
    parts.append(
        f'<text x="{width / 2:.0f}" y="{height - 10}" font-size="13" '
        f'text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="15" y="{height / 2:.0f}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 15 {height / 2:.0f})">{ylabel}</text>'
    )

    # singular lines, dashed, sampled over a parameter range covering the view
    span = max(hi_x - lo_x, hi_y - lo_y, abs(lo_x), abs(hi_x), abs(lo_y), abs(hi_y))
    for line in singular_lines(a, b):
        p0 = tuple(float(v) for v in line.point)
        d = tuple(float(v) for v in line.direction)
        norm = math.sqrt(sum(c * c for c in d))
        d = tuple(c / norm for c in d)
        pts = []
        nsamp = 100
        for i in range(nsamp + 1):
            t = -3 * span + 6 * span * i / nsamp
            pt = proj(p0[0] + t * d[0], p0[1] + t * d[1], p0[2] + t * d[2])
            pts.append(to_px(pt))
        path = " ".join(f"{px:.2f},{py:.2f}" for px, py in pts)
        parts.append(
            f'<polyline points="{path}" fill="none" stroke="#555555" '
            'stroke-width="1.2" stroke-dasharray="7,5" clip-path="url(#plot)"/>'
        )

    for i, pts in enumerate(curves):
        color = _PALETTE[i % len(_PALETTE)]
        path = " ".join(f"{px:.2f},{py:.2f}" for px, py in (to_px(p) for p in pts))
        parts.append(
            f'<polyline points="{path}" fill="none" stroke="{color}" '
            'stroke-width="0.8" clip-path="url(#plot)"/>'
        )

    parts.append("</svg>")
    return "\n".join(parts)


def plot_trajectories(csv_paths, out_path, a, b, view="xy", width=640, height=640):
    from .dynamics import TrajectoryRecord

    records = []
    for path in csv_paths:
        try:
            records.append(TrajectoryRecord.read_csv(path))
        except ValueError as exc:
            raise MalformedInput(str(exc)) from exc
    svg = render_svg(records, a, b, view=view, width=width, height=height)
    with open(out_path, "w") as fh:
        fh.write(svg)
