"""Ellipse-and-wedge picture of the ratio confidence set.

The pair of sample means (mean_x, mean_y) carries the joint confidence
ellipse (p - c)' Sigma^-1 (p - c) = t_q^2, with Sigma the 2x2 covariance
matrix of the means. Lines through the origin tangent to this ellipse have
exactly the slopes that solve T0(rho)^2 = t_q^2, so the wedge between them
is the confidence set for the ratio. When the ellipse reaches the y axis
the denominator is not significantly different from zero and the wedge
degenerates into one of the unbounded cases.

Tangent slopes are computed analytically from the shared quadratic, never
from sampled boundary points; the points exist only as plot data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import ConfidenceSpec, SummaryStats
from .errors import DomainError, SingularCovariance
from .methods import tangency_slopes

__all__ = [
    "EllipseConstruction",
    "construct_wedge",
    "ellipse_boundary_points",
    "wedge_csv_rows",
    "wedge_svg",
]


@dataclass(frozen=True)
class EllipseConstruction:
    """Joint confidence ellipse of the two means plus its origin tangents.

    The axis-aligned half extents are quantile * sd of each mean, so the
    projections onto the axes are the marginal confidence intervals.
    touches_y_axis is true exactly when 0 lies inside the x projection,
    i.e. when the denominator mean is not significantly nonzero; zero
    tangent slopes means the origin lies inside the ellipse (whole line),
    one that the other tangent is vertical and Fieller's set a half-line.
    """

    center: tuple[float, float]
    half_axis_x: float
    half_axis_y: float
    covariance_of_means: float
    tangent_slopes: tuple[float, ...]
    touches_y_axis: bool
    quantile: float


def construct_wedge(stats: SummaryStats, spec: ConfidenceSpec) -> EllipseConstruction:
    """Build the confidence ellipse of the means and its origin tangents.

    Requires at least one of the mean variances to be positive. A singular
    covariance with a positive variance (perfectly correlated pairs, or one
    noiseless margin) still yields a degenerate but drawable ellipse.
    """
    vx, vy, cxy = stats.var_mean_x, stats.var_mean_y, stats.cov_mean_xy
    if vx == 0.0 and vy == 0.0:
        raise SingularCovariance("both mean variances are zero")
    t = spec.quantile
    slopes = tangency_slopes(stats, t)
    touches = stats.mean_x * stats.mean_x <= t * t * vx
    return EllipseConstruction(
        center=(stats.mean_x, stats.mean_y),
        half_axis_x=t * math.sqrt(vx),
        half_axis_y=t * math.sqrt(vy),
        covariance_of_means=cxy,
        tangent_slopes=slopes,
        touches_y_axis=touches,
        quantile=t,
    )


def _cholesky_columns(e: EllipseConstruction) -> tuple[float, float, float]:
    """Lower Cholesky factor of quantile^2 * Sigma, clamped so degenerate
    covariances (a zero variance or |corr| = 1) collapse to a segment
    instead of failing."""
    sx = e.half_axis_x
    sy = e.half_axis_y
    t2c = e.quantile * e.quantile * e.covariance_of_means
    if sx > 0.0:
        l21 = t2c / sx
        l22 = math.sqrt(max(sy * sy - l21 * l21, 0.0))
    else:
        l21 = 0.0
        l22 = sy
    return sx, l21, l22


def ellipse_boundary_points(e: EllipseConstruction, k: int) -> list[tuple[float, float]]:
    """k points tracing the ellipse boundary counterclockwise.

    Parameterized as center + L (cos, sin) with L the Cholesky factor of
    the scaled covariance, so the x extrema land exactly on the marginal
    interval endpoints (parameter angles 0 and pi).
    """
    if k < 3:
        raise DomainError("need at least three boundary points")
    cx, cy = e.center
    sx, l21, l22 = _cholesky_columns(e)
    points = []
    for j in range(k):
        theta = 2.0 * math.pi * j / k
        u, v = math.cos(theta), math.sin(theta)
        points.append((cx + sx * u, cy + l21 * u + l22 * v))
    return points


def _tangent_segments(
    e: EllipseConstruction, reach: float
) -> list[tuple[float, float, float, float]]:
    segments = []
    for slope in e.tangent_slopes:
        run = math.copysign(reach / max(1.0, abs(slope)), e.center[0] or 1.0)
        segments.append((0.0, 0.0, run, slope * run))
    return segments


def wedge_csv_rows(e: EllipseConstruction, k: int = 256) -> list[tuple[str, float, float]]:
    """Plot-ready rows (element, x, y): the ellipse boundary, both tangent
    lines as origin-anchored segments, the vertical reference at x = 1, and
    the marginal interval marks on the axes."""
    cx, cy = e.center
    rows: list[tuple[str, float, float]] = [
        ("ellipse", x, y) for x, y in ellipse_boundary_points(e, k)
    ]
    reach = abs(cx) + e.half_axis_x
    for i, (x0, y0, x1, y1) in enumerate(_tangent_segments(e, reach), start=1):
        rows.append((f"tangent_{i}", x0, y0))
        rows.append((f"tangent_{i}", x1, y1))
    span = abs(cy) + e.half_axis_y
    rows.append(("vertical_reference", 1.0, min(0.0, cy - e.half_axis_y)))
    rows.append(("vertical_reference", 1.0, span))
    rows.append(("x_interval", cx - e.half_axis_x, 0.0))
    rows.append(("x_interval", cx + e.half_axis_x, 0.0))
    rows.append(("y_interval", 0.0, cy - e.half_axis_y))
    rows.append(("y_interval", 0.0, cy + e.half_axis_y))
    return rows


def _fmt(value: float) -> str:
    return format(value, ".6g")


def wedge_svg(e: EllipseConstruction, k: int = 256) -> str:
    """Minimal standalone SVG, 480 px along its longer side: one ellipse
    path, one line per tangent slope, the x = 1 reference line, and the
    marginal interval marks."""
    boundary = ellipse_boundary_points(e, k)
    cx, cy = e.center
    xs = [p[0] for p in boundary] + [0.0, 1.0]
    ys = [p[1] for p in boundary] + [0.0]
    reach = abs(cx) + e.half_axis_x
    tangents = _tangent_segments(e, reach)
    for x0, y0, x1, y1 in tangents:
        xs += [x0, x1]
        ys += [y0, y1]
    lo_x, hi_x = min(xs), max(xs)
    lo_y, hi_y = min(ys), max(ys)
    pad = 0.05 * max(hi_x - lo_x, hi_y - lo_y, 1e-30)
    lo_x, hi_x = lo_x - pad, hi_x + pad
    lo_y, hi_y = lo_y - pad, hi_y + pad
    scale = 480 / max(hi_x - lo_x, hi_y - lo_y)

    def to_px(x: float, y: float) -> tuple[float, float]:
        # SVG y grows downward.
        return (x - lo_x) * scale, (hi_y - y) * scale

    def line(cls: str, attrs: str, a: tuple[float, float], b: tuple[float, float]) -> str:
        """One <line>, of the class and attributes, from point a to point b."""
        (x1, y1), (x2, y2) = to_px(*a), to_px(*b)
        return (
            f'<line class="{cls}" {attrs} '
            f'x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}"/>'
        )

    width = _fmt((hi_x - lo_x) * scale)
    height = _fmt((hi_y - lo_y) * scale)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        '<g fill="none" stroke-width="1.5">',
    ]
    d = []
    for i, (x, y) in enumerate(boundary):
        px, py = to_px(x, y)
        d.append(f"{'M' if i == 0 else 'L'} {_fmt(px)} {_fmt(py)}")
    d.append("Z")
    parts.append(f'<path class="ellipse" stroke="#1a6faf" d="{" ".join(d)}"/>')
    for x0, y0, x1, y1 in tangents:
        parts.append(line("tangent", 'stroke="#b03030"', (x0, y0), (x1, y1)))
    reference = 'stroke="#777777" stroke-dasharray="4 3"'
    parts.append(line("reference", reference, (1.0, lo_y + pad), (1.0, hi_y - pad)))
    for cls, a, b in (
        ("interval-x", (cx - e.half_axis_x, 0.0), (cx + e.half_axis_x, 0.0)),
        ("interval-y", (0.0, cy - e.half_axis_y), (0.0, cy + e.half_axis_y)),
    ):
        parts.append(line(cls, 'stroke="#2e8b57" stroke-width="3"', a, b))
    parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
