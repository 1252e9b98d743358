"""Static log-log convergence plots as standalone SVG text.

No rendering dependency: the plot is assembled as SVG markup directly.
Output is deterministic for identical inputs (fixed float formatting), so
plots can be byte-compared across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .analysis import RateFit
from .errors import ParameterError
from .experiments import ConvergenceRecord

WIDTH, HEIGHT = 640.0, 480.0
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70.0, 20.0, 40.0, 50.0


@dataclass(frozen=True)
class PlotRequest:
    records: list[ConvergenceRecord]
    rate_fit: RateFit
    title: str
    norm: str = "l2"
    reference_slopes: tuple[float, ...] = field(default_factory=tuple)

    def __post_init__(self):
        ns = [r.n for r in self.records]
        if ns != sorted(ns):
            raise ParameterError("records must be sorted by n ascending")


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _decade_label(exponent: int) -> str:
    return f"1e{exponent}"


def render_loglog_svg(req: PlotRequest) -> str:
    """Standalone SVG: error against fill distance on log-log axes.

    One circle marker per record, the fitted line, dashed guide lines for
    each reference slope, and a legend carrying the fitted slope to two
    decimals.
    """
    if len(req.records) < 2:
        raise ParameterError("need at least two records to plot")
    h_vals = [r.fill_distance for r in req.records]
    e_vals = [max(r.errors[req.norm], 1e-300) for r in req.records]
    if not all(0 < h < math.inf for h in h_vals):
        raise ParameterError("fill distances must be positive and finite")
    if not all(math.isfinite(e) for e in e_vals):
        raise ParameterError(f"{req.norm} errors must be finite")
    fit = req.rate_fit
    if not all(map(math.isfinite, (fit.slope, fit.intercept, *req.reference_slopes))):
        raise ParameterError("the fitted and reference slopes and the intercept must be finite")

    lx = [math.log10(h) for h in h_vals]
    ly = [math.log10(e) for e in e_vals]
    x_lo, x_hi = min(lx), max(lx)
    y_lo, y_hi = min(ly), max(ly)
    x_pad = 0.05 * (x_hi - x_lo) or 0.5
    y_pad = 0.05 * (y_hi - y_lo) or 0.5
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def sx(logx: float) -> float:
        return MARGIN_L + (logx - x_lo) / (x_hi - x_lo) * plot_w

    def sy(logy: float) -> float:
        return MARGIN_T + (y_hi - logy) / (y_hi - y_lo) * plot_h

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH:.0f}" '
        f'height="{HEIGHT:.0f}" viewBox="0 0 {WIDTH:.0f} {HEIGHT:.0f}">',
        f'<rect x="{_fmt(MARGIN_L)}" y="{_fmt(MARGIN_T)}" width="{_fmt(plot_w)}" '
        f'height="{_fmt(plot_h)}" fill="white" stroke="black" stroke-width="1"/>',
        f'<text x="{_fmt(WIDTH / 2)}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{_escape(req.title)}</text>',
        f'<text x="{_fmt(WIDTH / 2)}" y="{_fmt(HEIGHT - 12)}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">fill distance</text>',
        f'<text x="16" y="{_fmt(HEIGHT / 2)}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {_fmt(HEIGHT / 2)})">error ({req.norm})</text>',
    ]

    # decade ticks
    for k in range(math.ceil(x_lo), math.floor(x_hi) + 1):
        x = sx(k)
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{_fmt(MARGIN_T + plot_h)}" x2="{_fmt(x)}" '
            f'y2="{_fmt(MARGIN_T + plot_h + 5)}" stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(MARGIN_T + plot_h + 18)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_decade_label(k)}</text>'
        )
    for k in range(math.ceil(y_lo), math.floor(y_hi) + 1):
        y = sy(k)
        parts.append(
            f'<line x1="{_fmt(MARGIN_L - 5)}" y1="{_fmt(y)}" x2="{_fmt(MARGIN_L)}" '
            f'y2="{_fmt(y)}" stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(MARGIN_L - 8)}" y="{_fmt(y + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_decade_label(k)}</text>'
        )

    # reference slope guides, anchored at the coarsest record
    anchor_x, anchor_y = lx[-1], ly[-1]
    for slope in req.reference_slopes:
        y_at_lo = anchor_y + slope * (x_lo - anchor_x)
        y_at_hi = anchor_y + slope * (x_hi - anchor_x)
        parts.append(
            f'<line x1="{_fmt(sx(x_lo))}" y1="{_fmt(sy(y_at_lo))}" '
            f'x2="{_fmt(sx(x_hi))}" y2="{_fmt(sy(y_at_hi))}" '
            f'stroke="gray" stroke-width="1" stroke-dasharray="6 4"/>'
        )

    # fitted line over the data range
    log_e = math.log(10.0)
    fit_lo = (fit.slope * (x_lo * log_e) + fit.intercept) / log_e
    fit_hi = (fit.slope * (x_hi * log_e) + fit.intercept) / log_e
    parts.append(
        f'<line x1="{_fmt(sx(x_lo))}" y1="{_fmt(sy(fit_lo))}" '
        f'x2="{_fmt(sx(x_hi))}" y2="{_fmt(sy(fit_hi))}" '
        f'stroke="crimson" stroke-width="1.5"/>'
    )

    # data markers
    for xi, yi in zip(lx, ly):
        parts.append(
            f'<circle cx="{_fmt(sx(xi))}" cy="{_fmt(sy(yi))}" r="4" '
            f'fill="none" stroke="navy" stroke-width="1.5"/>'
        )

    legend = f"fitted slope {fit.slope:.2f} (r&#178;={fit.r_squared:.3f})"
    if req.reference_slopes:
        refs = ", ".join(f"{s:g}" for s in req.reference_slopes)
        legend += f"; reference {refs}"
    parts.append(
        f'<text x="{_fmt(MARGIN_L + 10)}" y="{_fmt(MARGIN_T + 20)}" '
        f'font-family="sans-serif" font-size="12">{legend}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
