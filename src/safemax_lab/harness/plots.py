"""Hand-written SVG scatter plots with byte-deterministic output."""

from __future__ import annotations

import numpy as np

from ..errors import DimensionError
from ..gradcore import as_array
from .checkpoints import write_atomic

AXIS_MIN, AXIS_MAX = -8.0, 8.0
CANVAS = 480
MARGIN = 48
PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728",
           "#9467bd", "#8c564b", "#e377c2", "#7f7f7f")


def _to_px(v: float) -> float:
    return MARGIN + (v - AXIS_MIN) / (AXIS_MAX - AXIS_MIN) * CANVAS


def render_scatter(samples_by_class, path, title: str = "") -> None:
    """Write one SVG scatter: one color per class, fixed [-8, 8]^2 axes, legend.

    ``samples_by_class`` maps class id to an (n, 2) array. Points outside
    the axis box are dropped. Output bytes are a pure function of the inputs.
    """
    groups = sorted(samples_by_class.items())
    size = CANVAS + 2 * MARGIN
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="#ffffff"/>',
    ]
    if title:
        parts.append(f'<text x="{size / 2:.1f}" y="{MARGIN - 16}" font-family="sans-serif" '
                     f'font-size="14" text-anchor="middle">{title}</text>')
    for v in (-8, -4, 0, 4, 8):
        px = _to_px(v)
        parts.append(f'<line x1="{px:.2f}" y1="{MARGIN}" x2="{px:.2f}" '
                     f'y2="{MARGIN + CANVAS}" stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<line x1="{MARGIN}" y1="{px:.2f}" x2="{MARGIN + CANVAS}" '
                     f'y2="{px:.2f}" stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<text x="{px:.2f}" y="{MARGIN + CANVAS + 18}" font-family="sans-serif" '
                     f'font-size="11" text-anchor="middle">{v}</text>')
        parts.append(f'<text x="{MARGIN - 8}" y="{_to_px(-v) + 4:.2f}" font-family="sans-serif" '
                     f'font-size="11" text-anchor="end">{v}</text>')
    parts.append(f'<rect x="{MARGIN}" y="{MARGIN}" width="{CANVAS}" height="{CANVAS}" '
                 f'fill="none" stroke="#000000" stroke-width="1"/>')
    for label, samples in groups:
        samples = as_array(samples)
        if samples.ndim != 2 or samples.shape[1] != 2:
            raise DimensionError(f"scatter needs (n, 2) samples, got {samples.shape}")
        color = PALETTE[int(label) % len(PALETTE)]
        for x, y in samples:
            if not (AXIS_MIN <= x <= AXIS_MAX and AXIS_MIN <= y <= AXIS_MAX):
                continue
            parts.append(f'<circle cx="{_to_px(x):.2f}" cy="{_to_px(-y):.2f}" r="2" '
                         f'fill="{color}" fill-opacity="0.6"/>')
    for i, (label, _) in enumerate(groups):
        color = PALETTE[int(label) % len(PALETTE)]
        ly = MARGIN + 14 + 18 * i
        lx = MARGIN + CANVAS - 96
        parts.append(f'<rect x="{lx}" y="{ly - 9}" width="10" height="10" fill="{color}" '
                     f'class="legend"/>')
        parts.append(f'<text x="{lx + 16}" y="{ly}" font-family="sans-serif" '
                     f'font-size="12">class {label}</text>')
    parts.append("</svg>")
    write_atomic(path, "\n".join(parts) + "\n")
