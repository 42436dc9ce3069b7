"""Deterministic text renderings of patches, point sets, rules and scans.

Every artifact embeds the tool version and a compact echo of the
resolved configuration, so outputs are reproducible and self-describing.
CSV and SVG carry the echo in comment lines, JSON in an envelope
{version, config, report}.  Nothing here reads the clock or any global
state: identical inputs give byte-identical output.
"""
from __future__ import annotations

import csv
import io
import json
import math
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from ._version import __version__
from .errors import ParameterError

if TYPE_CHECKING:  # annotations only: a renderer loads no producer
    from .cover import LoopRule
    from .discrepancy import DiscrepancySeries
    from .geometry import Patch, PointSet
    from .spectral import SurveyRow

__all__ = [
    "json_envelope",
    "patch_to_csv",
    "points_to_csv",
    "survey_to_csv",
    "series_to_csv",
    "patch_to_svg",
    "series_to_svg",
    "rule_to_dot",
]


def _config_echo(config: Mapping[str, Any]) -> str:
    return json.dumps(dict(config), sort_keys=True, separators=(",", ":"))


def _comment_header(config: Mapping[str, Any]) -> list[str]:
    return [
        f"# kakutani {__version__}",
        f"# config {_config_echo(config)}",
    ]


def json_envelope(report: Mapping[str, Any], config: Mapping[str, Any]) -> str:
    """Wrap a report object with the version and config echo."""
    payload = {
        "version": __version__,
        "config": dict(config),
        "report": dict(report),
    }
    return json.dumps(payload, indent=2) + "\n"


def _csv_text(
    header: Sequence[str],
    rows: Sequence[Sequence[Any]],
    config: Mapping[str, Any],
) -> str:
    buffer = io.StringIO()
    for line in _comment_header(config):
        buffer.write(line + "\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buffer.getvalue()


def _num(value: float) -> str:
    # repr gives the shortest round-tripping decimal, stable across runs
    return repr(float(value))


def patch_to_csv(patch: Patch, config: Mapping[str, Any]) -> str:
    rows = [
        (_num(position), _num(length), label or "")
        for position, length, label in zip(
            patch.positions(), patch.lengths(), patch.labels()
        )
    ]
    return _csv_text(("position", "length", "label"), rows, config)


def points_to_csv(points: PointSet, config: Mapping[str, Any]) -> str:
    return _csv_text(("position",), [(_num(x),) for x in points.points], config)


def survey_to_csv(rows: Sequence[SurveyRow], config: Mapping[str, Any]) -> str:
    table = [
        (
            row.n,
            row.m,
            _num(row.alpha),
            _num(row.lambda1),
            _num(row.lambda2_modulus),
            row.solomon.value,
            str(row.theorem).lower(),
        )
        for row in rows
    ]
    header = ("n", "m", "alpha", "lambda1", "lambda2_modulus", "solomon", "theorem")
    return _csv_text(header, table, config)


def series_to_csv(series: DiscrepancySeries, config: Mapping[str, Any]) -> str:
    rows = [
        (_num(w), _num(d)) for w, d in zip(series.windows, series.max_disc)
    ]
    return _csv_text(("window", "max_disc"), rows, config)


_SVG_HEAD = (
    '<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
    'viewBox="0 0 {w} {h}">'
)


def _svg_comment(config: Mapping[str, Any]) -> str:
    echo = _config_echo(config).replace("--", "- -")
    return f"<!-- kakutani {__version__} config {echo} -->"


def patch_to_svg(patch: Patch, config: Mapping[str, Any]) -> str:
    """One rectangle per tile, uniform height, x axis to scale."""
    lo, hi = patch.support
    span = hi - lo
    if span <= 0:
        raise ParameterError("patch support must have positive length")
    width, bar_height, margin = 900, 40, 10
    scale = (width - 2 * margin) / span
    height = bar_height + 2 * margin
    parts = [
        _SVG_HEAD.format(w=width, h=height),
        _svg_comment(config),
    ]
    for position, length in zip(patch.positions(), patch.lengths()):
        x = margin + (position - lo) * scale
        w = length * scale
        parts.append(
            f'<rect x="{x:.3f}" y="{margin}" width="{w:.3f}" '
            f'height="{bar_height}" fill="#dce6f2" stroke="#203050" '
            'stroke-width="0.8"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def series_to_svg(series: DiscrepancySeries, config: Mapping[str, Any]) -> str:
    """Log-log polyline of max deviation against window size."""
    width, height, margin = 640, 420, 40
    xs = [math.log(w) for w in series.windows]
    ys = [math.log(max(d, 1e-12)) for d in series.max_disc]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    xspan = (x1 - x0) or 1.0
    yspan = (y1 - y0) or 1.0

    def place(x: float, y: float) -> tuple[float, float]:
        px = margin + (x - x0) / xspan * (width - 2 * margin)
        py = height - margin - (y - y0) / yspan * (height - 2 * margin)
        return px, py

    points = [place(x, y) for x, y in zip(xs, ys)]
    path = " ".join(f"{px:.2f},{py:.2f}" for px, py in points)
    parts = [
        _SVG_HEAD.format(w=width, h=height),
        _svg_comment(config),
        f'<rect x="{margin}" y="{margin}" width="{width - 2 * margin}" '
        f'height="{height - 2 * margin}" fill="none" stroke="#888"/>',
        f'<polyline points="{path}" fill="none" stroke="#b03030" '
        'stroke-width="1.5"/>',
    ]
    for px, py in points:
        parts.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="2.5" fill="#203050"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def rule_to_dot(rule: LoopRule) -> str:
    """Subdivided-loop graph in DOT form, one node per prototile.

    Edges follow the substitution images, which coincide with the graph
    edges: the hub fans out into each loop and chain vertices pass
    through to their successors.
    """
    lines = ["digraph kakutani {", "  rankdir=LR;"]
    for label, exponent in enumerate(rule.length_exponents, start=1):
        shape = "doublecircle" if label == 1 else "circle"
        lines.append(
            f'  v{label} [shape={shape}, label="{label}\\nxi^{-exponent}"];'
        )
    for label, image in enumerate(rule.image_map, start=1):
        for child in image:
            lines.append(f"  v{label} -> v{child};")
    lines.append("}")
    return "\n".join(lines) + "\n"
