"""Run reports and their CSV / SVG / text emission.

Emission is deterministic: identical reports produce byte-identical
files.  The SVG writer is self-contained; plots are log2-log2 ratio
charts with a fitted-slope annotation when one is supplied.
"""

import os
from dataclasses import dataclass, field

from .errors import ParameterError
from .grid import open_path


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str


@dataclass
class RunReport:
    experiment: str
    config_hash: str
    seeds: tuple
    version: str
    rows: list = field(default_factory=list)   # (level, seed, quantity, value)
    stats: dict = field(default_factory=dict)
    criteria: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.criteria)

    def add_row(self, level, seed, quantity, value) -> None:
        self.rows.append((int(level), int(seed), str(quantity), float(value)))

    def add_criterion(self, name: str, passed: bool, detail: str) -> None:
        self.criteria.append(CriterionResult(name, bool(passed), detail))


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _csv_text(report: RunReport) -> str:
    lines = ["level,seed,quantity,value"]
    for level, seed, quantity, value in report.rows:
        lines.append(f"{level},{seed},{quantity},{_fmt(value)}")
    return "\n".join(lines) + "\n"


def _text_summary(report: RunReport) -> str:
    lines = [f"experiment: {report.experiment}",
             f"config: {report.config_hash}  seeds: {list(report.seeds)}  "
             f"version: {report.version}"]
    for key in sorted(report.stats):
        lines.append(f"  {key} = {_fmt(report.stats[key])}")
    for note in report.notes:
        lines.append(f"  note: {note}")
    for c in report.criteria:
        lines.append(f"{'PASS' if c.passed else 'FAIL'}  {c.name}: {c.detail}")
    lines.append(f"overall: {'PASS' if report.passed else 'FAIL'}")
    return "\n".join(lines) + "\n"


_COLORS = ("#1f6fb4", "#c23b22", "#2e8540", "#8253a8", "#b58900", "#366f6f")


def _svg_plot(series: dict, title: str, xlabel: str, ylabel: str,
              annotation: str) -> str:
    """series: label -> list of (x, y) pairs, plotted on linear axes."""
    width, height = 640, 480
    ml, mr, mt, mb = 70, 20, 40, 50
    pts = [p for pairs in series.values() for p in pairs]
    if not pts:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    else:
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y1 == y0:
        y0, y1 = y0 - 0.5, y1 + 0.5
    sx = (width - ml - mr) / (x1 - x0)
    sy = (height - mt - mb) / (y1 - y0)

    def px(x):
        return ml + (x - x0) * sx

    def py(y):
        return height - mb - (y - y0) * sy

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
           f'height="{height}" viewBox="0 0 {width} {height}">',
           f'<rect width="{width}" height="{height}" fill="white"/>',
           f'<text x="{width // 2}" y="24" text-anchor="middle" '
           f'font-size="15">{title}</text>']
    out.append(f'<line x1="{ml}" y1="{height - mb}" x2="{width - mr}" '
               f'y2="{height - mb}" stroke="black"/>')
    out.append(f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}" '
               f'stroke="black"/>')
    for frac in (0.0, 0.5, 1.0):
        xv = x0 + frac * (x1 - x0)
        yv = y0 + frac * (y1 - y0)
        out.append(f'<text x="{px(xv):.1f}" y="{height - mb + 18}" '
                   f'text-anchor="middle" font-size="11">{xv:.4g}</text>')
        out.append(f'<text x="{ml - 8}" y="{py(yv):.1f}" text-anchor="end" '
                   f'font-size="11">{yv:.4g}</text>')
    out.append(f'<text x="{width // 2}" y="{height - 12}" text-anchor="middle" '
               f'font-size="12">{xlabel}</text>')
    out.append(f'<text x="16" y="{height // 2}" font-size="12" '
               f'transform="rotate(-90 16 {height // 2})" '
               f'text-anchor="middle">{ylabel}</text>')
    for i, (label, pairs) in enumerate(sorted(series.items())):
        color = _COLORS[i % len(_COLORS)]
        path = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in sorted(pairs))
        out.append(f'<polyline points="{path}" fill="none" stroke="{color}" '
                   f'stroke-width="1.5"/>')
        for x, y in pairs:
            out.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="2.5" '
                       f'fill="{color}"/>')
        out.append(f'<text x="{width - mr - 6}" y="{mt + 16 + 14 * i}" '
                   f'text-anchor="end" font-size="11" '
                   f'fill="{color}">{label}</text>')
    if annotation:
        out.append(f'<text x="{ml + 8}" y="{mt + 16}" font-size="12">'
                   f'{annotation}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def make_output_dir(output_dir: str) -> None:
    """Create output_dir if missing; ParameterError if it cannot be."""
    try:
        os.makedirs(output_dir, exist_ok=True)
    except OSError as exc:
        raise ParameterError(f"cannot create output directory {output_dir}: "
                             f"{exc.strerror or exc}") from exc


def emit_report(report: RunReport, fmt: str, output_dir: str) -> list:
    """Write report files; returns the written paths."""
    if fmt not in ("csv", "svg", "text"):
        raise ParameterError(f"unknown report format {fmt!r}")
    make_output_dir(output_dir)
    base = os.path.join(output_dir, f"{report.experiment}")
    if fmt == "csv":
        path = base + ".csv"
        with open_path(path, "w", newline="") as fh:
            fh.write(_csv_text(report))
    elif fmt == "text":
        path = base + ".txt"
        with open_path(path, "w") as fh:
            fh.write(_text_summary(report))
    else:
        path = base + ".svg"
        series: dict = {}
        for level, seed, quantity, value in report.rows:
            if not quantity.startswith("ratio"):
                continue
            series.setdefault(quantity, []).append((float(level), value))
        slope = report.stats.get("fit_slope")
        note = f"fitted slope {slope:.4g}" if slope is not None else ""
        with open_path(path, "w") as fh:
            fh.write(_svg_plot(series, report.experiment, "level (log2 N)",
                               "ratio", note))
    return [path]
