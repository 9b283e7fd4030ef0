"""CSV and self-contained SVG emission for experiment output.

Outputs are deterministic for a fixed (config, seed): no timestamps, sorted
keys, fixed float formatting.  Files are written atomically (temp + rename).
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os

from .errors import InvalidInputError


def write_text_atomic(path: str, payload: str) -> None:
    """Write through a temp file and a rename; a failure is an input error."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", newline="") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):   # none was made, or it is gone
            os.remove(tmp)
        raise InvalidInputError(
            f"cannot write {path}: {exc.strerror or exc}") from exc


def write_csv(path: str, header: list[str], rows: list[list],
              config: dict | None = None) -> None:
    """CSV with an optional '# key=value' config header line."""
    import io
    buf = io.StringIO()
    if config:
        items = " ".join(f"{k}={v}" for k, v in sorted(config.items()))
        buf.write(f"# {items}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    write_text_atomic(path, buf.getvalue())


def write_json(path: str, obj) -> None:
    write_text_atomic(path, json.dumps(obj, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# SVG plotting (no external renderer)

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_WIDTH, _HEIGHT = 640, 480


def svg_plot(path: str, series: list[tuple[str, list[tuple[float, float]]]],
             title: str = "", xlabel: str = "", ylabel: str = "",
             loglog: bool = True) -> None:
    """Minimal scatter/line plot; log-log axes by default for growth curves."""

    def tx(v: float) -> float:
        return math.log10(v) if loglog else v

    pts = [(x, y) for _, data in series for x, y in data if
           (not loglog) or (x > 0 and y > 0)]
    if not pts:
        write_text_atomic(path, _svg_empty(title))
        return
    xs = [tx(x) for x, _ in pts]
    ys = [tx(y) for _, y in pts]
    xlo, xhi = min(xs), max(xs)
    ylo, yhi = min(ys), max(ys)
    if xhi == xlo:
        xhi = xlo + 1
    if yhi == ylo:
        yhi = ylo + 1
    pad = 60
    pw, ph = _WIDTH - 2 * pad, _HEIGHT - 2 * pad

    def px(x: float) -> float:
        return pad + (tx(x) - xlo) / (xhi - xlo) * pw

    def py(y: float) -> float:
        return _HEIGHT - pad - (tx(y) - ylo) / (yhi - ylo) * ph

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
           f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
           f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
           f'<rect x="{pad}" y="{pad}" width="{pw}" height="{ph}" '
           f'fill="none" stroke="#444"/>']
    if title:
        out.append(f'<text x="{_WIDTH / 2:.1f}" y="24" text-anchor="middle" '
                   f'font-size="15">{title}</text>')
    if xlabel:
        out.append(f'<text x="{_WIDTH / 2:.1f}" y="{_HEIGHT - 12}" '
                   f'text-anchor="middle" font-size="12">{xlabel}</text>')
    if ylabel:
        out.append(f'<text x="16" y="{_HEIGHT / 2:.1f}" font-size="12" '
                   f'transform="rotate(-90 16 {_HEIGHT / 2:.1f})" '
                   f'text-anchor="middle">{ylabel}</text>')
    for gi in range(5):
        gx = pad + pw * gi / 4
        gy = pad + ph * gi / 4
        vx = xlo + (xhi - xlo) * gi / 4
        vy = yhi - (yhi - ylo) * gi / 4
        lx = f"1e{vx:.1f}" if loglog else f"{vx:.3g}"
        ly = f"1e{vy:.1f}" if loglog else f"{vy:.3g}"
        out.append(f'<line x1="{gx:.1f}" y1="{pad}" x2="{gx:.1f}" '
                   f'y2="{_HEIGHT - pad}" stroke="#ddd"/>')
        out.append(f'<line x1="{pad}" y1="{gy:.1f}" x2="{_WIDTH - pad}" '
                   f'y2="{gy:.1f}" stroke="#ddd"/>')
        out.append(f'<text x="{gx:.1f}" y="{_HEIGHT - pad + 16}" '
                   f'font-size="10" text-anchor="middle">{lx}</text>')
        out.append(f'<text x="{pad - 6}" y="{gy + 4:.1f}" font-size="10" '
                   f'text-anchor="end">{ly}</text>')
    for si, (label, data) in enumerate(series):
        color = _COLORS[si % len(_COLORS)]
        clean = [(x, y) for x, y in data
                 if (not loglog) or (x > 0 and y > 0)]
        if not clean:
            continue
        path_d = " ".join(f"{'M' if i == 0 else 'L'}{px(x):.2f},{py(y):.2f}"
                          for i, (x, y) in enumerate(sorted(clean)))
        out.append(f'<path d="{path_d}" fill="none" stroke="{color}" '
                   f'stroke-width="1.5"/>')
        for x, y in clean:
            out.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="2.5" '
                       f'fill="{color}"/>')
        out.append(f'<text x="{_WIDTH - pad - 6}" '
                   f'y="{pad + 16 + 14 * si}" font-size="11" fill="{color}" '
                   f'text-anchor="end">{label}</text>')
    out.append("</svg>")
    write_text_atomic(path, "\n".join(out) + "\n")


def _svg_empty(title: str) -> str:
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
            f'height="{_HEIGHT}"><rect width="{_WIDTH}" height="{_HEIGHT}" '
            f'fill="white"/><text x="{_WIDTH / 2}" y="{_HEIGHT / 2}" '
            f'text-anchor="middle">{title or "no data"}</text></svg>\n')
