"""Deterministic file emission: CSV tables, JSON summaries, SVG charts.

Every float is printed with 17 significant digits so parsing a file back
reproduces the in-memory doubles bit for bit.  Writers emit ``\n`` line
endings and never embed timestamps, keeping repeated runs byte-identical.
The CSV writer and the chart share one formatter, ``_format_lines``: a
column that repeats its values (a thermal table's t and beta, a sweep's
start columns) has each distinct value formatted once, and the bytes are
those of formatting every cell on its own.  CSVs are parsed by numpy's
reader, which converts a cell as Python's ``float()`` does.
"""

import html
import json
import math
from pathlib import Path
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

__all__ = [
    "format_float",
    "write_csv",
    "read_csv",
    "write_json",
    "polyline_chart",
    "write_svg",
]


# Lines (CSV rows or chart points) formatted by one ``%``.
_BLOCK = 1024


def format_float(value: float) -> str:
    """17-significant-digit decimal form that round-trips exactly."""
    return f"{float(value):.17g}"


def _distinct_texts(values: np.ndarray, spec: str):
    """``(keys, texts)`` for a float column that has at most half as many
    distinct values as entries, else None: ``keys`` are the sorted
    distinct bit patterns and ``texts[k]`` is ``spec`` applied to the
    value of ``keys[k]``.

    Keyed by bits, -0.0 and 0.0, and NaNs of different payloads, keep
    texts of their own.
    """
    # np.sort and a mask, not np.unique: several times faster here.
    keys = np.sort(values.view(np.int64))
    first = np.empty(keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    keys = keys[first]
    if 2 * keys.size > values.size:
        return None
    texts = np.array([spec % v for v in keys.view(np.float64).tolist()],
                     dtype=object)
    return keys, texts


def _format_lines(table: np.ndarray, spec: str, sep: str,
                  end: str) -> Iterator[str]:
    """Text of the lines ``sep.join(spec % cell for cell in row) + end``
    of a float table, ``_BLOCK`` rows per yielded string, each block by
    one ``%``.

    A column that repeats its values is formatted once per distinct
    value, and its cells are looked up block by block under ``%s``.
    """
    sources = [_distinct_texts(col, spec) for col in table.T]
    line = sep.join(spec if src is None else "%s" for src in sources) + end
    cells = np.empty((min(table.shape[0], _BLOCK), table.shape[1]),
                     dtype=object)
    for start in range(0, table.shape[0], _BLOCK):
        rows = table[start:start + _BLOCK]
        block = cells[:rows.shape[0]]
        for j, src in enumerate(sources):
            if src is None:
                block[:, j] = rows[:, j]
            else:
                keys, texts = src
                block[:, j] = texts[np.searchsorted(
                    keys, rows[:, j].view(np.int64))]
        yield line * rows.shape[0] % tuple(block.ravel().tolist())


def write_csv(path, header: Sequence[str], rows) -> None:
    """Write a float table, shape (rows, len(header)), under one header
    line.

    Cells have the ``format_float`` spelling (see ``_format_lines``).
    """
    width = len(header)
    table = np.asarray(rows, dtype=float)
    if table.ndim != 2 or table.shape[1] != width:
        raise ValueError(f"table has shape {table.shape}, header has "
                         f"{width} fields")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(_format_lines(table, "%.17g", ",", "\n"))


def read_csv(path) -> Tuple[List[str], np.ndarray]:
    """Read back a table written by write_csv: (header, float matrix).

    Blank lines are skipped.  numpy's reader parses the cells with the
    C conversion behind Python's ``float()``, so every value is bit-exact.
    Unlike ``float()`` it rejects underscores between digits and strips
    the ASCII controls 0x1c-0x1f around a cell.  A file that is not
    ASCII, ragged or unparsable raises a ValueError naming it.
    """
    try:
        text = Path(path).read_text(encoding="ascii")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path} is not ASCII: byte {exc.start} is "
                         f"{exc.object[exc.start]:#x}") from None
    lines = [ln for ln in text.split("\n") if ln]
    if not lines:
        raise ValueError(f"{path} is empty")
    header = lines[0].split(",")
    if len(lines) == 1:
        return header, np.zeros((0, len(header)))
    try:
        # max_rows sizes the matrix once.  Grown as the reader goes, it
        # fragmented the heap and lifted a CLI process's peak RSS by 2 MB.
        data = np.loadtxt(lines[1:], delimiter=",", comments=None, ndmin=2,
                          max_rows=len(lines) - 1)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if data.shape[1] != len(header):
        raise ValueError(f"{path} rows have {data.shape[1]} fields, the "
                         f"header has {len(header)}")
    return header, data


def _json_safe(value):
    """Non-finite floats as the CSV spells them; containers recursively."""
    if isinstance(value, float) and not math.isfinite(value):
        return format_float(value)
    if isinstance(value, dict):
        return {key: _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    return value


def write_json(path, payload: Dict) -> None:
    """Write a JSON document with sorted keys and a trailing newline.

    The document is standard JSON: a non-finite float is written as the
    string "inf", "-inf" or "nan", the spelling ``format_float`` gives
    it in CSV files.
    """
    text = json.dumps(_json_safe(payload), indent=2, sort_keys=True,
                      allow_nan=False)
    Path(path).write_text(text + "\n", encoding="ascii")


# ------------------------------------------------------------------ SVG

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#17becf")
_WIDTH, _HEIGHT = 720.0, 480.0
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 72.0, 24.0, 48.0, 56.0


def _ticks(lo: float, hi: float, n: int = 5) -> List[float]:
    if hi == lo:
        return [lo]
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _finite_span(values: np.ndarray) -> Tuple[float, float]:
    mask = np.isfinite(values)
    if not np.any(mask):
        return 0.0, 1.0
    lo = float(np.min(values[mask]))
    hi = float(np.max(values[mask]))
    if hi == lo:
        # A band around a constant; a zero or subnormal one, which 5%
        # cannot widen, gets a unit band.
        pad = 0.05 * abs(lo)
        if lo - pad == hi + pad:
            pad = 0.5
        return lo - pad, hi + pad
    return lo, hi


def polyline_chart(x: np.ndarray, series: Sequence[Tuple[str, np.ndarray]],
                   title: str, x_label: str, y_label: str) -> str:
    """Minimal polyline chart as an SVG string.

    ``series`` is an ordered sequence of (label, y-array) pairs sharing
    the x-axis.  Non-finite points break the line.  Presentation only:
    nothing downstream reads these files back.  The title and every
    label are escaped as XML text.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("chart needs a 1-D x axis with at least 2 points")
    ys = [(label, np.asarray(y, dtype=float)) for label, y in series]
    if not ys:
        raise ValueError("chart needs at least one series")
    for label, y in ys:
        if y.shape != x.shape:
            raise ValueError(f"series {label!r} does not match the x axis")

    title, x_label, y_label = (html.escape(text, quote=False)
                               for text in (title, x_label, y_label))
    x_lo, x_hi = _finite_span(x)
    y_lo, y_hi = _finite_span(np.concatenate([y for _, y in ys]))
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(v):
        return _MARGIN_L + (v - x_lo) / (x_hi - x_lo) * plot_w

    def py(v):
        return _MARGIN_T + (y_hi - v) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH:g}" '
        f'height="{_HEIGHT:g}" viewBox="0 0 {_WIDTH:g} {_HEIGHT:g}">',
        f'<rect width="{_WIDTH:g}" height="{_HEIGHT:g}" fill="white"/>',
        f'<text x="{_WIDTH / 2:g}" y="24" font-family="sans-serif" '
        f'font-size="16" text-anchor="middle">{title}</text>',
    ]
    axis_y = _MARGIN_T + plot_h
    parts.append(f'<line x1="{_MARGIN_L:g}" y1="{axis_y:g}" '
                 f'x2="{_MARGIN_L + plot_w:g}" y2="{axis_y:g}" '
                 'stroke="black"/>')
    parts.append(f'<line x1="{_MARGIN_L:g}" y1="{_MARGIN_T:g}" '
                 f'x2="{_MARGIN_L:g}" y2="{axis_y:g}" stroke="black"/>')
    for tick in _ticks(x_lo, x_hi):
        tx = px(tick)
        parts.append(f'<line x1="{tx:.2f}" y1="{axis_y:g}" x2="{tx:.2f}" '
                     f'y2="{axis_y + 5:g}" stroke="black"/>')
        parts.append(f'<text x="{tx:.2f}" y="{axis_y + 20:g}" '
                     'font-family="sans-serif" font-size="11" '
                     f'text-anchor="middle">{tick:.5g}</text>')
    for tick in _ticks(y_lo, y_hi):
        ty = py(tick)
        parts.append(f'<line x1="{_MARGIN_L - 5:g}" y1="{ty:.2f}" '
                     f'x2="{_MARGIN_L:g}" y2="{ty:.2f}" stroke="black"/>')
        parts.append(f'<text x="{_MARGIN_L - 8:g}" y="{ty + 4:.2f}" '
                     'font-family="sans-serif" font-size="11" '
                     f'text-anchor="end">{tick:.5g}</text>')
    parts.append(f'<text x="{_MARGIN_L + plot_w / 2:g}" '
                 f'y="{_HEIGHT - 12:g}" font-family="sans-serif" '
                 f'font-size="13" text-anchor="middle">{x_label}</text>')
    parts.append(f'<text x="18" y="{_MARGIN_T + plot_h / 2:g}" '
                 'font-family="sans-serif" font-size="13" '
                 'text-anchor="middle" transform="rotate(-90 18 '
                 f'{_MARGIN_T + plot_h / 2:g})">{y_label}</text>')

    for idx, (label, y) in enumerate(ys):
        color = _PALETTE[idx % len(_PALETTE)]
        ok = np.isfinite(x) & np.isfinite(y)
        runs = np.flatnonzero(np.diff(ok, prepend=False, append=False))
        for start, stop in runs.reshape(-1, 2).tolist():
            xy = np.column_stack((px(x[start:stop]), py(y[start:stop])))
            points = "".join(_format_lines(xy, "%.2f", ",", " "))[:-1]
            parts.append(f'<polyline points="{points}" fill="none" '
                         f'stroke="{color}" stroke-width="1.5"/>')
        ly = _MARGIN_T + 16.0 * idx + 4.0
        lx = _MARGIN_L + plot_w - 150.0
        parts.append(f'<line x1="{lx:g}" y1="{ly:g}" x2="{lx + 22:g}" '
                     f'y2="{ly:g}" stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{lx + 28:g}" y="{ly + 4:g}" '
                     'font-family="sans-serif" font-size="12" '
                     f'text-anchor="start">{html.escape(label, quote=False)}'
                     '</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_svg(path, svg: str) -> None:
    """Write a chart as ASCII, text that ASCII cannot hold as XML
    character references (an ASCII chart keeps its bytes).  A write that
    fails removes the file it opened."""
    data = svg.encode("ascii", "xmlcharrefreplace")
    fh = open(path, "wb")
    try:
        with fh:
            fh.write(data)
    except BaseException:
        Path(path).unlink(missing_ok=True)
        raise
