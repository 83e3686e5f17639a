"""The output layer pinned against per-value references.

``write_csv`` must give the bytes of one ``format_float`` call per cell,
``read_csv`` must give back every written double bit for bit, and
``polyline_chart`` must place every point as a per-point loop does.  The
references below are that per-value code, kept here as the reference.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from ermakov import output

_MAX = sys.float_info.max
_SPECIAL = (math.inf, -math.inf, math.nan, 0.0, -0.0, 5e-324, -5e-324,
            2.2250738585072014e-308, 1e-310, _MAX, -_MAX, 1.0 / 3.0)
_CELLS = st.one_of(st.floats(allow_nan=True, allow_infinity=True,
                             allow_subnormal=True),
                   st.sampled_from(_SPECIAL))
_TABLES = st.integers(1, 6).flatmap(lambda width: hnp.arrays(
    np.float64, st.tuples(st.integers(1, 40), st.just(width)),
    elements=_CELLS))


def _reference_csv(header, rows) -> str:
    """One ``format_float`` call per cell, one line per row."""
    lines = [",".join(header)]
    lines += [",".join(output.format_float(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _header(width):
    return [f"c{i}" for i in range(width)]


def _same_cells(a: np.ndarray, b: np.ndarray) -> bool:
    """Bitwise equality, NaNs compared by position only."""
    nan = np.isnan(a)
    if a.shape != b.shape or not np.array_equal(nan, np.isnan(b)):
        return False
    return np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64))


@settings(max_examples=150, deadline=None)
@given(table=_TABLES)
def test_csv_round_trip_is_bitwise(tmp_path_factory, table):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    header = _header(table.shape[1])
    output.write_csv(path, header, table)
    got_header, data = output.read_csv(path)
    assert got_header == header
    assert _same_cells(table, data)


@settings(max_examples=150, deadline=None)
@given(table=_TABLES)
def test_write_csv_bytes_match_per_cell_formatting(tmp_path_factory, table):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    header = _header(table.shape[1])
    output.write_csv(path, header, table)
    assert path.read_bytes() == _reference_csv(header, table).encode()


@pytest.mark.parametrize("rows", [0, 1, 1023, 1024, 1025, 2500])
def test_write_csv_bytes_across_block_sizes(tmp_path, rows):
    rng = np.random.default_rng(rows)
    table = rng.standard_normal((rows, 4)) * 10.0 ** rng.integers(
        -300, 300, (rows, 4))
    path = tmp_path / "t.csv"
    output.write_csv(path, ("t", "sigma", "sigma_dot", "energy"), table)
    assert path.read_bytes() == _reference_csv(
        ("t", "sigma", "sigma_dot", "energy"), table).encode()
    _, data = output.read_csv(path)
    assert data.shape[0] == rows
    if rows:
        assert _same_cells(table, data)


def test_zero_row_table_writes_the_header_alone(tmp_path):
    path = tmp_path / "empty.csv"
    output.write_csv(path, ("a", "b"), np.zeros((0, 2)))
    assert path.read_bytes() == b"a,b\n"
    header, data = output.read_csv(path)
    assert header == ["a", "b"] and data.shape[0] == 0


def test_write_csv_rejects_a_table_wider_than_its_header(tmp_path):
    with pytest.raises(ValueError, match="header has 2"):
        output.write_csv(tmp_path / "w.csv", ("a", "b"), np.zeros((3, 3)))


@pytest.mark.parametrize("body", ["1,2,3\n4,5,6\n", "1,2\n3\n",
                                  "1,2\n3,4,5\n"],
                         ids=["wider", "short-row", "long-row"])
def test_read_csv_rejects_ragged_rows_naming_the_file(tmp_path, body):
    path = tmp_path / "ragged.csv"
    path.write_text("a,b\n" + body, encoding="ascii")
    with pytest.raises(ValueError, match="ragged.csv"):
        output.read_csv(path)


# ---------------------------------------------------------------- charts

def _reference_chart(x, series, title, x_label, y_label) -> str:
    """``polyline_chart`` placing each point by scalar calls, one by one."""
    x = np.asarray(x, dtype=float)
    ys = [(label, np.asarray(y, dtype=float)) for label, y in series]
    x_lo, x_hi = output._finite_span(x)
    y_lo, y_hi = output._finite_span(np.concatenate([y for _, y in ys]))
    plot_w = output._WIDTH - output._MARGIN_L - output._MARGIN_R
    plot_h = output._HEIGHT - output._MARGIN_T - output._MARGIN_B

    def px(v):
        return output._MARGIN_L + (v - x_lo) / (x_hi - x_lo) * plot_w

    def py(v):
        return output._MARGIN_T + (y_hi - v) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{output._WIDTH:g}" '
        f'height="{output._HEIGHT:g}" '
        f'viewBox="0 0 {output._WIDTH:g} {output._HEIGHT:g}">',
        f'<rect width="{output._WIDTH:g}" height="{output._HEIGHT:g}" '
        'fill="white"/>',
        f'<text x="{output._WIDTH / 2:g}" y="24" font-family="sans-serif" '
        f'font-size="16" text-anchor="middle">{title}</text>',
    ]
    left, top = output._MARGIN_L, output._MARGIN_T
    axis_y = top + plot_h
    parts.append(f'<line x1="{left:g}" y1="{axis_y:g}" '
                 f'x2="{left + plot_w:g}" y2="{axis_y:g}" stroke="black"/>')
    parts.append(f'<line x1="{left:g}" y1="{top:g}" '
                 f'x2="{left:g}" y2="{axis_y:g}" stroke="black"/>')
    for tick in output._ticks(x_lo, x_hi):
        tx = px(tick)
        parts.append(f'<line x1="{tx:.2f}" y1="{axis_y:g}" x2="{tx:.2f}" '
                     f'y2="{axis_y + 5:g}" stroke="black"/>')
        parts.append(f'<text x="{tx:.2f}" y="{axis_y + 20:g}" '
                     'font-family="sans-serif" font-size="11" '
                     f'text-anchor="middle">{tick:.5g}</text>')
    for tick in output._ticks(y_lo, y_hi):
        ty = py(tick)
        parts.append(f'<line x1="{left - 5:g}" y1="{ty:.2f}" '
                     f'x2="{left:g}" y2="{ty:.2f}" stroke="black"/>')
        parts.append(f'<text x="{left - 8:g}" y="{ty + 4:.2f}" '
                     'font-family="sans-serif" font-size="11" '
                     f'text-anchor="end">{tick:.5g}</text>')
    parts.append(f'<text x="{left + plot_w / 2:g}" '
                 f'y="{output._HEIGHT - 12:g}" font-family="sans-serif" '
                 f'font-size="13" text-anchor="middle">{x_label}</text>')
    parts.append(f'<text x="18" y="{top + plot_h / 2:g}" '
                 'font-family="sans-serif" font-size="13" '
                 'text-anchor="middle" transform="rotate(-90 18 '
                 f'{top + plot_h / 2:g})">{y_label}</text>')
    for idx, (label, y) in enumerate(ys):
        color = output._PALETTE[idx % len(output._PALETTE)]
        coords = []
        for xv, yv in zip(x, y):
            if math.isfinite(xv) and math.isfinite(yv):
                coords.append(f"{px(xv):.2f},{py(yv):.2f}")
            elif coords:
                parts.append(f'<polyline points="{" ".join(coords)}" '
                             f'fill="none" stroke="{color}" '
                             'stroke-width="1.5"/>')
                coords = []
        if coords:
            parts.append(f'<polyline points="{" ".join(coords)}" '
                         f'fill="none" stroke="{color}" '
                         'stroke-width="1.5"/>')
        ly = output._MARGIN_T + 16.0 * idx + 4.0
        lx = output._MARGIN_L + plot_w - 150.0
        parts.append(f'<line x1="{lx:g}" y1="{ly:g}" x2="{lx + 22:g}" '
                     f'y2="{ly:g}" stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{lx + 28:g}" y="{ly + 4:g}" '
                     'font-family="sans-serif" font-size="12" '
                     f'text-anchor="start">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


_CHARTS = {
    "smooth": (np.linspace(0.0, 3.0, 301),
               [("a", np.sin(np.linspace(0.0, 3.0, 301))),
                ("b", np.cos(np.linspace(0.0, 3.0, 301)))]),
    "breaks": (np.arange(12.0),
               [("nan", np.array([1, 2, np.nan, 4, 5, 6, np.inf, 8, 9,
                                  -np.inf, np.nan, 12.0])),
                ("edges", np.array([np.nan, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                    11, np.inf]))]),
    "x-breaks": (np.array([0.0, 1, np.nan, 3, 4, np.inf, 6, 7]),
                 [("y", np.arange(8.0))]),
    "all-non-finite": (np.arange(6.0),
                       [("none", np.array([np.nan, np.inf, -np.inf,
                                           np.nan, np.nan, np.inf])),
                        ("some", np.arange(6.0) ** 2)]),
    "only-non-finite": (np.arange(4.0),
                        [("none", np.full(4, np.nan))]),
    "constant": (np.linspace(-1.0, 1.0, 50), [("c", np.full(50, 2.5))]),
    "zero": (np.linspace(-1.0, 1.0, 5), [("z", np.zeros(5))]),
    "singletons": (np.arange(7.0),
                   [("s", np.array([1.0, np.nan, 3, np.nan, 5, np.nan,
                                    7]))]),
    "many-series": (np.linspace(0.0, 1.0, 40),
                    [(f"s{k}", np.linspace(0.0, 1.0, 40) ** k)
                     for k in range(9)]),
}


@pytest.mark.parametrize("name", list(_CHARTS))
def test_polyline_chart_matches_the_per_point_loop(name):
    x, series = _CHARTS[name]
    got = output.polyline_chart(x, series, name, "t", "value")
    assert got == _reference_chart(x, series, name, "t", "value")


@settings(max_examples=60, deadline=None)
@given(data=st.integers(2, 60).flatmap(lambda n: st.tuples(
    hnp.arrays(np.float64, n, elements=st.one_of(
        st.floats(-1e6, 1e6), st.sampled_from([math.nan, math.inf]))),
    hnp.arrays(np.float64, n, elements=st.one_of(
        st.floats(-1e6, 1e6), st.sampled_from([math.nan, -math.inf]))))))
def test_polyline_chart_matches_the_loop_on_drawn_series(data):
    x, y = data
    got = output.polyline_chart(x, [("y", y)], "drawn", "t", "y")
    assert got == _reference_chart(x, [("y", y)], "drawn", "t", "y")
