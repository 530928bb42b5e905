"""SVG rendering of a backend layout and its placements.

Pure string assembly, no drawing dependency. The picture shows the
chiplet grid with every cell, defective cells crossed out, inter-chiplet
links as connecting lines (titled with their error rate and, given a
routing run's counts, their usage), and placed partitions as labeled
tinted rectangles.
"""

from __future__ import annotations

from typing import Mapping

from .backend import ChipletBackend
from .gmap import Placement

_PALETTE = (
    "#4e79a7", "#f28e2b", "#59a14f", "#e15759", "#b07aa1", "#76b7b2",
    "#edc948", "#ff9da7", "#9c755f", "#bab0ac", "#86bcb6", "#d37295",
)

_CELL = 14      # px per qubit cell
_GUTTER = 28    # px between chiplets
_MARGIN = 20


def _esc(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def render_layout_svg(
    backend: ChipletBackend,
    placements: Mapping[int, Placement] | None = None,
    *,
    title: str | None = None,
    link_usage: Mapping[tuple[int, int], int] | None = None,
) -> str:
    """Draw the device and (optionally) the partition placements.

    ``link_usage`` is a compiled circuit's ``link_usage``; links it does
    not list were selected zero times.
    """
    placements = placements or {}
    link_usage = link_usage or {}
    pitch_x = backend.chip_w * _CELL + _GUTTER
    pitch_y = backend.chip_h * _CELL + _GUTTER
    width = 2 * _MARGIN + backend.grid_cols * pitch_x - _GUTTER
    height = 2 * _MARGIN + backend.grid_rows * pitch_y - _GUTTER
    if title:
        height += 24

    def chip_origin(chip: int) -> tuple[int, int]:
        row, col = backend.grid_pos(chip)
        return _MARGIN + col * pitch_x, _MARGIN + row * pitch_y + (24 if title else 0)

    def cell_rect(chip: int, x: int, y: int) -> tuple[int, int]:
        ox, oy = chip_origin(chip)
        return ox + x * _CELL, oy + y * _CELL

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="monospace">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_MARGIN}" y="{_MARGIN - 4 + 16}" font-size="14">{_esc(title)}</text>'
        )

    # chiplet frames and cell grids
    for chip in range(backend.n_chiplets):
        ox, oy = chip_origin(chip)
        cw, ch = backend.chip_w * _CELL, backend.chip_h * _CELL
        parts.append(
            f'<rect x="{ox}" y="{oy}" width="{cw}" height="{ch}" '
            'fill="#f7f7f7" stroke="#444" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{ox}" y="{oy - 4}" font-size="10" fill="#444">chip {chip}</text>'
        )
        for y in range(backend.chip_h):
            for x in range(backend.chip_w):
                cx, cy = cell_rect(chip, x, y)
                parts.append(
                    f'<rect x="{cx}" y="{cy}" width="{_CELL}" height="{_CELL}" '
                    'fill="none" stroke="#ddd" stroke-width="0.5"/>'
                )

    # placements under the defect marks
    for pid in sorted(placements):
        pl = placements[pid]
        px, py = cell_rect(pl.chip, pl.x, pl.y)
        color = _PALETTE[pid % len(_PALETTE)]
        parts.append(
            f'<rect x="{px}" y="{py}" width="{pl.w * _CELL}" height="{pl.h * _CELL}" '
            f'fill="{color}" fill-opacity="0.55" stroke="{color}" stroke-width="1.5"/>'
        )
        tx = px + pl.w * _CELL // 2
        ty = py + pl.h * _CELL // 2 + 4
        parts.append(
            f'<text x="{tx}" y="{ty}" font-size="11" text-anchor="middle" '
            f'fill="#111">p{pid}</text>'
        )

    # defective cells
    for gid in sorted(backend.defects):
        coord = backend.coord(gid)
        cx, cy = cell_rect(coord.chip, coord.x, coord.y)
        parts.append(
            f'<rect x="{cx}" y="{cy}" width="{_CELL}" height="{_CELL}" fill="#222"/>'
        )
        parts.append(
            f'<line x1="{cx + 2}" y1="{cy + 2}" x2="{cx + _CELL - 2}" y2="{cy + _CELL - 2}" '
            'stroke="#fff" stroke-width="1.5"/>'
        )

    # inter-chiplet links on top
    for link in backend.links:
        ca, cb = backend.coord(link.a), backend.coord(link.b)
        ax, ay = cell_rect(ca.chip, ca.x, ca.y)
        bx, by = cell_rect(cb.chip, cb.x, cb.y)
        x1, y1 = ax + _CELL // 2, ay + _CELL // 2
        x2, y2 = bx + _CELL // 2, by + _CELL // 2
        parts.append(
            f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="#c22" '
            f'stroke-width="2" stroke-opacity="0.8"><title>eps={link.eps:g} '
            f'usage={link_usage.get(link.key, 0)}</title></line>'
        )
        for x, y in ((x1, y1), (x2, y2)):
            parts.append(f'<circle cx="{x}" cy="{y}" r="2.5" fill="#c22"/>')

    parts.append("</svg>")
    return "\n".join(parts)
