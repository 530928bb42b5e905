"""Chiplet hardware model.

A backend is a rectangular grid of identical chiplets. Each chiplet is a
chip_w x chip_h qubit grid with 4-neighbor coupling; sparse inter-chiplet
links join facing edge qubits of adjacent chiplets and carry their own
error rate. Defective qubits lose every incident coupling, and a link
whose endpoint is defective is dropped entirely.

Global physical ids are row-major inside a chiplet, chiplets row-major in
the grid: gid = chip * chip_w * chip_h + y * chip_w + x.
"""

from __future__ import annotations

import logging
import math
import random
from dataclasses import dataclass
from typing import NamedTuple

from .errors import ValidationError
from .schema import validate_backend_doc

log = logging.getLogger(__name__)


class PhysCoord(NamedTuple):
    chip: int
    x: int
    y: int


@dataclass(frozen=True, eq=False)
class InterChipLink:
    """Dedicated coupler between facing edge qubits of adjacent chiplets.

    Immutable: the congestion counts routing consults belong to each
    routing run, keyed by ``key``.
    """

    a: int  # global qubit id on the lower-numbered chiplet
    b: int  # global qubit id on the higher-numbered chiplet
    eps: float  # physical error rate of the coupler, stored raw

    @property
    def key(self) -> tuple[int, int]:
        return (self.a, self.b)


@dataclass(frozen=True, eq=False)
class ChipletBackend:
    """Device description; immutable, so compiles can share one backend."""

    grid_rows: int
    grid_cols: int
    chip_w: int
    chip_h: int
    links: tuple[InterChipLink, ...] = ()
    defects: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        for name in ("grid_rows", "grid_cols", "chip_w", "chip_h"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be positive")
        for gid in self.defects:
            if not 0 <= gid < self.n_qubits:
                raise ValidationError(f"defect id {gid} out of range")
        endpoint_seen: set[int] = set()
        for link in self.links:
            self._check_link(link)
            for q in (link.a, link.b):
                if q in endpoint_seen:
                    raise ValidationError(f"qubit {q} carries more than one inter-chiplet link")
                endpoint_seen.add(q)

    # -- geometry -----------------------------------------------------

    @property
    def n_chiplets(self) -> int:
        return self.grid_rows * self.grid_cols

    @property
    def chip_area(self) -> int:
        return self.chip_w * self.chip_h

    @property
    def n_qubits(self) -> int:
        return self.n_chiplets * self.chip_area

    def gid(self, chip: int, x: int, y: int) -> int:
        return chip * self.chip_area + y * self.chip_w + x

    def coord(self, gid: int) -> PhysCoord:
        chip, off = divmod(gid, self.chip_area)
        y, x = divmod(off, self.chip_w)
        return PhysCoord(chip, x, y)

    def chip_of(self, gid: int) -> int:
        return gid // self.chip_area

    def grid_pos(self, chip: int) -> tuple[int, int]:
        return divmod(chip, self.grid_cols)

    def chip_at(self, row: int, col: int) -> int:
        return row * self.grid_cols + col

    # -- validation ---------------------------------------------------

    def _check_link(self, link: InterChipLink) -> None:
        if not (math.isfinite(link.eps) and link.eps >= 0):
            raise ValidationError(
                f"link {link.key}: error rate {link.eps!r} is not a finite nonnegative number"
            )
        ca, cb = self.chip_of(link.a), self.chip_of(link.b)
        if ca >= cb:
            raise ValidationError(f"link {link.key}: endpoints must sit on ascending chiplet ids")
        (ra, cca), (rb, ccb) = self.grid_pos(ca), self.grid_pos(cb)
        if abs(ra - rb) + abs(cca - ccb) != 1:
            raise ValidationError(f"link {link.key}: chiplets {ca} and {cb} are not grid-adjacent")
        _, ax, ay = self.coord(link.a)
        _, bx, by = self.coord(link.b)
        if rb == ra:  # horizontal neighbors: right edge meets left edge
            ok = ax == self.chip_w - 1 and bx == 0
        else:  # vertical neighbors: bottom edge meets top edge
            ok = ay == self.chip_h - 1 and by == 0
        if not ok:
            raise ValidationError(f"link {link.key}: endpoints must lie on the facing edges")


def _is_power_of_two(n: int) -> bool:
    return n > 0 and n & (n - 1) == 0


def build_backend(spec: dict) -> ChipletBackend:
    """Construct a backend from its JSON document.

    ``spec`` is a JSON-decoded tree: objects are dicts and arrays are lists
    (a tuple or another Mapping is rejected, as JSON has no such value).

    Expected shape::

        {"grid": [rows, cols], "chiplet": [w, h],
         "links": [{"a": {"chip", "x", "y"}, "b": {...}, "eps": f}, ...],
         "defects": [{"chip", "x", "y"}, ...],
         "auto_links": {"per_edge": n,
                        "eps": f | {"base": f, "scale_range": [lo, hi], "seed": s}},
         "allow_non_pow2": false}

    The document is checked against ``BACKEND_SCHEMA`` first, positive
    sizes included; the build then applies the semantic rules: sites
    inside the device, links on facing edges of adjacent chiplets, and a
    chiplet count that is a power of two unless ``allow_non_pow2`` is set.
    Links touching a defective qubit are dropped with a warning.
    """
    validate_backend_doc(spec)
    rows, cols = (int(v) for v in spec["grid"])
    chip_w, chip_h = (int(v) for v in spec["chiplet"])
    if not _is_power_of_two(rows * cols) and not spec.get("allow_non_pow2", False):
        raise ValidationError(
            f"chiplet count {rows * cols} is not a power of two "
            "(set allow_non_pow2 to override)"
        )

    shell = ChipletBackend(rows, cols, chip_w, chip_h)  # geometry helpers only

    defects: set[int] = set()
    for i, d in enumerate(spec.get("defects", [])):
        defects.add(shell.gid(*_parse_site(shell, f"defects[{i}]", d)))

    links: list[InterChipLink] = []
    for i, entry in enumerate(spec.get("links", [])):
        a = shell.gid(*_parse_site(shell, f"links[{i}].a", entry["a"]))
        b = shell.gid(*_parse_site(shell, f"links[{i}].b", entry["b"]))
        if a > b:
            a, b = b, a
        links.append(InterChipLink(a, b, float(entry["eps"])))

    auto = spec.get("auto_links")
    if auto is not None:
        links.extend(_auto_links(shell, auto, taken={l.a for l in links} | {l.b for l in links}))

    kept = []
    for link in links:
        if link.a in defects or link.b in defects:
            log.warning("dropping link %s: defective endpoint", link.key)
            continue
        kept.append(link)

    return ChipletBackend(rows, cols, chip_w, chip_h, tuple(kept), frozenset(defects))


def _parse_site(backend: ChipletBackend, where: str, obj: dict) -> tuple[int, int, int]:
    chip, x, y = int(obj["chip"]), int(obj["x"]), int(obj["y"])
    if chip >= backend.n_chiplets:
        raise ValidationError(f"{where}: chip {chip} out of range")
    if x >= backend.chip_w or y >= backend.chip_h:
        raise ValidationError(f"{where}: cell ({x}, {y}) outside the chiplet")
    return chip, x, y


def _auto_links(
    backend: ChipletBackend, auto: dict, taken: set[int]
) -> list[InterChipLink]:
    """Spread per_edge links evenly along every facing chiplet edge."""
    per_edge = int(auto["per_edge"])
    eps_spec = auto.get("eps", 0.0)
    if isinstance(eps_spec, dict):
        base = float(eps_spec["base"])
        lo, hi = eps_spec.get("scale_range", (1.0, 10.0))
        if not math.isfinite(base):
            raise ValidationError(f"auto_links.eps: base {base!r} is not finite")
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValidationError(f"auto_links.eps: scale_range {[lo, hi]!r} is not finite")
        if lo > hi:
            raise ValidationError("auto_links.eps: scale_range must be ordered low to high")
        rng = random.Random(int(eps_spec.get("seed", 0)))

        def draw() -> float:
            return base * rng.uniform(lo, hi)

    else:
        eps = float(eps_spec)

        def draw() -> float:
            return eps

    out: list[InterChipLink] = []
    clipped: list[int] = []  # the length of each edge too short for per_edge links
    for row in range(backend.grid_rows):
        for col in range(backend.grid_cols):
            chip = backend.chip_at(row, col)
            if col + 1 < backend.grid_cols:
                out.extend(
                    _edge_links(
                        backend, chip, backend.chip_at(row, col + 1),
                        horizontal=True, count=per_edge, draw=draw, taken=taken, clipped=clipped,
                    )
                )
            if row + 1 < backend.grid_rows:
                out.extend(
                    _edge_links(
                        backend, chip, backend.chip_at(row + 1, col),
                        horizontal=False, count=per_edge, draw=draw, taken=taken, clipped=clipped,
                    )
                )
    if clipped:
        log.warning("auto_links: %d links requested per edge, clipping %d edges to %s",
                    per_edge, len(clipped), " or ".join(map(str, sorted(set(clipped)))))
    return out


def _edge_links(
    backend: ChipletBackend,
    chip_a: int,
    chip_b: int,
    *,
    horizontal: bool,
    count: int,
    draw,
    taken: set[int],
    clipped: list[int],
) -> list[InterChipLink]:
    edge_len = backend.chip_h if horizontal else backend.chip_w
    if count > edge_len:
        clipped.append(edge_len)
        count = edge_len
    out = []
    for j in range(count):
        pos = int((j + 0.5) * edge_len / count)
        if horizontal:
            a = backend.gid(chip_a, backend.chip_w - 1, pos)
            b = backend.gid(chip_b, 0, pos)
        else:
            a = backend.gid(chip_a, pos, backend.chip_h - 1)
            b = backend.gid(chip_b, pos, 0)
        if a in taken or b in taken:
            continue  # explicit links keep their endpoints
        taken.add(a)
        taken.add(b)
        out.append(InterChipLink(a, b, draw()))
    return out


class CouplingGraph:
    """Coupling view of a backend with defects removed.

    Nodes are functional global qubit ids; edges are intra-chiplet grid
    couplings plus inter-chiplet links. No adjacency is stored:
    ``has_edge`` answers a grid coupling from id arithmetic and the
    ``alive`` flags, and a link from the link table. ``link_on`` returns
    the link record for a link edge, None for grid edges;
    ``links_between`` lists the functional links joining two chiplets.

    ``alive_masks`` maps each chiplet with a dead cell, and only those, to
    its live cells as a bitboard: cell (x, y) is bit ``y * (chip_w + 1) +
    x``. Bit ``chip_w`` of each row is a spare column that is always zero,
    so shifting a mask by one never carries a cell into the next row.
    """

    __slots__ = ("n", "alive", "alive_masks", "_chip_w", "_chip_area", "_links", "_between")

    def __init__(self, backend: ChipletBackend):
        n = backend.n_qubits
        w, h = backend.chip_w, backend.chip_h
        self.n = n
        self._chip_w = w
        self._chip_area = area = w * h
        alive = [True] * n
        for gid in backend.defects:
            alive[gid] = False
        self.alive = alive
        stride = w + 1
        full = sum(((1 << w) - 1) << (y * stride) for y in range(h))
        masks: dict[int, int] = {}
        for gid in backend.defects:
            chip, off = divmod(gid, area)
            masks[chip] = masks.get(chip, full) & ~(1 << (off + off // w))
        self.alive_masks = masks
        self._links: dict[tuple[int, int], InterChipLink] = {}
        between: dict[tuple[int, int], list[InterChipLink]] = {}
        for link in backend.links:
            if alive[link.a] and alive[link.b]:
                self._links[link.key] = link
                between.setdefault((link.a // area, link.b // area), []).append(link)
        self._between = {pair: tuple(ls) for pair, ls in between.items()}

    def has_edge(self, a: int, b: int) -> bool:
        """Whether cells ``a`` and ``b`` are coupled.

        Inside a chiplet, ids one row apart differ by ``chip_w``, and ids
        one column apart differ by 1 within a row, where the larger is not
        the first cell of its row; both cells must be alive. Cells of
        different chiplets are coupled only by a functional link.
        """
        if a > b:
            a, b = b, a
        area = self._chip_area
        if a // area != b // area:
            return (a, b) in self._links
        w = self._chip_w
        d = b - a
        if d != w and (d != 1 or b % w == 0):
            return False
        alive = self.alive
        return alive[a] and alive[b]

    def link_on(self, a: int, b: int) -> InterChipLink | None:
        return self._links.get((a, b) if a < b else (b, a))

    def links_between(self, chip_a: int, chip_b: int) -> tuple[InterChipLink, ...]:
        """Functional links joining two chiplets, in backend order."""
        pair = (chip_a, chip_b) if chip_a < chip_b else (chip_b, chip_a)
        return self._between.get(pair, ())


def backend_to_json(backend: ChipletBackend) -> dict:
    """Serialize a backend back to its document form."""

    def site(gid: int) -> dict:
        chip, x, y = backend.coord(gid)
        return {"chip": chip, "x": x, "y": y}

    return {
        "schema_version": 1,
        "grid": [backend.grid_rows, backend.grid_cols],
        "chiplet": [backend.chip_w, backend.chip_h],
        "links": [
            {"a": site(l.a), "b": site(l.b), "eps": l.eps} for l in backend.links
        ],
        "defects": [site(d) for d in sorted(backend.defects)],
    }
