"""Noise- and congestion-aware routing onto the fixed physical mapping.

Gates whose operands are already coupled pass through untouched. A
non-adjacent pair gets a shortest coupling path and a bifurcated SWAP
chain: both tokens walk toward the middle edge, the source side taking
the extra hop on uneven splits. Hop distances inside a chiplet are
Manhattan distances when it has no dead cell; where a cell is dead they
are breadth-first levels flooded on the chiplet's alive bitboard, one
Python integer per level. Either way the path walks back from the
target, ties resolved toward the smallest predecessor id. By default
mirrored un-SWAPs restore the mapping after every routed gate;
persistent-SWAP mode leaves tokens where they land.

Inter-chiplet hops pick a link by cost

    |P| + alpha * eps + beta * usage

over the k candidate links nearest the unweighted-shortest crossing,
scanning one boundary at a time along the chiplet-grid route. Selecting
a link increments its usage count, which the beta term feeds back as
congestion pressure. The counts belong to one routing run, keyed by link
endpoints; the backend and its links are never written to, so compiles
can share a backend.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .backend import ChipletBackend, CouplingGraph, InterChipLink, PhysCoord
from .errors import (
    CompilerError,
    NoRouteError,
    StrictPatchViolationError,
    ValidationError,
    check_field_types,
)
from .ir import CircuitDag, GateKind, GateNode, PartitionRegistry, build_dag
from .lmap import flat_mapping

log = logging.getLogger(__name__)

# policy name -> default (alpha, beta); a config's weight is positive
# exactly where its policy's default is
POLICIES = {
    "basic": (0.0, 0.0),
    "focus": (1e4, 0.0),
    "tradeoff": (1e3, 1.0),
}


@dataclass(frozen=True)
class RoutingConfig:
    """Link-selection weights and routing behavior switches.

    ``alpha`` scales the link error rate (raw physical rate, not a log),
    ``beta`` the link's usage count in the run. The policy label must
    match the weights: basic ignores both terms, focus weighs only noise,
    tradeoff weighs noise and congestion.
    """

    alpha: float = 0.0
    beta: float = 0.0
    k_nearest: int = 3
    policy: str = "basic"
    restore_mapping: bool = True
    strict_patches: bool = False

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.alpha < 0 or self.beta < 0:
            raise ValidationError("alpha and beta must be nonnegative")
        if self.k_nearest < 1:
            raise ValidationError("k_nearest must be >= 1")
        if self.policy not in POLICIES:
            raise ValidationError(f"unknown routing policy {self.policy!r}")
        weights = zip((self.alpha, self.beta), POLICIES[self.policy])
        if not all(w > 0 if w0 > 0 else w == 0 for w, w0 in weights):
            raise ValidationError(
                f"policy {self.policy!r} is inconsistent with alpha={self.alpha}, "
                f"beta={self.beta}"
            )

    @classmethod
    def from_policy(
        cls,
        policy: str,
        *,
        alpha: float | None = None,
        beta: float | None = None,
        **rest,
    ) -> "RoutingConfig":
        """The config of ``policy`` at that policy's weights.

        ``alpha`` or ``beta`` overrides a weight; ``rest`` sets the other
        fields, which keep their defaults otherwise.
        """
        if policy not in POLICIES:
            raise ValidationError(f"unknown routing policy {policy!r}")
        da, db = POLICIES[policy]
        return cls(
            alpha=da if alpha is None else alpha,
            beta=db if beta is None else beta,
            policy=policy,
            **rest,
        )


# Link selections per link key in one routing run.
LinkUsage = dict[tuple[int, int], int]


def _link_cost(hops: int, link: InterChipLink, usage: int, cfg: RoutingConfig) -> float:
    """|P| + alpha * eps + beta * usage, summed in that order."""
    return hops + cfg.alpha * link.eps + cfg.beta * usage


@dataclass
class CompiledCircuit:
    """Routing output: the physical-gate DAG plus bookkeeping.

    ``dag`` runs over global physical qubit ids. ``mapping`` is the fixed
    coordinate assignment the circuit starts from (and, with
    restore_mapping, ends at). ``link_usage`` counts link selections,
    ``link_traversals`` emitted two-qubit gates per link.
    """

    dag: CircuitDag
    mapping: dict[int, PhysCoord]
    swap_count: int
    link_usage: dict[tuple[int, int], int]
    link_traversals: dict[tuple[int, int], int]
    patch_violations: int
    restore_mapping: bool


class _ManhattanDist:
    """Hop distances from ``start`` on a chiplet with no dead cell.

    On a full grid they are Manhattan distances, so this answers ``get``
    like the BFS flood without flooding the chiplet; cells of other
    chiplets are absent.
    """

    __slots__ = ("chip", "chip_w", "chip_area", "x0", "y0")

    def __init__(self, start: int, chip: int, chip_w: int, chip_area: int):
        self.chip = chip
        self.chip_w = chip_w
        self.chip_area = chip_area
        self.y0, self.x0 = divmod(start - chip * chip_area, chip_w)

    def get(self, gid: int) -> int | None:
        if gid // self.chip_area != self.chip:
            return None
        y, x = divmod(gid - self.chip * self.chip_area, self.chip_w)
        return abs(x - self.x0) + abs(y - self.y0)

    def walk_back(self, dst: int) -> list[int]:
        """The path from ``start`` to ``dst``, the smallest predecessor winning each step.

        Walking back from ``dst``, the neighbours in ascending id order
        are up, left, right and down, and each stays a step toward
        ``start`` until its row or column is reached. So the walk takes
        every up step first, then the sideways steps, then the down steps.
        """
        w = self.chip_w
        y, x = divmod(dst - self.chip * self.chip_area, w)
        path = [dst]
        for step, n in ((-w, y - self.y0), (-1, x - self.x0), (1, self.x0 - x), (w, self.y0 - y)):
            for _ in range(n):
                path.append(path[-1] + step)
        path.reverse()
        return path


class _LevelDist:
    """Hop distances from ``start`` on a chiplet with a dead cell.

    A breadth-first flood over the chiplet's alive bitboard (see
    ``CouplingGraph.alive_masks``). One level is every live, unreached cell
    beside the last level, found for all cells at once with four shifts;
    ``levels[d]`` holds the cells exactly ``d`` hops from ``start``, which
    must be live. Answers ``get`` like the BFS flood; cells of other
    chiplets and cells cut off from ``start`` are absent.
    """

    __slots__ = ("chip", "chip_w", "chip_area", "levels")

    def __init__(self, start: int, chip: int, chip_w: int, chip_area: int, alive: int):
        self.chip = chip
        self.chip_w = chip_w
        self.chip_area = chip_area
        stride = chip_w + 1
        off = start - chip * chip_area
        front = 1 << (off + off // chip_w)
        free = alive & ~front
        levels = [front]
        while True:
            front = ((front << 1) | (front >> 1) | (front << stride) | (front >> stride)) & free
            if not front:
                break
            free ^= front
            levels.append(front)
        self.levels = levels

    def get(self, gid: int) -> int | None:
        off = gid - self.chip * self.chip_area
        if not 0 <= off < self.chip_area:
            return None
        bit = 1 << (off + off // self.chip_w)
        for d, level in enumerate(self.levels):
            if level & bit:
                return d
        return None

    def walk_back(self, dst: int) -> list[int]:
        """The path from ``start`` to ``dst``, found level by level.

        Each step tests the same-chiplet neighbours in ascending id order
        (up, left, right, down), so the smallest predecessor wins.
        """
        w = self.chip_w
        stride = w + 1
        base = self.chip * self.chip_area
        off = dst - base
        b = off + off // w
        path = [dst]
        for level in reversed(self.levels[: self.get(dst)]):
            for q in (b - stride, b - 1, b + 1, b + stride):
                if q >= 0 and level >> q & 1:
                    b = q
                    break
            else:
                raise CompilerError(f"distance levels are inconsistent at {path[-1]}")
            path.append(base + b - b // stride)
        path.reverse()
        return path


def _bfs_dist(
    graph: CouplingGraph, backend: ChipletBackend, start: int, chip: int
) -> _ManhattanDist | _LevelDist:
    """Hop distances from ``start`` within one chiplet.

    A chiplet without a dead cell gets the Manhattan view; one with a
    defect is flooded level by level on its bitboard.
    """
    alive = graph.alive_masks.get(chip)
    if alive is None:
        return _ManhattanDist(start, chip, backend.chip_w, backend.chip_area)
    return _LevelDist(start, chip, backend.chip_w, backend.chip_area, alive)


def _chip_route(backend: ChipletBackend, chip_a: int, chip_b: int) -> list[int]:
    """Chiplets visited on a shortest grid route, columns first."""
    ra, ca = backend.grid_pos(chip_a)
    rb, cb = backend.grid_pos(chip_b)
    chips = [chip_a]
    r, c = ra, ca
    while c != cb:
        c += 1 if cb > c else -1
        chips.append(backend.chip_at(r, c))
    while r != rb:
        r += 1 if rb > r else -1
        chips.append(backend.chip_at(r, c))
    return chips


def _select_crossing(
    graph: CouplingGraph,
    backend: ChipletBackend,
    cfg: RoutingConfig,
    usage: LinkUsage,
    u: int,
    to_chip: int,
    v: int | None,
) -> tuple[InterChipLink, list[int]]:
    """Pick the boundary link for one crossing and build the path through it.

    Returns the chosen link and the path from ``u`` over the link; when
    the far-side target ``v`` is known the path continues down to it.
    Increments the chosen link's count in ``usage``. Candidates are ranked
    by (cost, hops, near endpoint); no two links share an endpoint, so
    the order of the links in the backend never decides a choice.
    """
    chip_u = backend.chip_of(u)
    links = graph.links_between(chip_u, to_chip)
    if not links:
        raise NoRouteError(f"no functional link between chiplets {chip_u} and {to_chip}")
    forward = chip_u < to_chip  # links keep the lower chiplet's endpoint as ``a``

    dist_u = _bfs_dist(graph, backend, u, chip_u)
    dist_v = _bfs_dist(graph, backend, v, to_chip) if v is not None else None
    # (link, near endpoint, far endpoint, hops from u over the link to v)
    reachable: list[tuple[InterChipLink, int, int, int]] = []
    for l in links:
        near, far = (l.a, l.b) if forward else (l.b, l.a)
        du = dist_u.get(near)
        dv = 0 if dist_v is None else dist_v.get(far)
        if du is None or dv is None:
            continue
        reachable.append((l, near, far, du + 1 + dv))
    if not reachable:
        raise NoRouteError(
            f"no link between chiplets {chip_u} and {to_chip} is reachable around defects"
        )

    # crossing point: where the unweighted shortest path would cross
    cross = min(reachable, key=lambda t: (t[3], t[1]))
    cpt = backend.coord(cross[1])

    def boundary_offset(t: tuple[InterChipLink, int, int, int]) -> int:
        c = backend.coord(t[1])
        return abs(c.x - cpt.x) + abs(c.y - cpt.y)

    reachable.sort(key=lambda t: (boundary_offset(t), t[1]))
    candidates = reachable[: cfg.k_nearest]
    best, near, far, _ = min(
        candidates,
        key=lambda t: (_link_cost(t[3], t[0], usage.get(t[0].key, 0), cfg), t[3], t[1]),
    )
    usage[best.key] = usage.get(best.key, 0) + 1
    path = dist_u.walk_back(near)
    path.append(far)
    if dist_v is not None and far != v:
        tail = dist_v.walk_back(far)
        tail.reverse()  # far -> v
        path.extend(tail[1:])
    return best, path


class _RoutingRun:
    def __init__(
        self,
        registry: PartitionRegistry,
        backend: ChipletBackend,
        graph: CouplingGraph,
        cfg: RoutingConfig,
    ):
        self.backend = backend
        self.graph = graph
        self.cfg = cfg
        self.phi = flat_mapping(registry, backend)
        self.pos = dict(self.phi)  # virtual -> current physical id
        self.owner = [-1] * backend.n_qubits
        for virt, gid in self.phi.items():
            if not graph.alive[gid]:
                raise ValidationError(f"qubit {virt} mapped onto defective cell {gid}")
            self.owner[gid] = virt
        qpid = registry.qubit_map()
        self.pid_of_cell = {gid: qpid[virt] for virt, gid in self.phi.items()}
        self.qpid = qpid
        self.out: list[GateNode] = []
        self.swap_count = 0
        self.traversals: dict[tuple[int, int], int] = {}
        self.violations = 0
        self.swaps_inside: dict[int, int] = {}  # partition id -> SWAPs between its own cells
        self.usage: LinkUsage = {}  # this run's link selections
        self.chip_area = backend.chip_area

    # -- emission -----------------------------------------------------

    def _count_traversal(self, a: int, b: int) -> None:
        """Count a two-qubit gate on cells ``a`` and ``b`` if a link joins them."""
        link = self.graph.link_on(a, b)
        if link is not None:
            self.traversals[link.key] = self.traversals.get(link.key, 0) + 1

    # -- routed gates -------------------------------------------------

    def _route_two_qubit(self, g: GateNode, p1: int, p2: int) -> None:
        """Route ``g``, whose operands sit on the uncoupled cells ``p1`` and ``p2``."""
        v1, v2 = g.qubits
        if self.qpid[v1] == self.qpid[v2]:
            msg = (
                f"{g.kind.value} on qubits {v1}, {v2} of partition {self.qpid[v1]} "
                "needs routing inside a patch"
            )
            if self.cfg.strict_patches:
                raise StrictPatchViolationError(msg)
            log.warning("%s", msg)
            self.violations += 1
        path = self._find_path(p1, p2)
        self._bifurcate(path, g)

    def _find_path(self, p1: int, p2: int) -> list[int]:
        c1, c2 = self.backend.chip_of(p1), self.backend.chip_of(p2)
        if c1 == c2:
            dist = _bfs_dist(self.graph, self.backend, p1, c1)
            if dist.get(p2) is None:
                raise NoRouteError(
                    f"no coupling path between {p1} and {p2} on chiplet {c1}"
                )
            return dist.walk_back(p2)
        path = [p1]
        cur = p1
        for chip in _chip_route(self.backend, c1, c2)[1:]:
            target = p2 if chip == c2 else None
            _, seg = _select_crossing(
                self.graph, self.backend, self.cfg, self.usage, cur, chip, target
            )
            path.extend(seg[1:])
            cur = path[-1]
        return path

    def _bifurcate(self, path: list[int], g: GateNode) -> None:
        """SWAP both tokens toward the middle edge, apply the gate, undo."""
        hops = len(path) - 1
        ka = hops // 2          # source side, takes the extra hop
        kb = (hops - 1) // 2    # target side
        steps = [(path[i], path[i + 1]) for i in range(ka)]
        steps += [(path[hops - j], path[hops - j - 1]) for j in range(kb)]
        self._swap_chain(steps)
        p1, p2 = self.pos[g.qubits[0]], self.pos[g.qubits[1]]
        if not self.graph.has_edge(p1, p2):
            raise CompilerError(f"tokens at {p1} and {p2} not adjacent after bifurcation")
        self.out.append(GateNode(g.kind, (p1, p2), g.tag))
        self._count_traversal(p1, p2)
        if self.cfg.restore_mapping:
            self._swap_chain([(q, p) for p, q in reversed(steps)])

    def _swap_chain(self, steps: list[tuple[int, int]]) -> None:
        """Emit one SWAP per (p, q) step in order, moving the tokens along."""
        emit = self.out.append
        owner, pos, pid_of_cell = self.owner, self.pos, self.pid_of_cell
        area = self.chip_area
        swap = GateKind.SWAP
        for p, q in steps:
            emit(GateNode(swap, (p, q), "route"))
            if p // area != q // area:  # only links join chiplets
                self._count_traversal(p, q)
            va, vb = owner[p], owner[q]
            owner[p], owner[q] = vb, va
            if vb != -1:
                pos[vb] = p
            if va != -1:
                pos[va] = q
            pa = pid_of_cell.get(p)
            if pa is not None and pa == pid_of_cell.get(q):
                self.violations += 1
                self.swaps_inside[pa] = self.swaps_inside.get(pa, 0) + 1
        self.swap_count += len(steps)


def route_circuit(
    dag: CircuitDag,
    registry: PartitionRegistry,
    backend: ChipletBackend,
    cfg: RoutingConfig | None = None,
    graph: CouplingGraph | None = None,
) -> CompiledCircuit:
    """Route every gate of ``dag`` in topological order onto ``backend``."""
    cfg = cfg or RoutingConfig()
    graph = graph or CouplingGraph(backend)
    run = _RoutingRun(registry, backend, graph, cfg)
    # Nearly every gate passes through on the current positions, so that
    # case runs here on local names; only uncoupled pairs leave the loop.
    pos = run.pos  # updated in place by every SWAP
    emit = run.out.append
    has_edge = graph.has_edge
    area = backend.chip_area
    barrier = GateKind.BARRIER
    for g in dag.nodes:  # node order is a topological order
        kind = g.kind
        qs = g.qubits
        if kind.is_two_qubit:
            p1 = pos[qs[0]]
            p2 = pos[qs[1]]
            if not has_edge(p1, p2):
                run._route_two_qubit(g, p1, p2)
                continue
            emit(GateNode(kind, (p1, p2), g.tag))
            if p1 // area != p2 // area:  # only links join chiplets
                run._count_traversal(p1, p2)
        elif kind is barrier:
            emit(GateNode(barrier, tuple([pos[q] for q in qs]), g.tag))
        else:
            emit(GateNode(kind, (pos[qs[0]],), g.tag))
    for pid, n in sorted(run.swaps_inside.items()):
        log.warning("%d SWAPs inside partition %d", n, pid)
    if cfg.restore_mapping and run.pos != run.phi:
        raise CompilerError("restored mapping drifted from the initial assignment")
    mapping = {}
    for part in registry:
        mapping.update(part.coords)
    return CompiledCircuit(
        dag=build_dag(run.out, backend.n_qubits),
        mapping=mapping,
        swap_count=run.swap_count,
        link_usage=dict(sorted(run.usage.items())),
        link_traversals=dict(sorted(run.traversals.items())),
        patch_violations=run.violations,
        restore_mapping=cfg.restore_mapping,
    )
