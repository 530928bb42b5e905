"""Independent check of a compiled document by token replay.

Shares no code with ``chipmap.route``. Couplings are derived here from the
backend document: 4-neighbour grid couplings inside each chiplet, minus
every coupling that touches a defect, plus the inter-chiplet links that
``chipmap.backend`` expands from the document (``auto_links`` draws link
error rates from a seeded generator, which is not worth duplicating).

The replay walks the compiled gates with a token per virtual qubit,
starting from the document's ``mapping``. SWAPs tagged ``route`` move
tokens; every other gate must be the next input gate once its physical
operands are translated back to the tokens that sit on them. It checks
that every two-qubit gate acts on coupled cells, that the logical gates
match the input in order, that the mapping is restored before each
routed gate and at the end, and that the quality figures recomputed from
the replay equal the document's ``stats`` block and ``link_traversals``.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math

from chipmap.backend import backend_to_json, build_backend

ROUTE_TAG = "route"  # tag the router puts on the SWAPs it inserts
VOLATILE_STATS = ("wall_time_s",)

_CANONICAL_OP = {
    "cx": "cx",
    "cnot": "cx",
    "swap": "swap",
    "measure": "measure",
    "m": "measure",
    "reset": "reset",
    "barrier": "barrier",
}


class CheckError(Exception):
    """The compiled document disagrees with its input or its own stats."""


def digest(doc: dict) -> str:
    """sha256 of the document as the CLI writes it, minus wall-clock fields."""
    stable = {k: v for k, v in doc.items() if k != "timings"}
    stable["stats"] = {k: v for k, v in doc["stats"].items() if k not in VOLATILE_STATS}
    return hashlib.sha256((json.dumps(stable, indent=2) + "\n").encode()).hexdigest()


def _expected(gate: dict) -> tuple[str, tuple[int, ...], str]:
    """The (op, qubits, tag) triple the compiled document carries for an input gate."""
    op, tag = gate["op"], gate.get("tag", "")
    canonical = _CANONICAL_OP.get(op.lower())
    if canonical is None:  # opaque gates are written under their tag, untagged
        return tag or op, tuple(gate["qubits"]), ""
    return canonical, tuple(gate["qubits"]), tag


def _is_two_qubit(op: str, qubits: list[int]) -> bool:
    return op != "barrier" and len(qubits) == 2


def _depth(gates) -> int:
    """Critical path with unit gate weight; barriers weigh zero."""
    level: dict[int, int] = {}
    best = 0
    for gate in gates:
        qubits = gate["qubits"]
        t = max(level.get(q, 0) for q in qubits) + (0 if gate["op"] == "barrier" else 1)
        for q in qubits:
            level[q] = t
        best = max(best, t)
    return best


def _ratio(num: int, den: int) -> float:
    if den == 0:
        return 1.0 if num == 0 else math.inf
    return num / den


class Device:
    """Coupling and link error rates derived from a backend document."""

    def __init__(self, backend_doc: dict):
        rows, cols = backend_doc["grid"]
        self.w, self.h = backend_doc["chiplet"]
        self.area = self.w * self.h
        self.n = rows * cols * self.area
        self.defects = {self.gid(s) for s in backend_doc.get("defects") or []}
        expanded = backend_to_json(build_backend(backend_doc))
        self.link_eps: dict[tuple[int, int], float] = {}
        for link in expanded["links"]:
            a, b = sorted((self.gid(link["a"]), self.gid(link["b"])))
            self.link_eps[(a, b)] = link["eps"]

    def gid(self, site: dict) -> int:
        return site["chip"] * self.area + site["y"] * self.w + site["x"]

    def chip(self, gid: int) -> int:
        return gid // self.area

    def coupled(self, a: int, b: int) -> bool:
        if a > b:
            a, b = b, a
        if (a, b) in self.link_eps:
            return True
        if a in self.defects or b in self.defects:
            return False
        (ca, oa), (cb, ob) = divmod(a, self.area), divmod(b, self.area)
        if ca != cb:
            return False
        (ya, xa), (yb, xb) = divmod(oa, self.w), divmod(ob, self.w)
        return abs(xa - xb) + abs(ya - yb) == 1


def _cell_partitions(device: Device, doc: dict) -> dict[int, int]:
    cell_pid: dict[int, int] = {}
    for p in doc["placements"]:
        for y in range(p["y"], p["y"] + p["h"]):
            for x in range(p["x"], p["x"] + p["w"]):
                cell_pid[device.gid({"chip": p["chip"], "x": x, "y": y})] = p["pid"]
    return cell_pid


def check(circuit_doc: dict, device: Device, doc: dict) -> dict:
    """Replay ``doc`` against its input; return the recomputed quality figures.

    Raises CheckError at the first disagreement.
    """
    n_virt = circuit_doc["n_qubits"]
    phi = {int(v): device.gid(site) for v, site in doc["mapping"].items()}
    if sorted(phi) != list(range(n_virt)):
        raise CheckError("mapping does not cover every virtual qubit exactly once")
    owner: dict[int, int] = {}
    for v, p in phi.items():
        if p in device.defects or not 0 <= p < device.n:
            raise CheckError(f"qubit {v} mapped onto unusable cell {p}")
        if p in owner:
            raise CheckError(f"qubits {owner[p]} and {v} share cell {p}")
        owner[p] = v
    cell_pid = _cell_partitions(device, doc)
    pid = {}
    for v, p in phi.items():
        if p not in cell_pid:
            raise CheckError(f"qubit {v} sits outside every placement")
        pid[v] = cell_pid[p]
    home_pid = {p: pid[v] for v, p in phi.items()}
    pos = dict(phi)

    inputs = iter(enumerate(circuit_doc["gates"]))
    displaced = 0  # tokens away from their initial cell
    home = True  # all tokens were home at some point since the last logical gate
    swaps = two = gates = inter = violations = 0
    traversals: dict[tuple[int, int], int] = {}
    for i, gate in enumerate(doc["gates"]):
        op, qubits, tag = gate["op"], gate["qubits"], gate.get("tag", "")
        if op != "barrier":
            gates += 1
        if _is_two_qubit(op, qubits):
            a, b = qubits
            if not device.coupled(a, b):
                raise CheckError(f"gate {i} ({op}) acts on uncoupled cells {a}, {b}")
            two += 1
            if device.chip(a) != device.chip(b):
                inter += 1
                key = (a, b) if a < b else (b, a)
                traversals[key] = traversals.get(key, 0) + 1
        if op == "swap" and tag == ROUTE_TAG:
            a, b = qubits
            va, vb = owner.get(a), owner.get(b)
            before = sum(pos[v] != phi[v] for v in (va, vb) if v is not None)
            for v, cell in ((va, b), (vb, a)):
                if v is None:
                    owner.pop(cell, None)
                else:
                    owner[cell] = v
                    pos[v] = cell
            displaced += sum(pos[v] != phi[v] for v in (va, vb) if v is not None) - before
            # A SWAP between two cells that start out holding one patch.
            if home_pid.get(a) is not None and home_pid.get(a) == home_pid.get(b):
                violations += 1
            swaps += 1
            if displaced == 0:
                home = True
            continue
        try:
            j, want = next(inputs)
        except StopIteration:
            raise CheckError(f"gate {i} ({op}) has no input gate left to match") from None
        if not home:
            raise CheckError(f"gate {i} runs before the mapping was restored")
        try:
            virt = tuple(owner[p] for p in qubits)
        except KeyError:
            raise CheckError(f"gate {i} ({op}) acts on a cell that holds no qubit") from None
        if (op, virt, tag) != _expected(want):
            raise CheckError(
                f"gate {i} ({op} {virt} {tag!r}) does not match input gate {j} {_expected(want)}"
            )
        if _is_two_qubit(op, qubits):
            v1, v2 = virt
            if pid[v1] == pid[v2] and not device.coupled(phi[v1], phi[v2]):
                violations += 1
        home = displaced == 0
    if next(inputs, None) is not None:
        raise CheckError("compiled document stops before the last input gate")
    if displaced:
        raise CheckError(f"{displaced} qubits end away from their initial cell")

    two_orig = sum(_is_two_qubit(g["op"].lower(), g["qubits"]) for g in circuit_doc["gates"])
    depth_orig = _depth(circuit_doc["gates"])
    depth_comp = _depth(doc["gates"])
    recomputed = {
        "n_virtual": n_virt,
        "n_physical": device.n,
        "depth_original": depth_orig,
        "depth_compiled": depth_comp,
        "depth_ratio": _ratio(depth_comp, depth_orig),
        "gates_compiled": gates,
        "two_qubit_original": two_orig,
        "two_qubit_compiled": two,
        "cx_expanded_two_qubit": two + 2 * swaps,
        "cx_expanded_overhead": _ratio(two + 2 * swaps, two_orig),
        "swap_count": swaps,
        "inter_chiplet_two_qubit": inter,
        "patch_violations": violations,
    }
    stats = doc["stats"]
    for key, value in recomputed.items():
        if stats.get(key) != value:
            raise CheckError(f"stats.{key} is {stats.get(key)!r}, replay gives {value!r}")
    listed = {(t["a"], t["b"]): t["count"] for t in doc["link_traversals"]}
    if listed != traversals:
        raise CheckError("link_traversals disagree with the link crossings in the gates")
    return {
        "swap_count": swaps,
        "depth_ratio": recomputed["depth_ratio"],
        "cx_expanded_overhead": recomputed["cx_expanded_overhead"],
        "inter_chiplet_two_qubit": inter,
        "patch_violations": violations,
        "max_link_usage": max((u["count"] for u in doc["link_usage"]), default=0),
        "link_error_sum": sum(
            n * -math.log1p(-device.link_eps[key]) for key, n in sorted(traversals.items())
        ),
    }


def corrupt_one_operand(doc: dict) -> dict:
    """Copy of ``doc`` with one operand of its first logical two-qubit gate moved."""
    bad = copy.copy(doc)
    bad["gates"] = list(doc["gates"])
    n = doc["n_physical"]
    for i, gate in enumerate(bad["gates"]):
        if _is_two_qubit(gate["op"], gate["qubits"]) and gate.get("tag") != ROUTE_TAG:
            a, b = gate["qubits"]
            moved = (b + 1) % n if (b + 1) % n != a else (b + 2) % n
            bad["gates"][i] = {**gate, "qubits": [a, moved]}
            return bad
    raise ValueError("document has no logical two-qubit gate to corrupt")
