"""Quality metrics for compiled circuits.

All counters are exact integers; ratios are derived from them at the
end, so repeated runs on the same inputs report identical numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .backend import ChipletBackend
from .errors import CompilerError
from .ir import CircuitDag
from .route import CompiledCircuit


@dataclass(frozen=True)
class CompileStats:
    """Headline numbers comparing the compiled circuit to its source."""

    n_virtual: int
    n_physical: int
    depth_original: int
    depth_compiled: int
    depth_ratio: float
    gates_original: int
    gates_compiled: int
    two_qubit_original: int
    two_qubit_compiled: int
    gate_overhead: float
    cx_expanded_two_qubit: int
    cx_expanded_overhead: float
    swap_count: int
    inter_chiplet_two_qubit: int
    chiplets_used: int
    utilization: float
    patch_violations: int
    wall_time_s: float | None = None

    def as_dict(self) -> dict:
        """Every field in declaration order; ``wall_time_s`` only when it is set."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        if self.wall_time_s is None:
            del out["wall_time_s"]
        return out


def _ratio(num: int, den: int) -> float:
    if den == 0:
        return 1.0 if num == 0 else float("inf")
    return num / den


def stats(
    original: CircuitDag,
    compiled: CompiledCircuit,
    backend: ChipletBackend,
    *,
    util_all_chiplets: bool = False,
    wall_time_s: float | None = None,
) -> CompileStats:
    """Measure ``compiled`` against ``original``.

    Utilization divides mapped qubits by the capacity of the chiplets
    that hold at least one partition, or of the whole device when
    ``util_all_chiplets`` is set.
    """
    two_orig, gates_orig, _, depth_orig = original.counts(backend.chip_area)
    two_comp, gates_comp, inter, depth_comp = compiled.dag.counts(backend.chip_area)
    traversed = sum(compiled.link_traversals.values())
    if inter != traversed:
        raise CompilerError(
            f"cross-chiplet gate count {inter} disagrees with link traversals {traversed}"
        )

    used_chips = set(map(backend.chip_of, compiled.mapping.values()))
    denom_chips = backend.n_chiplets if util_all_chiplets else max(1, len(used_chips))
    mapped = len(compiled.mapping)

    return CompileStats(
        n_virtual=original.n_virt,
        n_physical=backend.n_qubits,
        depth_original=depth_orig,
        depth_compiled=depth_comp,
        depth_ratio=_ratio(depth_comp, depth_orig),
        gates_original=gates_orig,
        gates_compiled=gates_comp,
        two_qubit_original=two_orig,
        two_qubit_compiled=two_comp,
        gate_overhead=_ratio(two_comp, two_orig),
        cx_expanded_two_qubit=two_comp + 2 * compiled.swap_count,
        cx_expanded_overhead=_ratio(two_comp + 2 * compiled.swap_count, two_orig),
        swap_count=compiled.swap_count,
        inter_chiplet_two_qubit=inter,
        chiplets_used=len(used_chips),
        utilization=mapped / (backend.chip_area * denom_chips),
        patch_violations=compiled.patch_violations,
        wall_time_s=wall_time_s,
    )
