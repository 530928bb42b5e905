"""Benchmark workloads: generator arguments, compile options and why each was chosen.

Every input comes from ``chipmap.benchgen`` and reaches the compiler only
as files. The inputs do not depend on the run seed. Drawing the defect
layout of ``ls-cnot-defects`` from the seed spread its quality metrics over
seeds 0-9 by up to 49 % (interquartile range of ``depth_ratio``), and
drawing only the link error rates from it spread ``link_error_sum`` by
14 %; either is wider than the bound a quality metric may carry, so the
backend seed is fixed at 0. The seed is still recorded with every run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from chipmap.benchgen import gen_backend_for, gen_ls_cnot_circuit

# Keys a circuit drops to become unlabelled for --partitions detect.
_LABEL_KEYS = ("partitions", "partition_geometry", "layout_hints")


@dataclass(frozen=True)
class Case:
    """One circuit and backend pair compiled by one CLI call."""

    label: str
    circuit: dict
    backend: dict


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generator: str  # the generator calls, for the provenance record
    cases: Callable[[], list[Case]]
    options: dict = field(default_factory=dict)  # compile option -> value
    # Cases that fail at the commit this benchmark was defined on, kept on purpose.
    known_failures: dict = field(default_factory=dict)

    def cli_args(self) -> list[str]:
        args = []
        for key, value in self.options.items():
            args += ["--" + key.replace("_", "-"), str(value)]
        return args


def _ls_cnot_d15() -> list[Case]:
    circuit = gen_ls_cnot_circuit(15, 8)
    return [Case("d15", circuit, gen_backend_for(circuit))]


def _ls_cnot_defects() -> list[Case]:
    circuit = gen_ls_cnot_circuit(7, 16)
    backend = gen_backend_for(
        circuit,
        headroom=8,
        grid=(4, 8),
        n_inter=2,
        eps={"base": 1e-3, "scale_range": [1, 10]},
        defects_per_chiplet=6,
        seed=0,
    )
    return [Case("d7", circuit, backend)]


def _unlabelled(d: int, n_cnots: int) -> Case:
    circuit = gen_ls_cnot_circuit(d, n_cnots)
    backend = gen_backend_for(circuit)  # sized from the labelled twin
    for key in _LABEL_KEYS:
        del circuit[key]
    return Case(f"d{d}", circuit, backend)


def _detect() -> list[Case]:
    # Quality metrics come from a workload's first case; d3 compiles, d5 does not.
    return [_unlabelled(3, 3), _unlabelled(5, 1)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ls-cnot-d15",
            "largest document (20,184 qubits, 59,464 gates) on defect-free chiplets: "
            "load, schema check, parse, Manhattan-eligible routing and serialize dominate",
            "c = gen_ls_cnot_circuit(15, 8); gen_backend_for(c)",
            _ls_cnot_d15,
        ),
        Workload(
            "ls-cnot-defects",
            "6 defects per chiplet and 10x-spread link error rates: BFS routing around "
            "defects, tradeoff link costs and size-aware packing in fragmented regions",
            "c = gen_ls_cnot_circuit(7, 16); gen_backend_for(c, headroom=8, grid=(4, 8), "
            "n_inter=2, eps={'base': 1e-3, 'scale_range': [1, 10]}, "
            "defects_per_chiplet=6, seed=0)",
            _ls_cnot_defects,
            {"placement": "size-aware", "policy": "tradeoff"},
        ),
        Workload(
            "detect",
            "two small unlabelled circuits: community detection and k-way bisection "
            "dominate; includes the known d5 capacity-split failure",
            "gen_ls_cnot_circuit(3, 3) and gen_ls_cnot_circuit(5, 1), each on "
            "gen_backend_for of its labelled twin, then partitions, "
            "partition_geometry and layout_hints removed",
            _detect,
            {"partitions": "detect", "detection_budget": 256},
            {"d5": "exit 2: capacities infeasible under the imbalance bound "
                   "(kway_partition _split capacity accounting)"},
        ),
    )
}
