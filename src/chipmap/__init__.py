"""Hardware-aware compiler for patch-structured circuits on chiplet devices.

The pipeline runs five stages: partition the qubit interaction graph,
sequence the partitions, pack them onto chiplets (global map), pin each
qubit to a cell (local map), and route the remaining long-range gates
over defect-free couplings and inter-chiplet links.
"""

from .backend import (
    ChipletBackend,
    CouplingGraph,
    InterChipLink,
    PhysCoord,
    backend_to_json,
    build_backend,
)
from .errors import (
    CompilerError,
    MappingError,
    NoFitError,
    NoRouteError,
    StrictPatchViolationError,
    ValidationError,
)
from .gmap import Placement, global_map
from .ir import (
    CircuitDag,
    CircuitInput,
    GateKind,
    GateNode,
    InteractionGraph,
    OpaqueKind,
    Partition,
    PartitionRegistry,
    circuit_from_json,
    interaction_graph,
)
from .lmap import local_map
from .metrics import CompileStats, stats
from .partition import estimate_partition_count, kway_partition, predefined_partitions
from .pipeline import CompileOptions, CompileResult, compile_circuit, result_to_json
from .route import CompiledCircuit, RoutingConfig, route_circuit
from .sequence import build_partition_graph, sequence, sequence_registry

__version__ = "0.1.0"

__all__ = [
    "ChipletBackend",
    "CircuitDag",
    "CircuitInput",
    "CompileOptions",
    "CompileResult",
    "CompileStats",
    "CompiledCircuit",
    "CompilerError",
    "CouplingGraph",
    "GateKind",
    "GateNode",
    "InterChipLink",
    "InteractionGraph",
    "MappingError",
    "NoFitError",
    "NoRouteError",
    "OpaqueKind",
    "Partition",
    "PartitionRegistry",
    "PhysCoord",
    "Placement",
    "RoutingConfig",
    "StrictPatchViolationError",
    "ValidationError",
    "backend_to_json",
    "build_backend",
    "build_partition_graph",
    "circuit_from_json",
    "compile_circuit",
    "estimate_partition_count",
    "global_map",
    "interaction_graph",
    "kway_partition",
    "local_map",
    "predefined_partitions",
    "result_to_json",
    "route_circuit",
    "sequence",
    "sequence_registry",
    "stats",
]
