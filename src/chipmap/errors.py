"""Exception types shared across the compiler pipeline."""


class CompilerError(Exception):
    """Base class for every failure raised by this package."""


class ValidationError(CompilerError):
    """Malformed or inconsistent input: circuit, backend, or configuration."""


class MappingError(CompilerError):
    """Physical assignment broke an invariant (defect hit, duplicate cell)."""


class NoFitError(CompilerError):
    """No chiplet region can host a partition's bounding box."""

    def __init__(self, partition_id: int, message: str | None = None):
        self.partition_id = partition_id
        super().__init__(message or f"no chiplet region fits partition {partition_id}")


class NoRouteError(CompilerError):
    """No functional coupling path exists between two mapped qubits."""


class StrictPatchViolationError(CompilerError):
    """Same-partition gate needs routing while strict patch mode is on."""
