"""Exception types shared across the compiler pipeline."""

import math


class CompilerError(Exception):
    """Base class for every failure raised by this package."""


class ValidationError(CompilerError):
    """Malformed or inconsistent input: circuit, backend, or configuration."""


_NOUNS = {float: "a finite number", int: "an integer", bool: "a boolean", str: "a string"}


def check_field_types(obj: object, kinds: dict[str, type]) -> None:
    """Reject the first field of ``obj`` whose value is not of its kind.

    ``float`` fields take any finite int or float, ``int`` fields only
    ints; neither takes a boolean. The error names the class and field.
    """
    for name, kind in kinds.items():
        value = getattr(obj, name)
        if kind is float:
            ok = isinstance(value, int) or (isinstance(value, float) and math.isfinite(value))
        else:
            ok = isinstance(value, kind)
        if not ok or (isinstance(value, bool) and kind is not bool):
            noun = _NOUNS.get(kind, f"a {kind.__name__}")
            raise ValidationError(
                f"{type(obj).__name__}.{name} must be {noun}, got {value!r}"
            )


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
