"""Exception types shared across the package, and the one sample-count check."""

from numbers import Integral


class CurveSpaceError(Exception):
    """Base class for all library errors."""


class DomainError(CurveSpaceError, ValueError):
    """An argument left the mathematically valid domain (bad radius, off-surface point...)."""


class ImmersionError(DomainError):
    """The sampled curve fails the immersion condition (vanishing derivative)."""


class NormalityError(DomainError):
    """An operation that requires a normal path was called on one with a tangential component."""


class PreconditionError(DomainError):
    """A stated operation precondition does not hold."""


class CapabilityError(CurveSpaceError):
    """The requested combination is outside what the toolkit implements."""


class NumericFailure(CurveSpaceError, RuntimeError):
    """Non-convergence, singularity, or blow-up inside a numerical routine."""


class OptimizationFailure(NumericFailure):
    """The deterministic trust-region search found no feasible point."""


class InputFormatError(CurveSpaceError, ValueError):
    """An input file does not match the documented JSON/CSV schema."""


def check_count(name: str, value, minimum: int) -> None:
    """PreconditionError unless size ``name`` is an integer (numpy's too, no bool) >= ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < minimum:
        raise PreconditionError(f"need an integer {name} >= {minimum}, not {value!r}")
