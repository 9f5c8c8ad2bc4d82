"""Exception types shared across the toolkit."""


class ValidationError(ValueError):
    """Input rejected by a model invariant."""


class ZeroSuccessProbability(ValidationError):
    """A heralded link with success probability zero has no finite connection time."""


class NTooSmall(ValidationError):
    """Adder-depth formulas are only defined for register sizes above their domain cutoff."""


class DomainError(ValidationError):
    """Argument outside the validity domain of an analytic expression."""


class InsufficientConcatenation(RuntimeError):
    """No supported concatenation level meets the requested logical error target."""
