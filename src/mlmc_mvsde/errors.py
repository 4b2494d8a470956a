"""Exception taxonomy shared by all modules.

Each class maps onto one failure family so callers (and the CLI exit-code
mapping) can dispatch on type instead of parsing messages.
"""


class ShapeError(ValueError):
    """Array argument has the wrong shape or dimension."""


class NumericError(ArithmeticError):
    """A coefficient or statistic evaluated to a non-finite value."""


class ConfigurationError(ValueError):
    """Invalid, missing, or inconsistent configuration input."""


class CapabilityError(RuntimeError):
    """Request exceeds a documented implementation limit."""


class DegeneracyError(ValueError):
    """Input is degenerate for the requested operation (e.g. a rate fit
    with fewer than two distinct abscissae)."""


class DomainError(ValueError):
    """Input lies outside the mathematical domain of the operation."""


class DivergenceError(RuntimeError):
    """A simulated state left the finite trust region.

    ``step_index`` identifies the offending time step once known; it is
    attached by the path driver ``em_engine._walk`` (or ``ode_limit``), the
    stepper itself raises with ``None``.
    """

    def __init__(self, message: str, step_index: int | None = None):
        super().__init__(message)
        self.step_index = step_index
