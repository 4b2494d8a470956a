"""Exception taxonomy shared by all modules.

Each class maps onto one failure family so callers (and the CLI exit-code
mapping) can dispatch on type instead of parsing messages.
"""

from contextlib import contextmanager


class ShapeError(ValueError):
    """Array argument has the wrong shape or dimension."""


class NumericError(ArithmeticError):
    """A value left the floats; a failed step is its subclass ``DivergenceError``."""


class ConfigurationError(ValueError):
    """Invalid, missing, or inconsistent configuration input. ``field`` names the
    argument at fault where it is known: every error an entry point raises on
    an argument out of its range or of the wrong type sets it, whether its
    preflight or a check the run reaches later (a seed, an mlmc level) raises it."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


@contextmanager
def blame(field: str, *instead_of: str):
    """Tag a ``ConfigurationError`` raised in the block with ``field`` unless it
    names a field other than those of ``instead_of``."""
    try:
        yield
    except ConfigurationError as err:
        if err.field is None or err.field in instead_of:
            err.field = field
        raise


class CapabilityError(RuntimeError):
    """Request exceeds a documented implementation limit."""


class DegeneracyError(ValueError):
    """Input is degenerate for the requested operation (e.g. a rate fit
    with fewer than two distinct abscissae)."""


class DomainError(ValueError):
    """Input lies outside the mathematical domain of the operation."""


class DivergenceError(NumericError):
    """A step failed: a coefficient turned non-finite or a state left the trust region.

    ``step_index`` identifies the failed time step once known; it is
    attached by the path drivers (``em_engine._walk`` and the stacked coarse
    loop of ``mlmc_engine._coupled_pairs``), the stepper itself raises with
    ``None``. ``path`` is ``"fine"`` or ``"coarse"`` for a level sample,
    whose two paths count steps of different sizes, and ``None`` elsewhere.
    """

    def __init__(self, message: str, step_index: int | None = None, path: str | None = None):
        super().__init__(message)
        self.step_index = step_index
        self.path = path
