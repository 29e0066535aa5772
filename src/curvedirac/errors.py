"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Invalid grid, scheme, metric or run configuration.

    `field` names the dataclass field a check rejected, when there is one;
    `parse_config` uses it to point at the offending line.
    """

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


class GeometryError(ValueError):
    """Degenerate metric (e.g. graphene strain amplitude reaching f >= 1)."""


class KrylovError(RuntimeError):
    """Non-finite values encountered inside an iterative solve."""


class StepFailureError(RuntimeError):
    """A transport solve did not converge; the simulation cannot continue."""


class BudgetError(RuntimeError):
    """The dense oracle would exceed its byte budget (`oracle.MAX_DENSE_BYTES`)."""


class SimulationError(RuntimeError):
    """Propagation halted (NaN, solver failure or norm growth); carries the last good state."""

    def __init__(self, message, step=None, diagnostics=None):
        super().__init__(message)
        self.step = step
        self.diagnostics = diagnostics or []
