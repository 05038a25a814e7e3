"""Exception types shared across the package."""


class ModelError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(ModelError, ValueError):
    """Invalid numeric parameters (colors, bounds, tuples of wrong shape)."""


class InfeasibleError(ModelError, ValueError):
    """A node-weighting or pattern fails the feasibility/validity conditions."""


class CapExceededError(ModelError, RuntimeError):
    """Crystal generation hit the vertex cap before closure."""

    def __init__(self, cap, partial_count):
        self.cap = cap
        self.partial_count = partial_count
        super().__init__(
            f"vertex cap {cap} exceeded ({partial_count} vertices discovered so far)"
        )


class GraphFormatError(ModelError, ValueError):
    """Malformed graph input (JSON or edge-list text)."""
