"""Exception types shared across the package."""


class ModelError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(ModelError, ValueError):
    """Invalid numeric parameters (colors, bounds, tuples of wrong shape)."""


class InfeasibleError(ModelError, ValueError):
    """A node-weighting or pattern fails the feasibility/validity conditions."""


class CapExceededError(ModelError, RuntimeError):
    """Crystal generation would pass the vertex cap: found before the closure
    from the exact ``size``, or during it after ``partial_count`` vertices."""

    def __init__(self, cap, partial_count, size=None):
        self.cap = cap
        self.partial_count = partial_count
        self.size = size
        if size is None:
            message = f"vertex cap {cap} exceeded ({partial_count} vertices discovered so far)"
        else:
            message = f"vertex cap {cap} exceeded: the crystal has {size} vertices"
        super().__init__(message)


class GraphFormatError(ModelError, ValueError):
    """Malformed graph input (JSON or edge-list text)."""
