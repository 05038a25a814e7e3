"""Exception types shared across the package."""


class ModelError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(ModelError, ValueError):
    """Invalid numeric parameters (colors, bounds, tuples of wrong shape)."""


def check_integer(x, what, source: str = "the caller") -> int:
    """``x`` when it is an int; a bool or any other type is a ParameterError,
    where ``int(x)`` would read 1.5 as 1 and "1" or True as 1."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise ParameterError(f"{source} gives {what} the non-integer value {x!r}")
    return x


def integer_tuple(xs, name: str, source: str = "the caller") -> tuple:
    """``tuple(xs)``, each entry checked by ``check_integer`` as ``name[p]``."""
    xs = tuple(xs)
    for p, x in enumerate(xs):
        check_integer(x, f"{name}[{p}]", source)
    return xs


class InfeasibleError(ModelError, ValueError):
    """A node-weighting or pattern fails the feasibility/validity conditions."""


class CapExceededError(ModelError, RuntimeError):
    """The crystal to be generated, or the graph read, has more vertices than
    the cap; raised from its exact ``size`` before the closure starts or before
    any table is built.  ``noun`` names what has the vertices: "crystal" or
    "graph"."""

    def __init__(self, cap, size, noun):
        self.cap = cap
        self.size = size
        super().__init__(f"vertex cap {cap} exceeded: the {noun} has {size} vertices")


def check_cap(cap) -> int:
    """``cap`` when it is a positive int, else a ParameterError."""
    if isinstance(cap, bool) or not isinstance(cap, int):
        raise ParameterError(f"vertex cap must be an integer, got {cap!r}")
    if cap < 1:
        raise ParameterError(f"vertex cap must be positive, got {cap}")
    return cap


class GraphFormatError(ModelError, ValueError):
    """Malformed graph input (JSON or edge-list text)."""
