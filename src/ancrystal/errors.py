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
    """The crystal to be generated has more vertices than the cap; raised from
    its exact ``size`` before the closure starts."""

    def __init__(self, cap, size):
        self.cap = cap
        self.size = size
        super().__init__(f"vertex cap {cap} exceeded: the crystal has {size} vertices")


class GraphFormatError(ModelError, ValueError):
    """Malformed graph input (JSON or edge-list text)."""
