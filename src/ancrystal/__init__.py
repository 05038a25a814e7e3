"""Regular A_n crystal graphs through the crossing model: supporting graph,
feasible weight functions, crystal operators, full digraph generation, axiom
verification, pattern bijection, and structure theorems."""

from .errors import (
    CapExceededError,
    GraphFormatError,
    InfeasibleError,
    ModelError,
    ParameterError,
)
from .support import Multinode, NodeRef, SupportingGraph, build_supporting_graph
from .weights import (
    BACKWARD,
    FORWARD,
    Bounds,
    WeightFunction,
    is_feasible,
    make_weight_function,
    principal_function,
    switch_node,
    zero_bounds,
)
from .moves import (
    active_multinode,
    backward_move,
    forward_move,
    level_slacks,
    residual_slacks_by_cancelation,
    slack_dicts,
    string_lengths,
)
from .gt import (
    GTPattern,
    count_bounded_patterns,
    from_gt,
    sigma_bound,
    to_gt,
    weyl_dimension,
)
from .crystal import (
    CrystalGraph,
    dual,
    find_isomorphism,
    find_sink_by_operators,
    generate,
    interval,
    isomorphic,
    subgraph,
)
from .structure import (
    LOWER,
    UPPER,
    FundamentalString,
    PrincipalLattice,
    Skeleton,
    SkeletonPiece,
    SubcrystalRecord,
    apply_string,
    base_crystal,
    branching_multiplicity,
    canonical_string,
    fundamental_strings,
    lower_parameter,
    principal_interval,
    principal_lattice,
    principal_location,
    skeleton,
    subcrystals,
    upper_parameter,
)

import types as _types

# the names above, less the submodules that importing them binds
__all__ = [
    name for name in dir() if not name.startswith("_")
    and not isinstance(globals()[name], _types.ModuleType)
]
__version__ = "0.1.0"
