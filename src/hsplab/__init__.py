"""Exact weak quantum-Fourier-sampling analysis for hidden subgroups of
permutation groups: distributions over Irr(S_n), total-variation distances,
class-intersection bounds, coset-action invariants, and Gassmann tests.

All probabilities and distances are exact rationals; class-size square-root
bounds are carried symbolically and compared by certified interval
arithmetic.  Hot enumeration loops run on numpy kernels over a packed
stabilizer chain.
"""

from .coset import (
    CosetAction,
    GassmannReport,
    avg_subdegree_verdict,
    coset_action,
    fix_in_X,
    fixpoint_bounds,
    gassmann_test,
    permutation_character,
    rank_subdegrees,
)
from .errors import HspError, InvariantError, LimitExceeded, ParseError, PreconditionError
from .lab import (
    block_group_profile,
    babai_check,
    class_sandwich_check,
    club_check,
    liebeck_report,
    product_profile,
    resolve_catalog,
    support_census,
    symmetric_profile,
    young_profile,
)
from .characters import (
    class_sums,
    dimension,
    mn_character,
    orthogonality_check,
    partitions,
)
from .perm import (
    ClassProfile,
    PermGroup,
    Permutation,
    class_profile,
    element_class_map,
    is_primitive,
    is_transitive,
    load_group_file,
    minimal_blocks,
    minimal_degree,
    orbits,
    parse_cycles,
    parse_group_file,
    sn_class_size,
)
from .qfs import (
    BoundsReport,
    IrrepDistribution,
    cmin_bounds,
    d_between,
    dh_exact,
    plancherel,
    poly_subgroup_verdict,
    prop_upper,
    thm1_bounds,
    verdict,
    weak_distribution,
)
from .radical import SqrtSum

__version__ = "0.1.0"
