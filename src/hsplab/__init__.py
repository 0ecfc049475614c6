"""Exact weak quantum-Fourier-sampling analysis for hidden subgroups of
permutation groups: distributions over Irr(S_n), total-variation distances,
class-intersection bounds, coset-action invariants, and Gassmann tests.

All probabilities and distances are exact rationals; class-size square-root
bounds are carried symbolically and compared by certified interval
arithmetic.  Hot enumeration loops run on numpy kernels over a packed
stabilizer chain.

The names below are resolved on first access (PEP 562), so ``import hsplab``
loads no submodule, and numpy is imported only once a group is built.
"""

import importlib

__version__ = "0.1.0"

# exported name -> home module
_EXPORTS = {
    **dict.fromkeys(
        (
            "CosetAction",
            "GassmannReport",
            "avg_subdegree_verdict",
            "coset_action",
            "fix_in_X",
            "fixpoint_bounds",
            "gassmann_test",
            "permutation_character",
            "rank_subdegrees",
        ),
        "coset",
    ),
    "mn_character": "checks",
    **dict.fromkeys(
        (
            "babai_check",
            "club_check",
            "is_primitive",
            "is_transitive",
            "liebeck_report",
            "minimal_blocks",
            "minimal_degree",
            "orbits",
            "poly_subgroup_verdict",
        ),
        "paper",
    ),
    **dict.fromkeys(
        ("HspError", "InvariantError", "LimitExceeded", "ParseError", "PreconditionError"),
        "errors",
    ),
    **dict.fromkeys(
        (
            "block_group_profile",
            "class_sandwich_check",
            "product_profile",
            "resolve_catalog",
            "support_census",
            "symmetric_profile",
            "young_profile",
        ),
        "lab",
    ),
    **dict.fromkeys(
        ("class_sums", "dimension", "orthogonality_check", "partitions"),
        "characters",
    ),
    **dict.fromkeys(("ClassProfile", "sn_class_size"), "profile"),
    **dict.fromkeys(
        (
            "PermGroup",
            "class_profile",
            "element_class_map",
            "load_group_file",
            "parse_cycles",
            "parse_group_file",
        ),
        "perm",
    ),
    **dict.fromkeys(
        (
            "BoundsReport",
            "IrrepDistribution",
            "cmin_bounds",
            "d_between",
            "dh_exact",
            "thm1_bounds",
            "verdict",
            "weak_distribution",
        ),
        "qfs",
    ),
    "SqrtSum": "radical",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    home = _EXPORTS.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
