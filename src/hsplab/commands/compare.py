"""`compare`: Gassmann-equivalence verdicts and D(H, K) for two subgroups."""

from __future__ import annotations

import argparse
import time

from .. import lab, qfs
from ..errors import InvariantError, PreconditionError
from ..radical import frac_text
from . import add_limits

HELP = "Gassmann-equivalence verdicts and D(H,K) for two subgroups"


def add_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--parent", help="parent group (default: catalog-implied, else symmetric:n)")
    add_limits(p, "degree", "order", "index")


def run(args) -> dict:
    # the group layer (numpy) is imported here, so `-h` does not load it
    from .. import coset

    t0 = time.perf_counter()
    src_a = lab.resolve(args.a)
    src_b = lab.resolve(args.b)
    if src_a.degree != src_b.degree:
        raise PreconditionError("subgroups act on different degrees")
    n = src_a.degree
    if args.parent:
        parent, spec = lab.resolve(args.parent), None
    else:
        implied_a, implied_b = src_a.parent, src_b.parent
        if implied_a is not None and implied_b is not None and implied_a.name == implied_b.name:
            parent, spec = implied_a, "(implied by catalog)"
        else:
            parent, spec = lab.resolve_catalog(f"symmetric:{n}"), f"symmetric:{n}"
    # refuse before any chain is built; a mismatch, or an order that does not
    # divide |G|, is left to gassmann_test to report
    if parent.degree == n and all(parent.order % s.order == 0 for s in (src_a, src_b)):
        for s in (src_a, src_b):
            coset.check_action_bounds(
                n, parent.order, s.order, args.order_limit, args.index_limit
            )
    report_g = coset.gassmann_test(
        parent.group,
        src_a.group,
        src_b.group,
        order_limit=args.order_limit,
        index_limit=args.index_limit,
    )
    if not report_g.consistent:
        verdicts = {
            "class_counts_equal": report_g.class_counts_equal,
            "perm_chars_equal": report_g.perm_chars_equal,
        }
        if report_g.profile_distance is not None:
            verdicts["profile_distance_zero"] = report_g.profile_distance == 0
        raise InvariantError(
            "Gassmann conditions disagree: "
            + ", ".join(f"{name}={str(value).lower()}" for name, value in verdicts.items())
        )
    if n > args.degree_limit:
        sn_distance = None
    else:
        sn_distance = qfs.d_between(
            n, lab.profile_of(src_a, args.order_limit), lab.profile_of(src_b, args.order_limit)
        )
    # D(H, K) by the class tables' censuses and by the profiles, analytic for
    # catalog inputs: two routes to one number
    table_distance = report_g.profile_distance
    if table_distance is not None and sn_distance is not None and table_distance != sn_distance:
        raise InvariantError(
            f"D(H, K) routes disagree: {frac_text(table_distance)} from the class tables, "
            f"{frac_text(sn_distance)} from the profiles"
        )
    # D(H, K) = 0 means H and K meet every class of S_n equally, which
    # Gassmann equivalence in any parent G implies; the converse holds for
    # G = S_n alone, where `consistent` already holds the two equal
    distance = table_distance if sn_distance is None else sn_distance
    distance_zero = None if distance is None else distance == 0
    if report_g.class_counts_equal and distance_zero is False:
        raise InvariantError(
            f"H and K meet every class of G equally, yet D(H, K) = {frac_text(distance)}"
        )
    return {
        "command": "compare",
        "a": src_a.describe(),
        "b": src_b.describe(),
        "parent": parent.describe()
        if spec is None
        else {"spec": spec, "degree": n, "order": str(parent.order)},
        "gassmann": report_g.serialize(),
        "sn_profile_distance": None if sn_distance is None else frac_text(sn_distance),
        "distance_zero": distance_zero,
        "wall_time_s": round(time.perf_counter() - t0, 6),
    }
