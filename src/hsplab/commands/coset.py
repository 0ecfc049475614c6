"""`coset`: rank, subdegrees and fixed-point bounds of G on G/H."""

from __future__ import annotations

import argparse
import time

from .. import lab
from ..errors import InvariantError
from ..radical import frac_text
from . import add_c, add_limits, check_c

HELP = "rank, subdegrees, and fixed-point bounds of G on G/H"


def add_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("parent")
    p.add_argument("subgroup")
    add_c(p)
    add_limits(p, "order", "index")


def run(args) -> dict:
    # the group layer (numpy) is imported here, so `-h` does not load it
    from .. import coset

    t0 = time.perf_counter()
    check_c(args.c)
    parent = lab.resolve(args.parent)
    sub = lab.resolve(args.subgroup)
    # refuse before any chain is built; a mismatch, or an order that does not
    # divide |G|, is left to coset_action to report
    if parent.degree == sub.degree and parent.order % sub.order == 0:
        coset.check_action_bounds(
            sub.degree, parent.order, sub.order, args.order_limit, args.index_limit
        )
    ca = coset.coset_action(parent.group, sub.group, args.index_limit, args.order_limit)
    rr = coset.rank_subdegrees(ca)
    report = {
        "command": "coset",
        "parent": parent.describe(),
        "subgroup": sub.describe(),
        "index": ca.index,
        "rank_subdegrees": rr.serialize(),
        "class_identity_holds": coset.class_fixpoint_identity_holds(ca),
        "avg_subdegree": coset.avg_subdegree_verdict(ca, args.c).serialize(),
    }
    if sub.order >= 2:
        b1, b2 = coset.fixpoint_bounds(ca)
        report["fixpoint_bounds"] = {"bound_i": frac_text(b1), "bound_ii": frac_text(b2)}
    if not report["class_identity_holds"]:
        raise InvariantError(
            "class identity violated: fix_X(C)|C| and |H cap C||X| disagree on a class C of G"
        )
    report["wall_time_s"] = round(time.perf_counter() - t0, 6)
    return report
