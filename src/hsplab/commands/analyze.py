"""`analyze`: the distribution, D_H and every bound for one subgroup of S_n."""

from __future__ import annotations

import argparse
import math
import time
from fractions import Fraction

from .. import lab, qfs
from ..characters import _dimension, partitions
from ..errors import HspError, InvariantError, LimitExceeded, PreconditionError
from ..radical import DECIMAL_DIGITS, decimal_text, frac_text
from . import add_c, add_limits, check_c

HELP = "distribution, D_H, and all bounds for one subgroup of S_n"


def add_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("source", help="group file or catalog name (e.g. cyclic:2@3, block:4x2)")
    add_c(p, "verdict exponent in (log2 n!)^(-c)")
    p.add_argument("--full-distribution", action="store_true")
    add_limits(p, "degree", "order")


def run(args) -> dict:
    t0 = time.perf_counter()
    check_c(args.c)
    src = lab.resolve(args.source)
    n = src.degree
    if n > args.degree_limit:
        raise LimitExceeded(
            f"degree {n} exceeds the character-analysis limit {args.degree_limit}"
        )
    prof = lab.profile_of(src, args.order_limit)
    if prof.order < 2:
        raise PreconditionError(
            "the trivial subgroup is degenerate here: D_H = 0 and the strict "
            "lower bound does not apply; nothing to analyze"
        )
    dist = qfs.weak_distribution(n, prof)
    thm1 = qfs.thm1_bounds(n, prof)
    dh = thm1.exact_value
    # both distributions have unit mass, so their L1 distance is twice the
    # mass by which P_H exceeds Plancherel: a second code path to D_H
    excess = sum(max(w - _dimension(lam) ** 2, 0) for lam, w in dist.weights.items())
    dh_excess = Fraction(2 * excess, math.factorial(n))
    if dh != dh_excess:
        raise HspError(
            f"D_H routes disagree: dh_exact gives {frac_text(dh)}, twice the mass by which "
            f"P_H exceeds the Plancherel distribution gives {frac_text(dh_excess)}"
        )
    cmin = qfs.cmin_bounds(n, prof)
    # the corollary's bracket follows from Theorem 1's term by term
    if not (cmin.report.lower < dh and cmin.report.upper >= dh):
        raise InvariantError(
            f"corollary violated: D_H = {frac_text(dh)} is not in the bracket "
            "1/(|H||C_min|) < D_H <= (|H|-1)|C_min|^(-1/2)"
        )
    census = lab.support_census(prof)
    # weights share the denominator n!, so the likeliest irrep has the
    # largest weight; ties go to the larger partition
    top = max(dist.weights.items(), key=lambda kv: (kv[1], kv[0]))[0]
    report = {
        "command": "analyze",
        "source": src.describe(),
        "subgroup_order": str(prof.order),
        "num_profile_types": len(prof.counts),
        "minimal_degree": prof.minimal_support(),
        "support_census": census.serialize(),
        "distribution_summary": {
            "num_irreps": len(partitions(n)),
            "max_prob_partition": list(top),
            "max_prob": frac_text(dist.prob(top)),
            "prob_trivial": frac_text(dist.prob((n,))),
            "prob_sign": frac_text(dist.prob((1,) * n)),
        },
        "dh": frac_text(dh),
        "dh_decimal": decimal_text(dh),
        "decimal_precision": DECIMAL_DIGITS,
        "routes_agree": dh == dh_excess,
        "thm1_bounds": thm1.serialize(),
        "cmin_bounds": cmin.serialize(),
        "prop_upper": thm1.upper.serialize(DECIMAL_DIGITS),
        "verdict": {
            "log_base": 2,
            "c": args.c,
            "threshold": qfs.distinguishability_threshold(math.factorial(n), args.c),
            "distinguishable": qfs.verdict(dh, math.factorial(n), args.c),
            "note": "report at fixed n, not an asymptotic claim",
        },
    }
    if args.full_distribution:
        report["distribution"] = dist.serialize()
    report["wall_time_s"] = round(time.perf_counter() - t0, 6)
    return report
