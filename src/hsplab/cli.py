"""Batch command-line front end.

Subcommands: analyze, compare, sweep, coset, check.  Reports are JSON (CSV
optional for sweep tables) and byte-identical across runs, except for the
wall_time_s field.  Exit codes: 0 success, 1 internal inconsistency (two
routes to one value disagree), 2 parse error, 3 limit exceeded, 4 mathematical
precondition violated.

Verdicts are reports at the fixed input degree, not asymptotic claims; every
threshold states its (log base, c) convention explicitly.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import random
import sys
import time
from typing import TYPE_CHECKING

from . import lab, qfs
from .errors import HspError, InvariantError, LimitExceeded, ParseError, PreconditionError
from .lab import DEGREE_LIMIT
from .profile import ENUMERATION_LIMIT, INDEX_LIMIT, ClassProfile, check_index
from .radical import DECIMAL_DIGITS, decimal_text, frac_text

if TYPE_CHECKING:
    from .perm import PermGroup

# hsplab calls no BLAS routine, so numpy need not start an OpenBLAS worker pool.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


class _Source:
    """A group input: catalog name or group file.

    A group file is parsed, and its chain built, at once.  A catalog entry
    builds its group on first use, so `degree` and `order` of a catalog
    input cost no chain.
    """

    def __init__(self, spec: str):
        self.spec = spec
        self.entry = None
        if os.path.exists(spec):
            from .perm import load_group_file

            self._group = load_group_file(spec)
            with open(spec, "rb") as fh:
                self.digest = hashlib.sha256(fh.read()).hexdigest()
            self.kind = "file"
        else:
            try:
                self.entry = lab.resolve_catalog(spec)
            except ParseError:
                raise ParseError(
                    f"{spec!r} is neither an existing group file nor a catalog name"
                ) from None
            self.digest = hashlib.sha256(f"catalog:{spec}".encode()).hexdigest()
            self.kind = "catalog"

    @property
    def group(self) -> PermGroup:
        return self._group if self.entry is None else self.entry.group

    @property
    def degree(self) -> int:
        return self._group.degree if self.entry is None else self.entry.degree

    @property
    def order(self) -> int:
        return self._group.order if self.entry is None else self.entry.order

    def profile(self, limit: int = ENUMERATION_LIMIT) -> ClassProfile:
        if self.entry is not None:
            return lab.profile_of(self.entry, limit)
        from .perm import class_profile

        return class_profile(self.group, limit)

    def describe(self) -> dict:
        return {
            "spec": self.spec,
            "kind": self.kind,
            "digest": self.digest,
            "degree": self.degree,
            "order": str(self.order),
        }


def _emit(text: str, args) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def cmd_analyze(args) -> dict:
    t0 = time.perf_counter()
    src = _Source(args.source)
    n = src.degree
    if n > args.degree_limit:
        raise LimitExceeded(
            f"degree {n} exceeds the character-analysis limit {args.degree_limit}"
        )
    prof = src.profile(args.order_limit)
    if prof.order < 2:
        raise PreconditionError(
            "the trivial subgroup is degenerate here: D_H = 0 and the strict "
            "lower bound does not apply; nothing to analyze"
        )
    dist = qfs.weak_distribution(n, prof)
    thm1 = qfs.thm1_bounds(n, prof)
    dh = thm1.exact_value
    dh_l1 = dist.l1(qfs.plancherel(n))
    if dh != dh_l1:
        raise HspError(
            f"D_H routes disagree: dh_exact gives {frac_text(dh)}, the L1 distance "
            f"to the Plancherel distribution gives {frac_text(dh_l1)}"
        )
    cmin = qfs.cmin_bounds(n, prof)
    census = lab.support_census(prof)
    # weights share the denominator n!, so the likeliest irrep has the
    # largest weight; ties go to the larger partition
    top = max(dist.weights.items(), key=lambda kv: (kv[1], kv[0]))[0]
    report = {
        "command": "analyze",
        "source": src.describe(),
        "subgroup_order": str(prof.order),
        "num_profile_types": len(prof.counts),
        "minimal_degree": census.minimal_support() if census.counts else None,
        "support_census": census.serialize(),
        "distribution_summary": {
            "num_irreps": len(dist.weights),
            "max_prob_partition": list(top),
            "max_prob": frac_text(dist.prob(top)),
            "prob_trivial": frac_text(dist.prob((n,))),
            "prob_sign": frac_text(dist.prob((1,) * n)),
        },
        "dh": frac_text(dh),
        "dh_decimal": decimal_text(dh),
        "decimal_precision": DECIMAL_DIGITS,
        "routes_agree": dh == dh_l1,
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


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def cmd_compare(args) -> dict:
    from . import coset as coset_mod

    t0 = time.perf_counter()
    src_a = _Source(args.a)
    src_b = _Source(args.b)
    if src_a.degree != src_b.degree:
        raise PreconditionError("subgroups act on different degrees")
    n = src_a.degree
    if args.parent:
        parent = _Source(args.parent)
        parent_desc = parent.describe()
    else:
        implied_a = src_a.entry.parent if src_a.entry else None
        implied_b = src_b.entry.parent if src_b.entry else None
        if implied_a is not None and implied_b is not None and implied_a.name == implied_b.name:
            parent, spec = implied_a, "(implied by catalog)"
        else:
            parent, spec = lab.resolve_catalog(f"symmetric:{n}"), f"symmetric:{n}"
        parent_desc = {"spec": spec, "degree": n, "order": str(parent.order)}
    # refuse before any chain is built; a mismatch, or an order that does not
    # divide |G|, is left to gassmann_test to report
    if parent.degree == n and all(parent.order % s.order == 0 for s in (src_a, src_b)):
        coset_mod.check_gassmann_bounds(
            n, parent.order, src_a.order, src_b.order, args.order_limit, args.index_limit
        )
    report_g = coset_mod.gassmann_test(
        parent.group,
        src_a.group,
        src_b.group,
        order_limit=args.order_limit,
        index_limit=args.index_limit,
    )
    if n > args.degree_limit:
        sn_distance = None
    else:
        sn_distance = qfs.d_between(
            n, src_a.profile(args.order_limit), src_b.profile(args.order_limit)
        )
    report = {
        "command": "compare",
        "a": src_a.describe(),
        "b": src_b.describe(),
        "parent": parent_desc,
        "gassmann": report_g.serialize(),
        "sn_profile_distance": None if sn_distance is None else frac_text(sn_distance),
        "distance_zero": report_g.class_counts_equal,
        "wall_time_s": round(time.perf_counter() - t0, 6),
    }
    return report


# ---------------------------------------------------------------------------
# coset
# ---------------------------------------------------------------------------


def cmd_coset(args) -> dict:
    from . import coset as coset_mod

    t0 = time.perf_counter()
    parent = _Source(args.parent)
    sub = _Source(args.subgroup)
    # refuse before any chain is built; a mismatch, or an order that does not
    # divide |G|, is left to coset_action to report
    if parent.degree == sub.degree and parent.order % sub.order == 0:
        check_index(parent.order // sub.order, args.index_limit)
    ca = coset_mod.coset_action(parent.group, sub.group, args.index_limit)
    rr = coset_mod.rank_subdegrees(ca)
    report = {
        "command": "coset",
        "parent": parent.describe(),
        "subgroup": sub.describe(),
        "index": ca.index,
        "rank_subdegrees": rr.serialize(),
        "class_identity_holds": coset_mod.class_fixpoint_identity_holds(ca, args.order_limit),
        "avg_subdegree": coset_mod.avg_subdegree_verdict(ca, args.c).serialize(),
    }
    if sub.order >= 2:
        b1, b2 = coset_mod.fixpoint_bounds(ca)
        report["fixpoint_bounds"] = {"bound_i": frac_text(b1), "bound_ii": frac_text(b2)}
    report["wall_time_s"] = round(time.perf_counter() - t0, 6)
    return report


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _sweep_entries(args):
    if args.family == "cyclic":
        for k in range(args.start, args.end + 1):
            yield f"cyclic:{k}@{k}"
    elif args.family == "block":
        for m in range(args.start, args.end + 1):
            yield f"block:{m}x{args.r}"
    else:  # young: parts [n - j, j] for n in range
        j = args.fixed_part
        for n in range(args.start, args.end + 1):
            if n - j < 1:
                raise PreconditionError(f"young sweep needs n-{j} >= 1, got n={n}")
            yield f"young:{n - j}+{j}"


def cmd_sweep(args) -> dict | list:
    t0 = time.perf_counter()
    if args.end < args.start:
        rows = []
    else:
        entries = [lab.resolve_catalog(spec) for spec in _sweep_entries(args)]
        for entry in entries:  # refuse before any row is computed
            if entry.degree > args.degree_limit:
                raise LimitExceeded(
                    f"sweep row {entry.name}: degree {entry.degree} exceeds limit "
                    f"{args.degree_limit}"
                )

        def one(entry: lab.CatalogEntry) -> dict:
            spec, n = entry.name, entry.degree
            prof = lab.profile_of(entry, args.order_limit)
            if prof.order < 2:
                raise PreconditionError(f"sweep row {spec}: trivial subgroup")
            bounds = qfs.thm1_bounds(n, prof)
            dh = bounds.exact_value
            return {
                "name": spec,
                "n": n,
                "order": str(prof.order),
                "min_degree": prof.minimal_support(),
                "dh": frac_text(dh),
                "dh_decimal": decimal_text(dh, 12),
                "lower": frac_text(bounds.lower),
                "upper_decimal": bounds.upper.decimal(12),
            }

        rows = [one(entry) for entry in entries]
    if args.format == "csv":
        return rows
    return {
        "command": "sweep",
        "family": args.family,
        "rows": rows,
        "wall_time_s": round(time.perf_counter() - t0, 6),
    }


def _csv_text(rows: list) -> str:
    fields = ["name", "n", "order", "min_degree", "dh", "dh_decimal", "lower", "upper_decimal"]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields)
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# check suites
# ---------------------------------------------------------------------------


def _check_orthogonality(args) -> dict:
    from .characters import ORTHOGONALITY_LIMIT, dimension, orthogonality_check, partitions

    if args.max_n > ORTHOGONALITY_LIMIT:
        raise LimitExceeded(
            f"full-table orthogonality check is capped at n={ORTHOGONALITY_LIMIT}"
        )
    results = []
    ok = True
    for n in range(1, args.max_n + 1):
        rep = orthogonality_check(n)
        square_sum = sum(dimension(lam) ** 2 for lam in partitions(n))
        ok_n = rep.passed and square_sum == math.factorial(n)
        ok = ok and ok_n
        results.append(
            {"n": n, "passed": rep.passed, "sum_d_squared_is_factorial": square_sum == math.factorial(n),
             "failure": rep.failure}
        )
    return {"suite": "orthogonality", "max_n": args.max_n, "all_passed": ok, "results": results}


def _check_sandwich(args) -> dict:
    if args.max_n > args.degree_limit:
        raise LimitExceeded(f"class-size sandwich check is capped at n={args.degree_limit}")
    results = []
    ok = True
    for n in range(1, args.max_n + 1):
        rep = lab.class_sandwich_check(n, limit=args.degree_limit)
        ok = ok and rep.passed
        results.append({"n": n, "passed": rep.passed, "num_types": rep.num_types})
    return {"suite": "sandwich", "max_n": args.max_n, "all_passed": ok, "results": results}


def _random_subgroup(rng: random.Random, G: PermGroup) -> PermGroup:
    from .perm import PermGroup

    k = rng.randint(1, 3)
    gens = [G.random_element(rng) for _ in range(k)]
    return PermGroup(gens, G.degree)


def _check_frobenius(args) -> dict:
    from . import coset as coset_mod
    from .perm import PermGroup

    rng = random.Random(args.seed)
    parents = [PermGroup.symmetric(n) for n in (5, 6, 7, 8)] + [lab.gl32_group(), lab.agl15_group()]
    actions = 0
    attempts = 0
    failures = []
    while actions < args.actions and attempts < 100 * args.actions:
        attempts += 1
        G = parents[rng.randrange(len(parents))]
        H = _random_subgroup(rng, G)
        index = G.order // H.order
        if index > args.index_limit:
            continue
        ca = coset_mod.coset_action(G, H, args.index_limit)
        try:
            coset_mod.rank_subdegrees(ca)  # raises if the Frobenius identity fails
            if not coset_mod.class_fixpoint_identity_holds(ca, args.order_limit):
                failures.append({"parent_order": str(G.order), "subgroup_order": str(H.order)})
        except InvariantError:
            failures.append({"parent_order": str(G.order), "subgroup_order": str(H.order)})
        actions += 1
    return {
        "suite": "frobenius",
        "actions": actions,
        "seed": args.seed,
        "all_passed": not failures,
        "failures": failures,
    }


_SUITES = {
    "orthogonality": _check_orthogonality,
    "sandwich": _check_sandwich,
    "frobenius": _check_frobenius,
}


def cmd_check(args) -> dict:
    t0 = time.perf_counter()
    report = _SUITES[args.suite](args)
    return {"command": "check", **report, "wall_time_s": round(time.perf_counter() - t0, 6)}


# ---------------------------------------------------------------------------
# argument parsing and entry point
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--degree-limit", type=int, default=DEGREE_LIMIT)
    p.add_argument("--order-limit", type=int, default=ENUMERATION_LIMIT)
    p.add_argument("--index-limit", type=int, default=INDEX_LIMIT)
    p.add_argument("--output", help="write the report to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="hsplab",
        description="Exact weak Fourier-sampling distributions and bounds for "
        "hidden subgroups of permutation groups.",
    )
    sub = top.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("analyze", help="distribution, D_H, and all bounds for one subgroup of S_n")
    p.add_argument("source", help="group file or catalog name (e.g. cyclic:2@3, block:4x2)")
    p.add_argument("--c", type=float, default=1.0, help="verdict exponent in (log2 n!)^(-c)")
    p.add_argument("--full-distribution", action="store_true")
    _add_common(p)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("compare", help="Gassmann-equivalence verdicts and D(H,K) for two subgroups")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--parent", help="parent group (default: catalog-implied, else symmetric:n)")
    _add_common(p)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("coset", help="rank, subdegrees, and fixed-point bounds of G on G/H")
    p.add_argument("parent")
    p.add_argument("subgroup")
    p.add_argument("--c", type=float, default=1.0)
    _add_common(p)
    p.set_defaults(fn=cmd_coset)

    p = sub.add_parser("sweep", help="tables of (n, |H|, m(H), D_H, bounds) over a family")
    p.add_argument("--family", choices=["cyclic", "block", "young"], required=True)
    p.add_argument("--start", type=int, required=True)
    p.add_argument("--end", type=int, required=True)
    p.add_argument("--r", type=int, default=2, help="block size for --family block")
    p.add_argument("--fixed-part", type=int, default=2, help="second part for --family young")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    _add_common(p)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("check", help="orthogonality / class-size sandwich / Frobenius suites")
    p.add_argument("--suite", choices=list(_SUITES), required=True)
    p.add_argument("--max-n", type=int, default=8)
    p.add_argument("--actions", type=int, default=20)
    p.add_argument("--seed", type=int, default=2024)
    _add_common(p)
    p.set_defaults(fn=cmd_check)
    return top


_EXIT_CODES = ((ParseError, 2), (LimitExceeded, 3), (PreconditionError, 4), (HspError, 1))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = args.fn(args)
    except HspError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))
    text = _csv_text(report) if isinstance(report, list) else json.dumps(report, indent=2) + "\n"
    _emit(text, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
