"""Batch command-line front end.

Subcommands: analyze, compare, sweep, coset, check.  A group input, a group
file or a catalog name, resolves through `lab.resolve` to one catalog entry,
whose census `lab.profile_of` reads.  Reports are JSON (CSV optional for
sweep tables) and byte-identical across runs, except for the wall_time_s
field.  Exit codes: 0 success, 1 internal inconsistency (two routes to one
value disagree), 2 parse error, 3 limit exceeded, 4 mathematical
precondition violated.

Verdicts are reports at the fixed input degree, not asymptotic claims; every
threshold states its (log base, c) convention explicitly.
"""

from __future__ import annotations

import argparse
import atexit
import io
import json
import math
import os
import sys
import time

from . import lab, qfs
from .errors import HspError, LimitExceeded, ParseError, PreconditionError
from .lab import DEGREE_LIMIT
from .profile import ENUMERATION_LIMIT, INDEX_LIMIT
from .radical import DECIMAL_DIGITS, decimal_text, frac_text

# hsplab calls no BLAS routine, so numpy need not start an OpenBLAS worker pool.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def _emit(text: str, args) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check_c(c: float) -> None:
    """Refuse a verdict exponent that a JSON report cannot hold: nan, or an
    infinity (which a literal such as 1e400 parses to)."""
    if not math.isfinite(c):
        raise ParseError(f"--c must be a finite number, got {c}")


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def cmd_analyze(args) -> dict:
    t0 = time.perf_counter()
    _check_c(args.c)
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
        "minimal_degree": prof.minimal_support(),
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
            coset_mod.check_action_bounds(
                n, parent.order, s.order, args.order_limit, args.index_limit
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
            n, lab.profile_of(src_a, args.order_limit), lab.profile_of(src_b, args.order_limit)
        )
    report = {
        "command": "compare",
        "a": src_a.describe(),
        "b": src_b.describe(),
        "parent": parent.describe()
        if spec is None
        else {"spec": spec, "degree": n, "order": str(parent.order)},
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
    _check_c(args.c)
    parent = lab.resolve(args.parent)
    sub = lab.resolve(args.subgroup)
    # refuse before any chain is built; a mismatch, or an order that does not
    # divide |G|, is left to coset_action to report
    if parent.degree == sub.degree and parent.order % sub.order == 0:
        coset_mod.check_action_bounds(
            sub.degree, parent.order, sub.order, args.order_limit, args.index_limit
        )
    ca = coset_mod.coset_action(parent.group, sub.group, args.index_limit, args.order_limit)
    rr = coset_mod.rank_subdegrees(ca)
    report = {
        "command": "coset",
        "parent": parent.describe(),
        "subgroup": sub.describe(),
        "index": ca.index,
        "rank_subdegrees": rr.serialize(),
        "class_identity_holds": coset_mod.class_fixpoint_identity_holds(ca),
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
        # refuse before any row is computed; a family's degree grows with its
        # row, so the first row over the limit ends the list
        entries = []
        for spec in _sweep_entries(args):
            entry = lab.resolve_catalog(spec)
            if entry.degree > args.degree_limit:
                raise LimitExceeded(
                    f"sweep row {entry.name}: degree {entry.degree} exceeds limit "
                    f"{args.degree_limit}"
                )
            entries.append(entry)

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
    import csv

    fields = ["name", "n", "order", "min_degree", "dh", "dh_decimal", "lower", "upper_decimal"]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields)
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# check suites
# ---------------------------------------------------------------------------


def cmd_check(args) -> dict:
    from .checks import SUITES

    t0 = time.perf_counter()
    report = SUITES[args.suite](args)
    return {"command": "check", **report, "wall_time_s": round(time.perf_counter() - t0, 6)}


# ---------------------------------------------------------------------------
# argument parsing and entry point
# ---------------------------------------------------------------------------


def _add_limits(p: argparse.ArgumentParser, *names: str) -> None:
    """A `--<name>-limit` flag for each limit that the subcommand reads."""
    defaults = {"degree": DEGREE_LIMIT, "order": ENUMERATION_LIMIT, "index": INDEX_LIMIT}
    for name in names:
        p.add_argument(f"--{name}-limit", type=int, default=defaults[name])


def _analyze_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("source", help="group file or catalog name (e.g. cyclic:2@3, block:4x2)")
    p.add_argument("--c", type=float, default=1.0, help="verdict exponent in (log2 n!)^(-c)")
    p.add_argument("--full-distribution", action="store_true")
    _add_limits(p, "degree", "order")
    p.set_defaults(fn=cmd_analyze)


def _compare_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--parent", help="parent group (default: catalog-implied, else symmetric:n)")
    _add_limits(p, "degree", "order", "index")
    p.set_defaults(fn=cmd_compare)


def _coset_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("parent")
    p.add_argument("subgroup")
    p.add_argument("--c", type=float, default=1.0)
    _add_limits(p, "order", "index")
    p.set_defaults(fn=cmd_coset)


def _sweep_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", choices=["cyclic", "block", "young"], required=True)
    p.add_argument("--start", type=int, required=True)
    p.add_argument("--end", type=int, required=True)
    p.add_argument("--r", type=int, default=2, help="block size for --family block")
    p.add_argument("--fixed-part", type=int, default=2, help="second part for --family young")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    _add_limits(p, "degree", "order")
    p.set_defaults(fn=cmd_sweep)


def _check_args(p: argparse.ArgumentParser) -> None:
    from .checks import SUITES

    p.add_argument("--suite", choices=list(SUITES), required=True)
    p.add_argument("--max-n", type=int, default=8)
    p.add_argument("--actions", type=int, default=20)
    p.add_argument("--seed", type=int, default=2024)
    _add_limits(p, "degree", "order", "index")
    p.set_defaults(fn=cmd_check)


# subcommand -> (help line, adds its own arguments)
_COMMANDS = {
    "analyze": ("distribution, D_H, and all bounds for one subgroup of S_n", _analyze_args),
    "compare": ("Gassmann-equivalence verdicts and D(H,K) for two subgroups", _compare_args),
    "coset": ("rank, subdegrees, and fixed-point bounds of G on G/H", _coset_args),
    "sweep": ("tables of (n, |H|, m(H), D_H, bounds) over a family", _sweep_args),
    "check": ("orthogonality / class-size sandwich / Frobenius suites", _check_args),
}


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser: every subcommand, or just the subcommand `only`.

    For an argv whose first word is `only`, both parse and print alike: the
    one-subparser build pins its usage line to the full list of subcommands.
    """
    top = argparse.ArgumentParser(
        prog="hsplab",
        description="Exact weak Fourier-sampling distributions and bounds for "
        "hidden subgroups of permutation groups.",
    )
    # a metavar would also rename `cmd` in the errors of the full parser
    listed = None if only is None else "{" + ",".join(_COMMANDS) + "}"
    sub = top.add_subparsers(dest="cmd", required=True, metavar=listed)
    for name, (help_line, add_args) in _COMMANDS.items():
        if only in (None, name):
            p = sub.add_parser(name, help=help_line)
            add_args(p)
            p.add_argument("--output", help="write the report to this file instead of stdout")
    return top


_EXIT_CODES = ((ParseError, 2), (LimitExceeded, 3), (PreconditionError, 4), (HspError, 1))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a job builds only its own subcommand's parser; -h, no subcommand and
    # an unknown one get all five
    only = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(only).parse_args(argv)
    try:
        report = args.fn(args)
    except HspError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))
    text = _csv_text(report) if isinstance(report, list) else json.dumps(report, indent=2) + "\n"
    _emit(text, args)
    return 0


def run() -> int:
    """The process entry of `python -m hsplab.cli` and the `hsplab` script.

    Runs `main`, then ends the process with `os._exit` once the atexit
    handlers have run and stdout and stderr are flushed: the report is out,
    so the interpreter's teardown (a last GC pass, freeing every object,
    unloading numpy) would only cost time.  Returns the exit status instead,
    for the caller to `sys.exit` with, where that teardown still has work to
    do: when a flush fails (the interpreter reports it, as on a closed pipe),
    and when the caller is not the process's `__main__` module, as under
    `python -m cProfile -m hsplab.cli`, whose report follows the run.
    """
    try:
        status = main()
    except SystemExit as exc:  # argparse's help (0) and parse errors (2)
        status = exc.code or 0
    if sys._getframe(1).f_globals is not sys.modules["__main__"].__dict__:
        return status
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError):  # a closed pipe or stream
        return status
    os._exit(status)


if __name__ == "__main__":
    sys.exit(run())
