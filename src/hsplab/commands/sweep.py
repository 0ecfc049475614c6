"""`sweep`: a table of (n, |H|, m(H), D_H, bounds) over a catalog family."""

from __future__ import annotations

import argparse
import io
import time

from .. import lab, qfs
from ..errors import LimitExceeded, ParseError, PreconditionError
from ..radical import decimal_text, frac_text
from . import add_limits

HELP = "tables of (n, |H|, m(H), D_H, bounds) over a family"

_FIELDS = ["name", "n", "order", "min_degree", "dh", "dh_decimal", "lower", "upper_decimal"]


def add_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", choices=["cyclic", "block", "young"], required=True)
    p.add_argument("--start", type=int, required=True)
    p.add_argument("--end", type=int, required=True)
    p.add_argument("--r", type=int, default=2, help="block size for --family block")
    p.add_argument("--fixed-part", type=int, default=2, help="second part for --family young")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    add_limits(p, "degree", "order")


def _entries(args):
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


def _row(entry: lab.CatalogEntry, order_limit: int) -> dict:
    spec, n = entry.name, entry.degree
    prof = lab.profile_of(entry, order_limit)
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


def _csv_text(rows: list) -> str:
    import csv

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=_FIELDS)
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _check_flags(args) -> None:
    """Refuse, naming the flag, a value that can build no catalog name: a
    negative --start, or a --r or --fixed-part below 1 for the family that
    reads it."""
    least = [("--start", args.start, 0)]
    if args.family == "block":
        least.append(("--r", args.r, 1))
    elif args.family == "young":
        least.append(("--fixed-part", args.fixed_part, 1))
    for flag, value, bound in least:
        if value < bound:
            raise ParseError(f"{flag} must be at least {bound}, got {value}")


def run(args) -> dict | str:
    t0 = time.perf_counter()
    _check_flags(args)
    if args.end < args.start:
        rows = []
    else:
        # refuse before any row is computed; a family's degree grows with its
        # row, so the first row over the limit ends the list
        entries = []
        for spec in _entries(args):
            entry = lab.resolve_catalog(spec)
            if entry.degree > args.degree_limit:
                raise LimitExceeded(
                    f"sweep row {entry.name}: degree {entry.degree} exceeds limit "
                    f"{args.degree_limit}"
                )
            entries.append(entry)
        rows = [_row(entry, args.order_limit) for entry in entries]
    if args.format == "csv":
        return _csv_text(rows)
    return {
        "command": "sweep",
        "family": args.family,
        "rows": rows,
        "wall_time_s": round(time.perf_counter() - t0, 6),
    }
