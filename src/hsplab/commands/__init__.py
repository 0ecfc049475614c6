"""The CLI's subcommands, one module each: analyze, compare, coset, sweep and
check.  A module holds its `HELP` line, `add_arguments(parser)` and
`run(args)`, which returns the report: a dict printed as JSON, or text
printed as it is.  `hsplab.cli` imports only the module of the subcommand
that argv names, so a job compiles no other subcommand's code.

No module here imports `hsplab.cli`: under `python -m hsplab.cli` that
module runs as `__main__`, and importing it would run it a second time.
"""

from __future__ import annotations

import argparse
import math

from ..errors import ParseError
from ..profile import DEGREE_LIMIT, ENUMERATION_LIMIT, INDEX_LIMIT


def add_limits(p: argparse.ArgumentParser, *names: str) -> None:
    """A `--<name>-limit` flag for each limit that the subcommand reads."""
    defaults = {"degree": DEGREE_LIMIT, "order": ENUMERATION_LIMIT, "index": INDEX_LIMIT}
    for name in names:
        p.add_argument(f"--{name}-limit", type=int, default=defaults[name])


def add_c(p: argparse.ArgumentParser, help: str | None = None) -> None:
    """The verdict exponent `--c`, which `check_c` validates."""
    p.add_argument("--c", type=float, default=1.0, help=help)


def check_c(c: float) -> None:
    """Refuse a verdict exponent that a JSON report cannot hold: nan, or an
    infinity (which a literal such as 1e400 parses to)."""
    if not math.isfinite(c):
        raise ParseError(f"--c must be a finite number, got {c}")
