"""Batch command-line front end.

Subcommands: analyze, compare, sweep, coset, check, each a module of
`hsplab.commands` that a job imports only when argv names it.  This module
is the process entry: the parser, the dispatch and the exit codes.  A
group input, a group file or a catalog name, resolves through `lab.resolve`
to one catalog entry, whose census `lab.profile_of` reads.  Reports are JSON
(CSV optional for sweep tables) and byte-identical across runs, except for
the wall_time_s field.  Exit codes: 0 success, 1 internal inconsistency
(two routes to one value disagree, an identity fails, or a `check` suite
does not pass), 2 parse error, 3 limit exceeded, 4 mathematical
precondition violated.

Verdicts are reports at the fixed input degree, not asymptotic claims; every
threshold states its (log base, c) convention explicitly.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import importlib
import json
import os
import sys

from .errors import HspError, LimitExceeded, ParseError, PreconditionError

# Every subcommand runs the character layer, so loading it here costs a job
# nothing; an in-process replay of jobs (perfbench's per-layer run) reads its
# cache counters before the first job.
from . import characters  # noqa: F401

# hsplab calls no BLAS routine, so numpy need not start an OpenBLAS worker pool.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# the subcommands, each a module of `hsplab.commands`, in the order help lists them
_COMMANDS = ("analyze", "compare", "coset", "sweep", "check")


def _emit(text: str, args) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser: every subcommand, or just the subcommand `only`.

    Each subcommand's module is imported as its subparser is built, so a
    parser for `only` imports no other subcommand's code.  For an argv whose
    first word is `only`, both parse and print alike: the one-subparser build
    pins its usage line to the full list of subcommands.
    """
    top = argparse.ArgumentParser(
        prog="hsplab",
        description="Exact weak Fourier-sampling distributions and bounds for "
        "hidden subgroups of permutation groups.",
    )
    # a metavar would also rename `cmd` in the errors of the full parser
    listed = None if only is None else "{" + ",".join(_COMMANDS) + "}"
    sub = top.add_subparsers(dest="cmd", required=True, metavar=listed)
    for name in _COMMANDS:
        if only in (None, name):
            command = importlib.import_module(f".commands.{name}", __package__)
            p = sub.add_parser(name, help=command.HELP)
            command.add_arguments(p)
            p.add_argument("--output", help="write the report to this file instead of stdout")
            p.set_defaults(fn=command.run)
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
    # a report is a dict, printed as JSON, or text (a sweep's CSV table)
    text = report if isinstance(report, str) else json.dumps(report, indent=2) + "\n"
    _emit(text, args)
    # a `check` suite that failed exits 1 after its report is out
    if isinstance(report, dict) and report.get("all_passed") is False:
        print(f"error: the {report['suite']} suite did not pass", file=sys.stderr)
        return 1
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

    The cyclic garbage collector is off for the whole job: a job leaves a
    few hundred unreachable objects whatever its input (argparse's parser
    and the like), and the process ends with the job, so a collector pass
    would only cost time.  `main` leaves the collector alone.
    """
    gc.disable()
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
