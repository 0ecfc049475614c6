"""`check`: the orthogonality, class-size sandwich and Frobenius suites."""

from __future__ import annotations

import argparse
import time

from ..checks import SUITES
from . import add_limits

HELP = "orthogonality / class-size sandwich / Frobenius suites"


def add_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--suite", choices=list(SUITES), required=True)
    p.add_argument("--max-n", type=int, default=8)
    p.add_argument("--actions", type=int, default=20)
    p.add_argument("--seed", type=int, default=2024)
    add_limits(p, "degree", "order", "index")


def run(args) -> dict:
    t0 = time.perf_counter()
    report = SUITES[args.suite](args)
    return {"command": "check", **report, "wall_time_s": round(time.perf_counter() - t0, 6)}
