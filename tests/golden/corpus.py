"""The golden corpus: CLI cases whose output is pinned by digest.

Each case is an argv line for `hsplab.cli.main`.  Its record in
`cases.json` holds the sha256 of stdout with the `wall_time_s` line removed,
the sha256 of stderr and the exit code.  A token ``@name`` stands for the
group file ``name.grp``, written from ``GROUP_FILES`` into the directory the
case runs in, so a report names the file by that relative path.  Every case
runs with ``COLUMNS=80``, so help text wraps the same on any terminal.

Run as a script from the repository root:

    python tests/golden/corpus.py          # print each case whose digests moved
    python tests/golden/corpus.py --write  # record the corpus anew

The script exits 1 when a case moved and `--write` was not given.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
CASES_FILE = HERE / "cases.json"

# Group files, 1-based cycle notation: the unrelabelled generators of the
# benchmark's workloads, and the Klein four-group V_4 with two of its
# order-2 subgroups.
GROUP_FILES = {
    "b8x2": (16, ["(1 3)(2 4)", "(1 3 5 7 9 11 13 15)(2 4 6 8 10 12 14 16)"]),
    "c8": (8, ["(1 2 3 4 5 6 7 8)"]),
    "gl32": (7, ["(2 3)(6 7)", "(1 2 4)(3 6 5)"]),
    "gl32pt": (7, ["(2 3)(6 7)", "(4 6)(5 7)", "(4 7)(5 6)", "(2 6 5)(3 7 4)"]),
    "gl32pl": (7, ["(2 3)(6 7)", "(1 2)(4 6 7 5)"]),
    "f21": (7, ["(1 2 3 4 5 6 7)", "(2 3 5)(4 7 6)"]),
    "agl1_11": (11, ["(1 2 3 4 5 6 7 8 9 10 11)", "(2 3 5 9 6 11 10 8 4 7)"]),
    "d12": (12, ["(1 2 3 4 5 6 7 8 9 10 11 12)", "(2 12)(3 11)(4 10)(5 9)(6 8)"]),
    "v4": (4, ["(1 2)(3 4)", "(1 3)(2 4)"]),
    "v4h": (4, ["(1 2)(3 4)"]),
    "v4k": (4, ["(1 3)(2 4)"]),
}

CASES = [
    # the pinned report digests of tests/test_cli.py
    "analyze block:7x3 --full-distribution",
    "analyze young:15+2",
    "analyze symmetric:9 --full-distribution",
    "sweep --family block --r 2 --start 2 --end 8",
    "sweep --family cyclic --start 2 --end 10 --format csv",
    "compare young:4+2 young:2+4",
    "compare gl32-point gl32-plane",
    "coset symmetric:6 young:3+3",
    "coset alternating:6 cyclic:3@6",
    "coset gl32 gl32-point",
    "coset symmetric:8 young:4+4",
    "compare young:3+3 block:2x3",
    "compare symmetric:5 alternating:5",
    "check --suite frobenius --actions 8 --seed 7",
    "analyze block:12x1",
    # the benchmark's analytic and enumerative jobs
    "analyze block:7x3",
    "analyze @b8x2",
    "coset symmetric:8 @c8",
    "compare @gl32pt @gl32pl --parent @gl32",
    # the benchmark's small jobs
    "analyze young:5+3",
    "analyze agl15",
    "analyze @f21",
    "analyze cyclic:3@6",
    "analyze block:4x2",
    "analyze block:3x3",
    "analyze young:4+4+2",
    "analyze alternating:6",
    "analyze gl32",
    "analyze @c8",
    "analyze @agl1_11",
    "analyze @d12",
    "coset symmetric:5 agl15",
    "coset symmetric:7 @f21",
    "compare cyclic:2@4 young:2+1+1",
    "compare block:3x2 cyclic:3@6",
    "compare @f21 @gl32pt --parent symmetric:7",
    "sweep --family cyclic --start 2 --end 10",
    "sweep --family young --start 4 --end 12",
    "sweep --family block --r 3 --start 2 --end 4",
    "check --suite orthogonality --max-n 8",
    "check --suite sandwich --max-n 12",
    "check --suite frobenius --actions 4 --seed 1",
    "analyze symmetric:7",
    # sparse supports at degree 40
    "analyze symmetric:40",
    "analyze young:20+20",
    "analyze young:38+2",
    "sweep --family young --fixed-part 3 --start 30 --end 34 --format csv",
    # a parent other than S_n, and suites or sweeps that refuse their flags
    "compare @v4h @v4k --parent @v4",
    "check --suite frobenius --actions 3 --index-limit 0",
    "sweep --family block --r -2 --start 2 --end 3",
    "sweep --family young --fixed-part 0 --start 2 --end 3",
    "sweep --family cyclic --start -1 --end 2",
    # exit codes 2, 3 and 4
    "analyze",
    "analyze bogus:3",
    "analyze symmetric:48",
    "analyze cyclic:1@3",
    "compare young:2+1 young:2+2",
    "coset symmetric:4 young:2+2 --index-limit 2",
    "check --suite orthogonality --max-n 0",
    # help at 80 columns
    "-h",
    "analyze -h",
    "compare -h",
    "coset -h",
    "sweep -h",
    "check -h",
]

_WALL_TIME_RE = re.compile(r'^\s*"wall_time_s": [0-9.e-]+,?$', re.M)


def group_file_text(name: str) -> str:
    degree, gens = GROUP_FILES[name]
    return "\n".join([f"degree {degree}", *gens]) + "\n"


def run_case(case: str, workdir: Path) -> tuple:
    """(exit code, stdout, stderr) of `hsplab.cli.main` on the case, run in
    `workdir` with its group files written there and COLUMNS=80."""
    from hsplab.cli import main

    argv = []
    for tok in case.split():
        if tok.startswith("@"):
            (workdir / f"{tok[1:]}.grp").write_text(group_file_text(tok[1:]), encoding="utf-8")
            tok = f"{tok[1:]}.grp"
        argv.append(tok)
    out, err = io.StringIO(), io.StringIO()
    cwd, columns = os.getcwd(), os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's help (0) and parse errors (2)
                code = exc.code or 0
    finally:
        os.chdir(cwd)
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    return code, out.getvalue(), err.getvalue()


def record(code: int, out: str, err: str) -> dict:
    """The pinned form of one run: digests of stdout (less wall_time_s) and
    of stderr, and the exit code."""
    sha = lambda text: hashlib.sha256(text.encode()).hexdigest()  # noqa: E731
    return {"stdout_sha256": sha(_WALL_TIME_RE.sub("", out)), "stderr_sha256": sha(err), "exit": code}


def load() -> dict:
    """The recorded corpus: case -> record."""
    return json.loads(CASES_FILE.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description="Compare the CLI with the golden corpus.")
    parser.add_argument("--write", action="store_true", help="record the corpus anew")
    args = parser.parse_args(argv)
    recorded = load() if CASES_FILE.exists() else {}
    now = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            now[case] = record(*run_case(case, Path(tmp)))
    moved = [case for case in CASES if recorded.get(case) != now[case]]
    for case in moved:
        was = recorded.get(case)
        print(f"moved: {case}  (exit {None if was is None else was['exit']} -> {now[case]['exit']})")
    for case in sorted(set(recorded) - set(now)):
        print(f"dropped: {case}")
    if args.write:
        CASES_FILE.write_text(json.dumps(now, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {len(now)} cases to {CASES_FILE.name}")
        return 0
    return 1 if moved or set(recorded) - set(now) else 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parents[1] / "src"))
    sys.exit(main())
