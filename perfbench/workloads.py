"""The benchmark's workloads: seeded lists of `hsplab` CLI jobs.

A job is a template of CLI arguments.  A token of the form ``@name`` stands
for a group file that the benchmark writes before each pass: the generators of
``GROUP_FILES[name]`` with their points relabelled by a permutation drawn from
the seed.  All files of one degree in one pass share the relabelling, so the
three GL(3,2) files of the `compare` job stay a subgroup pair inside their
parent.

Relabelling points by sigma conjugates every group inside S_n.  Conjugation
preserves cycle types (so every census, D_H, bound and support count), the
index, rank and subdegrees of a coset action, and the Gassmann relation.  The
answers that the benchmark checks therefore do not depend on the seed; only
the file bytes, the job order and seed-dependent witnesses (such as a
conjugating element) do.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path

# Base generators, 1-based cycle notation, one entry per group file.
GROUP_FILES = {
    # S_8 permuting 8 rigid blocks of size 2.
    "b8x2": (16, ["(1 3)(2 4)", "(1 3 5 7 9 11 13 15)(2 4 6 8 10 12 14 16)"]),
    "c8": (8, ["(1 2 3 4 5 6 7 8)"]),
    # GL(3,2) on the Fano plane and its two non-conjugate order-24 stabilizers
    # (of a point and of a plane): the classical Gassmann pair.
    "gl32": (7, ["(2 3)(6 7)", "(1 2 4)(3 6 5)"]),
    "gl32pt": (7, ["(2 3)(6 7)", "(4 6)(5 7)", "(4 7)(5 6)", "(2 6 5)(3 7 4)"]),
    "gl32pl": (7, ["(2 3)(6 7)", "(1 2)(4 6 7 5)"]),
    # Frobenius group of order 21: x -> x + 1 and x -> 2x on Z/7.
    "f21": (7, ["(1 2 3 4 5 6 7)", "(2 3 5)(4 7 6)"]),
    # AGL(1,11): x -> x + 1 and x -> 2x on Z/11 (order 110).
    "agl1_11": (11, ["(1 2 3 4 5 6 7 8 9 10 11)", "(2 3 5 9 6 11 10 8 4 7)"]),
    # Dihedral group of order 24 on 12 points.
    "d12": (12, ["(1 2 3 4 5 6 7 8 9 10 11 12)", "(2 12)(3 11)(4 10)(5 9)(6 8)"]),
}

# Why each workload exists is recorded in BENCHMARK.json; the comments here
# say how each is sized.  Timings are from a 2-vCPU Xeon virtual machine with
# the numpy kernels.
WORKLOADS = {
    # Exact character sums at n = 21 and 17 and the block sweep up to n = 16,
    # sized so that a pass takes 5-7 s and a 50 s run holds seven or eight: a
    # shared host's speed wanders by 10-20% over seconds, and the medians
    # need passes to settle it.  The three jobs take about 1 : 1.6 : 2.7, so
    # the median and the slowest job are always the same templates.  Catalog
    # names cannot be relabelled, so the seed only orders the jobs.
    "analytic": [
        "analyze block:7x3",
        "analyze young:15+2",
        "sweep --family block --r 2 --start 2 --end 8",
    ],
    # An element census of order 40320 on 16 points, a 5040-coset table,
    # class maps of GL(3,2), and fix counts, sized so that a pass takes 7-9 s
    # and a 50 s run holds five or six.  The order-362880 census of the
    # block group 9x2 alone takes 8-11 s, so the block group 8x2 stands in
    # for it.  The Frobenius suite's cost swings about fourfold with its own
    # --seed (3.9 s to 14.9 s over seeds 1-8 at 50 actions), so it runs at a
    # fixed suite seed: a seed-drawn suite would measure the draw, not the
    # code.
    "enumerative": [
        "analyze @b8x2",
        "coset symmetric:8 @c8",
        "compare @gl32pt @gl32pl --parent @gl32",
        "check --suite frobenius --actions 8 --seed 7",
    ],
    # Thirty short jobs over all five subcommands at n <= 12, where the
    # fixed cost of a process (import, sympy chains) dominates.  Not listed
    # in BENCHMARK.json (see run.py); set-up cost shows there as setup_s.
    "small-jobs": [
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
        "coset symmetric:6 young:3+3",
        "coset symmetric:5 agl15",
        "coset gl32 gl32-point",
        "coset symmetric:7 @f21",
        "coset alternating:6 cyclic:3@6",
        "coset symmetric:8 young:4+4",
        "compare cyclic:2@4 young:2+1+1",
        "compare gl32-point gl32-plane",
        "compare young:4+2 young:2+4",
        "compare block:3x2 cyclic:3@6",
        "compare @f21 @gl32pt --parent symmetric:7",
        "sweep --family cyclic --start 2 --end 10",
        "sweep --family young --start 4 --end 12",
        "sweep --family block --r 3 --start 2 --end 4",
        "check --suite orthogonality --max-n 8",
        "check --suite sandwich --max-n 12",
        "check --suite frobenius --actions 4 --seed 1",
        "analyze symmetric:7",
    ],
}

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


@dataclass(frozen=True)
class Job:
    key: str  # the template: names the job's reference answers
    argv: tuple  # arguments after `python -m hsplab.cli`


def _images(cycles: str, degree: int) -> list:
    img = list(range(degree))
    for body in _CYCLE_RE.findall(cycles):
        pts = [int(x) - 1 for x in body.split()]
        for a, b in zip(pts, pts[1:] + pts[:1]):
            img[a] = b
    return img


def _cycles(img: list) -> str:
    seen = [False] * len(img)
    out = []
    for i in range(len(img)):
        if seen[i] or img[i] == i:
            continue
        cyc = []
        j = i
        while not seen[j]:
            seen[j] = True
            cyc.append(str(j + 1))
            j = img[j]
        out.append("(" + " ".join(cyc) + ")")
    return "".join(out) or "()"


def relabelled(name: str, sigma: list) -> str:
    """Group file text of GROUP_FILES[name] conjugated by sigma."""
    degree, gens = GROUP_FILES[name]
    lines = [f"degree {degree}"]
    for g in gens:
        img = _images(g, degree)
        new = [0] * degree
        for i in range(degree):
            new[sigma[i]] = sigma[img[i]]
        lines.append(_cycles(new))
    return "\n".join(lines) + "\n"


def _spec(token: str, rel_workdir: str) -> str:
    return f"{rel_workdir}/{token[1:]}.grp" if token.startswith("@") else token


def file_names(templates) -> list:
    return sorted({tok[1:] for t in templates for tok in t.split() if tok.startswith("@")})


def materialize_pass(workload: str, rng: random.Random, workdir: Path, rel_workdir: str) -> list:
    """Write this pass's group files and return its jobs in a seeded order.

    Paths in the jobs are relative to the repository root (`rel_workdir`), so
    a report's `spec` field, and hence its digest, names no absolute path.
    """
    templates = list(WORKLOADS[workload])
    sigmas = {}
    for name in file_names(templates):
        degree = GROUP_FILES[name][0]
        if degree not in sigmas:
            sigmas[degree] = rng.sample(range(degree), degree)
        (workdir / f"{name}.grp").write_text(relabelled(name, sigmas[degree]), encoding="utf-8")
    rng.shuffle(templates)
    return [Job(t, tuple(_spec(tok, rel_workdir) for tok in t.split())) for t in templates]


def distinct_inputs(workload: str, rel_workdir: str) -> list:
    """Every group input of the workload: catalog names and file paths."""
    specs = set()
    for t in WORKLOADS[workload]:
        toks = t.split()
        if toks[0] in ("analyze", "coset", "compare"):
            for tok in toks[1:]:
                if not tok.startswith("-"):
                    specs.add(_spec(tok, rel_workdir))
        elif toks[0] == "sweep":
            opt = dict(zip(toks[1::2], toks[2::2]))
            lo, hi = int(opt["--start"]), int(opt["--end"])
            for k in range(lo, hi + 1):
                if opt["--family"] == "cyclic":
                    specs.add(f"cyclic:{k}@{k}")
                elif opt["--family"] == "block":
                    specs.add(f"block:{k}x{opt['--r']}")
                else:
                    specs.add(f"young:{k - 2}+2")
    return sorted(specs)
