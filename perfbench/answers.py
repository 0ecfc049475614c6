"""Answer checks: the seed-independent fields of each report, compared with
references stored next to the benchmark, and a digest of the whole report."""

from __future__ import annotations

import copy
import hashlib
import json
from pathlib import Path

REFERENCES = Path(__file__).resolve().parent / "references.json"

# Dotted paths of the checked fields, per subcommand.  Fields that name the
# input (spec, file digest), witnesses that depend on the relabelling
# (conjugating element, class ids in a mismatch message) and the echoed suite
# seed are left out; see workloads.py for why the rest cannot depend on the
# seed.
CHECKED = {
    "analyze": [
        "subgroup_order", "num_profile_types", "minimal_degree", "support_census",
        "distribution_summary", "dh", "dh_decimal", "thm1_bounds", "cmin_bounds",
        "prop_upper", "verdict.distinguishable",
    ],
    "coset": ["index", "rank_subdegrees", "class_identity_holds", "avg_subdegree", "fixpoint_bounds"],
    "compare": [
        "gassmann.degree", "gassmann.order_h", "gassmann.order_k", "gassmann.orders_equal",
        "gassmann.class_counts_equal", "gassmann.perm_chars_equal", "gassmann.conjugate",
        "gassmann.profile_distance", "gassmann.consistent", "sn_profile_distance", "distance_zero",
    ],
    "sweep": ["rows"],
    "check": ["suite", "all_passed", "results", "actions", "failures"],
}

_MISSING = "<missing>"


def _get(report: dict, path: str):
    node = report
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return _MISSING
        node = node[part]
    return node


def answer_fields(command: str, report: dict) -> dict:
    return {path: _get(report, path) for path in CHECKED[command]}


def digest(report: dict) -> str:
    """sha256 of the report as JSON, without its wall_time_s field."""
    body = {k: v for k, v in report.items() if k != "wall_time_s"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def load_references() -> dict:
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


def check(key: str, returncode: int, stdout: str, references: dict) -> tuple:
    """(ok, digest or None, reason) for one finished job."""
    if returncode != 0:
        return False, None, f"exit code {returncode}"
    try:
        report = json.loads(stdout)
    except ValueError:
        return False, None, "output is not JSON"
    if not isinstance(report, dict):
        return False, None, "output is not a JSON object"
    want = references.get(key)
    if want is None:
        return False, digest(report), "no reference answer for this job"
    got = answer_fields(key.split()[0], report)
    bad = sorted(p for p in want if got.get(p, _MISSING) != want[p])
    if bad:
        return False, digest(report), "differs from reference: " + ", ".join(bad)
    return True, digest(report), ""


def self_test(references: dict) -> None:
    """A report equal to the reference passes; one altered digit of D_H fails."""
    key = next(k for k in references if k.startswith("analyze "))
    report = {}
    for path, value in references[key].items():
        node = report
        *parents, leaf = path.split(".")
        for part in parents:
            node = node.setdefault(part, {})
        node[leaf] = value
    if not check(key, 0, json.dumps(report), references)[0]:
        raise RuntimeError(f"self-test: the reference report of {key!r} does not pass")
    altered = copy.deepcopy(report)
    num, den = altered["dh"].split("/")
    last = num[-1]
    altered["dh"] = f"{num[:-1]}{'1' if last != '1' else '2'}/{den}"
    if check(key, 0, json.dumps(altered), references)[0]:
        raise RuntimeError(f"self-test: a D_H with one altered digit passes for {key!r}")
    if check(key, 1, json.dumps(report), references)[0]:
        raise RuntimeError("self-test: a non-zero exit code passes")
