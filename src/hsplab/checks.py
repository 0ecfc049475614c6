"""The character oracle and the `check` suites.

- The character oracle `mn_character`: one value chi_lam(mu) by its own
  beta-set recursion, independent of the class-sum engine it is tested
  against.  `characters.orthogonality_check` reads the full table through it.
- The bodies of the `check` suites (`SUITES`, by suite name).

None of this needs numpy at import: the group layer is imported inside the
Frobenius suite, the one suite that builds groups, and `hsplab.lab` inside
the sandwich suite, so a Frobenius job loads none of the analytic stack.
"""

from __future__ import annotations

import math
from functools import lru_cache

from . import characters
from .characters import Partition, _dimension, is_partition, partitions
from .errors import InvariantError, LimitExceeded, ParseError, PreconditionError


# ---------------------------------------------------------------------------
# the character oracle
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _mn(lam: Partition, mu: Partition) -> int:
    """chi_lam(mu) for mu sorted non-increasing; both partitions of the same n."""
    if not mu:
        return 1
    strip = mu[0]
    rest = mu[1:]
    k = len(lam)
    beta = [lam[i] + (k - 1 - i) for i in range(k)]
    beta_set = set(beta)
    total = 0
    for b in beta:
        nb = b - strip
        if nb < 0 or nb in beta_set:
            continue
        height = sum(1 for x in beta if nb < x < b)
        nbeta = sorted((x for x in beta if x != b), reverse=True)
        lo = 0
        hi = len(nbeta)
        while lo < hi:
            mid = (lo + hi) // 2
            if nbeta[mid] > nb:
                lo = mid + 1
            else:
                hi = mid
        nbeta.insert(lo, nb)
        lam2 = []
        for j, x in enumerate(nbeta):
            part = x - (k - 1 - j)
            if part:
                lam2.append(part)
        value = _mn(tuple(lam2), rest)
        total += -value if height % 2 else value
    return total


def mn_character(lam: Partition, mu: Partition) -> int:
    """Exact character value chi_lam on the class of cycle type mu."""
    lam = tuple(lam)
    mu = tuple(sorted(mu, reverse=True))
    if not (is_partition(lam) and is_partition(mu)):
        raise ValueError("arguments must be partitions")
    if sum(lam) != sum(mu):
        raise PreconditionError(
            f"partition sizes differ: {sum(lam)} vs {sum(mu)}"
        )
    return _mn(lam, mu)


# ---------------------------------------------------------------------------
# check suites: they call `characters.orthogonality_check` and
# `lab.class_sandwich_check` through their modules, so a wrapper or stub set
# on the module is the one that runs
# ---------------------------------------------------------------------------


def _at_least_one(flag: str, value: int) -> None:
    if value < 1:
        raise ParseError(f"{flag} must be at least 1, got {value}")


def _check_orthogonality(args) -> dict:
    _at_least_one("--max-n", args.max_n)
    limit = characters.ORTHOGONALITY_LIMIT
    if args.max_n > limit:
        raise LimitExceeded(f"full-table orthogonality check is capped at n={limit}")
    results = []
    ok = True
    for n in range(1, args.max_n + 1):
        rep = characters.orthogonality_check(n)
        square_sum = sum(_dimension(lam) ** 2 for lam in partitions(n))
        ok_n = rep.passed and square_sum == math.factorial(n)
        ok = ok and ok_n
        results.append(
            {"n": n, "passed": rep.passed, "sum_d_squared_is_factorial": square_sum == math.factorial(n),
             "failure": rep.failure}
        )
    return {"suite": "orthogonality", "max_n": args.max_n, "all_passed": ok, "results": results}


def _check_sandwich(args) -> dict:
    from . import lab

    _at_least_one("--max-n", args.max_n)
    if args.max_n > args.degree_limit:
        raise LimitExceeded(f"class-size sandwich check is capped at n={args.degree_limit}")
    results = []
    ok = True
    for n in range(1, args.max_n + 1):
        rep = lab.class_sandwich_check(n, limit=args.degree_limit)
        ok = ok and rep.passed
        results.append({"n": n, "passed": rep.passed, "num_types": rep.num_types})
    return {"suite": "sandwich", "max_n": args.max_n, "all_passed": ok, "results": results}


def _check_frobenius(args) -> dict:
    import random

    from . import coset as coset_mod
    from .groups import agl15_group, gl32_group
    from .perm import PermGroup

    _at_least_one("--actions", args.actions)
    rng = random.Random(args.seed)
    parents = [PermGroup.symmetric(n) for n in (5, 6, 7, 8)] + [gl32_group(), agl15_group()]
    actions = 0
    attempts = 0
    failures = []
    while actions < args.actions and attempts < 100 * args.actions:
        attempts += 1
        G = parents[rng.randrange(len(parents))]
        H = PermGroup([G.random_element(rng) for _ in range(rng.randint(1, 3))], G.degree)
        try:
            coset_mod.check_action_bounds(
                G.degree, G.order, H.order, args.order_limit, args.index_limit
            )
        except LimitExceeded:
            continue
        ca = coset_mod.coset_action(G, H, args.index_limit, args.order_limit)
        try:
            # raises if the Frobenius identity fails
            coset_mod.rank_subdegrees(ca)
            if not coset_mod.class_fixpoint_identity_holds(ca):
                failures.append({"parent_order": str(G.order), "subgroup_order": str(H.order)})
        except InvariantError:
            failures.append({"parent_order": str(G.order), "subgroup_order": str(H.order)})
        actions += 1
    if actions < args.actions:
        raise LimitExceeded(
            f"only {actions} of {args.actions} actions fit --order-limit {args.order_limit} "
            f"and --index-limit {args.index_limit} in {attempts} draws"
        )
    return {
        "suite": "frobenius",
        "actions": actions,
        "seed": args.seed,
        "all_passed": not failures,
        "failures": failures,
    }


#: The `check` suites by name, in the order `--suite` lists them.
SUITES = {
    "orthogonality": _check_orthogonality,
    "sandwich": _check_sandwich,
    "frobenius": _check_frobenius,
}
