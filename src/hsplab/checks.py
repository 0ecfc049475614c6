"""The source paper's checks that no catalog `analyze` or `sweep` needs.

- Library-only paper checks with their report types: the support-count
  diagnostic `club_check`, the class-size growth scan `liebeck_report`, the
  minimal-degree bound `babai_check` and the small-subgroup dichotomy
  `poly_subgroup_verdict`.  No CLI command reaches them; each is unit-tested.
- The character oracle `mn_character`: one value chi_lam(mu) by its own
  beta-set recursion, independent of the class-sum engine it is tested
  against.  `characters.orthogonality_check` reads the full table through it.
- The bodies of the `check` suites (`SUITES`, by suite name).

None of this needs numpy at import: the group layer is imported inside the
functions that take or build groups.  The conjecture diagnostics deliberately
never emit an aggregate pass/fail at small n: the underlying statements are
asymptotic and provably fail at desk scale (a block group on 8 points
already violates the support-count bound).  Satisfaction flags are computed
by exact integer powering; the floating log2 columns are for reading, not
for verdicts.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple

from . import characters, lab
from .characters import Partition, _dimension, is_partition, partitions
from .errors import InvariantError, LimitExceeded, ParseError, PreconditionError
from .lab import DEGREE_LIMIT, support_census
from .profile import ENUMERATION_LIMIT, ClassProfile, sn_class_size
from .radical import frac_text

if TYPE_CHECKING:
    import random

    from .perm import PermGroup, Permutation

#: Exponent in the support-count conjecture: |H_k| <= n^(k * SUPPORT_EXPONENT).
SUPPORT_EXPONENT = Fraction(1, 7)


# ---------------------------------------------------------------------------
# support-count diagnostic
# ---------------------------------------------------------------------------


class ClubRow(NamedTuple):
    support: int
    count: int
    log2_count: float
    log2_bound: float
    satisfied: bool


class ClubReport(NamedTuple):
    degree: int
    exponent: Fraction
    minimal_support: int | None
    rows: tuple
    max_log2_excess: float | None  # max of log2_count - log2_bound

    def serialize(self) -> dict:
        return {
            "degree": self.degree,
            "exponent": frac_text(self.exponent),
            "minimal_support": self.minimal_support,
            "max_log2_excess": self.max_log2_excess,
            "rows": [
                {
                    "support": r.support,
                    "count": str(r.count),
                    "log2_count": r.log2_count,
                    "log2_bound": r.log2_bound,
                    "satisfied": r.satisfied,
                }
                for r in self.rows
            ],
        }


def club_check(prof: ClassProfile, exponent: Fraction = SUPPORT_EXPONENT) -> ClubReport:
    """Per-support diagnostic for the |H_k| <= n^(k*exponent) conjecture.

    Satisfaction flags compare |H_k|^q against n^(k*p) in exact integer
    arithmetic (exponent = p/q); there is deliberately no aggregate verdict.
    """
    census = support_census(prof)
    n = prof.degree
    p, q = exponent.numerator, exponent.denominator
    rows = []
    excess = None
    for k, cnt in sorted(census.counts.items()):
        satisfied = cnt**q <= n ** (k * p)
        log2_count = math.log2(cnt)
        log2_bound = k * float(exponent) * math.log2(n) if n > 1 else 0.0
        rows.append(ClubRow(k, cnt, log2_count, log2_bound, satisfied))
        delta = log2_count - log2_bound
        excess = delta if excess is None else max(excess, delta)
    return ClubReport(
        degree=n,
        exponent=exponent,
        minimal_support=prof.minimal_support() if rows else None,
        rows=tuple(rows),
        max_log2_excess=excess,
    )


# ---------------------------------------------------------------------------
# class-size growth
# ---------------------------------------------------------------------------


class LiebeckReport(NamedTuple):
    """Empirical check of |C| > n^(a*k) at a fixed n; the cited class-size
    growth is asymptotic, so failures at small n are expected and honest."""

    n: int
    a: float
    min_log2_ratio: float
    witness_type: tuple
    witness_support: int
    witness_class_size: int
    above_one: bool
    note: str = "empirical at fixed n; the underlying bound is asymptotic"

    def serialize(self) -> dict:
        return {
            "n": self.n,
            "a": self.a,
            "min_log2_ratio": self.min_log2_ratio,
            "witness_type": list(self.witness_type),
            "witness_support": self.witness_support,
            "witness_class_size": str(self.witness_class_size),
            "above_one": self.above_one,
            "note": self.note,
        }


def liebeck_report(n: int, a: float, limit: int = DEGREE_LIMIT) -> LiebeckReport:
    """Scan all non-identity classes for the minimum of |C| / n^(a*support)."""
    if not a < 1 / 3:
        raise PreconditionError("the class-size exponent requires a < 1/3")
    if n > limit:
        raise LimitExceeded(f"scan capped at n={limit}")
    if n < 2:
        raise PreconditionError("need n >= 2 for a non-identity class")
    best = None
    logn = math.log2(n)
    for t in partitions(n):
        k = n - t.count(1)
        if k == 0:
            continue
        size = sn_class_size(t)
        ratio = math.log2(size) - a * k * logn
        if best is None or ratio < best[0]:
            best = (ratio, t, k, size)
    ratio, t, k, size = best
    return LiebeckReport(n, a, ratio, t, k, size, above_one=bool(ratio > 0))


# ---------------------------------------------------------------------------
# minimal-degree bound for primitive groups
# ---------------------------------------------------------------------------


class BabaiReport(NamedTuple):
    degree: int
    order: int
    transitive: bool
    primitive: bool
    is_symmetric: bool
    is_alternating: bool
    exempt: bool
    minimal_degree: int | None
    bound_value: float  # (sqrt(n) - 1) / 2
    bound_holds: bool | None  # exact: (2m+1)^2 >= n
    consistent: bool

    def serialize(self) -> dict:
        return {
            "degree": self.degree,
            "order": str(self.order),
            "transitive": self.transitive,
            "primitive": self.primitive,
            "is_symmetric": self.is_symmetric,
            "is_alternating": self.is_alternating,
            "exempt": self.exempt,
            "minimal_degree": self.minimal_degree,
            "bound_value": self.bound_value,
            "bound_holds": self.bound_holds,
            "consistent": self.consistent,
        }


def babai_check(G: PermGroup, limit: int = ENUMERATION_LIMIT) -> BabaiReport:
    """Check m(G) >= (sqrt(n)-1)/2 for primitive groups other than A_n, S_n.

    A_n and S_n (detected by order) and imprimitive groups are exempt: the
    bound is not claimed for them.  The satisfaction flag is exact:
    m >= (sqrt(n)-1)/2 iff (2m+1)^2 >= n.
    """
    from .perm import is_primitive, is_transitive, minimal_degree

    if not is_transitive(G):
        raise PreconditionError("the minimal-degree bound concerns transitive groups")
    n = G.degree
    primitive = is_primitive(G)
    is_sym = G.order == math.factorial(n)
    is_alt = n >= 3 and 2 * G.order == math.factorial(n)
    exempt = (not primitive) or is_sym or is_alt
    m = minimal_degree(G, limit) if G.order > 1 else None
    bound_holds = None if m is None else bool((2 * m + 1) ** 2 >= n)
    consistent = exempt or bool(bound_holds)
    return BabaiReport(
        degree=n,
        order=G.order,
        transitive=True,
        primitive=primitive,
        is_symmetric=is_sym,
        is_alternating=is_alt,
        exempt=exempt,
        minimal_degree=m,
        bound_value=(math.sqrt(n) - 1) / 2,
        bound_holds=bound_holds,
        consistent=consistent,
    )


# ---------------------------------------------------------------------------
# small-subgroup dichotomy
# ---------------------------------------------------------------------------


class PolyVerdict(NamedTuple):
    applicable: bool
    reason: str | None
    group_order: int
    subgroup_order: int
    log_base: int
    c: float
    c_prime: float
    # None where the verdict stops early (inapplicable)
    size_bound: float | None = None
    class_threshold: float | None = None
    min_class_size: int | None = None
    witness: Permutation | None = None
    witness_support: int | None = None
    distinguishable_side: bool | None = None

    def serialize(self) -> dict:
        return {
            "applicable": self.applicable,
            "reason": self.reason,
            "group_order": str(self.group_order),
            "subgroup_order": str(self.subgroup_order),
            "log_base": self.log_base,
            "c": self.c,
            "c_prime": self.c_prime,
            "size_bound": self.size_bound,
            "class_threshold": self.class_threshold,
            "min_class_size": None if self.min_class_size is None else str(self.min_class_size),
            "witness": None if self.witness is None else self.witness.cycles(),
            "witness_support": self.witness_support,
            "distinguishable_side": self.distinguishable_side,
        }


def poly_subgroup_verdict(
    G: PermGroup, H: PermGroup, c: float, c_prime: float
) -> PolyVerdict:
    """Small-subgroup dichotomy: some non-identity h in H has a conjugacy
    class |h^G| below (log2|G|)^c' iff H sits on the distinguishable side.

    Inapplicability (trivial H, or |H| above the polylog size bound) is a
    verdict, not an error.
    """
    from .perm import Permutation, cycle_type_of_array, element_class_map

    if not H.is_subgroup_of(G):
        raise PreconditionError("H is not a subgroup of G")
    base_kwargs = dict(
        group_order=G.order,
        subgroup_order=H.order,
        log_base=2,
        c=c,
        c_prime=c_prime,
    )
    if H.order < 2:
        return PolyVerdict(
            applicable=False, reason="trivial subgroup has no non-identity element", **base_kwargs
        )
    size_bound = math.log2(G.order) ** c
    if H.order > size_bound:
        return PolyVerdict(
            applicable=False,
            reason=f"|H| = {H.order} exceeds (log2|G|)^c = {size_bound:.6g}",
            size_bound=size_bound,
            **base_kwargs,
        )
    # the class size of each element of H, in H's chain order (the identity first)
    if G.order == math.factorial(G.degree):
        sizes = [sn_class_size(cycle_type_of_array(arr)) for arr in H.element_arrays()]
    else:
        classes, class_ids = element_class_map(G)
        ids = class_ids[G.chain.positions(H.chain.images(G.chain.base))]
        sizes = [classes[i][1] for i in ids.tolist()]
    best = min(range(1, H.order), key=sizes.__getitem__)  # the first smallest
    min_size, witness = sizes[best], Permutation(H.chain.element(best))
    threshold = math.log2(G.order) ** c_prime
    return PolyVerdict(
        applicable=True,
        reason=None,
        size_bound=size_bound,
        class_threshold=threshold,
        min_class_size=min_size,
        witness=witness,
        witness_support=witness.support(),
        distinguishable_side=bool(min_size <= threshold),
        **base_kwargs,
    )


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


def _random_subgroup(rng: random.Random, G: PermGroup) -> PermGroup:
    from .perm import PermGroup

    k = rng.randint(1, 3)
    gens = [G.random_element(rng) for _ in range(k)]
    return PermGroup(gens, G.degree)


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
        H = _random_subgroup(rng, G)
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
