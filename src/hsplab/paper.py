"""The source paper's checks that no CLI command runs, with the group
helpers that only they call.

- The support-count diagnostic `club_check`, the class-size growth scan
  `liebeck_report`, the minimal-degree bound `babai_check` and the
  small-subgroup dichotomy `poly_subgroup_verdict`, each with its report
  type.  They are library calls (`from hsplab import babai_check`), each
  unit-tested.
- Orbits, block systems and primitivity (`orbits`, `is_transitive`,
  `minimal_blocks`, `is_primitive`), the minimal degree m(H) and the cycle
  type of one image array, which only these checks read.

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
from typing import TYPE_CHECKING, NamedTuple

from .characters import partitions
from .errors import LimitExceeded, PreconditionError
from .lab import support_census
from .profile import DEGREE_LIMIT, ENUMERATION_LIMIT, ClassProfile, CycleType, sn_class_size
from .qfs import log2_power

if TYPE_CHECKING:
    import numpy as np

    from .perm import PermGroup

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


def babai_check(G: PermGroup, limit: int = ENUMERATION_LIMIT) -> BabaiReport:
    """Check m(G) >= (sqrt(n)-1)/2 for primitive groups other than A_n, S_n.

    A_n and S_n (detected by order) and imprimitive groups are exempt: the
    bound is not claimed for them.  The satisfaction flag is exact:
    m >= (sqrt(n)-1)/2 iff (2m+1)^2 >= n.
    """
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
    witness: np.ndarray | None = None
    witness_support: int | None = None
    distinguishable_side: bool | None = None


def poly_subgroup_verdict(
    G: PermGroup, H: PermGroup, c: float, c_prime: float
) -> PolyVerdict:
    """Small-subgroup dichotomy: some non-identity h in H has a conjugacy
    class |h^G| below (log2|G|)^c' iff H sits on the distinguishable side.

    Inapplicability (trivial H, or |H| above the polylog size bound) is a
    verdict, not an error.
    """
    from .perm import element_class_map

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
    size_bound = log2_power(G.order, c)
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
    min_size, witness = sizes[best], H.chain.element(best)
    threshold = log2_power(G.order, c_prime)
    return PolyVerdict(
        applicable=True,
        reason=None,
        size_bound=size_bound,
        class_threshold=threshold,
        min_class_size=min_size,
        witness=witness,
        witness_support=sum(p for p in cycle_type_of_array(witness) if p > 1),
        distinguishable_side=bool(min_size <= threshold),
        **base_kwargs,
    )


# ---------------------------------------------------------------------------
# orbits, blocks, primitivity, minimal degree
# ---------------------------------------------------------------------------


def orbits(G: PermGroup) -> list:
    """Orbits on {1..n} as sorted tuples, ordered by smallest point."""
    from .perm import orbit_labels

    out: dict[int, list] = {}
    for p, least in enumerate(orbit_labels(G.generators, G.degree).tolist()):
        out.setdefault(least, []).append(p + 1)
    return [tuple(orb) for orb in out.values()]


def is_transitive(G: PermGroup) -> bool:
    return len(orbits(G)) == 1


def _minimal_block_with(n: int, gens: tuple, beta: int) -> list:
    """Finest block system whose block contains {0, beta} (Atkinson)."""
    parent = list(range(n))

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    parent[beta] = 0
    pending = [(0, beta)]  # merged pairs whose images are still to be merged
    while pending:
        a, b = pending.pop()
        for g in gens:
            ra, rb = find(int(g[a])), find(int(g[b]))
            if ra != rb:
                if ra > rb:
                    ra, rb = rb, ra
                parent[rb] = ra
                pending.append((ra, rb))
    classes: dict[int, list] = {}
    for x in range(n):
        classes.setdefault(find(x), []).append(x)
    return sorted(classes.values())


def minimal_blocks(G: PermGroup):
    """A minimal non-trivial block system, or None if G is primitive.

    Scans candidate points in increasing order and returns the system with the
    smallest block size (ties by smallest candidate), so output is
    deterministic.  Requires a transitive group.
    """
    if not is_transitive(G):
        raise PreconditionError("block systems are defined for transitive groups only")
    n = G.degree
    if n == 1:
        return None
    best = None
    for beta in range(1, n):
        system = _minimal_block_with(n, G.generators, beta)
        size = len(system[0]) if len(system) > 1 else n
        if 1 < size < n and (best is None or size < len(best[0])):
            best = system
            if size == 2:
                break
    if best is None:
        return None
    return [tuple(x + 1 for x in block) for block in best]


def is_primitive(G: PermGroup) -> bool:
    return minimal_blocks(G) is None


def minimal_degree(H: PermGroup, limit: int = ENUMERATION_LIMIT) -> int:
    """m(H): minimum support of a non-identity element."""
    if H.order <= 1:
        raise PreconditionError("minimal degree is undefined for the trivial group")
    from .perm import class_profile

    return class_profile(H, limit).minimal_support()


def cycle_type_of_array(arr: np.ndarray) -> CycleType:
    """The cycle type of the permutation whose 0-based image array is `arr`."""
    img = arr.tolist()
    seen = [False] * len(img)
    parts = []
    for i in range(len(img)):
        if not seen[i]:
            length = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = img[j]
                length += 1
            parts.append(length)
    parts.sort(reverse=True)
    return tuple(parts)
