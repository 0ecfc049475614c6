"""Support censuses, conjecture diagnostics, class-size checks, and analytic
profile constructors for subgroup families too large to enumerate.

The conjecture diagnostics deliberately never emit an aggregate pass/fail at
small n: the underlying statements are asymptotic and provably fail at desk
scale (a block group on 8 points already violates the support-count bound).
Satisfaction flags are computed by exact integer powering; the floating log2
columns are for reading, not for verdicts.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache, cached_property, partial
from typing import TYPE_CHECKING, Callable, NamedTuple

from .errors import LimitExceeded, ParseError, PreconditionError
from .profile import ENUMERATION_LIMIT, ClassProfile, check_enumeration, sn_class_size
from .radical import frac_text

if TYPE_CHECKING:
    from .perm import PermGroup, Permutation

#: Degree cap for partition scans (class-size sandwich, Liebeck report) and
#: the CLI's default character-analysis limit.
DEGREE_LIMIT = 40

#: Exponent in the support-count conjecture: |H_k| <= n^(k * SUPPORT_EXPONENT).
SUPPORT_EXPONENT = Fraction(1, 7)


# ---------------------------------------------------------------------------
# support census and the support-count conjecture
# ---------------------------------------------------------------------------


class SupportCensus(NamedTuple):
    """counts[k] = number of subgroup elements of support exactly k."""

    degree: int
    counts: dict

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def serialize(self) -> dict:
        return {str(k): str(v) for k, v in sorted(self.counts.items())}


def support_census(prof: ClassProfile) -> SupportCensus:
    counts: dict[int, int] = {}
    for t, c in prof.nonidentity_items():
        k = prof.degree - t.count(1)
        counts[k] = counts.get(k, 0) + c
    return SupportCensus(prof.degree, counts)


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
# class-size checks on all of S_n
# ---------------------------------------------------------------------------


class SandwichWitness(NamedTuple):
    cycle_type: tuple
    support: int
    class_size: int
    lower: int
    upper: int


class SandwichReport(NamedTuple):
    n: int
    num_types: int
    passed: bool
    tightest_lower: SandwichWitness
    tightest_upper: SandwichWitness

    def serialize(self) -> dict:
        def w(x: SandwichWitness) -> dict:
            return {
                "cycle_type": list(x.cycle_type),
                "support": x.support,
                "class_size": str(x.class_size),
                "lower": str(x.lower),
                "upper": str(x.upper),
            }

        return {
            "n": self.n,
            "num_types": self.num_types,
            "passed": self.passed,
            "tightest_lower": w(self.tightest_lower),
            "tightest_upper": w(self.tightest_upper),
        }


def class_sandwich_check(n: int, limit: int = DEGREE_LIMIT) -> SandwichReport:
    """Verify C(n,k) <= |C| <= n^k for every class of S_n (k = support).

    Returns the extremal witnesses: the classes where each side is tightest,
    compared by exact cross-multiplication.
    """
    if n > limit:
        raise LimitExceeded(f"class-size sandwich check is capped at n={limit}")
    from .characters import partitions

    passed = True
    best_lo = None  # (size, binom, witness): minimize size/binom
    best_hi = None  # (size, power, witness): maximize size/power
    count = 0
    for t in partitions(n):
        count += 1
        k = n - t.count(1)
        size = sn_class_size(t)
        binom = math.comb(n, k)
        power = n**k
        if not (binom <= size <= power):
            passed = False
        wit = SandwichWitness(t, k, size, binom, power)
        if best_lo is None or size * best_lo[1] < best_lo[0] * binom:
            best_lo = (size, binom, wit)
        if best_hi is None or size * best_hi[1] > best_hi[0] * power:
            best_hi = (size, power, wit)
    return SandwichReport(n, count, passed, best_lo[2], best_hi[2])


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
    from .characters import partitions

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
# analytic profile constructors
# ---------------------------------------------------------------------------


def block_group_profile(m: int, r: int) -> ClassProfile:
    """Census of S_m permuting m rigid blocks of size r inside S_{m*r}.

    A block permutation of cycle type lam (a partition of m) moves points in
    r parallel cycles per part: each part c contributes r cycles of length c,
    with multiplicity the S_m class size of lam.  |H| = m!, and the minimal
    support is 2r.
    """
    if m < 2 or r < 1:
        raise PreconditionError("need m >= 2 blocks of size r >= 1")
    from .characters import partitions

    counts = {}
    for lam in partitions(m):
        counts[tuple(c for part in lam for c in (part,) * r)] = sn_class_size(lam)
    return ClassProfile(m * r, counts)


def block_group_gens(m: int, r: int) -> list:
    """Generators of the block group: swap of the first two blocks and the
    cyclic shift of all m blocks (blocks are consecutive runs of r points)."""
    if m < 2 or r < 1:
        raise PreconditionError("need m >= 2 blocks of size r >= 1")
    import numpy as np

    from .perm import Permutation

    n = m * r
    swap = np.arange(n, dtype=np.int32)
    swap[0:r], swap[r : 2 * r] = np.arange(r, 2 * r), np.arange(0, r)
    gens = [Permutation(swap)]
    if m > 2:
        shift = (np.arange(n, dtype=np.int32) + r) % n
        gens.append(Permutation(shift))
    return gens


def _factors(prof: ClassProfile) -> tuple:
    if prof.degree == 0:
        return ()
    return (prof,) if prof.factors is None else prof.factors


def product_profile(prof_a: ClassProfile, prof_b: ClassProfile) -> ClassProfile:
    """Census of the direct product acting on the disjoint union of domains:
    the convolution of the two censuses under concatenation of cycle types,
    kept also as the product of the two factor lists.

    A type is keyed by its multiplicities m_k, one digit per part size k, so
    that concatenating two types adds their keys; the summed keys are read
    back through the partitions of the degree."""
    from .characters import partitions

    degree = prof_a.degree + prof_b.degree
    digit = [1 << (degree.bit_length() * k) for k in range(degree + 1)]

    def key(t: tuple) -> int:
        return sum(map(digit.__getitem__, t))

    keyed_b = [(key(tb), cb) for tb, cb in prof_b.counts.items()]
    merged: dict[int, int] = {}
    for ta, ca in prof_a.counts.items():
        key_a = key(ta)
        for key_b, cb in keyed_b:
            both = key_a + key_b
            merged[both] = merged.get(both, 0) + ca * cb
    types = {key(t): t for t in partitions(degree)} if degree else {0: ()}
    # partitions order is the profile's order, types descending
    counts = {t: merged[k] for k, t in types.items() if k in merged}
    factors = _factors(prof_a) + _factors(prof_b)
    return ClassProfile(degree, counts, factors)


def symmetric_profile(n: int) -> ClassProfile:
    """Census of the full S_n: every cycle type with its class size; as a
    product, the single factor S_n."""
    if n == 0:
        return ClassProfile(0, {(): 1}, ())
    from .characters import partitions

    return ClassProfile(n, {t: sn_class_size(t) for t in partitions(n)}, (n,))


def young_profile(parts) -> ClassProfile:
    """Census of S_parts[0] x S_parts[1] x ... on consecutive blocks."""
    parts = list(parts)
    if any(p < 1 for p in parts):
        raise PreconditionError("Young subgroup parts must be positive")
    prof = ClassProfile(0, {(): 1}, ())
    for a in parts:
        prof = product_profile(prof, symmetric_profile(a))
    return prof


def young_gens(parts) -> list:
    """Generators of the Young subgroup on consecutive blocks."""
    from .perm import parse_cycles

    parts = list(parts)
    n = sum(parts)
    gens = []
    offset = 0
    for a in parts:
        if a >= 2:
            gens.append(parse_cycles(f"({offset + 1} {offset + 2})", n))
        if a >= 3:
            cyc = " ".join(str(offset + i + 1) for i in range(a))
            gens.append(parse_cycles(f"({cyc})", n))
        offset += a
    return gens


# ---------------------------------------------------------------------------
# named groups and the catalog
# ---------------------------------------------------------------------------


def _gl32_perm(mat) -> Permutation:
    """Action of a GL(3,2) matrix on the 7 nonzero vectors of F_2^3.

    Vector v in {1..7} has bits (v&1, v>>1&1, v>>2&1); matrices act on column
    vectors mod 2.
    """
    import numpy as np

    from .perm import Permutation

    arr = np.empty(7, dtype=np.int32)
    for v in range(1, 8):
        x = (v & 1, (v >> 1) & 1, (v >> 2) & 1)
        w = 0
        for row in range(3):
            bit = (mat[row][0] * x[0] + mat[row][1] * x[1] + mat[row][2] * x[2]) % 2
            w |= bit << row
        arr[v - 1] = w - 1
    return Permutation(arr)


@cache
def gl32_group() -> PermGroup:
    """GL(3,2) of order 168 acting on the 7 points of the Fano plane."""
    from .perm import PermGroup

    transvection = _gl32_perm(((1, 1, 0), (0, 1, 0), (0, 0, 1)))
    rotation = _gl32_perm(((0, 0, 1), (1, 0, 0), (0, 1, 0)))
    return PermGroup([transvection, rotation], degree=7)


@cache
def gl32_point_stabilizer() -> PermGroup:
    """Stabilizer of the point 1 (the vector 001), order 24."""
    return gl32_group().point_stabilizer(1)


@cache
def gl32_plane_stabilizer() -> PermGroup:
    """Setwise stabilizer of the plane {1, 2, 3} (the span of 001 and 010)."""
    from .perm import PermGroup, Permutation

    G = gl32_group()
    plane = {0, 1, 2}
    members = [
        Permutation(arr.copy())
        for arr in G.element_arrays()
        if {int(arr[p]) for p in plane} == plane
    ]
    return PermGroup(members, degree=7)


def agl15_group() -> PermGroup:
    """AGL(1,5): x -> ax+b on F_5, order 20, primitive on 5 points."""
    from .perm import PermGroup

    return PermGroup.from_cycles(["(1 2 3 4 5)", "(2 3 5 4)"], 5)


class CatalogEntry:
    """A resolved catalog name.

    `degree` is read off the name.  `order`, `group` (generators and their
    stabilizer chain), `profile` (the analytic census, None when the entry
    has none) and `parent` (the catalog entry of the implied parent for
    comparisons, or None) are built on first use, so a job that reads only
    the census never builds a chain or imports numpy, and a degree or order
    check runs before any of them.
    """

    def __init__(
        self,
        name: str,
        degree: int,
        build_order: Callable[[], int],
        build_group: Callable[[], PermGroup],
        build_profile: Callable[[], ClassProfile] | None = None,
        parent_name: str | None = None,
    ):
        self.name = name
        self.degree = degree
        self.build_order = build_order
        self.build_group = build_group
        self.build_profile = build_profile
        self.parent_name = parent_name

    @cached_property
    def order(self) -> int:
        return self.build_order()

    @cached_property
    def group(self) -> PermGroup:
        return self.build_group()

    @cached_property
    def profile(self) -> ClassProfile | None:
        return None if self.build_profile is None else self.build_profile()

    @cached_property
    def parent(self) -> CatalogEntry | None:
        return None if self.parent_name is None else resolve_catalog(self.parent_name)


#: Analytic catalog profiles are only materialized up to this degree; the
#: partition list alone becomes unwieldy past it (callers hit the degree
#: limit long before).
PROFILE_DEGREE_CAP = 48


def _capped(degree: int, build: Callable[[], ClassProfile]) -> Callable[[], ClassProfile] | None:
    return build if degree <= PROFILE_DEGREE_CAP else None


def _symmetric_group(n: int) -> PermGroup:
    from .perm import PermGroup

    return PermGroup.symmetric(n)


def _alternating_group(n: int) -> PermGroup:
    from .perm import PermGroup

    return PermGroup.alternating(n)


def _cyclic_group(k: int, n: int) -> PermGroup:
    from .perm import PermGroup

    if k < 2:
        return PermGroup([], degree=n)
    return PermGroup.from_cycles(["(" + " ".join(str(i) for i in range(1, k + 1)) + ")"], n)


def _young_group(parts: list) -> PermGroup:
    from .perm import PermGroup

    return PermGroup(young_gens(parts), sum(parts))


def _block_group(m: int, r: int) -> PermGroup:
    from .perm import PermGroup

    return PermGroup(block_group_gens(m, r), m * r)


def resolve_catalog(name: str) -> CatalogEntry:
    """Resolve a catalog name to a lazily built group and, where available,
    an analytic profile.  Grammar: cyclic:k@n, young:a+b+..., block:mxr,
    alternating:n, symmetric:n, agl15, gl32, gl32-point, gl32-plane."""
    import re

    m = re.fullmatch(r"cyclic:(\d+)@(\d+)", name)
    if m:
        k, n = int(m.group(1)), int(m.group(2))
        if n < 1 or k > n:
            raise ParseError(f"cyclic:{k}@{n}: need 1 <= k <= n")
        return CatalogEntry(name, n, lambda: max(k, 1), partial(_cyclic_group, k, n))
    m = re.fullmatch(r"young:(\d+(?:\+\d+)*)", name)
    if m:
        parts = [int(x) for x in m.group(1).split("+")]
        if any(p < 1 for p in parts):
            raise ParseError(f"{name}: parts must be positive")
        n = sum(parts)
        return CatalogEntry(
            name,
            n,
            lambda: math.prod(math.factorial(p) for p in parts),
            partial(_young_group, parts),
            _capped(n, partial(young_profile, parts)),
        )
    m = re.fullmatch(r"block:(\d+)x(\d+)", name)
    if m:
        mm, r = int(m.group(1)), int(m.group(2))
        if mm < 2 or r < 1:
            raise ParseError(f"{name}: need m >= 2 and r >= 1")
        return CatalogEntry(
            name,
            mm * r,
            partial(math.factorial, mm),
            partial(_block_group, mm, r),
            _capped(mm * r, partial(block_group_profile, mm, r)),
        )
    m = re.fullmatch(r"alternating:(\d+)", name)
    if m:
        n = int(m.group(1))
        if n < 1:
            raise ParseError(f"{name}: degree must be positive")
        return CatalogEntry(
            name,
            n,
            lambda: math.factorial(n) // 2 if n >= 3 else 1,
            partial(_alternating_group, n),
        )
    m = re.fullmatch(r"symmetric:(\d+)", name)
    if m:
        n = int(m.group(1))
        if n < 1:
            raise ParseError(f"{name}: degree must be positive")
        return CatalogEntry(
            name,
            n,
            partial(math.factorial, n),
            partial(_symmetric_group, n),
            _capped(n, partial(symmetric_profile, n)),
        )
    if name == "agl15":
        return CatalogEntry(name, 5, lambda: 20, agl15_group)
    if name == "gl32":
        return CatalogEntry(name, 7, lambda: 168, gl32_group)
    if name == "gl32-point":
        return CatalogEntry(name, 7, lambda: 24, gl32_point_stabilizer, parent_name="gl32")
    if name == "gl32-plane":
        return CatalogEntry(name, 7, lambda: 24, gl32_plane_stabilizer, parent_name="gl32")
    raise ParseError(f"unknown catalog name: {name!r}")


def profile_of(entry: CatalogEntry, limit: int = ENUMERATION_LIMIT) -> ClassProfile:
    """Analytic profile when available, else an enumeration census."""
    if entry.profile is not None:
        return entry.profile
    check_enumeration(entry.order, limit, census=True)  # before any chain is built
    from .perm import class_profile

    return class_profile(entry.group, limit)
