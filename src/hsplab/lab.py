"""Support censuses, the class-size sandwich check, analytic profile
constructors for subgroup families too large to enumerate, the catalog, and
`resolve`, which turns a group input (a group file or a catalog name) into
one `CatalogEntry`.

Everything a catalog `analyze` or `sweep` runs lives here, and none of it
needs numpy: a catalog entry builds its group through `hsplab.groups` only
when the group is asked for.  The library-only paper checks (the
support-count diagnostic, the Liebeck and Babai reports) live in
`hsplab.paper`.
"""

from __future__ import annotations

import math
import os
import re
import sys
from functools import cached_property, partial
from typing import TYPE_CHECKING, Callable, NamedTuple

from .errors import LimitExceeded, ParseError, PreconditionError
from .profile import ENUMERATION_LIMIT, ClassProfile, check_enumeration, sn_class_size

if TYPE_CHECKING:
    from .perm import PermGroup

#: Degree cap for partition scans (class-size sandwich, Liebeck report) and
#: the CLI's default character-analysis limit.
DEGREE_LIMIT = 40


# ---------------------------------------------------------------------------
# support census
# ---------------------------------------------------------------------------


class SupportCensus(NamedTuple):
    """counts[k] = number of subgroup elements of support exactly k."""

    degree: int
    counts: dict

    def serialize(self) -> dict:
        return {str(k): str(v) for k, v in sorted(self.counts.items())}


def support_census(prof: ClassProfile) -> SupportCensus:
    counts: dict[int, int] = {}
    for t, c in prof.nonidentity_items():
        k = prof.degree - t.count(1)
        counts[k] = counts.get(k, 0) + c
    return SupportCensus(prof.degree, counts)


# ---------------------------------------------------------------------------
# class-size checks on all of S_n
# ---------------------------------------------------------------------------


class SandwichReport(NamedTuple):
    n: int
    num_types: int
    passed: bool


def class_sandwich_check(n: int, limit: int = DEGREE_LIMIT) -> SandwichReport:
    """Verify C(n,k) <= |C| <= n^k for every class of S_n (k = support)."""
    if n > limit:
        raise LimitExceeded(f"class-size sandwich check is capped at n={limit}")
    from .characters import partitions

    types = partitions(n)
    passed = True
    for t in types:
        k = n - t.count(1)
        if not (math.comb(n, k) <= sn_class_size(t) <= n**k):
            passed = False
    return SandwichReport(n, len(types), passed)


# ---------------------------------------------------------------------------
# analytic profile constructors
# ---------------------------------------------------------------------------


def block_group_profile(m: int, r: int) -> ClassProfile:
    """Census of S_m permuting m rigid blocks of size r inside S_{m*r}.

    A block permutation of cycle type lam (a partition of m) moves points in
    r parallel cycles per part: each part c contributes r cycles of length c,
    with multiplicity the S_m class size of lam.  |H| = m!, and the minimal
    support is 2r.  With r = 1 the group is S_m itself, whose profile also
    carries S_m as its one factor.
    """
    if m < 2 or r < 1:
        raise PreconditionError("need m >= 2 blocks of size r >= 1")
    if r == 1:
        return symmetric_profile(m)
    from .characters import partitions

    counts = {}
    for lam in partitions(m):
        counts[tuple(c for part in lam for c in (part,) * r)] = sn_class_size(lam)
    return ClassProfile(m * r, counts)


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


# ---------------------------------------------------------------------------
# the catalog
# ---------------------------------------------------------------------------


def sha256_hex(data: bytes) -> str:
    """The sha256 of `data` in hex, from CPython's built-in module (`_sha2`
    since 3.12, `_sha256` before), which unlike `hashlib` loads no OpenSSL;
    `hashlib` serves only an interpreter built without either."""
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256(data).hexdigest()


class CatalogEntry:
    """A resolved group input: a catalog name, or a group file (kind "file").

    A catalog entry's `degree` is read off the name.  `order`, `group`
    (generators and their stabilizer chain), `profile` (the analytic census,
    None when the entry has none) and `parent` (the catalog entry of the
    implied parent for comparisons, or None) are built on first use, so a
    job that reads only the census never builds a chain or imports numpy,
    and a degree or order check runs before any of them.  A file entry is
    built from a group that is already parsed, with its chain; it has no
    profile and no parent, and carries the sha256 of the file's bytes.
    """

    def __init__(
        self,
        name: str,
        degree: int,
        build_order: Callable[[], int],
        build_group: Callable[[], PermGroup],
        build_profile: Callable[[], ClassProfile] | None = None,
        parent_name: str | None = None,
        kind: str = "catalog",
        digest: str | None = None,
    ):
        self.name = name
        self.degree = degree
        self.build_order = build_order
        self.build_group = build_group
        self.build_profile = build_profile
        self.parent_name = parent_name
        self.kind = kind
        self.digest = digest

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

    def describe(self) -> dict:
        """The `source` block of a report: the input as given, its kind, a
        sha256 (of a file's bytes, or of "catalog:<name>"), degree and order."""
        if self.digest is None:
            self.digest = sha256_hex(f"catalog:{self.name}".encode())
        return {
            "spec": self.name,
            "kind": self.kind,
            "digest": self.digest,
            "degree": self.degree,
            "order": str(self.order),
        }


#: Analytic catalog profiles are only materialized up to this degree; the
#: partition list alone becomes unwieldy past it (callers hit the degree
#: limit long before).
PROFILE_DEGREE_CAP = 48


def _capped(degree: int, build: Callable[[], ClassProfile]) -> Callable[[], ClassProfile] | None:
    return build if degree <= PROFILE_DEGREE_CAP else None


def _built(name: str, *args) -> Callable[[], PermGroup]:
    """The builder of a catalog group: `hsplab.groups`' function `name`,
    loaded with numpy and the group layer only when it runs."""

    def build() -> PermGroup:
        from . import groups

        return getattr(groups, name)(*args)

    return build


def _numbers(name: str) -> list:
    """The numbers in a catalog name, in order.  One with more digits than
    int() converts (4300 by default) is a ParseError."""
    try:
        return [int(x) for x in re.findall(r"\d+", name)]
    except ValueError:
        raise ParseError(
            f"a catalog number has more than {sys.get_int_max_str_digits()} digits"
        ) from None


class _UnknownName(ParseError):
    """A name that matches no catalog family."""


def resolve_catalog(name: str) -> CatalogEntry:
    """Resolve a catalog name to a lazily built group and, where available,
    an analytic profile.  Grammar: cyclic:k@n, young:a+b+..., block:mxr,
    alternating:n, symmetric:n, agl15, gl32, gl32-point, gl32-plane."""
    m = re.fullmatch(r"cyclic:(\d+)@(\d+)", name)
    if m:
        k, n = _numbers(name)
        if k < 1 or k > n:
            raise ParseError(f"cyclic:{k}@{n}: need 1 <= k <= n")
        return CatalogEntry(name, n, lambda: k, _built("_cyclic_group", k, n))
    m = re.fullmatch(r"young:(\d+(?:\+\d+)*)", name)
    if m:
        parts = _numbers(name)
        if any(p < 1 for p in parts):
            raise ParseError(f"{name}: parts must be positive")
        n = sum(parts)
        return CatalogEntry(
            name,
            n,
            lambda: math.prod(math.factorial(p) for p in parts),
            _built("_young_group", parts),
            _capped(n, partial(young_profile, parts)),
        )
    m = re.fullmatch(r"block:(\d+)x(\d+)", name)
    if m:
        mm, r = _numbers(name)
        if mm < 2 or r < 1:
            raise ParseError(f"{name}: need m >= 2 and r >= 1")
        return CatalogEntry(
            name,
            mm * r,
            partial(math.factorial, mm),
            _built("_block_group", mm, r),
            _capped(mm * r, partial(block_group_profile, mm, r)),
        )
    m = re.fullmatch(r"alternating:(\d+)", name)
    if m:
        (n,) = _numbers(name)
        if n < 1:
            raise ParseError(f"{name}: degree must be positive")
        return CatalogEntry(
            name,
            n,
            lambda: math.factorial(n) // 2 if n >= 3 else 1,
            _built("_alternating_group", n),
        )
    m = re.fullmatch(r"symmetric:(\d+)", name)
    if m:
        (n,) = _numbers(name)
        if n < 1:
            raise ParseError(f"{name}: degree must be positive")
        return CatalogEntry(
            name,
            n,
            partial(math.factorial, n),
            _built("_symmetric_group", n),
            _capped(n, partial(symmetric_profile, n)),
        )
    if name == "agl15":
        return CatalogEntry(name, 5, lambda: 20, _built("agl15_group"))
    if name == "gl32":
        return CatalogEntry(name, 7, lambda: 168, _built("gl32_group"))
    if name == "gl32-point":
        return CatalogEntry(
            name, 7, lambda: 24, _built("gl32_point_stabilizer"), parent_name="gl32"
        )
    if name == "gl32-plane":
        return CatalogEntry(
            name, 7, lambda: 24, _built("gl32_plane_stabilizer"), parent_name="gl32"
        )
    raise _UnknownName(f"unknown catalog name: {name!r}")


def resolve(spec: str) -> CatalogEntry:
    """The entry of a group input: the group file at the path `spec`, parsed
    and its chain built at once, else the catalog name `spec`.  A name of a
    catalog family that the family refuses gets the family's own message."""
    if os.path.exists(spec):
        from .perm import load_group_file, read_group_file

        data = read_group_file(spec)
        group = load_group_file(spec, data)
        digest = sha256_hex(data)
        return CatalogEntry(
            spec, group.degree, lambda: group.order, lambda: group, kind="file", digest=digest
        )
    try:
        return resolve_catalog(spec)
    except _UnknownName:
        raise ParseError(
            f"{spec!r} is neither an existing group file nor a catalog name"
        ) from None


def profile_of(entry: CatalogEntry, limit: int = ENUMERATION_LIMIT) -> ClassProfile:
    """Analytic profile when available, else an enumeration census."""
    if entry.profile is not None:
        return entry.profile
    check_enumeration(entry.order, limit)  # before any chain is built
    from .perm import class_profile

    return class_profile(entry.group, limit)
