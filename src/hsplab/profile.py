"""Cycle-type censuses of subgroups of S_n, S_n class sizes, and the work
limits.

This is all the analytic machinery (characters, qfs, lab) needs to know
about a subgroup, and it needs no numpy: a job that works from an analytic
catalog profile never imports the permutation-group layer.  Cycle types are
plain tuples: the partition of the degree with parts descending, fixed
points included as 1s.
"""

from __future__ import annotations

import math
from functools import cache
from typing import Mapping, NamedTuple

from .errors import LimitExceeded, PreconditionError

#: Hard cap on element enumeration; beyond it callers must use an analytic
#: class profile (see hsplab.lab).  Keeps worst-case memory in the tens of MB.
ENUMERATION_LIMIT = 10**6

#: Default bound on |G:H| for coset tables.
INDEX_LIMIT = 10**5

#: Degree cap for partition scans (class-size sandwich, Liebeck report) and
#: the CLI's default character-analysis limit.
DEGREE_LIMIT = 40

#: Largest degree of a permutation group: a census row holds each cycle
#: length's multiplicity as an int16, and a group file of a larger degree is
#: refused before any of its arrays is built.
GROUP_DEGREE_LIMIT = 32000

CycleType = tuple  # partition of the degree, descending, 1s included


def _count_text(x: int) -> str:
    """A positive count in decimal, or, past the interpreter's limit on
    int-to-str conversion, its number of decimal digits, found without str."""
    try:
        return str(x)
    except ValueError:
        digits = (x.bit_length() * 30103) // 100000  # <= floor(log10 x) + 1
        while 10**digits <= x:
            digits += 1
        return f"of {digits} digits"


def check_enumeration(order: int, limit: int = ENUMERATION_LIMIT) -> None:
    """Refuse to enumerate a group of `order` elements when that is over `limit`."""
    if order > limit:
        raise LimitExceeded(
            f"group order {_count_text(order)} exceeds the enumeration bound {limit}"
        )


def check_group_degree(degree: int) -> None:
    """Refuse a permutation group of a degree over GROUP_DEGREE_LIMIT."""
    if degree > GROUP_DEGREE_LIMIT:
        raise LimitExceeded(
            f"degree {_count_text(degree)} exceeds the group degree bound {GROUP_DEGREE_LIMIT}"
        )


def check_index(index: int, limit: int = INDEX_LIMIT) -> None:
    """Refuse a coset table of `index` cosets when that is over `limit`."""
    if index > limit:
        raise LimitExceeded(f"index {_count_text(index)} exceeds the coset table bound {limit}")


class _ProfileFields(NamedTuple):
    degree: int
    counts: Mapping[CycleType, int]
    factors: tuple | None = None


class ClassProfile(_ProfileFields):
    """Exact census of a subgroup of S_n by cycle type.

    This is the only data the analytic machinery needs about a subgroup:
    counts[t] is the number of its elements with S_n cycle type t.

    A profile is canonical once built: each type's parts are sorted, the
    spellings of one type are merged, zero counts are dropped and the types
    come in descending order.  Counts are not judged (negative counts stay
    expressible; `validate` checks a subgroup census).  A part below 1
    raises ValueError, a type that does not sum to the degree
    PreconditionError.

    `factors`, when not None, is the same census as a direct product: a
    tuple whose entries are an int a, the symmetric group S_a, or a plain
    ClassProfile (one with factors None), a census.  The class-sum engine
    walks the product instead of the expanded census; `counts` stays, for
    everything that reads single types.
    """

    __slots__ = ()

    def __new__(cls, degree: int, counts: Mapping, factors: tuple | None = None):
        merged: dict = {}
        for t, c in counts.items():
            mu = tuple(sorted(t, reverse=True))
            if mu and mu[-1] < 1:
                raise ValueError(f"{t} is not a partition")
            if sum(mu) != degree:
                raise PreconditionError(f"cycle type {t} does not sum to the degree {degree}")
            merged[mu] = merged.get(mu, 0) + c
        canonical = {t: merged[t] for t in sorted(merged, reverse=True) if merged[t]}
        return super().__new__(cls, degree, canonical, factors)

    @classmethod
    def _make(cls, fields) -> "ClassProfile":  # so _replace builds through __new__
        return cls(*fields)

    @property
    def order(self) -> int:
        return sum(self.counts.values())

    def count(self, t: CycleType) -> int:
        return self.counts.get(tuple(t), 0)

    def nonidentity_items(self) -> list:
        """(type, count) pairs excluding the identity type, types descending."""
        ident = (1,) * self.degree
        return [(t, c) for t, c in self.counts.items() if t != ident]

    def validate(self) -> None:
        """Check a subgroup census: the identity once, each count in 0..|C_t|."""
        ident = (1,) * self.degree
        if self.counts.get(ident) != 1:
            raise ValueError("profile must contain the identity type exactly once")
        for t, c in self.counts.items():
            if c < 0 or c > sn_class_size(t):
                raise ValueError(f"count {c} for type {t} exceeds the S_n class size")

    def minimal_support(self) -> int:
        """Minimal degree m(H) read off the profile; error on the trivial group."""
        supports = [self.degree - t.count(1) for t, _ in self.nonidentity_items()]
        if not supports:
            raise PreconditionError("minimal degree is undefined for the trivial group")
        return min(supports)


@cache
def centralizer_order(t: CycleType) -> int:
    """z_t = prod_k k^(m_k) m_k!, where t has m_k parts equal to k: the order
    of the centralizer in S_n of a permutation of cycle type t."""
    z = 1
    for part in set(t):
        if part < 1:
            raise ValueError("cycle type parts must be positive")
        m = t.count(part)
        z *= part**m * math.factorial(m)
    return z


def sn_class_size(t: CycleType) -> int:
    """Size of the S_n conjugacy class with cycle type t (n = sum of parts)."""
    return math.factorial(sum(t)) // centralizer_order(tuple(t))


@cache
def _odd_in_factorials(n: int) -> tuple:
    """For m = 0..n, the primes p for which v_p(m!) = sum_{j >= 1}
    floor(m / p^j) (Legendre's formula) is odd, as a bitmask with bit p set."""
    primes = [p for p in range(2, n + 1) if all(p % q for q in range(2, math.isqrt(p) + 1))]
    return tuple(
        sum(1 << p for p in primes if sum(m // p**j for j in range(1, m.bit_length() + 1)) & 1)
        for m in range(n + 1)
    )


@cache
def _product_of_bits(mask: int) -> int:
    return math.prod(p for p in range(mask.bit_length()) if mask >> p & 1)


def class_size_split(t: CycleType) -> tuple:
    """(s, f) with |C_t| = s^2 f and f squarefree, for the S_n class of cycle
    type t, without factoring |C_t|.

    |C_t| = n!/z_t, so v_p(|C_t|) = v_p(n!) - sum_k (m_k v_p(k) + v_p(m_k!)),
    where t has m_k parts equal to k; f is the product of the primes p <= n
    for which that is odd, read off the parities of Legendre's formula
    (v_p(k) = v_p(k!) - v_p((k-1)!)), and s = isqrt(|C_t| / f).
    """
    n = sum(t)
    odd = _odd_in_factorials(n)
    mask = odd[n]
    for k in set(t):
        m = t.count(k)
        mask ^= odd[m]
        if m & 1:
            mask ^= odd[k] ^ odd[k - 1]
    f = _product_of_bits(mask)
    return math.isqrt(math.factorial(n) // centralizer_order(t) // f), f
