"""Cycle-type censuses of subgroups of S_n, and the work limits.

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

CycleType = tuple  # partition of the degree, descending, 1s included


def check_enumeration(order: int, limit: int = ENUMERATION_LIMIT, census: bool = False) -> None:
    """Refuse to enumerate a group of `order` elements when that is over
    `limit`; a refused census also points at the analytic constructors."""
    if order > limit:
        advice = "; use an analytic profile constructor instead" if census else ""
        raise LimitExceeded(f"group order {order} exceeds the enumeration bound {limit}{advice}")


def check_index(index: int, limit: int = INDEX_LIMIT) -> None:
    """Refuse a coset table of `index` cosets when that is over `limit`."""
    if index > limit:
        raise LimitExceeded(f"index {index} exceeds the coset table bound {limit}")


class ClassProfile(NamedTuple):
    """Exact census of a subgroup of S_n by cycle type.

    This is the only data the analytic machinery needs about a subgroup:
    counts[t] is the number of its elements with S_n cycle type t.

    `factors`, when not None, is the same census as a direct product: a
    tuple whose entries are an int a, the symmetric group S_a, or a plain
    ClassProfile (one with factors None), a census.  The class-sum engine
    walks the product instead of the expanded census; `counts` stays, for
    everything that reads single types.
    """

    degree: int
    counts: Mapping[CycleType, int]
    factors: tuple | None = None

    @classmethod
    def identity(cls, degree: int) -> "ClassProfile":
        return cls(degree, {(1,) * degree: 1})

    @property
    def order(self) -> int:
        return sum(self.counts.values())

    def count(self, t: CycleType) -> int:
        return self.counts.get(tuple(t), 0)

    def nonidentity_items(self):
        """(type, count) pairs excluding the identity type, deterministic order."""
        ident = (1,) * self.degree
        return [(t, c) for t, c in sorted(self.counts.items(), reverse=True)
                if t != ident and c]

    def validate(self) -> None:
        ident = (1,) * self.degree
        if self.counts.get(ident) != 1:
            raise ValueError("profile must contain the identity type exactly once")
        for t, c in self.counts.items():
            if sum(t) != self.degree or any(p < 1 for p in t) or list(t) != sorted(t, reverse=True):
                raise ValueError(f"{t} is not a cycle type of degree {self.degree}")
            if c < 0 or c > sn_class_size(t):
                raise ValueError(f"count {c} for type {t} exceeds the S_n class size")

    def minimal_support(self) -> int:
        """Minimal degree m(H) read off the profile; error on the trivial group."""
        supports = [self.degree - t.count(1) for t, c in self.counts.items()
                    if c and t != (1,) * self.degree]
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
