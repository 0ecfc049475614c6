"""Exact character theory of the symmetric group.

Partitions are tuples of positive ints in non-increasing order.  All character
values are exact Python ints; nothing in this module touches floating point.

Class sums v(lam) = sum_t count(t) chi_lam(t) over a whole cycle-type profile
come from `class_sums`, the one engine behind the weak-sampling distribution
and D_H: a single Murnaghan-Nakayama border-strip recursion over bead
bitmasks, run for every lam and every type of the profile together.
`mn_character` evaluates one character value by its own beta-set recursion;
it is the independent oracle the engine is tested against, and the
orthogonality check reads the full character table through it.
"""

from __future__ import annotations

import math
from functools import cache, lru_cache
from typing import NamedTuple

from .errors import LimitExceeded, PreconditionError
from .profile import sn_class_size

Partition = tuple


def _descending_parts(n: int, max_part: int):
    if n == 0:
        yield ()
        return
    for first in range(min(max_part, n), 0, -1):
        for rest in _descending_parts(n - first, first):
            yield (first,) + rest


@cache
def partitions(n: int) -> tuple:
    """All partitions of n in reverse lexicographic order: (n), ..., (1^n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return tuple(_descending_parts(n, n))


def is_partition(lam) -> bool:
    return all(p >= 1 for p in lam) and all(a >= b for a, b in zip(lam, lam[1:]))


def conjugate(lam: Partition) -> Partition:
    if not lam:
        return ()
    out = []
    for i in range(lam[0]):
        out.append(sum(1 for p in lam if p > i))
    return tuple(out)


def class_sign(mu: Partition) -> int:
    """Sign of the S_n class with cycle type mu: (-1)^(n - #parts)."""
    return -1 if (sum(mu) - len(mu)) % 2 else 1


@cache
def dimension(lam: Partition) -> int:
    """Irrep dimension by the hook length formula: n! / prod(hooks)."""
    if not is_partition(lam):
        raise ValueError(f"{lam} is not a partition")
    n = sum(lam)
    conj = conjugate(lam)
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= row - j + conj[j] - i - 1
    return math.factorial(n) // hooks


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


def character_cache_info():
    return _mn.cache_info()


def clear_character_cache() -> None:
    _mn.cache_clear()
    _class_sum_vector.cache_clear()


def _bead_mask(lam: Partition, beads: int) -> int:
    """The beta-set of lam on `beads` beads as a bitmask: bead i sits at
    lam_i + beads-1-i, with lam padded by zero parts."""
    mask = (1 << (beads - len(lam))) - 1
    for i, part in enumerate(lam):
        mask |= 1 << (part + beads - 1 - i)
    return mask


def _type_dag(items) -> tuple:
    """The cycle types as a trie, largest part first, with equal subtries shared.

    A node is a tuple of (part, weight, child) edges; node 0 is the leaf ().
    A node's value on a shape is the sum over its edges of weight times the
    signed sum of the child's values over all removals of a part-strip; the
    leaf's value on the empty shape is 1.  Each node's edge weights are
    divided by their gcd, the factor moving to the edge above, so subtries
    that differ only by a scalar (the all-ones tails, for one) are one node.
    Returns (nodes, scale, root): the class sum at lam is scale times the
    root's value on lam.
    """
    trie: dict = {}
    for t, c in items:
        node = trie
        for part in t:
            node = node.setdefault(part, {})
        node[0] = c  # part 0 marks the end of a type; types are distinct
    ids: dict = {(): 0}
    nodes: list = [()]

    def intern(node: dict) -> tuple:
        if 0 in node:
            return node[0], 0
        edges = [(part, *intern(node[part])) for part in sorted(node, reverse=True)]
        scale = math.gcd(*(w for _, w, _ in edges))
        key = tuple((part, w // scale, child) for part, w, child in edges)
        if key not in ids:
            ids[key] = len(nodes)
            nodes.append(key)
        return scale, ids[key]

    return (nodes, *intern(trie))


@lru_cache(maxsize=8)
def _class_sum_vector(n: int, items: tuple) -> tuple:
    """Class sums over partitions(n), for validated (type, count) items."""
    if not items:
        return (0,) * len(partitions(n))
    nodes, scale, root = _type_dag(items)
    # memo[node][mask]: the node's value on the shape of mask; the callers
    # look it up, so the leaf is only ever read, on the empty shape
    memo = [{} for _ in nodes]
    memo[0][(1 << n) - 1] = 1

    def value(mask: int, node: int) -> int:
        total = 0
        for k, weight, child in nodes[node]:
            seen = memo[child]
            between = (1 << (k - 1)) - 1
            strips = 0
            # beads b >= k whose slot b-k is empty: each move b -> b-k
            # removes one k-strip, with sign (-1)^(beads strictly between)
            heads = mask & ~(mask << k) & ~((1 << k) - 1)
            while heads:
                low = heads & -heads
                heads ^= low
                b = low.bit_length() - 1
                smaller = mask ^ low ^ (1 << (b - k))
                x = seen.get(smaller)
                if x is None:
                    x = seen[smaller] = value(smaller, child)
                if ((mask >> (b - k + 1)) & between).bit_count() & 1:
                    strips -= x
                else:
                    strips += x
            total += weight * strips
        return total

    return tuple(scale * value(_bead_mask(lam, n), root) for lam in partitions(n))


def class_sums(n: int, counts) -> dict:
    """{lam: sum_t counts[t] chi_lam(t)} for every partition lam of n, in
    partitions(n) order.

    Types may be given in any part order; zero counts are dropped.  Raises
    ValueError for a type that is not a partition and PreconditionError for
    one that does not sum to n, as `mn_character` does.  Each profile is
    computed once and kept in a small cache, cleared by
    `clear_character_cache`.
    """
    merged: dict = {}
    for t, c in counts.items():
        mu = tuple(sorted(t, reverse=True))
        if not is_partition(mu):
            raise ValueError("arguments must be partitions")
        if sum(mu) != n:
            raise PreconditionError(f"partition sizes differ: {n} vs {sum(mu)}")
        merged[mu] = merged.get(mu, 0) + c
    items = tuple(sorted((mu, c) for mu, c in merged.items() if c))
    return dict(zip(partitions(n), _class_sum_vector(n, items)))


#: Largest degree whose full character table orthogonality_check verifies;
#: its cost grows roughly as p(n)^3 (p(12) = 77, p(20) = 627).
ORTHOGONALITY_LIMIT = 12


class OrthogonalityReport(NamedTuple):
    n: int
    num_irreps: int
    passed: bool
    failure: str | None = None


def orthogonality_check(n: int, limit: int = ORTHOGONALITY_LIMIT) -> OrthogonalityReport:
    """Verify row and column orthogonality of the full S_n character table.

    Rows: sum_mu |C_mu| chi_lam(mu) chi_lam'(mu) = n! * delta(lam, lam').
    Columns: sum_lam chi_lam(mu) chi_lam(mu') = delta(mu, mu') * n!/|C_mu|.
    Returns the first counterexample if one exists.
    """
    if n > limit:
        raise LimitExceeded(f"full-table orthogonality check is capped at n={limit}")
    parts = partitions(n)
    sizes = {mu: sn_class_size(mu) for mu in parts}
    table = {(lam, mu): mn_character(lam, mu) for lam in parts for mu in parts}
    fact = math.factorial(n)
    for i, lam in enumerate(parts):
        for lam2 in parts[i:]:
            inner = sum(sizes[mu] * table[lam, mu] * table[lam2, mu] for mu in parts)
            want = fact if lam == lam2 else 0
            if inner != want:
                return OrthogonalityReport(
                    n, len(parts), False,
                    f"row orthogonality fails at {lam}, {lam2}: {inner} != {want}",
                )
    for i, mu in enumerate(parts):
        for mu2 in parts[i:]:
            inner = sum(table[lam, mu] * table[lam, mu2] for lam in parts)
            want = fact // sizes[mu] if mu == mu2 else 0
            if inner != want:
                return OrthogonalityReport(
                    n, len(parts), False,
                    f"column orthogonality fails at {mu}, {mu2}: {inner} != {want}",
                )
    return OrthogonalityReport(n, len(parts), True)
