"""Exact character theory of the symmetric group.

Partitions are tuples of positive ints in non-increasing order.  All character
values are exact Python ints; nothing in this module touches floating point.

Class sums v(lam) = sum_t count(t) chi_lam(t) over a whole cycle-type profile
come from `class_sums`, the one engine behind the weak-sampling distribution
and D_H.  In symmetric-function terms v(lam) = <s_lam, F>, where F is the
profile read as a product of factors: a census sum_t c_t p_t, or a symmetric
group S_a, whose census is a! h_a.  The engine turns F into a trie shared by
all lam and walks it on bead bitmasks, with two kinds of edge:

- a p_k edge removes a k-border strip with sign (-1)^height
  (Murnaghan-Nakayama);
- an h_a edge removes a horizontal a-strip, unsigned, with weight a! (the
  adjoint of Pieri's rule), so a Young subgroup S_alpha costs a Kostka
  number's worth of work, v(lam) = |S_alpha| K_{lam,alpha} (Young's rule),
  not a walk over its expanded census.

Each vector is certified before it is cached, by two column-orthogonality
identities that do not run through the engine.  The independent oracle the
engine is tested against, `mn_character`, evaluates one character value by
its own beta-set recursion; it lives in `hsplab.checks`, off the import path
of the analytic jobs, and the orthogonality check here reads the full
character table through it.
"""

from __future__ import annotations

import math
from functools import cache, lru_cache
from itertools import repeat
from operator import add, ge, sub
from typing import NamedTuple

from .errors import InvariantError, LimitExceeded, PreconditionError
from .profile import centralizer_order, sn_class_size

Partition = tuple


@cache
def partitions(n: int) -> tuple:
    """All partitions of n in reverse lexicographic order: (n), ..., (1^n).

    Iterative (algorithm ZS1 of Zoghbi and Stojmenovic, 1998): x[:m] is the
    current partition, with x[h] its last part above 1 and 1s after it.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    x = [1] * n
    x[0] = n
    m = h = 1
    out = [(n,)]
    while x[0] != 1:
        if x[h - 1] == 2:
            x[h - 1] = 1
            m += 1
            h -= 1
        else:
            r = x[h - 1] - 1
            t = m - h + 1
            x[h - 1] = r
            while t >= r:
                x[h] = r
                h += 1
                t -= r
            if t == 0:
                m = h
            else:
                m = h + 1
                if t > 1:
                    x[h] = t
                    h += 1
        out.append(tuple(x[:m]))
    return tuple(out)


def is_partition(lam) -> bool:
    return not lam or (lam[-1] >= 1 and all(map(ge, lam, lam[1:])))


def dimension(lam: Partition) -> int:
    """Irrep dimension from the beads beta_i = lam_i + k-1-i (k = #parts):
    d = n! * prod_{i<j} (beta_i - beta_j) / prod_i beta_i!.  Checks `lam`;
    callers that walk `partitions(n)` read the cached `_dimension`."""
    if not is_partition(lam):
        raise ValueError(f"{lam} is not a partition")
    return _dimension(lam)


@cache
def _dimension(lam: Partition) -> int:
    """dimension(lam), one row at a time: lam without its first row keeps
    the beads beta_1, ..., beta_(k-1), so d_lam = n! d_rest / (m! H_0), with
    m the size of the rest and H_0 = beta_0! / prod_{j>0} (beta_0 - beta_j)
    the product of the hook lengths in the first row."""
    if not lam:
        return 1
    first, rest = lam[0], lam[1:]
    m = sum(rest)
    fact = math.factorial
    # beta_0 - beta_j = lam_0 - lam_j + j
    below = math.prod(map(add, map(sub, repeat(first), rest), range(1, len(lam))))
    return fact(first + m) * below * _dimension(rest) // (fact(m) * fact(first + len(rest)))


def character_cache_info():
    """Hits and misses of the `mn_character` oracle's cache (in `checks`)."""
    from .checks import _mn

    return _mn.cache_info()


def clear_character_cache() -> None:
    """Empty the class-sum cache and the `mn_character` oracle's cache."""
    from .checks import _mn

    _mn.cache_clear()
    _class_sum_vector.cache_clear()


def _bead_mask(lam: Partition, beads: int) -> int:
    """The beta-set of lam on `beads` beads as a bitmask: bead i sits at
    lam_i + beads-1-i, with lam padded by zero parts."""
    mask = (1 << (beads - len(lam))) - 1
    for i, part in enumerate(lam):
        mask |= 1 << (part + beads - 1 - i)
    return mask


def _type_dag(factors) -> tuple:
    """The profile's product as a trie of p_k and h_a edges, equal subtries
    shared.

    `factors` run from the root down: an int a is S_a, one h_a edge of weight
    a!; a (degree, items) pair is a census, a trie of p-edges over its types,
    largest part first, whose ends all lead on to the next factor.  A node is
    a tuple of (k, horizontal, weight, child) edges; node 0 is the leaf ().
    A node's value on a shape is the sum over its edges of weight times the
    sum of the child's values over all removals of a horizontal k-strip
    (unsigned) or of a k-border strip (signed); the leaf's value on the empty
    shape is 1.  Each node's edge weights are divided by their gcd, the
    factor moving to the edge above, so subtries that differ only by a scalar
    (the all-ones tails, for one) are one node.

    Returns (nodes, clears, scale, root): the class sum at lam is scale times
    the root's value on lam.  clears[node] is the most rows a path from the
    node to the leaf can clear, k for a p_k edge and 1 for an h_a edge (a
    horizontal strip empties at most the last row), so the node's value is 0
    on any shape with more rows.
    """
    ids: dict = {(): 0}
    nodes: list = [()]
    clears: list = [0]

    def shared(edges: list) -> tuple:
        scale = math.gcd(*(w for _, _, w, _ in edges))
        key = tuple((k, horizontal, w // scale, child) for k, horizontal, w, child in edges)
        if key not in ids:
            ids[key] = len(nodes)
            nodes.append(key)
            clears.append(max((1 if h else k) + clears[child] for k, h, _, child in key))
        return scale, ids[key]

    def intern(node: dict, end: int) -> tuple:
        if 0 in node:
            return node[0], end
        edges = [(part, False, *intern(node[part], end)) for part in sorted(node, reverse=True)]
        return shared(edges)

    scale, tail = 1, 0
    for factor in reversed(factors):
        if isinstance(factor, int):
            step, tail = shared([(factor, True, math.factorial(factor), tail)])
        else:
            trie: dict = {}
            for t, c in factor[1]:
                node = trie
                for part in t:
                    node = node.setdefault(part, {})
                node[0] = c  # part 0 marks the end of a type; types are distinct
            step, tail = intern(trie, tail)
        scale *= step
    del intern, shared  # intern holds itself: drop the cycle, and ids with it, now
    return nodes, clears, scale, tail


def _horizontal_strips(mask: int, a: int) -> list:
    """The bead masks left by removing a horizontal a-strip from mask's shape.

    Each bead moves down by d_i, into the empty slots right below it (never
    past the old slot of the next lower bead), with sum d_i = a.
    """
    moves = []  # (slot, empty slots below it), top bead first
    heads = mask & ~(mask << 1) & ~1  # beads b >= 1 whose slot b-1 is empty
    while heads:
        b = heads.bit_length() - 1
        heads ^= 1 << b
        moves.append((b, b - (mask & ((1 << b) - 1)).bit_length()))
    room = sum(gap for _, gap in moves)
    out = [(mask, a)]
    for b, gap in moves:
        room -= gap  # what the beads below can still take
        out = [
            (m ^ (1 << b) ^ (1 << (b - d)), left - d)
            for m, left in out
            for d in range(max(0, left - room), min(gap, left) + 1)
        ]
    return [m for m, _ in out]


def _engine(n: int, factors: tuple) -> tuple:
    """Class sums over partitions(n) of the product `factors` (see _type_dag)."""
    if any(not isinstance(f, int) and not f[1] for f in factors):
        return (0,) * len(partitions(n))  # an empty census factor
    nodes, clears, scale, root = _type_dag(factors)
    # memo[node][mask]: the node's value on the shape of mask; the callers
    # look it up, so the leaf is only ever read, on the empty shape
    memo = [{} for _ in nodes]
    memo[0][(1 << n) - 1] = 1

    def value(mask: int, node: int) -> int:
        total = 0
        for k, horizontal, weight, child in nodes[node]:
            seen = memo[child]
            strips = 0
            if horizontal:
                # the shape's rows are the beads above the run at slot 0
                if n + 1 - (mask ^ (mask + 1)).bit_length() > 1 + clears[child]:
                    continue
                for smaller in _horizontal_strips(mask, k):
                    x = seen.get(smaller)
                    if x is None:
                        x = seen[smaller] = value(smaller, child)
                    strips += x
            else:
                # beads b >= k whose slot b-k is empty: each move b -> b-k
                # removes one k-strip, with sign (-1)^(beads strictly between)
                heads = mask & ~(mask << k) & ~((1 << k) - 1)
                while heads:
                    low = heads & -heads
                    heads ^= low
                    smaller = mask ^ low ^ (low >> k)
                    x = seen.get(smaller)
                    if x is None:
                        x = seen[smaller] = value(smaller, child)
                    if (mask & (low - 1) & -(low >> (k - 1))).bit_count() & 1:
                        strips -= x
                    else:
                        strips += x
            total += weight * strips
        return total

    rows = clears[root]
    vec = tuple(
        scale * value(_bead_mask(lam, n), root) if len(lam) <= rows else 0
        for lam in partitions(n)
    )
    del value  # value holds itself: drop the cycle, and the memo with it, now
    return vec


def _certify(n: int, items: tuple, vec: tuple) -> None:
    """Checks that do not run through the engine and hold for any counts,
    subgroup census or not.  Column orthogonality: (a) sum_lam d_lam v(lam)
    = n! c_id and (b) sum_lam v(lam)^2 = sum_t c_t^2 z_t.  The two linear
    characters: (c) v((n)) = sum_t c_t, as chi_(n) = 1, and (d) v((1^n)) =
    sum_t c_t (-1)^(n - len t), as chi_(1^n) = sgn."""
    c_id = next((c for t, c in items if len(t) == n), 0)  # the type (1^n)
    mass = sum(_dimension(lam) * v for lam, v in zip(partitions(n), vec) if v)
    if mass != math.factorial(n) * c_id:
        raise InvariantError(
            f"class-sum certificate (a) sum_lam d_lam v(lam) = n! c_id fails at n={n}: "
            f"{mass} != {math.factorial(n) * c_id}"
        )
    square = sum(v * v for v in vec)
    want = sum(c * c * centralizer_order(t) for t, c in items)
    if square != want:
        raise InvariantError(
            f"class-sum certificate (b) sum_lam v(lam)^2 = sum_t c_t^2 z_t fails at n={n}: "
            f"{square} != {want}"
        )
    total = sum(c for _, c in items)
    if vec[0] != total:
        raise InvariantError(
            f"class-sum certificate (c) v((n)) = sum_t c_t fails at n={n}: {vec[0]} != {total}"
        )
    signed = sum(-c if (n - len(t)) & 1 else c for t, c in items)
    if vec[-1] != signed:
        raise InvariantError(
            f"class-sum certificate (d) v((1^n)) = sum_t c_t sgn(t) fails at n={n}: "
            f"{vec[-1]} != {signed}"
        )


@lru_cache(maxsize=8)
def _class_sum_vector(n: int, items: tuple, factors: tuple) -> tuple:
    """Class sums over partitions(n) of the product `factors`, certified
    against the expanded census `items` (a canonical profile's (type,
    count) pairs)."""
    vec = _engine(n, factors)
    _certify(n, items, vec)
    return vec


def class_sums(prof) -> dict:
    """{lam: sum_t counts[t] chi_lam(t)} for every partition lam of the
    degree n of the ClassProfile `prof`, in partitions(n) order.

    A profile is canonical once built, so its items are the cache key as
    they stand.  When `prof.factors` is not None the engine walks that
    product, and the counts serve the certificate, which so also checks the
    two agree.  A vector that fails the certificate raises InvariantError.
    Each profile is computed once and kept in a small cache, cleared by
    `clear_character_cache`.
    """
    n = prof.degree
    items = tuple(prof.counts.items())
    if prof.factors is None:
        key = ((n, items),)
    else:
        # S_a factors first, largest first: each strips the most off the shape
        sym = sorted((f for f in prof.factors if isinstance(f, int) and f), reverse=True)
        censuses = [
            (f.degree, tuple(f.counts.items()))
            for f in prof.factors
            if not isinstance(f, int) and f.degree
        ]
        if sum(sym) + sum(d for d, _ in censuses) != n:
            raise PreconditionError(f"factor degrees do not add up to n={n}")
        key = (*sym, *censuses)
    return dict(zip(partitions(n), _class_sum_vector(n, items, key)))


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
    from .checks import mn_character

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
