"""The action of G on the right cosets X = G/H.

Cosets are identified by canonical representatives: the lexicographically
minimal element of each coset, computed greedily along H's stabilizer chain
(whose base is in increasing smallest-moved-point order, which makes the
greedy choice lex-minimal).  The table is built breadth-first from the coset
H with generators applied in input order, so everything downstream is
deterministic.  One dict from each representative's bytes to its coset
number serves the BFS and `induced_image`; it holds about 150 bytes per coset
beyond the table's own rows.  A fix count sifts each coset's conjugate of g
through H's chain (`_kernels.fix_count`).

The exact-number layers (`qfs`, `radical`) are imported by the functions and
`serialize` methods that use them, so a job that only checks identities on
the action, the Frobenius suite, loads neither.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import _kernels
from .errors import InvariantError, PreconditionError
from .perm import PermGroup, class_profile, cycles, element_class_map, inv_array, orbit_labels
from .profile import (
    ENUMERATION_LIMIT,
    INDEX_LIMIT,
    ClassProfile,
    check_enumeration,
    check_index,
    sn_class_size,
)


class CosetAction:
    """The permutation action of G on X = G/H by right multiplication."""

    def __init__(
        self,
        group: PermGroup,
        subgroup: PermGroup,
        reps: np.ndarray,
        cosets: dict,
        order_limit: int,
    ):
        self.group = group
        self.subgroup = subgroup
        self.order_limit = order_limit  # bounds the class table's census of H or class map of G
        self.index = reps.shape[0]
        self.reps = reps  # (index, degree) canonical representatives, BFS order
        self._coset_of = cosets  # the bytes of each row of reps -> its row number
        # built on first use by fix_in_X: the inverse of each row of reps,
        # and the points that G moves
        self._reps_inv = self._moved = None
        self._table = None  # built on first use by permutation_character
        self._rank_report = None  # built on first use by rank_subdegrees

    def _cosets(self, canon: np.ndarray) -> np.ndarray:
        """The coset of each row of a matrix of canonical representatives."""
        try:
            # row by row, so no list of every row's bytes sits next to the dict
            return np.array([self._coset_of[row.tobytes()] for row in canon], dtype=np.int32)
        except KeyError:
            raise PreconditionError("element is not in the parent group") from None

    def induced_image(self, g: np.ndarray) -> np.ndarray:
        """The permutation of {0..index-1} induced by g (as an image array)."""
        self._check_member(g)
        out = _kernels.canon_batch(self.reps, g, self.subgroup.chain)
        return self._cosets(out)

    def _check_member(self, g: np.ndarray) -> None:
        if g.shape != (self.group.degree,) or not self.group.contains_array(g):
            raise PreconditionError("element is not in the parent group")


def coset_action(
    G: PermGroup, H: PermGroup, limit: int = INDEX_LIMIT, order_limit: int = ENUMERATION_LIMIT
) -> CosetAction:
    """The action of G on G/H, its coset table held to `limit` cosets and its
    class table (built on first use) to `order_limit` elements."""
    if G.degree != H.degree:
        raise PreconditionError("G and H act on different degrees")
    if not H.is_subgroup_of(G):
        raise PreconditionError("H is not a subgroup of G")
    index = G.order // H.order
    check_index(index, limit)
    chain = H.chain
    reps = np.empty((index, G.degree), dtype=np.int32)
    # the coset H, whose lex-least element is the identity
    reps[0] = np.arange(G.degree, dtype=np.int32)
    cosets = {reps[0].tobytes(): 0}  # the bytes of each row met -> its coset
    row_bytes = np.dtype((np.void, reps.itemsize * G.degree))  # a row as one value
    lo, count = 0, 1
    while G.generators and lo < count:
        # one BFS round: the frontier times each generator in turn, the new
        # cosets numbered in that order, as they are first met
        frontier = reps[lo:count]
        lo = count
        for g in G.generators:
            out = _kernels.canon_batch(frontier, g, chain)
            met = []
            for row, key in enumerate(out.view(row_bytes).ravel().tolist()):
                if key not in cosets:
                    cosets[key] = len(cosets)
                    met.append(row)
            if len(cosets) > index:
                raise InvariantError("coset table exceeded |G:H|")
            reps[count:len(cosets)] = out.take(met, axis=0)
            count = len(cosets)
    if count != index:
        raise InvariantError("coset table is incomplete")
    return CosetAction(G, H, reps, cosets, order_limit)


def fix_in_X(ca: CosetAction, g: np.ndarray) -> int:
    """Number of cosets fixed by g."""
    ca._check_member(g)
    if ca._reps_inv is None:
        points = np.arange(ca.group.degree, dtype=np.int32)
        ca._reps_inv = np.empty_like(ca.reps)
        np.put_along_axis(ca._reps_inv, ca.reps, points, axis=1)
        moving = [h != points for h in ca.group.generators]
        ca._moved = np.flatnonzero(np.any(moving, axis=0)).tolist()
    return _kernels.fix_count(ca.reps, ca._reps_inv, g, ca.subgroup.chain, ca._moved)


def _sn_type_rep(t: tuple, n: int) -> np.ndarray:
    """Canonical permutation of cycle type t: cycles on consecutive points."""
    arr = np.arange(n, dtype=np.int32)
    pos = 0
    for length in t:
        for k in range(length):
            arr[pos + k] = pos + (k + 1) % length
        pos += length
    return arr


class PermutationCharacter(NamedTuple):
    """The class table of an action: one row per conjugacy class C of G."""

    index: int
    entries: tuple  # of (key, representative, |C|, fix_X on C, |H ∩ C|)

    def as_dict(self) -> dict:
        return {key: fx for key, _, _, fx, _ in self.entries}


def permutation_character(ca: CosetAction) -> PermutationCharacter:
    """The action's class table, built once and kept on it.

    For G = S_n the classes are the cycle types, read with H's census, which
    is taken before anything of G is built; otherwise they are the classes of
    G's class map, with H's elements found by their positions in it.  Both
    enumerations are held to the action's `order_limit`.
    """
    if ca._table is None:
        G, H, n = ca.group, ca.subgroup, ca.group.degree
        if G.order == math.factorial(n):
            from .characters import partitions

            counts = class_profile(H, ca.order_limit).counts
            classes = [
                (t, _sn_type_rep(t, n), sn_class_size(t), counts.get(t, 0)) for t in partitions(n)
            ]
        else:
            reps, class_ids = element_class_map(G, ca.order_limit)
            # H's elements, as images of G's base points, keyed by their positions in G
            positions = G.chain.positions(H.chain.images(G.chain.base))
            counts = np.bincount(class_ids[positions], minlength=len(reps)).tolist()
            classes = [(i, rep, size, c) for i, ((rep, size), c) in enumerate(zip(reps, counts))]
        ca._table = PermutationCharacter(
            ca.index,
            tuple((key, rep, size, fix_in_X(ca, rep), c) for key, rep, size, c in classes),
        )
    return ca._table


def class_fixpoint_identity_holds(ca: CosetAction) -> bool:
    """fix_X(g) |C| == |H ∩ C| |X| for every class of G, checked exactly."""
    return all(
        fx * size == count * ca.index for _, _, size, fx, count in permutation_character(ca).entries
    )


# ---------------------------------------------------------------------------
# rank, subdegrees, Frobenius
# ---------------------------------------------------------------------------


class RankReport(NamedTuple):
    rank: int
    subdegrees: tuple
    total_fix: int  # sum of fix_X(h) over all h in H, identity included
    image_order: int  # |phi(H)|, the image of H acting on X

    def serialize(self) -> dict:
        return {
            "rank": self.rank,
            "subdegrees": list(self.subdegrees),
            "total_fix": str(self.total_fix),
            "image_order": str(self.image_order),
        }


def rank_subdegrees(ca: CosetAction) -> RankReport:
    """Rank and subdegrees, with the Frobenius cross-check.

    The rank is computed two ways: counting the orbits of H on X under the
    induced generators, and averaging fixed points over the elements of H,
    sum_C |H ∩ C| fix_X(C) / |H| over the action's class table.  The two
    must agree exactly.  The report is built once per action and kept on it;
    a failed cross-check raises and keeps nothing.
    """
    if ca._rank_report is None:
        ca._rank_report = _build_rank_report(ca)
    return ca._rank_report


def _build_rank_report(ca: CosetAction) -> RankReport:
    H = ca.subgroup
    table = permutation_character(ca).entries  # refuses H before any orbit work
    total_fix = sum(count * fx for _, _, _, fx, count in table)
    # the kernel of H on X: the classes of G that fix every coset
    kernel = sum(count for _, _, _, fx, count in table if fx == ca.index)
    # suborbits: the orbits of H on X, each labelled by its least coset
    labels = orbit_labels([ca.induced_image(h) for h in H.generators], ca.index)
    sizes = np.bincount(labels)
    subdegrees = sorted(sizes[sizes > 0].tolist())
    rank = len(subdegrees)
    if total_fix != rank * H.order:
        raise InvariantError(
            "Frobenius identity violated: orbit count and fixed-point average disagree"
        )
    if H.order % kernel:
        raise InvariantError("the kernel does not divide |H|")
    return RankReport(rank, tuple(subdegrees), total_fix, H.order // kernel)


def fixpoint_bounds(ca: CosetAction) -> tuple:
    """The two fixed-point lower bounds on D_H, as exact rationals.

    bound (i) = sum_{h != e} fix_X(h) / |G|; bound (ii) = r/|X| - 1/|H|.
    The Frobenius lemma makes them identical; both routes are computed and
    compared before returning.
    """
    if ca.subgroup.order < 2:
        raise PreconditionError("fixed-point bounds require |H| >= 2")
    rr = rank_subdegrees(ca)
    bound_i = Fraction(rr.total_fix - ca.index, ca.group.order)
    bound_ii = Fraction(rr.rank, ca.index) - Fraction(1, ca.subgroup.order)
    if bound_i != bound_ii:
        raise InvariantError("fixed-point bound identity violated")
    return bound_i, bound_ii


class AvgSubdegreeVerdict(NamedTuple):
    average_subdegree: Fraction
    rank: int
    index: int
    subgroup_order: int
    c: float
    log_base: int
    threshold: float
    average_is_polylog: bool
    order_above_polylog: bool
    bound_ii: Fraction
    implied_distinguishable: bool

    def serialize(self) -> dict:
        from .radical import frac_text

        return {
            "average_subdegree": frac_text(self.average_subdegree),
            "rank": self.rank,
            "index": self.index,
            "subgroup_order": str(self.subgroup_order),
            "c": self.c,
            "log_base": self.log_base,
            "threshold": self.threshold,
            "average_is_polylog": self.average_is_polylog,
            "order_above_polylog": self.order_above_polylog,
            "bound_ii": frac_text(self.bound_ii),
            "implied_distinguishable": self.implied_distinguishable,
        }


def avg_subdegree_verdict(ca: CosetAction, c: float) -> AvgSubdegreeVerdict:
    """Average-subdegree test: small average subdegree with |H| above the
    polylog size bound forces D_H > bound (ii) >= 1/avg - 1/|H|."""
    from .qfs import distinguishability_threshold, log2_power

    rr = rank_subdegrees(ca)
    avg = Fraction(ca.index, rr.rank)
    threshold = log2_power(ca.group.order, c)
    avg_small = bool(avg <= threshold)
    order_big = bool(ca.subgroup.order > threshold)
    if ca.subgroup.order >= 2:
        bound_ii = fixpoint_bounds(ca)[1]
    else:
        bound_ii = Fraction(0)
    implied = bool(
        avg_small
        and order_big
        and bound_ii >= distinguishability_threshold(ca.group.order, c)
    )
    return AvgSubdegreeVerdict(
        average_subdegree=avg,
        rank=rr.rank,
        index=ca.index,
        subgroup_order=ca.subgroup.order,
        c=c,
        log_base=2,
        threshold=threshold,
        average_is_polylog=avg_small,
        order_above_polylog=order_big,
        bound_ii=bound_ii,
        implied_distinguishable=implied,
    )


# ---------------------------------------------------------------------------
# Gassmann equivalence
# ---------------------------------------------------------------------------


class GassmannReport(NamedTuple):
    """Verdicts for the three equivalent conditions plus conjugacy.

    class_counts_equal (ii), perm_chars_equal (iii) and distance (i, when the
    parent is the full symmetric group) must always agree; conjugacy is the
    strictly finer relation that Gassmann pairs are allowed to fail.
    """

    degree: int
    order_h: int
    order_k: int
    orders_equal: bool
    class_counts_equal: bool
    first_class_mismatch: str | None
    perm_chars_equal: bool
    conjugate: bool | None  # None = search skipped (|G| beyond the order limit)
    conjugating_element: np.ndarray | None
    profile_distance: Fraction | None  # D(H, K), only when G = S_n

    @property
    def consistent(self) -> bool:
        ok = self.class_counts_equal == self.perm_chars_equal
        if self.profile_distance is not None:
            ok = ok and self.class_counts_equal == (self.profile_distance == 0)
        return ok

    def serialize(self) -> dict:
        from .radical import frac_text

        return {
            "degree": self.degree,
            "order_h": str(self.order_h),
            "order_k": str(self.order_k),
            "orders_equal": self.orders_equal,
            "class_counts_equal": self.class_counts_equal,
            "first_class_mismatch": self.first_class_mismatch,
            "perm_chars_equal": self.perm_chars_equal,
            "conjugate": self.conjugate,
            "conjugating_element": None
            if self.conjugating_element is None
            else cycles(self.conjugating_element),
            "profile_distance": None
            if self.profile_distance is None
            else frac_text(self.profile_distance),
            "consistent": self.consistent,
        }


def _conjugacy_search(G: PermGroup, H: PermGroup, K: PermGroup, limit: int):
    """Transporter search: an element g with H^g = K, or None.

    Scans the elements of G in deterministic chain order; feasible only under
    the enumeration bound (the caller checks orders first).
    """
    if G.order > limit:
        return None, None
    if not H.generators:
        return (True, np.arange(G.degree, dtype=np.int32)) if K.order == 1 else (False, None)
    for arr in G.element_arrays(limit):
        arr_inv = inv_array(arr)
        if all(K.contains_array(arr[h[arr_inv]]) for h in H.generators):
            return True, arr.copy()
    return False, None


def check_action_bounds(
    degree: int, order_g: int, order_h: int, order_limit: int, index_limit: int
) -> None:
    """Refuse, from the orders alone, the action of G on G/H and its class
    table when either is over its bound: the index first, then what the
    table enumerates, H's census when G = S_n or G's class map otherwise.
    """
    check_index(order_g // order_h, index_limit)
    if order_g == math.factorial(degree):
        check_enumeration(order_h, order_limit)
    else:
        check_enumeration(order_g, order_limit)


def gassmann_test(
    G: PermGroup,
    H: PermGroup,
    K: PermGroup,
    order_limit: int = ENUMERATION_LIMIT,
    index_limit: int = INDEX_LIMIT,
) -> GassmannReport:
    """All Gassmann-equivalence verdicts for H, K <= G.

    (ii) is the class-intersection census; (iii) is tested as equality of the
    permutation characters of G on G/H and G/K (equivalent to equivalence of
    the linear representations, which the characters determine); conjugacy
    uses a transporter search; when G is the full symmetric group the exact
    distance D(H,K) realises (i).  Every enumeration (the censuses, the class
    map of G, the transporter search) is held to `order_limit`: an
    enumeration over it is refused, except the transporter search, which is
    skipped (conjugate is None).
    """
    for sub in (H, K):
        if not sub.is_subgroup_of(G):
            raise PreconditionError("H and K must be subgroups of G")
    for sub in (H, K):
        check_action_bounds(G.degree, G.order, sub.order, order_limit, index_limit)
    table_h, table_k = (
        permutation_character(coset_action(G, sub, index_limit, order_limit)) for sub in (H, K)
    )
    counts_h, counts_k = (
        {key: count for key, _, _, _, count in t.entries} for t in (table_h, table_k)
    )
    mismatch = None
    for key in sorted(counts_h):
        a, b = counts_h[key], counts_k[key]
        if a != b:
            mismatch = f"class {key}: {a} vs {b}"
            break
    counts_equal = mismatch is None
    chars_equal = table_h.as_dict() == table_k.as_dict()

    distance = None
    if G.order == math.factorial(G.degree):
        from .qfs import d_between

        n = G.degree
        distance = d_between(n, ClassProfile(n, counts_h), ClassProfile(n, counts_k))

    if H.order != K.order:
        conjugate, conj_elem = False, None
    elif not counts_equal:
        # conjugate subgroups meet every class equally; no search needed
        conjugate, conj_elem = False, None
    else:
        conjugate, conj_elem = _conjugacy_search(G, H, K, order_limit)

    return GassmannReport(
        degree=G.degree,
        order_h=H.order,
        order_k=K.order,
        orders_equal=H.order == K.order,
        class_counts_equal=counts_equal,
        first_class_mismatch=mismatch,
        perm_chars_equal=chars_equal,
        conjugate=conjugate,
        conjugating_element=conj_elem,
        profile_distance=distance,
    )
