"""The action of G on the right cosets X = G/H.

Cosets are identified by canonical representatives: the lexicographically
minimal element of each coset, computed greedily along H's stabilizer chain
(whose base is in increasing smallest-moved-point order, which makes the
greedy choice lex-minimal).  The table is built breadth-first from the coset
H with generators applied in input order, so everything downstream is
deterministic.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import _kernels
from .errors import InvariantError, LimitExceeded, PreconditionError
from .perm import PermGroup, Permutation, class_profile, element_class_map, inv_array
from .profile import ENUMERATION_LIMIT, INDEX_LIMIT, check_enumeration, check_index, sn_class_size
from .qfs import d_between, distinguishability_threshold
from .radical import frac_text


class CosetAction:
    """The permutation action of G on X = G/H by right multiplication."""

    def __init__(self, group: PermGroup, subgroup: PermGroup, index: int, reps: np.ndarray):
        self.group = group
        self.subgroup = subgroup
        self.index = index
        self.reps = reps  # (index, degree) canonical representatives, BFS order
        self._lookup = {reps[i].tobytes(): i for i in range(index)}
        self._rank_report = None  # built on first use by rank_subdegrees

    def coset_of(self, x: Permutation) -> int:
        """Index of the coset H*x."""
        z = x.array.copy()
        _kernels.canon_into(z, self.subgroup.chain)
        try:
            return self._lookup[z.tobytes()]
        except KeyError:
            raise PreconditionError("element is not in the parent group") from None

    def representative(self, i: int) -> Permutation:
        return Permutation(self.reps[i].copy())

    def induced_image(self, g: Permutation) -> np.ndarray:
        """The permutation of {0..index-1} induced by g (as an image array)."""
        self._check_member(g)
        out = _kernels.canon_batch(self.reps, g.array, self.subgroup.chain)
        return np.array(
            [self._lookup[out[i].tobytes()] for i in range(self.index)],
            dtype=np.int32,
        )

    def _check_member(self, g: Permutation) -> None:
        if g.degree != self.group.degree or not self.group.contains_array(g.array):
            raise PreconditionError("element is not in the parent group")


def coset_action(G: PermGroup, H: PermGroup, limit: int = INDEX_LIMIT) -> CosetAction:
    if G.degree != H.degree:
        raise PreconditionError("G and H act on different degrees")
    if not H.is_subgroup_of(G):
        raise PreconditionError("H is not a subgroup of G")
    index = G.order // H.order
    check_index(index, limit)
    chain = H.chain
    n = G.degree
    start = np.arange(n, dtype=np.int32)
    _kernels.canon_into(start, chain)
    reps = [start]
    lookup = {start.tobytes(): 0}
    gen_arrays = [g.array for g in G.generators]
    frontier_lo = 0
    while frontier_lo < len(reps):
        frontier = np.stack(reps[frontier_lo:])
        frontier_lo = len(reps)
        for g in gen_arrays:
            out = _kernels.canon_batch(frontier, g, chain)
            for i in range(out.shape[0]):
                key = out[i].tobytes()
                if key not in lookup:
                    if len(reps) >= index:
                        raise InvariantError("coset table exceeded |G:H|")
                    lookup[key] = len(reps)
                    reps.append(out[i].copy())
    if len(reps) != index:
        raise InvariantError("coset table is incomplete")
    return CosetAction(G, H, index, np.stack(reps))


def fix_in_X(ca: CosetAction, g: Permutation) -> int:
    """Number of cosets fixed by g."""
    ca._check_member(g)
    return _kernels.fix_count(ca.reps, g.array, ca.subgroup.chain)


def _sn_type_rep(t: tuple, n: int) -> Permutation:
    """Canonical permutation of cycle type t: cycles on consecutive points."""
    arr = np.arange(n, dtype=np.int32)
    pos = 0
    for length in t:
        for k in range(length):
            arr[pos + k] = pos + (k + 1) % length
        pos += length
    return Permutation(arr)


class PermutationCharacter(NamedTuple):
    """fix_X on one representative per conjugacy class of G."""

    index: int
    entries: tuple  # of (key, representative, class_size, fix_count)

    def as_dict(self) -> dict:
        return {key: fx for key, _, _, fx in self.entries}

    def serialize(self) -> list:
        return [
            {
                "class": list(key) if isinstance(key, tuple) else key,
                "representative": rep.cycles(),
                "class_size": str(size),
                "fix": fx,
            }
            for key, rep, size, fx in self.entries
        ]


def _class_reps(G: PermGroup, limit: int = ENUMERATION_LIMIT):
    """(key, representative, class size) per conjugacy class of G.

    For the full symmetric group the classes are the cycle types; otherwise
    the classes are enumerated (subject to the enumeration bound `limit`).
    """
    n = G.degree
    if G.order == math.factorial(n):
        from .characters import partitions

        return [(t, _sn_type_rep(t, n), sn_class_size(t)) for t in partitions(n)]
    classes, _ = element_class_map(G, limit)
    return [(i, rep, size) for i, (rep, size) in enumerate(classes)]


def permutation_character(ca: CosetAction, limit: int = ENUMERATION_LIMIT) -> PermutationCharacter:
    entries = []
    for key, rep, size in _class_reps(ca.group, limit):
        entries.append((key, rep, size, fix_in_X(ca, rep)))
    return PermutationCharacter(ca.index, tuple(entries))


def class_fixpoint_identity_holds(ca: CosetAction, limit: int = ENUMERATION_LIMIT) -> bool:
    """fix_X(g) |C| == |H ∩ C| |X| for every class of G, checked exactly;
    the census of H and the class map of G are held to `limit`."""
    counts = _class_counts(ca.group, ca.subgroup, limit)
    for key, rep, size in _class_reps(ca.group, limit):
        if fix_in_X(ca, rep) * size != counts.get(key, 0) * ca.index:
            return False
    return True


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


def _image_group_fix_sum(gen_images: list, index: int) -> tuple:
    """BFS closure of the induced generators on X: (order, sum of fix counts)."""
    ident = np.arange(index, dtype=np.int32)
    seen = {ident.tobytes()}
    queue = deque([ident])
    total_fix = index
    count = 1
    while queue:
        x = queue.popleft()
        for g in gen_images:
            y = g[x]
            key = y.tobytes()
            if key not in seen:
                seen.add(key)
                count += 1
                total_fix += int(np.count_nonzero(y == ident))
                queue.append(y)
    return count, total_fix


def rank_subdegrees(ca: CosetAction) -> RankReport:
    """Rank and subdegrees, with the Frobenius cross-check.

    The rank is computed two ways: counting orbits of H on X, and averaging
    fixed points over the elements of H (through the induced image group and
    the kernel multiplicity).  The two must agree exactly.  The report is
    built once per action and kept on it; a failed cross-check raises and
    keeps nothing.
    """
    if ca._rank_report is None:
        ca._rank_report = _build_rank_report(ca)
    return ca._rank_report


def _build_rank_report(ca: CosetAction) -> RankReport:
    H = ca.subgroup
    gen_images = [ca.induced_image(h) for h in H.generators]
    # suborbits: orbit partition of X under the induced generators
    seen = np.zeros(ca.index, dtype=bool)
    subdegrees = []
    for start in range(ca.index):
        if seen[start]:
            continue
        seen[start] = True
        size = 1
        queue = deque([start])
        while queue:
            p = queue.popleft()
            for g in gen_images:
                q = int(g[p])
                if not seen[q]:
                    seen[q] = True
                    size += 1
                    queue.append(q)
        subdegrees.append(size)
    rank = len(subdegrees)
    image_order, image_fix = _image_group_fix_sum(gen_images, ca.index)
    if H.order % image_order:
        raise InvariantError("image order does not divide |H|")
    total_fix = (H.order // image_order) * image_fix
    if total_fix != rank * H.order:
        raise InvariantError(
            "Frobenius identity violated: orbit count and fixed-point average disagree"
        )
    return RankReport(rank, tuple(sorted(subdegrees)), total_fix, image_order)


def subdegree_form_spot_check(ca: CosetAction, samples: int = 3, limit: int = 10**4) -> bool:
    """Spot-verify that subdegrees have the form |H : H ∩ H^g|.

    Checks that the H-orbit of the coset Hg has size |H| / |H ∩ g^-1 H g| for
    the first few non-trivial cosets; needs |H| within the enumeration bound.
    """
    H = ca.subgroup
    if H.order > limit:
        raise LimitExceeded("spot check enumerates H; subgroup too large")
    gen_images = [ca.induced_image(h) for h in H.generators]
    for i in range(1, min(1 + samples, ca.index)):
        x = ca.reps[i]
        xinv = inv_array(x)
        both = 0
        for h in H.element_arrays():
            conj = x[h[xinv]]  # x^-1 h x as an image array
            if H.contains_array(conj):
                both += 1
        orbit = {i}
        queue = deque([i])
        while queue:
            p = queue.popleft()
            for g in gen_images:
                q = int(g[p])
                if q not in orbit:
                    orbit.add(q)
                    queue.append(q)
        if len(orbit) * both != H.order:
            return False
    return True


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
    rr = rank_subdegrees(ca)
    avg = Fraction(ca.index, rr.rank)
    threshold = math.log2(ca.group.order) ** c if ca.group.order > 1 else 1.0
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
    conjugating_element: Permutation | None
    profile_distance: Fraction | None  # D(H, K), only when G = S_n

    @property
    def consistent(self) -> bool:
        ok = self.class_counts_equal == self.perm_chars_equal
        if self.profile_distance is not None:
            ok = ok and self.class_counts_equal == (self.profile_distance == 0)
        return ok

    def serialize(self) -> dict:
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
            else self.conjugating_element.cycles(),
            "profile_distance": None
            if self.profile_distance is None
            else frac_text(self.profile_distance),
            "consistent": self.consistent,
        }


def _class_counts(G: PermGroup, H: PermGroup, limit: int = ENUMERATION_LIMIT) -> dict:
    """|H ∩ C| per conjugacy class C of G that meets H, keyed as in _class_reps."""
    n = G.degree
    if G.order == math.factorial(n):
        return dict(class_profile(H, limit).counts)
    _, class_id = element_class_map(G, limit)
    counts: dict[int, int] = {}
    for arr in H.element_arrays(limit):
        cid = class_id[arr.tobytes()]
        counts[cid] = counts.get(cid, 0) + 1
    return counts


def _conjugacy_search(G: PermGroup, H: PermGroup, K: PermGroup, limit: int):
    """Transporter search: an element g with H^g = K, or None.

    Scans the elements of G in deterministic chain order; feasible only under
    the enumeration bound (the caller checks orders first).
    """
    if G.order > limit:
        return None, None
    hgens = [h.array for h in H.generators]
    if not hgens:
        return (True, Permutation.identity(G.degree)) if K.order == 1 else (False, None)
    for arr in G.element_arrays(limit):
        arr_inv = inv_array(arr)
        if all(K.contains_array(arr[h[arr_inv]]) for h in hgens):
            return True, Permutation(arr.copy())
    return False, None


def check_gassmann_bounds(
    degree: int,
    order_g: int,
    order_h: int,
    order_k: int,
    order_limit: int = ENUMERATION_LIMIT,
    index_limit: int = INDEX_LIMIT,
) -> None:
    """Refuse, from the orders alone, a Gassmann test whose class censuses or
    coset tables are over their bounds, in the order gassmann_test meets them.
    """
    if order_g == math.factorial(degree):  # _class_counts takes censuses of H and K
        for order in (order_h, order_k):
            check_enumeration(order, order_limit, census=True)
    else:  # _class_counts maps the classes of G
        check_enumeration(order_g, order_limit)
    for order in (order_h, order_k):
        check_index(order_g // order, index_limit)


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
    check_gassmann_bounds(G.degree, G.order, H.order, K.order, order_limit, index_limit)
    counts_h = _class_counts(G, H, order_limit)
    counts_k = _class_counts(G, K, order_limit)
    mismatch = None
    for key in sorted(set(counts_h) | set(counts_k)):
        a, b = counts_h.get(key, 0), counts_k.get(key, 0)
        if a != b:
            mismatch = f"class {key}: {a} vs {b}"
            break
    counts_equal = mismatch is None

    chars_equal = (
        permutation_character(coset_action(G, H, index_limit), order_limit).as_dict()
        == permutation_character(coset_action(G, K, index_limit), order_limit).as_dict()
    )

    distance = None
    if G.order == math.factorial(G.degree):
        distance = d_between(
            G.degree, class_profile(H, order_limit), class_profile(K, order_limit)
        )

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
