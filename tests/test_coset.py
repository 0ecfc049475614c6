import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from hsplab import coset
from hsplab.coset import (
    avg_subdegree_verdict,
    class_fixpoint_identity_holds,
    coset_action,
    fix_in_X,
    fixpoint_bounds,
    gassmann_test,
    permutation_character,
    rank_subdegrees,
)
from hsplab.errors import InvariantError, LimitExceeded, PreconditionError
from hsplab.perm import PermGroup, Permutation, class_profile, inv_array, parse_cycles
from hsplab.qfs import dh_exact

from conftest import every_subgroup

S3 = PermGroup.symmetric(3)
S4 = PermGroup.symmetric(4)
A3 = PermGroup.from_cycles(["(1 2 3)"], 3)
S3_IN_4 = PermGroup.from_cycles(["(1 2)", "(1 2 3)"], 4)
KLEIN = PermGroup.from_cycles(["(1 2)(3 4)", "(1 3)(2 4)"], 4)
S8 = PermGroup.symmetric(8)
C8 = PermGroup.from_cycles(["(1 2 3 4 5 6 7 8)"], 8)


def test_coset_action_examples():
    assert coset_action(S4, S3_IN_4).index == 4
    assert coset_action(S3, A3).index == 2
    assert coset_action(S4, PermGroup.from_cycles(["(1 2 3 4)"], 4)).index == 6


def test_coset_action_errors():
    with pytest.raises(PreconditionError):
        coset_action(PermGroup.alternating(4), PermGroup.from_cycles(["(1 2)"], 4))
    with pytest.raises(LimitExceeded):
        coset_action(S4, PermGroup([], degree=4), limit=10)
    with pytest.raises(PreconditionError):
        coset_action(S4, A3)  # degree mismatch


def test_fix_examples():
    ca = coset_action(S4, S3_IN_4)
    assert fix_in_X(ca, Permutation.identity(4)) == 4
    assert fix_in_X(ca, parse_cycles("(1 2)", 4)) == 2
    ca2 = coset_action(S3, A3)
    assert fix_in_X(ca2, parse_cycles("(1 2 3)", 3)) == 2
    with pytest.raises(PreconditionError):
        fix_in_X(ca2, parse_cycles("(1 2)", 4))


def coset_of(ca, x: Permutation) -> int:
    # coset 0 is H, so x sends it to the coset Hx
    return int(ca.induced_image(x)[0])


def test_coset_of_and_representatives():
    ca = coset_action(S4, S3_IN_4)
    assert coset_of(ca, Permutation.identity(4)) == 0
    for i in range(ca.index):
        assert coset_of(ca, Permutation(ca.reps[i])) == i
    for h in S3_IN_4.generators:
        assert coset_of(ca, h) == 0  # H fixes its own coset


def test_point_stabilizer_of_trivial_coset_is_h():
    for G, H in ((S4, S3_IN_4), (S4, KLEIN), (S3, A3)):
        ca = coset_action(G, H)
        stab = sum(
            1
            for arr in G.element_arrays()
            if coset_of(ca, Permutation(arr.copy())) == 0
        )
        assert stab == H.order


def test_induced_action_is_natural_for_point_stabilizer():
    # S_4 on cosets of the stabilizer of 4 is the natural action, relabeled
    ca = coset_action(S4, S3_IN_4)
    pc = permutation_character(ca)
    for key, rep, size, fx, count in pc.entries:
        assert fx == rep.degree - rep.support()
        assert count == class_profile(S3_IN_4).count(key)


def test_rank_subdegrees_examples():
    assert rank_subdegrees(coset_action(S4, S3_IN_4)).subdegrees == (1, 3)
    assert rank_subdegrees(coset_action(S3, A3)).subdegrees == (1, 1)
    rr = rank_subdegrees(coset_action(S4, KLEIN))
    assert rr.rank == 6 and rr.subdegrees == (1,) * 6


def test_subdegrees_sum_to_index():
    rng = random.Random(3)
    for n in (5, 6, 7):
        Sn = PermGroup.symmetric(n)
        for _ in range(6):
            H = PermGroup([Sn.random_element(rng) for _ in range(2)], n)
            ca = coset_action(Sn, H)
            rr = rank_subdegrees(ca)
            assert sum(rr.subdegrees) == ca.index
            assert rr.subdegrees.count(1) >= 1
            # each suborbit, the H-orbit of a coset Hx, has |H : H ∩ H^x| cosets
            images = np.array([ca.induced_image(Permutation(h)) for h in H.element_arrays()])
            suborbits = {frozenset(images[:, i].tolist()) for i in range(ca.index)}
            assert sorted(map(len, suborbits)) == list(rr.subdegrees)
            for i, column in enumerate(images.T):  # H ∩ H^x is the stabilizer of Hx
                assert len(set(column.tolist())) * np.count_nonzero(column == i) == H.order


def test_normal_subgroup_has_all_subdegrees_one():
    rr = rank_subdegrees(coset_action(S4, PermGroup.alternating(4)))
    assert rr.subdegrees == (1, 1)
    rr = rank_subdegrees(coset_action(S4, KLEIN))
    assert set(rr.subdegrees) == {1}


def test_rank_report_kept_on_the_action_after_the_frobenius_check(monkeypatch):
    # the orbit side goes wrong: identity images give rank 4, not 2.  (H must
    # not be normal: identity images leave the rank of KLEIN in S_4 as it is.)
    ca = coset_action(S4, S3_IN_4)
    monkeypatch.setattr(
        coset.CosetAction, "induced_image", lambda self, g: np.arange(self.index, dtype=np.int32)
    )
    for _ in range(2):  # a failed check keeps nothing, so it raises again
        with pytest.raises(InvariantError, match="Frobenius identity violated"):
            rank_subdegrees(ca)
    monkeypatch.undo()

    rr = rank_subdegrees(ca)
    assert rr == coset._build_rank_report(coset_action(S4, S3_IN_4))
    assert rr.rank == 2 and rank_subdegrees(ca) is rr
    # a new action over the same groups builds its own report
    assert rank_subdegrees(coset_action(S4, S3_IN_4)) is not rr


def test_fixpoint_bounds_examples():
    assert fixpoint_bounds(coset_action(S3, A3)) == (Fraction(2, 3), Fraction(2, 3))
    assert fixpoint_bounds(coset_action(S3, PermGroup.from_cycles(["(1 2)"], 3))) == (
        Fraction(1, 6),
        Fraction(1, 6),
    )
    assert fixpoint_bounds(coset_action(S4, KLEIN)) == (Fraction(3, 4), Fraction(3, 4))


def test_fixpoint_bounds_below_dh():
    for G, H in ((S3, A3), (S3, PermGroup.from_cycles(["(1 2)"], 3)), (S4, KLEIN)):
        b1, b2 = fixpoint_bounds(coset_action(G, H))
        d = dh_exact(G.degree, class_profile(H))
        assert b1 == b2 < d


def test_fixpoint_bounds_trivial_subgroup_rejected():
    with pytest.raises(PreconditionError):
        fixpoint_bounds(coset_action(S3, PermGroup([], degree=3)))


def test_avg_subdegree_examples():
    v = avg_subdegree_verdict(coset_action(S3, A3), 1.0)
    assert v.average_subdegree == 1
    assert v.implied_distinguishable  # normal subgroups are distinguishable
    v = avg_subdegree_verdict(coset_action(S4, S3_IN_4), 1.0)
    assert v.average_subdegree == 2
    v = avg_subdegree_verdict(coset_action(S8, C8), 1.0)
    assert v.average_subdegree == Fraction(5040, v.rank)
    # negative side: |H| = 8 is itself below the polylog threshold, so the
    # average-subdegree criterion implies nothing here
    assert not v.order_above_polylog
    assert not v.implied_distinguishable


def test_class_identity_examples():
    for G, H in ((S4, S3_IN_4), (S4, KLEIN), (S3, A3)):
        assert class_fixpoint_identity_holds(coset_action(G, H))


def test_class_identity_general_parent():
    from hsplab.groups import gl32_group, gl32_point_stabilizer

    ca = coset_action(gl32_group(), gl32_point_stabilizer())
    assert ca.index == 7
    assert class_fixpoint_identity_holds(ca)


def test_gassmann_conjugate_pair():
    H = PermGroup.from_cycles(["(1 2)"], 3)
    K = PermGroup.from_cycles(["(1 3)"], 3)
    rep = gassmann_test(S3, H, K)
    assert rep.orders_equal and rep.class_counts_equal and rep.perm_chars_equal
    assert rep.conjugate is True
    assert rep.profile_distance == 0
    assert rep.consistent
    # the found conjugator actually transports H to K
    g = rep.conjugating_element
    assert all(K.contains_array(g.array[h[inv_array(g.array)]]) for h in H.element_arrays())


def test_gassmann_different_orders():
    rep = gassmann_test(S3, PermGroup.from_cycles(["(1 2)"], 3), A3)
    assert not rep.orders_equal and not rep.class_counts_equal
    assert not rep.perm_chars_equal and rep.conjugate is False
    assert rep.profile_distance == Fraction(4, 3)
    assert rep.consistent


def test_gassmann_showcase_gl32():
    from hsplab.groups import gl32_group, gl32_plane_stabilizer, gl32_point_stabilizer

    G = gl32_group()
    H = gl32_point_stabilizer()
    K = gl32_plane_stabilizer()
    assert (G.order, H.order, K.order) == (168, 24, 24)
    rep = gassmann_test(G, H, K)
    assert rep.class_counts_equal
    assert rep.perm_chars_equal
    assert rep.conjugate is False
    assert rep.consistent


def test_gassmann_conjugacy_search_can_be_skipped():
    H = PermGroup.from_cycles(["(1 2)"], 3)
    K = PermGroup.from_cycles(["(1 3)"], 3)
    # the censuses of H and K fit the order limit; the search over |S_3| = 6 does not
    rep = gassmann_test(S3, H, K, order_limit=5)
    assert rep.conjugate is None  # search skipped above the limit, never guessed
    assert rep.class_counts_equal and rep.consistent


def test_rank_and_gassmann_reports_are_immutable_values():
    rr = rank_subdegrees(coset_action(S4, KLEIN))
    assert rr == rank_subdegrees(coset_action(S4, PermGroup.from_cycles(["(1 2)(3 4)", "(1 3)(2 4)"], 4)))
    H = PermGroup.from_cycles(["(1 2)"], 3)
    rep = gassmann_test(S3, H, A3)
    assert rep == gassmann_test(S3, PermGroup.from_cycles(["(1 2)"], 3), A3)
    with pytest.raises(AttributeError):
        rr.rank = 0
    with pytest.raises(AttributeError):
        rep.conjugate = True


def test_gassmann_refuses_from_the_orders_before_any_census(monkeypatch):
    def uncounted(*args, **kwargs):
        raise AssertionError("took a census of a refused test")

    monkeypatch.setattr(coset, "class_profile", uncounted)
    monkeypatch.setattr(coset, "element_class_map", uncounted)
    S9 = PermGroup.symmetric(9)
    with pytest.raises(LimitExceeded, match="index 181440 exceeds the coset table bound 100000"):
        gassmann_test(S9, S9, PermGroup.from_cycles(["(1 2)"], 9))


def test_gassmann_random_pairs_consistent():
    rng = random.Random(23)
    for _ in range(15):
        n = rng.choice([5, 6])
        Sn = PermGroup.symmetric(n)
        H = PermGroup([Sn.random_element(rng) for _ in range(rng.randint(1, 2))], n)
        K = PermGroup([Sn.random_element(rng) for _ in range(rng.randint(1, 2))], n)
        rep = gassmann_test(Sn, H, K)
        assert rep.consistent
        if rep.conjugate:
            assert rep.class_counts_equal


def test_frobenius_identity_random_actions():
    rng = random.Random(41)
    from hsplab.groups import agl15_group

    pool = [PermGroup.symmetric(6), PermGroup.symmetric(7), agl15_group()]
    for _ in range(10):
        G = pool[rng.randrange(len(pool))]
        H = PermGroup([G.random_element(rng) for _ in range(rng.randint(1, 3))], G.degree)
        ca = coset_action(G, H)
        rr = rank_subdegrees(ca)  # raises internally if the identity fails
        assert rr.total_fix == rr.rank * H.order


def check_class_table_sums(G: PermGroup, H: PermGroup) -> None:
    # total_fix = sum over h in H of fix_X(h); image_order = |H| / |kernel|,
    # where the kernel is every h that fixes all of X
    ca = coset_action(G, H)
    fixes = [fix_in_X(ca, Permutation(h)) for h in H.element_arrays()]
    rr = rank_subdegrees(ca)
    assert rr.total_fix == sum(fixes)
    assert rr.image_order == H.order // fixes.count(ca.index)
    assert H.order % fixes.count(ca.index) == 0
    assert class_fixpoint_identity_holds(ca)


def test_class_table_sums_match_the_element_definitions():
    from hsplab.groups import agl15_group, gl32_group

    rng = random.Random(17)
    pool = [PermGroup.symmetric(n) for n in (5, 6, 7)] + [agl15_group(), gl32_group()]
    for i in range(35):
        G = pool[i % len(pool)]
        check_class_table_sums(
            G, PermGroup([G.random_element(rng) for _ in range(rng.randint(1, 2))], G.degree)
        )


@pytest.mark.parametrize(
    "parent, count", [("S6", 1455), ("A6", 501)], ids=["S6-cycle-types", "A6-class-map"]
)
def test_class_table_sums_over_every_subgroup(parent, count):
    # S_6 builds its class table from H's census by cycle type, A_6 from its
    # class map; each table is checked against every subgroup's elements
    G, subgroups = every_subgroup(parent)
    assert len(subgroups) == count
    for H in subgroups:
        check_class_table_sums(G, H)


_TABLE_READERS = {
    "permutation_character": permutation_character,
    "rank_subdegrees": rank_subdegrees,
    "class_fixpoint_identity_holds": class_fixpoint_identity_holds,
    "fixpoint_bounds": fixpoint_bounds,
    "avg_subdegree_verdict": lambda ca: avg_subdegree_verdict(ca, 1.0),
}


def _gl32_on_points():
    from hsplab.groups import gl32_group, gl32_point_stabilizer

    return gl32_group(), gl32_point_stabilizer()


@pytest.mark.parametrize(
    "pair, order_limit, refused",
    [
        (lambda: (S8, C8), 5, "group order 8 exceeds the enumeration bound 5"),
        (_gl32_on_points, 167, "group order 168 exceeds the enumeration bound 167"),
    ],
    ids=["S8-census", "gl32-class-map"],
)
def test_an_action_holds_its_class_table_to_its_own_order_limit(pair, order_limit, refused):
    # every reader of the class table refuses, whichever reads it first
    G, H = pair()
    ca = coset_action(G, H, order_limit=order_limit)
    for order in itertools.permutations(_TABLE_READERS):
        for name in order:
            with pytest.raises(LimitExceeded, match=refused):
                _TABLE_READERS[name](ca)
    assert ca._table is None and ca._rank_report is None
    ca = coset_action(G, H, order_limit=order_limit + 1000)
    for read in _TABLE_READERS.values():
        read(ca)
    assert rank_subdegrees(ca) == rank_subdegrees(coset_action(G, H))


def _dict_coset_table(G: PermGroup, H: PermGroup) -> np.ndarray:
    """Oracle for the coset table: the BFS over canonical representatives,
    each found row looked up by its bytes in a dict."""
    from hsplab import _kernels

    identity = np.arange(G.degree, dtype=np.int32)
    start = _kernels.canon_batch(identity[None, :], identity, H.chain)[0]
    reps, seen = [start], {start.tobytes()}
    lo = 0
    while lo < len(reps):
        frontier = np.stack(reps[lo:])
        lo = len(reps)
        for g in G.generators:
            for row in _kernels.canon_batch(frontier, g.array, H.chain):
                if row.tobytes() not in seen:
                    seen.add(row.tobytes())
                    reps.append(row.copy())
    return np.stack(reps)


def test_coset_table_matches_the_dict_bfs(s5_subgroups):
    S5 = PermGroup.symmetric(5)
    rng = random.Random(12)
    pairs = [(S5, H) for H in s5_subgroups]
    for n in (6, 7, 8):
        G = PermGroup.alternating(n) if n % 2 else PermGroup.symmetric(n)
        pairs += [(G, PermGroup([G.random_element(rng)], n)) for _ in range(3)]
    # one new coset per BFS round: a cyclic group of order 2520 over the trivial subgroup
    cycles = "(1 2 3 4 5 6 7 8)(9 10 11 12 13 14 15 16 17)(18 19 20 21 22)(23 24 25 26 27 28 29)"
    pairs.append((PermGroup.from_cycles([cycles], 29), PermGroup([], 29)))
    for G, H in pairs:
        ca = coset_action(G, H)
        assert np.array_equal(ca.reps, _dict_coset_table(G, H))
        for g in G.generators:  # each coset Hx goes to the coset H(xg)
            image = ca.induced_image(g)
            assert sorted(image.tolist()) == list(range(ca.index))
            for i in range(min(ca.index, 40)):
                assert coset_of(ca, Permutation(ca.reps[i]) * g) == image[i]


def test_coset_lookup_refuses_an_element_outside_the_parent():
    ca = coset_action(PermGroup.alternating(4), PermGroup.from_cycles(["(1 2 3)"], 4))
    with pytest.raises(PreconditionError):
        ca.induced_image(parse_cycles("(1 2)", 4))
    # a canonical row that is no coset's representative
    with pytest.raises(PreconditionError):
        ca._cosets(np.array([[1, 0, 2, 3]], dtype=np.int32))
