"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Exact values are asserted as exact rationals; upper bounds through
the certified interval comparison; nothing is checked in floating point.
"""

import math
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from conftest import GroupTable
from hsplab.characters import (
    class_sums,
    clear_character_cache,
    dimension,
    orthogonality_check,
    partitions,
)
from hsplab.coset import (
    class_fixpoint_identity_holds,
    coset_action,
    fixpoint_bounds,
    gassmann_test,
    rank_subdegrees,
)
from hsplab.groups import (
    agl15_group,
    block_group_gens,
    gl32_group,
    gl32_plane_stabilizer,
    gl32_point_stabilizer,
    young_gens,
)
from hsplab.lab import block_group_profile, class_sandwich_check, product_profile, young_profile
from hsplab.paper import cycle_type_of_array
from hsplab.perm import ClassProfile, PermGroup, class_profile
from hsplab.qfs import d_between, dh_exact, thm1_bounds, weak_distribution


def report(num: int, message: str) -> None:
    print(f"[criterion {num:2d}] PASS: {message}")


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    # pay the one-time first-call costs outside the timers
    G = PermGroup.from_cycles(["(1 2)", "(1 2 3)"], 3)
    class_profile(G)
    coset_action(PermGroup.symmetric(3), G)


def profile_from_arrays(n: int, arrays) -> ClassProfile:
    counts = Counter(cycle_type_of_array(a) for a in arrays)
    return ClassProfile(n, dict(counts))


def random_subgroup_corpus(seed: int, count: int, degrees=(5, 6, 7, 8)):
    """Deterministic corpus of (degree, subgroup) pairs."""
    rng = random.Random(seed)
    parents = {n: PermGroup.symmetric(n) for n in degrees}
    out = []
    while len(out) < count:
        n = degrees[rng.randrange(len(degrees))]
        G = parents[n]
        H = PermGroup([G.random_element(rng) for _ in range(rng.randint(1, 3))], n)
        out.append((n, H))
    return out


# ---------------------------------------------------------------------------


def test_criterion_01_exact_values():
    t0 = time.perf_counter()
    assert dh_exact(3, class_profile(PermGroup.from_cycles(["(1 2)"], 3))) == Fraction(1, 3)
    assert dh_exact(3, class_profile(PermGroup.from_cycles(["(1 2 3)"], 3))) == Fraction(4, 3)
    assert dh_exact(4, class_profile(PermGroup.from_cycles(["(1 3)(2 4)"], 4))) == Fraction(1, 2)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, f"three exact D_H values (1/3, 4/3, 1/2) in {elapsed:.3f} s")


CORPUS = None


def _corpus():
    global CORPUS
    if CORPUS is None:
        table = GroupTable(PermGroup.symmetric(4))
        s4 = [table.subgroup_from_mask(m) for m in table.all_subgroup_masks()]
        assert len(s4) == 30
        CORPUS = [(4, H) for H in s4] + random_subgroup_corpus(seed=20240611, count=200)
    return CORPUS


def test_criterion_02_route_agreement():
    t0 = time.perf_counter()
    corpus = _corpus()
    assert len(corpus) == 230
    for n, H in corpus:
        prof = class_profile(H)
        dist = weak_distribution(n, prof)
        direct = dh_exact(n, prof)
        assert direct == dist.l1(weak_distribution(n, ClassProfile(n, {(1,) * n: 1})))
        # the dense sum over every partition, Eq. (2) with the identity term
        dense = sum(dimension(lam) * abs(v - dimension(lam)) for lam, v in class_sums(prof).items())
        assert direct == Fraction(dense, math.factorial(n))
        for lam, w in dist.weights.items():  # restriction multiplicities are integers
            assert w > 0 and w % (dimension(lam) * H.order) == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 120
    report(2, f"Eq.(2) route == L1 route (and integral multiplicities) on all {len(corpus)} subgroups in {elapsed:.1f} s")


def test_criterion_03_thm1_sandwich():
    checked = 0
    for n, H in _corpus():
        if H.order < 2:
            continue  # the strict lower bound is stated for |H| >= 2 only
        prof = class_profile(H)
        r = thm1_bounds(n, prof)
        assert r.lower < r.exact_value, (n, prof.counts)
        assert r.upper.compare_to(r.exact_value) >= 0, (n, prof.counts)
        checked += 1
    report(3, f"lower < D_H <= upper with zero violations on {checked} subgroups")


def test_criterion_04_orthogonality():
    from hsplab.checks import mn_character

    t0 = time.perf_counter()
    for n in range(1, 13):
        rep = orthogonality_check(n)
        assert rep.passed, rep.failure
        assert sum(dimension(lam) ** 2 for lam in partitions(n)) == math.factorial(n)
    # character values never exceed the dimension in absolute value
    for lam in partitions(12):
        d = dimension(lam)
        assert all(abs(mn_character(lam, mu)) <= d for mu in partitions(12))
    elapsed = time.perf_counter() - t0
    assert elapsed < 300
    report(4, f"row+column orthogonality and sum d^2 = n! for n <= 12 in {elapsed:.1f} s")


def test_criterion_05_frobenius_and_class_identity():
    rng = random.Random(192837)
    pool = [PermGroup.symmetric(n) for n in (5, 6, 7, 8)] + [gl32_group(), agl15_group()]
    actions = 0
    max_index = 0
    while actions < 100:
        G = pool[rng.randrange(len(pool))]
        H = PermGroup([G.random_element(rng) for _ in range(rng.randint(1, 3))], G.degree)
        index = G.order // H.order
        if index > 5000:
            continue
        ca = coset_action(G, H)
        rr = rank_subdegrees(ca)  # raises if r|H| != sum of fix counts
        assert rr.total_fix == rr.rank * H.order
        assert class_fixpoint_identity_holds(ca)
        max_index = max(max_index, index)
        actions += 1
    report(5, f"Frobenius + class identity exact on 100 random actions (max index {max_index})")


def test_criterion_06_fixpoint_bounds_below_dh():
    checked = 0
    for n in range(2, 7):
        table = GroupTable(PermGroup.symmetric(n))
        masks = table.all_subgroup_masks()
        Sn = table.group
        for mask in masks:
            arrays = table.mask_elements(mask)
            if len(arrays) < 2:
                continue
            prof = profile_from_arrays(n, arrays)
            H = table.subgroup_from_mask(mask)
            assert H.order == len(arrays)
            b1, b2 = fixpoint_bounds(coset_action(Sn, H))
            d = dh_exact(n, prof)
            assert b1 == b2
            assert b1 < d, (n, prof.counts)
            checked += 1
    assert checked == 1 + 5 + 29 + 155 + 1454
    report(6, f"fixed-point bounds strictly below D_H for all {checked} nontrivial subgroups, n <= 6")


def test_criterion_07_gassmann_showcase():
    t0 = time.perf_counter()
    G = gl32_group()
    H = gl32_point_stabilizer()
    K = gl32_plane_stabilizer()
    assert (G.order, H.order, K.order) == (168, 24, 24)
    rep = gassmann_test(G, H, K)
    assert rep.class_counts_equal  # (ii)
    assert rep.perm_chars_equal  # (iii)
    assert d_between(7, class_profile(H), class_profile(K)) == 0  # (i) in S_7
    assert rep.conjugate is False  # the pair is not conjugate
    elapsed = time.perf_counter() - t0
    assert elapsed < 30
    report(7, f"point vs plane stabilizers of the order-168 group: all four verdicts in {elapsed:.1f} s")


def test_criterion_08_theorem5_equivalence():
    rng = random.Random(555)
    parents = [PermGroup.symmetric(5), PermGroup.symmetric(6), gl32_group()]
    pairs = 0
    equal_cases = 0
    while pairs < 500:
        G = parents[rng.randrange(len(parents))]
        H = PermGroup([G.random_element(rng) for _ in range(rng.randint(1, 2))], G.degree)
        K = PermGroup([G.random_element(rng) for _ in range(rng.randint(1, 2))], G.degree)
        if H.order > 10**4 or K.order > 10**4:
            continue
        rep = gassmann_test(G, H, K)
        assert rep.class_counts_equal == rep.perm_chars_equal
        if rep.profile_distance is not None:
            assert rep.class_counts_equal == (rep.profile_distance == 0)
        equal_cases += rep.class_counts_equal
        pairs += 1
    report(8, f"verdicts (i)/(ii)/(iii) coincide on 500 random pairs ({equal_cases} equivalent)")


# frozen goldens from the first computation (exact rationals)
BLOCK12_GOLDENS = {
    1: Fraction(479001599, 239500800),
    2: Fraction(7715473, 23950080),
    3: Fraction(8979697, 239500800),
}


def test_criterion_09_block_trend_at_n12():
    values = {}
    for r, m in ((1, 12), (2, 6), (3, 4)):
        prof = block_group_profile(m, r)
        assert prof.order == math.factorial(m)
        values[r] = dh_exact(12, prof)
    assert values == BLOCK12_GOLDENS
    assert values[1] > values[2] > values[3]
    report(9, "block groups at n=12: D_H strictly decreasing over r=1,2,3, goldens match")


def test_criterion_10_class_size_sandwich():
    t0 = time.perf_counter()
    total_types = 0
    for n in range(1, 41):
        rep = class_sandwich_check(n)
        assert rep.passed
        total_types += rep.num_types
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    report(10, f"C(n,k) <= |C| <= n^k for {total_types} classes over n <= 40 in {elapsed:.1f} s")


def test_criterion_11_analytic_vs_enumeration():
    cases = 0
    for m, r in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (5, 2), (6, 1), (7, 1)):
        G = PermGroup(block_group_gens(m, r), m * r)
        assert G.order <= 10**4
        assert dict(class_profile(G).counts) == dict(block_group_profile(m, r).counts)
        cases += 1
    for parts in ([2], [3], [2, 2], [3, 2], [4, 3], [2, 2, 2], [5, 2], [3, 3, 2]):
        G = PermGroup(young_gens(parts), sum(parts))
        assert G.order <= 10**4
        assert dict(class_profile(G).counts) == dict(young_profile(parts).counts)
        cases += 1
    factor_gens = {
        2: ["(1 2)"],
        3: ["(1 2 3)"],
        4: ["(1 2 3 4)"],
        6: ["(1 2)", "(1 2 3 4 5 6)"],
    }
    for na, nb in ((2, 3), (3, 3), (4, 6), (6, 4)):
        A = PermGroup.from_cycles(factor_gens[na], na)
        B = PermGroup.from_cycles(factor_gens[nb], nb)
        analytic = product_profile(class_profile(A), class_profile(B))
        shifted = []
        for g in B.generators:
            imgs = list(range(na)) + [x + na for x in g.tolist()]
            shifted.append(imgs)
        combined = PermGroup(
            [g.tolist() + list(range(na, na + nb)) for g in A.generators] + shifted,
            na + nb,
        )
        assert combined.order == A.order * B.order <= 10**4
        assert dict(class_profile(combined).counts) == dict(analytic.counts)
        cases += 1
    report(11, f"analytic profiles match enumeration censuses in all {cases} cases")


def test_criterion_12_s30_performance():
    prof = block_group_profile(10, 3)
    assert len(prof.counts) <= 50 and prof.degree == 30
    clear_character_cache()
    t0 = time.perf_counter()
    d1 = dh_exact(30, prof)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    assert 0 < d1 < 2
    report(12, f"D_H for S_30 ({len(prof.counts)}-type profile) in {elapsed:.1f} s")
