import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from conftest import random_subgroup
from hypothesis import given, settings
from hypothesis import strategies as st

from hsplab import characters
from hsplab.characters import class_sums, dimension, partitions
from hsplab.checks import mn_character
from hsplab.cli import main
from hsplab.errors import InvariantError, PreconditionError
from hsplab.lab import block_group_profile, symmetric_profile, young_profile
from hsplab.paper import cycle_type_of_array, poly_subgroup_verdict
from hsplab.perm import PermGroup, class_profile, cycles
from hsplab.profile import ClassProfile, sn_class_size
from hsplab.qfs import (
    BoundsReport,
    cmin_bounds,
    d_between,
    dh_exact,
    distinguishability_threshold,
    thm1_bounds,
    verdict,
    weak_distribution,
)

H12_S3 = class_profile(PermGroup.from_cycles(["(1 2)"], 3))
A3 = class_profile(PermGroup.from_cycles(["(1 2 3)"], 3))
S3 = class_profile(PermGroup.symmetric(3))
BLOCK_S4 = class_profile(PermGroup.from_cycles(["(1 3)(2 4)"], 4))


def frac(a, b):
    return Fraction(a, b)


def trivial(n):
    """The trivial group's census: its distribution is Plancherel's."""
    return ClassProfile(n, {(1,) * n: 1})


def dense_dh(n, prof):
    """Oracle: D_H = 1/n! * sum_lam d_lam |v(lam) - d_lam| over every
    partition, with v the class sums of a census counting the identity once."""
    total = sum(dimension(lam) * abs(v - dimension(lam)) for lam, v in class_sums(prof).items())
    return Fraction(total, math.factorial(n))


# ---------------------------------------------------------------------------
# distributions
# ---------------------------------------------------------------------------


def test_plancherel_s3():
    d = weak_distribution(3, trivial(3))
    assert d.weights == {(3,): 1, (2, 1): 4, (1, 1, 1): 1}
    assert [d.prob(lam) for lam in partitions(3)] == [frac(1, 6), frac(4, 6), frac(1, 6)]


def test_plancherel_is_dimension_squares():
    for n in (1, 5, 9):
        fact = math.factorial(n)
        dist = weak_distribution(n, trivial(n))
        assert dist.weights == {lam: dimension(lam) ** 2 for lam in partitions(n)}
        assert {lam: dist.prob(lam) for lam in partitions(n)} == {
            lam: Fraction(dimension(lam) ** 2, fact) for lam in partitions(n)
        }
        assert dh_exact(n, trivial(n)) == 0


def test_weak_distribution_examples():
    # weights hold the support alone; prob reads 0 off it
    d = weak_distribution(3, H12_S3)
    assert d.weights == {(3,): 2, (2, 1): 4}
    assert [d.prob(lam) for lam in partitions(3)] == [frac(1, 3), frac(2, 3), 0]
    d = weak_distribution(3, A3)
    assert d.weights == {(3,): 3, (1, 1, 1): 3}
    assert [d.prob(lam) for lam in partitions(3)] == [frac(1, 2), 0, frac(1, 2)]
    assert d.serialize() == [
        {"partition": [3], "prob": "1/2"},
        {"partition": [2, 1], "prob": "0/1"},
        {"partition": [1, 1, 1], "prob": "1/2"},
    ]


def test_distribution_normalization_and_integrality(s4_subgroups):
    for H in s4_subgroups:
        prof = class_profile(H)
        dist = weak_distribution(4, prof)
        assert all(type(w) is int for w in dist.weights.values())
        assert sum(dist.weights.values()) == math.factorial(4)
        assert sum(dist.prob(lam) for lam in partitions(4)) == 1
        for lam, w in dist.weights.items():
            assert w > 0 and w % (dimension(lam) * H.order) == 0


def test_negative_mass_detected():
    bogus = ClassProfile(3, {(1, 1, 1): 1, (2, 1): 5})
    with pytest.raises(InvariantError, match="negative mass"):
        weak_distribution(3, bogus)


def test_class_sums_not_divisible_by_the_order_are_refused():
    # identity plus one 3-cycle: unit mass and no negative class sum, but
    # v((2, 1)) = 2 - 1 = 1 is not a multiple of |H| = 2
    bogus = ClassProfile(3, {(1, 1, 1): 1, (3,): 1})
    assert class_sums(bogus) == {(3,): 2, (2, 1): 1, (1, 1, 1): 2}
    for check in (weak_distribution, dh_exact, thm1_bounds):
        with pytest.raises(InvariantError, match=r"not a multiple of \|H\| = 2"):
            check(3, bogus)


def test_degree_mismatch():
    with pytest.raises(PreconditionError):
        weak_distribution(4, H12_S3)
    with pytest.raises(PreconditionError):
        d_between(3, H12_S3, BLOCK_S4)


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------


def test_dh_examples():
    assert dh_exact(3, ClassProfile(3, {(1, 1, 1): 1})) == 0
    assert dh_exact(3, H12_S3) == frac(1, 3)
    assert dh_exact(3, A3) == frac(4, 3)
    assert dh_exact(4, BLOCK_S4) == frac(1, 2)


def test_dh_equals_l1_route(s4_subgroups):
    plancherel = weak_distribution(4, trivial(4))
    for H in s4_subgroups:
        prof = class_profile(H)
        assert dh_exact(4, prof) == weak_distribution(4, prof).l1(plancherel)


def test_sparse_dh_matches_the_dense_oracle(s4_subgroups, s5_subgroups):
    for n, subgroups in ((4, s4_subgroups), (5, s5_subgroups)):
        for H in subgroups:
            prof = class_profile(H)
            assert dh_exact(n, prof) == dense_dh(n, prof)


@pytest.mark.parametrize("n", range(1, 15))
def test_sparse_dh_matches_the_dense_oracle_on_catalog_profiles(n):
    profiles = [symmetric_profile(n)] + [young_profile(lam) for lam in partitions(n)[1:]]
    profiles += [block_group_profile(m, n // m) for m in range(2, n + 1) if n % m == 0]
    for prof in profiles:
        dist = weak_distribution(n, prof)
        assert 0 not in dist.weights.values()
        assert dh_exact(n, prof) == dense_dh(n, prof), prof.factors


def test_dh_exact_refuses_a_census_that_counts_the_identity_twice():
    with pytest.raises(InvariantError, match="total mass 2 is not 1"):
        dh_exact(3, ClassProfile(3, {(1, 1, 1): 2}))


@pytest.mark.parametrize("spec, support", [("symmetric:40", 1), ("young:20+20", 21)])
def test_analyze_computes_dimensions_on_the_support_alone(spec, support, capsys):
    characters.clear_character_cache()
    characters._dimension.cache_clear()
    assert main(["analyze", spec]) == 0
    assert characters._dimension.cache_info().misses <= 2 * support
    assert "routes_agree\": true" in capsys.readouterr().out
    prof = symmetric_profile(40) if spec == "symmetric:40" else young_profile((20, 20))
    assert len(weak_distribution(40, prof).weights) == support


def assert_engine_matches_mn_oracle(n, prof):
    """class_sums, weak_distribution and dh_exact against one mn_character
    value per (lam, type)."""
    fact = math.factorial(n)
    oracle = {
        lam: sum(c * mn_character(lam, t) for t, c in prof.counts.items())
        for lam in partitions(n)
    }
    assert class_sums(prof) == oracle
    dist = weak_distribution(n, prof)
    assert dist.weights == {lam: dimension(lam) * v for lam, v in oracle.items() if v}
    assert {lam: dist.prob(lam) for lam in partitions(n)} == {
        lam: Fraction(dimension(lam) * v, fact) for lam, v in oracle.items()
    }
    nonid = prof.nonidentity_items()
    assert dh_exact(n, prof) == Fraction(
        sum(
            dimension(lam) * abs(sum(c * mn_character(lam, t) for t, c in nonid))
            for lam in partitions(n)
        ),
        fact,
    )


def test_engine_matches_mn_oracle_on_s4_and_s5_subgroups(s4_subgroups, s5_subgroups):
    assert (len(s4_subgroups), len(s5_subgroups)) == (30, 156)
    for n, subgroups in ((4, s4_subgroups), (5, s5_subgroups)):
        for H in subgroups:
            assert_engine_matches_mn_oracle(n, class_profile(H))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=2, max_value=8), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_engine_matches_mn_oracle_on_random_subgroups(n, seed):
    H = random_subgroup(random.Random(seed), PermGroup.symmetric(n))
    assert_engine_matches_mn_oracle(n, class_profile(H))


def test_d_between_examples():
    assert d_between(3, A3, A3) == 0
    conj_a = class_profile(PermGroup.from_cycles(["(1 2)"], 3))
    conj_b = class_profile(PermGroup.from_cycles(["(1 3)"], 3))
    assert conj_a.counts == conj_b.counts
    assert d_between(3, conj_a, conj_b) == 0
    assert d_between(3, H12_S3, A3) == frac(4, 3)


def test_unit_mass_check_runs_under_python_O():
    # A "census" with the identity counted twice has non-negative mass at
    # every irrep but total mass 2, and a type that does not sum to its
    # degree is refused by the profile constructor.  Both checks must raise
    # even when python -O strips assert statements; the child inherits this
    # environment, so it finds hsplab the same way this process did.
    code = (
        "from hsplab.errors import PreconditionError\n"
        "from hsplab.perm import ClassProfile\n"
        "from hsplab.qfs import weak_distribution\n"
        "print(__debug__)\n"
        "try:\n"
        "    ClassProfile(3, {(1, 1, 1): 1, (2, 2): 1})\n"
        "except PreconditionError as exc:\n"
        "    print('refused:', exc)\n"
        "weak_distribution(3, ClassProfile(3, {(1, 1, 1): 2}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env={**os.environ},
        capture_output=True,
        text=True,
    )
    refused = "refused: cycle type (2, 2) does not sum to the degree 3"
    assert proc.stdout.splitlines() == ["False", refused], proc.stderr
    assert proc.returncode != 0
    assert "InvariantError" in proc.stderr and "total mass 2" in proc.stderr


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def test_both_bounds_size_each_class_once():
    from hsplab import lab
    from hsplab.profile import centralizer_order

    prof = lab.young_profile((5, 3, 2))
    centralizer_order.cache_clear()
    thm1 = thm1_bounds(10, prof)
    misses = centralizer_order.cache_info().misses
    cmin = cmin_bounds(10, prof)
    assert centralizer_order.cache_info().misses == misses  # all read back
    types = [t for t, _ in prof.nonidentity_items()]
    assert (cmin.cmin_size, cmin.cmin_type) == min((sn_class_size(t), t) for t in types)
    assert thm1.exact_value == dh_exact(10, prof)


def test_thm1_examples():
    r = thm1_bounds(3, H12_S3)
    assert r.lower == frac(1, 6)
    assert r.upper_sq == frac(1, 3)  # upper = 1/sqrt(3)
    assert r.exact_value == frac(1, 3) and r.sandwich_ok

    r = thm1_bounds(3, A3)
    assert r.lower == frac(2, 3)
    assert r.upper_sq == 2  # upper = 2/sqrt(2) = sqrt(2)
    assert r.exact_value == frac(4, 3) and r.sandwich_ok

    r = thm1_bounds(4, BLOCK_S4)
    assert r.lower == frac(1, 6)
    assert r.upper_sq == frac(1, 3)
    assert r.exact_value == frac(1, 2) and r.sandwich_ok


def test_profiles_and_bounds_reports_are_immutable_values():
    prof = class_profile(PermGroup.from_cycles(["(1 2)"], 3))
    assert prof == ClassProfile(3, {(2, 1): 1, (1, 1, 1): 1})
    assert prof.count((2, 1)) == 1  # the census count, not tuple.count
    r = thm1_bounds(3, prof)
    assert r == thm1_bounds(3, ClassProfile(3, {(1, 1, 1): 1, (2, 1): 1}))
    assert BoundsReport(*r) == r and hash(BoundsReport(*r)) == hash(r)
    assert r != r._replace(lower=frac(0, 1))
    with pytest.raises(AttributeError):
        prof.degree = 4
    with pytest.raises(AttributeError):
        r.lower = frac(0, 1)


def test_thm1_rejects_trivial_subgroup():
    with pytest.raises(PreconditionError):
        thm1_bounds(3, ClassProfile(3, {(1, 1, 1): 1}))
    with pytest.raises(PreconditionError):
        cmin_bounds(3, ClassProfile(3, {(1, 1, 1): 1}))


def test_thm1_upper_equality_case():
    # H = S_2 <= S_2: D_H = 1 equals the upper bound exactly (class size 1)
    prof = class_profile(PermGroup.symmetric(2))
    r = thm1_bounds(2, prof)
    assert r.exact_value == 1
    assert r.upper.compare_to(1) == 0 and r.sandwich_ok


def test_cmin_examples():
    r = cmin_bounds(3, H12_S3)
    assert r.cmin_type == (2, 1) and r.cmin_size == 3
    assert r.report.lower == frac(1, 6)
    assert r.report.upper_sq == frac(1, 3)

    r = cmin_bounds(3, A3)
    assert r.cmin_type == (3,) and r.cmin_size == 2
    assert r.report.lower == frac(1, 6)
    assert r.report.upper_sq == 2  # (|H|-1)/sqrt(2) squared

    r = cmin_bounds(3, S3)
    assert r.cmin_type == (3,) and r.report.lower == frac(1, 12)


def test_cmin_consistency(s4_subgroups):
    for H in s4_subgroups:
        if H.order < 2:
            continue
        prof = class_profile(H)
        t = thm1_bounds(4, prof)
        c = cmin_bounds(4, prof)
        assert c.report.lower <= t.lower
        assert prof.count(c.cmin_type) <= prof.order - 1
        # the corollary bracket 1/(|H||C_min|) < D_H <= (|H|-1)|C_min|^(-1/2)
        d = dh_exact(4, prof)
        assert c.report.lower < d and c.report.upper.compare_to(d) >= 0
        assert c.report.exact_value is None and c.report.sandwich_ok is None


# prop_upper, the sum over non-identity h in H of |h^G|^(-1/2), is reported
# from thm1_bounds' upper bound


def test_prop_upper_examples():
    s = thm1_bounds(3, H12_S3).upper
    assert s.radicals == {3: Fraction(1, 3)} and s.compare_to(frac(1, 3)) >= 0
    from hsplab.lab import block_group_profile

    prof = block_group_profile(4, 2)
    assert thm1_bounds(8, prof).upper.compare_to(dh_exact(8, prof)) >= 0


def test_prop_upper_dominates_dh(s4_subgroups):
    for H in s4_subgroups:
        if H.order < 2:
            continue
        prof = class_profile(H)
        assert thm1_bounds(4, prof).upper.compare_to(dh_exact(4, prof)) >= 0


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------


def test_verdict_examples():
    assert verdict(frac(1, 3), 6, 1.0) is False  # 1/3 < 1/log2(6)
    assert verdict(frac(4, 3), 6, 1.0) is True
    assert verdict(Fraction(0), 120, 2.0) is False
    with pytest.raises(PreconditionError):
        verdict(frac(-1, 2), 6, 1.0)


def test_threshold_convention():
    assert distinguishability_threshold(2**10, 1.0) == pytest.approx(0.1)


def test_poly_verdict_transposition():
    S8 = PermGroup.symmetric(8)
    v = poly_subgroup_verdict(S8, PermGroup.from_cycles(["(1 2)"], 8), 1.0, 3.0)
    assert v.applicable
    assert v.min_class_size == 28 and cycles(v.witness) == "(1 2)"
    assert v.witness_support == 2
    assert v.distinguishable_side is True


def test_poly_verdict_eight_cycle():
    S8 = PermGroup.symmetric(8)
    H = PermGroup.from_cycles(["(1 2 3 4 5 6 7 8)"], 8)
    # independent oracle: enumerate the 8 elements and their class sizes
    expected_min = min(
        sn_class_size(t) for t in map(cycle_type_of_array, H.element_arrays()) if t != (1,) * 8
    )
    v = poly_subgroup_verdict(S8, H, 3.0, 1.0)
    assert v.applicable
    assert v.min_class_size == expected_min == 105
    assert v.class_threshold == pytest.approx(math.log2(math.factorial(8)))
    assert v.distinguishable_side is False  # 105 > log2(8!) ~ 15.3


def test_poly_verdict_inapplicable():
    S8 = PermGroup.symmetric(8)
    v = poly_subgroup_verdict(S8, PermGroup([], degree=8), 1.0, 1.0)
    assert not v.applicable and v.distinguishable_side is None
    # subgroup bigger than the polylog bound
    v = poly_subgroup_verdict(S8, PermGroup.alternating(8), 1.0, 1.0)
    assert not v.applicable and "exceeds" in v.reason


def test_poly_verdict_general_parent():
    from hsplab.groups import gl32_group

    G = gl32_group()
    H = PermGroup([G.generators[0]], degree=7)
    v = poly_subgroup_verdict(G, H, 2.0, 3.0)
    assert v.applicable
    assert v.min_class_size == 21  # transvection class in GL(3,2)


@pytest.mark.parametrize("spec", ["gl32-point", "gl32-plane"])
def test_poly_verdict_witness_is_the_first_smallest_class_in_chain_order(spec):
    from hsplab.groups import gl32_group
    from hsplab.lab import resolve_catalog

    from conftest import bfs_class_map

    G, H = gl32_group(), resolve_catalog(spec).group
    classes, class_id = bfs_class_map(G)
    sizes = [classes[class_id[h.tobytes()]][1] for h in H.element_arrays()]
    first = min(range(1, H.order), key=sizes.__getitem__)
    v = poly_subgroup_verdict(G, H, 2.0, 3.0)
    assert v.applicable and v.min_class_size == sizes[first]
    assert v.witness.tolist() == list(H.element_arrays())[first].tolist()


# ---------------------------------------------------------------------------
# random corpus properties (small here; the full corpus runs in acceptance)
# ---------------------------------------------------------------------------


def test_random_subgroup_properties():
    rng = random.Random(17)
    for n in (5, 6):
        Sn = PermGroup.symmetric(n)
        for _ in range(10):
            H = PermGroup([Sn.random_element(rng) for _ in range(rng.randint(1, 2))], n)
            prof = class_profile(H)
            dist = weak_distribution(n, prof)
            assert sum(dist.weights.values()) == math.factorial(n)
            d = dh_exact(n, prof)
            assert d == dist.l1(weak_distribution(n, trivial(n))) == dense_dh(n, prof)
            if H.order >= 2:
                r = thm1_bounds(n, prof)
                assert r.lower < d
                assert r.upper.compare_to(d) >= 0
            for lam, w in dist.weights.items():
                assert w > 0 and w % (dimension(lam) * H.order) == 0
