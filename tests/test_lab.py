import math
import sys
from fractions import Fraction

import pytest

from hsplab.errors import LimitExceeded, ParseError, PreconditionError
from hsplab.groups import (
    agl15_group,
    block_group_gens,
    gl32_group,
    gl32_plane_stabilizer,
    gl32_point_stabilizer,
    young_gens,
)
from hsplab.lab import (
    block_group_profile,
    class_sandwich_check,
    product_profile,
    profile_of,
    resolve,
    resolve_catalog,
    sha256_hex,
    support_census,
    symmetric_profile,
    young_profile,
)
from hsplab.paper import babai_check, club_check, liebeck_report
from hsplab.perm import ClassProfile, PermGroup, class_profile


# ---------------------------------------------------------------------------
# support census
# ---------------------------------------------------------------------------


def test_support_census_examples():
    prof = class_profile(PermGroup.from_cycles(["(1 2)"], 3))
    assert support_census(prof).counts == {2: 1}
    prof = class_profile(PermGroup.from_cycles(["(1 2 3)"], 3))
    assert support_census(prof).counts == {3: 2}
    assert support_census(block_group_profile(4, 2)).counts == {4: 6, 6: 8, 8: 9}


def test_support_census_total_and_min():
    prof = block_group_profile(5, 2)
    census = support_census(prof)
    assert sum(census.counts.values()) == prof.order - 1
    assert min(census.counts) == prof.minimal_support() == 4
    assert 1 not in census.counts and 0 not in census.counts


def test_census_min_equals_minimal_degree():
    from hsplab.paper import minimal_degree

    for gens, n in ((["(1 2)", "(1 2 3)"], 5), (["(1 2)(3 4)", "(1 3 5)(2 4 6)"], 6)):
        H = PermGroup.from_cycles(gens, n)
        assert min(support_census(class_profile(H)).counts) == minimal_degree(H)


# ---------------------------------------------------------------------------
# conjecture diagnostics
# ---------------------------------------------------------------------------


def test_club_check_examples():
    rep = club_check(class_profile(PermGroup.from_cycles(["(1 2)"], 8)))
    assert [(r.support, r.count, r.satisfied) for r in rep.rows] == [(2, 1, True)]

    rep = club_check(block_group_profile(4, 2))
    by_k = {r.support: r for r in rep.rows}
    assert by_k[4].count == 6 and not by_k[4].satisfied  # 6 > 8^(4/7)
    assert rep.minimal_support == 4

    rep = club_check(ClassProfile(6, {(1,) * 6: 1}))
    assert rep.rows == () and rep.minimal_support is None


def test_club_check_flags_are_exact():
    # boundary sanity: count 1 always satisfies; count n^k never strictly
    prof = ClassProfile(4, {(1, 1, 1, 1): 1, (2, 1, 1): 1})
    rep = club_check(prof)
    assert rep.rows[0].satisfied  # 1 <= 4^(2/7)
    rep = club_check(prof, exponent=Fraction(0, 1))
    assert rep.rows[0].satisfied  # 1 <= 4^0


def test_club_exponent_is_configurable():
    prof = block_group_profile(4, 2)
    loose = club_check(prof, exponent=Fraction(1, 2))
    assert all(r.satisfied for r in loose.rows)  # 6 <= 8^2, 8 <= 8^3, 9 <= 8^4


def test_class_sandwich_examples():
    rep = class_sandwich_check(4)
    assert rep.passed and rep.num_types == 5
    rep = class_sandwich_check(2)
    assert rep.passed and rep.num_types == 2


@pytest.mark.parametrize("n", [1, 5, 12, 25])
def test_class_sandwich_small(n):
    assert class_sandwich_check(n).passed


def test_class_sandwich_limit():
    with pytest.raises(LimitExceeded):
        class_sandwich_check(41)


def test_liebeck_examples():
    rep = liebeck_report(2, 0.1)
    assert not rep.above_one and rep.min_log2_ratio == pytest.approx(-0.2)
    rep = liebeck_report(20, 0.33)
    assert rep.above_one
    # the transposition class clears the bound (190 > 20^0.66), but the actual
    # minimizer is the fixed-point-free involution class
    assert 190 > 20**0.66
    assert rep.witness_type == (2,) * 10
    with pytest.raises(PreconditionError):
        liebeck_report(10, 0.34)


def test_liebeck_full_scan_oracle():
    import math as _math

    from hsplab.characters import partitions
    from hsplab.profile import sn_class_size

    n, a = 5, 0.2
    rep = liebeck_report(n, a)
    ratios = {
        t: _math.log2(sn_class_size(t)) - a * (n - t.count(1)) * _math.log2(n)
        for t in partitions(n)
        if t != (1,) * n
    }
    assert len(ratios) == 6  # all non-identity types scanned
    witness = min(ratios, key=lambda t: (ratios[t], t))
    assert rep.min_log2_ratio == pytest.approx(min(ratios.values()))
    assert ratios[rep.witness_type] == pytest.approx(ratios[witness])


def test_babai_examples():
    rep = babai_check(agl15_group())
    assert rep.primitive and not rep.exempt
    assert rep.minimal_degree == 4 and rep.bound_holds and rep.consistent

    rep = babai_check(PermGroup.symmetric(4))
    assert rep.primitive and rep.is_symmetric and rep.exempt and rep.consistent

    rep = babai_check(PermGroup.from_cycles(["(1 2 3 4)"], 4))
    assert not rep.primitive and rep.exempt

    with pytest.raises(PreconditionError):
        babai_check(PermGroup.from_cycles(["(1 2)"], 4))


def test_babai_alternating_exempt():
    rep = babai_check(PermGroup.alternating(5))
    assert rep.is_alternating and rep.exempt and rep.consistent


def test_babai_gl32_not_exempt():
    rep = babai_check(gl32_group())
    assert rep.primitive and not rep.exempt
    assert rep.minimal_degree == 4  # transvections fix a hyperplane pointwise
    assert rep.bound_holds and rep.consistent


# ---------------------------------------------------------------------------
# analytic profiles
# ---------------------------------------------------------------------------


def test_block_profile_examples():
    assert dict(block_group_profile(2, 2).counts) == {(1, 1, 1, 1): 1, (2, 2): 1}
    prof = block_group_profile(4, 2)
    assert prof.order == 24 and prof.minimal_support() == 4
    assert dict(block_group_profile(3, 1).counts) == dict(
        class_profile(PermGroup.symmetric(3)).counts
    )


@pytest.mark.parametrize("m", range(2, 13))
def test_block_profile_r1_equals_symmetric(m):
    # block:mx1 is S_m in its natural action: its profile is S_m's, factor included
    prof = block_group_profile(m, 1)
    assert prof == symmetric_profile(m) and prof.factors == (m,)
    if m < 8:
        assert dict(prof.counts) == dict(class_profile(PermGroup.symmetric(m)).counts)


def test_block_profile_minimal_degree_is_2r():
    for m in range(2, 6):
        for r in range(1, 6):
            if m * r > 20:
                continue
            prof = block_group_profile(m, r)
            assert prof.order == math.factorial(m)
            assert prof.minimal_support() == 2 * r


def test_block_gens_match_profile():
    for m, r in ((2, 2), (3, 2), (4, 2), (3, 3), (5, 2), (2, 4)):
        G = PermGroup(block_group_gens(m, r), m * r)
        assert G.order == math.factorial(m)
        assert dict(class_profile(G).counts) == dict(block_group_profile(m, r).counts)


def test_product_profile_examples():
    p2 = class_profile(PermGroup.from_cycles(["(1 2)"], 2))
    klein = product_profile(p2, p2)
    assert dict(klein.counts) == {(1, 1, 1, 1): 1, (2, 1, 1): 2, (2, 2): 1}
    assert klein.order == 4

    empty = ClassProfile(0, {(): 1})
    prof = block_group_profile(3, 2)
    assert dict(product_profile(prof, empty).counts) == dict(prof.counts)

    a3 = class_profile(PermGroup.from_cycles(["(1 2 3)"], 3))
    both = product_profile(a3, a3)
    assert both.order == 9
    assert dict(both.counts) == {
        (1, 1, 1, 1, 1, 1): 1,
        (3, 1, 1, 1): 4,
        (3, 3): 4,
    }


def test_product_profile_against_enumeration():
    cases = [
        (["(1 2)"], 2, ["(1 2 3)"], 3),
        (["(1 2 3)"], 3, ["(1 2)", "(1 2 3)"], 3),
        (["(1 2)(3 4)", "(1 3)(2 4)"], 4, ["(1 2)"], 2),
    ]
    for gens_a, na, gens_b, nb in cases:
        A = PermGroup.from_cycles(gens_a, na)
        B = PermGroup.from_cycles(gens_b, nb)
        analytic = product_profile(class_profile(A), class_profile(B))
        shifted = [
            "(" + " ".join(str(int(x) + na) for x in c.strip("()").split()) + ")"
            for g in gens_b
            for c in g.replace(")(", ")|(").split("|")
        ]
        combined = PermGroup.from_cycles(gens_a + shifted, na + nb)
        assert combined.order == A.order * B.order
        assert dict(class_profile(combined).counts) == dict(analytic.counts)


def test_product_profile_matches_the_sorting_convolution():
    """The keyed convolution gives the counts of the plain loop that sorts
    every concatenated pair of types, in the profile's order, types
    descending."""

    def sorting_convolution(prof_a, prof_b):
        counts = {}
        for ta, ca in prof_a.counts.items():
            for tb, cb in prof_b.counts.items():
                merged = tuple(sorted(ta + tb, reverse=True))
                counts[merged] = counts.get(merged, 0) + ca * cb
        return counts

    profs = [ClassProfile(0, {(): 1})]
    profs += [symmetric_profile(a) for a in (1, 2, 5, 9)]
    profs += [block_group_profile(m, r) for m, r in ((2, 2), (3, 2), (2, 3))]
    profs += [young_profile(alpha) for alpha in ((3, 2), (4, 2, 1))]
    for prof_a in profs:
        for prof_b in profs:
            got = product_profile(prof_a, prof_b).counts
            assert got == sorting_convolution(prof_a, prof_b)
            assert list(got) == sorted(got, reverse=True)


def test_young_profile_examples():
    assert dict(young_profile([3]).counts) == dict(symmetric_profile(3).counts)
    p2 = class_profile(PermGroup.from_cycles(["(1 2)"], 2))
    assert dict(young_profile([2, 2]).counts) == dict(product_profile(p2, p2).counts)
    prof = young_profile([3, 2])
    assert prof.order == 12
    G = PermGroup(young_gens([3, 2]), 5)
    assert dict(class_profile(G).counts) == dict(prof.counts)


# ---------------------------------------------------------------------------
# named groups and catalog
# ---------------------------------------------------------------------------


def test_gl32_fixture():
    G = gl32_group()
    assert G.order == 168 and G.degree == 7
    H = gl32_point_stabilizer()
    K = gl32_plane_stabilizer()
    assert H.order == 24 and K.order == 24
    assert H.is_subgroup_of(G) and K.is_subgroup_of(G)
    # H fixes the point 1; K fixes the plane {1,2,3} setwise
    assert all(g[0] == 0 for g in H.generators)
    for g in K.generators:
        assert set(g[:3].tolist()) == {0, 1, 2}


def test_agl15():
    G = agl15_group()
    assert G.order == 20 and G.degree == 5


def test_catalog_names():
    assert resolve_catalog("cyclic:2@3").group.order == 2
    assert resolve_catalog("cyclic:1@4").group.order == 1
    assert resolve_catalog("symmetric:4").group.order == 24
    assert resolve_catalog("alternating:4").group.order == 12
    assert resolve_catalog("agl15").group.order == 20
    assert resolve_catalog("block:4x2").group.order == 24
    assert resolve_catalog("young:3+2").group.order == 12
    entry = resolve_catalog("gl32-point")
    assert entry.parent is not None and entry.parent.order == 168


@pytest.mark.parametrize(
    "name",
    [f"cyclic:{k}@{n}" for k, n in ((1, 1), (1, 4), (2, 2), (3, 7), (9, 9))]
    + ["young:1", "young:3+2", "young:2+2+1+1", "young:5+1+3"]
    + ["block:2x1", "block:3x2", "block:4x3", "block:5x2"]
    + [f"symmetric:{n}" for n in (1, 2, 3, 6, 9)]
    + [f"alternating:{n}" for n in (1, 2, 3, 4, 7, 9)]
    + ["agl15", "gl32", "gl32-point", "gl32-plane"],
)
def test_catalog_degree_and_order_match_the_chain(name):
    # closed forms read off the name against the Schreier-Sims chain
    entry = resolve_catalog(name)
    assert entry.degree == entry.group.degree
    assert entry.order == entry.group.order
    if entry.profile is not None:
        assert entry.profile.degree == entry.degree
        assert entry.profile.order == entry.order


def test_package_exports_resolve_to_their_home_modules():
    import importlib

    import hsplab

    assert len(hsplab.__all__) == len(set(hsplab.__all__)) == 52
    for name in hsplab.__all__:
        home = importlib.import_module(f"hsplab.{hsplab._EXPORTS[name]}")
        assert getattr(hsplab, name) is getattr(home, name), name
        assert getattr(home, name).__module__ == home.__name__, name
    with pytest.raises(AttributeError):
        hsplab.no_such_name


def test_catalog_profiles_match_groups():
    for name in ("block:3x2", "young:2+2", "symmetric:4"):
        entry = resolve_catalog(name)
        assert dict(entry.profile.counts) == dict(class_profile(entry.group).counts)


def test_catalog_errors():
    for bad in ("cyclic:5@3", "cyclic:0@3", "block:1x2", "nonsense", "young:0+2", "cyclic:x@3"):
        with pytest.raises(ParseError):
            resolve_catalog(bad)


def test_profile_of_uses_analytic_when_available():
    entry = resolve_catalog("block:20x2")  # order 20! is far beyond enumeration
    prof = profile_of(entry)
    assert prof.order == math.factorial(20)
    assert prof.minimal_support() == 4


def test_profile_of_refuses_from_the_order_before_building(monkeypatch):
    from hsplab import perm

    def unbuildable(*args, **kwargs):
        raise AssertionError("built the chain of a refused input")

    monkeypatch.setattr(perm.PermGroup, "__init__", unbuildable)
    entry = resolve_catalog("alternating:120")
    with pytest.raises(LimitExceeded) as refused:
        profile_of(entry)
    assert str(refused.value) == (
        f"group order {math.factorial(120) // 2} exceeds the enumeration bound 1000000"
    )
    assert entry.order == math.factorial(120) // 2


def test_catalog_profile_degree_cap():
    entry = resolve_catalog("block:30x2")  # degree 60: analytic profile withheld
    assert entry.profile is None
    with pytest.raises(LimitExceeded):
        profile_of(entry)


# ---------------------------------------------------------------------------
# input digests and group files
# ---------------------------------------------------------------------------


def test_the_builtin_sha256_matches_hashlib(tmp_path, monkeypatch):
    import hashlib

    for name in ("gl32", "symmetric:7", "young:20+20"):
        want = hashlib.sha256(f"catalog:{name}".encode()).hexdigest()
        assert resolve_catalog(name).describe()["digest"] == want
    path = tmp_path / "h.grp"
    path.write_bytes(b"# \xc3\xa9\r\ndegree 4\r\n(1 2 3)\r\n" + b"#" * 100_000 + b"\n")
    assert resolve(str(path)).describe()["digest"] == hashlib.sha256(path.read_bytes()).hexdigest()
    blobs = [b"", b"abc", bytes(range(256)) * 300]
    assert [sha256_hex(b) for b in blobs] == [hashlib.sha256(b).hexdigest() for b in blobs]
    # an interpreter without the built-in modules falls back to hashlib
    monkeypatch.setitem(sys.modules, "_sha2", None)
    monkeypatch.setitem(sys.modules, "_sha256", None)
    assert [sha256_hex(b) for b in blobs] == [hashlib.sha256(b).hexdigest() for b in blobs]


def test_a_group_file_is_read_once(tmp_path, monkeypatch):
    path = tmp_path / "h.grp"
    path.write_text("degree 3\n(1 2)\n")
    opened = []
    real_open = open
    monkeypatch.setattr(
        "builtins.open", lambda file, *a, **k: opened.append(str(file)) or real_open(file, *a, **k)
    )
    entry = resolve(str(path))
    assert opened == [str(path)]
    assert (entry.kind, entry.order) == ("file", 2)
