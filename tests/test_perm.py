import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsplab.errors import LimitExceeded, ParseError, PreconditionError
from hsplab.lab import resolve_catalog
from hsplab.perm import (
    PermGroup,
    Permutation,
    class_profile,
    element_class_map,
    is_primitive,
    is_transitive,
    minimal_blocks,
    minimal_degree,
    orbits,
    parse_cycles,
    parse_group_file,
    _schreier_sims,
)
from hsplab.profile import ClassProfile, sn_class_size


def brute_force_elements(gens, degree):
    """Independent enumeration: BFS closure under right multiplication."""
    ident = tuple(range(degree))
    seen = {ident}
    queue = [ident]
    arrs = [tuple(int(x) for x in g.array) for g in gens]
    while queue:
        a = queue.pop()
        for b in arrs:
            c = tuple(b[x] for x in a)
            if c not in seen:
                seen.add(c)
                queue.append(c)
    return seen


# ---------------------------------------------------------------------------
# parsing and element operations
# ---------------------------------------------------------------------------


def test_parse_transposition():
    assert parse_cycles("(1 2)", 3).images == (2, 1, 3)


def test_parse_empty_is_identity():
    p = parse_cycles("", 5)
    assert p.is_identity() and p.degree == 5


def test_parse_five_cycle_composition():
    p = parse_cycles("(1 2 3 4 5)", 5)
    # hand composition: repeated application walks the cycle
    x = 1
    seen = [x]
    for _ in range(4):
        x = p(x)
        seen.append(x)
    assert seen == [1, 2, 3, 4, 5]
    assert p.cycle_type() == (5,)


def test_parse_multi_cycle():
    p = parse_cycles("(1 2)(3 4)", 4)
    assert p.images == (2, 1, 4, 3)


def test_parse_errors_are_distinct():
    with pytest.raises(ParseError, match="out of range"):
        parse_cycles("(1 9)", 5)
    with pytest.raises(ParseError, match="repeated point"):
        parse_cycles("(1 2)(2 3)", 5)
    with pytest.raises(ParseError, match="malformed"):
        parse_cycles("(1 2", 5)
    with pytest.raises(ParseError, match="malformed"):
        parse_cycles("1 2)", 5)


def test_cycle_type_support_fix_examples():
    e = Permutation.identity(4)
    assert e.cycle_type() == (1, 1, 1, 1) and e.support() == 0
    p = parse_cycles("(1 2)(3 4)", 4)
    assert p.cycle_type() == (2, 2) and p.support() == 4 and p.fix() == 0
    q = parse_cycles("(1 2 3)", 5)
    assert q.cycle_type() == (3, 1, 1) and q.support() == 3 and q.fix() == 2


@given(st.integers(2, 20).flatmap(lambda n: st.permutations(list(range(1, n + 1)))))
@settings(max_examples=60, deadline=None)
def test_permutation_properties(images):
    p = Permutation.from_images(images)
    assert (p * p.inverse()).is_identity()
    assert p.support() + p.fix() == p.degree
    assert sum(p.cycle_type()) == p.degree
    assert parse_cycles(p.cycles(), p.degree) == p
    moved = [part for part in p.cycle_type() if part >= 2]
    assert p.support() == sum(moved)


def test_mixed_degree_rejected():
    with pytest.raises(PreconditionError):
        parse_cycles("(1 2)", 3) * parse_cycles("(1 2)", 4)
    with pytest.raises(PreconditionError):
        PermGroup([parse_cycles("(1 2)", 3), parse_cycles("(1 2)", 4)])


# ---------------------------------------------------------------------------
# groups, orders, membership
# ---------------------------------------------------------------------------


def test_build_group_examples():
    assert PermGroup([parse_cycles("(1 2)", 3), parse_cycles("(1 2 3)", 3)]).order == 6
    assert PermGroup([], degree=4).order == 1
    assert PermGroup.from_cycles(["(1 2 3 4 5)", "(2 3 5 4)"], 5).order == 20


@pytest.mark.parametrize(
    "gens, degree",
    [
        (["(1 2)", "(1 2 3)"], 3),
        (["(1 2)", "(1 2 3 4)"], 4),
        (["(1 2 3)", "(2 3 4)"], 4),
        (["(1 2 3 4 5)", "(2 3 5 4)"], 5),
        (["(1 2)", "(1 2 3 4 5 6)"], 6),
        (["(1 2 3 4 5 6 7)", "(1 2)(3 6)"], 7),
        (["(1 3)(2 4)", "(1 2 3 4 5 6 7 8)"], 8),
        (["(1 2 3 4 5 6 7 8 9 10 11 12)"], 12),
    ],
)
def test_order_matches_brute_force(gens, degree):
    G = PermGroup.from_cycles(gens, degree)
    brute = brute_force_elements(G.generators, degree)
    assert G.order == len(brute)
    listed = list(G.element_arrays())
    assert len(listed) == G.order
    assert {tuple(int(x) for x in a) for a in listed} == brute


def test_membership():
    A4 = PermGroup.from_cycles(["(1 2 3)", "(2 3 4)"], 4)
    assert parse_cycles("(1 2)(3 4)", 4) in A4
    assert parse_cycles("(1 2)", 4) not in A4
    assert Permutation.identity(4) in A4
    for g in A4.generators:
        assert g in A4


def test_element_enumeration_deterministic():
    G = PermGroup.from_cycles(["(1 2)", "(1 2 3 4)"], 4)
    first = [a.tobytes() for a in G.element_arrays()]
    second = [a.tobytes() for a in G.element_arrays()]
    assert first == second


def test_random_element_deterministic_and_member():
    G = PermGroup.from_cycles(["(1 2)", "(1 2 3 4 5)"], 5)
    a = [G.random_element(random.Random(11)) for _ in range(10)]
    b = [G.random_element(random.Random(11)) for _ in range(10)]
    assert a == b
    assert all(g in G for g in a)


def test_point_stabilizer():
    S4 = PermGroup.symmetric(4)
    stab = S4.point_stabilizer(4)
    assert stab.order == 6
    assert all(g(4) == 4 for g in stab.generators)
    assert stab.is_subgroup_of(S4)


def test_long_cycle_chain_has_one_level():
    n = 2000
    G = PermGroup([Permutation(np.roll(np.arange(n, dtype=np.int32), -1))], n)
    assert G.order == n
    assert G.chain.num_levels == 1


# ---------------------------------------------------------------------------
# strong generating sets
# ---------------------------------------------------------------------------


def _random_generators(rng: random.Random, degree: int) -> list:
    """One to four cycles or random permutations; sometimes a duplicate of
    the first and sometimes the identity."""
    gens = []
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.4:
            img = list(range(degree))
            pts = rng.sample(range(degree), rng.randint(1, degree))
            for a, b in zip(pts, pts[1:] + pts[:1]):
                img[a] = b
        else:
            img = rng.sample(range(degree), degree)
        gens.append(np.array(img, dtype=np.int32))
    if rng.random() < 0.2:
        gens.append(gens[0].copy())
    if rng.random() < 0.1:
        gens.insert(rng.randrange(len(gens) + 1), np.arange(degree, dtype=np.int32))
    return gens


def test_schreier_sims_matches_sympy_strong_generators():
    # sympy's schreier_sims_incremental is the oracle: the same strong
    # generators in the same order give the same chain, and so the same
    # element order, class representatives and random draws.
    sympy_comb = pytest.importorskip("sympy.combinatorics")
    rng = random.Random(2000)
    gen_sets = [_random_generators(rng, rng.randint(1, 12)) for _ in range(300)]
    gen_sets += [
        [g.array for g in resolve_catalog(spec).group.generators]
        for spec in ("symmetric:21", "block:7x3", "young:15+2", "alternating:9", "gl32", "gl32-plane")
    ]
    for gens in gen_sets:
        degree = gens[0].shape[0]
        p0 = rng.randrange(degree)
        moved = [g for g in gens if not np.array_equal(g, np.arange(degree))]
        for base in (list(range(degree)), [p0] + [x for x in range(degree) if x != p0]):
            expected = []
            if moved:
                oracle = sympy_comb.PermutationGroup([sympy_comb.Permutation(g.tolist()) for g in moved])
                expected = [g.array_form for g in oracle.schreier_sims_incremental(base=base)[1]]
            got = [g.tolist() for g in _schreier_sims(gens, base)]
            assert got == expected, (degree, [g.tolist() for g in gens], base)


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "block:4x2"],
        ["coset", "gl32", "gl32-point"],
        ["check", "--suite", "frobenius", "--actions", "4", "--seed", "1"],
    ],
)
def test_cli_runs_without_sympy(argv):
    # the child inherits this environment, so it finds hsplab the same way
    code = (
        "import sys\n"
        "sys.modules['sympy'] = None\n"
        "from hsplab.cli import main\n"
        f"sys.exit(main({argv!r}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ}, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# orbits, blocks, primitivity
# ---------------------------------------------------------------------------


def test_orbit_examples():
    assert orbits(PermGroup.from_cycles(["(1 2)"], 4)) == [(1, 2), (3,), (4,)]
    assert is_transitive(PermGroup.symmetric(4))
    assert orbits(PermGroup.from_cycles(["(1 2)(3 4)"], 4)) == [(1, 2), (3, 4)]
    assert not is_transitive(PermGroup.from_cycles(["(1 2)"], 4))


def test_minimal_blocks_examples():
    assert minimal_blocks(PermGroup.from_cycles(["(1 2 3 4)"], 4)) == [(1, 3), (2, 4)]
    assert is_primitive(PermGroup.from_cycles(["(1 2 3 4 5)", "(2 3 5 4)"], 5))
    assert is_primitive(PermGroup.symmetric(4))
    with pytest.raises(PreconditionError):
        minimal_blocks(PermGroup.from_cycles(["(1 2)"], 4))


def test_block_system_invariants():
    G = PermGroup.from_cycles(["(1 2 3 4 5 6)"], 6)
    system = minimal_blocks(G)
    assert system is not None
    sizes = {len(b) for b in system}
    assert len(sizes) == 1
    size = sizes.pop()
    assert G.degree % size == 0 and 1 < size < G.degree
    blocks = {frozenset(b) for b in system}
    for g in G.generators:
        for b in system:
            assert frozenset(g(x) for x in b) in blocks


# ---------------------------------------------------------------------------
# minimal degree and censuses
# ---------------------------------------------------------------------------


def test_minimal_degree_examples():
    assert minimal_degree(PermGroup.from_cycles(["(1 2)"], 3)) == 2
    assert minimal_degree(PermGroup.from_cycles(["(1 2 3)", "(2 3 4)"], 4)) == 3
    block = PermGroup.from_cycles(["(1 3)(2 4)", "(1 3 5 7)(2 4 6 8)"], 8)
    assert block.order == 24
    assert minimal_degree(block) == 4  # 2r for r = 2


def test_minimal_degree_errors():
    with pytest.raises(PreconditionError):
        minimal_degree(PermGroup([], degree=3))
    with pytest.raises(LimitExceeded):
        class_profile(PermGroup.symmetric(10))  # 10! > 10^6


def test_minimal_degree_two_iff_transposition():
    S5 = PermGroup.symmetric(5)
    assert minimal_degree(S5) == 2
    A5 = PermGroup.alternating(5)
    assert minimal_degree(A5) == 3


def test_class_profile_examples():
    assert dict(class_profile(PermGroup.from_cycles(["(1 2)"], 3)).counts) == {
        (1, 1, 1): 1,
        (2, 1): 1,
    }
    assert dict(class_profile(PermGroup.from_cycles(["(1 2 3)"], 3)).counts) == {
        (1, 1, 1): 1,
        (3,): 2,
    }
    assert dict(class_profile(PermGroup.symmetric(3)).counts) == {
        (1, 1, 1): 1,
        (2, 1): 3,
        (3,): 2,
    }


def test_class_profile_orders_types_descending():
    # a profile keeps its types in descending order, as partitions(n) lists them
    assert list(class_profile(PermGroup.symmetric(4)).counts) == [
        (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)
    ]
    # m_1 = 255 and 257: the census rows, grouped as little-endian int16
    # bytes, come in the other order
    assert list(class_profile(PermGroup.from_cycles(["(1 2)"], 257)).counts) == [
        (2,) + (1,) * 255, (1,) * 257
    ]


def test_class_profile_invariants_random_groups():
    rng = random.Random(5)
    for n in (4, 5, 6):
        Sn = PermGroup.symmetric(n)
        for _ in range(8):
            H = PermGroup([Sn.random_element(rng) for _ in range(rng.randint(1, 2))], n)
            prof = class_profile(H)
            prof.validate()
            assert prof.order == H.order
            assert all(c <= sn_class_size(t) for t, c in prof.counts.items())


def test_sn_class_size():
    assert sn_class_size((2, 1)) == 3
    assert sn_class_size((2, 2)) == 3
    assert sn_class_size((1, 1, 1, 1)) == 1
    for n in range(1, 13):
        from hsplab.characters import partitions

        assert sum(sn_class_size(t) for t in partitions(n)) == math.factorial(n)


def test_element_class_map_examples():
    S3 = PermGroup.symmetric(3)
    assert sorted(s for _, s in element_class_map(S3)[0]) == [1, 2, 3]
    C4 = PermGroup.from_cycles(["(1 2 3 4)"], 4)
    assert [s for _, s in element_class_map(C4)[0]] == [1, 1, 1, 1]
    A4 = PermGroup.from_cycles(["(1 2 3)", "(2 3 4)"], 4)
    classes = element_class_map(A4)[0]
    assert sum(s for _, s in classes) == 12
    assert sorted(s for _, s in classes) == [1, 3, 4, 4]


def test_element_class_map_classes_are_conjugation_closed():
    G = PermGroup.from_cycles(["(1 2)", "(1 2 3 4)"], 4)
    classes, class_id = element_class_map(G)
    assert sum(s for _, s in classes) == G.order
    assert len(class_id) == G.order
    for cid, (rep, size) in enumerate(classes):
        orbit = {rep.conjugate_by(g) for g in G.elements()}
        assert len(orbit) == size
        assert {class_id[x.array.tobytes()] for x in orbit} == {cid}


# ---------------------------------------------------------------------------
# group files
# ---------------------------------------------------------------------------


def test_parse_group_file():
    text = """
    # the block group on 4 points
    degree 4
    (1 3)(2 4)   # swap blocks
    """
    G = parse_group_file(text)
    assert G.degree == 4 and G.order == 2


def test_parse_group_file_errors():
    with pytest.raises(ParseError):
        parse_group_file("")
    with pytest.raises(ParseError):
        parse_group_file("(1 2)\n")
    with pytest.raises(ParseError):
        parse_group_file("degree 3\n(1 4)\n")


def test_class_profile_identity():
    prof = ClassProfile.identity(5)
    assert prof.order == 1 and prof.count((1, 1, 1, 1, 1)) == 1
    prof.validate()
