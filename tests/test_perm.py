import hashlib
import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsplab import _kernels
from hsplab.errors import LimitExceeded, ParseError, PreconditionError
from hsplab.lab import resolve_catalog
from hsplab.paper import (
    cycle_type_of_array,
    is_primitive,
    is_transitive,
    minimal_blocks,
    minimal_degree,
    orbits,
)
from hsplab.perm import (
    PermGroup,
    Permutation,
    class_profile,
    element_class_map,
    inv_array,
    orbit_labels,
    parse_cycles,
    parse_group_file,
    _schreier_sims,
)
from hsplab.profile import ClassProfile, sn_class_size

from conftest import bfs_class_map, block_bounds, random_subgroup


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
    assert parse_cycles("(1 2)", 3).array.tolist() == [1, 0, 2]


def test_parse_empty_is_identity():
    p = parse_cycles("", 5)
    assert p == Permutation.identity(5) and p.degree == 5


def test_parse_five_cycle_composition():
    p = parse_cycles("(1 2 3 4 5)", 5)
    # hand composition: repeated application walks the cycle
    x = 1
    seen = [x]
    for _ in range(4):
        x = p(x)
        seen.append(x)
    assert seen == [1, 2, 3, 4, 5]
    assert cycle_type_of_array(p.array) == (5,)


def test_parse_multi_cycle():
    p = parse_cycles("(1 2)(3 4)", 4)
    assert p.array.tolist() == [1, 0, 3, 2]


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
    assert cycle_type_of_array(e.array) == (1, 1, 1, 1) and e.support() == 0
    p = parse_cycles("(1 2)(3 4)", 4)
    assert cycle_type_of_array(p.array) == (2, 2) and p.support() == 4
    q = parse_cycles("(1 2 3)", 5)
    assert cycle_type_of_array(q.array) == (3, 1, 1) and q.support() == 3


@given(st.integers(2, 20).flatmap(lambda n: st.permutations(list(range(1, n + 1)))))
@settings(max_examples=60, deadline=None)
def test_permutation_properties(images):
    p = Permutation([i - 1 for i in images])
    assert p * Permutation(inv_array(p.array)) == Permutation.identity(p.degree)
    assert [p(i) for i in range(1, p.degree + 1)] == images
    assert sum(cycle_type_of_array(p.array)) == p.degree
    assert parse_cycles(p.cycles(), p.degree) == p
    moved = [part for part in cycle_type_of_array(p.array) if part >= 2]
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


def test_random_element_draws_one_transversal_row_per_level_slowest_first():
    # the subgroups that `check --suite frobenius` draws rest on these calls
    for G in (PermGroup.symmetric(6), resolve_catalog("gl32").group, PermGroup([], degree=3)):
        ch = G.chain
        rng, ref = random.Random(5), random.Random(5)
        for _ in range(20):
            arr = np.arange(G.degree, dtype=np.int32)
            for l in range(ch.num_levels - 1, -1, -1):
                lo, hi = int(ch.level_off[l]), int(ch.level_off[l + 1])
                arr = ch.trans[ref.randrange(lo, hi)][arr]
            assert np.array_equal(G.random_element(rng).array, arr)
        assert rng.random() == ref.random()


def test_point_stabilizer():
    # the catalog's gl32-point is the stabilizer of the point 1 in GL(3,2)
    G, H = (resolve_catalog(spec).group for spec in ("gl32", "gl32-point"))
    stab = {arr.tobytes() for arr in G.element_arrays() if arr[0] == 0}
    assert {arr.tobytes() for arr in H.element_arrays()} == stab and len(stab) == H.order == 24


def test_long_cycle_chain_has_one_level():
    n = 2000
    G = PermGroup([Permutation(np.roll(np.arange(n, dtype=np.int32), -1))], n)
    assert G.order == n
    assert G.chain.num_levels == 1


# Packed chains pinned by sha256 of (base, level_off, orbit_pts, trans): the
# transversal rows, and so element order, class representatives, random draws
# and conjugating elements, depend on how the chain is built.  Catalog groups,
# the base generators of the benchmark's group files, and three generator
# lists in a shuffled order, the last with a repeated generator.
_PINNED_CATALOG = (
    [f"symmetric:{n}" for n in range(1, 10)]
    + [f"alternating:{n}" for n in range(1, 10)]
    + [f"block:{m}x{r}" for m in range(2, 7) for r in range(1, 4)]
    + ["young:3+2", "young:5+3", "young:4+4+2", "young:2+2+2+1", "young:15+2"]
    + ["gl32", "gl32-point", "gl32-plane", "agl15"]
)
_PINNED_GENERATORS = {
    "b8x2": (16, ["(1 3)(2 4)", "(1 3 5 7 9 11 13 15)(2 4 6 8 10 12 14 16)"]),
    "c8": (8, ["(1 2 3 4 5 6 7 8)"]),
    "gl32": (7, ["(2 3)(6 7)", "(1 2 4)(3 6 5)"]),
    "gl32pt": (7, ["(2 3)(6 7)", "(4 6)(5 7)", "(4 7)(5 6)", "(2 6 5)(3 7 4)"]),
    "gl32pl": (7, ["(2 3)(6 7)", "(1 2)(4 6 7 5)"]),
    "f21": (7, ["(1 2 3 4 5 6 7)", "(2 3 5)(4 7 6)"]),
    "agl1_11": (11, ["(1 2 3 4 5 6 7 8 9 10 11)", "(2 3 5 9 6 11 10 8 4 7)"]),
    "d12": (12, ["(1 2 3 4 5 6 7 8 9 10 11 12)", "(2 12)(3 11)(4 10)(5 9)(6 8)"]),
    "shuffled-s7": (7, ["(3 4)(5 6)", "(1 2 3 4 5 6 7)", "(2 5)", "(1 6 4)"]),
    "shuffled-s11": (
        11, ["(2 3 5 9 6 11 10 8 4 7)", "(3 9 5 4)(6 7 10 8)", "(1 2 3 4 5 6 7 8 9 10 11)"]
    ),
    "repeated-young": (9, ["(6 7 8 9)", "(1 2)", "(2 3 4 5)", "(1 2)", "(8 9)", "(6 7 8 9)"]),
}
_CHAIN_DIGESTS = {
    "symmetric:1": "319ac9e7242102ca3258e9eae26f8f9b13c9a0fc7454bf2c891c6076a3c908a0",
    "symmetric:2": "0bb062d55dfb015903b550b792a1473b2f454166629dc69000977a605ce1f94f",
    "symmetric:3": "5ec7e5f1490160d5f4d69349b406a776a2fb0a10ff49a1017d472af3aef92b2b",
    "symmetric:4": "159813ec06e5a6c68ec4afa7759d27c11976ab4ece536d96f1feae826334af6f",
    "symmetric:5": "5f5ee04498041441b208e1d89dbea832767c742519bd9e724feb9b95c0d7a2c8",
    "symmetric:6": "90d97815c2d321b32f4e9abc86ea911ce8ccd13d898734cc15f219cd65473c50",
    "symmetric:7": "f3d59c3d275f51aadb68f6aea9083d89f7e620826331f58e95cfad958be40afd",
    "symmetric:8": "6d4efbfa501013376599c1cabd648fd141466dc60d33794fc987c1015b31d164",
    "symmetric:9": "d2c61f6752466e23c7c1dc9cd4fae44caac768e733176de3c9c8c0630daca3d6",
    "alternating:1": "319ac9e7242102ca3258e9eae26f8f9b13c9a0fc7454bf2c891c6076a3c908a0",
    "alternating:2": "6b2d121578b8804f86d7ea7666d6ee32f077ea4d06090414aac8e91e68af8c31",
    "alternating:3": "628184ce4a7b5bdb97df5001d1071cc0ac2e6071936b43d676ac6d8dc08f8b20",
    "alternating:4": "169fd90ac6593dc0d87615412f31c4efa431bf0b7efb623686dbef2a8f27f64d",
    "alternating:5": "40ce9532a72664f31ac310326e411447762dc46d6ded339004e2d4f8c3200bce",
    "alternating:6": "4ab9ff19829e33338f3e2aacd7ec95068303d2d5ae685b512db18411e53e232c",
    "alternating:7": "95a3896210c7e7fa71f3d2d12f3d0c144f80e9fa2269669e77f143d38f2e216c",
    "alternating:8": "489da1ca999174a1ecb7b94d7c04635778dc82b090df2fb3a58b2f4917284b41",
    "alternating:9": "0c98c4b42705f9c3812eca700dfab43ae6d841e6fc7b7016e410dee235581e3f",
    "block:2x1": "0bb062d55dfb015903b550b792a1473b2f454166629dc69000977a605ce1f94f",
    "block:2x2": "7ca87cd0d633440ca8ec66f059e2bbc1d7d7b7cf81d85129155538078ac7f499",
    "block:2x3": "11b8ba147436ff0d77f94ce435c458c62c7807262f2dae7aa8489f0949a57449",
    "block:3x1": "5ec7e5f1490160d5f4d69349b406a776a2fb0a10ff49a1017d472af3aef92b2b",
    "block:3x2": "9f5e3054654ca0fe3ca4a00f546d76230c3859530c81cebad932572207d8fd06",
    "block:3x3": "e0e05df718a1311fd900edce2babac3a9936c96c76667e7027ff9259b1c91ce7",
    "block:4x1": "159813ec06e5a6c68ec4afa7759d27c11976ab4ece536d96f1feae826334af6f",
    "block:4x2": "bd7f7c05d3c067876ce65a48299dd7cd69bc2b0f21e5172cdacdd9f4909e0cd4",
    "block:4x3": "dbd0164119ec79a8cced8d372a8570023aa85c8298b57edfb893b1e873051777",
    "block:5x1": "5f5ee04498041441b208e1d89dbea832767c742519bd9e724feb9b95c0d7a2c8",
    "block:5x2": "573d56170019cb388138fd0e5094cfa04fee2dfaf0906507ab6c80858416c0c7",
    "block:5x3": "0fff46c9c48de6ae52801c59367d9d27603589731ba307ab15b9a6be3d1ce115",
    "block:6x1": "90d97815c2d321b32f4e9abc86ea911ce8ccd13d898734cc15f219cd65473c50",
    "block:6x2": "4233c3ff9c64698182fc18e571095bdb85da2df8253f655fce1bc4b210e1e5fb",
    "block:6x3": "2c64f0afb058e943a1397422d4f92fcf08e3b6cb6697e8d10a26ee07b1d38e8b",
    "young:3+2": "3cbaad9d9a4eae7941a63aa5d78ddf240f5073c9df064333ec676dadfe531888",
    "young:5+3": "1e3232341b2a51f84e1d8096a09119685e6984f0f7641ba786806b98bc3a4ceb",
    "young:4+4+2": "883aabd6ff34be86d7325f83944997443798dd13aa7c4e5ecd63df55fdd0482e",
    "young:2+2+2+1": "d89bab009390898d5083c1739be0d63226d27a4eec4592fe937519d740b17975",
    "young:15+2": "87d6ee76165877cbd56fc8fcd478838b33602af9d60566f218051d0370ec5b9e",
    "gl32": "06c68baafe54525fcc645afe8353ceee06539714097c0a7ae59d8cf7fb488ebb",
    "gl32-point": "a817e7d1e826956c2c2fc0d1962f18cdebe803bd4f9cd80ef1f494aadee89852",
    "gl32-plane": "af4bc86b6ac32c3585fa7973b2da6ed27d6604b77027f15b4719e6b914725a12",
    "agl15": "204366eefb999d6f8823e93bae0d9641f09a7cb95089212f0ca20316baa7f2a7",
    "b8x2": "38e283af1402e4c56f41847677de6d6e1b4c92da257bb19e0072403fc43a627e",
    "c8": "5309a249025261fc52d84980350b22a1590b7dd7caf580848b231676b2189809",
    "gl32": "06c68baafe54525fcc645afe8353ceee06539714097c0a7ae59d8cf7fb488ebb",
    "gl32pt": "a817e7d1e826956c2c2fc0d1962f18cdebe803bd4f9cd80ef1f494aadee89852",
    "gl32pl": "e8c62e4b6409698955cf4bd26cd4888ab6687c478bda12e9435a8a78ce22948e",
    "f21": "276ef9867f7d016deca5c881fbd4210e5d8646127d0a035569a36d2151bf2732",
    "agl1_11": "dc2034236806badcc6f84b980ac95ae9e72890dfbfbf6bdc7544ef73942eccc9",
    "d12": "63444edeccef55de696be0380246e5c7d028bd47b040e3f24d6ab9cda98b8ba2",
    "shuffled-s7": "67eec1a60c0511831e9e1a98067c23b74ff74b151b06f2c6bc6c6ffce72a5426",
    "shuffled-s11": "e225fd796817e2b3d86cefb14fb9132df78aec88b430502d5cef11a2c72e7b52",
    "repeated-young": "b38cfaecb6fbee31c1cc975ba10338d5aeb9728072601d87f2ce939a1f13ad3e",
}


def _chain_digest(G: PermGroup) -> str:
    h = hashlib.sha256()
    for a in (G.chain.base, G.chain.level_off, G.chain.orbit_pts, G.chain.trans):
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _pinned_groups():
    for spec in _PINNED_CATALOG:
        yield spec, resolve_catalog(spec).group
    for name, (degree, gens) in _PINNED_GENERATORS.items():
        yield name, PermGroup.from_cycles(gens, degree)


def test_packed_chains_match_their_pinned_digests():
    got = {name: _chain_digest(G) for name, G in _pinned_groups()}
    assert got == _CHAIN_DIGESTS


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
    assert orbits(PermGroup([], degree=3)) == [(1,), (2,), (3,)]


@pytest.mark.parametrize("n", [6, 7, 8])
def test_orbits_match_the_closure_on_random_subgroups(n):
    # oracle: the orbit of each point, closed under the generators one image
    # at a time; orbits listed by least point, each sorted
    rng = random.Random(300 + n)
    for _ in range(12):
        H = random_subgroup(rng, PermGroup.symmetric(n), max_gens=2)
        if rng.random() < 0.5:  # more fixed points and small orbits
            H = PermGroup([g for g in H.generators if rng.random() < 0.7], degree=n)
        gens = [g.array.tolist() for g in H.generators]
        expected = []
        for p in range(n):
            if any(p + 1 in orb for orb in expected):
                continue
            orb = {p}
            grown = True
            while grown:
                new = {g[q] for q in orb for g in gens} - orb
                orb |= new
                grown = bool(new)
            expected.append(tuple(sorted(q + 1 for q in orb)))
        assert orbits(H) == expected
        assert is_transitive(H) == (len(expected) == 1)


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
    classes, class_ids = element_class_map(G)
    assert sum(s for _, s in classes) == G.order
    assert len(class_ids) == G.order
    base = G.chain.base
    for cid, (rep, size) in enumerate(classes):
        orbit = {Permutation(g[rep.array[inv_array(g)]]) for g in G.element_arrays()}  # g^-1 rep g
        assert len(orbit) == size
        rows = np.array([x.array for x in orbit])
        assert set(class_ids[G.chain.positions(rows[:, base])].tolist()) == {cid}


def _assert_class_map_matches_the_bfs(G: PermGroup) -> None:
    classes, class_ids = element_class_map(G)
    want_classes, want_id = bfs_class_map(G)
    assert [(rep.array.tolist(), size) for rep, size in classes] == [
        (rep.array.tolist(), size) for rep, size in want_classes
    ]
    assert class_ids.tolist() == [want_id[e.tobytes()] for e in G.element_arrays()]


def test_element_class_map_matches_the_bfs_on_every_subgroup_of_s4_and_s5(
    s4_subgroups, s5_subgroups
):
    for H in s4_subgroups + s5_subgroups:
        _assert_class_map_matches_the_bfs(H)


@pytest.mark.parametrize("spec", ["gl32", "agl15", "alternating:7"])
def test_element_class_map_matches_the_bfs_on_catalog_groups(spec):
    _assert_class_map_matches_the_bfs(resolve_catalog(spec).group)


def test_element_class_map_matches_the_bfs_on_random_subgroups():
    rng = random.Random(2024)
    for _ in range(50):
        G = PermGroup.symmetric(rng.randint(6, 8))
        _assert_class_map_matches_the_bfs(random_subgroup(rng, G))


def test_chain_images_positions_and_elements_agree_with_the_enumeration(monkeypatch):
    rng = random.Random(8)
    groups = [resolve_catalog(s).group for s in ("gl32", "block:3x2", "cyclic:1@4")]
    groups += [random_subgroup(rng, PermGroup.symmetric(7)) for _ in range(5)]
    for G in groups:
        ch = G.chain
        # the reference: chain order by the digit walk of `element`
        elements = np.array([ch.element(i) for i in range(G.order)])
        assert np.array_equal(ch.images(range(G.degree)), elements)
        assert np.array_equal(ch.images([2, 0]), elements[:, [2, 0]])
        assert np.array_equal(ch.positions(elements[:, ch.base]), np.arange(G.order))
        sizes = ch.level_sizes()
        rows = {"one entry": 1, "one level": sizes[0] if sizes else 1, "unbounded": G.order}
        for name, bound in block_bounds(G).items():
            blocks = list(ch.blocks(bound))
            assert [b.shape[0] for b in blocks] == [rows[name]] * (G.order // rows[name])
            assert np.array_equal(np.concatenate(blocks), elements)
            monkeypatch.setattr(_kernels, "BLOCK_ENTRIES", bound)
            assert np.array_equal(np.array(list(G.element_arrays())), elements)


def test_chain_positions_refuse_points_outside_the_orbits():
    G = PermGroup.from_cycles(["(1 2)", "(3 4)"], 4)
    assert G.chain.positions(np.array([[1, 3]])).tolist() == [3]
    with pytest.raises(PreconditionError):
        G.chain.positions(np.array([[2, 2]]))


def test_orbit_labels_name_each_orbit_by_its_least_point():
    cycle = np.roll(np.arange(1000), 1)  # one long orbit, labelled in few rounds
    assert orbit_labels([cycle], 1000).tolist() == [0] * 1000
    swap = np.array([0, 2, 1, 3, 5, 4])
    assert orbit_labels([swap], 6).tolist() == [0, 1, 1, 3, 4, 4]
    assert orbit_labels([], 3).tolist() == [0, 1, 2]


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
    prof = ClassProfile(5, {(1,) * 5: 1})
    assert prof.order == 1 and prof.count((1, 1, 1, 1, 1)) == 1
    prof.validate()
