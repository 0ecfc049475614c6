"""Kernel oracles: every kernel result equals a brute-force computation from
the group elements."""

import random
from collections import Counter

import numpy as np
import pytest
from conftest import block_bounds, cycle_type_of_array, every_subgroup, random_subgroup
from hypothesis import given, settings
from hypothesis import strategies as st

from hsplab import _kernels
from hsplab.coset import coset_action, fix_in_X, rank_subdegrees
from hsplab.perm import PermGroup, element_class_map, inv_array, parse_cycles

GROUPS = [
    PermGroup.from_cycles(["(1 2)", "(1 2 3)"], 3),
    PermGroup.from_cycles(["(1 2)", "(1 2 3 4 5)"], 5),
    PermGroup.from_cycles(["(1 3)(2 4)", "(1 2 3 4 5 6 7 8)"], 8),
    PermGroup.from_cycles(["(1 2 3 4 5 6)"], 6),
    PermGroup([], degree=4),
]


def _row_type(row) -> tuple:
    """Cycle type (descending parts) from a row of cycle-length multiplicities."""
    parts = []
    for length in range(row.shape[0], 0, -1):
        parts.extend([length] * int(row[length - 1]))
    return tuple(parts)


@pytest.mark.parametrize("G", GROUPS)
def test_census_rows_match_cycle_types(G):
    rows = _kernels.census_rows(G.chain, G.degree, G.order)
    assert rows.shape == (G.order, G.degree)
    # each row accounts for every point exactly once
    assert all(int((row * np.arange(1, G.degree + 1)).sum()) == G.degree for row in rows)
    census = Counter(_row_type(row) for row in rows)
    assert census == Counter(cycle_type_of_array(a) for a in G.element_arrays())


def inverse_rows(reps):
    """The inverse of each row of a matrix of image arrays."""
    return np.stack([inv_array(x) for x in reps])


def test_canon_batch_and_fix_count_match_brute_force():
    H = PermGroup.from_cycles(["(1 2)", "(1 2 3)"], 5)
    S5 = PermGroup.symmetric(5)
    rows = np.stack(list(S5.element_arrays())[:40])
    h_elems = list(H.element_arrays())

    def as_tuple(x):
        return tuple(int(v) for v in x)

    def coset_min(x):
        # the right coset Hx has members x[h] (apply h, then x)
        return min(as_tuple(x[h]) for h in h_elems)

    # fix_count reads the rows of a coset table: the distinct canonical reps
    # of the cosets that the 40 elements lie in
    reps = np.array(sorted({coset_min(x) for x in rows}), dtype=np.int32)
    fixed_total = 0
    for cycles in ("(1 4 2 5)", "(4 5)", "(3 4 5)"):
        g = parse_cycles(cycles, 5)
        expected = [coset_min(g[x]) for x in rows]
        out = _kernels.canon_batch(rows, g, H.chain)
        assert [as_tuple(row) for row in out] == expected
        fixed = sum(coset_min(g[x]) == as_tuple(x) for x in reps)
        assert _kernels.fix_count(reps, inverse_rows(reps), g, H.chain, range(5)) == fixed
        fixed_total += fixed
    assert fixed_total > 0


def canon(x, chain):
    """The canonical representative of the coset of the image array x."""
    return _kernels.canon_batch(x[None, :], np.arange(x.shape[0], dtype=np.int32), chain)[0]


def test_canon_is_idempotent_and_stays_in_coset():
    H = PermGroup.from_cycles(["(1 2)", "(3 4 5)"], 5)
    ca = coset_action(PermGroup.symmetric(5), H)
    rng = np.random.default_rng(7)
    S5 = list(PermGroup.symmetric(5).element_arrays())
    for _ in range(25):
        x = S5[rng.integers(len(S5))]
        z = canon(x, H.chain)
        assert np.array_equal(canon(z, H.chain), z)
        # same coset: x and z send the coset H to the same table entry
        assert ca.induced_image(x)[0] == ca.induced_image(z)[0]
        # canonical rep is lexicographically minimal in the right coset Hx,
        # whose members are x[h] (apply h, then x)
        members = {tuple(int(v) for v in x[h]) for h in H.element_arrays()}
        assert tuple(int(v) for v in z) == min(members)


def test_coset_pipeline():
    S6 = PermGroup.symmetric(6)
    H = PermGroup.from_cycles(["(1 2)", "(1 2 3)"], 6)
    ca = coset_action(S6, H)
    assert ca.index == 120
    assert fix_in_X(ca, parse_cycles("(1 2)", 6)) == fix_in_X(ca, parse_cycles("(5 6)", 6))
    rr = rank_subdegrees(ca)
    assert sum(rr.subdegrees) == 120


def assert_fix_counts_match_induced_images(G, H):
    # the sift of fix_in_X against the canonical-rep route of induced_image,
    # on a representative of every class of G
    ca = coset_action(G, H)
    identity = np.arange(ca.index)
    for rep, _ in element_class_map(G)[0]:
        fixed = int(np.count_nonzero(ca.induced_image(rep) == identity))
        assert fix_in_X(ca, rep) == fixed


@pytest.mark.parametrize("parent", ["S5", "S6", "A6"])
def test_fix_in_X_counts_the_fixed_points_of_the_induced_image_on_every_subgroup(parent):
    G, subgroups = every_subgroup(parent)
    for H in subgroups:
        assert_fix_counts_match_induced_images(G, H)


@pytest.mark.parametrize(
    "G, H",
    [
        (PermGroup.symmetric(8), PermGroup.from_cycles(["(1 2 3 4 5 6 7 8)"], 8)),
        (PermGroup.symmetric(8), PermGroup.from_cycles(["(1 2)", "(3 4)", "(5 6)", "(7 8)"], 8)),
        # G fixes points 1, 4 and 7, which the sift does not visit
        (
            PermGroup.from_cycles(["(2 3 5 6)", "(2 3)", "(8 9)"], 9),
            PermGroup.from_cycles(["(2 3)(5 6)"], 9),
        ),
    ],
    ids=["S8/C8", "S8/S2^4", "S4xS2/C2"],
)
def test_fix_in_X_counts_the_fixed_points_of_the_induced_image_on_larger_tables(G, H):
    assert_fix_counts_match_induced_images(G, H)


def _coset_min(x, h_elems):
    """Lex-minimal member x[h] of the right coset Hx, by brute force."""
    members = x[h_elems]
    return members[np.lexsort(members.T[::-1])[0]]


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=2, max_value=8), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_canon_rows_match_brute_force_on_random_subgroups(n, seed):
    rng = random.Random(seed)
    Sn = PermGroup.symmetric(n)
    H = random_subgroup(rng, Sn)
    h_elems = np.stack(list(H.element_arrays()))
    xs = np.stack([Sn.random_element(rng) for _ in range(12)])
    reps = np.stack([_coset_min(x, h_elems) for x in xs])
    # g = x^-1 h x fixes the coset Hx, so some fix counts are non-zero
    x0 = reps[0]
    conj = x0[h_elems[rng.randrange(len(h_elems))][inv_array(x0)]]
    for g in (np.arange(n, dtype=np.int32), Sn.random_element(rng), conj):
        expected = np.stack([_coset_min(g[x], h_elems) for x in reps])
        assert np.array_equal(_kernels.canon_batch(reps, g, H.chain), expected)
        # reps are canonical, so a coset is fixed when its rep is its image's rep
        fixed = int(np.count_nonzero((expected == reps).all(axis=1)))
        assert _kernels.fix_count(reps, inverse_rows(reps), g, H.chain, range(n)) == fixed
    assert _kernels.fix_count(reps, inverse_rows(reps), conj, H.chain, range(n)) >= 1
    for x in xs:
        assert np.array_equal(canon(x, H.chain), _coset_min(x, h_elems))


def _census_groups():
    rng = random.Random(11)
    yield from GROUPS
    yield PermGroup.from_cycles(["(1 3)(2 4)", "(1 3 5 7 9 11)(2 4 6 8 10 12)"], 12)
    for n in (5, 7, 8):
        yield random_subgroup(rng, PermGroup.symmetric(n))


@pytest.mark.parametrize("G", list(_census_groups()), ids=repr)
def test_census_rows_follow_chain_order(G, monkeypatch):
    # the reference: chain order by the digit walk of `element`
    expected = [cycle_type_of_array(G.chain.element(i)) for i in range(G.order)]
    for bound in block_bounds(G).values():
        monkeypatch.setattr(_kernels, "BLOCK_ENTRIES", bound)
        rows = _kernels.census_rows(G.chain, G.degree, G.order)
        assert rows.dtype == np.int16
        assert [_row_type(row) for row in rows] == expected


@pytest.mark.parametrize(
    "G",
    [
        PermGroup.symmetric(6),
        PermGroup.from_cycles(["(1 3)(2 4)", "(1 3 5 7 9 11)(2 4 6 8 10 12)"], 12),
    ],
    ids=repr,
)
def test_census_rows_do_not_depend_on_the_block_size(G, monkeypatch):
    reference = _kernels.census_rows(G.chain, G.degree, G.order)
    sizes = G.chain.level_sizes()
    assert len(sizes) > 2
    # one row per block, then a block made of the first two levels only
    for block in (1, G.degree * sizes[0] * sizes[1]):
        monkeypatch.setattr(_kernels, "BLOCK_ENTRIES", block)
        assert np.array_equal(_kernels.census_rows(G.chain, G.degree, G.order), reference)


@pytest.mark.parametrize("n", [1, 4])
def test_kernels_on_the_trivial_group(n):
    T = PermGroup([], degree=n)
    assert T.chain.num_levels == 0
    rows = _kernels.census_rows(T.chain, n, 1)
    assert rows.tolist() == [[n] + [0] * (n - 1)]
    reps = np.stack([np.roll(np.arange(n, dtype=np.int32), k) for k in range(n)])
    g = np.roll(np.arange(n, dtype=np.int32), 1)
    # every coset of the trivial group is a single element
    assert np.array_equal(_kernels.canon_batch(reps, g, T.chain), g[reps])
    reps_inv = inverse_rows(reps)
    identity = np.arange(n, dtype=np.int32)
    assert _kernels.fix_count(reps, reps_inv, g, T.chain, range(n)) == (n if n == 1 else 0)
    assert _kernels.fix_count(reps, reps_inv, identity, T.chain, range(n)) == n
    assert np.array_equal(canon(g, T.chain), g)
