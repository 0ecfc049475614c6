"""Kernel oracles: every kernel result equals a brute-force computation from
the group elements."""

from collections import Counter

import numpy as np
import pytest

from hsplab import _kernels
from hsplab.coset import coset_action, fix_in_X, rank_subdegrees
from hsplab.perm import PermGroup, Permutation, cycle_type_of_array, parse_cycles

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


def test_canon_batch_and_fix_count_match_brute_force():
    H = PermGroup.from_cycles(["(1 2)", "(1 2 3)"], 5)
    S5 = PermGroup.symmetric(5)
    reps = np.stack(list(S5.element_arrays())[:40])
    h_elems = list(H.element_arrays())

    def as_tuple(x):
        return tuple(int(v) for v in x)

    def coset_min(x):
        # the right coset Hx has members x[h] (apply h, then x)
        return min(as_tuple(x[h]) for h in h_elems)

    fixed_total = 0
    for cycles in ("(1 4 2 5)", "(4 5)", "(3 4 5)"):
        g = parse_cycles(cycles, 5).array
        expected = [coset_min(g[x]) for x in reps]
        out = _kernels.canon_batch(reps, g, H.chain)
        assert [as_tuple(row) for row in out] == expected
        fixed = sum(m == as_tuple(x) for m, x in zip(expected, reps))
        assert _kernels.fix_count(reps, g, H.chain) == fixed
        fixed_total += fixed
    assert fixed_total > 0


def test_canon_is_idempotent_and_stays_in_coset():
    H = PermGroup.from_cycles(["(1 2)", "(3 4 5)"], 5)
    ca = coset_action(PermGroup.symmetric(5), H)
    rng = np.random.default_rng(7)
    S5 = list(PermGroup.symmetric(5).element_arrays())
    for _ in range(25):
        x = S5[rng.integers(len(S5))]
        z = x.copy()
        _kernels.canon_into(z, H.chain)
        z2 = z.copy()
        _kernels.canon_into(z2, H.chain)
        assert np.array_equal(z, z2)
        # same coset: x and z map to the same table entry
        assert ca.coset_of(Permutation(x.copy())) == ca.coset_of(Permutation(z.copy()))
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
