"""Permutation groups of the catalog: generators and named groups.

`lab.resolve_catalog` builds a catalog entry's group here, and only when the
group is asked for, so a job that reads only an analytic census never loads
this module, numpy or the group layer.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .errors import PreconditionError
from .perm import PermGroup, Permutation, parse_cycles


def block_group_gens(m: int, r: int) -> list:
    """Generators of the block group: swap of the first two blocks and the
    cyclic shift of all m blocks (blocks are consecutive runs of r points)."""
    if m < 2 or r < 1:
        raise PreconditionError("need m >= 2 blocks of size r >= 1")
    n = m * r
    swap = np.arange(n, dtype=np.int32)
    swap[0:r], swap[r : 2 * r] = np.arange(r, 2 * r), np.arange(0, r)
    gens = [Permutation(swap)]
    if m > 2:
        shift = (np.arange(n, dtype=np.int32) + r) % n
        gens.append(Permutation(shift))
    return gens


def young_gens(parts) -> list:
    """Generators of the Young subgroup on consecutive blocks."""
    parts = list(parts)
    n = sum(parts)
    gens = []
    offset = 0
    for a in parts:
        if a >= 2:
            gens.append(parse_cycles(f"({offset + 1} {offset + 2})", n))
        if a >= 3:
            cyc = " ".join(str(offset + i + 1) for i in range(a))
            gens.append(parse_cycles(f"({cyc})", n))
        offset += a
    return gens


def _gl32_perm(mat) -> Permutation:
    """Action of a GL(3,2) matrix on the 7 nonzero vectors of F_2^3.

    Vector v in {1..7} has bits (v&1, v>>1&1, v>>2&1); matrices act on column
    vectors mod 2.
    """
    arr = np.empty(7, dtype=np.int32)
    for v in range(1, 8):
        x = (v & 1, (v >> 1) & 1, (v >> 2) & 1)
        w = 0
        for row in range(3):
            bit = (mat[row][0] * x[0] + mat[row][1] * x[1] + mat[row][2] * x[2]) % 2
            w |= bit << row
        arr[v - 1] = w - 1
    return Permutation(arr)


@cache
def gl32_group() -> PermGroup:
    """GL(3,2) of order 168 acting on the 7 points of the Fano plane."""
    transvection = _gl32_perm(((1, 1, 0), (0, 1, 0), (0, 0, 1)))
    rotation = _gl32_perm(((0, 0, 1), (1, 0, 0), (0, 1, 0)))
    return PermGroup([transvection, rotation], degree=7)


@cache
def gl32_point_stabilizer() -> PermGroup:
    """Stabilizer in GL(3,2) of the point 1 (the vector 001), order 24.

    The generators are a strong generating set for the base 1, 2, ..., 7,
    so the Schreier–Sims adds none and the chain is packed from them."""
    return PermGroup.from_cycles(["(2 3)(6 7)", "(4 6)(5 7)", "(4 7)(5 6)", "(2 6 5)(3 7 4)"], 7)


@cache
def gl32_plane_stabilizer() -> PermGroup:
    """Setwise stabilizer of the plane {1, 2, 3} (the span of 001 and 010)."""
    G = gl32_group()
    plane = {0, 1, 2}
    members = [
        Permutation(arr.copy())
        for arr in G.element_arrays()
        if {int(arr[p]) for p in plane} == plane
    ]
    return PermGroup(members, degree=7)


def agl15_group() -> PermGroup:
    """AGL(1,5): x -> ax+b on F_5, order 20, primitive on 5 points."""
    return PermGroup.from_cycles(["(1 2 3 4 5)", "(2 3 5 4)"], 5)


def _symmetric_group(n: int) -> PermGroup:
    return PermGroup.symmetric(n)


def _alternating_group(n: int) -> PermGroup:
    return PermGroup.alternating(n)


def _cyclic_group(k: int, n: int) -> PermGroup:
    if k < 2:
        return PermGroup([], degree=n)
    return PermGroup.from_cycles(["(" + " ".join(str(i) for i in range(1, k + 1)) + ")"], n)


def _young_group(parts: list) -> PermGroup:
    return PermGroup(young_gens(parts), sum(parts))


def _block_group(m: int, r: int) -> PermGroup:
    return PermGroup(block_group_gens(m, r), m * r)
