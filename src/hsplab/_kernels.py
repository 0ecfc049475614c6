"""Hot inner loops shared by the permutation and coset machinery.

All kernels operate on a *packed stabilizer chain*: flat int32 arrays
describing base points, orbits and explicit transversal elements (built in
:mod:`hsplab.perm`).

Permutations are 0-based int32 image arrays; ``mult(a, b)[i] = b[a[i]]``
(apply ``a`` first, then ``b``).
"""

from __future__ import annotations

import numpy as np


def _canon(z, base, level_off, orbit_pts, pos, trans):
    """Canonicalize z in place to the lex-minimal element of its right coset.

    The chain must have an increasing smallest-moved-point base; then greedy
    per-level minimisation of the image array is lexicographically minimal.
    """
    nlev = base.shape[0]
    for lev in range(nlev):
        lo = level_off[lev]
        hi = level_off[lev + 1]
        if hi - lo == 1:
            continue
        pts = orbit_pts[lo:hi]
        k = int(np.argmin(z[pts]))
        best = int(pts[k])
        if best != base[lev]:
            u = trans[lo + pos[lev, best]]
            z[:] = z[u]
    return z


def _cycle_row(arr, out_row):
    """Add the cycle-length multiplicities of ``arr`` to ``out_row``."""
    n = arr.shape[0]
    seen = np.zeros(n, dtype=np.bool_)
    for i in range(n):
        if not seen[i]:
            length = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = arr[j]
                length += 1
            out_row[length - 1] += 1


def canon_into(z, chain):
    """Canonicalize the int32 image array ``z`` in place; returns ``z``."""
    return _canon(z, chain.base, chain.level_off, chain.orbit_pts, chain.pos, chain.trans)


def canon_batch(reps, g, chain, out=None):
    """Canonical rep of coset(reps[r] * g) for every row r."""
    if out is None:
        out = np.empty_like(reps)
    packed = (chain.base, chain.level_off, chain.orbit_pts, chain.pos, chain.trans)
    for r in range(reps.shape[0]):
        out[r] = _canon(g[reps[r]], *packed)
    return out


def fix_count(reps, g, chain) -> int:
    """Number of rows r whose coset(reps[r] * g) has canonical rep reps[r]:
    for a table of canonical reps, the number of cosets that g fixes."""
    packed = (chain.base, chain.level_off, chain.orbit_pts, chain.pos, chain.trans)
    count = 0
    for r in range(reps.shape[0]):
        if np.array_equal(_canon(g[reps[r]], *packed), reps[r]):
            count += 1
    return count


def census_rows(chain, n: int, order: int):
    """(order, n) int16 matrix of cycle-length multiplicities, one row per element.

    Row r holds, at column c, the number of (c+1)-cycles of the r-th element
    in chain enumeration order.
    """
    out = np.zeros((order, n), dtype=np.int16)
    for r, arr in enumerate(chain.elements()):
        _cycle_row(arr, out[r])
    return out
