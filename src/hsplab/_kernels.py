"""Hot inner loops shared by the permutation and coset machinery.

All kernels operate on a *packed stabilizer chain*: flat int32 arrays
describing base points, orbits and explicit transversal elements (built in
:mod:`hsplab.perm`).

Permutations are 0-based int32 image arrays; ``mult(a, b)[i] = b[a[i]]``
(apply ``a`` first, then ``b``).  Every kernel works on a *row matrix*, one
permutation per row, with numpy operations over all rows at once:

- canonicalization (:func:`canon_batch`) makes one ``argmin`` and one
  gather per chain level;
- the fix count (:func:`fix_count`) sifts each row's conjugate of g through
  the chain one point at a time, dropping a row at its first failing point;
- the census (:func:`census_rows`) counts the cycles of each block of the
  chain's elements (``PackedChain.blocks``) by pointer doubling.
"""

from __future__ import annotations

import numpy as np

#: Largest block (rows x degree entries) of elements that the census, the
#: element lists and the Schreier–Sims tests build at once.
BLOCK_ENTRIES = 1 << 16


def _canon_rows(z, chain):
    """Canonicalize every row of the (rows, n) matrix ``z`` to the
    lex-minimal element of its right coset; returns the new matrix.

    The chain must have an increasing smallest-moved-point base; then greedy
    per-level minimisation of the image array is lexicographically minimal.
    Row 0 of each level's transversal maps the base point to itself.
    """
    for lev in range(chain.num_levels):
        lo = int(chain.level_off[lev])
        hi = int(chain.level_off[lev + 1])
        k = np.argmin(z[:, chain.orbit_pts[lo:hi]], axis=1)
        moved = np.flatnonzero(k)
        if moved.size:
            z[moved] = np.take_along_axis(z[moved], chain.trans[lo + k[moved]], axis=1)
    return z


def canon_batch(reps, g, chain):
    """Canonical rep of coset(reps[r] * g) for every row r."""
    return _canon_rows(g[reps], chain)


def fix_count(reps, reps_inv, g, chain, moved) -> int:
    """Number of cosets H x that g fixes, over the rows x of a coset table
    `reps` (one row per coset) of G/H; `reps_inv` holds the inverse of each
    row, and `moved` the points that G moves (a superset serves as well).

    H x g = H x exactly when y = x g x^-1 lies in H.  The membership sift
    computes y one point at a time, over the rows still in play: first the
    base points, each image stripped through the transversal inverses already
    chosen for its row, which must land in its level's orbit; then every
    other point that G moves but the last, whose stripped image must be the
    point itself (y and H lie in G, so they fix every point that G fixes).
    A row drops out at its first failing point.
    """
    n = reps.shape[1]
    flat, flat_inv, trans_inv = reps.ravel(), reps_inv.ravel(), chain.trans_inv.ravel()
    base = chain.base.tolist()
    # the residue lies in G and fixes every other point, so it fixes the last too
    rest = sorted(set(moved).difference(base))[:-1]
    rows = np.arange(0, flat.size, n)  # the flat offset of each row in play
    # row l: the flat offset in trans_inv of the inverse chosen at level l
    strips = np.empty((len(base), rows.size), dtype=np.int64)
    for step, p in enumerate(base + rest):
        # y(p) = x^-1(g(x(p))), then each chosen inverse in level order
        y = flat_inv[rows + g[flat[rows + p]]]
        for off in strips[:step]:
            y = trans_inv[off + y]
        if step < len(base):
            k = chain.pos[step, y]
            keep = np.flatnonzero(k >= 0)
        else:
            keep = np.flatnonzero(y == p)
        rows, strips = rows[keep], strips[:, keep]
        if step < len(base):
            strips[step] = (chain.level_off[step] + k[keep]) * n
        if not rows.size:
            return 0
    return int(rows.size)


def _cycle_counts(block, out):
    """Write the cycle-length multiplicities of each row of ``block`` to the
    matching row of ``out``: column c counts the (c+1)-cycles.

    Pointer doubling labels every point with the least point of its cycle
    (as flat indices into the block); a cycle's length is the number of
    points that share its label.
    """
    rows, n = block.shape
    step = (block + np.arange(0, rows * n, n)[:, None]).ravel()
    label = np.arange(rows * n)
    span = 1
    while span < n:
        np.minimum(label, label[step], out=label)
        span *= 2
        if span < n:
            step = step[step]
    lengths = np.bincount(label, minlength=rows * n).reshape(rows, n)
    lengths += np.arange(0, rows * (n + 1), n + 1)[:, None]
    out[:] = np.bincount(lengths.ravel(), minlength=rows * (n + 1)).reshape(rows, n + 1)[:, 1:]


def census_rows(chain, n: int, order: int):
    """(order, n) int16 matrix of cycle-length multiplicities, one row per element.

    Row r holds, at column c, the number of (c+1)-cycles of the r-th element
    in chain enumeration order.
    """
    out = np.empty((order, n), dtype=np.int16)
    r = 0
    for block in chain.blocks(BLOCK_ENTRIES):
        _cycle_counts(block, out[r:r + block.shape[0]])
        r += block.shape[0]
    return out
