"""Permutations, permutation groups, and exact conjugacy-class censuses.

A permutation of {1..n} is its 0-based int32 image array: entry i holds the
image of the point i + 1, less one.  Points are 1-based in cycle notation
(`parse_cycles`, `cycles`) and in group files.

Groups carry a deterministic stabilizer chain with base points in increasing
smallest-moved-point order, giving exact arbitrary-precision orders,
membership tests, and element enumeration.  Its strong generators come from
``_schreier_sims``, an in-house incremental Schreier–Sims on image arrays.
Cycle types and the census type ``ClassProfile`` live in ``hsplab.profile``.
"""

from __future__ import annotations

import re
import sys
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from . import _kernels
from .errors import InvariantError, ParseError, PreconditionError
from .profile import ENUMERATION_LIMIT, ClassProfile, check_enumeration, check_group_degree


def inv_array(a: np.ndarray) -> np.ndarray:
    inv = np.empty_like(a)
    inv[a] = np.arange(a.shape[0], dtype=a.dtype)
    return inv


def cycles(arr: np.ndarray) -> str:
    """Cycle notation of the image array `arr`, e.g. '(1 2)(3 4)'; '()' for
    the identity."""
    img, seen, out = arr.tolist(), set(), []
    for i, j in enumerate(img):  # each cycle starts at its least point
        if j == i or i in seen:
            continue
        cyc = [i]
        while j != i:
            cyc.append(j)
            j = img[j]
        seen.update(cyc)
        out.append("(" + " ".join(str(p + 1) for p in cyc) + ")")
    return "".join(out) or "()"


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, degree: int) -> np.ndarray:
    """Parse disjoint cycles like '(1 2)(3 4)' into an image array; absent
    points are fixed."""
    if degree < 1:
        raise ParseError("degree must be positive")
    leftover = _CYCLE_RE.sub(" ", text)
    if leftover.strip():
        raise ParseError(f"malformed cycle notation: {text!r}")
    arr = np.arange(degree, dtype=np.int32)
    used = set()
    for m in _CYCLE_RE.finditer(text):
        body = m.group(1).replace(",", " ").split()
        try:
            pts = [int(tok) for tok in body]
        except ValueError:
            raise ParseError(f"malformed cycle notation: {text!r}") from None
        for p in pts:
            if not 1 <= p <= degree:
                raise ParseError(f"point {p} out of range 1..{degree}")
            if p in used:
                raise ParseError(f"repeated point {p} in cycle notation")
            used.add(p)
        for a, b in zip(pts, pts[1:] + pts[:1]):
            arr[a - 1] = b - 1
    return arr


# ---------------------------------------------------------------------------
# stabilizer chains and groups
# ---------------------------------------------------------------------------


class PackedChain(NamedTuple):
    """Flat-array stabilizer chain consumed by the kernels.

    Non-singleton levels only, base strictly increasing; level ``l`` owns
    transversal rows ``level_off[l]:level_off[l+1]``, row k of level l being
    the element mapping ``base[l]`` to ``orbit_pts[level_off[l]+k]``.
    """

    degree: int
    base: np.ndarray
    level_off: np.ndarray
    orbit_pts: np.ndarray
    pos: np.ndarray
    trans: np.ndarray
    trans_inv: np.ndarray
    order: int

    @property
    def num_levels(self) -> int:
        return self.base.shape[0]

    def level_sizes(self) -> list:
        return [int(self.level_off[l + 1] - self.level_off[l]) for l in range(self.num_levels)]

    def _compose(self, points, stop: int) -> np.ndarray:
        """The images of `points` under the elements of levels 0..stop-1,
        one row per element in chain order (level 0 fastest), built level by
        level as one block matrix."""
        pts = np.asarray(points, dtype=np.int32)
        out = np.arange(self.degree, dtype=np.int32)[None, :]
        for lev in range(stop):
            lo, hi = int(self.level_off[lev]), int(self.level_off[lev + 1])
            # the slowest level need only map the points
            u = self.trans[lo:hi] if lev < stop - 1 else self.trans[lo:hi, pts]
            # row (k, r) applies transversal row k of this level, then row r
            # of the faster levels: this level is the slowest digit so far
            out = out[:, u].swapaxes(0, 1).reshape(-1, u.shape[1])
        return out if stop else pts[None, :]

    def images(self, points) -> np.ndarray:
        """(order, len(points)) matrix whose row i holds the images of
        `points` under the i-th element in chain order."""
        return self._compose(points, self.num_levels)

    def blocks(self, max_entries: int) -> Iterator[np.ndarray]:
        """Every element as an image row, in chain order, a block at a time.

        The fastest levels whose elements fit in `max_entries` matrix
        entries (at least the identity row) form one matrix; each block is
        that matrix composed with the next element of the slower levels.
        """
        rows, split = 1, 0
        for size in self.level_sizes():
            if rows * size * self.degree > max_entries:
                break
            rows *= size
            split += 1
        inner = self._compose(np.arange(self.degree), split)
        # the element at a multiple of `rows` is the identity on the fast levels
        for start in range(0, self.order, rows):
            yield inner[:, self.element(start)]

    def positions(self, base_images) -> np.ndarray:
        """Chain positions (int64, so for groups of order below 2^63) of the
        group elements whose images of the base points are the rows of
        `base_images`.

        An element is fixed by its images of the base, so sifting them level
        by level finds its transversal rows, and with them its position.  A
        row that no element of the group has raises PreconditionError.
        """
        # one row per base point, so each level reads and writes whole rows
        y = np.array(np.asarray(base_images).T, dtype=np.int32, order="C")
        out = np.zeros(y.shape[1], dtype=np.int64)
        flat_inv = self.trans_inv.ravel()
        stride = 1
        for lev, size in enumerate(self.level_sizes()):
            k = self.pos[lev, y[lev]]
            if (k < 0).any():
                raise PreconditionError("element is not in the group")
            out += stride * k.astype(np.int64)
            stride *= size
            # strip the level's transversal row from the later base images
            k += int(self.level_off[lev])
            k *= self.degree
            for row in y[lev + 1:]:
                row[:] = flat_inv[row + k]
        return out

    def element(self, position: int) -> np.ndarray:
        """The element at `position` in chain order, as an image array."""
        off = self.level_off.tolist()
        arr = np.arange(self.degree, dtype=np.int32)
        # level 0 is the last factor applied: x -> u_0(u_1(...(x)))
        for lo, hi in zip(off, off[1:]):
            position, k = divmod(position, hi - lo)
            arr = arr[self.trans[lo + k]]
        return arr


class _Level:
    """One level of a stabilizer chain: a base point, the strong generators
    that fix every earlier base point, and the BFS transversal of the point's
    orbit under them.  The incremental Schreier–Sims grows its levels, and
    `_pack_chain` packs the levels of the final strong generators.

    Generators are kept both as image arrays and as Python lists (for the
    point-by-point orbit walk).  ``refresh`` rebuilds the transversal; the
    row keys, the inverse rows, the generator matrix and the point-to-row map
    are built on first use after it.
    """

    __slots__ = ("point", "gens", "lists", "orbit", "index", "rows", "_keys", "_inv", "_mats")

    def __init__(self, point: int):
        self.point = point
        self.gens = []
        self.lists = []

    def add(self, g: np.ndarray, g_list: list, idarr: np.ndarray) -> None:
        self.gens.append(g)
        self.lists.append(g_list)
        self.refresh(idarr)

    def refresh(self, idarr: np.ndarray) -> None:
        orbit = [self.point]
        rows = [idarr]
        index = {self.point: 0}
        for r, x in enumerate(orbit):
            for g_list, g in zip(self.lists, self.gens):
                q = g_list[x]
                if q not in index:
                    index[q] = len(orbit)
                    orbit.append(q)
                    rows.append(g[rows[r]])
        self.orbit = orbit
        self.index = index
        self.rows = np.array(rows) if len(rows) > 1 else idarr[None, :]
        self._keys = self._inv = self._mats = None

    def keys(self) -> list:
        if self._keys is None:
            self._keys = [r.tobytes() for r in self.rows]
        return self._keys

    def inverses(self) -> np.ndarray:
        if self._inv is None:
            inv = np.empty_like(self.rows)  # row 0 is the identity
            inv[np.arange(inv.shape[0])[:, None], self.rows] = self.rows[0]
            self._inv = inv
        return self._inv

    def matrices(self, degree: int) -> tuple:
        """(generator matrix, point -> transversal row or -1)."""
        if self._mats is None:
            pos = np.full(degree, -1, dtype=np.int64)
            pos[self.orbit] = np.arange(len(self.orbit))
            self._mats = (np.array(self.gens), pos)
        return self._mats


def _schreier_sims(gens: Iterable[np.ndarray], degree: int) -> list:
    """Strong generators of <gens>, image arrays of the given degree,
    relative to the base 0, 1, ..., degree - 1: base point k is the point k.

    The incremental Schreier–Sims algorithm (Seress, pp. 90-93; Holt, Eick
    and O'Brien, §4.4), fully deterministic: the result is the distinct
    non-identity ``gens`` in their given order, then each residue of a
    Schreier generator that failed to strip, in the order found.  Level k's
    Schreier generators are tested in (orbit point in BFS order, generator)
    order, a block at a time; the first failure adds its residue to the
    levels it fixes and the loop restarts at the highest of them.
    """
    idarr = np.arange(degree, dtype=np.int32)
    strong, seen = [], {idarr.tobytes()}
    for g in gens:
        key = g.tobytes()
        if key not in seen:
            seen.add(key)
            strong.append(g)
    if not strong:
        return []

    # level k starts with the generators fixing the points below k; levels
    # above the highest one reached hold the identity as a placeholder
    levels = [_Level(b) for b in range(degree)]
    top = 0
    for g in strong:
        g_list = g.tolist()
        j = 0
        while j < degree - 1 and g_list[j] == j:
            j += 1
        top = max(top, j)
        for level in levels[:j + 1]:
            level.gens.append(g)
            level.lists.append(g_list)
    id_list = idarr.tolist()
    for level in levels[top + 1:]:
        level.gens.append(idarr)
        level.lists.append(id_list)
    for level in levels:
        level.refresh(idarr)

    def strip(h: np.ndarray, k: int):
        """Sift h, which moves the point k and fixes every point below it:
        None if it reduces to the identity, else (failing level + 1, residue)."""
        while True:
            if k == degree:
                raise InvariantError("strip left a non-identity element fixing the whole base")
            level = levels[k]
            p = level.index.get(int(h[level.point]))
            if p is None:
                return k + 1, h
            if h.tobytes() == level.keys()[p]:
                return None
            h = level.inverses()[p][h]
            moved = np.flatnonzero(h[k + 1:] != idarr[k + 1:])
            k = k + 1 + int(moved[0]) if moved.size else degree

    added = []
    i = degree - 1
    while i >= 0:
        level = levels[i]
        if level.gens[-1] is idarr:  # only the placeholder: nothing to test
            i -= 1
            continue
        gmat, pos = level.matrices(degree)
        ngens = gmat.shape[0]
        gsel = np.arange(ngens)[None, :, None]
        tail = idarr[i + 1:]
        step = max(1, _kernels.BLOCK_ENTRIES // (ngens * degree))
        found = None
        for lo in range(0, len(level.orbit), step):
            # row (beta, g) of g1, beta-major: u_beta then g.  It differs from
            # u_{g(beta)} exactly when the Schreier generator is not the identity.
            u_beta = level.rows[lo:lo + step]
            g1 = gmat[gsel, u_beta[:, None, :]].reshape(-1, degree)
            gb = pos[gmat[:, level.orbit[lo:lo + step]].T.ravel()]
            cand = np.flatnonzero((g1 != level.rows[gb]).any(axis=1))
            if not cand.size:
                continue
            schreier = level.inverses()[gb[cand][:, None], g1[cand]]
            moved = schreier[:, i + 1:] != tail
            first = np.where(moved.any(axis=1), moved.argmax(axis=1) + i + 1, degree)
            for r, k in enumerate(first.tolist()):
                found = strip(schreier[r], k)
                if found is not None:
                    break
            if found is not None:
                break
        if found is None:
            i -= 1
            continue
        j, h = found
        h = h.copy()
        added.append(h)
        h_list = h.tolist()
        for l in range(i + 1, j):
            levels[l].add(h, h_list, idarr)
        i = j - 1
    return strong + added


def _pack_chain(strong: list, degree: int) -> PackedChain:
    """The packed chain of the strong generators `strong`, distinct and not
    the identity, relative to the base 0, 1, ..., degree - 1."""
    idarr = np.arange(degree, dtype=np.int32)
    # level b is generated by the strong generators that fix every point below b
    first = (np.array(strong) != idarr).argmax(axis=1).tolist() if strong else []
    lists = [g.tolist() for g in strong]
    levels = []
    order = 1
    for b in range(max(first, default=-1) + 1):
        level = _Level(b)
        for g, g_list, f in zip(strong, lists, first):
            if f >= b:
                level.gens.append(g)
                level.lists.append(g_list)
        level.refresh(idarr)
        order *= len(level.orbit)
        if len(level.orbit) > 1:
            levels.append(level)

    nlev = len(levels)
    base = np.array([level.point for level in levels], dtype=np.int32)
    level_off = np.zeros(nlev + 1, dtype=np.int64)
    level_off[1:] = np.cumsum([len(level.orbit) for level in levels])
    orbit_pts = np.array([p for level in levels for p in level.orbit], dtype=np.int32)
    pos = np.full((max(nlev, 1), degree), -1, dtype=np.int32)
    for l, level in enumerate(levels):
        pos[l, level.orbit] = np.arange(len(level.orbit))
    empty = np.empty((0, degree), dtype=np.int32)
    trans = np.concatenate([empty, *(level.rows for level in levels)])
    trans_inv = np.concatenate([empty, *(level.inverses() for level in levels)])
    return PackedChain(degree, base, level_off, orbit_pts, pos, trans, trans_inv, order)


class PermGroup:
    """A permutation group given by generators, with an exact stabilizer chain.

    The generators are kept as int32 image arrays, made read-only."""

    def __init__(self, generators: Iterable[np.ndarray], degree: int | None = None):
        gens = tuple(np.asarray(g, dtype=np.int32) for g in generators)
        if degree is None:
            if not gens:
                raise ValueError("degree required for an empty generator list")
            degree = gens[0].shape[0]
        for g in gens:
            if g.shape != (degree,):
                raise PreconditionError("generators have mixed degrees")
            g.setflags(write=False)  # the chain is built from them
        self.degree = degree
        self.generators = gens
        self.chain = _pack_chain(_schreier_sims(gens, degree), degree)
        self._class_map = None  # built on first use by element_class_map

    @classmethod
    def from_cycles(cls, texts: Iterable[str], degree: int) -> "PermGroup":
        return cls([parse_cycles(t, degree) for t in texts], degree)

    @classmethod
    def symmetric(cls, degree: int) -> "PermGroup":
        if degree == 1:
            return cls([], degree=1)
        gens = [parse_cycles("(1 2)", degree)]
        if degree > 2:
            gens.append(np.roll(np.arange(degree, dtype=np.int32), -1))
        return cls(gens, degree)

    @classmethod
    def alternating(cls, degree: int) -> "PermGroup":
        if degree < 3:
            return cls([], degree=max(degree, 1))
        gens = [parse_cycles(f"({i} {i + 1} {i + 2})", degree) for i in range(1, degree - 1)]
        return cls(gens, degree)

    @property
    def order(self) -> int:
        return self.chain.order

    def contains_array(self, arr: np.ndarray) -> bool:
        ch = self.chain
        g = arr
        for l in range(ch.num_levels):
            p = int(g[ch.base[l]])
            k = int(ch.pos[l, p])
            if k < 0:
                return False
            g = ch.trans_inv[ch.level_off[l] + k][g]
        return bool(np.array_equal(g, np.arange(self.degree, dtype=np.int32)))

    def is_subgroup_of(self, other: "PermGroup") -> bool:
        return self.degree == other.degree and all(
            other.contains_array(g) for g in self.generators
        )

    def element_arrays(self, limit: int = ENUMERATION_LIMIT) -> Iterator[np.ndarray]:
        """All elements as image arrays, in deterministic chain order."""
        check_enumeration(self.order, limit)
        for block in self.chain.blocks(_kernels.BLOCK_ENTRIES):
            yield from block

    def random_element(self, rng) -> np.ndarray:
        """Uniform random element drawn via the chain (deterministic per rng)."""
        ch = self.chain
        position = 0
        for l in range(ch.num_levels - 1, -1, -1):  # one digit per level, slowest first
            lo, hi = int(ch.level_off[l]), int(ch.level_off[l + 1])
            position = position * (hi - lo) + rng.randrange(lo, hi) - lo
        return ch.element(position)

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, order={self.order}, ngens={len(self.generators)})"


# ---------------------------------------------------------------------------
# censuses and conjugacy classes
# ---------------------------------------------------------------------------


def class_profile(H: PermGroup, limit: int = ENUMERATION_LIMIT) -> ClassProfile:
    """Exact census of H by S_n cycle type via chain enumeration."""
    check_enumeration(H.order, limit)
    check_group_degree(H.degree)  # census rows are int16 multiplicity vectors
    n = H.degree
    rows = _kernels.census_rows(H.chain, n, H.order)
    # group equal rows by sorting them in place as opaque byte strings
    keys = rows.view(np.dtype((np.void, rows.itemsize * n))).ravel()
    keys.sort()
    first = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    sizes = np.diff(np.append(first, keys.size))
    uniq = keys[first].view(rows.dtype).reshape(-1, n)
    counts = {}
    for row, c in zip(uniq.tolist(), sizes.tolist()):
        parts = []
        for length in range(n, 0, -1):
            parts.extend([length] * row[length - 1])
        counts[tuple(parts)] = c
    return ClassProfile(n, counts)


def element_class_map(G: PermGroup, limit: int = ENUMERATION_LIMIT):
    """Conjugacy classes of an arbitrary group, with a class lookup.

    Returns (classes, class_ids): classes is a list of (representative,
    size), the representative being the first element of its class in chain
    enumeration order, so the result is deterministic; class_ids is an int64
    array holding the index in classes of each element of G, in chain order.
    The class of elements x of G (image rows) is therefore
    ``class_ids[G.chain.positions(x[:, G.chain.base])]``.  The map is built
    once per group and kept on it; callers must not modify it.  The
    enumeration bound is checked on every call.
    """
    check_enumeration(G.order, limit)
    if G._class_map is None:
        G._class_map = _build_class_map(G)
    return G._class_map


def _build_class_map(G: PermGroup):
    ch = G.chain
    # conjugation by each generator g as a map of chain positions: g^-1 x g
    # sends b to g(x(g^-1(b))), so its base images are g's images of x's
    # images of the points g^-1(base)
    maps = []
    for g in G.generators:
        maps.append(ch.positions(g[ch.images(inv_array(g)[ch.base])]).astype(np.int32))
    label = orbit_labels(maps, G.order)
    first = label == np.arange(G.order)  # each class's first element in chain order
    class_ids = (np.cumsum(first) - 1)[label]
    sizes = np.bincount(class_ids).tolist()
    reps = np.flatnonzero(first).tolist()
    classes = [(ch.element(r), size) for r, size in zip(reps, sizes)]
    return classes, class_ids


def orbit_labels(maps, size: int) -> np.ndarray:
    """The least point of the orbit of each point of range(size) under the
    group generated by `maps`, permutations of range(size) as index arrays.

    Min-label propagation: each round, every point and its image under each
    map take the smaller of their two labels, then every point takes its
    label's label (a label is a point of the same orbit, never above the
    point), until a round changes nothing.
    """
    label = np.arange(size)
    while True:
        before = label.copy()
        for m in maps:
            np.minimum(label, label[m], out=label)
            label[m] = np.minimum(label[m], label)
        label = label[label]
        if np.array_equal(label, before):
            return label


# ---------------------------------------------------------------------------
# group files
# ---------------------------------------------------------------------------


def parse_group_file(text: str) -> PermGroup:
    """Parse the group file format: 'degree n' then one generator per line.

    '#' starts a comment; blank lines are ignored.
    """
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise ParseError("empty group file")
    m = re.fullmatch(r"degree\s+(\d+)", lines[0])
    if not m:
        raise ParseError("group file must start with a 'degree n' line")
    try:
        degree = int(m.group(1))
    except ValueError:  # past the interpreter's int-conversion limit
        raise ParseError(
            f"the group file's degree has more than {sys.get_int_max_str_digits()} digits"
        ) from None
    if degree < 1:
        raise ParseError("degree must be positive")
    check_group_degree(degree)  # before any array of the degree is built
    gens = [parse_cycles(line, degree) for line in lines[1:]]
    return PermGroup(gens, degree=degree)


def read_group_file(path) -> bytes:
    """The bytes of the group file at `path`; a file that cannot be read is a
    ParseError, like a malformed one."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read group file {str(path)!r}: {exc.strerror or exc}") from None


def load_group_file(path, data: bytes | None = None) -> PermGroup:
    """Parse the group file at `path`, whose bytes are `data` when the caller
    has read them already; a file that cannot be read as UTF-8 text is a
    ParseError, like a malformed one."""
    if data is None:
        data = read_group_file(path)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"group file {str(path)!r} is not UTF-8 text: {exc.reason} at byte {exc.start}"
        ) from None
    return parse_group_file(text)
