"""Shared test helpers: brute-force subgroup lattices and random subgroups.

Subgroup enumeration is deliberately not a library feature; tests build the
lattice themselves from the multiplication table (join-closure over cyclic
subgroups), which doubles as an independent oracle for chain-based orders.
"""

from __future__ import annotations

import functools
import inspect
import os
import random
from collections import deque
from pathlib import Path

import numpy as np
import pytest

from hsplab import characters
from hsplab.perm import PermGroup, inv_array

# pytest puts src/ on sys.path (pyproject's `pythonpath`); the tests' child
# processes inherit the environment, so they find the same hsplab through it
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")))
)

#: Two engine mutations the class-sum certificate must catch, as (function,
#: fragment, replacement): the sign of a 2-strip dropped, and an h_a edge
#: weighted (a-1)! instead of a!.
SIGN_MUTATION = (
    "_engine",
    "if (mask & (low - 1) & -(low >> (k - 1))).bit_count() & 1:",
    "if k > 2 and (mask & (low - 1) & -(low >> (k - 1))).bit_count() & 1:",
)
WEIGHT_MUTATION = ("_type_dag", "math.factorial(factor)", "math.factorial(factor - 1)")


_HONEST_ENGINE = characters._engine


def transposed_engine(n: int, factors: tuple) -> tuple:
    """characters._engine with its vector mapped through lam -> lam'.  As
    d_lam' = d_lam, column orthogonality cannot tell it from the honest one;
    where the group has odd elements, v((n)) = sum_t c_t can."""
    value = dict(zip(characters.partitions(n), _HONEST_ENGINE(n, factors)))
    return tuple(
        value[tuple(sum(part > i for part in lam) for i in range(lam[0]))]  # lam'
        for lam in characters.partitions(n)
    )


def engine_mutant(name: str, old: str, new: str):
    """A copy of characters.<name> with one source fragment replaced."""
    src = inspect.getsource(getattr(characters, name))
    assert src.count(old) == 1, f"{name} no longer contains {old!r}"
    namespace = dict(vars(characters))
    exec(compile(src.replace(old, new), characters.__file__, "exec"), namespace)
    return namespace[name]


class GroupTable:
    """A small group as an explicit multiplication table over element ids."""

    def __init__(self, G: PermGroup):
        self.group = G
        self.elements = list(G.element_arrays())
        self.n = len(self.elements)
        index = {a.tobytes(): i for i, a in enumerate(self.elements)}
        self.identity = index[np.arange(G.degree, dtype=np.int32).tobytes()]
        mult = np.empty((self.n, self.n), dtype=np.int32)
        for i, a in enumerate(self.elements):
            for j, b in enumerate(self.elements):
                mult[i, j] = index[b[a].tobytes()]
        self.mult = mult

    def close(self, gen_ids) -> np.ndarray:
        """Boolean membership mask of the subgroup generated by gen_ids."""
        mask = np.zeros(self.n, dtype=bool)
        mask[self.identity] = True
        gen_ids = sorted(set(gen_ids))
        if not gen_ids:
            return mask
        cols = np.array(gen_ids, dtype=np.int64)
        mask[cols] = True
        frontier = np.flatnonzero(mask)
        while frontier.size:
            prod = self.mult[np.ix_(frontier, cols)].ravel()
            prod = np.unique(prod[~mask[prod]])
            mask[prod] = True
            frontier = prod
        return mask

    def _conjugation_maps(self) -> np.ndarray:
        """maps[c][i] = id of c^-1 * e_i * c."""
        inv = np.argmax(self.mult == self.identity, axis=1)
        maps = np.empty((self.n, self.n), dtype=np.int64)
        for c in range(self.n):
            maps[c] = self.mult[self.mult[inv[c], :], c]
        return maps

    def all_subgroup_masks(self) -> list:
        """Every subgroup, as a membership mask.

        Join-closure BFS over conjugacy-class representatives: each newly
        found subgroup is expanded to its full conjugacy orbit, and only the
        representative is joined with the cyclic subgroups.  (If K = <J, c>
        with R = J^g already queued, then <R, c^g> = K^g is found and the
        orbit expansion recovers K.)
        """
        cmaps = self._conjugation_maps()
        cyclics = {}
        for i in range(self.n):
            mask = self.close([i])
            cyclics.setdefault(mask.tobytes(), (mask, i))

        subs: dict[bytes, np.ndarray] = {}
        queue = []

        def add_with_orbit(mask: np.ndarray, gens: tuple) -> None:
            if mask.tobytes() in subs:
                return
            queue.append((mask, gens))
            ids = np.flatnonzero(mask)
            for c in range(self.n):
                conj = np.zeros(self.n, dtype=bool)
                conj[cmaps[c, ids]] = True
                subs.setdefault(conj.tobytes(), conj)

        add_with_orbit(self.close([]), ())
        for _, (mask, i) in cyclics.items():
            add_with_orbit(mask, (i,))
        while queue:
            mask, gens = queue.pop()
            for _, (cmask, ci) in cyclics.items():
                if mask[ci]:
                    continue
                joined = self.close(list(gens) + [ci])
                if joined.tobytes() not in subs:
                    add_with_orbit(joined, tuple(gens) + (ci,))
        return list(subs.values())

    def subgroup_from_mask(self, mask: np.ndarray) -> PermGroup:
        """A PermGroup from a membership mask, via a small generating set."""
        gens: list[int] = []
        cur = self.close([])
        for i in np.flatnonzero(mask):
            if not cur[i]:
                gens.append(int(i))
                cur = self.close(gens)
        return PermGroup([self.elements[i].copy() for i in gens], degree=self.group.degree)

    def mask_elements(self, mask: np.ndarray):
        return [self.elements[i] for i in np.flatnonzero(mask)]


def bfs_class_map(G: PermGroup):
    """Oracle for `perm.element_class_map`: (classes, class_id), classes as
    (representative, size) and class_id mapping each element's image-array
    bytes to its class.  Walks the elements in chain order, each built by the
    digit walk of `PackedChain.element`; the first one in no class yet starts
    a new class, filled by BFS under conjugation by the generators."""
    gen_pairs = [(g, inv_array(g)) for g in G.generators]
    assigned: dict[bytes, int] = {}
    classes = []
    for e in map(G.chain.element, range(G.order)):
        key = e.tobytes()
        if key in assigned:
            continue
        cid = len(classes)
        assigned[key] = cid
        size = 1
        queue = deque([e])
        while queue:
            x = queue.popleft()
            for g, ginv in gen_pairs:
                y = g[x[ginv]]
                ykey = y.tobytes()
                if ykey not in assigned:
                    assigned[ykey] = cid
                    size += 1
                    queue.append(y)
        classes.append((e, size))
    return classes, assigned


def cycle_type_of_array(arr: np.ndarray) -> tuple:
    """The cycle type of the permutation whose 0-based image array is `arr`,
    parts in descending order."""
    img = arr.tolist()
    seen = [False] * len(img)
    parts = []
    for i in range(len(img)):
        if not seen[i]:
            length = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = img[j]
                length += 1
            parts.append(length)
    parts.sort(reverse=True)
    return tuple(parts)


def block_bounds(G: PermGroup) -> dict:
    """Block bounds (matrix entries) for `PackedChain.blocks` on G: one entry
    (a block per element), the fastest level alone, and the whole group."""
    sizes = G.chain.level_sizes()
    return {
        "one entry": 1,
        "one level": G.degree * (sizes[0] if sizes else 1),
        "unbounded": G.degree * G.order,
    }


def random_subgroup(rng: random.Random, G: PermGroup, max_gens: int = 3) -> PermGroup:
    k = rng.randint(1, max_gens)
    return PermGroup([G.random_element(rng) for _ in range(k)], G.degree)


@pytest.fixture(scope="session")
def s4_table() -> GroupTable:
    return GroupTable(PermGroup.symmetric(4))


@pytest.fixture(scope="session")
def s4_subgroups(s4_table) -> list:
    return [s4_table.subgroup_from_mask(m) for m in s4_table.all_subgroup_masks()]


_SMALL_PARENTS = {
    "S5": lambda: PermGroup.symmetric(5),
    "S6": lambda: PermGroup.symmetric(6),
    "A6": lambda: PermGroup.alternating(6),
}


@functools.cache
def every_subgroup(parent: str) -> tuple:
    """(G, every subgroup of G) for G named "S5", "S6" or "A6", built once
    per test session."""
    table = GroupTable(_SMALL_PARENTS[parent]())
    return table.group, [table.subgroup_from_mask(m) for m in table.all_subgroup_masks()]


@pytest.fixture(scope="session")
def s5_subgroups() -> list:
    return every_subgroup("S5")[1]
