"""In-process tracing of `hsplab` jobs, for the per-layer metrics.

Timing wrappers go around the public functions of each layer (module) of
`src/hsplab`.  A wrapper records a span (name, start, end, parent span, job
id) in memory and, for some functions, adds to a counter.  Per-element and
per-character functions are not wrapped, so their time shows as self time of
the enclosing span: `mn_character` alone runs about 10^6 times in an analytic
job, and a wrapper there would swamp what it measures.

A function the program no longer has is skipped and listed as dropped, so the
benchmark keeps running across refactors of the program.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "lab", "perm", "kernels", "coset", "characters", "qfs", "radical")


def _arg(args, kwargs, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


def _order(args, kwargs, result):
    return result.order


def _index(args, kwargs, result):
    return result.index


def _reps_rows(args, kwargs, result):
    return int(_arg(args, kwargs, 0, "reps").shape[0])


def _result_rows(args, kwargs, result):
    return int(result.shape[0])


def _one(args, kwargs, result):
    return 1


def _radicands(args, kwargs, result):
    return len(result.radicals)


def _partition_count(n: int) -> int:
    p = [1] + [0] * n
    for k in range(1, n + 1):
        for m in range(k, n + 1):
            p[m] += p[m - k]
    return p[n]


def _char_sum_terms(args, kwargs, result):
    """#partitions(n) x #profile types: the terms of one pass of class sums."""
    n = _arg(args, kwargs, 0, "n")
    return _partition_count(n) * len(_arg(args, kwargs, 1, "prof").counts)


# metric stem -> (module, attribute path, counters).  The stem's first part
# names the layer; the `_kernels` module is the layer `kernels`, because a
# metric name must start with a letter or a digit.  A counter is
# (metric name, fn(args, kwargs, result) -> amount), added after each call
# that returns.
TARGETS = {
    "lab.resolve_catalog": ("lab", "resolve_catalog", ()),
    "lab.support_census": ("lab", "support_census", ()),
    "lab.class_sandwich_check": ("lab", "class_sandwich_check", ()),
    "perm.chain_build": ("perm", "PermGroup.__init__", ()),
    "perm.load_group_file": ("perm", "load_group_file", ()),
    "perm.class_profile": ("perm", "class_profile", (("perm.census_elements", _order),)),
    "perm.element_class_map": ("perm", "element_class_map", (("perm.element_class_map_calls", _one),)),
    "kernels.census_rows": ("_kernels", "census_rows", (("kernels.census_rows_rows", _result_rows),)),
    "kernels.canon_batch": ("_kernels", "canon_batch", (("kernels.canon_batch_rows", _reps_rows),)),
    "kernels.fix_count": ("_kernels", "fix_count", (("kernels.fix_count_rows", _reps_rows),)),
    "coset.coset_action": ("coset", "coset_action", (("coset.cosets_built", _index),)),
    "coset.rank_subdegrees": ("coset", "rank_subdegrees", ()),
    "coset.class_fixpoint_identity_holds": ("coset", "class_fixpoint_identity_holds", ()),
    "coset.fix_in_X": ("coset", "fix_in_X", (("coset.fix_in_X_calls", _one),)),
    "coset.gassmann_test": ("coset", "gassmann_test", ()),
    "qfs.weak_distribution": ("qfs", "weak_distribution", (("qfs.char_sum_terms", _char_sum_terms),)),
    "qfs.dh_exact": ("qfs", "dh_exact", (("qfs.char_sum_terms", _char_sum_terms),)),
    "qfs.thm1_bounds": ("qfs", "thm1_bounds", ()),
    "qfs.d_between": ("qfs", "d_between", ()),
    "characters.orthogonality_check": ("characters", "orthogonality_check", ()),
    "radical.decimal": ("radical", "SqrtSum.decimal", ()),
    "radical.compare_to": ("radical", "SqrtSum.compare_to", ()),
    "radical.from_terms": ("radical", "SqrtSum.from_terms", (("radical.radicands", _radicands),)),
}

# Spans whose busy time is a per-layer metric (`<stem>_s`).  `fix_in_X` and
# `from_terms` are wrapped for their counters and for self-time attribution.
TIMED = [s for s in TARGETS if s not in ("coset.fix_in_X", "radical.from_terms")]
COUNTERS = sorted({name for _, _, cs in TARGETS.values() for name, _ in cs})


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, job id]
        self.counts = defaultdict(int)
        self.job = None
        self._stack = []
        self._patches = []  # (owner, attribute, original raw attribute)
        self.dropped = {}  # metric stem -> reason

    # -- spans -------------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.job])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn, counters):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            for metric, amount in counters:
                tracer.counts[metric] += amount(args, kwargs, result)
            return result

        return traced

    # -- installing the wrappers ---------------------------------------------

    def install(self) -> None:
        """Wrap every target, in its home module and wherever it was imported."""
        for stem, (mod_name, attr, counters) in TARGETS.items():
            module = sys.modules.get(f"hsplab.{mod_name}")
            owner, leaf = module, attr
            if module is not None and "." in attr:
                cls_name, leaf = attr.split(".")
                owner = getattr(module, cls_name, None)
            raw = owner.__dict__.get(leaf) if owner is not None else None
            if raw is None:
                self.dropped[stem] = f"hsplab.{mod_name}.{attr} does not exist"
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(stem, raw.__func__, counters))
            else:
                wrapped = self._wrap(stem, raw, counters)
            self._patch(owner, leaf, raw, wrapped)
            if isinstance(owner, type(sys)):
                # `from .perm import class_profile` copies the reference.
                for name, other in list(sys.modules.items()):
                    if name.startswith("hsplab") and other is not owner:
                        for key, value in list(vars(other).items()):
                            if value is raw:
                                self._patch(other, key, raw, wrapped)

    def _patch(self, owner, attr, raw, wrapped) -> None:
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # -- analysis ------------------------------------------------------------

    def busy(self) -> dict:
        """Time inside each span name, outermost calls only."""
        out = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                out[name] += end - start
        return out

    def self_times(self) -> dict:
        """Per layer: span durations minus the time their child spans cover."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            out[name.split(".", 1)[0]] += (end - start) - child[i]
        return out

    def span_records(self) -> list:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "job": j}
            for n, s, e, p, j in self.spans
        ]
