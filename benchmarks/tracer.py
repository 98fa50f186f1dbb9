"""Outside-in tracing of `horikawa`: spans around the calls into each layer.

`Tracer.install()` replaces each public function in `TARGETS` by a wrapper,
rebinding it in every `horikawa` module that imported it (and on the class,
for methods), so calls between modules go through the wrapper too.  Private
helpers such as `_int_det`, `_find_seed` and `_t_parameters` stay unwrapped:
their cost is self time of the public function that calls them.

A "span" target records (op, id, parent, name, start, end) in memory; a
"count" target only counts calls, for functions hot enough that a span per
call would swamp the run.  Spans are written out once, at the end.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

SPAN = "span"
COUNT = "count"


# (module, attribute, span name, kind, hook on the return value)
TARGETS = (
    ("horikawa.cli", "run", "cli.run", SPAN, None),
    ("horikawa.pipeline", "build_en_configuration", "pipeline.build_en_configuration", SPAN, None),
    ("horikawa.pipeline", "verify_en_identities", "pipeline.verify_en_identities", SPAN,
     lambda tracer, report: tracer.counts.update({"pipeline.identities": len(report.identities)})),
    ("horikawa.lattice", "BlownHirzebruch.negativity_check", "lattice.negativity_check", SPAN, None),
    ("horikawa.lattice", "BlownHirzebruch.gram", "lattice.gram", SPAN, None),
    ("horikawa.lattice", "BlownHirzebruch.pairing", "lattice.pairing", COUNT, None),
    ("horikawa.blowdown", "ContractionSet.__post_init__", "blowdown.ContractionSet", SPAN, None),
    ("horikawa.blowdown", "smoothing_invariants", "blowdown.smoothing_invariants", SPAN,
     lambda tracer, smoothed: tracer.counts.update({"blowdown.smoothed_chains": len(smoothed.contributions)})),
    ("horikawa.blowdown", "discrepancies", "blowdown.discrepancies", SPAN, None),
    ("horikawa.classt", "recognize_class_t", "classt.recognize_class_t", SPAN, None),
    ("horikawa.classt", "hj_value", "classt.hj_value", SPAN, None),
    ("horikawa.classt", "generate_class_t", "classt.generate_class_t", SPAN,
     lambda tracer, chains: tracer.counts.update({"classt.generated_chains": len(chains)})),
    ("horikawa.covers", "double_cover_invariants", "covers.double_cover_invariants", SPAN, None),
    ("horikawa.covers", "h0_hirzebruch", "covers.h0_hirzebruch", COUNT, None),
)


def seed_cache_info():
    """(hits, misses, entries) of the memoized class-T seed search, or None once it is gone."""
    found = getattr(sys.modules.get("horikawa.classt"), "_find_seed", None)
    info = getattr(found, "cache_info", None)
    if info is None:
        return None
    i = info()
    return i.hits, i.misses, i.currsize


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.op = 0
        self._stack: list[int] = []
        self.next_id = 0

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.op = 0

    def _span(self, name, fn, hook):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.next_id
            self.next_id += 1
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((self.op, sid, parent, name, start, end))
            if hook is not None:
                hook(self, result)
            return result

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every target that exists; a target a later version removed is skipped."""
        modules = [m for k, m in list(sys.modules.items()) if k == "horikawa" or k.startswith("horikawa.")]
        for module_name, attr, name, kind, hook in TARGETS:
            owner = sys.modules.get(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if original is None:
                continue
            wrapped = self._span(name, original, hook) if kind == SPAN else self._count(name, original)
            if path:
                setattr(owner, leaf, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for op, sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"op": op, "id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")


def aggregate(spans) -> dict:
    """Per span name: calls, inclusive seconds, and self seconds (minus direct children)."""
    child_time: dict = defaultdict(float)
    for op, sid, parent, name, start, end in spans:
        if parent is not None:
            child_time[(op, parent)] += end - start
    out: dict = {}
    for op, sid, parent, name, start, end in spans:
        row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += end - start - child_time[(op, sid)]
    return out
