"""In-memory span tracing around the package's public functions.

A span is recorded at every call that crosses a module boundary inside
``wiener_unicyclic``. The wrapper is installed where the *calling*
module looks the function up (``enumeration.canonical_form``,
``verification.wiener_index``, ``graphs.transmissions`` for the call
inside ``wiener_index``), so the package's own code is unchanged and
the wrappers come off again when the traced pass ends.

Each span is ``(name, start, end, parent, op, size)``: ``parent`` is
the index of the enclosing span (-1 at the root), ``op`` the operation
(one CLI invocation) it belongs to, ``size`` an optional byte count.
Self time is a span's duration minus the time its direct children
cover; the self times of all spans of a root add up to the root's
duration exactly.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import os
import types
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "verification", "enumeration", "canon", "graphs", "graph6", "families")

# Short span names for functions whose full name repeats their module.
_ALIASES = {
    "graph6_decode": "decode",
    "graph6_encode": "encode",
    "enumerate_unicyclic_bipartite": "enumerate",
}

# Helpers called millions of times per run whose spans would cost more
# than the work they measure; their time stays with the caller.
_UNTRACED = {"bits"}


class Tracer:
    """Records spans while installed; owns the list and the open-span stack."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self._patches: list[tuple[dict, str, object]] = []
        self.op = -1

    # -- recording ----------------------------------------------------------

    def _enter(self) -> tuple[int, int]:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(sid)
        return sid, parent

    def _leave(self, sid: int, name: str, t0: float, parent: int, size: int) -> None:
        t1 = perf_counter()
        self._stack.pop()
        self.spans[sid] = (name, t0, t1, parent, self.op, size)

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        sid, parent = self._enter()
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._leave(sid, name, t0, parent, 0)

    def _wrap(self, name: str, fn):
        tracer = self
        size_of = (lambda args: len(args[0])) if name == "graph6.decode" else None

        if inspect.isgeneratorfunction(fn):  # one span per next()

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    sid, parent = tracer._enter()
                    t0 = perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._leave(sid, name, t0, parent, 0)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent = tracer._enter()
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._leave(sid, name, t0, parent, size_of(args) if size_of else 0)

        return wrapper

    # -- installing ---------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every package function at each module that looks it up."""
        prefix = package.__name__ + "."
        wrappers: dict[object, object] = {}
        for layer in LAYERS:
            namespace = vars(getattr(package, layer))
            for attr, obj in list(namespace.items()):
                if (
                    not isinstance(obj, types.FunctionType)
                    or attr.startswith("_")
                    or attr in _UNTRACED
                    or not obj.__module__.startswith(prefix)
                ):
                    continue
                if obj not in wrappers:
                    home = obj.__module__[len(prefix):]
                    wrappers[obj] = self._wrap(f"{home}.{_ALIASES.get(attr, attr)}", obj)
                self._patches.append((namespace, attr, obj))
                namespace[attr] = wrappers[obj]
        # A forked worker process must run the plain functions: its spans
        # would be lost anyway, and the wrappers would only slow it down.
        os.register_at_fork(after_in_child=self.uninstall)

    def uninstall(self) -> None:
        for namespace, attr, obj in reversed(self._patches):
            namespace[attr] = obj
        self._patches.clear()

    # -- output -------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write all spans as gzip'd JSON lines: [id, name, start, end, parent, op, size]."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for sid, (name, t0, t1, parent, op, size) in enumerate(self.spans):
                fh.write(json.dumps([sid, name, t0, t1, parent, op, size]) + "\n")


def summarize(spans: list) -> dict:
    """Per-name calls, self time and bytes, plus per-layer self time.

    Also counts the enumeration's candidates (canonical forms computed
    inside an enumeration span) and classes (canonical forms decoded
    inside one). The dedup ratio only takes enumerations whose
    candidates ran in this process, not in worker processes.
    """
    self_s = [t1 - t0 for (_, t0, t1, _, _, _) in spans]
    for name, t0, t1, parent, _, _ in spans:
        if parent >= 0:
            self_s[parent] -= t1 - t0
    by_name: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "bytes": 0})
    by_layer: dict[str, float] = defaultdict(float)
    # one enumeration = the next() spans under one consumer span
    per_enumeration: dict[int, list[int]] = defaultdict(lambda: [0, 0])
    for (name, _, _, parent, _, size), own in zip(spans, self_s):
        entry = by_name[name]
        entry["calls"] += 1
        entry["self_s"] += own
        entry["bytes"] += size
        by_layer[name.split(".", 1)[0]] += own
        if parent >= 0 and spans[parent][0] == "enumeration.enumerate":
            counts = per_enumeration[spans[parent][3]]
            if name == "canon.canonical_form":
                counts[0] += 1
            elif name == "canon.graph_from_canonical":
                counts[1] += 1
    candidates = sum(c for c, _ in per_enumeration.values())
    in_process_classes = sum(k for c, k in per_enumeration.values() if c)
    return {
        "by_name": dict(by_name),
        "by_layer": dict(by_layer),
        "candidates": candidates,
        "classes": sum(k for _, k in per_enumeration.values()),
        "dedup_ratio": in_process_classes / candidates if candidates else 0.0,
    }
