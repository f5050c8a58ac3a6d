"""Span tracing of s5wd's layers, from outside the package.

Tracer.install() replaces each traced function with a wrapper at every s5wd
module namespace that bound it (and in module-level tables of functions,
such as decide's class predicates), and wraps Frame, Model and
GlobalStateSystem through __post_init__; uninstall() puts the originals back.
Each call records a span: name, start, end, parent span and job id.  A span's
self time is its duration minus the time its child spans cover; spans nest
strictly because the program runs in one thread.  A generator's span covers
each resumption separately.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

# (span name, module, attribute); names sharing a span are one layer metric
FUNCTIONS = [
    ("cli.main", "s5wd.cli", "main"),
    ("formula.parse", "s5wd.formula", "parse"),
    ("formula.subformulas", "s5wd.formula", "subformulas"),
    ("formula.has_node", "s5wd.formula", "has_node"),
    ("kripke.extension", "s5wd.kripke", "extension"),
    ("kripke.find_frame_countermodel", "s5wd.kripke", "find_frame_countermodel"),
    ("kripke.find_isomorphism", "s5wd.kripke", "find_isomorphism"),
    ("kripke.connected_components", "s5wd.kripke", "connected_components"),
    ("kripke.check_equivalence", "s5wd.kripke", "check_equivalence"),
    ("kripke.check_d", "s5wd.kripke", "check_d"),
    ("kripke.check_wd", "s5wd.kripke", "check_wd"),
    ("kripke.check_i", "s5wd.kripke", "check_i"),
    ("kripke.json", "s5wd.kripke", "frame_to_json"),
    ("kripke.json", "s5wd.kripke", "frame_from_json"),
    ("kripke.json", "s5wd.kripke", "model_to_json"),
    ("kripke.json", "s5wd.kripke", "model_from_json"),
    ("kripke.json", "s5wd.kripke", "world_map_to_json"),
    ("kripke.json", "s5wd.kripke", "world_map_from_json"),
    ("decide.enumerate_frames", "s5wd.decide", "enumerate_frames"),
    ("decide.frame_in_class", "s5wd.decide", "frame_in_class"),
    ("decide.decide_satisfiability", "s5wd.decide", "decide_satisfiability"),
    ("broadcast.build_card_game", "s5wd.broadcast", "build_card_game"),
    ("broadcast.generate_frame", "s5wd.broadcast", "generate_frame"),
    ("broadcast.verify_hypercube_decomposition", "s5wd.broadcast",
     "verify_hypercube_decomposition"),
    ("systems.system_from_states", "s5wd.systems", "system_from_states"),
    ("systems.f_map", "s5wd.systems", "f_map"),
    ("systems.is_full", "s5wd.systems", "is_full"),
    ("systems.frame_to_full_system", "s5wd.systems", "frame_to_full_system"),
    ("systems.frame_to_hypercube", "s5wd.systems", "frame_to_hypercube"),
    ("unpack.unpack_to_edi", "s5wd.unpack", "unpack_to_edi"),
    ("unpack.cluster_decomposition", "s5wd.unpack", "cluster_decomposition"),
    ("filtration.filtrate", "s5wd.filtration", "filtrate"),
    ("filtration.check_suitable", "s5wd.filtration", "check_suitable"),
]
GENERATORS = {"decide.enumerate_frames"}
CLASSES = [
    ("kripke.Frame", "s5wd.kripke", "Frame"),
    ("kripke.Model", "s5wd.kripke", "Model"),
    ("systems.GlobalStateSystem", "s5wd.systems", "GlobalStateSystem"),
]
FOUND = {"kripke.find_frame_countermodel", "kripke.find_isomorphism"}
ENUM = "decide.enumerate_frames"


class Tracer:
    """Records spans while installed; one instance per traced pass."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.job = -1
        self._stack: list = []  # [span index, time covered by children]
        self._undo: list = []
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.found: Counter = Counter()
        self.counts: Counter = Counter()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _begin(self, nid: int) -> None:
        stack = self._stack
        parent = stack[-1][0] if stack else -1
        self.span_name.append(nid)
        self.span_parent.append(parent)
        self.span_job.append(self.job)
        self.span_end.append(0.0)
        stack.append([len(self.span_start), 0.0])
        self.span_start.append(time.perf_counter())

    def _end(self) -> None:
        t = time.perf_counter()
        idx, covered = self._stack.pop()
        self.span_end[idx] = t
        duration = t - self.span_start[idx]
        self.self_s[self.names[self.span_name[idx]]] += duration - covered
        if self._stack:
            self._stack[-1][1] += duration

    def parent_name(self) -> str:
        """Name of the innermost open span, or ''."""
        return self.names[self.span_name[self._stack[-1][0]]] if self._stack else ""

    def _wrap_function(self, name: str, fn):
        nid = self._id(name)
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            if name == "kripke.find_isomorphism" and tracer.parent_name() == ENUM:
                tracer.counts["decide.iso_calls"] += 1
            tracer._begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._end()
            if name in FOUND and result is not None:
                tracer.found[name] += 1
            elif name == "broadcast.generate_frame":
                tracer.counts["broadcast.traces"] += len(result.worlds)
            elif name == "broadcast.verify_hypercube_decomposition":
                tracer.counts["broadcast.components"] += len(result.components)
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn):
        nid = self._id(name)
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            inner = fn(*args, **kwargs)

            def resume():
                while True:
                    tracer._begin(nid)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._end()
                    tracer.counts["decide.frames_yielded"] += 1
                    yield item

            return resume()

        return wrapper

    def _wrap_init(self, name: str, fn):
        nid = self._id(name)
        tracer = self

        def __post_init__(obj):
            tracer.calls[name] += 1
            if name == "kripke.Frame" and tracer.parent_name() == ENUM:
                # enumerate_frames builds one Frame per partition tuple
                tracer.counts["decide.tuples_scanned"] += 1
            tracer._begin(nid)
            try:
                fn(obj)
            finally:
                tracer._end()

        return __post_init__

    def install(self) -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if (key == "s5wd" or key.startswith("s5wd.")) and m is not None]
        for name, module, attr in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            make = self._wrap_generator if name in GENERATORS else self._wrap_function
            wrapper = make(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._undo.append((setattr, mod, key, original))
                    elif isinstance(value, dict):
                        self._patch_table(value, original, wrapper)
        for name, module, attr in CLASSES:
            cls = getattr(sys.modules[module], attr)
            original = cls.__post_init__
            cls.__post_init__ = self._wrap_init(name, original)
            self._undo.append((setattr, cls, "__post_init__", original))

    def _patch_table(self, table: dict, original, wrapper) -> None:
        for key, value in list(table.items()):
            if isinstance(value, tuple) and any(v is original for v in value):
                table[key] = tuple(wrapper if v is original else v for v in value)
                self._undo.append((table.__setitem__, key, value))

    def uninstall(self) -> None:
        while self._undo:
            action, *args = self._undo.pop()
            action(*args)

    def write(self, path: str) -> None:
        """All recorded spans as tab-separated name, start, end, parent, job."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name\tstart\tend\tparent\tjob\n")
            for k in range(len(self.span_start)):
                handle.write(
                    f"{self.names[self.span_name[k]]}\t{self.span_start[k]:.9f}\t"
                    f"{self.span_end[k]:.9f}\t{self.span_parent[k]}\t{self.span_job[k]}\n"
                )

    def self_by_job(self) -> dict:
        """Self time per span name for each job id."""
        out: dict = {}
        for k in range(len(self.span_start)):
            job = self.span_job[k]
            duration = self.span_end[k] - self.span_start[k]
            totals = out.setdefault(job, Counter())
            totals[self.names[self.span_name[k]]] += duration
            parent = self.span_parent[k]
            if parent >= 0:
                totals[self.names[self.span_name[parent]]] -= duration
        return out


def layer_metrics(t: Tracer) -> dict:
    """Per-layer metrics of one traced pass, as name -> (value, unit)."""
    out = {}
    for name in ("cli.main", "formula.parse", "formula.subformulas", "kripke.Frame",
                 "kripke.Model", "kripke.extension", "kripke.find_frame_countermodel",
                 "kripke.find_isomorphism", "kripke.connected_components",
                 "decide.decide_satisfiability"):
        out[f"{name}.calls"] = (t.calls[name], "count")
    for name in sorted({n for n, _, _ in FUNCTIONS} | {n for n, _, _ in CLASSES}):
        if name not in ("cli.main", "formula.parse", "decide.decide_satisfiability"):
            out[f"{name}.self_s"] = (t.self_s[name], "s")
    out["cli.self_s"] = (t.self_s["cli.main"], "s")
    for name in FOUND:
        out[f"{name}.found_ratio"] = (_ratio(t.found[name], t.calls[name]), "ratio")
    scanned = t.counts["decide.tuples_scanned"]
    yielded = t.counts["decide.frames_yielded"]
    out["decide.tuples_scanned"] = (scanned, "count")
    out["decide.frames_yielded"] = (yielded, "count")
    out["decide.yield_ratio"] = (_ratio(yielded, scanned), "ratio")
    out["decide.iso_calls_per_yield"] = (_ratio(t.counts["decide.iso_calls"], yielded), "ratio")
    out["broadcast.traces"] = (t.counts["broadcast.traces"], "count")
    out["broadcast.components"] = (t.counts["broadcast.components"], "count")
    return out


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0
