"""Span tracing of ptslab's public functions, installed from outside the package.

`install()` replaces each listed function at every module binding inside
the ptslab package (so `canonical_key` is traced whether it is called as
`argument.canonical_key` or through the name `justification` and
`validity` imported), and `ConstantMap.lookup` on its class. Each call
records one span: name, start, end and parent. Spans are kept in
memory as fixed-width arrays and written out by `Tracer.dump`.

Self time is computed as spans close: a span's duration minus the
durations of its direct children. Calls are single-threaded, so the
children of one span never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

# (module, qualified name, counters taken from the result)
TARGETS = (
    ("formula", "parse_formula", ()),
    ("formula", "render_formula", ()),
    ("atomic_base", "enumerate_bases", ("bases",)),
    ("atomic_base", "atomic_closure", ()),
    ("atomic_base", "atomic_derivation", ()),
    ("base_semantics", "models", ()),
    ("base_semantics", "logical_consequence", ()),
    ("argument", "analyze", ()),
    ("argument", "canonical_key", ()),
    ("argument", "cut_subtree", ()),
    ("argument", "substitute", ()),
    ("argument", "instantiate", ()),
    ("argument", "parse_structure", ()),
    ("justification", "ConstantMap.lookup", ("hits",)),
    ("justification", "apply_justification", ("hits",)),
    ("justification", "step_candidates", ("reducts",)),
    ("justification", "reach", ("reached", "bound_hits")),
    ("justification", "parse_rules", ()),
    ("validity", "valid", ()),
    ("validity", "recheck_invalid", ()),
    ("validity", "synthesize_closed", ()),
    ("validity", "consequence", ()),
    ("cli", "search_counterexample", ()),
)

VARIANTS = ("delta", "delta-star", "delta-sh", "delta-s")


def span_names() -> list[str]:
    """Every span name a traced run can record, in a fixed order."""
    names = []
    for module, qual, _ in TARGETS:
        names.append(f"{module}.{qual}")
        if qual == "consequence":
            names.extend(f"{module}.{qual}.{v}" for v in VARIANTS)
    return names


def _tally(kind: str, result) -> int:
    if kind == "hits":
        return result is not None
    if kind == "reducts":
        return len(result)
    if kind == "reached":
        return len(result[0])
    if kind == "bound_hits":
        return int(result[1])
    raise ValueError(kind)


class Tracer:
    """Records spans and per-name calls, self time and result counters."""

    def __init__(self):
        self.names = ["op"] + span_names()
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.calls = [0] * len(self.names)
        self.self_ns = [0] * len(self.names)
        self.counters: dict[str, int] = {}
        # open spans: [index, id, start, time covered by children]
        self._stack: list[list[int]] = []

    def open(self, name_id: int) -> list[int]:
        parent = self._stack[-1][0] if self._stack else -1
        i = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(parent)
        self.span_start.append(0)
        self.span_end.append(0)
        frame = [i, name_id, 0, 0]
        self._stack.append(frame)
        frame[2] = time.perf_counter_ns()
        return frame

    def close(self, frame: list[int]) -> None:
        end = time.perf_counter_ns()
        i, name_id, start, covered = frame
        self._stack.pop()
        self.span_start[i] = start
        self.span_end[i] = end
        dur = end - start
        self.calls[name_id] += 1
        self.self_ns[name_id] += dur - covered
        if self._stack:
            self._stack[-1][3] += dur

    def name_id(self, name: str) -> int:
        return self._ids[name]

    def wrap(self, fn, name: str, kinds: tuple[str, ...]):
        tracer = self
        if name == "validity.consequence":
            ids = {v: self._ids[f"{name}.{v}"] for v in VARIANTS}
            base_id = self._ids[name]

            @functools.wraps(fn)
            def traced_consequence(variant, *args, **kwargs):
                frame = tracer.open(ids.get(variant, base_id))
                try:
                    return fn(variant, *args, **kwargs)
                finally:
                    tracer.close(frame)

            return traced_consequence

        name_id = self._ids[name]
        if name == "atomic_base.enumerate_bases":
            key = f"{name}.bases"

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                # a span per resumption, so consumer time is not self time
                frame = tracer.open(name_id)
                try:
                    it = fn(*args, **kwargs)
                finally:
                    tracer.close(frame)
                while True:
                    frame = tracer.open(name_id)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(frame)
                        tracer.calls[name_id] -= 1
                    tracer.counters[key] = tracer.counters.get(key, 0) + 1
                    yield item

            return traced_generator

        keys = tuple((kind, f"{name}.{kind}") for kind in kinds)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(frame)
            for kind, key in keys:
                tracer.counters[key] = tracer.counters.get(key, 0) + _tally(kind, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target at every binding inside the ptslab package."""
        import ptslab  # noqa: F401  (loads every module that binds a target)

        modules = [m for n, m in list(sys.modules.items()) if n == "ptslab" or n.startswith("ptslab.")]
        for module_name, qual, kinds in TARGETS:
            home = sys.modules[f"ptslab.{module_name}"]
            name = f"{module_name}.{qual}"
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(home, cls_name)
                setattr(cls, meth, self.wrap(getattr(cls, meth), name, kinds))
                continue
            original = getattr(home, qual)
            wrapper = self.wrap(original, name, kinds)
            bound = 0
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        bound += 1
            if not bound:
                raise RuntimeError(f"{name} is not bound anywhere in ptslab")

    def summary(self) -> dict:
        """Calls, self seconds and counters per span name."""
        out: dict[str, float | int] = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[i]
            out[f"{name}.self_s"] = self.self_ns[i] / 1e9
        for suffix in ("calls", "self_s"):
            out[f"validity.consequence.{suffix}"] += sum(
                out[f"validity.consequence.{v}.{suffix}"] for v in VARIANTS
            )
        out.update(self.counters)
        return out

    def dump(self, path) -> None:
        """Write the spans: a JSON header line, then the four arrays."""
        with open(path, "wb") as fh:
            header = {
                "names": self.names,
                "spans": len(self.span_name),
                "layout": "arrays in order: name (int32), parent (int32), start_ns (int64), end_ns (int64)",
            }
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)
