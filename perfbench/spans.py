"""In-memory span recorder that times the program's layers from outside.

The recorder wraps public functions of the ``repro`` package — methods at
class level (several hot-path classes use ``__slots__``, so per-instance
patching is impossible, the same reason ``repro.obs.profiler`` patches
classes) and module-level functions in every ``repro`` module that holds a
reference to them — and always restores the originals, including on
error.

Every wrapped call is one span.  Spans of *boundary* layers (a point's
setup and run, a store write, a sweep plan, ...) are kept in memory as
``(name, start, end, parent)`` tuples and written out when the run ends.
Hot-path layers (the scheduler, the core model, chip commands, ...) are
called millions of times per run; keeping each of those spans would cost
hundreds of MB, so they are folded into per-name aggregates at the moment
they end.  Both kinds feed the same aggregates: calls, total time, self
time (a span's duration minus the time its child spans cover) and the
number of calls that returned a truthy value.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from pathlib import Path


class SpanRecorder:
    """Class-level and module-level wrapping with exclusive-time attribution."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        #: Per name id: calls, total seconds, self seconds, truthy returns.
        self.calls: list[int] = []
        self.total_s: list[float] = []
        self.self_s: list[float] = []
        self.truthy: list[int] = []
        #: Kept spans: (name id, start, end, parent span index or -1).
        self.spans: list = []
        #: Open frames: [child seconds, index of the nearest kept span].
        self._stack: list[list] = []
        #: (owner, attribute, original) for restoration, in patch order.
        self._patched: list[tuple] = []

    # ------------------------------------------------------------------
    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total_s.append(0.0)
            self.self_s.append(0.0)
            self.truthy.append(0)
        return nid

    def _wrap(self, name: str, func, keep: bool, truthy_counted: bool = False):
        nid = self._id(name)
        perf = time.perf_counter
        stack = self._stack
        spans = self.spans
        calls, total_s, self_s, truthy = self.calls, self.total_s, self.self_s, self.truthy

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            if keep:
                index = len(spans)
                spans.append(None)  # reserved so parents precede children
                frame = [0.0, index]
            else:
                frame = [0.0, parent]
            stack.append(frame)
            start = perf()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                elapsed = end - start
                calls[nid] += 1
                total_s[nid] += elapsed
                self_s[nid] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if keep:
                    spans[index] = (nid, start, end, parent)
            if truthy_counted and result:
                truthy[nid] += 1
            return result

        wrapper.__name__ = getattr(func, "__name__", name)
        wrapper.__span_name__ = name
        return wrapper

    def _wrap_generator(self, name: str, func, keep: bool):
        """Time each ``next()`` on the generator ``func`` returns."""
        timed_next = self._wrap(name, next, keep)

        def wrapper(*args, **kwargs):
            gen = func(*args, **kwargs)
            while True:
                try:
                    item = timed_next(gen)
                except StopIteration:
                    return
                yield item

        wrapper.__name__ = getattr(func, "__name__", name)
        wrapper.__span_name__ = name
        return wrapper

    def _make(self, name: str, func, keep: bool, truthy: bool):
        if inspect.isgeneratorfunction(func):
            return self._wrap_generator(name, func, keep)
        return self._wrap(name, func, keep, truthy)

    # ------------------------------------------------------------------
    def wrap_method(self, cls, attr: str, name: str, keep: bool = False,
                    truthy: bool = False) -> None:
        """Wrap ``cls.attr`` if ``cls`` itself defines it as a function.

        A method that is already wrapped keeps its first name.  ``truthy``
        also counts the calls that returned a truthy value.
        """
        func = cls.__dict__.get(attr)
        if not inspect.isfunction(func) or hasattr(func, "__span_name__"):
            return
        self._patched.append((cls, attr, func))
        setattr(cls, attr, self._make(name, func, keep, truthy))

    def wrap_public_methods(self, cls, name: str, keep: bool = False,
                            prefix: str | None = None) -> None:
        """Wrap every public function ``cls`` defines (optionally by prefix)."""
        for attr, value in list(cls.__dict__.items()):
            if attr.startswith("_") or not inspect.isfunction(value):
                continue
            if prefix is not None and not attr.startswith(prefix):
                continue
            self.wrap_method(cls, attr, name, keep)

    def wrap_function(self, module: str, attr: str, name: str, keep: bool = False) -> None:
        """Wrap a module-level function everywhere ``repro`` refers to it.

        Modules that did ``from x import f`` hold their own reference, so
        every loaded ``repro`` module attribute bound to the original is
        replaced (and restored later).
        """
        func = getattr(sys.modules[module], attr)
        wrapped = self._make(name, func, keep, False)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is func:
                    self._patched.append((mod, key, func))
                    setattr(mod, key, wrapped)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "SpanRecorder":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # ------------------------------------------------------------------
    def count(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.calls[nid]

    def total(self, name: str) -> float:
        nid = self._ids.get(name)
        return 0.0 if nid is None else self.total_s[nid]

    def self_time(self, name: str) -> float:
        nid = self._ids.get(name)
        return 0.0 if nid is None else self.self_s[nid]

    def truthy_count(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.truthy[nid]

    def durations(self, name: str) -> list[float]:
        """Durations of every kept span called ``name``."""
        nid = self._ids.get(name)
        return [span[2] - span[1] for span in self.spans if span and span[0] == nid]

    def aggregates(self) -> dict:
        return {
            name: {
                "calls": self.calls[i],
                "total_s": self.total_s[i],
                "self_s": self.self_s[i],
                "truthy": self.truthy[i],
            }
            for i, name in enumerate(self.names)
        }

    def write(self, path: Path) -> None:
        """Write kept spans (times relative to the first) and aggregates."""
        kept = [span for span in self.spans if span is not None]
        origin = min((span[1] for span in kept), default=0.0)
        payload = {
            "spans_fields": ["name", "start_s", "end_s", "parent"],
            "spans": [
                [self.names[n], round(start - origin, 9), round(end - origin, 9), parent]
                for (n, start, end, parent) in kept
            ],
            "aggregates": self.aggregates(),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, separators=(",", ":")) + "\n")
