"""Counting and timing wrappers around the public functions of each layer.

The tracer replaces every public function of the six layer modules with a
wrapper, in every ``supercatalan`` namespace that binds the same object:
``sums`` and ``dsums`` take ``binomial`` and ``super_catalan`` through
``from ... import``, so patching only the defining module would miss them.
Per function it aggregates calls, inclusive time and self time (inclusive
minus the wrapped calls made inside it). Spans are kept in memory only for
calls from ``verifier`` into ``sums``, ``dsums`` and ``supercat``, and are
written out by the caller at the end of the run.
"""

from __future__ import annotations

import inspect
import sys
import time

LAYERS = ("exactnum", "supercat", "sums", "dsums", "verifier", "cli")
SPANNED = ("sums", "dsums", "supercat")


def _length_terms(name: str, args: tuple) -> tuple[int | None, int]:
    # (length n, number of summed terms) of one sums call, from its arguments
    if len(args) < 2:
        return None, 0
    n, second = args[0], args[1]
    if name == "sums.psi":
        return n, n + 1
    return n, max(n - 2 * second + 1, 0)


class Tracer:
    def __init__(self, package) -> None:
        self.package = package
        self.originals: dict[str, object] = {}  # "layer.name" -> unwrapped callable
        self.stats: dict[str, list] = {}  # "layer.name" -> [calls, incl_s, self_s]
        self.spans: list[tuple] = []  # (span id, name, start, end, parent span id)
        self.sums_terms = 0
        self.sums_by_length: dict[int, float] = {}
        self._stack: list[list] = []  # [child_s, layer, span id]
        self._patched: list[tuple] = []  # (namespace, attribute, original)
        self._next_span = 0

    def install(self) -> None:
        by_id = {}
        for layer in LAYERS:
            module = getattr(self.package, layer)
            for attr in getattr(module, "__all__", ()):
                obj = getattr(module, attr, None)
                if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    name = f"{layer}.{attr}"
                    self.originals[name] = obj
                    by_id[id(obj)] = self._wrap(name, layer, obj)
        prefix = self.package.__name__
        for modname, module in list(sys.modules.items()):
            if modname != prefix and not modname.startswith(prefix + "."):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = by_id.get(id(obj))
                if wrapper is not None:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    def _wrap(self, name: str, layer: str, fn):
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        spanned = layer in SPANNED
        is_sums = layer == "sums"
        is_verifier = layer == "verifier"
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = None
            if is_verifier or (spanned and parent is not None and parent[1] == "verifier"):
                span = tracer._next_span
                tracer._next_span += 1
            frame = [0.0, layer, span]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                st[0] += 1
                st[1] += dt
                st[2] += dt - frame[0]
                if parent is not None:
                    parent[0] += dt
                if span is not None:
                    tracer.spans.append((span, name, t0, t1,
                                         parent[2] if parent is not None else None))
                if is_sums:
                    length, terms = _length_terms(name, args)
                    tracer.sums_terms += terms
                    if length is not None:
                        tracer.sums_by_length[length] = (
                            tracer.sums_by_length.get(length, 0.0) + dt)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def self_time(self, layer: str) -> float:
        return sum(st[2] for name, st in self.stats.items()
                   if name.split(".", 1)[0] == layer)
