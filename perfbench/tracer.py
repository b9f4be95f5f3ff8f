"""Layer spans recorded from outside the program.

A Tracer wraps every function and method defined in the named modules of a
package, and rebinds every module attribute of the package that refers to
one of them (modules import names directly, so patching the defining
module alone is not enough). A call from one module into another becomes a
span; a call that stays inside one module runs unwrapped, except for the
functions named in `inner`, which accumulate their inclusive time without
becoming spans. Spans are kept in memory as tuples

    (span_id, parent_id, layer, function, start, end)

and a layer's self time is its spans' time minus the time of their child
spans. The span stack is not thread-safe: trace single-threaded runs only.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self, package: str, layers, inner=(), capture=()):
        self.package = package
        self.layers = tuple(layers)
        self.inner = frozenset(inner)      # "layer.function" keys timed even when called from inside
        self.capture = frozenset(capture)  # "layer.function" keys whose (args, kwargs, result) are kept
        self.spans: list = []
        self.timers: dict[str, float] = defaultdict(float)
        self.captured: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []
        self._undo: list = []

    # ------------------------------------------------------------------
    # patching

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, object] = {}
        for layer in self.layers:
            modname = f"{self.package}.{layer}"
            module = sys.modules[modname]
            for name, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != modname:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = self._wrap(obj, modname, layer, name)
                elif inspect.isclass(obj):
                    self._patch_class(obj, modname, layer)
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == self.package or modname.startswith(self.package + ".")):
                continue
            for name, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._undo.append((module, name, obj))
                    setattr(module, name, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            target, name, original = self._undo.pop()
            setattr(target, name, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _patch_class(self, cls, modname: str, layer: str) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("__") and name not in ("__init__", "__post_init__", "__call__"):
                continue
            qual = f"{cls.__name__}.{name}"
            if inspect.isfunction(attr):
                new = self._wrap(attr, modname, layer, qual)
            elif isinstance(attr, property) and attr.fget is not None:
                new = property(self._wrap(attr.fget, modname, layer, qual), attr.fset, attr.fdel, attr.__doc__)
            elif isinstance(attr, staticmethod):
                new = staticmethod(self._wrap(attr.__func__, modname, layer, qual))
            else:
                continue
            self._undo.append((cls, name, attr))
            setattr(cls, name, new)

    def _wrap(self, fn, modname: str, layer: str, name: str):
        key = f"{layer}.{name}"
        inner = key in self.inner
        captured = self.captured[key] if key in self.capture else None
        spans, stack, timers = self.spans, self._stack, self.timers
        clock, frame = time.perf_counter, sys._getframe

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if frame(1).f_globals.get("__name__") == modname:
                if not inner:
                    return fn(*args, **kwargs)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    timers[key] += clock() - start
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, parent, layer, name, start, end)
                if inner:
                    timers[key] += end - start
            if captured is not None:
                captured.append((args, kwargs, result))
            return result

        return wrapper

    # ------------------------------------------------------------------
    # accounting

    def self_times(self) -> dict[tuple[str, str], float]:
        """Self time per (layer, function): span time minus child span time."""
        child_time = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[tuple[str, str], float] = defaultdict(float)
        for sid, _, layer, name, start, end in self.spans:
            out[(layer, name)] += (end - start) - child_time[sid]
        return out

    def layer_self_times(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in self.layers}
        for (layer, _), seconds in self.self_times().items():
            out[layer] += seconds
        return out

    def layer_calls(self) -> dict[str, int]:
        out = {layer: 0 for layer in self.layers}
        for span in self.spans:
            out[span[2]] += 1
        return out
