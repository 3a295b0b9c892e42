"""Run one cdvwall command in this process with every layer traced.

    python bench/shim.py TRACE.json <cdvwall arguments...>

The shim imports the package, replaces the public functions, methods and
properties of each ``cdvwall`` module with timing wrappers, runs the CLI,
and writes per-function call counts, self time and inclusive time to
TRACE.json.  Self time is a span's duration minus the time of the spans it
caused.  A command makes millions of calls, so spans are folded into
per-function totals as they close rather than kept one by one.  Leaf vector
helpers are left unwrapped and count in their caller's self time; calls to
``json.dumps`` are a span of their own, outside every layer.  Nothing in
``src/`` is changed; the benchmark's untraced runs never load this file.
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
import json
import sys
import time

LAYERS = ("linalg", "dynkin", "weyl", "restriction", "arrangement", "groupoid",
          "bps", "oracle", "dihedral", "exports", "cli")
LEAVES = {"dot", "vec_add", "vec_sub", "vec_neg", "vec_scale", "vec_gcd", "mat_vec",
          "is_colinear", "primitive", "integer_multiple_of"}


class Tracer:
    def __init__(self):
        self.functions: dict[str, list] = {}   # name -> [calls, self_s, inclusive_s]
        self.stack = [0.0]                      # child time of each open span
        self.gc_s = 0.0
        self.gc_collections = 0
        self._gc_start = 0.0
        self.restricted_kept = 0
        self.crossed_to: set = set()

    def wrap(self, fn, name: str):
        stat = self.functions.setdefault(name, [0, 0.0, 0.0])
        stack, clock = self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = clock() - start
                child = stack.pop()
                stack[-1] += spent
                stat[0] += 1
                stat[1] += spent - child
                stat[2] += spent
        return traced

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_start
            self.gc_collections += 1

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__mul__":
                continue
            name = f"{layer}:{cls.__name__}.{attr}"
            if isinstance(value, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(value.__func__, name)))
            elif isinstance(value, property) and value.fget is not None:
                setattr(cls, attr, property(self.wrap(value.fget, name), value.fset,
                                            value.fdel, value.__doc__))
            elif inspect.isfunction(value):
                setattr(cls, attr, self.wrap(value, name))

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"cdvwall.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    if not issubclass(obj, BaseException):
                        self._wrap_class(layer, obj)
                elif callable(obj) and not (layer == "linalg" and name in LEAVES):
                    wrapped[id(obj)] = self.wrap(obj, f"{layer}:{name}")
        self._observe(modules, wrapped)
        # rebind every reference: module globals, names imported from other
        # modules, and module-level dispatch tables such as cli.HANDLERS
        for module in modules.values():
            for name, obj in list(vars(module).items()):
                if id(obj) in wrapped:
                    setattr(module, name, wrapped[id(obj)])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if callable(value) and id(value) in wrapped:
                            obj[key] = wrapped[id(value)]
        json.dumps = self.wrap(json.dumps, "json:dumps")
        gc.callbacks.append(self._on_gc)

    def _observe(self, modules: dict, wrapped: dict) -> None:
        """Count what two functions return, around their timing wrappers."""
        rr = modules["restriction"].restricted_roots
        timed_rr = wrapped[id(rr)]

        def restricted_roots(*args, **kwargs):
            result = timed_rr(*args, **kwargs)
            if result.window is not None:   # affine: a window of roots was expanded
                self.restricted_kept += len(result.elements)
            return result

        cw = modules["arrangement"].cross_wall
        timed_cw = wrapped[id(cw)]

        def cross_wall(*args, **kwargs):
            result = timed_cw(*args, **kwargs)
            chamber = result[0]
            self.crossed_to.add((chamber.sign, chamber.subset, chamber.weyl.matrix))
            return result

        wrapped[id(rr)] = restricted_roots
        wrapped[id(cw)] = cross_wall

    def dump(self, path: str) -> None:
        gc.callbacks.remove(self._on_gc)
        report = {
            "functions": self.functions,
            "gc_s": self.gc_s,
            "gc_collections": self.gc_collections,
            "restricted_roots_kept": self.restricted_kept,
            "cross_wall_new_chambers": len(self.crossed_to),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report, fh)


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    from cdvwall import cli

    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main())
