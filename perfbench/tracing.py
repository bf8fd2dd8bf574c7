"""Spans recorded from outside the program, at the calls into each layer.

`Tracer.install` wraps the public functions and methods of every layer
module of `antimagic` and rebinds each wrapper wherever the original is
bound: modules import functions by name, so the wrapper for
`graph.level_partition` also replaces `constructors.level_partition`.
Nothing under `src/` changes.

Spans (name, parent, start, end, failed) stay in memory while the run
goes; `write` stores them at the end, and `aggregate` derives calls,
failures, total and self time from them. Self time is a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("graph", "families", "labeling", "trails", "constructors", "spectrum", "certificate", "cli")

# Per-edge helpers called inside every inner loop: a span on each would
# cost more than the work it measures and swamp the layers above.
SKIP = {
    "graph.canonical_edge",
    "graph.Component.parent_edge",
    "graph.Graph.degree",
    "trails.Trail.edges",
    "trails.Trail.reversed",
}


def _renamer(name: str):
    """Span names that depend on the result: whether a search found a labeling."""
    if name == "spectrum.decide":
        return lambda result: name + (".infeasible" if result is None else ".feasible")
    if name == "spectrum.search_strong":
        return lambda result: name + (".miss" if result is None else ".hit")
    return None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, parent index, start ns, end ns, failed]
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        rename = _renamer(name)
        cli_main = name == "cli.main"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0, 0, 0]
            if cli_main:
                argv = args[0] if args else kwargs.get("argv")
                rec[0] = f"cli.main.{argv[0] if argv else '?'}"
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[4] = 1
                raise
            finally:
                rec[3] = clock()
                stack.pop()
            if rename is not None:
                rec[0] = rename(result)
            return result

        return wrapper

    def _targets(self):
        """(owner, attribute, span name, original) for every traced callable."""
        for layer in LAYERS:
            mod = importlib.import_module(f"antimagic.{layer}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    yield mod, attr, f"{layer}.{attr}", obj
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, member in vars(obj).items():
                        if not meth.startswith("_") and (
                            inspect.isfunction(member) or isinstance(member, classmethod)
                        ):
                            yield obj, meth, f"{layer}.{attr}.{meth}", member

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "antimagic" or k.startswith("antimagic.")]
        for owner, attr, name, orig in list(self._targets()):
            if name in SKIP:
                continue
            if isinstance(orig, classmethod):
                replacement = classmethod(self._wrap(name, orig.__func__))
            else:
                replacement = self._wrap(name, orig)
            self._undo.append((owner, attr, orig))
            setattr(owner, attr, replacement)
            if inspect.isclass(owner):
                continue
            for mod in modules:
                for other, value in list(vars(mod).items()):
                    if value is orig and (mod, other) != (owner, attr):
                        self._undo.append((mod, other, orig))
                        setattr(mod, other, replacement)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, start, end, failed) in enumerate(self.spans):
                fh.write(json.dumps([i, parent, name, start, end, failed]) + "\n")


class Totals:
    __slots__ = ("calls", "failed", "total_ns", "self_ns", "durations")

    def __init__(self) -> None:
        self.calls = self.failed = self.total_ns = self.self_ns = 0
        self.durations: list[int] = []


def aggregate(spans: list[list]) -> dict[str, Totals]:
    child_ns = [0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, Totals] = {}
    for i, (name, parent, start, end, failed) in enumerate(spans):
        t = out.get(name)
        if t is None:
            t = out[name] = Totals()
        t.calls += 1
        t.failed += failed
        t.total_ns += end - start
        t.self_ns += end - start - child_ns[i]
        t.durations.append(end - start)
    return out
