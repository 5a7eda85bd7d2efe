"""Spans around the program's layers, recorded from outside the program.

``instrument`` wraps the public functions of each ``cmtwist`` layer module
and rebinds every module attribute that holds one of them, including names
another module imported by value (``cli`` holds its own ``cyclotomic``).
The program's files are not edited.  Spans stay in memory; ``Recorder.fold``
turns the spans of one job into per-name totals.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

LAYERS = ("residues", "fields", "cmtypes", "twists", "inertia", "cli")
# Functions a layer imported from sympy by value: their time is the layer's.
FOREIGN = {"fields": ("factorint",), "inertia": ("isprime",)}
# Methods that are a layer's work but not module-level functions.
METHODS = {"cli": (("Report", "to_json"),)}


class Recorder:
    """Collects spans as (name id, depth, start, end, outermost) tuples.

    Spans are appended when they end, so a span's children precede it.
    ``outermost`` is false for a call nested inside a call of the same name.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple[int, int, float, float, bool]] = []
        self.depth = 0
        self.active: list[int] = []
        self.totals: dict[str, list[float]] = {}

    def name_id(self, name: str) -> int:
        self.names.append(name)
        self.active.append(0)
        return len(self.names) - 1

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        spans, active = self.spans, self.active

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.depth = depth = self.depth + 1
            outer = active[nid] == 0
            active[nid] += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                active[nid] -= 1
                self.depth = depth - 1
                spans.append((nid, depth, t0, t1, outer))

        wrapper.__wrapped__ = fn
        return wrapper

    def fold(self) -> None:
        """Add the recorded spans to ``totals`` and forget them."""
        for name, calls, self_s, incl_s in fold_spans(self.spans, self.names):
            t = self.totals.setdefault(name, [0, 0.0, 0.0])
            t[0] += calls
            t[1] += self_s
            t[2] += incl_s
        self.spans.clear()


def fold_spans(spans, names) -> list[tuple[str, int, float, float]]:
    """Per name: calls, self time, and time of outermost calls.

    Self time is a span's duration minus the durations of its direct
    children.  Spans come in end order, so the children of a span at depth
    d are exactly the depth-(d+1) spans that ended since the previous
    depth-d span ended.

    >>> # a(0..10) holds b(1..4) and c(5..9); c holds b(6..7)
    >>> spans = [(1, 2, 1, 4, True), (1, 3, 6, 7, True), (2, 2, 5, 9, True), (0, 1, 0, 10, True)]
    >>> fold_spans(spans, ["a", "b", "c"])
    [('a', 1, 3.0, 10.0), ('b', 2, 4.0, 4.0), ('c', 1, 3.0, 4.0)]
    """
    child: dict[int, float] = {}
    out = [[0, 0.0, 0.0] for _ in names]
    for nid, depth, t0, t1, outer in spans:
        dur = t1 - t0
        row = out[nid]
        row[0] += 1
        row[1] += dur - child.pop(depth + 1, 0.0)
        if outer:
            row[2] += dur
        child[depth] = child.get(depth, 0.0) + dur
    return [(names[i], *row) for i, row in enumerate(out) if row[0]]


def _is_function(obj) -> bool:
    return inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper)


def instrument(recorder: Recorder, package: str = "cmtwist"):
    """Wrap every layer's public functions; return (restore, lru_functions).

    ``restore()`` puts every rebound attribute back.  ``lru_functions`` maps
    span names to the original ``lru_cache`` objects, whose ``cache_info()``
    the wrappers do not see.
    """
    modules = {name: mod for name, mod in sys.modules.items()
               if mod is not None and (name == package or name.startswith(package + "."))}
    wrappers: dict[int, object] = {}
    lru: dict[str, object] = {}
    for layer in LAYERS:
        mod = modules[f"{package}.{layer}"]
        for attr, obj in sorted(vars(mod).items()):
            public = not attr.startswith("_") and getattr(obj, "__module__", None) == mod.__name__
            if _is_function(obj) and (public or attr in FOREIGN.get(layer, ())):
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = recorder.wrap(f"{layer}.{attr}", obj)
                if isinstance(obj, functools._lru_cache_wrapper):
                    lru[f"{layer}.{attr}"] = obj
    rebound = []
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            if _is_function(obj) and id(obj) in wrappers:
                rebound.append((mod, attr, obj))
                setattr(mod, attr, wrappers[id(obj)])
    for layer, methods in METHODS.items():
        mod = modules[f"{package}.{layer}"]
        for cls_name, meth in methods:
            cls = getattr(mod, cls_name)
            obj = cls.__dict__[meth]
            rebound.append((cls, meth, obj))
            setattr(cls, meth, recorder.wrap(f"{layer}.{cls_name}.{meth}", obj))

    def restore() -> None:
        for owner, attr, obj in reversed(rebound):
            setattr(owner, attr, obj)

    return restore, lru


def layer_totals(totals: dict[str, list[float]]) -> dict[str, list[float]]:
    """Calls and self time summed per layer (the part of a name before '.')."""
    out: dict[str, list[float]] = {}
    for name, (calls, self_s, _) in totals.items():
        row = out.setdefault(name.split(".", 1)[0], [0, 0.0])
        row[0] += calls
        row[1] += self_s
    return out


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import seconds per module from ``python -X importtime``.

    >>> parse_importtime("import time: self [us] | cumulative | imported package\\n"
    ...                  "import time:       120 |        300 |   sympy\\n")
    {'sympy': 0.0003}
    """
    out: dict[str, float] = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        out[parts[2].strip()] = int(parts[1]) / 1e6
    return out
