"""Layer spans for lhckit, installed from outside the package at run time.

``Tracer.install`` replaces the public functions, methods, properties and
constructors of each layer module with wrappers that record a span per
call, then rebinds every name (and module-level dict entry) through which
another lhckit module or the package namespace reaches an original, so
cross-layer calls such as ``decompose -> verify_lhc`` are seen too.
``uninstall`` puts every original back. Nothing in the package changes on
disk.

A span is ``(name, layer, start, end, parent, job)``; ``parent`` is the
index of the enclosing span or -1. Spans stay in memory until the run ends.
A layer's self time is the time of its spans minus the time their child
spans cover. Only calls made on the installing thread while the tracer is
active are recorded.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import threading
import time
from collections import defaultdict

LAYERS = ("hypergraph", "channel", "verify", "codes", "decomposition",
          "bipartite", "bsc_id", "jsonio", "cli")
PACKAGE_MODULES = ("lhckit", "lhckit.errors") + tuple(f"lhckit.{m}" for m in LAYERS)

# Files whose size is counted as bytes read or written, by span name.
READERS = ("jsonio.read_json", "jsonio.read_codebook")
WRITERS = ("jsonio.write_json", "jsonio.write_codebook", "jsonio.write_csv")


def _rows_bytes(args, kwargs) -> int:
    """Dense channel bytes handed over: Channel rows, and a code's channels."""
    total = 0
    for a in (*args, *kwargs.values()):
        rows = getattr(a, "rows", None)
        if rows is not None and hasattr(rows, "nbytes"):
            total += rows.nbytes
        elif all(hasattr(a, k) for k in ("encoder", "decoder", "channel")):
            total += sum(c.rows.nbytes for c in (a.encoder, a.decoder, a.channel))
    return total


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """Records spans and layer counters while ``active`` is true."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.job = -1
        self.active = False
        self._stack: list[tuple[int, str]] = []
        self._tid = threading.get_ident()
        self._undo: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active or threading.get_ident() != tracer._tid:
                return fn(*args, **kwargs)
            stack, spans = tracer._stack, tracer.spans
            parent, parent_layer = stack[-1] if stack else (-1, None)
            index = len(spans)
            spans.append(None)
            stack.append((index, layer))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, layer, start, end, parent, tracer.job)
            tracer._count(name, layer, parent_layer != layer, end - start, args, kwargs)
            return result

        return traced

    def _count(self, name, layer, entry, seconds, args, kwargs) -> None:
        """Work counters; ``entry`` marks a call from outside the layer."""
        c = self.counts
        if entry and layer in ("verify", "decomposition"):
            c[f"{layer}.rows_bytes"] += _rows_bytes(args, kwargs)
            c[f"{layer}.entry_s"] += seconds
        if name == "hypergraph.Hypergraph":
            c["hypergraph.incidences"] += sum(len(e) for e in args[0].edges)
        elif name == "channel.Channel":
            c["channel.entries_built"] += args[0].rows.size
        elif name == "bsc_id.exact_error_rates":
            m = _arg(args, kwargs, 0, "codebook").size
            c["bsc_id.pairs"] += m * (m - 1)
            c["bsc_id.pairs_s"] += seconds
        elif name == "bsc_id.monte_carlo_id":
            c["bsc_id.mc_trials"] += _arg(args, kwargs, 3, "trials")
            c["bsc_id.mc_s"] += seconds
        elif name == "bipartite.check_branch_swap":
            c["bipartite.instances"] += 1
            c["bipartite.instances_s"] += seconds
        elif name in READERS:
            c["jsonio.bytes_read"] += os.path.getsize(_arg(args, kwargs, 0, "path"))
            c["jsonio.read_s"] += seconds
        elif name in WRITERS:
            c["jsonio.bytes_written"] += os.path.getsize(_arg(args, kwargs, 0, "path"))
            c["jsonio.write_s"] += seconds

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's public callables and rebind their imports."""
        originals: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"lhckit.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(obj, f"{layer}.{attr}", layer)
                    originals[id(obj)] = wrapped
                    self._set(mod, attr, wrapped)
                elif inspect.isclass(obj):
                    self._wrap_class(obj, layer)
        for name in PACKAGE_MODULES:
            mod = importlib.import_module(name)
            for attr, obj in list(vars(mod).items()):
                if id(obj) in originals:
                    self._set(mod, attr, originals[id(obj)])
                elif type(obj) is dict:
                    for key, value in list(obj.items()):
                        if id(value) in originals:
                            self._undo.append((obj.__setitem__, key, value))
                            obj[key] = originals[id(value)]

    def _wrap_class(self, cls, layer: str) -> None:
        for attr, val in list(vars(cls).items()):
            name = f"{layer}.{cls.__name__}"
            if attr != "__init__":
                if attr.startswith("_"):
                    continue
                name += f".{attr}"
            if isinstance(val, property):
                new = property(self._wrap(val.fget, name, layer), val.fset, val.fdel, val.__doc__)
            elif isinstance(val, (staticmethod, classmethod)):
                new = type(val)(self._wrap(val.__func__, name, layer))
            elif inspect.isfunction(val):
                new = self._wrap(val, name, layer)
            else:
                continue
            self._set(cls, attr, new)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((functools.partial(setattr, owner), attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for setter, key, value in reversed(self._undo):
            setter(key, value)
        self._undo.clear()


def self_times(spans) -> dict[str, float]:
    """Self seconds per layer: span time minus the time of its child spans."""
    child = [0.0] * len(spans)
    for _, _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for i, (_, layer, start, end, _, _) in enumerate(spans):
        out[layer] += (end - start) - child[i]
    return out


def calls(spans) -> dict[str, int]:
    out: dict[str, int] = defaultdict(int)
    for span in spans:
        out[span[1]] += 1
    return out
