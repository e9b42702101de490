"""Span recorder for the traced benchmark run.

The tracer wraps the public functions of each abstainrl layer from outside
the package.  A function imported by name into another module (``from
abstainrl.grpo import evaluate_items`` in ``cli``) is a second binding of the
same object, so every module attribute that holds it is replaced, not only
the one in its home module.  Spans are kept in flat arrays in memory and
written out once, at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from array import array
from collections.abc import Callable, Iterator
from pathlib import Path

import numpy as np

LAYERS = ("cli", "synthenv", "policy", "grpo", "reward", "textmetrics", "kernels", "retrieval")

# Modules whose functions are published by another layer's module.
_HOME_LAYER = {"abstainrl._pykernels": "kernels", "abstainrl._ckernels": "kernels"}

# ``topk_semantic`` binds ``default_embedding`` as a default argument when it
# is defined, so a wrapper at the module attribute would never be called.
# Its callee ``trigram_embedding`` is wrapped where ``retrieval`` looks it up.
_SKIP = frozenset({"retrieval.default_embedding"})

# Methods traced besides module-level functions: (layer, class, method).
_METHODS = (("retrieval", "KGStore", "add"),)

Hook = Callable[["Tracer", tuple, dict, object], None]


class Tracer:
    """In-memory spans: name, start, end, parent span and request id.

    ``request_id`` is set by the caller before each request; negative ids
    mark work that is not a request (set-up, store builds).  ``hooks`` maps a
    span name to a callback run with the call's arguments and result.
    """

    def __init__(self, hooks: dict[str, Hook] | None = None) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.request_id = -1
        self.hooks = dict(hooks or {})

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable) -> Callable:
        nid = self.name_id(name)
        hook = self.hooks.get(name)
        names, parents, requests = self.name, self.parent, self.request
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            requests.append(tracer.request_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn)

    def spans(self) -> "Spans":
        return Spans(
            names=list(self.names),
            name=np.frombuffer(self.name, dtype=np.int32).copy(),
            parent=np.frombuffer(self.parent, dtype=np.int32).copy(),
            request=np.frombuffer(self.request, dtype=np.int32).copy(),
            start=np.frombuffer(self.start, dtype=np.float64).copy(),
            end=np.frombuffer(self.end, dtype=np.float64).copy(),
        )


def _home_layer(fn: Callable) -> str | None:
    module = getattr(fn, "__module__", None) or ""
    layer = _HOME_LAYER.get(module, module.removeprefix("abstainrl."))
    return layer if layer in LAYERS else None


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every public layer function at every abstainrl binding site;
    restore the originals on exit."""
    modules = {layer: importlib.import_module(f"abstainrl.{layer}") for layer in LAYERS}
    wrappers: dict[int, Callable] = {}
    for layer, module in modules.items():
        for attr, value in vars(module).items():
            if attr.startswith("_") or inspect.isclass(value) or not callable(value):
                continue
            name = f"{layer}.{attr}"
            if _home_layer(value) == layer and name not in _SKIP and id(value) not in wrappers:
                wrappers[id(value)] = tracer.wrap(name, value)

    restore: list[tuple[object, str, object]] = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "abstainrl" or mod_name.startswith("abstainrl.")):
            continue
        for attr, value in list(vars(module).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                restore.append((module, attr, value))
                setattr(module, attr, wrapper)
    for layer, cls_name, method in _METHODS:
        cls = getattr(modules[layer], cls_name)
        original = cls.__dict__[method]
        restore.append((cls, method, original))
        setattr(cls, method, tracer.wrap(f"{layer}.{cls_name}.{method}", original))
    try:
        yield tracer
    finally:
        for owner, attr, value in reversed(restore):
            setattr(owner, attr, value)


class Spans:
    """Read-only view of recorded spans with the aggregations the benchmark
    reports.  Parents always precede their children in the arrays."""

    def __init__(self, names, name, parent, request, start, end) -> None:
        self.names = names
        self.name = name
        self.parent = parent
        self.request = request
        self.start = start
        self.end = end
        self.duration = end - start
        has_parent = parent >= 0
        child_time = np.bincount(
            parent[has_parent], weights=self.duration[has_parent], minlength=len(name)
        )
        self.self_time = self.duration - child_time

    def _mask(self, name: str, request: np.ndarray | None) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.name), dtype=bool)
        mask = self.name == self.names.index(name)
        return mask if request is None else mask & request

    def calls(self, name: str, request: np.ndarray | None = None) -> int:
        return int(self._mask(name, request).sum())

    def inclusive_s(self, name: str, request: np.ndarray | None = None) -> float:
        return float(self.duration[self._mask(name, request)].sum())

    def self_s(self, name: str, request: np.ndarray | None = None) -> float:
        return float(self.self_time[self._mask(name, request)].sum())

    def layer_self_s(self, layer: str, request: np.ndarray | None = None) -> float:
        ids = [i for i, n in enumerate(self.names) if n.startswith(layer + ".")]
        mask = np.isin(self.name, ids)
        if request is not None:
            mask &= request
        return float(self.self_time[mask].sum())

    def within(self, ancestor: str) -> np.ndarray:
        """Mask of spans that have a span named ``ancestor`` above them."""
        inside = np.zeros(len(self.name), dtype=bool)
        if ancestor not in self.names:
            return inside
        target = self.names.index(ancestor)
        cur = self.parent.copy()
        while (cur >= 0).any():
            live = cur >= 0
            inside[live] |= self.name[cur[live]] == target
            cur[live] = self.parent[cur[live]]
        return inside

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=self.name,
            parent=self.parent,
            request=self.request,
            start=self.start,
            end=self.end,
        )
