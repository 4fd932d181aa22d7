"""Spans at every layer boundary, recorded from outside the program.

:class:`Tracer` wraps a fixed table of *public* entry points of
``repro`` — class methods are patched on the class, module-level
functions are rebound in every ``repro.*`` namespace that holds them —
and keeps one span per entry in memory: name, start, end, parent.
Nothing in ``src/`` knows it is being traced, and :meth:`Tracer.uninstall`
puts every original back.

Two rules make the rows add up:

- a boundary that is a simulation coroutine gets one span per
  *resumption*, so it is charged the host time it runs and none of the
  simulated waiting in between (its ``calls`` still counts invocations);
- a boundary entered again directly inside itself (a cached store
  delegating to the store it wraps, a recursive encoder) stays one span.

A layer's self time is its spans' duration minus what their child spans
cover, so the self times of all rows sum to the root spans' duration.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from types import GeneratorType
from typing import Callable, Dict, List, Optional

_STORES = {
    "BlobResourceStore": "repro.db.resource_store",
    "XmlResourceStore": "repro.db.xmlstore",
    "SqlResourceStore": "repro.db.sql",
    "CachedResourceStore": "repro.db.cached_store",
}

#: (span name, module, class or None, attribute, kind, bytes-of or None)
#: kind: "sync" = span around the call; "gen" = the call returns a
#: simulation coroutine, one span per resumption; "auto" = decided per
#: function (web methods come in both shapes).
BOUNDARIES = [
    ("sim.step", "repro.sim.core", "Environment", "step", "sync", None),
    ("net.request", "repro.net.network", "Network", "request", "gen", None),
    ("net.oneway", "repro.net.network", "Network", "send_one_way", "gen", None),
    ("net.bulk", "repro.net.network", "Network", "bulk_transfer", "gen",
     lambda args, kwargs, result: kwargs["size"] if "size" in kwargs else args[4]),
    ("osim.iis.handle", "repro.osim.iis", "IisServer", "handle", "gen", None),
    ("wsrf.dispatch", "repro.wsrf.tooling", "WrapperService", "handle_soap", "gen", None),
    ("wsrf.client.invoke", "repro.wsrf.client", "WsrfClient", "invoke", "gen", None),
    ("soap.encode", "repro.soap.envelope", "SoapEnvelope", "serialize", "sync", None),
    ("soap.decode", "repro.soap.envelope", "SoapEnvelope", "deserialize", "sync", None),
    ("soap.typed", "repro.soap.types", None, "to_typed_element", "sync", None),
    ("soap.typed", "repro.soap.types", None, "from_typed_element", "sync", None),
    ("xmlx.parse", "repro.xmlx.parser", None, "parse", "sync",
     lambda args, kwargs, result: len(args[0])),
    ("xmlx.serialize", "repro.xmlx.writer", None, "to_string", "sync",
     lambda args, kwargs, result: len(result)),
    ("wsn.publish", "repro.wsn.base_notification", "NotificationProducer",
     "publish", "sync", None),
    ("wsn.notify", "repro.wsn.base_notification", "NotificationConsumerPortType",
     "notify", "gen", None),
    ("wsn.notify", "repro.wsn.consumer", "NotificationListener", "handle", "gen", None),
] + [
    (f"db.{op}", module, store, op, "sync", None)
    for store, module in _STORES.items()
    for op in ("load", "save", "create", "destroy", "snapshot", "restore")
]

#: every row the tracer can produce, in report order
LAYER_NAMES = list(dict.fromkeys([b[0] for b in BOUNDARIES] + ["gridapp.method"]))


def _gridapp_methods():
    """``gridapp.method``: the author code of the grid services — every
    ``@WebMethod`` and notification handler of a ``repro.gridapp``
    service class — so service logic is not charged to dispatch."""
    from repro.wsrf import ServiceSkeleton

    importlib.import_module("repro.gridapp")
    seen = set()
    for mod_name, module in sorted(sys.modules.items()):
        if module is None or not mod_name.startswith("repro.gridapp"):
            continue
        for cls in vars(module).values():
            if not (isinstance(cls, type) and issubclass(cls, ServiceSkeleton)):
                continue
            if cls.__module__ != mod_name or cls in seen:
                continue
            seen.add(cls)
            for attr, value in vars(cls).items():
                if attr == "on_notification" or hasattr(value, "__web_method__"):
                    yield cls, attr


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.calls: List[int] = []
        self.bytes: List[int] = []
        self._patched: list = []  # (owner, attribute, original)
        self._stack: List[int] = []
        self.reset()

    def reset(self) -> None:
        """Drop everything recorded so far (between set-up and run)."""
        if self._stack:
            raise RuntimeError("reset() inside an open span")
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls = [0] * len(self.names)
        self.bytes = [0] * len(self.names)

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.bytes.append(0)
        return nid

    # -- wrapping --------------------------------------------------------------------

    def wrap(self, name: str, fn: Callable, kind: str = "sync",
             bytes_of: Optional[Callable] = None) -> Callable:
        """*fn* with a span (or a span per resumption) named *name*."""
        nid = self._id(name)
        if kind == "auto":
            kind = "gen" if inspect.isgeneratorfunction(fn) else "sync"
        stack = self._stack
        clock = self.clock

        if kind == "gen":

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                if type(result) is not GeneratorType:
                    return result
                self.calls[nid] += 1
                if bytes_of is not None:
                    self.bytes[nid] += bytes_of(args, kwargs, None)
                return self._resumptions(nid, result)

            return gen_wrapper

        @functools.wraps(fn)
        def sync_wrapper(*args, **kwargs):
            span_name = self.span_name
            if stack and span_name[stack[-1]] == nid:
                return fn(*args, **kwargs)
            # The clock is read first and last, so the tracer's own
            # bookkeeping lands inside the span, not in a gap above it.
            self.span_start.append(clock())
            self.calls[nid] += 1
            index = len(span_name)
            span_name.append(nid)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_end.append(0.0)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.span_end[index] = clock()
                stack.pop()
            if bytes_of is not None:
                self.bytes[nid] += bytes_of(args, kwargs, result)
            return result

        return sync_wrapper

    def _resumptions(self, nid: int, gen):
        """Delegate to *gen*, one span per resumption.  Thrown-in
        exceptions (interrupts, ``close()``) are forwarded inward."""
        stack = self._stack
        clock = self.clock
        send_value = None
        throw_exc = None
        while True:
            self.span_start.append(clock())
            index = len(self.span_name)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_end.append(0.0)
            stack.append(index)
            try:
                if throw_exc is not None:
                    exc, throw_exc = throw_exc, None
                    item = gen.throw(exc)
                else:
                    item = gen.send(send_value)
            except StopIteration as stop:
                return stop.value
            finally:
                self.span_end[index] = clock()
                stack.pop()
            try:
                send_value = yield item
            except BaseException as exc:  # kill/interrupt: forward inward
                send_value = None
                throw_exc = exc

    # -- install / uninstall ------------------------------------------------------------

    def install(self) -> None:
        """Patch every boundary of the table.  Call before the grid is
        assembled: wrappers capture their web methods at deployment."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        for name, mod_name, cls_name, attr, kind, bytes_of in BOUNDARIES:
            module = importlib.import_module(mod_name)
            if cls_name is None:
                self._rebind_function(name, getattr(module, attr), kind, bytes_of)
            else:
                self._patch_method(name, getattr(module, cls_name), attr, kind, bytes_of)
        for cls, attr in list(_gridapp_methods()):
            self._patch_method("gridapp.method", cls, attr, "auto", None)

    def _patch_method(self, name, cls, attr, kind, bytes_of) -> None:
        raw = vars(cls)[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self.wrap(name, raw.__func__, kind, bytes_of))
        else:
            wrapped = self.wrap(name, raw, kind, bytes_of)
        self._patched.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    def _rebind_function(self, name, fn, kind, bytes_of) -> None:
        wrapped = self.wrap(name, fn, kind, bytes_of)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patched.append((module, attr, fn))
                    setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    # -- reporting ------------------------------------------------------------------------

    def rows(self) -> Dict[str, Dict[str, float]]:
        """``{layer: {"calls", "self_s", "bytes"}}`` over what was
        recorded since the last :meth:`reset`."""
        self_s = [0.0] * len(self.names)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        for i in range(len(names)):
            duration = ends[i] - starts[i]
            self_s[names[i]] += duration
            parent = parents[i]
            if parent >= 0:
                self_s[names[parent]] -= duration
        return {
            name: {"calls": self.calls[nid], "self_s": self_s[nid],
                   "bytes": self.bytes[nid]}
            for nid, name in enumerate(self.names)
        }

    def root_s(self) -> float:
        """Total duration of the spans that have no parent."""
        return sum(
            self.span_end[i] - self.span_start[i]
            for i in range(len(self.span_name))
            if self.span_parent[i] < 0
        )

    def dump(self, path) -> None:
        """Write the raw spans, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as out:
            for i in range(len(self.span_name)):
                out.write(json.dumps({
                    "id": i,
                    "name": self.names[self.span_name[i]],
                    "parent": self.span_parent[i],
                    "start": self.span_start[i],
                    "end": self.span_end[i],
                }) + "\n")
