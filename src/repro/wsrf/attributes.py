"""The attribute-based programming model of paper Fig. 2.

C# attributes become Python decorators/descriptors with the same names
and semantics:

- ``some_data = Resource()`` — this field is part of the WS-Resource's
  state: the database is read before each web method runs, the field
  is copied out of what was read the first time the method reads it,
  and saved back afterwards if changed;
- ``@ResourceProperty`` on a Python ``@property`` — exposed through the
  WS-ResourceProperties port types (a setter makes it settable via
  SetResourceProperties);
- ``@WebMethod`` — the method is invocable over SOAP;
- ``@WSRFPortType(GetResourcePropertyPortType, ...)`` — import the
  functionality of spec-defined port types into the service, exactly as
  the paper describes for ``[WSRFPortType]``.

The running example from Fig. 2 translates directly::

    @WSRFPortType(GetResourcePropertyPortType)
    class MyServ(ServiceSkeleton):
        some_data = Resource(default="")

        @ResourceProperty
        @property
        def MyData(self):
            return f"At {self.env.now} the string is {self.some_data}"

        @WebMethod
        def MyMethod(self) -> int:
            ...
"""

from __future__ import annotations

import inspect
from typing import Any, Dict, Optional, Tuple, Type

from repro.db import read_copy
from repro.xmlx import NS, QName


class Resource:
    """Field descriptor marking WS-Resource state (C# ``[Resource]``).

    A non-data descriptor: an assigned field is an ordinary instance
    attribute, which shadows it.  The first read of a field that is not
    one yet copies the field out of the state the wrapper's db_load
    stage read (``obj._kept``) and makes the copy the instance
    attribute, so a dispatch copies only the fields its method reads
    (db_load sets a field holding an immutable leaf or an EPR itself:
    there is no copy to defer); a field the state does not hold reads
    as the default.  :meth:`ServiceSkeleton.kept_field` reads a field
    without the copy.
    """

    def __init__(self, default: Any = None, qname: Optional[QName] = None) -> None:
        self.default = default
        self.qname = qname  # resolved against the service namespace if None
        self.name = ""

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def resolved_qname(self, service_cls: type) -> QName:
        if self.qname is not None:
            return self.qname
        ns = getattr(service_cls, "SERVICE_NS", NS.UVACG)
        return QName(ns, self.name)

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        kept = obj._kept
        name = self.name
        if name in kept:
            value = obj.__dict__[name] = read_copy(kept[name])
            return value
        return self.default


class _ResourcePropertyDescriptor(property):
    """A Python property carrying ResourceProperty metadata."""

    rp_qname: Optional[QName] = None
    rp_name: Optional[str] = None

    def __set_name__(self, owner: type, name: str) -> None:
        self.rp_name = name

    def resolved_qname(self, service_cls: type) -> QName:
        if self.rp_qname is not None:
            return self.rp_qname
        ns = getattr(service_cls, "SERVICE_NS", NS.UVACG)
        return QName(ns, self.rp_name or self.fget.__name__)


def ResourceProperty(target=None, *, qname: Optional[QName] = None):
    """Expose a property through WS-ResourceProperties (C# attribute)."""

    def wrap(obj):
        if isinstance(obj, property):
            rp = _ResourcePropertyDescriptor(obj.fget, obj.fset, obj.fdel)
        elif callable(obj):
            rp = _ResourcePropertyDescriptor(obj)
        else:
            raise TypeError(
                f"ResourceProperty applies to a property or getter, got {obj!r}"
            )
        rp.rp_qname = qname
        return rp

    if target is None:
        return wrap
    return wrap(target)


def WebMethod(target=None, *, requires_resource: bool = True, one_way: bool = False):
    """Mark a method as SOAP-invocable (C# ``[WebMethod]``).

    ``requires_resource=False`` marks factory-style operations that run
    without an EPR-named WS-Resource (e.g. "create a new directory").
    ``one_way=True`` documents that the operation is normally delivered
    as a one-way message (no reply body even over request/response).
    The ``(name, default)`` pair of each argument the method takes off
    the wire (``inspect.Parameter.empty`` marks a required one) is read
    off its signature here, once.
    """

    def wrap(fn):
        fn.__web_method__ = {
            "requires_resource": requires_resource,
            "one_way": one_way,
            "arguments": tuple(
                (name, param.default)
                for name, param in inspect.signature(fn).parameters.items()
                if name != "self"
                and param.kind not in (
                    inspect.Parameter.VAR_POSITIONAL, inspect.Parameter.VAR_KEYWORD
                )
            ),
        }
        return fn

    if target is None:
        return wrap
    return wrap(target)


def WSRFPortType(*port_types: type):
    """Import spec-defined port types into a service (C# attribute)."""

    for pt in port_types:
        if not isinstance(pt, type):
            raise TypeError(f"WSRFPortType expects port type classes, got {pt!r}")

    def decorate(cls: type) -> type:
        existing: Tuple[type, ...] = getattr(cls, "__wsrf_port_types__", ())
        cls.__wsrf_port_types__ = existing + tuple(port_types)
        return cls

    return decorate


class ServiceSkeleton:
    """Base class for author-written services (WSRF.NET's ServiceSkeleton).

    Author code never constructs these directly: the wrapper service
    instantiates one per invocation, reads the WS-Resource's state from
    the database (each ``Resource`` field is copied out of it on first
    read), injects the invocation context, runs the method and persists
    changed state — the Fig. 1 pipeline.

    State that belongs to a *deployment* rather than to a WS-Resource —
    wiring such as a peer's EPR, per-boot working state, counters — is
    declared in :attr:`DEPLOYMENT` and lives on the wrapper
    (``self.wsrf.wrapper.<name>``), so it outlives the per-invocation
    instances and every reader finds it there without probing.
    """

    #: namespace for this service's methods, resource fields and RPs
    SERVICE_NS = NS.UVACG

    #: ``{wrapper attribute: initial value}`` — what each deployment of
    #: this service carries beside its WS-Resources.  The wrapper sets
    #: every name at deploy time (a callable is called once per
    #: deployment: write ``dict``, not a shared ``{}``); whoever assembles
    #: the grid then assigns the wiring.  A subclass that adds names
    #: spreads its parent's: ``{**Parent.DEPLOYMENT, ...}``.
    DEPLOYMENT: Dict[str, Any] = {}

    #: the invocation context, set by the wrapper (None: detached)
    _invocation = None
    #: ``{field: kept value}`` as the db_load stage read it, read-only:
    #: ``Resource.__get__`` copies a field out of it on first read.  The
    #: wrapper assigns each dispatch's own; this empty one is never
    #: written (an instance nothing was loaded into reads defaults)
    _kept: Dict[str, Any] = {}

    # -- invocation context -------------------------------------------------------

    @property
    def wsrf(self):
        """The invocation context (wrapper, machine, EPR helpers)."""
        if self._invocation is None:
            raise RuntimeError(
                "no invocation context: this instance was not created by the "
                "WSRF wrapper (did you call the method directly?)"
            )
        return self._invocation

    @property
    def env(self):
        return self.wsrf.machine.env

    @property
    def machine(self):
        return self.wsrf.machine

    @property
    def resource_id(self) -> Optional[str]:
        return self.wsrf.resource_id

    @property
    def client(self):
        """A WsrfClient originating from this service's machine."""
        return self.wsrf.client

    def kept_field(self, name: str) -> Any:
        """Resource field *name* as the db_load stage read it, without
        the copy a read makes: the stored value itself, read-only to the
        caller (the contract of ``servicegroup.kept_entries``).  Not
        being an instance attribute, it is neither compared nor saved
        back.  A field this dispatch already read or assigned answers
        as the instance holds it."""
        if name in self.__dict__:
            return self.__dict__[name]
        if name in self._kept:
            return self._kept[name]
        return getattr(type(self), name).default

    # -- resource management helpers (forwarded to the wrapper) ---------------------

    def epr_for(self, resource_id: str):
        return self.wsrf.wrapper.epr_for(resource_id)

    def create_resource(self, **fields) -> str:
        """Create a sibling WS-Resource of this service; returns its id.
        The db time is charged to this invocation's db_save stage."""
        rid = self.wsrf.wrapper.create_resource_from_fields(fields)
        self.wsrf.db_ops += 1
        return rid

    def destroy_resource(self, resource_id: str) -> None:
        self.wsrf.wrapper.destroy_resource(resource_id)
        self.wsrf.db_ops += 1

    def notify(self, topic, payload) -> None:
        """Publish a notification (single-function API, per §5).

        Requires the NotificationProducer port type; the wrapper routes
        the message to matching subscribers as one-way wsnt:Notify.
        With observability on, the fan-out parents to this invocation's
        dispatch span.
        """
        self.wsrf.wrapper.publish(
            topic, payload, parent_span=getattr(self.wsrf, "span", None)
        )

    # -- hooks ----------------------------------------------------------------------

    def wsrf_on_destroy(self) -> None:
        """Called (with state loaded) just before this resource is destroyed."""

    @classmethod
    def wsrf_recover(cls, wrapper) -> None:
        """Called once after the wrapper restores from a checkpoint.

        The host just came back from a crash: persisted resource state
        is in place, volatile state (locks, caches, watchers, spawned
        OS processes) is gone.  Services override this to re-adopt
        in-flight work from what the store says — see the Scheduler's
        job-set re-adoption and the Execution Service's orphaned-job
        cleanup (docs/durability.md).
        """


def collect_resource_fields(service_cls: Type[ServiceSkeleton]) -> Dict[str, Resource]:
    """All Resource descriptors declared on the class (MRO-aware)."""
    out: Dict[str, Resource] = {}
    for klass in reversed(service_cls.__mro__):
        for name, value in vars(klass).items():
            if isinstance(value, Resource):
                out[name] = value
    return out


def collect_resource_properties(
    service_cls: Type[ServiceSkeleton],
) -> Dict[QName, _ResourcePropertyDescriptor]:
    out: Dict[QName, _ResourcePropertyDescriptor] = {}
    for klass in reversed(service_cls.__mro__):
        for value in vars(klass).values():
            if isinstance(value, _ResourcePropertyDescriptor):
                out[value.resolved_qname(service_cls)] = value
    return out


def collect_web_methods(service_cls: type) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for klass in reversed(service_cls.__mro__):
        for name, value in vars(klass).items():
            if callable(value) and hasattr(value, "__web_method__"):
                out[name] = value
    return out
