"""WSRF.NET tooling: generate the wrapper web service (paper Fig. 1).

``deploy(ServiceClass, machine, "Path")`` is the equivalent of running
the WSRF.NET tools over an annotated service: it builds the wrapper that
IIS dispatches to.  Per invocation the wrapper

1. parses the SOAP envelope and reads the EPR from the WS-Addressing
   headers ("the value of the EndpointReference in the <To> header");
2. resolves the WS-Resource: "querying a database to get the value(s)
   attached to the unique name given in the ReferenceProperties element
   of the EPR" — a :class:`~repro.db.BlobResourceStore` point load;
3. routes to either an author-written web method or a WSRF
   spec-defined port type method;
4. makes the state available as ordinary fields while the method runs;
5. saves changed values back to the database; and
6. serializes the result (or a WS-BaseFault) into the response envelope.
"""

from __future__ import annotations

import inspect
from operator import attrgetter
from typing import Any, Callable, Dict, Optional, Tuple, Type

from repro.db import (
    IMMUTABLE_LEAVES,
    BlobResourceStore,
    CachedResourceStore,
    NoSuchResource,
    ResourceStore,
    same_field,
)
from repro.net.network import DeliveryError
from repro.sim import Lock
from repro.soap import SoapEnvelope, SoapFault, from_typed_element, to_typed_element
from repro.soap.endpoint import read_request, reject, reply_text, server_fault
from repro.wsa import EndpointReference
from repro.wsrf.attributes import (
    ServiceSkeleton,
    collect_resource_fields,
    collect_resource_properties,
    collect_web_methods,
)
from repro.wsrf.basefaults import (
    InvalidResourcePropertyQNameFault,
    ResourceUnknownFault,
    UnableToModifyResourcePropertyFault,
)
from repro.wsrf.porttypes import SpecPortType, rp_value_element
from repro.wssec import SecurityError, UsernameToken, open_security_header
from repro.xmlx import NS, Element, QName

#: the reference property WSRF.NET keys resource lookup on
RESOURCE_ID = QName(NS.UVACG, "ResourceID")

_WSSE_SECURITY = QName(NS.WSSE, "Security")


def _argument_table(fn: Callable) -> Tuple[Tuple[str, Any], ...]:
    """``(name, default)`` for each argument web method *fn* takes off
    the wire (``inspect.Parameter.empty`` marks a required one), read
    off its signature the first time a wrapper deploys it."""
    meta = getattr(fn, "__web_method__")
    table = meta.get("arguments")
    if table is None:
        table = meta["arguments"] = tuple(
            (name, param.default)
            for name, param in inspect.signature(fn).parameters.items()
            if name != "self"
            and param.kind not in (
                inspect.Parameter.VAR_POSITIONAL, inspect.Parameter.VAR_KEYWORD
            )
        )
    return table


class InvocationContext:
    """Everything a service method can reach through ``self.wsrf``."""

    def __init__(self, wrapper: "WrapperService", resource_id, envelope, delivery, span=None):
        self.wrapper = wrapper
        self.resource_id = resource_id
        self.envelope = envelope
        self.delivery = delivery
        #: the wsrf.dispatch span of this invocation (None when obs is off);
        #: lets author code parent its own spans / notifications to the call
        self.span = span
        #: write-ahead outbox: (target_epr, body, category) triples held
        #: until the db_save stage has persisted this invocation's state
        self._outbox: list = []
        self._outbox_closed = False
        #: resources this invocation created or destroyed: synchronous
        #: in author code, their db time is charged by its db_save stage
        self.db_ops = 0

    @property
    def machine(self):
        return self.wrapper.machine

    @property
    def client(self):
        return self.wrapper.client

    @property
    def source_host(self) -> str:
        return self.delivery.source_host

    def my_epr(self) -> EndpointReference:
        return self.wrapper.epr_for(self.resource_id)

    def send_after_persist(self, target_epr, body, category: str = "notify") -> None:
        """Queue a one-way send honoring the write-ahead contract (WAL001).

        State must hit the database before any message announcing it
        leaves the host, so the wrapper holds these sends until the
        db_save stage completes (a crash in between discards them along
        with the unpersisted state — the client retries, the subscriber
        never hears about state that no longer exists).  Called from a
        detached process after its invocation already finished (e.g. a
        process watcher that has done its own locked save), the send
        fires immediately.
        """
        if self._outbox_closed:
            self._send_now(target_epr, body, category)
        else:
            self._outbox.append((target_epr, body, category))

    def _send_now(self, target_epr, body, category: str) -> None:
        from repro.wsn.base_notification import fire_and_forget

        fire_and_forget(
            self.wrapper.env, self.wrapper.client, target_epr, body,
            category=category, parent_span=self.span,
        )

    def _flush_outbox(self) -> None:
        """Release deferred sends; the acknowledged state is on disk."""
        self._outbox_closed = True
        pending, self._outbox = self._outbox, []
        for target_epr, body, category in pending:
            self._send_now(target_epr, body, category)

    def credentials(self) -> UsernameToken:
        """Decrypt the WS-Security UsernameToken addressed to this service."""
        header = self.envelope.find_header(_WSSE_SECURITY)
        if header is None:
            raise SecurityError("request carries no wsse:Security header")
        keys = self.wrapper.machine.keys
        if keys is None:
            raise SecurityError(
                f"machine {self.wrapper.machine.name!r} has no key pair enrolled"
            )
        return open_security_header(header, keys)


class _Call:
    """One invocation's trip through :attr:`WrapperService._STAGES`: what
    the stages hand each other.  Lives and dies with the dispatch — the
    InvocationContext outlives it in author code and detached watchers,
    so the loaded state and the reply are kept off that."""

    __slots__ = (
        "ctx", "instance", "pool", "epoch", "needs_resource", "lock",
        "worker_held", "stage", "as_declared", "state_after", "persist",
        "response",
    )

    def __init__(self, ctx: InvocationContext, instance, pool, epoch: int,
                 needs_resource: bool) -> None:
        self.ctx = ctx
        self.instance = instance  # the service object the method runs on
        self.pool = pool  # the ASP.NET pool serving the call
        self.epoch = epoch  # the host's boot on arrival (_zombie)
        self.needs_resource = needs_resource  # the operation works on a WS-Resource
        self.lock = None  # ... whose mutex this is, once held
        self.worker_held = False  # a thread of the pool is occupied
        self.stage = None  # the stage span now open (None when obs is off)
        self.as_declared = True  # db_load: the stored fields are the declared ones
        self.state_after = None  # what db_save must write (None: no change)
        self.persist = True  # cleared by write elision: db_save is skipped
        self.response = None  # the reply body


class WrapperService:
    """The generated WSRF-compliant wrapper around an author's service."""

    #: tells IIS to delegate worker-thread accounting (see IisServer.handle)
    manages_worker_pool = True

    def __init__(
        self,
        service_cls: Type[ServiceSkeleton],
        machine,
        path: str,
        store: Optional[ResourceStore] = None,
        perf: bool = False,
    ) -> None:
        """Deploy *service_cls* at *path* on *machine*.

        Everything a deployment holds is an attribute from here on: the
        tables read off the class (fields, resource properties, web
        methods, port types), the wrapper's own bookkeeping, and the
        state the service declares in ``ServiceSkeleton.DEPLOYMENT`` —
        wiring, per-boot working state, counters — at its initial
        values.  Whoever assembles the grid assigns the wiring right
        after this, before the deployment serves a call; readers use
        ``wrapper.<name>`` and never ask whether an attribute exists.
        (Only the brokered-notification port types of ``wsn/broker.py``,
        which any service may import, still create their state on first
        use.)
        """
        if not issubclass(service_cls, ServiceSkeleton):
            raise TypeError(
                f"{service_cls.__name__} must derive from ServiceSkeleton"
            )
        self.service_cls = service_cls
        self.machine = machine
        self.env = machine.env
        self.path = path.strip("/")
        self.service_name = self.path
        self.perf = perf
        if store is None:
            store = CachedResourceStore() if perf else BlobResourceStore()
        self.store: ResourceStore = store
        self.address = machine.service_url(self.path)

        self._fields = collect_resource_fields(service_cls)
        #: (attribute, state key) per Resource field, resolved once here
        self._field_qnames = [
            (name, desc.resolved_qname(service_cls)) for name, desc in self._fields.items()
        ]
        self._rps = collect_resource_properties(service_cls)
        self._methods = collect_web_methods(service_cls)
        ns = service_cls.SERVICE_NS
        #: body element -> (operation, function, its (argument, default)
        #: pairs: looked up here, not read off the signature per dispatch)
        self._author_ops: Dict[QName, Tuple[str, Callable, Tuple[Tuple[str, Any], ...]]] = {
            QName(ns, name): (name, fn, _argument_table(fn))
            for name, fn in self._methods.items()
        }
        self._spec_ops: Dict[QName, Tuple[type, str]] = {}
        self._pt_rps: Dict[QName, Tuple[type, Callable]] = {}
        for pt_cls in getattr(service_cls, "__wsrf_port_types__", ()):
            if not (isinstance(pt_cls, type) and issubclass(pt_cls, SpecPortType)):
                raise TypeError(f"{pt_cls!r} is not a SpecPortType")
            for body_qname, method_name in pt_cls.OPERATIONS.items():
                self._spec_ops[body_qname] = (pt_cls, method_name)
            for rp_qname, fn in pt_cls.provides_rps().items():
                self._pt_rps[rp_qname] = (pt_cls, fn)

        self._termination: Dict[str, Optional[float]] = {}
        self._resource_locks: Dict[str, object] = {}
        #: next resource-id suffix; a plain int so checkpoints capture it
        self._rid_next = 1
        #: set by the WS-Notification producer attachment
        self.publish_hook: Optional[Callable] = None
        self.notification_producer = None
        #: callbacks fired with the resource id after each destroy
        self.on_resource_destroyed: list = []
        #: the federation zone this deployment serves (None: single site)
        self.zone: Optional[str] = None
        #: diagnostics
        self.invocations = 0
        self.faults_returned = 0
        #: times the service came back from a checkpoint (restore)
        self.restarts = 0
        #: performance-layer counters (stay 0 with perf off)
        self.writes_elided = 0
        self.loads_elided = 0
        # What the service declares a deployment of it carries.
        for name, initial in service_cls.DEPLOYMENT.items():
            setattr(self, name, initial() if callable(initial) else initial)

        from repro.wsrf.client import WsrfClient

        self.client = WsrfClient(machine.network, machine.name)
        machine.iis.register_app(self.path, self)
        obs = machine.network.obs
        if obs is not None:
            obs.register_wrapper(self)
        san = self.env.san
        if san is not None:
            # Runtime lockset/happens-before sanitizer: wrap the store so
            # every row access is checked (docs/static_analysis.md).
            san.instrument_wrapper(self)

    # -- identity -------------------------------------------------------------------

    def epr_for(self, resource_id: Optional[str]) -> EndpointReference:
        if resource_id is None:
            return EndpointReference(self.address)
        return EndpointReference(self.address, {RESOURCE_ID: str(resource_id)})

    def service_epr(self) -> EndpointReference:
        return self.epr_for(None)

    # -- resource management ----------------------------------------------------------

    def _state_from_instance(self, instance) -> Dict[QName, Any]:
        return {qname: getattr(instance, name) for name, qname in self._field_qnames}

    def load_resource(self, resource_id: str) -> ServiceSkeleton:
        """The stored WS-Resource as a service object with its fields
        set and no invocation context: how code outside a web method
        (recovery hooks, detached watchers, service-level operations)
        reads fields by name.  Raises ``NoSuchResource``; charges no db
        time — a detached caller yields ``machine.db_delay()`` itself."""
        state = self.store.load(self.service_name, resource_id)
        instance = self.service_cls()
        for name, qname in self._field_qnames:
            if qname in state:
                setattr(instance, name, state[qname])
        return instance

    def save_resource(self, resource_id: str, instance: ServiceSkeleton) -> None:
        """Write *instance*'s fields back (the counterpart of
        :meth:`load_resource`; hold the resource lock across both)."""
        self.store.save(self.service_name, resource_id, self._state_from_instance(instance))

    def create_resource_from_fields(self, fields: Dict[str, Any]) -> str:
        unknown = set(fields) - set(self._fields)
        if unknown:
            raise ValueError(
                f"{self.service_cls.__name__} has no Resource fields {sorted(unknown)}"
            )
        probe = self.service_cls()
        for name, value in fields.items():
            setattr(probe, name, value)
        state = self._state_from_instance(probe)
        rid = f"{self.path}-r{self._rid_next:05d}"
        self._rid_next += 1
        self.store.create(self.service_name, rid, state)
        return rid

    def destroy_resource(self, resource_id: str) -> None:
        try:
            self.store.destroy(self.service_name, resource_id)
        except NoSuchResource:
            raise self._unknown_resource(resource_id) from None
        self._termination.pop(resource_id, None)
        for callback in self.on_resource_destroyed:
            callback(resource_id)

    def _unknown_resource(self, resource_id) -> ResourceUnknownFault:
        return ResourceUnknownFault(
            description=f"no resource {resource_id!r} at {self.address}",
            timestamp=self.env.now,
        )

    def resource_ids(self):
        return self.store.list_ids(self.service_name)

    # -- termination times ---------------------------------------------------------------

    def set_termination_time(self, resource_id: str, when: Optional[float]) -> None:
        self._termination[resource_id] = when

    def get_termination_time(self, resource_id: str) -> Optional[float]:
        return self._termination.get(resource_id)

    # -- per-resource serialization ------------------------------------------------

    def resource_lock(self, resource_id: str) -> Lock:
        """The mutex serializing invocations (and watchers) on a resource.

        Without this, two concurrent handlers doing load-modify-save on
        the same WS-Resource would silently lose updates.
        """
        lock = self._resource_locks.get(resource_id)
        if lock is None:
            lock = Lock(self.env)
            self._resource_locks[resource_id] = lock
            san = self.env.san
            if san is not None:
                san.label_lock(
                    lock,
                    f"{self.machine.name}:{self.service_name}/{resource_id}",
                )
        return lock

    def release_resource_lock(self, resource_id: str, lock: Lock) -> None:
        """Release *lock*, and forget it once its resource is gone.

        Every job, directory and subscription gets a mutex on first use;
        dropped nowhere, the table grows with every resource ever
        created.  The entry goes only when the row no longer exists and
        the release left the lock free: a lock handed to a waiter stays
        locked, and that waiter's own release comes back here.
        """
        lock.release()
        if (
            not lock.locked
            and self._resource_locks.get(resource_id) is lock
            and not self.store.exists(self.service_name, resource_id)
        ):
            del self._resource_locks[resource_id]

    def start_sweeper(self, period: float = 1.0):
        """Spawn the lifetime sweeper enforcing scheduled termination."""

        def sweeper(env):
            while True:
                yield env.timeout(period)
                now = env.now
                expired = [
                    rid
                    for rid, when in self._termination.items()
                    if when is not None and when <= now
                ]
                for rid in expired:
                    # Take the resource lock: an in-flight invocation may be
                    # mid load-modify-save on this resource, and destroying
                    # it under that handler loses its write (or resurrects
                    # the resource when the handler saves after us).
                    lock = self.resource_lock(rid)
                    yield lock.acquire()
                    try:
                        try:
                            instance = self.load_resource(rid)
                        except NoSuchResource:
                            self._termination.pop(rid, None)
                            continue
                        ctx = InvocationContext(self, rid, None, None)
                        instance._invocation = ctx
                        instance.wsrf_on_destroy()
                        self.destroy_resource(rid)
                        # The destroy is persisted; deferred sends may go.
                        ctx._flush_outbox()
                    finally:
                        self.release_resource_lock(rid, lock)

        return self.env.process(sweeper(self.env))

    # -- crash-restart ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Checkpoint this service's durable state (docs/durability.md).

        Durable means what a real host would find on disk after a power
        cut: the resource-store contents (store writes are synchronous
        in the simulation, hence instantly durable), the scheduled
        termination times and the resource-id allocator.  Everything
        else — resource locks, the perf layer's blob cache, a producer's
        subscription mirror — is process memory and is rebuilt on
        :meth:`restore`.
        """
        return {
            "store": self.store.snapshot(),
            "termination": dict(self._termination),
            "rid_next": self._rid_next,
        }

    def restore(self, snap: Dict[str, Any]) -> None:
        """Bring the service back from *snap* after its host bounced.

        The store is overwritten **in place** (detached watchers, the
        producer attachment and the testbed all hold references to it)
        and volatile per-boot state is dropped: locks died with their
        holders, the blob cache may describe rolled-back writes
        (``CachedResourceStore.restore`` clears it), and in-memory
        mirrors are rebuilt from persisted rows.  Finishes by invoking
        the author-side :meth:`ServiceSkeleton.wsrf_recover` hook.
        """
        obs = self.machine.network.obs
        span = None
        if obs is not None:
            span = obs.start_span(
                "wsrf.recover",
                attrs={"service": self.path, "host": self.machine.name},
            )
        self.store.restore(snap["store"])
        san = self.env.san
        if san is not None:
            # The rollback invalidated the crashed boot's access history.
            san.on_recovery_begin(self)
        self._termination = dict(snap["termination"])
        self._rid_next = snap["rid_next"]
        self._resource_locks = {}
        self.restarts += 1
        if self.notification_producer is not None:
            self.notification_producer.rebuild_from_store()
        self.service_cls.wsrf_recover(self)
        if san is not None:
            # Dispatches arriving after the host is back up are causally
            # after everything recovery wrote.
            san.on_recovery_end(self)
        if span is not None:
            obs.finish(span)

    def _zombie(self, epoch: int) -> Optional[DeliveryError]:
        """The error that aborts a dispatch whose host crashed since it
        started (None while the boot it arrived in is still up).

        A handler that straddles a crash is a zombie of the previous
        boot: its writes were never persisted (the checkpoint predates
        them) and its reply must not leave the host.  Raising
        :class:`~repro.net.network.DeliveryError` models the client-side
        connection reset; retry policies take it from there.
        """
        host = self.machine.host
        if host.down or host.boot_epoch != epoch:
            return DeliveryError(
                f"host {self.machine.name!r} went down mid-dispatch; "
                "unpersisted work is discarded (write-ahead contract)"
            )
        return None

    # -- notifications ------------------------------------------------------------------

    def publish(self, topic, payload, parent_span=None) -> None:
        if self.publish_hook is None:
            raise RuntimeError(
                f"service {self.path!r} does not import the "
                "NotificationProducer port type"
            )
        self.publish_hook(topic, payload, parent_span=parent_span)

    # -- resource properties --------------------------------------------------------------

    def rp_element(self, instance, qname: QName) -> Element:
        rp = self._rps.get(qname)
        if rp is not None:
            return rp_value_element(qname, rp.fget(instance))
        pt_entry = self._pt_rps.get(qname)
        if pt_entry is not None:
            pt_cls, fn = pt_entry
            return rp_value_element(qname, fn(pt_cls(self, instance)))
        raise InvalidResourcePropertyQNameFault(
            description=f"service {self.path!r} exposes no resource property {qname}",
            timestamp=self.env.now,
        )

    def set_rp_value(self, instance, qname: QName, value) -> None:
        rp = self._rps.get(qname)
        if rp is None:
            raise InvalidResourcePropertyQNameFault(
                description=f"no resource property {qname}", timestamp=self.env.now
            )
        if rp.fset is None:
            raise UnableToModifyResourcePropertyFault(
                description=f"resource property {qname} is read-only",
                timestamp=self.env.now,
            )
        rp.fset(instance, value)

    def set_rp_from_element(self, instance, rp_el: Element) -> None:
        self.set_rp_value(instance, rp_el.tag, from_typed_element(rp_el))

    def build_rp_document(self, instance) -> Element:
        root = Element(QName(self.service_cls.SERVICE_NS, "ResourceProperties"))
        for qname, rp in self._rps.items():
            root.append(rp_value_element(qname, rp.fget(instance)))
        for qname, (pt_cls, fn) in self._pt_rps.items():
            root.append(rp_value_element(qname, fn(pt_cls(self, instance))))
        return root

    # -- the dispatch pipeline ---------------------------------------------------------------

    def handle_soap(self, payload: str, delivery, pool=None):
        """IIS-facing entry point; a simulation coroutine.  Whatever
        the message, it ends here as a reply, a fault or a counted drop
        (:mod:`repro.soap.endpoint`)."""
        self.invocations += 1
        network = self.machine.network
        try:
            envelope = read_request(payload, network.codec)
        except SoapFault as fault:
            self.faults_returned += 1
            return reject(network, delivery, None, fault)
        rid = envelope.addressing.to_epr.get(RESOURCE_ID)
        obs = network.obs
        span = None
        if obs is not None:
            span = obs.start_span(
                "wsrf.dispatch",
                message_id=delivery.message_id or envelope.addressing.message_id or None,
                attrs={
                    "service": self.path,
                    "host": self.machine.name,
                    "operation": envelope.body.tag.local,
                },
            )
        try:
            response_body = yield from self._dispatch(
                envelope, rid, delivery, pool, span=span
            )
        except SoapFault as fault:
            self.faults_returned += 1
            if span is not None:
                span.attrs["fault"] = fault.code
            return reject(network, delivery, envelope, fault)
        except (SecurityError, ValueError, TypeError, LookupError, AttributeError) as exc:
            # Author code raising is the service's fault (NoSuchResource
            # and KeyError are LookupErrors; a decoded argument of the
            # wrong shape surfaces as any of the last four); anything
            # else is a bug.
            self.faults_returned += 1
            if span is not None:
                span.attrs["fault"] = type(exc).__name__
            return reject(network, delivery, envelope, server_fault(exc))
        finally:
            if span is not None:
                obs.spans.finish_subtree(span)
        return reply_text(network.codec, delivery, envelope, response_body)

    def _dispatch(self, envelope: SoapEnvelope, rid, delivery, pool=None, span=None):
        """Take one invocation through the Fig. 1 stages (:attr:`_STAGES`).

        The loop below is the one place a stage span opens and closes.
        A stage ends the dispatch either by *returning* the fault — it
        is raised once the stage's span has closed — or by raising it,
        which leaves the span open for ``handle_soap``'s
        ``finish_subtree`` to close after the dispatch span (the event
        log tells the two apart).  docs/observability.md has the table.
        """
        tag = envelope.body.tag
        obs = self.machine.network.obs if span is not None else None
        if obs is not None:
            # EPR resolution (reading ResourceID out of the headers) costs
            # no simulated time; the zero-length stage still marks Fig. 1
            # step 1 in the trace.
            obs.finish(obs.start_span(
                "wsrf.dispatch.epr_resolve", parent=span,
                attrs={"service": self.path, "resource_id": rid or ""},
            ))
        author_op = self._author_ops.get(tag)
        if author_op is not None:
            needs_resource = author_op[1].__web_method__["requires_resource"]
        elif tag in self._spec_ops:
            optional = tag in self._spec_ops[tag][0].OPTIONAL_RESOURCE_OPS
            needs_resource = not optional or rid is not None
        else:
            raise SoapFault(
                "soap:Client",
                f"service {self.path!r} has no operation for body element {tag}",
            )
        # The epoch says which boot of this host the invocation belongs
        # to; a restart mid-dispatch turns the handler into a zombie.
        call = _Call(
            InvocationContext(self, rid, envelope, delivery, span=span),
            self.service_cls(), pool, self.machine.host.boot_epoch, needs_resource,
        )
        san = self.env.san
        if san is not None:
            # Joins the service's recovery clock and reports reentrant
            # dispatch of a resource this call stack already holds.
            san.on_dispatch_enter(self.machine.name, self.service_name, rid)
        try:
            for name, stage, applies in self._STAGES:
                if applies is not None and not applies(call):
                    continue
                if obs is not None:
                    call.stage = obs.start_span(
                        name, parent=span, attrs={"service": self.path}
                    )
                fault = yield from stage(self, call)
                if obs is not None:
                    obs.finish(call.stage)
                if fault is not None:
                    raise fault
            # What the sends describe is durable now (under write elision
            # it already was before this dispatch).
            call.ctx._flush_outbox()
            return call.response
        finally:
            # Fault paths reach here with the outbox unflushed: those
            # sends are discarded, not delayed (their state never made
            # it to the database).  Closing the context makes any later
            # send_after_persist from detached watchers fire directly.
            call.ctx._outbox_closed = True
            if call.worker_held:
                pool.release()
            if call.lock is not None:
                self.release_resource_lock(rid, call.lock)
            if san is not None:
                san.on_dispatch_exit(self.machine.name, self.service_name, rid)

    def _queue(self, call: _Call):
        """Wait for the resource's mutex, then for an ASP.NET worker
        thread.  A stage of its own so the stages partition the whole
        dispatch span: every simulated wait lands in exactly one."""
        if call.needs_resource:
            rid = call.ctx.resource_id
            if rid is None:
                return ResourceUnknownFault(
                    description=(
                        f"operation {call.ctx.envelope.body.tag.local} requires a "
                        "WS-Resource but the EPR carries no ResourceID "
                        "reference property"
                    ),
                    timestamp=self.env.now,
                )
            lock = self.resource_lock(rid)
            yield lock.acquire()
            call.lock = lock
        # Resource lock first, worker thread second: lock waiters must
        # not occupy the ASP.NET pool (re-entrancy deadlock hazard).
        if call.pool is not None:
            yield call.pool.acquire()
            call.worker_held = True
            yield self.env.timeout(self.machine.params.iis_dispatch_s)
        return self._zombie(call.epoch)

    def _db_load(self, call: _Call):
        """Read the WS-Resource's state and hand it to the instance."""
        rid = call.ctx.resource_id
        cached = self.store.is_cached(self.service_name, rid)
        if call.stage is not None and self.perf:
            call.stage.attrs["cache"] = "hit" if cached else "miss"
        if cached:
            # The state is served from the write-through cache: no
            # database access, no db delay.  The resource lock is held,
            # so nothing can invalidate the entry between the is_cached
            # probe and the load.
            self.loads_elided += 1
        else:
            yield self.machine.db_delay()
        try:
            kept = self.store.load_kept(self.service_name, rid)
        except NoSuchResource:
            raise self._unknown_resource(rid) from None
        # Nothing is copied here: Resource.__get__ copies a field out of
        # the kept state when the method first reads it.  An immutable
        # leaf is its own copy, so it is set now and read without a call.
        fields = self._field_qnames
        loaded = call.instance._kept = {}
        attrs = call.instance.__dict__
        for name, qname in fields:
            if qname in kept:
                value = loaded[name] = kept[qname]
                if type(value) in IMMUTABLE_LEAVES:
                    attrs[name] = value
        call.as_declared = len(loaded) == len(kept) == len(fields)

    def _method(self, call: _Call):
        """Run the author's web method or the spec port type's, then
        work out what the db_save stage has to persist."""
        ctx, instance = call.ctx, call.instance
        body = ctx.envelope.body
        instance._invocation = ctx
        if call.stage is not None:
            call.stage.attrs["operation"] = body.tag.local
        author_op = self._author_ops.get(body.tag)
        if author_op is not None:
            name, fn, arguments = author_op
            result = fn(instance, **self._deserialize_args(fn, arguments, body))
            if inspect.isgenerator(result):
                result = yield from result
            call.response = self._serialize_author_result(name, result)
        else:
            pt_cls, method_name = self._spec_ops[body.tag]
            result = getattr(pt_cls(self, instance), method_name)(body)
            if inspect.isgenerator(result):
                result = yield from result
            call.response = result
        # A crash between the method and the db_save stage rolls the
        # state back to the checkpoint: no save, no reply, and the
        # outbox dies unflushed (the write-ahead contract's whole
        # point — nothing announces state that was never persisted).
        zombie = self._zombie(call.epoch)
        if zombie is not None:
            return zombie
        # Save state if anything changed and the resource still exists
        # (the method may have destroyed it).
        if call.needs_resource:
            state = self._changed_state(instance, call.as_declared)
            if state is not None and self.store.exists(self.service_name, ctx.resource_id):
                call.state_after = state
        if self.perf and call.state_after is None and ctx.db_ops == 0:
            # Nothing to persist: skip the db_save stage entirely.
            # (WSRF.NET's pipeline opens it unconditionally, so the
            # default path keeps the stage even when empty.)
            self.writes_elided += 1
            call.persist = False

    def _changed_state(self, instance, as_declared: bool) -> Optional[Dict[QName, Any]]:
        """The state to write after the method ran on *instance*, or
        None when it changed nothing.

        Only the fields the method read or assigned are instance
        attributes.  Each is compared with its kept value under
        :func:`~repro.db.same_field`, so a field changed in place
        counts.  Every other field is written as the kept value itself,
        which the encoder copies out of the old blob without walking it.
        A stored key set that is not the declared one (not
        *as_declared*) is a change."""
        loaded = instance._kept
        touched = instance.__dict__
        changes = {}
        for name, old in loaded.items():
            value = touched.get(name, old)
            if value is not old and not same_field(value, old):
                changes[name] = value
        if not changes and as_declared:
            return None
        return {
            qname: changes[name] if name in changes
            else loaded[name] if name in loaded
            else getattr(instance, name)  # not stored: as assigned, or the default
            for name, qname in self._field_qnames
        }

    def _db_save(self, call: _Call):
        """Write back what the method changed, then pay for the rows it
        created or destroyed."""
        if call.state_after is not None:
            yield self.machine.db_delay()
            zombie = self._zombie(call.epoch)
            if zombie is not None:
                raise zombie
            self.store.save(self.service_name, call.ctx.resource_id, call.state_after)
        # Resource create/destroy from author code is synchronous; the DB
        # time it implies is charged here, after the method returns.
        for _ in range(call.ctx.db_ops):
            yield self.machine.db_delay()

    #: Fig. 1 in order: (span name, stage coroutine, the per-call flag
    #: that must be set for the stage to run — None: it always does)
    _STAGES = (
        ("wsrf.dispatch.queue", _queue, None),
        ("wsrf.dispatch.db_load", _db_load, attrgetter("needs_resource")),
        ("wsrf.dispatch.method", _method, None),
        ("wsrf.dispatch.db_save", _db_save, attrgetter("persist")),
    )

    def _deserialize_args(self, fn, arguments, body: Element) -> Dict[str, Any]:
        kwargs: Dict[str, Any] = {}
        by_local = {child.tag.local: child for child in body.children}
        for name, default in arguments:
            child = by_local.get(name)
            if child is not None:
                kwargs[name] = from_typed_element(child)
            elif default is not inspect.Parameter.empty:
                kwargs[name] = default
            else:
                raise SoapFault(
                    "soap:Client",
                    f"operation {fn.__name__!r} is missing argument {name!r}",
                )
        return kwargs

    def _serialize_author_result(self, name: str, result) -> Element:
        ns = self.service_cls.SERVICE_NS
        if isinstance(result, Element) and result.tag.local == f"{name}Response":
            return result
        response = Element(QName(ns, f"{name}Response"))
        if result is not None:
            response.append(to_typed_element(QName(ns, f"{name}Result"), result))
        return response


def deploy(
    service_cls: Type[ServiceSkeleton],
    machine,
    path: str,
    store: Optional[ResourceStore] = None,
    perf: bool = False,
) -> WrapperService:
    """Run the WSRF.NET tooling: wrap *service_cls* and host it in IIS.

    ``perf=True`` opts this service into the hot-path performance layer
    (docs/performance.md); the default keeps the unoptimized Fig. 1
    pipeline.  A *store* passed explicitly is used as given, with or
    without *perf*.
    """
    return WrapperService(service_cls, machine, path, store=store, perf=perf)
