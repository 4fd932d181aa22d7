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
import math
from typing import Any, Callable, Dict, Optional, Tuple, Type

from repro.db import (
    SHARED_ON_READ,
    BlobResourceStore,
    CachedResourceStore,
    NoSuchResource,
    ResourceStore,
    same_field,
)
from repro.net.network import DeliveryError
from repro.sim import Lock
from repro.soap import SoapEnvelope, SoapFault, from_typed_element, typed_value
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
from repro.wsrf.lifetime import Destroy
from repro.wsrf.porttypes import SpecPortType
from repro.wssec import SecurityError, UsernameToken, open_security_header
from repro.xmlx import NS, Element, QName

#: the reference property WSRF.NET keys resource lookup on
RESOURCE_ID = QName(NS.UVACG, "ResourceID")

_WSSE_SECURITY = QName(NS.WSSE, "Security")


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
        never hears about state that no longer exists).  Called after
        its invocation finished (e.g. by a process watcher once its
        :meth:`WrapperService.run_local` returned), the send fires
        immediately.
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
        "ctx", "body", "instance", "pool", "epoch", "needs_resource", "run", "lock",
        "worker_held", "stage", "kept", "state_after", "response",
    )

    def __init__(self, ctx: InvocationContext, body, instance, pool, epoch: int) -> None:
        self.ctx = ctx
        self.body = body  # the request body, or an internal operation (run_local)
        self.instance = instance  # the service object the method runs on
        self.pool = pool  # the ASP.NET pool serving the call
        self.epoch = epoch  # the host's boot on arrival (_zombie)
        self.needs_resource = False  # epr_resolve: the operation works on a WS-Resource
        self.run = None  # ... and the operation's run (WrapperService._ops)
        self.lock = None  # ... whose mutex this is, once held
        self.worker_held = False  # a thread of the pool is occupied
        self.stage = None  # the stage span now open (None when obs is off)
        self.kept = None  # db_load: the stored state, read-only
        self.state_after = None  # what db_save must write (None: no change)
        self.response = None  # the reply body


class WrapperService:
    """The generated WSRF-compliant wrapper around an author's service;
    constructing one is running the WSRF.NET tooling (:func:`deploy`)."""

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
        """Deploy *service_cls* at *path* on *machine*, hosted in its IIS.

        ``perf=True`` opts this service into the hot-path performance
        layer (docs/performance.md); the default keeps the unoptimized
        Fig. 1 pipeline.  A *store* passed explicitly is used as given,
        with or without *perf*.

        Everything a deployment holds is an attribute from here on: the
        tables read off the class (fields, resource properties, web
        methods, port types), the wrapper's own bookkeeping, and the
        state the service declares in ``ServiceSkeleton.DEPLOYMENT`` —
        wiring, per-boot working state, counters — at its initial
        values — and what the imported port types bring
        (:meth:`SpecPortType.deployment`: a producer's subscription
        registry, a broker's publisher list).  Whoever assembles the
        grid assigns the wiring right after this, before the deployment
        serves a call; readers use ``wrapper.<name>`` and never ask
        whether an attribute exists.
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
            # State blobs share the frame memo of the network's codec.
            store = BlobResourceStore(frames=machine.network.codec.frames)
            if perf:
                store = CachedResourceStore(store)
        self.store: ResourceStore = store
        self.address = machine.service_url(self.path)

        self._fields = collect_resource_fields(service_cls)
        #: (attribute, state key) per Resource field, resolved once here
        self._field_qnames = [
            (name, desc.resolved_qname(service_cls)) for name, desc in self._fields.items()
        ]
        self._methods = collect_web_methods(service_cls)
        author_rps = collect_resource_properties(service_cls)
        #: resource property -> its setter (None: read-only); only the
        #: author's properties are settable
        self._rp_setters = {qname: rp.fset for qname, rp in author_rps.items()}
        #: resource property -> fn(service instance) -> its value: the
        #: author's, then what the imported port types provide
        self.rps = {qname: rp.fget for qname, rp in author_rps.items()}
        #: body element -> (needs-resource rule, run(instance, body) -> the
        #: reply, or a generator returning it).  The rule is True or False,
        #: or None: the operation needs a resource only when the EPR names one
        self._ops: Dict[QName, Tuple[Optional[bool], Callable]] = {}
        port_type_state: Dict[str, Callable] = {}
        for pt_cls in getattr(service_cls, "__wsrf_port_types__", ()):
            if not (isinstance(pt_cls, type) and issubclass(pt_cls, SpecPortType)):
                raise TypeError(f"{pt_cls!r} is not a SpecPortType")
            for body_qname, method_name in pt_cls.OPERATIONS.items():
                rule = None if body_qname in pt_cls.OPTIONAL_RESOURCE_OPS else True
                run = self._on_port_type(pt_cls, getattr(pt_cls, method_name))
                self._ops[body_qname] = (rule, run)
            for rp_qname, fn in pt_cls.provides_rps().items():
                if rp_qname not in author_rps:
                    self.rps[rp_qname] = self._on_port_type(pt_cls, fn)
            port_type_state.update(pt_cls.deployment())
        # An author method wins a clash with a spec operation.
        for name, fn in self._methods.items():
            self._ops[QName(service_cls.SERVICE_NS, name)] = (
                fn.__web_method__["requires_resource"], self._author_op(name, fn)
            )

        self._termination: Dict[str, Optional[float]] = {}
        self._resource_locks: Dict[str, object] = {}
        #: next resource-id suffix; a plain int so checkpoints capture it
        self._rid_next = 1
        #: the WS-Notification producer (None: the service imports no
        #: producer port type)
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
        for name, make in port_type_state.items():
            setattr(self, name, make(self))

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
        (recovery hooks, service-level operations) reads fields by name.
        Raises ``NoSuchResource``; charges no db time.  Detached code
        that changes a row runs a local dispatch (:meth:`run_local`)."""
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
        self._arm_expiry(resource_id, when)

    def _arm_expiry(self, resource_id: str, when: Optional[float]) -> None:
        """Spawn the process that destroys *resource_id* at *when* (at
        once if that has passed) with a local ``wsrl:Destroy``
        (:meth:`run_local`); a nil or infinite *when* arms nothing.

        The process belongs to this boot of the host and to this
        termination time: it does nothing if the host is down or has
        rebooted (:meth:`restore` arms the next boot's), or if *when*
        is no longer the resource's time (a later SetTerminationTime
        armed its own, nil cancelled it, a Destroy removed it).
        """
        if when is None or not math.isfinite(when):
            return
        epoch = self.machine.host.boot_epoch

        def expiry(env):
            yield env.timeout(max(when - env.now, 0.0))
            if self._termination.get(resource_id) == when:
                yield from self.run_local(resource_id, Destroy, epoch)

        self.env.process(expiry(self.env))

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
        notification producer and the testbed all hold references to it)
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
        for rid, when in self._termination.items():
            self._arm_expiry(rid, when)  # the dead boot's timers died with it
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

    def run_local(self, resource_id: str, operation: Callable, epoch: int):
        """Run *operation*(service object) on row *resource_id* through
        :attr:`_STAGES`, with no message and no worker thread: how
        detached work changes a row.  A coroutine returning its result,
        or None when the row is gone, it faulted, or the host went down
        or rebooted since boot *epoch*.  An internal operation is not in
        :attr:`_ops`, so no SOAP body reaches it."""
        if self._zombie(epoch) is not None:
            return None
        try:
            response, _ = yield from self._dispatch(operation, resource_id)
        except DeliveryError:
            return None  # the host went down mid-dispatch; nothing was saved
        return response

    # -- notifications ------------------------------------------------------------------

    def publish(self, topic, payload, parent_span=None) -> None:
        producer = self.notification_producer
        if producer is None:
            raise RuntimeError(
                f"service {self.path!r} does not import the "
                "NotificationProducer port type"
            )
        producer.publish(topic, payload, parent_span=parent_span)

    # -- resource properties --------------------------------------------------------------

    def set_rp_value(self, instance, qname: QName, value) -> None:
        if qname not in self._rp_setters:
            raise InvalidResourcePropertyQNameFault(
                description=f"no resource property {qname}", timestamp=self.env.now
            )
        fset = self._rp_setters[qname]
        if fset is None:
            raise UnableToModifyResourcePropertyFault(
                description=f"resource property {qname} is read-only",
                timestamp=self.env.now,
            )
        fset(instance, value)

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
        response_body, fault = yield from self._dispatch(
            envelope.body, envelope.addressing.to_epr.get(RESOURCE_ID),
            envelope, delivery, pool,
        )
        if fault is not None:
            return reject(network, delivery, envelope, fault)
        return reply_text(network.codec, delivery, envelope, response_body)

    def _dispatch(self, body, rid, envelope: Optional[SoapEnvelope] = None,
                  delivery=None, pool=None):
        """Take one invocation through the Fig. 1 stages (:attr:`_STAGES`)
        in its ``wsrf.dispatch`` span; returns ``(reply body, None)``, or
        ``(None, fault)`` once the fault is counted.  A request arrives
        with its *envelope* and *delivery*; a local dispatch
        (:meth:`run_local`) has neither, no worker *pool*, and its
        *body* is the internal operation itself.

        The loop below is the one place a stage span opens and closes.
        A stage ends the dispatch either by *returning* the fault — it
        is raised once the stage's span has closed — or by raising it,
        which leaves the span open for the ``finally`` below to close
        after the dispatch span (the event log tells the two apart).
        A stage that never waits is a plain function, not a
        generator.  docs/observability.md has the table.
        """
        obs = self.machine.network.obs
        span = None
        if obs is not None:
            span = obs.start_span(
                "wsrf.dispatch",
                message_id=None if delivery is None
                else delivery.message_id or envelope.addressing.message_id or None,
                attrs={
                    "service": self.path,
                    "host": self.machine.name,
                    "operation": body.tag.local if isinstance(body, Element)
                    else body.__name__,
                },
            )
        # The epoch says which boot of this host the invocation belongs
        # to; a restart mid-dispatch turns the handler into a zombie.
        call = _Call(
            InvocationContext(self, rid, envelope, delivery, span=span), body,
            self.service_cls(), pool, self.machine.host.boot_epoch,
        )
        san = self.env.san
        if san is not None:
            # Joins the service's recovery clock.
            san.on_dispatch_enter(self.machine.name, self.service_name)
        try:
            for name, stage, gate in self._STAGES:
                if gate is not None and not gate(self, call):
                    continue
                if obs is not None:
                    call.stage = obs.start_span(
                        name, parent=span, attrs={"service": self.path}
                    )
                fault = stage(self, call)
                if inspect.isgenerator(fault):
                    fault = yield from fault
                if obs is not None:
                    obs.finish(call.stage)
                if fault is not None:
                    raise fault
            # What the sends describe is durable now (under write elision
            # it already was before this dispatch).
            call.ctx._flush_outbox()
            return call.response, None
        except SoapFault as fault:
            self.faults_returned += 1
            if span is not None:
                span.attrs["fault"] = fault.code
            return None, fault
        except (SecurityError, ValueError, TypeError, LookupError, AttributeError) as exc:
            # Author code raising is the service's fault (NoSuchResource
            # and KeyError are LookupErrors; a decoded argument of the
            # wrong shape surfaces as any of the last four); anything
            # else is a bug.
            self.faults_returned += 1
            if span is not None:
                span.attrs["fault"] = type(exc).__name__
            return None, server_fault(exc)
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
            if span is not None:
                obs.finish(span)
                obs.finish(call.stage)  # still open if its stage raised

    def _epr_resolve(self, call: _Call):
        """Route the body to its operation (:attr:`_ops`); an internal
        operation is its own.  Reading ResourceID out of the EPR costs
        no simulated time; the zero-length stage still marks Fig. 1
        step 1 in the trace."""
        rid = call.ctx.resource_id
        if call.stage is not None:
            call.stage.attrs["resource_id"] = rid or ""
        if not isinstance(call.body, Element):
            call.needs_resource = True
            call.run = lambda instance, operation: operation(instance)
            return None
        tag = call.body.tag
        op = self._ops.get(tag)
        if op is None:
            return SoapFault(
                "soap:Client",
                f"service {self.path!r} has no operation for body element {tag}",
            )
        rule, call.run = op
        call.needs_resource = rid is not None if rule is None else rule
        return None

    def _queue(self, call: _Call):
        """Wait for the resource's mutex, then for an ASP.NET worker
        thread.  A stage of its own so the stages partition the whole
        dispatch span: every simulated wait lands in exactly one."""
        if call.needs_resource:
            rid = call.ctx.resource_id
            if rid is None:
                return ResourceUnknownFault(
                    description=(
                        f"operation {call.body.tag.local} requires a "
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
        # leaf or an EPR is its own read copy (read_copy), so it is set
        # now and read without a call.
        call.kept = kept
        loaded = call.instance._kept = {}
        attrs = call.instance.__dict__
        for name, qname in self._field_qnames:
            if qname in kept:
                value = loaded[name] = kept[qname]
                if type(value) in SHARED_ON_READ:
                    attrs[name] = value

    def _method(self, call: _Call):
        """Run the operation epr_resolve routed the body to."""
        instance, body = call.instance, call.body
        instance._invocation = call.ctx
        if call.stage is not None:
            call.stage.attrs["operation"] = call.ctx.span.attrs["operation"]
        result = call.run(instance, body)
        if inspect.isgenerator(result):
            result = yield from result
        call.response = result
        # A crash between the method and the db_save stage rolls the
        # state back to the checkpoint: no save, no reply, and the
        # outbox dies unflushed (the write-ahead contract's whole
        # point — nothing announces state that was never persisted).
        return self._zombie(call.epoch)

    def _dirty(self, call: _Call) -> bool:
        """db_save's gate: work out what the method changed.  Under the
        perf layer a dispatch with nothing to persist skips the stage
        (write elision); WSRF.NET's pipeline opens it unconditionally,
        so the default path keeps the stage even when empty."""
        ctx = call.ctx
        # Save state if anything changed and the resource still exists
        # (the method may have destroyed it).
        if call.needs_resource:
            state = self._changed_state(call.instance, call.kept)
            if state is not None and self.store.exists(self.service_name, ctx.resource_id):
                call.state_after = state
        if not self.perf or call.state_after is not None or ctx.db_ops:
            return True
        self.writes_elided += 1
        return False

    def _changed_state(self, instance, kept) -> Optional[Dict[QName, Any]]:
        """The state to write after the method ran on *instance*, whose
        row stored *kept*, or None when it changed nothing.

        Only the fields the method read or assigned are instance
        attributes.  Each is compared with its kept value under
        :func:`~repro.db.same_field`, so a field changed in place
        counts.  Every other field is written as the kept value itself,
        which the encoder copies out of the old blob without walking it.
        A declared field the row does not store is a change, unless the
        row stores keys beside the declared ones: it is someone else's
        too (a producer's subscription), and such a field changed only
        if the method assigned it.  The write carries those keys."""
        loaded = instance._kept
        touched = instance.__dict__
        changes = {}
        for name, old in loaded.items():
            value = touched.get(name, old)
            if value is not old and not same_field(value, old):
                changes[name] = value
        foreign = len(kept) > len(loaded)
        if foreign:
            changes.update(
                (name, touched[name]) for name, _ in self._field_qnames
                if name not in loaded and name in touched
            )
        if not changes and (foreign or len(loaded) == len(self._field_qnames)):
            return None
        state = {
            qname: changes[name] if name in changes
            else loaded[name] if name in loaded
            else getattr(instance, name)  # not stored: as assigned, or the default
            for name, qname in self._field_qnames
        }
        if foreign:
            state.update((key, value) for key, value in kept.items() if key not in state)
        return state

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

    #: Fig. 1 in order: (span name, stage, gate(wrapper, call) that must
    #: hold for the stage to run — None: it always does)
    _STAGES = (
        ("wsrf.dispatch.epr_resolve", _epr_resolve, None),
        ("wsrf.dispatch.queue", _queue, None),
        ("wsrf.dispatch.db_load", _db_load, lambda self, call: call.needs_resource),
        ("wsrf.dispatch.method", _method, None),
        ("wsrf.dispatch.db_save", _db_save, _dirty),
    )

    # -- operations -------------------------------------------------------------------

    def _on_port_type(self, pt_cls: type, fn: Callable) -> Callable:
        """*fn* of spec port type *pt_cls* as an :attr:`_ops` run or an
        :attr:`rps` getter: called on the service instance, it runs on a
        *pt_cls* bound to it."""
        return lambda instance, *args: fn(pt_cls(self, instance), *args)

    def _author_op(self, name: str, fn: Callable) -> Callable:
        """The :attr:`_ops` run of author web method *fn*: its arguments
        taken off the body, its result wrapped in ``<name>Response``."""

        def run(instance, body: Element):
            result = fn(instance, **self._deserialize_args(fn, body))
            if inspect.isgenerator(result):
                return self._reply_when_done(name, result)
            return self._serialize_author_result(name, result)

        return run

    def _reply_when_done(self, name: str, method):
        return self._serialize_author_result(name, (yield from method))

    def _deserialize_args(self, fn, body: Element) -> Dict[str, Any]:
        kwargs: Dict[str, Any] = {}
        by_local = {child.tag.local: child for child in body.children}
        for name, default in fn.__web_method__["arguments"]:
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
            response.append(typed_value(QName(ns, f"{name}Result"), result))
        return response


#: running the WSRF.NET tooling over a service is constructing its wrapper
deploy = WrapperService
