"""WAL001 fixtures: notifications racing the db_save stage.

WAL001 flags ``fire_and_forget`` in place inside a ServiceSkeleton
subclass, and follows it through helper layers and into port-type
methods, which run in the same dispatch pipeline without subclassing
ServiceSkeleton.
"""

from repro.wsn.base_notification import build_notify_body, fire_and_forget
from repro.wsrf.attributes import ServiceSkeleton, WebMethod
from repro.wsrf.porttypes import SpecPortType
from repro.xmlx import NS, Element, QName


class EagerAnnouncer(ServiceSkeleton):
    SERVICE_NS = NS.UVACG

    done = None  # stands in for a Resource field in this fixture

    @WebMethod
    def Finish(self) -> str:
        self.done = True
        payload = Element(QName(NS.UVACG, "Done"))
        body = build_notify_body("jobs/done", payload, self.wsrf.my_epr())
        # WAL001: the Notify leaves before db_save persists done=True;
        # a crash in between acknowledges state that no longer exists.
        fire_and_forget(self.env, self.client, self.wsrf.my_epr(), body)
        return "ok"

    @WebMethod
    def FinishSafely(self) -> str:
        self.done = True
        payload = Element(QName(NS.UVACG, "Done"))
        body = build_notify_body("jobs/done", payload, self.wsrf.my_epr())
        # OK: queued on the invocation outbox, sent only after db_save.
        self.wsrf.send_after_persist(self.wsrf.my_epr(), body)
        return "ok"


def relay(env, client, epr, body):
    # OK in place: module-level helper, not service code — the
    # infrastructure (producers, batchers) legitimately sends
    # fire-and-forget.  It only becomes a WAL001 finding when a
    # dispatch-pipeline method reaches it (LayeredAnnouncer below).
    fire_and_forget(env, client, epr, body)


class LayeredAnnouncer(ServiceSkeleton):
    SERVICE_NS = NS.UVACG

    @WebMethod
    def FinishLayered(self, epr, body) -> str:
        # WAL001 (depth 1): the raw send hides one helper down — a
        # lexical scan never sees it, the call graph does.
        relay(self.env, self.client, epr, body)
        return "ok"


def _route_safely(ctx, epr, body):
    # OK: the helper rides the invocation outbox.
    ctx.send_after_persist(epr, body)


class LayeredSafeAnnouncer(ServiceSkeleton):
    SERVICE_NS = NS.UVACG

    @WebMethod
    def FinishSafelyLayered(self, epr, body) -> str:
        # OK: helper chain ends in send_after_persist, not a raw send.
        _route_safely(self.wsrf, epr, body)
        return "ok"


class DemandSignalPortType(SpecPortType):
    """A port type sending raw — the dispatch pipeline without
    ServiceSkeleton, seen through WAL001's dispatch-class closure."""

    def signal(self, request: Element) -> Element:
        body = Element(QName(NS.UVACG, "Signal"))
        # WAL001 (depth 0): a port-type method is dispatch code too.
        fire_and_forget(self.wrapper.env, self.wrapper.client, request, body)
        return body


class DeferredAnnouncer(ServiceSkeleton):
    SERVICE_NS = NS.UVACG

    @WebMethod
    def FinishLater(self, epr, body) -> str:
        def announce(env):
            yield env.timeout(1.0)
            # WAL001 (depth 0): a closure of the web method is still
            # lexically service code, and it sends raw.
            fire_and_forget(env, self.client, epr, body)

        # WAL001 (depth 1): the web method starts the process that sends.
        self.env.process(announce(self.env))
        return "ok"

    def _announce_now(self, epr, body):
        # WAL001 (depth 0): a non-web method of a service class runs in the
        # dispatch that calls it.
        fire_and_forget(self.env, self.client, epr, body)
