"""WS-ResourceLifetime: immediate and scheduled destruction."""

from __future__ import annotations

from typing import Callable, Dict

from repro.wsrf.basefaults import UnableToSetTerminationTimeFault
from repro.wsrf.porttypes import SpecPortType
from repro.xmlx import NS, Element, QName

DESTROY = QName(NS.WSRF_RL, "Destroy")
SET_TERMINATION_TIME = QName(NS.WSRF_RL, "SetTerminationTime")

TERMINATION_TIME_RP = QName(NS.WSRF_RL, "TerminationTime")
CURRENT_TIME_RP = QName(NS.WSRF_RL, "CurrentTime")


class ImmediateResourceTerminationPortType(SpecPortType):
    """wsrl:Destroy — destroy the WS-Resource named by the invocation EPR."""

    OPERATIONS = {DESTROY: "destroy"}

    def destroy(self, request: Element) -> Element:
        # The author hook (e.g. the ES killing the underlying process)
        # runs with state loaded, then the row is removed.
        self.instance.wsrf_on_destroy()
        self.wrapper.destroy_resource(self.wrapper_current_id())
        self.instance.wsrf.db_ops += 1
        return Element(QName(NS.WSRF_RL, "DestroyResponse"))

    def wrapper_current_id(self) -> str:
        return self.instance.wsrf.resource_id


def Destroy(instance) -> Element:
    """``wsrl:Destroy`` as an internal operation
    (:meth:`~repro.wsrf.tooling.WrapperService.run_local`): an expiry's
    or a dropped subscriber's, the wire operation without a message."""
    return ImmediateResourceTerminationPortType(instance.wsrf.wrapper, instance).destroy(None)


class ScheduledResourceTerminationPortType(SpecPortType):
    """wsrl:SetTerminationTime plus the TerminationTime/CurrentTime RPs.

    Termination times live in a wrapper-side table.  Setting one arms
    a single timer (:meth:`WrapperService.set_termination_time`); when
    it fires the wrapper runs :func:`Destroy` as a local dispatch, so
    this port type needs no :class:`ImmediateResourceTerminationPortType`
    beside it.  A nil requested time means "never terminate" and
    cancels the pending destroy.
    """

    OPERATIONS = {SET_TERMINATION_TIME: "set_termination_time"}

    def set_termination_time(self, request: Element) -> Element:
        rid = self.instance.wsrf.resource_id
        requested = request.find(QName(NS.WSRF_RL, "RequestedTerminationTime"))
        if requested is None:
            raise UnableToSetTerminationTimeFault(
                description="missing RequestedTerminationTime"
            )
        text = requested.full_text().strip()
        nil = requested.get(QName(NS.XSI, "nil")) == "true" or not text
        if nil:
            new_time = None
        else:
            try:
                new_time = float(text)
            except ValueError:
                raise UnableToSetTerminationTimeFault(
                    description=f"unparsable termination time {text!r}"
                ) from None
            # Written so NaN fails too: it compares false with everything,
            # and a NaN termination time would never come due.
            if not new_time >= self.wrapper.env.now:
                raise UnableToSetTerminationTimeFault(
                    description=(
                        f"requested termination time {new_time} is in the past "
                        f"(now {self.wrapper.env.now})"
                    )
                )
        self.wrapper.set_termination_time(rid, new_time)
        response = Element(QName(NS.WSRF_RL, "SetTerminationTimeResponse"))
        new_el = response.subelement(QName(NS.WSRF_RL, "NewTerminationTime"))
        if new_time is None:
            new_el.set(QName(NS.XSI, "nil"), "true")
        else:
            new_el.text = repr(new_time)
        response.subelement(
            QName(NS.WSRF_RL, "CurrentTime"), text=repr(self.wrapper.env.now)
        )
        return response

    @classmethod
    def provides_rps(cls) -> Dict[QName, Callable]:
        return {
            TERMINATION_TIME_RP: lambda pt: pt.wrapper.get_termination_time(
                pt.instance.wsrf.resource_id
            ),
            CURRENT_TIME_RP: lambda pt: pt.wrapper.env.now,
        }
