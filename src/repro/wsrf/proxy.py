"""WSDL-driven client proxy generation.

§5: "custom interfaces for manipulating state could be designed, and
consumed by clients using standard WSDL tooling to create proxy
classes."  This module is that tooling: point it at a service's WSDL
and it emits a proxy object with one method per advertised operation —
the pre-WSRF way of talking to a service, provided here both as the
D-1 baseline and because it is genuinely convenient.

Example::

    wsdl = generate_wsdl(wrapper)           # or fetched out-of-band
    proxy = build_proxy(client, wsdl, epr)
    result = yield from proxy.MyMethod(suffix="!")   # -> typed value

Spec-defined port types advertised in the WSDL surface as well:
``proxy.GetResourceProperty(qname)``, ``proxy.Destroy()``, etc., mapped
onto the generic client plumbing.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.wsa import EndpointReference
from repro.wsrf.client import WsrfClient
from repro.wsrf.wsdl import wsdl_operations, wsdl_resource_properties
from repro.xmlx import NS, Element

#: spec operations the proxy maps onto dedicated client methods
_SPEC_BINDINGS = {
    "GetResourceProperty": "get_resource_property",
    "GetMultipleResourceProperties": "get_multiple_resource_properties",
    "QueryResourceProperties": "query_resource_properties",
    "SetResourceProperties": "set_resource_properties",
    "Destroy": "destroy",
    "SetTerminationTime": "set_termination_time",
}


class ServiceProxy:
    """A dynamically-built proxy for one WS-Resource (or service)."""

    def __init__(
        self,
        client: WsrfClient,
        epr: EndpointReference,
        service_ns: str,
        operations: Dict[str, str],
        resource_properties,
    ) -> None:
        self._client = client
        self._epr = epr
        self._service_ns = service_ns
        self._operations = operations  # name -> "author" | spec binding
        self.advertised_resource_properties = list(resource_properties)

    @property
    def epr(self) -> EndpointReference:
        return self._epr

    def at(self, epr: EndpointReference) -> "ServiceProxy":
        """The same interface bound to a different WS-Resource."""
        return ServiceProxy(
            self._client,
            epr,
            self._service_ns,
            self._operations,
            self.advertised_resource_properties,
        )

    def operations(self):
        return sorted(self._operations)

    def __getattr__(self, name: str):
        operations = object.__getattribute__(self, "_operations")
        if name not in operations:
            raise AttributeError(
                f"service advertises no operation {name!r} "
                f"(has: {sorted(operations)})"
            )
        binding = operations[name]
        client = self._client
        epr = self._epr
        ns = self._service_ns

        if binding == "author":

            def author_call(**kwargs):
                return client.call(epr, ns, name, kwargs or None)

            author_call.__name__ = name
            return author_call

        bound = getattr(client, binding)

        def spec_call(*args, **kwargs):
            return bound(epr, *args, **kwargs)

        spec_call.__name__ = name
        return spec_call

    def __repr__(self) -> str:
        return f"<ServiceProxy {self._epr.address!r} ops={self.operations()}>"


def build_proxy(
    client: WsrfClient,
    wsdl_doc: Element,
    epr: EndpointReference,
    service_ns: Optional[str] = None,
) -> ServiceProxy:
    """Generate a proxy from a WSDL document (the §5 'standard tooling');
    its calls retry under *client*'s retry policy."""
    if service_ns is None:
        service_ns = wsdl_doc.get("targetNamespace") or NS.UVACG
    ops: Dict[str, str] = {}
    by_port_type = wsdl_operations(wsdl_doc)
    for port_type, names in by_port_type.items():
        for name in names:
            if name in _SPEC_BINDINGS:
                ops[name] = _SPEC_BINDINGS[name]
            elif port_type.endswith("PortType") and not port_type.startswith(
                ("Get", "Set", "Query", "Immediate", "Scheduled", "Notification")
            ):
                ops[name] = "author"
            else:
                # Unmapped spec operation (Subscribe, Pause, ...): expose
                # generically via raw invoke with a one-element body.
                ops.setdefault(name, "author")
    rps = wsdl_resource_properties(wsdl_doc)
    return ServiceProxy(client, epr, service_ns, ops, rps)
