"""WS-ResourceProperties port types (implemented once, imported by services).

"Because WS-ResourceProperties defines a small set of interfaces with
standard behavior, it is possible to implement tooling to easily use
them" (§5).  These classes are that tooling's service side; any service
annotated with ``@WSRFPortType(...)`` responds to them without the
author writing a line of state-access code.

QNames inside request bodies travel in Clark notation
(``{uri}local``) rather than prefixed form — a documented simplification
that avoids carrying prefix scopes through the body.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.soap import from_typed_element, typed_value
from repro.wsrf.basefaults import (
    InvalidQueryExpressionFault,
    InvalidResourcePropertyQNameFault,
    UnableToModifyResourcePropertyFault,
)
from repro.xmlx import NS, Element, QName, XPathError, xpath_select

GET_RP = QName(NS.WSRF_RP, "GetResourceProperty")
GET_MULTIPLE_RP = QName(NS.WSRF_RP, "GetMultipleResourceProperties")
QUERY_RP = QName(NS.WSRF_RP, "QueryResourceProperties")
SET_RP = QName(NS.WSRF_RP, "SetResourceProperties")

#: the XPath 1.0 dialect URI from the WS-RP spec
XPATH_DIALECT = "http://www.w3.org/TR/1999/REC-xpath-19991116"


class SpecPortType:
    """Base for spec-defined port types.

    ``OPERATIONS`` maps request-body QName → method name.  Instances are
    created per invocation with the wrapper and the loaded service
    instance.  ``provides_rps`` lets a port type contribute implicit
    resource properties (e.g. TerminationTime), and ``deployment`` the
    state a deployment of a service importing it holds.
    """

    OPERATIONS: Dict[QName, str] = {}
    #: operations that may run without an EPR-named WS-Resource (e.g.
    #: Subscribe/Notify on singleton services like the NotificationBroker)
    OPTIONAL_RESOURCE_OPS: frozenset = frozenset()

    def __init__(self, wrapper, instance) -> None:
        self.wrapper = wrapper
        self.instance = instance

    @classmethod
    def provides_rps(cls) -> Dict[QName, Callable]:
        """{qname: fn(port_type_instance) -> value} of implicit RPs."""
        return {}

    @classmethod
    def deployment(cls) -> Dict[str, Callable]:
        """{attribute: fn(wrapper) -> its initial value}: what the tooling
        sets on the wrapper at deploy, once per attribute however many
        imported port types name it (WSRF.NET's ``[WSRFPortType]``
        brings a port type's functionality in when the tooling runs)."""
        return {}


def _parse_clark(text: str, fault_cls) -> QName:
    text = text.strip()
    if not text:
        raise fault_cls(description="empty resource property QName")
    try:
        return QName(text)
    except ValueError as exc:
        raise fault_cls(description=f"malformed QName {text!r}") from exc


class GetResourcePropertyPortType(SpecPortType):
    OPERATIONS = {GET_RP: "get_resource_property"}

    def get_resource_property(self, request: Element) -> Element:
        qname = _parse_clark(request.full_text(), InvalidResourcePropertyQNameFault)
        response = Element(QName(NS.WSRF_RP, "GetResourcePropertyResponse"))
        response.append(_rp_element(self, qname))
        return response


class GetMultipleResourcePropertiesPortType(SpecPortType):
    OPERATIONS = {GET_MULTIPLE_RP: "get_multiple"}

    def get_multiple(self, request: Element) -> Element:
        wanted = request.findall(QName(NS.WSRF_RP, "ResourceProperty"))
        if not wanted:
            raise InvalidResourcePropertyQNameFault(
                description="GetMultipleResourceProperties named no properties"
            )
        response = Element(
            QName(NS.WSRF_RP, "GetMultipleResourcePropertiesResponse")
        )
        for item in wanted:
            qname = _parse_clark(item.full_text(), InvalidResourcePropertyQNameFault)
            response.append(_rp_element(self, qname))
        return response


class QueryResourcePropertiesPortType(SpecPortType):
    OPERATIONS = {QUERY_RP: "query"}

    def query(self, request: Element) -> Element:
        expr_el = request.find(QName(NS.WSRF_RP, "QueryExpression"))
        if expr_el is None:
            raise InvalidQueryExpressionFault(description="missing QueryExpression")
        dialect = expr_el.get("Dialect", XPATH_DIALECT)
        if dialect != XPATH_DIALECT:
            raise InvalidQueryExpressionFault(
                description=f"unsupported dialect {dialect!r}"
            )
        wrapper = self.wrapper
        document = Element(QName(wrapper.service_cls.SERVICE_NS, "ResourceProperties"))
        for qname, getter in wrapper.rps.items():
            document.append(rp_value_element(qname, getter(self.instance)))
        try:
            hits = xpath_select(document, expr_el.full_text())
        except XPathError as exc:
            raise InvalidQueryExpressionFault(description=str(exc)) from exc
        response = Element(QName(NS.WSRF_RP, "QueryResourcePropertiesResponse"))
        for hit in hits:
            if isinstance(hit, Element):
                response.append(hit.copy())
            else:
                response.subelement(QName(NS.WSRF_RP, "Result"), text=str(hit))
        return response


class SetResourcePropertiesPortType(SpecPortType):
    OPERATIONS = {SET_RP: "set_properties"}

    def set_properties(self, request: Element) -> Element:
        for change in request.children:
            local = change.tag.local
            if change.tag.uri != NS.WSRF_RP or local not in (
                "Update",
                "Insert",
                "Delete",
            ):
                raise UnableToModifyResourcePropertyFault(
                    description=f"unknown change element {change.tag}"
                )
            if local == "Delete":
                target = change.get("ResourceProperty")
                if target is None:
                    raise UnableToModifyResourcePropertyFault(
                        description="Delete lacks a ResourceProperty attribute"
                    )
                qname = _parse_clark(target, InvalidResourcePropertyQNameFault)
                self.wrapper.set_rp_value(self.instance, qname, None)
            else:
                # Update and Insert both assign values on fixed-schema RPs.
                for rp_el in change.children:
                    self.wrapper.set_rp_value(
                        self.instance, rp_el.tag, from_typed_element(rp_el)
                    )
        return Element(QName(NS.WSRF_RP, "SetResourcePropertiesResponse"))


def _rp_element(pt: SpecPortType, qname: QName) -> Element:
    """Resource property *qname* of the invocation's WS-Resource."""
    getter = pt.wrapper.rps.get(qname)
    if getter is None:
        raise InvalidResourcePropertyQNameFault(
            description=f"service {pt.wrapper.path!r} exposes no resource property {qname}",
            timestamp=pt.wrapper.env.now,
        )
    return rp_value_element(qname, getter(pt.instance))


def rp_value_element(qname: QName, value) -> Element:
    """Serialize one resource property value for a response/RP document
    (a :func:`~repro.soap.typed_value`: a reply carries it as a value)."""
    if isinstance(value, Element) and value.tag == qname:
        return value.copy()
    return typed_value(qname, value)
