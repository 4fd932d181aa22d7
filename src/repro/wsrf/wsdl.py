"""WSDL generation.

"The schema for this [Resource Properties] document is part of the web
service's WSDL."  The wrapper can emit a WSDL 1.1-shaped document
describing the author's operations, the imported WSRF port types and the
resource properties document schema — enough for a client-side tool (or
a test) to discover what a deployed service offers.
"""

from __future__ import annotations

from repro.xmlx import NS, Element, QName


def generate_wsdl(wrapper) -> Element:
    """Build the WSDL document for a deployed :class:`WrapperService`."""
    service_cls = wrapper.service_cls
    ns = service_cls.SERVICE_NS
    root = Element(QName(NS.WSDL, "definitions"))
    root.set("name", service_cls.__name__)
    root.set("targetNamespace", ns)

    # Resource properties document schema: one element per RP.
    types_el = root.subelement(QName(NS.WSDL, "types"))
    schema = types_el.subelement(QName(NS.XSD, "schema"))
    schema.set("targetNamespace", ns)
    rp_doc = schema.subelement(QName(NS.XSD, "element"))
    rp_doc.set("name", "ResourceProperties")
    seq = rp_doc.subelement(QName(NS.XSD, "complexType")).subelement(
        QName(NS.XSD, "sequence")
    )
    for rp_qname in sorted(wrapper.rps):  # a QName sorts by (uri, local)
        el = seq.subelement(QName(NS.XSD, "element"))
        el.set("ref", rp_qname.clark())

    # The author's port type.
    port_type = root.subelement(QName(NS.WSDL, "portType"))
    port_type.set("name", f"{service_cls.__name__}PortType")
    for name, fn in sorted(wrapper._methods.items()):
        op = port_type.subelement(QName(NS.WSDL, "operation"))
        op.set("name", name)
        op.subelement(QName(NS.WSDL, "input")).set("message", f"{ns}/{name}")
        if not fn.__web_method__["one_way"]:
            op.subelement(QName(NS.WSDL, "output")).set(
                "message", f"{ns}/{name}Response"
            )

    # Imported WSRF port types (the [WSRFPortType] attribute's effect).
    for pt_cls in getattr(service_cls, "__wsrf_port_types__", ()):
        pt_el = root.subelement(QName(NS.WSDL, "portType"))
        pt_el.set("name", pt_cls.__name__)
        for body_qname, method in sorted(
            pt_cls.OPERATIONS.items(), key=lambda kv: kv[0].local
        ):
            op = pt_el.subelement(QName(NS.WSDL, "operation"))
            op.set("name", body_qname.local)
            op.subelement(QName(NS.WSDL, "input")).set("message", body_qname.clark())

    # The concrete endpoint.
    service_el = root.subelement(QName(NS.WSDL, "service"))
    service_el.set("name", service_cls.__name__)
    port = service_el.subelement(QName(NS.WSDL, "port"))
    port.set("name", f"{service_cls.__name__}Port")
    port.subelement(QName(NS.WSDL, "address")).set("location", wrapper.address)
    return root


def wsdl_operations(wsdl_doc: Element) -> dict:
    """Client-side helper: {portType name: [operation names]}."""
    out = {}
    for pt in wsdl_doc.findall(QName(NS.WSDL, "portType")):
        ops = [op.get("name") for op in pt.findall(QName(NS.WSDL, "operation"))]
        out[pt.get("name")] = ops
    return out


def wsdl_resource_properties(wsdl_doc: Element) -> list:
    """Client-side helper: the RP QNames advertised by the schema."""
    out = []
    for el in wsdl_doc.iter(QName(NS.XSD, "element")):
        ref = el.get("ref")
        if ref:
            out.append(QName(ref))
    return out
