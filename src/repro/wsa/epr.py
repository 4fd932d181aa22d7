"""EndpointReference: the WS-Addressing name of a WS-Resource."""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

from repro.xmlx import NS, Element, QName

_ADDRESS = QName(NS.WSA, "Address")
_REF_PROPS = QName(NS.WSA, "ReferenceProperties")
_EPR_TAG = QName(NS.WSA, "EndpointReference")


class EndpointReference:
    """An immutable (address, reference-properties) pair.

    ``address`` is a URI such as ``http://host:80/ExecutionService`` or
    ``soap.tcp://client-7:9000/files``.  ``reference_properties`` is a
    mapping of QName → string; WSRF.NET keys resource lookup off a single
    ``ResourceID`` property, but arbitrary properties are allowed (the
    paper notes the contents are opaque to clients).

    EPRs are hashable and comparable so clients can hold sets of them —
    the §5 "coupling" discussion is about exactly this client-side state,
    measured by the D-8 benchmark.
    """

    __slots__ = ("_address", "_props", "_hash")

    def __init__(
        self,
        address: str,
        reference_properties: Optional[Mapping[QName, str]] = None,
    ) -> None:
        if not address:
            raise ValueError("EPR requires a non-empty address")
        props: Tuple[Tuple[QName, str], ...] = ()
        if reference_properties:
            items = []
            for key, value in reference_properties.items():
                qkey = key if isinstance(key, QName) else QName(key)
                items.append((qkey, str(value)))
            items.sort(key=lambda kv: (kv[0].uri, kv[0].local))
            props = tuple(items)
        object.__setattr__(self, "_address", address)
        object.__setattr__(self, "_props", props)
        object.__setattr__(self, "_hash", hash((address, props)))

    def __setattr__(self, name, value):
        raise AttributeError("EndpointReference is immutable")

    def __reduce__(self):
        # pickle and deepcopy rebuild through __init__, not __setattr__
        return EndpointReference, (self._address, dict(self._props))

    @property
    def address(self) -> str:
        return self._address

    @property
    def reference_properties(self) -> Dict[QName, str]:
        return dict(self._props)

    @property
    def property_items(self) -> Tuple[Tuple[QName, str], ...]:
        """The reference properties as ``(name, value)`` pairs in the
        order :meth:`to_xml` writes them, without a copy."""
        return self._props

    def get(self, name, default: Optional[str] = None) -> Optional[str]:
        want = name if isinstance(name, QName) else QName(name)
        for key, value in self._props:
            if key == want:
                return value
        return default

    def with_property(self, name, value: str) -> "EndpointReference":
        """A copy with one reference property added/replaced."""
        props = self.reference_properties
        props[name if isinstance(name, QName) else QName(name)] = value
        return EndpointReference(self._address, props)

    # -- XML binding ----------------------------------------------------------

    def to_xml(self, tag: Optional[QName] = None) -> Element:
        root = Element(tag or _EPR_TAG)
        root.subelement(_ADDRESS, text=self._address)
        if self._props:
            holder = root.subelement(_REF_PROPS)
            for key, value in self._props:
                holder.subelement(key, text=value)
        return root

    @classmethod
    def from_xml(cls, element: Element) -> "EndpointReference":
        address_el = element.find(_ADDRESS)
        if address_el is None:
            raise ValueError(f"element {element.tag} lacks a wsa:Address child")
        props: Dict[QName, str] = {}
        holder = element.find(_REF_PROPS)
        if holder is not None:
            for child in holder.children:
                props[child.tag] = child.full_text()
        return cls(address_el.full_text().strip(), props)

    # -- value semantics -------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, EndpointReference):
            return NotImplemented
        return self._address == other._address and self._props == other._props

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        props = ", ".join(f"{k.local}={v!r}" for k, v in self._props)
        return f"EPR({self._address!r}{', ' if props else ''}{props})"
