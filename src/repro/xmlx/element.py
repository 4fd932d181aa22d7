"""The XML tree node."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Union

from repro.xmlx.qname import QName

NameLike = Union[QName, str]


def _qname(name: NameLike) -> QName:
    return name if isinstance(name, QName) else QName(name)


class Element:
    """A mutable XML element: tag, attributes, text and child elements.

    The content model is simplified relative to full XML: an element holds
    leading character data (``text``) plus a list of child elements, each
    optionally followed by character data (``tail``).  This mirrors the
    subset SOAP messages actually use.
    """

    __slots__ = ("tag", "attrib", "text", "tail", "children")

    def __init__(
        self,
        tag: NameLike,
        attrib: Optional[Dict[NameLike, str]] = None,
        text: str = "",
    ) -> None:
        self.tag = _qname(tag)
        self.attrib: Dict[QName, str] = {}
        if attrib:
            for key, value in attrib.items():
                self.attrib[_qname(key)] = str(value)
        self.text = text
        self.tail = ""
        self.children: List["Element"] = []

    # -- construction --------------------------------------------------------

    def append(self, child: "Element") -> "Element":
        if not isinstance(child, Element):
            raise TypeError(f"append() requires an Element, got {child!r}")
        self.children.append(child)
        return child

    def extend(self, children) -> None:
        for child in children:
            self.append(child)

    def subelement(self, tag: NameLike, text: str = "", **attrib) -> "Element":
        """Create, append and return a child element."""
        child = Element(tag, text=text)
        for key, value in attrib.items():
            child.attrib[QName(key)] = str(value)
        return self.append(child)

    def set(self, name: NameLike, value: str) -> None:
        self.attrib[_qname(name)] = str(value)

    def get(self, name: NameLike, default: Optional[str] = None) -> Optional[str]:
        return self.attrib.get(_qname(name), default)

    # -- navigation -----------------------------------------------------------

    def __iter__(self) -> Iterator["Element"]:
        return iter(self.children)

    def __len__(self) -> int:
        return len(self.children)

    def find(self, tag: NameLike) -> Optional["Element"]:
        """First direct child with the given tag, or None."""
        want = _qname(tag)
        for child in self.children:
            if child.tag == want:
                return child
        return None

    def findall(self, tag: NameLike) -> List["Element"]:
        want = _qname(tag)
        return [child for child in self.children if child.tag == want]

    def require(self, tag: NameLike) -> "Element":
        """Like :meth:`find` but raises :class:`KeyError` when absent."""
        found = self.find(tag)
        if found is None:
            raise KeyError(f"element {self.tag} has no child {_qname(tag)}")
        return found

    def iter(self, tag: Optional[NameLike] = None) -> Iterator["Element"]:
        """Depth-first iterator over this element and all descendants."""
        want = _qname(tag) if tag is not None else None
        if want is None or self.tag == want:
            yield self
        for child in self.children:
            yield from child.iter(tag)

    def child_text(self, tag: NameLike, default: Optional[str] = None) -> Optional[str]:
        found = self.find(tag)
        return found.full_text() if found is not None else default

    def full_text(self) -> str:
        """All character data in document order (text + descendants + tails)."""
        parts = [self.text]
        for child in self.children:
            parts.append(child.full_text())
            parts.append(child.tail)
        return "".join(parts)

    # -- utilities ------------------------------------------------------------

    def copy(self) -> "Element":
        """Deep copy."""
        # __new__ skips __init__'s NameLike normalization — self.tag is
        # already a QName, and copy() sits on the codec-cache hot path.
        clone = Element.__new__(Element)
        clone.tag = self.tag
        clone.attrib = dict(self.attrib)
        clone.text = self.text
        clone.tail = self.tail
        clone.children = [child.copy() for child in self.children]
        return clone

    def equals(self, other: "Element") -> bool:
        """Structural equality (tag, attributes, text, children)."""
        if not isinstance(other, Element):
            return False
        return (
            self.tag == other.tag
            and self.attrib == other.attrib
            and self.text == other.text
            and len(self.children) == len(other.children)
            and all(a.equals(b) for a, b in zip(self.children, other.children))
        )

    def __repr__(self) -> str:
        return f"<Element {self.tag.clark()} children={len(self.children)}>"
