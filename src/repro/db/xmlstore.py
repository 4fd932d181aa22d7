"""XML-database resource store — the "Yukon" experiment of §5.

"For future versions of WSRF.NET, we are currently experimenting with
XML databases, such as Yukon, because they provide the ability to store
and run queries over unstructured data."  Here resources stay parsed
XML documents, so queries run structurally without per-row blob
deserialization; the D-3 benchmark measures the resulting crossover
against :class:`repro.db.resource_store.BlobResourceStore`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.db.resource_store import NoSuchResource, ResourceStore, State, _STATE_TAG
from repro.soap import from_typed_element, to_typed_element
from repro.xmlx import Element, QName, parse, to_string, xpath_select


class XmlResourceStore(ResourceStore):
    """Stores resource state as live XML documents, queryable in place."""

    def __init__(self) -> None:
        #: {service: {resource_id: Element}}
        self._docs: Dict[str, Dict[str, Element]] = {}
        self.loads = 0
        self.saves = 0
        self.scans = 0

    @staticmethod
    def _to_doc(state: State) -> Element:
        root = Element(_STATE_TAG)
        for key, value in state.items():
            qkey = key if isinstance(key, QName) else QName(key)
            root.append(to_typed_element(qkey, value))
        return root

    @staticmethod
    def _from_doc(doc: Element) -> State:
        return {child.tag: from_typed_element(child) for child in doc.children}

    def create(self, service: str, resource_id: str, state: State) -> None:
        bucket = self._docs.setdefault(service, {})
        if resource_id in bucket:
            raise ValueError(f"duplicate resource {service}/{resource_id}")
        bucket[resource_id] = self._to_doc(state)
        self.saves += 1

    def exists(self, service: str, resource_id: str) -> bool:
        return resource_id in self._docs.get(service, {})

    def load(self, service: str, resource_id: str) -> State:
        try:
            doc = self._docs[service][resource_id]
        except KeyError:
            raise NoSuchResource(f"{service}/{resource_id}") from None
        self.loads += 1
        return self._from_doc(doc)

    def save(self, service: str, resource_id: str, state: State) -> None:
        bucket = self._docs.get(service, {})
        if resource_id not in bucket:
            raise NoSuchResource(f"{service}/{resource_id}")
        bucket[resource_id] = self._to_doc(state)
        self.saves += 1

    def destroy(self, service: str, resource_id: str) -> None:
        bucket = self._docs.get(service, {})
        if resource_id not in bucket:
            raise NoSuchResource(f"{service}/{resource_id}")
        del bucket[resource_id]

    def list_ids(self, service: str) -> List[str]:
        return sorted(self._docs.get(service, {}))

    # -- checkpoint / restore ----------------------------------------------------------

    def snapshot(self) -> Dict[str, bytes]:
        """Checkpoint in the cross-backend ``{"service|rid": bytes}`` format."""
        out: Dict[str, bytes] = {}
        for service, bucket in self._docs.items():
            for resource_id, doc in bucket.items():
                key = f"{service}|{resource_id}"
                out[key] = to_string(doc).encode("utf-8")
        return out

    def restore(self, snap: Dict[str, bytes]) -> None:
        """Replace the entire store contents with *snap*."""
        self._docs = {}
        for key in sorted(snap):
            service, _, resource_id = key.partition("|")
            self._docs.setdefault(service, {})[resource_id] = parse(
                snap[key].decode("utf-8")
            )

    def scan_query(
        self,
        service: str,
        xpath: str,
        namespaces: Optional[Dict[str, str]] = None,
    ) -> List[Tuple[str, list]]:
        """Query every resource of *service* structurally (no reparse)."""
        self.scans += 1
        out: List[Tuple[str, list]] = []
        for resource_id, doc in self._docs.get(service, {}).items():
            hits = xpath_select(doc, xpath, namespaces)
            if hits:
                out.append((resource_id, hits))
        out.sort(key=lambda pair: pair[0])
        return out
