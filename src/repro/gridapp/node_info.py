"""The Node Info Service (§4.4).

"The Node Info service (NIS) is a service group (as defined by
WS-ServiceGroups) whose members represent the processors available for
scheduling."  It *is* our generic :class:`ServiceGroupService` with two
additions: ``ReportUtilization`` (the one-way message each machine's
Processor Utilization Windows service sends when load changes by more
than the configured threshold) and ``GetProcessors`` (the catalog the
Scheduler polls in step 2).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.wsa import EndpointReference
from repro.wsrf.servicegroup import (
    ServiceGroupService,
    group_entry_ids,
    kept_entries,
    seed_group,
)
from repro.wsrf.attributes import WebMethod
from repro.xmlx import NS, Element, QName

UVA = NS.UVACG

PROCESSOR_INFO = QName(UVA, "ProcessorInfo")


def processor_content(
    name: str,
    cpu_speed: float,
    ram_mb: int,
    utilization: float,
    updated_at: float,
) -> Element:
    """The Content document describing one processor."""
    el = Element(PROCESSOR_INFO)
    el.subelement(QName(UVA, "Name"), text=name)
    el.subelement(QName(UVA, "CpuSpeed"), text=repr(float(cpu_speed)))
    el.subelement(QName(UVA, "RamMb"), text=str(int(ram_mb)))
    el.subelement(QName(UVA, "Utilization"), text=repr(float(utilization)))
    el.subelement(QName(UVA, "UpdatedAt"), text=repr(float(updated_at)))
    return el


def parse_processor_content(el: Element) -> Dict:
    return {
        "name": el.child_text(QName(UVA, "Name"), ""),
        "cpu_speed": float(el.child_text(QName(UVA, "CpuSpeed"), "1.0")),
        "ram_mb": int(el.child_text(QName(UVA, "RamMb"), "0")),
        "utilization": float(el.child_text(QName(UVA, "Utilization"), "0.0")),
        "updated_at": float(el.child_text(QName(UVA, "UpdatedAt"), "0.0")),
    }


class ProcessorCatalog:
    """What a NIS deployment knows about its processor group beside the
    store: which entry holds which machine, and the last catalog it
    answered.

    Both are read off the group by the one read-only walk
    (:func:`~repro.wsrf.servicegroup.kept_entries`), which counts every
    row read as ``load`` would.  Each entry's parsed row is kept against
    the kept content document it was parsed from, and the list of rows
    ``GetProcessors`` answers with against the ordered list of those
    documents: the answer is a pure function of that list, so nothing
    invalidates either.  ``ReportUtilization``, ``Add``,
    ``UpdateContent``, an entry's destroy and a host restore all change
    a row's bytes, hence the document the store keeps for it, hence the
    list.  A backend that keeps no decoded state serves new documents on
    every read, and every poll parses afresh.

    The rows are handed out, and no one can reach them through what was
    handed: the wrapper wraps the answer in a
    :func:`~repro.soap.typed_value`, which holds its own copy, and the
    reply encoder writes the text from that copy and gives the receiver
    another (or, when the envelope cannot be spliced, the receiver
    parses the text).
    """

    def __init__(self) -> None:
        #: {machine name: entry resource id}, rebuilt from the group on a miss
        self.index: Dict[str, str] = {}
        #: {id(content document): (that document, its parsed row)}, for
        #: the documents the last walk met; holding the document keeps
        #: its id from being reused
        self._rows: Dict[int, tuple] = {}
        #: the content documents the kept rows were parsed from
        self._contents: list = []
        self._processors: Optional[List[Dict]] = None

    def __eq__(self, other) -> bool:
        # Alike when they hold the same index and last answered from the
        # same documents: a fresh view equals the declared initial value.
        return (
            isinstance(other, ProcessorCatalog)
            and self.index == other.index
            and self._contents == other._contents
        )

    def _walk(self, wrapper) -> list:
        """``(entry_id, content, row)`` of each entry with a content
        document, in group order; only documents the last walk did not
        meet are parsed."""
        seen, self._rows = self._rows, {}
        out = []
        ids = group_entry_ids(wrapper, wrapper.nis_group_rid)
        for entry_id, _, content in kept_entries(wrapper, ids):
            if content is None:
                continue
            memo = seen.get(id(content))
            if memo is None:
                memo = (content, parse_processor_content(content))
            self._rows[id(content)] = memo
            out.append((entry_id, content, memo[1]))
        return out

    def processors(self, wrapper) -> List[Dict]:
        """The ``GetProcessors`` rows for the group as stored now, a new
        list only when its content documents changed."""
        walked = self._walk(wrapper)
        contents = [content for _, content, _ in walked]
        # Element equality is identity: the same documents, in order.
        if self._processors is None or contents != self._contents:
            self._processors = [row for _, _, row in walked]
            self._contents = contents
        return self._processors

    def entry_for(self, wrapper, machine_name: str) -> Optional[str]:
        """The entry resource id of *machine_name*'s processor."""
        index = self.index
        entry_id = index.get(machine_name)
        if entry_id is not None and wrapper.store.exists(wrapper.service_name, entry_id):
            return entry_id
        index.clear()
        for entry_id, _, row in self._walk(wrapper):
            index[row["name"]] = entry_id
        return index.get(machine_name)


class NodeInfoService(ServiceGroupService):
    """ServiceGroup + the processor catalog operations."""

    # Inherits SERVICE_NS = NS.WSRF_SG, so Add/CreateGroup keep their
    # spec QNames; ReportUtilization/GetProcessors live there too.

    DEPLOYMENT = {
        #: the processor group's resource id, from setup_node_info
        "nis_group_rid": None,
        #: the catalog view: machine -> entry index and the last answer
        "_processor_index": ProcessorCatalog,
    }

    @WebMethod(requires_resource=False, one_way=True)
    def ReportUtilization(self, machine_name: str, utilization: float) -> int:
        """One-way from a machine's Processor Utilization service.

        A service-level operation, so the dispatch pipeline holds no
        resource lock for us — but this is a load-modify-save on the
        machine's entry row, and one-way sends carry no reply ordering:
        a redelivered or delayed report can still be in flight when the
        next one lands.  Serialize on the entry's own resource lock,
        exactly as a ``requires_resource`` dispatch would be.
        """
        wrapper = self.wsrf.wrapper
        entry_id = wrapper._processor_index.entry_for(wrapper, machine_name)
        if entry_id is None:
            return 0
        # Not a run_local dispatch: this write pays no database time today.
        lock = wrapper.resource_lock(entry_id)
        yield lock.acquire()
        try:
            entry = wrapper.load_resource(entry_id)
            if entry.content is None:
                return 0
            info = parse_processor_content(entry.content)
            entry.content = processor_content(
                info["name"], info["cpu_speed"], info["ram_mb"],
                utilization, self.env.now,
            )
            wrapper.save_resource(entry_id, entry)
        finally:
            wrapper.release_resource_lock(entry_id, lock)
        return 1

    @WebMethod(requires_resource=False)
    def GetProcessors(self) -> List[Dict]:
        """The Scheduler's step-2 poll: every known processor's state."""
        wrapper = self.wsrf.wrapper
        return wrapper._processor_index.processors(wrapper)


def setup_node_info(wrapper, machines) -> str:
    """Create the NIS group and register every machine's processor.

    Runs at testbed assembly (no network traffic — the administrator
    seeds the catalog); thereafter the Processor Utilization services
    keep it fresh over the wire.  Returns the group resource id.
    """
    group_rid = wrapper.nis_group_rid = seed_group(wrapper, PROCESSOR_INFO, [
        (
            EndpointReference(machine.service_url("ExecService")),
            processor_content(
                machine.name,
                machine.params.cpu_speed,
                machine.params.ram_mb,
                machine.utilization(),
                wrapper.env.now,
            ),
        )
        for machine in machines
    ])
    return group_rid
