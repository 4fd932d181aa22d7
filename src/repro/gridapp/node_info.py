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
    group_entries,
    group_entry_ids,
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


class NodeInfoService(ServiceGroupService):
    """ServiceGroup + the processor catalog operations."""

    # Inherits SERVICE_NS = NS.WSRF_SG, so Add/CreateGroup keep their
    # spec QNames; ReportUtilization/GetProcessors live there too.

    DEPLOYMENT = {
        #: the processor group's resource id, from setup_node_info
        "nis_group_rid": None,
        #: {machine name: entry resource id}, rebuilt from the group on a miss
        "_processor_index": dict,
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
        entry_id = self._entry_for(machine_name)
        if entry_id is None:
            return 0
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
        ids = group_entry_ids(wrapper, wrapper.nis_group_rid)
        return [
            parse_processor_content(entry.content)
            for _, entry in group_entries(wrapper, ids)
            if entry.content is not None
        ]

    def _entry_for(self, machine_name: str) -> Optional[str]:
        """Entry resource id for a machine, via a wrapper-side index."""
        wrapper = self.wsrf.wrapper
        index = wrapper._processor_index
        entry_id = index.get(machine_name)
        if entry_id is not None and wrapper.store.exists(wrapper.service_name, entry_id):
            return entry_id
        # (Re)build the index from the group.
        index.clear()
        ids = group_entry_ids(wrapper, wrapper.nis_group_rid)
        for eid, entry in group_entries(wrapper, ids):
            if entry.content is not None:
                index[parse_processor_content(entry.content)["name"]] = eid
        return index.get(machine_name)


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
