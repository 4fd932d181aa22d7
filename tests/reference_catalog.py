"""The Node Info service's old catalog walk, kept as the reference of
tests/test_catalog_view.py.

Before ``GetProcessors`` answered from a view
(:class:`repro.gridapp.node_info.ProcessorCatalog`), every poll loaded
and deep-copied the group row and each entry row (``load_resource``),
parsed every ``ProcessorInfo`` document and handed the list to the
wrapper, which encoded the typed response afresh.  ``ReportUtilization``
found a machine's entry through a plain ``{name: entry id}`` index,
rebuilt by the same copying walk on a miss.  This subclass puts both
back, as they were written.  Nothing under ``src/`` imports it: it
exists so that generated operation sequences can compare the view's
replies with the old ones.
"""

from typing import Dict, List, Optional

from repro.gridapp.node_info import (
    NodeInfoService,
    parse_processor_content,
    processor_content,
)
from repro.wsrf.attributes import WebMethod
from repro.wsrf.servicegroup import load_entry


def group_entry_ids(wrapper, group_id):
    """The entry ids of a stored group, a copy (``load_resource``)."""
    if group_id is None:
        return []
    return wrapper.load_resource(group_id).entry_ids or []


def group_entries(wrapper, entry_ids):
    """``(entry_id, entry)`` of each entry still there, in group order,
    every entry a copy (``load_resource``)."""
    for entry_id in entry_ids:
        entry = load_entry(wrapper, entry_id)
        if entry is not None:
            yield entry_id, entry


class ReferenceNodeInfoService(NodeInfoService):
    DEPLOYMENT = {**NodeInfoService.DEPLOYMENT, "_processor_index": dict}

    @WebMethod(requires_resource=False, one_way=True)
    def ReportUtilization(self, machine_name: str, utilization: float) -> int:
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
        wrapper = self.wsrf.wrapper
        ids = group_entry_ids(wrapper, wrapper.nis_group_rid)
        return [
            parse_processor_content(entry.content)
            for _, entry in group_entries(wrapper, ids)
            if entry.content is not None
        ]

    def _entry_for(self, machine_name: str) -> Optional[str]:
        wrapper = self.wsrf.wrapper
        index = wrapper._processor_index
        entry_id = index.get(machine_name)
        if entry_id is not None and wrapper.store.exists(wrapper.service_name, entry_id):
            return entry_id
        index.clear()
        ids = group_entry_ids(wrapper, wrapper.nis_group_rid)
        for eid, entry in group_entries(wrapper, ids):
            if entry.content is not None:
                index[parse_processor_content(entry.content)["name"]] = eid
        return index.get(machine_name)
