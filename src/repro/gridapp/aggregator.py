"""The cross-zone aggregator catalog: a ServiceGroup of ServiceGroups.

Each federation zone runs its own Node Info Service (a WS-ServiceGroup
of processors, §4.4).  The aggregator — deployed on the federation's
root machine — is a second-order ServiceGroup whose entries are the
*zone NIS groups themselves*: each entry's member EPR points at a zone
NIS and its content document caches that zone's processor catalog with
a fetch timestamp.

The staleness contract (docs/federation.md): ``GetAllProcessors``
serves an entry's cached catalog if it was fetched within the last
``staleness_s`` simulated seconds; older entries are re-fetched from
the zone NIS inline.  A zone that cannot be reached (partitioned, host
down) is served *stale* rather than blocking or erroring — schedulers
consulting the catalog during a zone outage still see the federation's
last known shape, which is exactly when they need it most.
"""

from __future__ import annotations

from typing import Dict, List

from repro.gridapp.node_info import parse_processor_content, processor_content
from repro.net import DeliveryError
from repro.soap import SoapFault
from repro.wsa import EndpointReference
from repro.wsrf.attributes import WebMethod
from repro.wsrf.servicegroup import (
    ServiceGroupService,
    group_entry_ids,
    load_entry,
    seed_group,
)
from repro.xmlx import NS, Element, QName

UVA = NS.UVACG
SG = NS.WSRF_SG

ZONE_CATALOG = QName(UVA, "ZoneCatalog")


def zone_catalog_content(
    zone: str,
    nis_epr: EndpointReference,
    fetched_at: float,
    processors: List[Dict],
) -> Element:
    """The Content document caching one zone's processor catalog."""
    el = Element(ZONE_CATALOG)
    el.subelement(QName(UVA, "Zone"), text=zone)
    el.append(nis_epr.to_xml(QName(UVA, "NisEPR")))
    el.subelement(QName(UVA, "FetchedAt"), text=repr(float(fetched_at)))
    for p in processors:
        el.append(
            processor_content(
                p["name"], p["cpu_speed"], p["ram_mb"],
                p["utilization"], p["updated_at"],
            )
        )
    return el


def parse_zone_catalog(el: Element) -> Dict:
    nis_el = el.find(QName(UVA, "NisEPR"))
    return {
        "zone": el.child_text(QName(UVA, "Zone"), ""),
        "nis_epr": (
            EndpointReference.from_xml(nis_el) if nis_el is not None else None
        ),
        "fetched_at": float(el.child_text(QName(UVA, "FetchedAt"), "0.0")),
        "processors": [
            parse_processor_content(child)
            for child in el.children
            if child.tag == QName(UVA, "ProcessorInfo")
        ],
    }


class AggregatorCatalogService(ServiceGroupService):
    """ServiceGroup-of-ServiceGroups with staleness-bounded entries."""

    DEPLOYMENT = {
        #: the zone group's resource id, from setup_aggregator (no
        #: group: an empty catalog)
        "agg_group_rid": None,
        #: the FederationConfig's bound, assigned at deploy time
        "staleness_s": None,
        "catalog_refreshes": 0,
        "catalog_stale_served": 0,
    }

    @WebMethod(requires_resource=False)
    def GetAllProcessors(self) -> List[Dict]:
        """Every processor in the federation, tagged with its zone.

        Fresh entries (fetched within ``staleness_s``) are served from
        cache; stale ones are re-fetched from the zone NIS inline.  An
        unreachable zone is served stale — the catalog never blocks on
        a dead zone.
        """
        wrapper = self.wsrf.wrapper
        staleness_s = wrapper.staleness_s
        out: List[Dict] = []
        for entry_id in group_entry_ids(wrapper, wrapper.agg_group_rid):
            # Same serialization discipline as NIS ReportUtilization:
            # the refresh below is a load-modify-save on the entry row
            # outside a requires_resource dispatch, so take the entry's
            # own resource lock for the whole read-refresh-serve cycle.
            lock = wrapper.resource_lock(entry_id)
            yield lock.acquire()
            try:
                entry = load_entry(wrapper, entry_id)
                if entry is None or entry.content is None:
                    continue
                catalog = parse_zone_catalog(entry.content)
                age = self.env.now - catalog["fetched_at"]
                if age > staleness_s and catalog["nis_epr"] is not None:
                    try:
                        processors = yield from self.client.call(
                            catalog["nis_epr"], SG, "GetProcessors",
                            category="nis",
                        )
                    except (DeliveryError, SoapFault):
                        wrapper.catalog_stale_served += 1
                    else:
                        catalog["processors"] = processors
                        catalog["fetched_at"] = self.env.now
                        entry.content = zone_catalog_content(
                            catalog["zone"], catalog["nis_epr"],
                            catalog["fetched_at"], processors,
                        )
                        wrapper.save_resource(entry_id, entry)
                        wrapper.catalog_refreshes += 1
                for p in catalog["processors"]:
                    out.append(dict(p, zone=catalog["zone"]))
            finally:
                wrapper.release_resource_lock(entry_id, lock)
        return out


def setup_aggregator(wrapper, zones) -> str:
    """Create the aggregator group with one entry per zone.

    Runs at testbed assembly (the administrator seeds the federation
    catalog, mirroring ``setup_node_info``); entries start with the
    zones' assembly-time processor parameters so the catalog is usable
    before the first refresh.  Returns the group resource id.
    """
    now = wrapper.env.now
    members = []
    for zone in zones:
        nis_epr = zone.node_info.service_epr()
        processors = [
            {
                "name": machine.name,
                "cpu_speed": machine.params.cpu_speed,
                "ram_mb": machine.params.ram_mb,
                "utilization": machine.utilization(),
                "updated_at": now,
            }
            for machine in zone.machines
        ]
        members.append(
            (nis_epr, zone_catalog_content(zone.name, nis_epr, now, processors))
        )
    wrapper.agg_group_rid = seed_group(wrapper, ZONE_CATALOG, members)
    return wrapper.agg_group_rid
