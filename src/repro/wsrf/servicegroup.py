"""WS-ServiceGroup: groups whose entries are themselves WS-Resources.

The Node Info service of §4.4 "is a service group (as defined by
WS-ServiceGroups) whose members represent the processors available for
scheduling".  This module supplies the generic service — written in the
same author-level programming model the testbed services use (the
toolkit eating its own dogfood), so it exercises the full Fig. 1
pipeline:

- a *group* WS-Resource holds the entry list and an optional membership
  content rule;
- each *entry* is its own WS-Resource (so it has an EPR, can carry a
  termination time and can be destroyed individually — destroying an
  entry removes it from its group);
- the spec's ``Add`` operation registers a member EPR plus a content
  document and returns the entry's EPR.
"""

from __future__ import annotations

from repro.wsa import EndpointReference
from repro.wsrf.attributes import (
    Resource,
    ResourceProperty,
    ServiceSkeleton,
    WebMethod,
    WSRFPortType,
)
from repro.wsrf.basefaults import BaseFault
from repro.wsrf.lifetime import (
    ImmediateResourceTerminationPortType,
    ScheduledResourceTerminationPortType,
)
from repro.wsrf.porttypes import (
    GetMultipleResourcePropertiesPortType,
    GetResourcePropertyPortType,
    QueryResourcePropertiesPortType,
)
from repro.xmlx import NS, Element, QName

ENTRY_RP = QName(NS.WSRF_SG, "Entry")
CONTENT_RULE_RP = QName(NS.WSRF_SG, "MembershipContentRule")


# The state keys of the group and entry fields (ServiceGroupService
# declares them in the wssg namespace, and its subclasses keep it).
_ENTRY_IDS = QName(NS.WSRF_SG, "entry_ids")
_CONTENT_RULE = QName(NS.WSRF_SG, "content_rule")
_MEMBER_EPR = QName(NS.WSRF_SG, "member_epr")
_CONTENT = QName(NS.WSRF_SG, "content")


def _kept(wrapper, resource_id):
    """One stored row read through ``store.load_kept``: the counted read
    ``load`` makes, without its deep copy.  Read-only to the caller."""
    return wrapper.store.load_kept(wrapper.service_name, resource_id)


def group_entry_ids(wrapper, group_id) -> list:
    """The entry resource ids of a stored group (none: no group): the
    stored list itself, read-only to the caller."""
    if group_id is None:
        return []
    return _kept(wrapper, group_id).get(_ENTRY_IDS) or []


def load_entry(wrapper, entry_id):
    """One stored entry, a copy the caller may change and save; None
    when it is gone (destroyed since the group was read)."""
    try:
        return wrapper.load_resource(entry_id)
    except KeyError:
        return None


def kept_entries(wrapper, entry_ids):
    """The read-only walk of a group's *entry_ids*: ``(entry_id,
    member_epr, content)`` of each entry still there, in group order.

    The values are the stored ones, not copies: a caller mutates none of
    them and copies what it hands on.  A backend that keeps decoded
    state serves the same content document for as long as the row's
    bytes do not change, which is what the NIS catalog view keys on."""
    for entry_id in entry_ids:
        try:
            entry = _kept(wrapper, entry_id)
        except KeyError:
            continue  # destroyed since the group was read
        yield entry_id, entry.get(_MEMBER_EPR), entry.get(_CONTENT)


def seed_group(wrapper, content_rule: QName, members) -> str:
    """Assembly-time seeding (no traffic — the administrator's doing):
    a group with one entry per ``(member_epr, content)`` of *members*;
    returns the group's resource id."""
    group_rid = wrapper.create_resource_from_fields(
        {"kind": "group", "entry_ids": [], "content_rule": content_rule.clark()}
    )
    entry_ids = [
        wrapper.create_resource_from_fields(
            {"kind": "entry", "member_epr": member, "content": content,
             "group_id": group_rid}
        )
        for member, content in members
    ]
    group = wrapper.load_resource(group_rid)
    group.entry_ids = entry_ids
    wrapper.save_resource(group_rid, group)
    return group_rid


class ContentRuleViolation(BaseFault):
    FAULT_QNAME = QName(NS.WSRF_SG, "ContentCreationFailedFault")


@WSRFPortType(
    GetResourcePropertyPortType,
    GetMultipleResourcePropertiesPortType,
    QueryResourcePropertiesPortType,
    ImmediateResourceTerminationPortType,
    ScheduledResourceTerminationPortType,
)
class ServiceGroupService(ServiceSkeleton):
    """Generic WS-ServiceGroup implementation.

    One deployment hosts many groups and their entries; the ``kind``
    field distinguishes the two resource shapes.
    """

    SERVICE_NS = NS.WSRF_SG

    kind = Resource(default="group")  # "group" | "entry"
    entry_ids = Resource(default=None)  # group: list of entry resource ids
    content_rule = Resource(default="")  # group: required content tag (Clark)
    member_epr = Resource(default=None)  # entry: the member's EPR
    content = Resource(default=None)  # entry: the content document (Element)
    group_id = Resource(default=None)  # entry: owning group resource id

    # -- operations ---------------------------------------------------------------

    @WebMethod(requires_resource=False)
    def CreateGroup(self, content_rule: str = "") -> EndpointReference:
        """Factory: make a new (empty) service group."""
        rid = self.create_resource(kind="group", entry_ids=[], content_rule=content_rule)
        return self.epr_for(rid)

    @WebMethod
    def Add(self, member: EndpointReference, content: Element) -> EndpointReference:
        """Register *member* with *content*; returns the new entry's EPR."""
        self._require_kind("group")
        self._check_content(self.content_rule, content)
        entry_id = self.create_resource(
            kind="entry",
            member_epr=member,
            content=content,
            group_id=self.resource_id,
        )
        self.entry_ids = list(self.entry_ids or []) + [entry_id]
        return self.epr_for(entry_id)

    @WebMethod
    def UpdateContent(self, content: Element) -> None:
        """Replace an entry's content document (e.g. fresh utilization)."""
        self._require_kind("entry")
        rule = ""
        if self.group_id is not None:
            try:
                rule = _kept(self.wsrf.wrapper, self.group_id).get(_CONTENT_RULE, "")
            except KeyError:
                pass  # the group is gone: no rule left to keep
        self._check_content(rule, content)
        self.content = content

    # -- resource properties -------------------------------------------------------

    @ResourceProperty(qname=ENTRY_RP)
    @property
    def Entry(self):
        """The group's entries as wssg:Entry documents."""
        self._require_kind("group")
        wrapper = self.wsrf.wrapper
        out = []
        for entry_id, member, content in kept_entries(wrapper, self.entry_ids or []):
            el = Element(ENTRY_RP)
            if member is not None:
                el.append(member.to_xml(QName(NS.WSRF_SG, "MemberServiceEPR")))
            el.append(
                wrapper.epr_for(entry_id).to_xml(QName(NS.WSRF_SG, "ServiceGroupEntryEPR"))
            )
            holder = el.subelement(QName(NS.WSRF_SG, "Content"))
            if content is not None:
                holder.append(content.copy())
            out.append(el)
        return out

    @ResourceProperty(qname=CONTENT_RULE_RP)
    @property
    def MembershipContentRule(self) -> str:
        self._require_kind("group")
        return self.content_rule or ""

    @ResourceProperty
    @property
    def EntryContent(self):
        """An entry's content document (entry resources only)."""
        self._require_kind("entry")
        return self.content

    # -- lifecycle ---------------------------------------------------------------------

    def wsrf_on_destroy(self) -> None:
        """Destroying an entry removes it from its group's entry list:
        a detached local dispatch on the group row waits for that row's
        lock holding no worker thread (``WrapperService.run_local``)."""
        if self.kind != "entry" or self.group_id is None:
            return
        entry_id = self.resource_id

        def RemoveEntry(group):
            group.entry_ids = [rid for rid in group.entry_ids or [] if rid != entry_id]

        self.env.process(self.wsrf.wrapper.run_local(
            self.group_id, RemoveEntry, self.machine.host.boot_epoch))

    # -- helpers ------------------------------------------------------------------------

    def _check_content(self, rule: str, content: Element) -> None:
        """The group's membership content rule (Clark name of the
        required content tag; empty: any), which ``Add`` and
        ``UpdateContent`` both keep."""
        if rule and content.tag.clark() != rule:
            raise ContentRuleViolation(
                description=(
                    f"content element {content.tag} violates the group's "
                    f"membership content rule {rule}"
                ),
                timestamp=self.env.now,
            )

    def _require_kind(self, kind: str) -> None:
        if self.kind != kind:
            raise BaseFault(
                description=(
                    f"operation applies to {kind!r} resources, but "
                    f"{self.resource_id!r} is a {self.kind!r}"
                ),
                timestamp=self.env.now,
            )


def parse_entries(value) -> list:
    """Decode the Entry RP value (list of wssg:Entry elements) client-side.

    Returns ``[(member_epr, entry_epr, content_element_or_None), ...]``.
    """
    out = []
    for el in value or []:
        if not isinstance(el, Element):
            continue
        member_el = el.find(QName(NS.WSRF_SG, "MemberServiceEPR"))
        entry_el = el.find(QName(NS.WSRF_SG, "ServiceGroupEntryEPR"))
        content_el = el.find(QName(NS.WSRF_SG, "Content"))
        member = EndpointReference.from_xml(member_el) if member_el is not None else None
        entry = EndpointReference.from_xml(entry_el) if entry_el is not None else None
        content = (
            content_el.children[0] if content_el is not None and content_el.children else None
        )
        out.append((member, entry, content))
    return out
