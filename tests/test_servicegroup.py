"""Tests for WS-ServiceGroup."""

import pytest

from repro.net import Network
from repro.osim import Machine
from repro.sim import Environment
from repro.wsa import EndpointReference
from repro.wsrf import ServiceGroupService, WsrfClient, deploy
from repro.wsrf.basefaults import BaseFault
from repro.wsrf.servicegroup import (
    CONTENT_RULE_RP,
    ENTRY_RP,
    ContentRuleViolation,
    parse_entries,
)
from repro.xmlx import NS, Element, QName

SG = NS.WSRF_SG
_RID = QName(NS.UVACG, "ResourceID")


@pytest.fixture()
def fabric():
    env = Environment()
    net = Network(env)
    machine = Machine(net, "registry-node")
    wrapper = deploy(ServiceGroupService, machine, "NodeInfo")
    net.add_host("client")
    client = WsrfClient(net, "client")
    return env, net, wrapper, client


def run(env, gen):
    proc = env.process(gen)
    env.run(until=proc)
    return proc.value


def _content(name, util="0.5"):
    el = Element(QName(NS.UVACG, "ProcessorInfo"))
    el.subelement(QName(NS.UVACG, "Name"), text=name)
    el.subelement(QName(NS.UVACG, "Utilization"), text=util)
    return el


def _member(i):
    return EndpointReference(f"http://node{i}/ExecService")


class TestServiceGroup:
    def test_create_group_returns_epr(self, fabric):
        env, net, wrapper, client = fabric
        group = run(env, client.call(wrapper.service_epr(), SG, "CreateGroup"))
        assert isinstance(group, EndpointReference)

    def test_add_and_list_entries(self, fabric):
        env, net, wrapper, client = fabric
        group = run(env, client.call(wrapper.service_epr(), SG, "CreateGroup"))
        entry_eprs = []
        for i in range(3):
            entry = run(
                env,
                client.call(
                    group, SG, "Add",
                    {"member": _member(i), "content": _content(f"node{i}")},
                ),
            )
            entry_eprs.append(entry)
        assert len(set(entry_eprs)) == 3
        raw = run(env, client.get_resource_property(group, ENTRY_RP))
        entries = parse_entries(raw)
        assert len(entries) == 3
        members = [member.address for member, _, _ in entries]
        assert members == [f"http://node{i}/ExecService" for i in range(3)]
        # Content round-trips.
        assert entries[0][2].child_text(QName(NS.UVACG, "Name")) == "node0"

    def test_content_rule_enforced(self, fabric):
        env, net, wrapper, client = fabric
        rule = QName(NS.UVACG, "ProcessorInfo").clark()
        group = run(
            env,
            client.call(wrapper.service_epr(), SG, "CreateGroup", {"content_rule": rule}),
        )
        # Conforming content is accepted.
        run(env, client.call(group, SG, "Add",
                             {"member": _member(1), "content": _content("n1")}))
        # Violating content is rejected.
        with pytest.raises(ContentRuleViolation):
            run(
                env,
                client.call(
                    group, SG, "Add",
                    {"member": _member(2), "content": Element(QName(NS.UVACG, "Wrong"))},
                ),
            )
        assert run(env, client.get_resource_property(group, CONTENT_RULE_RP)) == rule

    def test_content_rule_enforced_on_update(self, fabric):
        env, net, wrapper, client = fabric
        rule = QName(NS.UVACG, "ProcessorInfo").clark()
        group = run(
            env,
            client.call(wrapper.service_epr(), SG, "CreateGroup", {"content_rule": rule}),
        )
        entry = run(env, client.call(group, SG, "Add",
                                     {"member": _member(1), "content": _content("n1")}))
        evil = Element(QName(NS.UVACG, "NotAProcessor"))
        evil.subelement(QName(NS.UVACG, "Name"), text="evil")
        with pytest.raises(ContentRuleViolation):
            run(env, client.call(entry, SG, "UpdateContent", {"content": evil}))
        # The entry keeps its conforming content, and may still replace it.
        entries = parse_entries(run(env, client.get_resource_property(group, ENTRY_RP)))
        assert entries[0][2].child_text(QName(NS.UVACG, "Name")) == "n1"
        run(env, client.call(entry, SG, "UpdateContent", {"content": _content("n1", "0.9")}))
        entries = parse_entries(run(env, client.get_resource_property(group, ENTRY_RP)))
        assert entries[0][2].child_text(QName(NS.UVACG, "Utilization")) == "0.9"

    def test_destroy_entry_removes_from_group(self, fabric):
        env, net, wrapper, client = fabric
        group = run(env, client.call(wrapper.service_epr(), SG, "CreateGroup"))
        entry1 = run(env, client.call(group, SG, "Add",
                                      {"member": _member(1), "content": _content("n1")}))
        entry2 = run(env, client.call(group, SG, "Add",
                                      {"member": _member(2), "content": _content("n2")}))
        run(env, client.destroy(entry1))
        entries = parse_entries(run(env, client.get_resource_property(group, ENTRY_RP)))
        assert len(entries) == 1
        assert entries[0][0] == _member(2)

    @pytest.mark.parametrize("offset_ms", [i / 10 for i in range(-30, 60)])
    def test_destroying_an_entry_during_an_add_keeps_both(self, fabric, offset_ms):
        """Destroy(entry) starts *offset_ms* after Add(member) on the
        entry's group: the new entry is listed, the destroyed one not,
        whichever dispatch reaches the group row first."""
        env, net, wrapper, client = fabric
        group = run(env, client.call(wrapper.service_epr(), SG, "CreateGroup"))
        doomed = run(env, client.call(group, SG, "Add",
                                      {"member": _member(0), "content": _content("n0")}))

        def at(delay, call):
            yield env.timeout(delay)
            return (yield from call)

        start = env.now + 0.01
        add = env.process(at(start - env.now, client.call(
            group, SG, "Add", {"member": _member(1), "content": _content("n1")})))
        env.process(at(start + offset_ms / 1000 - env.now, client.destroy(doomed)))
        env.run(until=start + 1.0)
        added = add.value.get(_RID)
        group_row = wrapper.load_resource(group.get(_RID))
        assert group_row.entry_ids == [added]

    def test_update_entry_content(self, fabric):
        env, net, wrapper, client = fabric
        group = run(env, client.call(wrapper.service_epr(), SG, "CreateGroup"))
        entry = run(env, client.call(group, SG, "Add",
                                     {"member": _member(1), "content": _content("n1", "0.1")}))
        run(env, client.call(entry, SG, "UpdateContent",
                             {"content": _content("n1", "0.9")}))
        content = run(env, client.get_resource_property(entry, QName(SG, "EntryContent")))
        assert content.child_text(QName(NS.UVACG, "Utilization")) == "0.9"
        # The group view reflects the update too.
        entries = parse_entries(run(env, client.get_resource_property(group, ENTRY_RP)))
        assert entries[0][2].child_text(QName(NS.UVACG, "Utilization")) == "0.9"

    def test_kind_confusion_faults(self, fabric):
        env, net, wrapper, client = fabric
        group = run(env, client.call(wrapper.service_epr(), SG, "CreateGroup"))
        entry = run(env, client.call(group, SG, "Add",
                                     {"member": _member(1), "content": _content("n1")}))
        # Add on an entry resource is a kind violation.
        with pytest.raises(BaseFault, match="applies to 'group'"):
            run(env, client.call(entry, SG, "Add",
                                 {"member": _member(2), "content": _content("n2")}))
        # UpdateContent on a group is too.
        with pytest.raises(BaseFault, match="applies to 'entry'"):
            run(env, client.call(group, SG, "UpdateContent", {"content": _content("x")}))

    def test_groups_are_isolated(self, fabric):
        env, net, wrapper, client = fabric
        g1 = run(env, client.call(wrapper.service_epr(), SG, "CreateGroup"))
        g2 = run(env, client.call(wrapper.service_epr(), SG, "CreateGroup"))
        run(env, client.call(g1, SG, "Add", {"member": _member(1), "content": _content("n1")}))
        assert parse_entries(run(env, client.get_resource_property(g2, ENTRY_RP))) == []

    def test_parse_entries_tolerates_junk(self):
        assert parse_entries(None) == []
        assert parse_entries(["not an element"]) == []
