"""The Node Info service's catalog view answers as the old walk did.

``GetProcessors`` answers from :class:`repro.gridapp.node_info.
ProcessorCatalog`, which parses each entry's content document once and
reuses the whole list of rows while the group's content documents stay
the same.  Hypothesis draws sequences of the operations that change a row —
``ReportUtilization``, ``UpdateContent`` (conforming or not), ``Add``,
an entry's destroy, a checkpoint and a host restart that restores it —
interleaved with polls.  Each sequence runs on two deployments side by
side: one of today's ``NodeInfoService`` and one of
``tests/reference_catalog.py``, which keeps the old load, copy, parse
and encode walk.  Every poll's reply text and decoded value must be
equal, and so must the counted store reads.  The receiver of each reply
mutates everything it was handed before the next poll.

A failure prints the program; ``_run(store, program)`` replays it.
"""

import sys

from hypothesis import given
from hypothesis import strategies as st

import repro.soap.types as soap_types
from repro.db import BlobResourceStore, CachedResourceStore, XmlResourceStore, copy_field
from repro.gridapp import node_info
from repro.gridapp.node_info import (
    PROCESSOR_INFO,
    NodeInfoService,
    ProcessorCatalog,
    processor_content,
)
from repro.net import Network
from repro.osim import Machine
from repro.sim import Environment
from repro.soap import SoapEnvelope, TypedValue, from_typed_element
from repro.soap.fault import SoapFault
from repro.wsa import EndpointReference
from repro.wsa.headers import AddressingHeaders
from repro.wsrf import WsrfClient, deploy
from repro.wsrf.servicegroup import ContentRuleViolation, seed_group
from repro.xmlx import NS, Element, QName

from tests.helpers import fan_spec, fig3_testbed
from tests.reference_catalog import ReferenceNodeInfoService

SG = NS.WSRF_SG
UVA = NS.UVACG
NAMES = ("node00", "node01", "node02", "ghost")
STORES = {
    "blob": BlobResourceStore,
    "cached": CachedResourceStore,
    "xml": XmlResourceStore,  # keeps no decoded state: nothing is reused
}


class _Site:
    """One NIS deployment with three seeded processors and a client."""

    def __init__(self, service_cls, store_cls):
        self.env = env = Environment()
        self.network = network = Network(env)
        self.machine = Machine(network, "nis-host")
        self.wrapper = deploy(service_cls, self.machine, "NodeInfo", store=store_cls())
        self.group = self.wrapper.nis_group_rid = seed_group(self.wrapper, PROCESSOR_INFO, [
            (EndpointReference(f"http://{name}/ExecService"),
             processor_content(name, 1.0 + i, 512, 0.0, 0.0))
            for i, name in enumerate(NAMES[:3])
        ])
        network.add_host("client")
        self.client = WsrfClient(network, "client")
        self.snap = None
        self.polls = 0

    def run(self, gen):
        proc = self.env.process(gen)
        self.env.run(until=proc)
        return proc.value

    def settle(self):
        self.env.run(until=self.env.now + 1.0)

    def entry(self, pick):
        ids = self.wrapper.load_resource(self.group).entry_ids or []
        return self.wrapper.epr_for(ids[pick % len(ids)]) if ids else None

    def outcome(self, gen):
        """What a call returned, or the type of the fault it raised."""
        try:
            return self.run(gen)
        except SoapFault as fault:
            return type(fault).__name__

    def poll(self):
        """One GetProcessors reply: its wire text (its own message id,
        drawn from a process-wide counter, masked) and its decoded
        value.  The request's message id is fixed, so both sites are
        sent the same text."""
        self.polls += 1
        body = Element(QName(SG, "GetProcessors"))
        headers = AddressingHeaders(
            self.wrapper.service_epr(), f"{SG}/GetProcessors",
            message_id=f"uuid:poll-{self.polls}",
        )
        text = SoapEnvelope(headers, body).serialize()
        reply = self.run(self.network.request(
            "client", self.wrapper.address, text, category="nis"
        ))
        handed = SoapEnvelope.deserialize(reply, self.network.codec)
        value = from_typed_element(handed.body.children[0])
        _vandalize(handed.body)
        return str(reply).replace(handed.addressing.message_id, "uuid:reply"), value

    def counters(self):
        store = self.wrapper.store
        cache = store.decode_cache if hasattr(store, "decode_cache") else None
        return (
            store.loads, store.hits, store.misses,
            (cache.hits, cache.misses) if cache is not None else None,
        )


def _vandalize(element):
    """What a receiver may do to the body it was handed: everything."""
    for el in list(element.iter()):
        el.text = "vandal"
        el.attrib[QName(UVA, "mark")] = "1"
    element.children.reverse()
    element.append(Element(QName(UVA, "Extra")))


def _step(site, op, args):
    wrapper, client = site.wrapper, site.client
    if op == "poll":
        return site.poll()
    if op == "report":
        name, utilization = args
        site.run(client.call(
            wrapper.service_epr(), SG, "ReportUtilization",
            {"machine_name": name, "utilization": utilization}, one_way=True,
        ))
        site.settle()
        return None
    if op == "update":
        pick, conforming, name, utilization = args
        epr = site.entry(pick)
        if epr is None:
            return None
        content = (
            processor_content(name, 2.0, 256, utilization, site.env.now)
            if conforming else Element(QName(UVA, "NotAProcessor"))
        )
        if not conforming:
            content.subelement(QName(UVA, "Name"), text="evil")
        return site.outcome(client.call(epr, SG, "UpdateContent", {"content": content}))
    if op == "add":
        (name,) = args
        epr = site.outcome(client.call(
            wrapper.epr_for(site.group), SG, "Add",
            {"member": EndpointReference(f"http://{name}/ExecService"),
             "content": processor_content(name, 3.0, 1024, 0.5, site.env.now)},
        ))
        return epr.address if isinstance(epr, EndpointReference) else epr
    if op == "destroy":
        (pick,) = args
        epr = site.entry(pick)
        return None if epr is None else site.outcome(client.destroy(epr))
    if op == "checkpoint":
        site.snap = site.machine.host.snapshot()
        return None
    if op == "restart":
        # Testbed.restart_host's bounce: the host goes down and boots
        # from its last checkpoint (one taken now if there is none).
        host = site.machine.host
        snap = site.snap if site.snap is not None else host.snapshot()
        host.down = True
        site.settle()
        host.restore(snap)
        host.down = False
        return None
    raise AssertionError(op)


_name = st.sampled_from(NAMES)
_utilization = st.sampled_from((0.0, 0.25, 0.5, 1.0))
_ops = st.one_of(
    st.tuples(st.just("poll")), st.tuples(st.just("poll")),
    st.tuples(st.just("report"), _name, _utilization),
    st.tuples(st.just("update"), st.integers(0, 7), st.booleans(), _name, _utilization),
    st.tuples(st.just("add"), _name),
    st.tuples(st.just("destroy"), st.integers(0, 7)),
    st.tuples(st.just("checkpoint")),
    st.tuples(st.just("restart")),
)
programs = st.lists(_ops, min_size=1, max_size=24)


def _run(store, program):
    site = _Site(NodeInfoService, STORES[store])
    reference = _Site(ReferenceNodeInfoService, STORES[store])
    for at, (op, *args) in enumerate(program):
        got = _step(site, op, args)
        want = _step(reference, op, args)
        assert got == want, (at, op)
        assert site.counters() == reference.counters(), (at, op)
    # One last poll: the view still answers for what is stored now.
    assert site.poll() == reference.poll()


@given(st.sampled_from(sorted(STORES)), programs)
def test_view_answers_as_the_old_walk(store, program):
    _run(store, program)


class TestCatalogView:
    def test_a_nonconforming_update_leaves_the_catalog_alone(self):
        site = _Site(NodeInfoService, BlobResourceStore)
        before = site.poll()
        assert _step(site, "update", (0, False, "evil", 0.0)) == ContentRuleViolation.__name__
        after = site.poll()
        assert after[1] == before[1]
        assert "evil" not in [row["name"] for row in after[1]]

    def test_the_kept_response_is_never_handed_out(self):
        site = _Site(NodeInfoService, BlobResourceStore)
        catalog = site.wrapper._processor_index
        first, rows = site.poll()
        kept = catalog._processors
        assert kept == rows
        # The receiver vandalized its copy of the body (poll does) and
        # now its decoded rows; the kept rows are the ones reused, they
        # have not moved, and neither has the reply.
        rows[0]["name"] = "vandal"
        rows.append({})
        second, again = site.poll()
        assert catalog._processors is kept
        assert second.replace("poll-2", "poll-1") == first
        assert again == kept and "vandal" not in [row["name"] for row in kept]


def _count_everywhere(monkeypatch, name, counted):
    """Rebind the ``repro.soap.types`` function *name* in every
    ``repro`` module that holds it, counting in *counted* the calls on a
    ``GetProcessorsResult`` element that *walks* says walk a tree."""
    original = getattr(soap_types, name)

    def counting(*args):
        counted[name] += walks(*args)
        return original(*args)

    walks = {
        # an element built, by any producer or by reading a TypedValue
        "to_typed_element": lambda tag, value: tag.local == "GetProcessorsResult",
        # the tree branch: anything but a TypedValue nobody has read
        "from_typed_element": lambda element: element.tag.local == "GetProcessorsResult"
        and not (type(element) is TypedValue and element.unread),
    }[name]
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("repro") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counting)


def test_a_fan_parses_each_content_document_once_and_encodes_on_change(monkeypatch):
    """On a 32-machine, 64-job fan, ``parse_processor_content`` runs
    once per distinct entry content document, not once per entry per
    poll, the catalog's rows are rebuilt only on polls whose rows differ
    from the previous poll's, and no side builds or walks a
    ``GetProcessorsResult`` tree: the rows cross the hand-off as a
    value."""
    polls, answers, parsed, reports = [], [], [], [0]
    trees = {"to_typed_element": 0, "from_typed_element": 0}
    walking = [False]
    parse = node_info.parse_processor_content
    content = node_info.processor_content
    walk, answer = ProcessorCatalog._walk, ProcessorCatalog.processors

    def counting_parse(content):
        if walking[0]:
            parsed.append(content)  # held, so no two are ever one id
        return parse(content)

    def counting_content(*args):
        reports[0] += 1  # each report that lands writes one document
        return content(*args)

    def counting_walk(self, wrapper):
        walking[0] = True
        try:
            return walk(self, wrapper)
        finally:
            walking[0] = False

    def counting_answer(self, wrapper):
        rows = answer(self, wrapper)
        answers.append(rows)  # held, so no two are ever one id
        polls.append(copy_field(rows))
        return rows

    monkeypatch.setattr(node_info, "parse_processor_content", counting_parse)
    monkeypatch.setattr(node_info, "processor_content", counting_content)
    monkeypatch.setattr(ProcessorCatalog, "_walk", counting_walk)
    monkeypatch.setattr(ProcessorCatalog, "processors", counting_answer)
    for name in trees:
        _count_everywhere(monkeypatch, name, trees)

    tb = fig3_testbed(1.0, {"out.dat": b"x"}, n_machines=32)
    client = tb.make_client()
    outcome, _, _ = tb.run_job_set(client, fan_spec(client, tb, 64))
    assert outcome == "completed"

    assert len(polls) == 64
    assert len({id(content) for content in parsed}) == len(parsed)
    # Every document parsed is one of the 32 seeded or one a report
    # wrote; the old walk parsed 32 per poll.
    assert len(parsed) <= 32 + reports[0] < 32 * len(polls) // 8
    changed = sum(
        1 for at, rows in enumerate(polls) if at == 0 or rows != polls[at - 1]
    )
    rebuilt = sum(
        1 for at, rows in enumerate(answers) if at == 0 or rows is not answers[at - 1]
    )
    assert rebuilt == changed < len(polls) // 2, (rebuilt, changed)
    assert trees == {"to_typed_element": 0, "from_typed_element": 0}
