"""The wire contract (docs/fault_tolerance.md): whatever text reaches a
bound port — a WSRF wrapper behind IIS, the client's file server, the
notification listener, a path nobody serves — comes back as an envelope
(a response or a ``soap:Fault``) or, one-way, is handled or counted and
dropped.  Nothing but the response text or a ``DeliveryError`` leaves
``Network.request`` / ``send_one_way`` for what a sender wrote.

First the ten probed rows of ISSUE 23's table, then the boundary fuzzed:
arbitrary text and mutated captures of real traffic into every kind of
endpoint, both exchange patterns, and a Fig-3 fan on the same testbed
afterwards (ROADMAP item 1(c)).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import DeliveryError
from repro.soap import EnvelopeCache, SoapEnvelope, SoapFault
from repro.wsa import AddressingHeaders, EndpointReference
from repro.wsn import NotificationListener
from repro.wsn.base_notification import NOTIFY, NOTIFY_RESPONSE, build_notify_body
from repro.wsn.topics import FULL_DIALECT
from repro.xmlx import NS, Element, QName, parse, to_string

from tests.helpers import fan_spec, fig3_testbed

UVA = NS.UVACG
GARBAGE = "not xml at all"
NO_TO = (
    '<soap:Envelope xmlns:soap="http://schemas.xmlsoap.org/soap/envelope/">'
    "<soap:Header/><soap:Body><x/></soap:Body></soap:Envelope>"
)
SCHEDULER = "http://uvacg-central:80/Scheduler"
BROKER = "http://uvacg-central:80/NotificationBroker"
FSS = "http://node00:80/FileSystem"
NOBODY = "http://uvacg-central:80/Nope"
LISTENER = "http://client01:7000/notify"
FILES = "soap.tcp://client01:9000/files"


def _grid():
    """A Fig-3 testbed with one client (``client01``) and a host the
    hostile text is sent from."""
    tb = fig3_testbed(2.0, {"out.dat": b"ok"})
    tb.network.add_host("evil")
    return tb, tb.make_client()


def _envelope(url, body, **headers):
    action = f"{body.tag.uri}/{body.tag.local}"
    return SoapEnvelope(AddressingHeaders(EndpointReference(url), action, **headers), body)


_EMPTY_NOTIFICATION_MESSAGE = Element(NOTIFY)
_EMPTY_NOTIFICATION_MESSAGE.subelement(QName(NS.WSNT, "NotificationMessage"))


def _ask(tb, url, text):
    """Request/response from ``evil``; the reply, strictly parsed."""
    return SoapEnvelope.deserialize(tb.run(tb.network.request("evil", url, text)))


def _client_fault(reply):
    fault = SoapFault.from_element(reply.body)
    assert fault.code == "soap:Client"
    return fault.reason


def _tell(tb, url, text):
    """One-way from ``evil``, then long enough for the detached
    delivery to have ended the run if it were going to."""
    tb.run(tb.network.send_one_way("evil", url, text))
    tb.settle(5.0)


def _fan_completes(tb, client):
    outcome, _, _ = tb.run_job_set(client, fan_spec(client, tb, 4))
    assert outcome == "completed"


class TestTheTenRows:
    """ISSUE 23's table, right-hand column; rows 1-8 differ at 78f9252."""

    @pytest.mark.parametrize("text, reason", [
        (GARBAGE, "XmlParseError"),       # row 1
        (NO_TO, "lacks a wsa:To"),        # row 2
    ])
    def test_unreadable_request_to_a_wrapper_is_a_client_fault(self, text, reason):
        tb, _ = _grid()
        reply = _ask(tb, SCHEDULER, text)
        assert reason in _client_fault(reply)
        # no request to quote: anonymous EPR of the sender, the fault action
        assert reply.addressing.to_epr.address == "http://evil/anonymous"
        assert reply.action == NS.WSA + "/fault" and reply.addressing.relates_to is None
        assert tb.scheduler.faults_returned == tb.scheduler.invocations == 1

    def test_row_3_request_to_a_path_nobody_serves(self):
        tb, _ = _grid()
        reply = _ask(tb, NOBODY, "<a/>")
        assert "no service at '/Nope' on host 'uvacg-central'" in _client_fault(reply)
        assert tb.network.stats.faults == {"refused": 1}

    @pytest.mark.parametrize("payload", [
        GARBAGE,                                                            # row 4
        _envelope(LISTENER, Element(QName(UVA, "Hello"))).serialize(),      # row 5
        _envelope(LISTENER, _EMPTY_NOTIFICATION_MESSAGE).serialize(),       # row 6
    ])
    def test_rows_4_to_6_bad_one_way_to_the_listener_is_dropped_and_counted(self, payload):
        tb, client = _grid()
        _tell(tb, LISTENER, payload)
        assert tb.network.stats.faults == {"rejected": 1}
        assert client.listener.received == []
        _fan_completes(tb, client)

    def test_row_7_garbage_to_the_file_server(self):
        tb, client = _grid()
        _tell(tb, FILES, GARBAGE)
        assert tb.network.stats.faults == {"rejected": 1}
        assert "XmlParseError" in _client_fault(_ask(tb, FILES, GARBAGE))
        assert tb.network.stats.faults == {"rejected": 1}  # answered, not dropped
        assert client.file_server.reads_served == 0
        _fan_completes(tb, client)

    def test_row_8_a_notify_sent_request_response_gets_a_notify_response(self):
        tb, client = _grid()
        body = build_notify_body("t/x", Element(QName(UVA, "Event"), text="e"))
        reply = tb.run(client.soap.invoke(client.listener.epr, body))
        assert reply.tag == NOTIFY_RESPONSE
        assert client.listener.topics_seen() == ["t/x"]

    def test_row_9_read_without_filename_keeps_its_bytes(self):
        tb, client = _grid()
        request = _envelope(FILES, Element(QName(UVA, "Read")))
        text = tb.run(tb.network.request("node00", FILES, request.serialize()))
        reply = SoapEnvelope.deserialize(text)
        # what ClientFileServer._respond wrote by hand at 78f9252
        expected = SoapEnvelope(
            AddressingHeaders(
                EndpointReference("http://client01/anonymous"),
                request.action + "Response",
                message_id=reply.addressing.message_id,
                relates_to=request.addressing.message_id,
            ),
            SoapFault("soap:Client", "Read lacks a filename").to_element(),
        ).serialize()
        assert str(text) == expected
        assert tb.network.stats.faults == {}

    def test_row_10_hostile_one_ways_to_a_wrapper_and_to_nobody(self):
        # tests/test_deployment_state.py::TestHostileOneWay pins the PR 19
        # half; here, what the contract adds: the drops are counted.
        tb, client = _grid()
        for url, text in [(SCHEDULER, GARBAGE), (SCHEDULER, NO_TO), (NOBODY, "<a/>")]:
            _tell(tb, url, text)
        assert tb.scheduler.faults_returned == 2
        assert tb.network.stats.faults == {"rejected": 2, "refused": 1}
        _fan_completes(tb, client)


class TestAnAddressThatCannotBeRouted:
    def test_is_a_delivery_error_not_a_uri_error(self):
        tb, _ = _grid()
        for send in (tb.network.request, tb.network.send_one_way):
            for url in ("not-a-uri", "local://c:/data/x"):
                with pytest.raises(DeliveryError, match=f"cannot route '{url}'"):
                    tb.run(send("evil", url, "<a/>"))
        assert tb.network.stats.faults == {"refused": 4}

    def test_such_a_subscriber_loses_its_notification_and_nobody_elses(self):
        tb, client = _grid()
        tb.network.add_host("watcher")
        other = NotificationListener(tb.network, "watcher")
        broker = tb.broker.service_epr()
        for consumer in (EndpointReference("not-a-uri"), client.listener.epr, other.epr):
            tb.run(client.soap.subscribe(broker, consumer, "t/**", dialect=FULL_DIALECT))
        body = build_notify_body("t/x", Element(QName(UVA, "Event"), text="e"))
        tb.run(client.soap.invoke(broker, body, category="notify"))
        tb.settle(5.0)  # a UriError in the detached send would surface here
        assert tb.network.stats.faults == {"refused": 1}
        assert client.listener.topics_seen() == other.topics_seen() == ["t/x"]


# -- the boundary, fuzzed --------------------------------------------------------------

TARGETS = [SCHEDULER, FSS, BROKER, LISTENER, FILES, NOBODY]

_SOAP_HEADER = QName(NS.SOAP, "Header")
_SOAP_BODY = QName(NS.SOAP, "Body")
_XSI_TYPE = QName(NS.XSI, "type")


def _captured_traffic(tb, client):
    """One wire text per distinct (port, body element) of a 4-job Fig-3
    fan on *tb*: requests, replies, one-ways and notifications as
    really sent."""
    wires = {}
    real = EnvelopeCache.encode

    def capture(self, envelope):
        wire = real(self, envelope)
        port = envelope.addressing.to_epr.address.split("/", 3)[-1]
        wires.setdefault((port, envelope.body.tag.clark()), str(wire))
        return wire

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(EnvelopeCache, "encode", capture)
        _fan_completes(tb, client)
    return [wires[key] for key in sorted(wires)]


def _drop_header(root, draw):
    blocks = root.find(_SOAP_HEADER).children
    if blocks:
        blocks.remove(draw(st.sampled_from(blocks)))


def _duplicate_header(root, draw):
    header = root.find(_SOAP_HEADER)
    if header.children:
        header.append(draw(st.sampled_from(header.children)).copy())


def _unknown_body(root, draw):
    root.find(_SOAP_BODY).children[:] = [Element(QName(UVA, "NoSuchOperation"))]


def _second_body_child(root, draw):
    root.find(_SOAP_BODY).append(Element(QName(UVA, "Stowaway")))


def _empty_to(root, draw):
    for block in root.find(_SOAP_HEADER).findall(QName(NS.WSA, "To")):
        block.text = ""


def _break_a_leaf(root, draw):
    """Spoil one typed leaf: base64 that is not, a number that is not."""
    leaves = [el for el in root.iter() if el.get(_XSI_TYPE) and not el.children]
    if leaves:
        draw(st.sampled_from(leaves)).text = "%%% not a literal %%%"


def _retype_a_leaf(root, draw):
    """The sender lies about a type: a string where a map was, an EPR
    with no address, an array of nothing."""
    typed = [el for el in root.iter() if el.get(_XSI_TYPE)]
    if typed:
        draw(st.sampled_from(typed)).set(_XSI_TYPE, draw(st.sampled_from([
            "xsd:long", "xsd:base64Binary", "uva:map", "uva:array", "uva:xmlAny",
            "wsa:EndpointReferenceType", "xsd:nonsense",
        ])))


def _drop_an_element(root, draw):
    """Lose one element of the payload, wherever it is: an argument, a
    map entry's key, an EPR's ``Address``, a notification's ``Topic``."""
    parents = [el for el in root.find(_SOAP_BODY).children[0].iter() if el.children]
    if parents:
        children = draw(st.sampled_from(parents)).children
        children.remove(draw(st.sampled_from(children)))


_TREE_MUTATIONS = [_drop_header, _duplicate_header, _unknown_body, _second_body_child,
                   _empty_to, _break_a_leaf, _retype_a_leaf, _drop_an_element]


@st.composite
def _hostile_messages(draw, captured):
    """``(text, url)``: arbitrary text for any endpoint, or a captured
    envelope truncated or mutated — as often as not for the endpoint it
    was really sent to, where it gets furthest."""
    kind = draw(st.sampled_from(["text", "bytes", "truncated", "mutated", "mutated"]))
    if kind == "text":
        return draw(st.text(max_size=200)), draw(st.sampled_from(TARGETS))
    if kind == "bytes":
        text = draw(st.binary(max_size=200)).decode("utf-8", "replace")
        return text, draw(st.sampled_from(TARGETS))
    wire = draw(st.sampled_from(captured))
    root = parse(wire)
    home = root.find(_SOAP_HEADER).child_text(QName(NS.WSA, "To"))
    if "/anonymous" in home:  # a captured reply: it has no endpoint
        home = draw(st.sampled_from(TARGETS))
    url = draw(st.sampled_from([home] * len(TARGETS) + TARGETS))
    if kind == "truncated":
        return wire[:draw(st.integers(0, len(wire) - 1))], url
    for mutate in draw(st.lists(st.sampled_from(_TREE_MUTATIONS), min_size=1, max_size=3)):
        mutate(root, draw)
    return to_string(root, xml_declaration=True), url


class TestTheBoundaryFuzzed:
    """No text, to no endpoint, in neither exchange pattern, becomes an
    exception in the sender's process or ends the simulation."""

    def test_nothing_but_a_reply_or_a_delivery_error_comes_back(self):
        tb, client = _grid()
        captured = _captured_traffic(tb, client)
        assert len(captured) > 15

        @settings(max_examples=300)
        @given(st.data())
        def fuzz(data):
            text, url = data.draw(_hostile_messages(captured))
            if data.draw(st.booleans()):
                # returns, and so does the detached delivery
                _tell(tb, url, text)
                return
            try:
                reply = tb.run(tb.network.request("evil", url, text))
            except DeliveryError:
                return  # the transport's own answer; anything else fails the test
            body = SoapEnvelope.deserialize(reply).body
            if SoapFault.is_fault(body):
                assert SoapFault.from_element(body).code in ("soap:Client", "soap:Server")
            else:
                assert body.tag.local.endswith("Response")

        fuzz()
        _fan_completes(tb, client)
