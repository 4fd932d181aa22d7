"""The bulk data path (docs/performance.md, "Bulk data path").

A staged file travels FSS ``Read`` -> typed encoder -> envelope writer
-> ``Network.request`` -> typed decoder -> ``fs.write_file``, and on
that path nothing may sweep or copy the whole payload to learn what the
code already knows.  Each mechanism is pinned against the reference it
replaced, each guard has a test that fails without it, and the
regression guard counts the payload-sized calls of a whole staging run
from outside — no base64 encode or decode, no wire text built as a
``str``, no digest — against the same run on the reference codec:

- ``escape_text`` / ``escape_attr`` against the regex-probe version
  (kept here as the reference), and the same-object answer the base64
  hand-off and the envelope splice rely on;
- message sizes for non-ASCII text (the pinned benches send ASCII only),
  and a lone surrogate raising where it did, as text or as an argument;
- the base64 leaf: the ``bytes`` of a typed value (the file server's
  ``ReadResult``) are handed over; every element's text — built, parsed,
  assigned — meets ``base64.b64decode``;
- ``FileContent``: a lazy digest with the eager one's answers;
- bad numeric / base64 literals are the sender's ``soap:Client`` fault.
"""

import base64
import hashlib
import re
import types

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.gridapp import Testbed
from repro.net import Network
from repro.osim import FileContent, Machine, MachineParams, SimFileSystem
from repro.osim.programs import make_compute_program
from repro.sim import Environment
from repro.gridapp.filesystem_service import content_to_wire
from repro.soap import SoapEnvelope, SoapFault, from_typed_element, to_typed_element, typed_value
from repro.soap import types as soap_types
from repro.wsa import AddressingHeaders, EndpointReference
from repro.wsrf import ServiceSkeleton, WebMethod, WsrfClient, deploy
from repro.xmlx import NS, Element, QName, WireText, parse, to_string
from repro.xmlx.writer import escape_attr, escape_text

from tests.helpers import fan_spec
from tests.test_net import _EchoServer, _fabric, _run

UVA = NS.UVACG
XSI_TYPE = QName(NS.XSI, "type")

#: anything this long is a payload, not an envelope's small change
PAYLOAD_SIZED = 100_000


# -- (a) the escape probe --------------------------------------------------------------

_TEXT_NEEDS_ESCAPE = re.compile(r"[&<>]").search
_ATTR_NEEDS_ESCAPE = re.compile(r'[&<>"]').search


def _reference_escape_text(value):
    """What ``escape_text`` was: one character-class scan, then replaces."""
    if _TEXT_NEEDS_ESCAPE(value) is None:
        return value
    return value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _reference_escape_attr(value):
    if _ATTR_NEEDS_ESCAPE(value) is None:
        return value
    return _reference_escape_text(value).replace('"', "&quot;")


_markup_rich = st.text(alphabet=st.sampled_from("&<>\"';ab \n\ré€\U0001f600"), max_size=24)


class TestEscapeProbe:
    @given(_markup_rich)
    def test_same_string_as_the_regex_probe(self, value):
        assert escape_text(value) == _reference_escape_text(value)
        assert escape_attr(value) == _reference_escape_attr(value)

    @pytest.mark.parametrize("char,entity", [("&", "&amp;"), ("<", "&lt;"), (">", "&gt;")])
    def test_each_markup_character_alone(self, char, entity):
        # one dropped ``in`` test and this character goes out raw
        assert escape_text(f"a{char}b") == escape_attr(f"a{char}b") == f"a{entity}b"

    def test_quote_is_escaped_in_attributes_only(self):
        assert escape_text('say "hi"') == 'say "hi"'
        assert escape_attr('say "hi"') == "say &quot;hi&quot;"

    def test_ampersand_first(self):
        assert escape_text("<&>") == "&lt;&amp;&gt;"

    def test_markup_free_text_comes_back_as_the_same_object(self):
        big = "QUJD" * (1 << 20)  # 4 MB of base64 alphabet
        assert escape_text(big) is big and escape_attr(big) is big
        sample = base64.b64encode(b"\x00\x01\x02" * 50_000).decode("ascii")
        assert escape_text(sample) is sample


# -- (b) message sizes ------------------------------------------------------------------


def _echo_fabric():
    env, net, (_, node1) = _fabric()
    server = _EchoServer(env)
    node1.bind(80, server)
    return env, net, server


def _delivered(server):
    return [payload for _, payload, _ in server.log]


class TestMessageSizes:
    @pytest.mark.parametrize("text", ["plain ascii", "é", "astral \U0001f600 and é", ""])
    def test_request_counts_utf8_bytes(self, text):
        env, net, _ = _echo_fabric()
        _run(env, net.request("node0", "http://node1/x", text))
        reply = "echo:" + text
        assert net.stats.bytes == (
            len(text.encode("utf-8")) + len(reply.encode("utf-8"))
            + 2 * net.params.http_overhead_B
        )

    @pytest.mark.parametrize("text", ["plain ascii", "é", "astral \U0001f600 and é"])
    def test_one_way_counts_utf8_bytes(self, text):
        env, net, server = _echo_fabric()
        _run(env, net.send_one_way("node0", "soap.tcp://node1:80/x", text))
        env.run()
        assert _delivered(server) == [text]
        assert net.stats.bytes == len(text.encode("utf-8")) + net.params.soaptcp_overhead_B

    def test_non_ascii_costs_wire_time_for_its_bytes(self):
        def elapsed(text):
            env, net, _ = _echo_fabric()
            _run(env, net.request("node0", "http://node1/x", text))
            return env.now

        assert elapsed("é" * 1000) == elapsed("ab" * 1000) > elapsed("a" * 1000)

    @pytest.mark.parametrize("send", ["request", "send_one_way"])
    def test_lone_surrogate_still_raises_where_it_did(self, send):
        env, net, server = _echo_fabric()
        proc = env.process(getattr(net, send)("node0", "http://node1/x", "bad \ud800"))
        with pytest.raises(UnicodeEncodeError):
            env.run(until=proc)
        assert net.stats.messages == 0 and _delivered(server) == []

    @pytest.mark.parametrize("one_way", [False, True])
    def test_lone_surrogate_in_a_call_argument_raises_where_it_did(self, one_way):
        """The typed twin: the argument is written into a message whose
        size nobody asks for before the transport does, after the
        connect delay — as for the text above."""
        env, net, server = _echo_fabric()
        call = env.process(WsrfClient(net, "node0").call(
            EndpointReference("http://node1/x"), UVA, "Say", {"word": "bad \ud800"},
            one_way=one_way))
        with pytest.raises(UnicodeEncodeError):
            env.run(until=call)
        assert env.now == net.params.http_connect_s + net.latency_between("node0", "node1") > 0
        assert net.stats.messages == 0 and _delivered(server) == []


# -- (c) the base64 leaf ------------------------------------------------------------------


def _reference_decode(element):
    return base64.b64decode(element.full_text().strip().encode("ascii"))


@pytest.fixture
def decodes(monkeypatch):
    """The inputs ``base64.b64decode`` is given inside the typed codec."""
    seen = []

    def b64decode(data):
        seen.append(data)
        return base64.b64decode(data)

    monkeypatch.setattr(soap_types, "base64", types.SimpleNamespace(
        b64encode=base64.b64encode, b64decode=b64decode))
    return seen


@pytest.fixture
def encodes(decodes, monkeypatch):
    """The inputs ``base64.b64encode`` is given inside the typed codec
    (``decodes`` goes on counting)."""
    seen = []

    def b64encode(data):
        seen.append(data)
        return base64.b64encode(data)

    monkeypatch.setattr(soap_types, "base64", types.SimpleNamespace(
        b64encode=b64encode, b64decode=soap_types.base64.b64decode))
    return seen


@pytest.fixture
def wire_strs(monkeypatch):
    """Every wire text built as a ``str``, by length: what the reference
    encoder wrote, what the hand-off joined when it encoded, and what
    anyone read out of a message with ``str()``."""
    seen = []
    serialize, init, read = SoapEnvelope.serialize, WireText.__init__, WireText.__str__

    def serialized(self, cache=None):
        wire = serialize(self, cache)
        if type(wire) is str:
            seen.append(wire)
        return wire

    def made(self, content, *args):
        if type(content) is str:
            seen.append(content)
        init(self, content, *args)

    def text(self):
        seen.append(read(self))
        return seen[-1]

    monkeypatch.setattr(SoapEnvelope, "serialize", serialized)
    monkeypatch.setattr(WireText, "__init__", made)
    monkeypatch.setattr(WireText, "__str__", text)
    return seen


class TestBase64Leaf:
    @given(st.binary(max_size=64))
    def test_round_trip_is_the_reference_decode(self, value):
        element = to_typed_element(QName(UVA, "blob"), value)
        assert element.text == base64.b64encode(value).decode("ascii")
        assert from_typed_element(element) == value == _reference_decode(element)
        assert from_typed_element(parse(to_string(element))) == value

    def test_handed_over_without_decoding(self, decodes):
        value = bytes(range(256)) * 8
        content = FileContent.from_bytes(value)
        element = typed_value(QName(UVA, "ReadResult"), content_to_wire(content))
        assert from_typed_element(element)["data"] is value
        assert from_typed_element(element)["data"] is value  # every reader, not just one
        assert decodes == []

    def test_the_text_is_written_as_plain_text(self):
        value = b"\xff\xfe" * 5000
        element = to_typed_element(QName(UVA, "blob"), value)
        wire = to_string(element)
        # "".join of the writer's pieces yields an exact str
        assert type(wire) is str and base64.b64encode(value).decode("ascii") in wire
        assert wire == to_string(parse(wire))
        assert hash(element.text) == hash(str(element.text))

    def test_parsed_text_meets_the_decoder(self, decodes):
        value = bytes(range(256)) * 8
        parsed = parse(to_string(to_typed_element(QName(UVA, "blob"), value)))
        assert type(parsed.text) is str
        assert from_typed_element(parsed) == value
        assert len(decodes) == 1

    def test_replaced_text_is_decoded_not_remembered(self, decodes):
        element = to_typed_element(QName(UVA, "blob"), b"first value")
        element.text = base64.b64encode(b"second").decode("ascii")
        assert from_typed_element(element) == b"second"
        element.text = " aGk=\n"  # whitespace the schema allows
        assert from_typed_element(element) == b"hi"
        assert len(decodes) == 2

    def test_appended_child_takes_the_reference_path(self, decodes):
        element = to_typed_element(QName(UVA, "blob"), b"abc")
        element.subelement(QName(UVA, "more"), text=base64.b64encode(b"def").decode("ascii"))
        assert from_typed_element(element) == b"abcdef" == _reference_decode(element)
        assert len(decodes) == 1

    def test_bytes_subclass_decodes_to_its_base(self, decodes):
        class Tagged(bytes):
            pass

        element = to_typed_element(QName(UVA, "blob"), Tagged(b"abc"))
        assert type(element.text) is str
        got = from_typed_element(element)
        assert got == b"abc" and type(got) is bytes
        assert len(decodes) == 1

    def test_a_mutable_buffer_cannot_reach_the_hand_off(self, decodes):
        buffer = bytearray(b"abc")
        element = to_typed_element(QName(UVA, "blob"), bytes(buffer))
        buffer[:] = b"xyz"
        assert from_typed_element(element) == b"abc"
        with pytest.raises(TypeError):  # a bytearray itself was never encodable
            to_typed_element(QName(UVA, "blob"), buffer)

    def test_empty_bytes(self):
        element = to_typed_element(QName(UVA, "blob"), b"")
        assert element.text == "" and from_typed_element(element) == b""
        assert from_typed_element(parse(to_string(element))) == b""

    def test_envelope_hand_off_carries_the_bytes(self, decodes):
        """Sender to receiver through the envelope hand-off, as the file
        server replies: the receiver is handed the sender's ``bytes``;
        the same wire text delivered again is parsed, and decoded."""
        value = bytes(range(256)) * 512
        codec = Network(Environment()).codec
        body = Element(QName(UVA, "ReadResponse"))
        content = FileContent.from_bytes(value)
        body.append(typed_value(QName(UVA, "ReadResult"), content_to_wire(content)))
        headers = AddressingHeaders(EndpointReference("http://b/x"), "urn:read")
        wire = SoapEnvelope(headers, body).serialize(codec)
        text = str(wire)
        assert type(text) is str and text == SoapEnvelope(headers, body).serialize()
        first = from_typed_element(SoapEnvelope.deserialize(wire, codec).body.children[0])
        assert first["data"] is value and decodes == []
        again = from_typed_element(SoapEnvelope.deserialize(wire, codec).body.children[0])
        assert again["data"] == value and again["data"] is not value
        assert len(decodes) == 1


# -- (d) FileContent -----------------------------------------------------------------------


@pytest.fixture
def digests(monkeypatch):
    """The inputs ``hashlib.sha256`` is given inside the filesystem."""
    import repro.osim.filesystem as filesystem

    seen = []

    def sha256(data):
        seen.append(data)
        return hashlib.sha256(data)

    monkeypatch.setattr(filesystem, "hashlib", types.SimpleNamespace(sha256=sha256))
    return seen


class TestLazyDigest:
    def test_digest_is_the_sha256_of_the_data(self, digests):
        data = bytes(range(256)) * 64
        content = FileContent.from_bytes(data)
        assert digests == []
        assert content.digest == hashlib.sha256(data).hexdigest() == content.digest
        assert len(digests) == 1  # at most once

    def test_staging_computes_none(self, digests):
        fs = SimFileSystem("m")
        fs.mkdir("c:/work")
        data = b"payload" * 1000
        fs.write_file("c:/work/out.dat", data)
        fs.move_file("c:/work/out.dat", "c:/work/moved.dat")
        content = fs.read_file("c:/work/moved.dat")
        assert content.to_bytes() is data and content.size == len(data)
        assert fs.total_bytes() == len(data) and "bytes" in repr(content)
        assert digests == []

    def test_equality_answers(self, digests):
        data = b"0123456789abcdef" * 4
        same_object = FileContent.from_bytes(data)
        assert same_object == FileContent.from_bytes(data)
        assert FileContent.from_bytes(data) != FileContent.from_bytes(data + b"!")
        assert digests == []  # same bytes object; different sizes
        assert FileContent.from_bytes(data) == FileContent.from_bytes(bytes(bytearray(data)))
        assert FileContent.from_bytes(data) != FileContent.from_bytes(data[::-1])
        assert FileContent.from_bytes(data) != data

    def test_real_and_synthetic_of_one_size_differ(self):
        synthetic = FileContent.synthetic(64)
        real = FileContent.from_bytes(synthetic.to_bytes())
        assert real.size == synthetic.size and real != synthetic and synthetic != real
        assert synthetic == FileContent.synthetic(64) != FileContent.synthetic(65)
        assert synthetic.digest == hashlib.sha256(b"synthetic:64").hexdigest()


# -- (e) the regression guard: a whole staging run, counted from outside ------------------

_MB = 1 << 20


def _files_under(fs, directory):
    for name in fs.listdir(directory):
        path = f"{directory}/{name}"
        if fs.is_dir(path):
            yield from _files_under(fs, path)
        else:
            yield path


def _staging_run():
    """A 3-job chain, each job staging its predecessor's 1 MB output."""
    payload = bytes(range(256)) * (_MB // 256)
    tb = Testbed(n_machines=3, seed=11, machine_speeds=[1.0] * 3)
    tb.programs.register(make_compute_program("chain", 5.0, outputs={"out.dat": payload}))
    client = tb.make_client()
    outcome, jobset_epr, _ = tb.run_job_set(
        client, fan_spec(client, tb, 3, chain=True, program="chain"))
    makespan = tb.env.now
    tb.settle()
    state = tb.scheduler.store.load("Scheduler", jobset_epr.get(QName(UVA, "ResourceID")))
    staged = {
        f"{machine.name}/{path}": machine.fs.read_file(path).to_bytes()
        for machine in tb.machines for path in _files_under(machine.fs, "/")
        if path.endswith("/prev.dat")
    }
    outputs = {
        name: tb.run(client.fetch_output(dir_epr, "out.dat")).to_bytes()
        for name, dir_epr in sorted(state[QName(UVA, "job_dirs")].items())
    }
    assert outcome == "completed" and len(outputs) == 3 and len(staged) == 2
    assert set(outputs.values()) == set(staged.values()) == {payload}
    return {
        "outputs": outputs, "staged": staged, "makespan": makespan,
        "messages": tb.network.stats.messages, "bytes": tb.network.stats.bytes,
    }


def _payload_sized(seen):
    return [item for item in seen if len(item) > PAYLOAD_SIZED]


class TestStagingRun:
    def test_no_payload_sized_decode_or_digest(self, decodes, digests):
        _staging_run()
        assert _payload_sized(decodes) == [] and _payload_sized(digests) == []

    def test_no_payload_sized_encode_or_wire_text(self, encodes, wire_strs):
        _staging_run()
        assert _payload_sized(encodes) == [] and _payload_sized(wire_strs) == []

    def test_reference_codec_run_is_identical_and_decodes(
            self, encodes, decodes, digests, wire_strs, reference_codec):
        handed = _staging_run()
        assert _payload_sized(decodes) == _payload_sized(encodes) == []
        assert _payload_sized(wire_strs) == []
        with reference_codec():
            reference = _staging_run()
        # 2 staged inputs + 3 fetched outputs came through the parser,
        # each encoded and written into a wire text first: the guards
        # above are not vacuous
        assert len(_payload_sized(decodes)) == 5
        assert len(_payload_sized(encodes)) == len(_payload_sized(wire_strs)) == 5
        assert reference == handed
        assert _payload_sized(digests) == []


# -- (f) bad literals are the sender's fault ---------------------------------------------


class Adder(ServiceSkeleton):
    SERVICE_NS = UVA

    @WebMethod(requires_resource=False)
    def Add(self, amount: int = 0, scale: float = 1.0, blob: bytes = b"") -> int:
        return int(amount * scale) + len(blob)


class _Replies:
    """A server answering every request with one canned result."""

    def __init__(self, env, xsi_type, text):
        self.env, self.xsi_type, self.text = env, xsi_type, text

    def handle(self, payload, ctx):
        request = SoapEnvelope.deserialize(payload)
        body = Element(QName(UVA, "AddResponse"))
        body.subelement(QName(UVA, "AddResult"), text=self.text).set(XSI_TYPE, self.xsi_type)
        headers = AddressingHeaders(
            EndpointReference("http://client/anonymous"), "urn:reply",
            relates_to=request.addressing.message_id)
        yield self.env.timeout(0)
        return SoapEnvelope(headers, body).serialize()


_BAD_LITERALS = [
    ("amount", "xsd:long", "12x", "bad long literal '12x'"),
    ("amount", "xsd:int", "", "bad int literal ''"),
    ("scale", "xsd:double", "1.5.2", "bad double literal '1.5.2'"),
    ("scale", "xsd:float", "fast", "bad float literal 'fast'"),
    # what Python's int() / float() would read and no sender writes
    ("amount", "xsd:long", "1_000", "bad long literal '1_000'"),
    ("amount", "xsd:long", "\u0663", "bad long literal '\u0663'"),
    ("amount", "xsd:int", "\uff11\uff12", "bad int literal '\uff11\uff12'"),
    ("amount", "xsd:long", "0x10", "bad long literal '0x10'"),
    ("scale", "xsd:double", "1_0.5", "bad double literal '1_0.5'"),
    ("scale", "xsd:double", "\u0663.5", "bad double literal '\u0663.5'"),
    ("scale", "xsd:float", "1e1_0", "bad float literal '1e1_0'"),
    ("blob", "xsd:base64Binary", "a", "bad base64Binary literal"),
    ("blob", "xsd:base64Binary", "aGk=é", "bad base64Binary literal"),
]


class TestBadLiterals:
    @pytest.mark.parametrize("arg,xsi_type,text,message", _BAD_LITERALS)
    def test_server_reports_the_senders_mistake(self, arg, xsi_type, text, message):
        env = Environment()
        net = Network(env)
        wrapper = deploy(Adder, Machine(net, "node1", params=MachineParams()), "Adder")
        net.add_host("client")
        body = Element(QName(UVA, "Add"))
        body.subelement(QName(UVA, arg), text=text).set(XSI_TYPE, xsi_type)
        call = env.process(WsrfClient(net, "client").invoke(wrapper.service_epr(), body))
        with pytest.raises(SoapFault, match=re.escape(message)) as caught:
            env.run(until=call)
        assert caught.value.code == "soap:Client"

    @pytest.mark.parametrize("arg,xsi_type,text,message", _BAD_LITERALS)
    def test_client_raises_a_soap_fault_from_call(self, arg, xsi_type, text, message):
        env = Environment()
        net = Network(env)
        net.add_host("client")
        net.add_host("node1").bind(80, _Replies(env, xsi_type, text))
        call = env.process(WsrfClient(net, "client").call(
            EndpointReference("http://node1/Adder"), UVA, "Add"))
        with pytest.raises(SoapFault, match=re.escape(message)) as caught:
            env.run(until=call)
        assert caught.value.code == "soap:Client"

    def test_well_formed_literals_decode_as_before(self):
        def leaf(xsi_type, text):
            element = Element(QName(UVA, "v"), text=text)
            element.set(XSI_TYPE, xsi_type)
            return from_typed_element(element)

        assert leaf("xsd:long", " 42\n") == 42 and leaf("xsd:int", "-7") == -7
        assert leaf("xsd:double", " 1e3 ") == 1000.0 and leaf("xsd:float", "-0.0") == 0.0
        # everything str(int) / repr(float) write still round-trips
        for number in (0, -7, 10**30, 1.5, -0.0, 1e-07, 1e+300, float("inf"), float("-inf")):
            kind, text = ("xsd:long", str(number)) if type(number) is int else (
                "xsd:double", repr(number))
            assert repr(leaf(kind, text)) == repr(number)
        assert leaf("xsd:long", "+5") == 5 and repr(leaf("xsd:double", "nan")) == "nan"
        assert leaf("xsd:base64Binary", "\n aGk= ") == b"hi"
        assert leaf("xsd:base64Binary", "aG k=") == b"hi"  # no validate=True
