"""A typed value crosses the envelope hand-off as a value.

A web method's result, a ``call`` argument and a resource property are
handed to the envelope as :func:`repro.soap.typed_value`: an element
that holds an isolated copy of the value and builds its tree only when
someone reads it.  The splice writes its text from the value, and the
receiver decodes a copy of it (docs/performance.md, "Typed values cross
as values").  Hypothesis draws values from the typed universe and from
outside it — tuples, an ``IntEnum``, ``str``-subclass keys, a padded
EPR, elements, bytes, NaN / -0.0 / inf, nesting — and sends each
through a deployed wrapper as an argument and back as the result, once
with the default codec and once with the reference codec (parse and
``to_string``, nothing handed over).  Both runs must put the same text
on the wire and decode the same values of the same types, and no
receiver that mutates what it decoded may change what the sender
answers next.
"""

import copy
import enum
import math
import re

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.net import Network
from repro.osim import Machine
from repro.sim import Environment
from repro.soap import SoapEnvelope, TypedValue, from_typed_element, to_typed_element, typed_value
from repro.wsa import EndpointReference
from repro.wsrf import ServiceSkeleton, WebMethod, WsrfClient, deploy
from repro.xmlx import NS, Element, QName, to_string

UVA = NS.UVACG
_FOREIGN = "http://one"  # no preferred prefix: the envelope is not spliced


class Mirror(ServiceSkeleton):
    """Keeps the last argument it decoded and answers with it."""

    DEPLOYMENT = {"held": list}

    @WebMethod(requires_resource=False)
    def Hold(self, value):
        self.wsrf.wrapper.held[:] = [value]
        return value

    @WebMethod(requires_resource=False)
    def Answer(self):
        return self.wsrf.wrapper.held[0]


class _Key(str):
    pass


class _Phase(enum.IntEnum):
    RUNNING = 2


_texts = st.text(alphabet="ab<&>\" \n1é", max_size=5)
_keys = st.one_of(st.text(alphabet="kxy<", max_size=2), st.builds(_Key, st.just("k")))


@st.composite
def _elements(draw):
    el = Element(QName(draw(st.sampled_from([UVA, NS.WSA, _FOREIGN])), "doc"),
                 text=draw(_texts))
    el.set(QName(UVA, "n"), draw(_texts))
    el.subelement(QName(UVA, "part"), text=draw(_texts)).tail = draw(_texts)
    el.tail = draw(_texts)
    return el


_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.just(10**30),
    st.sampled_from([2.5, -0.0, 0.0, float("nan"), float("inf"), float("-inf")]),
    _texts, st.binary(max_size=6), st.just(_Phase.RUNNING),
    st.builds(EndpointReference, st.sampled_from(
        ["http://n1:80/Exec", " http://padded/S "])),
    _elements(),
)
values = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(_keys, inner, max_size=3),
    ),
    max_leaves=8,
)


def shape(value):
    """*value* with every type spelled out: equal shapes are the same
    value of the same types (NaN included, -0.0 told from 0.0)."""
    cls = type(value)
    if isinstance(value, dict):
        return cls.__name__, [(type(k).__name__, k, shape(v)) for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return cls.__name__, [shape(item) for item in value]
    if isinstance(value, Element):
        return cls.__name__, to_string(value), value.tail
    if isinstance(value, EndpointReference):
        return cls.__name__, to_string(value.to_xml())
    if isinstance(value, float) and math.isnan(value):
        return cls.__name__, "nan"
    return cls.__name__, repr(value)


def vandalize(value):
    """What a receiver may do to what it decoded: everything."""
    if isinstance(value, dict):
        for item in value.values():
            vandalize(item)
        value.clear()
        value["vandal"] = 1
    elif isinstance(value, list):
        for item in value:
            vandalize(item)
        value.append("vandal")
    elif isinstance(value, Element):
        for el in list(value.iter()):
            el.text = "vandal"
            el.attrib[QName(UVA, "mark")] = "1"
        value.children.reverse()
        value.append(Element(QName(UVA, "Extra")))


def _exchange(value):
    """Hold *value* on a fresh deployment, vandalize both sides' copies,
    ask for it again: the wire texts (message ids masked), the shape of
    each decoded answer, and whether the sender's answer moved."""
    env = Environment()
    network = Network(env)
    wrapper = deploy(Mirror, Machine(network, "server"), "Mirror")
    network.add_host("client")
    client = WsrfClient(network, "client")

    def run(gen):
        proc = env.process(gen)
        env.run(until=proc)
        return proc.value

    sent = shape(value)
    epr = wrapper.service_epr()
    first = run(client.call(epr, UVA, "Hold", {"value": value}))
    held = shape(wrapper.held[0])
    record = [sent == shape(value), shape(first), held]
    vandalize(first)    # the client, what it was answered
    vandalize(value)    # the client, what it sent
    second = run(client.call(epr, UVA, "Answer"))
    record += [shape(second), shape(wrapper.held[0]) == held]
    vandalize(second)
    record.append(shape(run(client.call(epr, UVA, "Answer"))))
    return record


def _wire(monkeypatch, value):
    texts = []
    serialize = SoapEnvelope.serialize

    def recorded(self, cache=None):
        text = serialize(self, cache)
        texts.append(re.sub(r"uuid:msg-\d+", "uuid:msg", str(text)))
        return text

    with monkeypatch.context() as patch:
        patch.setattr(SoapEnvelope, "serialize", recorded)
        record = _exchange(value)
    return texts, record


@settings(suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(values)
def test_an_exchange_matches_the_reference_codec(monkeypatch, reference_codec, value):
    twin = copy.deepcopy(value)
    texts, record = _wire(monkeypatch, value)
    with reference_codec():
        want_texts, want = _wire(monkeypatch, twin)
    assert texts == want_texts
    assert record == want
    sent_intact, first, held, second, held_intact, third = record
    # the sender's value is not touched by sending it; the server's
    # answer does not move when either client copy is vandalized
    assert sent_intact and held_intact
    assert first == second == third == held


_TAGS = st.sampled_from([QName(UVA, "v"), QName(NS.WSRF_RP, "p"), QName("plain")])


@given(_TAGS, values)
def test_reading_the_tree_gives_the_typed_element(tag, value):
    element = typed_value(tag, value)
    want = to_typed_element(tag, copy.deepcopy(value))
    vandalize(value)  # the producer goes on with its own value
    if type(element) is TypedValue:
        assert element.unread
        decoded = shape(from_typed_element(element))
        assert element.unread  # answered from the value: no tree built
        assert element.equals(want) and not element.unread
        assert decoded == shape(from_typed_element(element))
    else:
        assert element.equals(want)
    assert to_string(element) == to_string(want)
    assert shape(from_typed_element(element)) == shape(from_typed_element(want))
