"""Tests for WS-Addressing and the SOAP message layer."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.soap import SoapEnvelope, SoapFault, from_typed_element, to_typed_element
from repro.wsa import AddressingHeaders, EndpointReference, make_message_id
from repro.xmlx import NS, Element, QName


class TestEndpointReference:
    def test_address_required(self):
        with pytest.raises(ValueError):
            EndpointReference("")

    def test_reference_properties_lookup(self):
        epr = EndpointReference(
            "http://h/Svc", {QName(NS.UVACG, "ResourceID"): "42"}
        )
        assert epr.get(QName(NS.UVACG, "ResourceID")) == "42"
        assert epr.get(QName(NS.UVACG, "Missing")) is None
        assert epr.get(QName(NS.UVACG, "Missing"), "d") == "d"

    def test_equality_and_hash(self):
        a = EndpointReference("http://h/S", {QName("k"): "v"})
        b = EndpointReference("http://h/S", {QName("k"): "v"})
        c = EndpointReference("http://h/S", {QName("k"): "w"})
        assert a == b and hash(a) == hash(b)
        assert a != c
        assert len({a, b, c}) == 2

    def test_immutable(self):
        epr = EndpointReference("http://h/S")
        with pytest.raises(AttributeError):
            epr.address = "http://other"

    def test_with_property_returns_new(self):
        base = EndpointReference("http://h/S")
        derived = base.with_property(QName(NS.UVACG, "ResourceID"), "7")
        assert base.get(QName(NS.UVACG, "ResourceID")) is None
        assert derived.get(QName(NS.UVACG, "ResourceID")) == "7"
        assert derived.address == base.address

    def test_xml_roundtrip(self):
        epr = EndpointReference(
            "soap.tcp://client:9000/files",
            {QName(NS.UVACG, "Dir"): "/scratch/j1", QName(NS.UVACG, "Owner"): "gw"},
        )
        again = EndpointReference.from_xml(epr.to_xml())
        assert again == epr

    def test_from_xml_requires_address(self):
        with pytest.raises(ValueError):
            EndpointReference.from_xml(Element(QName(NS.WSA, "EndpointReference")))

    def test_property_order_canonicalized(self):
        a = EndpointReference("http://h", {QName("a"): "1", QName("b"): "2"})
        b = EndpointReference("http://h", {QName("b"): "2", QName("a"): "1"})
        assert a == b and hash(a) == hash(b)


class TestAddressingHeaders:
    def _headers(self, **kw):
        epr = EndpointReference(
            "http://node1:80/ExecService", {QName(NS.UVACG, "JobID"): "j-9"}
        )
        return AddressingHeaders(epr, action="urn:Run", **kw)

    def test_message_ids_unique(self):
        assert make_message_id() != make_message_id()

    def test_roundtrip_through_header_elements(self):
        reply = EndpointReference("http://client:7000/notify")
        hdrs = self._headers(reply_to=reply, relates_to="uuid:msg-1")
        again = AddressingHeaders.from_header_elements(hdrs.to_header_elements())
        assert again.to_epr == hdrs.to_epr
        assert again.action == "urn:Run"
        assert again.message_id == hdrs.message_id
        assert again.relates_to == "uuid:msg-1"
        assert again.reply_to == reply

    def test_reference_properties_become_headers(self):
        blocks = self._headers().to_header_elements()
        tags = [b.tag for b in blocks]
        assert QName(NS.UVACG, "JobID") in tags

    def test_missing_to_rejected(self):
        with pytest.raises(ValueError, match="wsa:To"):
            AddressingHeaders.from_header_elements(
                [Element(QName(NS.WSA, "Action"), text="urn:x")]
            )

    def test_missing_action_rejected(self):
        with pytest.raises(ValueError, match="wsa:Action"):
            AddressingHeaders.from_header_elements(
                [Element(QName(NS.WSA, "To"), text="http://h")]
            )


def _envelope(payload=None, **kw):
    epr = EndpointReference(
        "http://node1:80/FSS", {QName(NS.UVACG, "ResourceID"): "dir-1"}
    )
    body = payload if payload is not None else Element(QName(NS.UVACG, "List"))
    return SoapEnvelope(AddressingHeaders(epr, action="urn:List", **kw), body)


class TestSoapEnvelope:
    def test_serialize_deserialize_roundtrip(self):
        env = _envelope()
        again = SoapEnvelope.deserialize(env.serialize())
        assert again.action == "urn:List"
        assert again.addressing.to_epr == env.addressing.to_epr
        assert again.body.tag == QName(NS.UVACG, "List")

    def test_extra_headers_roundtrip(self):
        env = _envelope()
        sec = Element(QName(NS.WSSE, "Security"))
        sec.subelement(QName(NS.WSSE, "UsernameToken"), text="gw")
        env.extra_headers.append(sec)
        again = SoapEnvelope.deserialize(env.serialize())
        found = again.find_header(QName(NS.WSSE, "Security"))
        assert found is not None
        assert found.children[0].full_text() == "gw"

    def test_body_must_have_one_child(self):
        text = _envelope().serialize()
        # Manually build an empty-body envelope.
        bad = (
            f'<soap:Envelope xmlns:soap="{NS.SOAP}" xmlns:wsa="{NS.WSA}">'
            "<soap:Header><wsa:To>http://h</wsa:To>"
            "<wsa:Action>urn:x</wsa:Action></soap:Header>"
            "<soap:Body /></soap:Envelope>"
        )
        with pytest.raises(ValueError, match="body"):
            SoapEnvelope.deserialize(bad)
        assert SoapEnvelope.deserialize(text)  # control

    @pytest.mark.parametrize("tag, addressing_field, reference_property, extra_header", [
        (QName(NS.WSA, "RelatesTo"), True, False, False),   # wsa:, known
        (QName(NS.WSA, "Hop"), False, False, False),        # wsa:, unknown: dropped
        (QName(NS.WSSE, "Security"), False, False, True),
        (QName(NS.WSSE, "Other"), False, False, True),
        (QName(NS.UVACG, "Trace"), False, True, False),     # any other namespace
        (QName("urn:foreign", "trace"), False, True, False),
        (QName("unqualified"), False, True, False),
    ])
    def test_header_block_classified_by_namespace(
        self, tag, addressing_field, reference_property, extra_header
    ):
        """How the parser reads back a block the sender put in
        ``extra_headers`` — the envelope writer's fast path takes only
        the blocks that come back as extra headers (``wsse:``)."""
        env = _envelope()
        env.extra_headers.append(Element(tag, text="value"))
        again = SoapEnvelope.deserialize(env.serialize())
        assert (again.addressing.relates_to == "value") == addressing_field
        assert (again.addressing.to_epr.get(tag) == "value") == reference_property
        assert again.addressing.to_epr.get(QName(NS.UVACG, "ResourceID")) == "dir-1"
        assert [block.tag for block in again.extra_headers] == ([tag] if extra_header else [])

    def test_not_an_envelope_rejected(self):
        with pytest.raises(ValueError, match="not a SOAP envelope"):
            SoapEnvelope.from_element(Element("r"))


class TestSoapFault:
    def test_roundtrip(self):
        detail = Element(QName(NS.WSRF_BF, "BaseFault"))
        detail.subelement(QName(NS.WSRF_BF, "Description"), text="no such resource")
        fault = SoapFault("soap:Client", "bad resource", [detail])
        again = SoapFault.from_element(fault.to_element())
        assert again.code == "soap:Client"
        assert again.reason == "bad resource"
        assert again.detail[0].tag == QName(NS.WSRF_BF, "BaseFault")

    def test_is_fault(self):
        assert SoapFault.is_fault(SoapFault().to_element())
        assert not SoapFault.is_fault(Element("x"))

    def test_from_element_type_checked(self):
        with pytest.raises(ValueError):
            SoapFault.from_element(Element("x"))

    def test_fault_is_exception(self):
        with pytest.raises(SoapFault, match="oops"):
            raise SoapFault("soap:Server", "oops")


class TestTypedValues:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -17,
            2**40,
            3.5,
            -0.125,
            "",
            "hello <world> & 'friends'",
            b"\x00\x01\xffbinary",
            ["a", 1, None, [True]],
            {"k1": "v", "k2": 2, "nested": {"x": [1.5]}},
        ],
    )
    def test_roundtrip(self, value):
        el = to_typed_element(QName(NS.UVACG, "arg"), value)
        # Force a wire trip through text to catch serialization bugs.
        from repro.xmlx import parse, to_string

        assert from_typed_element(parse(to_string(el))) == value

    def test_epr_roundtrip(self):
        epr = EndpointReference("http://h/S", {QName("id"): "1"})
        el = to_typed_element(QName(NS.UVACG, "arg"), epr)
        assert from_typed_element(el) == epr

    def test_element_passthrough(self):
        inner = Element(QName(NS.UVACG, "doc"), text="payload")
        el = to_typed_element(QName(NS.UVACG, "arg"), inner)
        out = from_typed_element(el)
        assert out.equals(inner)

    def test_unserializable_rejected(self):
        with pytest.raises(TypeError):
            to_typed_element(QName("x"), object())

    def test_non_string_map_key_rejected(self):
        with pytest.raises(TypeError):
            to_typed_element(QName("x"), {1: "a"})

    def test_unknown_xsi_type_faults(self):
        el = Element("x", attrib={QName(NS.XSI, "type"): "uva:nope"})
        with pytest.raises(SoapFault):
            from_typed_element(el)

    def test_bad_boolean_faults(self):
        el = Element("x", attrib={QName(NS.XSI, "type"): "xsd:boolean"}, text="maybe")
        with pytest.raises(SoapFault):
            from_typed_element(el)

    @given(
        st.recursive(
            st.one_of(
                st.none(),
                st.booleans(),
                st.integers(min_value=-(2**62), max_value=2**62),
                st.floats(allow_nan=False, allow_infinity=False),
                st.text(max_size=30),
                st.binary(max_size=30),
            ),
            lambda leaf: st.one_of(
                st.lists(leaf, max_size=4),
                st.dictionaries(st.text(min_size=1, max_size=8), leaf, max_size=4),
            ),
            max_leaves=12,
        )
    )
    def test_roundtrip_property(self, value):
        from repro.xmlx import parse, to_string

        el = to_typed_element(QName(NS.UVACG, "v"), value)
        assert from_typed_element(parse(to_string(el))) == value
