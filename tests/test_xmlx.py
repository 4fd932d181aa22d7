"""Unit and property tests for the XML infoset."""

import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.wsa.epr import EndpointReference
from repro.xmlx import (
    NS,
    Element,
    QName,
    XmlParseError,
    XPathError,
    parse,
    to_string,
    xpath_select,
)


class TestQName:
    def test_two_arg_form(self):
        q = QName("http://ns", "local")
        assert q.uri == "http://ns" and q.local == "local"

    def test_clark_notation(self):
        q = QName("{http://ns}local")
        assert q.uri == "http://ns" and q.local == "local"
        assert q.clark() == "{http://ns}local"

    def test_unqualified(self):
        q = QName("plain")
        assert q.uri == "" and q.local == "plain"
        assert q.clark() == "plain"

    def test_equality_and_hash(self):
        # equal across both spellings, qualified or not
        for clark, uri, local in (("{http://a}x", "http://a", "x"), ("x", "", "x")):
            assert QName(clark) == QName(uri, local)
            assert hash(QName(clark)) == hash(QName(uri, local))
            assert {QName(clark): 1}[QName(uri, local)] == 1
        assert QName("http://a", "x") != QName("http://b", "x")

    def test_hash_is_the_hash_of_its_fields(self):
        # the property that keeps set and dict orders, and so every
        # export, as they were before names became tuples
        for q in (QName(NS.WSA, "To"), QName("plain"), QName("{urn:x}y")):
            assert hash(q) == hash((q.uri, q.local))

    def test_not_equal_to_its_clark_string(self):
        q = QName("http://a", "x")
        assert q != q.clark() and q != "{http://a}x"
        assert QName("plain") != "plain"

    def test_immutable(self):
        q = QName("a")
        with pytest.raises(AttributeError):
            q.local = "b"
        with pytest.raises(AttributeError):
            q.uri = "http://ns"
        assert (q.uri, q.local) == ("", "a")

    def test_empty_local_rejected(self):
        with pytest.raises(ValueError):
            QName("http://ns", "")
        with pytest.raises(ValueError):
            QName("x", "")

    def test_malformed_clark_rejected(self):
        with pytest.raises(ValueError):
            QName("{unclosed")


def _pickled(value):
    return pickle.loads(pickle.dumps(value))


@pytest.mark.parametrize("clone", [_pickled, copy.deepcopy], ids=["pickle", "deepcopy"])
class TestCloning:
    """Immutable names, and the trees and EPRs holding them, survive
    ``pickle`` and ``copy.deepcopy``."""

    def test_qname(self, clone):
        for name in (QName(NS.WSA, "To"), QName("plain")):
            again = clone(name)
            assert again == name and hash(again) == hash(name)
            assert type(again) is QName and again.clark() == name.clark()

    def test_element_with_qualified_attributes(self, clone):
        root = Element(QName(NS.UVACG, "doc"), {QName(NS.XSI, "type"): "uva:xmlAny", "id": "7"})
        child = root.subelement(QName(NS.UVACG, "item"), text="x")
        child.set(QName("urn:other", "k"), "v")
        child.tail = "tail"
        again = clone(root)
        assert again is not root and again.equals(root)
        assert again.children[0].tail == "tail"
        assert to_string(again) == to_string(root)

    def test_epr_with_reference_properties(self, clone):
        epr = EndpointReference(
            "http://node1:80/Exec",
            {QName(NS.UVACG, "ResourceID"): "r-1", QName(NS.WSRF_RL, "Lease"): "7"},
        )
        again = clone(epr)
        assert again == epr and hash(again) == hash(epr)
        assert again.reference_properties == epr.reference_properties
        assert again.get(QName(NS.UVACG, "ResourceID")) == "r-1"


class TestElement:
    def test_subelement_builder(self):
        root = Element("root")
        child = root.subelement("{http://ns}child", text="hi")
        assert root.find(QName("http://ns", "child")) is child
        assert child.text == "hi"

    def test_find_returns_first(self):
        root = Element("r")
        a1 = root.subelement("a", text="1")
        root.subelement("a", text="2")
        assert root.find("a") is a1
        assert [e.text for e in root.findall("a")] == ["1", "2"]

    def test_require_raises_on_missing(self):
        root = Element("r")
        with pytest.raises(KeyError):
            root.require("missing")

    def test_attributes(self):
        el = Element("e", attrib={"a": "1", QName("http://ns", "b"): "2"})
        assert el.get("a") == "1"
        assert el.get(QName("http://ns", "b")) == "2"
        assert el.get("zzz") is None
        el.set("c", 3)
        assert el.get("c") == "3"

    def test_iter_depth_first(self):
        root = Element("r")
        a = root.subelement("a")
        a.subelement("b")
        root.subelement("b")
        tags = [e.tag.local for e in root.iter()]
        assert tags == ["r", "a", "b", "b"]
        assert len(list(root.iter("b"))) == 2

    def test_full_text_includes_tails(self):
        root = parse("<r>one<c>two</c>three</r>")
        assert root.full_text() == "onetwothree"

    def test_copy_is_deep(self):
        root = Element("r")
        root.subelement("a", text="x")
        clone = root.copy()
        clone.children[0].text = "changed"
        assert root.children[0].text == "x"
        assert root.equals(root.copy())

    def test_equals_structural(self):
        a = parse("<r x='1'><c>t</c></r>")
        b = parse('<r x="1"><c>t</c></r>')
        c = parse("<r x='2'><c>t</c></r>")
        assert a.equals(b)
        assert not a.equals(c)

    def test_append_type_checked(self):
        with pytest.raises(TypeError):
            Element("r").append("not an element")

    def test_child_text(self):
        root = parse("<r><name>fred</name></r>")
        assert root.child_text("name") == "fred"
        assert root.child_text("missing", "dflt") == "dflt"


class TestWriterParser:
    def test_roundtrip_simple(self):
        root = Element(QName(NS.SOAP, "Envelope"))
        body = root.subelement(QName(NS.SOAP, "Body"))
        body.subelement(QName(NS.UVACG, "Run"), text="job-1")
        text = to_string(root)
        again = parse(text)
        assert again.equals(root)

    def test_preferred_prefixes_used(self):
        root = Element(QName(NS.SOAP, "Envelope"))
        text = to_string(root)
        assert "soap:Envelope" in text and f'xmlns:soap="{NS.SOAP}"' in text

    def test_escaping(self):
        root = Element("r", text='<&">')
        root.set("a", 'va"l<')
        again = parse(to_string(root))
        assert again.text == '<&">'
        assert again.get("a") == 'va"l<'

    def test_xml_declaration(self):
        text = to_string(Element("r"), xml_declaration=True)
        assert text.startswith("<?xml")

    def test_parse_namespaces_default_and_prefixed(self):
        text = (
            '<root xmlns="http://d" xmlns:p="http://p">'
            '<child p:attr="v"/><p:other/></root>'
        )
        root = parse(text)
        assert root.tag == QName("http://d", "root")
        child = root.children[0]
        assert child.tag == QName("http://d", "child")
        assert child.get(QName("http://p", "attr")) == "v"
        assert root.children[1].tag == QName("http://p", "other")

    def test_unprefixed_attribute_has_no_namespace(self):
        root = parse('<r xmlns="http://d" a="1"/>')
        assert root.get(QName("", "a")) == "1"

    def test_nested_scope_override(self):
        root = parse('<r xmlns="http://a"><c xmlns="http://b"><d/></c></r>')
        assert root.children[0].children[0].tag.uri == "http://b"

    def test_entities_and_charrefs(self):
        root = parse("<r>&lt;&amp;&gt;&#65;&#x42;</r>")
        assert root.text == "<&>AB"

    def test_cdata(self):
        root = parse("<r><![CDATA[<not-parsed/>]]></r>")
        assert root.text == "<not-parsed/>"

    def test_comments_and_pis_ignored(self):
        root = parse("<?xml version='1.0'?><!-- c --><r><!-- x -->t<?pi d?></r>")
        assert root.text == "t"

    def test_unbound_prefix_rejected(self):
        with pytest.raises(XmlParseError):
            parse("<p:r/>")

    def test_mismatched_end_tag_rejected(self):
        with pytest.raises(XmlParseError, match="mismatched"):
            parse("<a><b></a></b>")

    def test_unterminated_rejected(self):
        with pytest.raises(XmlParseError):
            parse("<a><b></b>")

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(XmlParseError, match="duplicate"):
            parse('<a xmlns:p="http://x" p:z="1" p:z="2"/>')

    def test_doctype_rejected(self):
        with pytest.raises(XmlParseError, match="DTD"):
            parse("<!DOCTYPE foo><foo/>")

    def test_trailing_content_rejected(self):
        with pytest.raises(XmlParseError, match="after document root"):
            parse("<a/><b/>")

    def test_unknown_entity_rejected(self):
        with pytest.raises(XmlParseError, match="unknown entity"):
            parse("<a>&bogus;</a>")


_local_names = st.text(
    alphabet=st.sampled_from("abcdefghijklmnop"), min_size=1, max_size=8
)
_texts = st.text(
    alphabet=st.sampled_from("abc <>&\"'\n\tzA1"), min_size=0, max_size=20
)


@st.composite
def _elements(draw, depth=0):
    tag = QName("http://t", draw(_local_names))
    el = Element(tag)
    el.text = draw(_texts)
    for name in draw(st.lists(_local_names, max_size=3, unique=True)):
        el.set(QName("http://a", name), draw(_texts))
    if depth < 3:
        for child in draw(st.lists(_elements(depth=depth + 1), max_size=3)):
            el.append(child)
            child.tail = draw(_texts)
    return el


class TestRoundtripProperties:
    @given(_elements())
    def test_write_parse_roundtrip(self, element):
        text = to_string(element)
        parsed = parse(text)
        # Root tails are not serialized; clear before comparing.
        element = element.copy()
        element.tail = ""
        assert parsed.equals(element)

    @given(_texts)
    def test_text_escaping_roundtrip(self, text):
        el = Element("r", text=text)
        assert parse(to_string(el)).text == text


class TestXPath:
    @pytest.fixture()
    def doc(self):
        return parse(
            """
            <props xmlns="http://rp" xmlns:j="http://jobs">
              <j:job id="1"><status>Running</status><cpu>2.5</cpu></j:job>
              <j:job id="2"><status>Exited</status><cpu>9.0</cpu></j:job>
              <j:job id="3"><status>Running</status><cpu>0.1</cpu></j:job>
              <owner>wasson</owner>
            </props>
            """
        )

    def test_child_path(self, doc):
        jobs = xpath_select(doc, "job")
        assert len(jobs) == 3

    def test_absolute_path(self, doc):
        owners = xpath_select(doc, "/props/owner/text()")
        assert owners == ["wasson"]

    def test_descendant_path(self, doc):
        statuses = xpath_select(doc, "//status/text()")
        assert statuses == ["Running", "Exited", "Running"]

    def test_prefixed_name_test(self, doc):
        jobs = xpath_select(doc, "j:job", namespaces={"j": "http://jobs"})
        assert len(jobs) == 3

    def test_unbound_prefix_raises(self, doc):
        with pytest.raises(XPathError):
            xpath_select(doc, "q:job")

    def test_attribute_step(self, doc):
        ids = xpath_select(doc, "job/@id")
        assert ids == ["1", "2", "3"]

    def test_positional_predicate(self, doc):
        second = xpath_select(doc, "job[2]/status/text()")
        assert second == ["Exited"]

    def test_equality_predicate_on_child(self, doc):
        running = xpath_select(doc, "job[status='Running']/@id")
        assert running == ["1", "3"]

    def test_equality_predicate_on_attr(self, doc):
        job = xpath_select(doc, "job[@id='2']/cpu/text()")
        assert job == ["9.0"]

    def test_existence_predicate(self, doc):
        assert len(xpath_select(doc, "job[status]")) == 3
        assert xpath_select(doc, "job[missing]") == []

    def test_wildcard(self, doc):
        assert len(xpath_select(doc, "*")) == 4

    def test_dot_equality_predicate(self, doc):
        assert xpath_select(doc, "owner[.='wasson']") != []
        assert xpath_select(doc, "owner[.='nobody']") == []

    def test_chained_predicates(self, doc):
        first_running = xpath_select(doc, "job[status='Running'][1]/@id")
        assert first_running == ["1"]

    def test_empty_expression_rejected(self, doc):
        with pytest.raises(XPathError):
            xpath_select(doc, "   ")

    def test_trailing_slash_rejected(self, doc):
        with pytest.raises(XPathError):
            xpath_select(doc, "job/")

    def test_root_name_mismatch_empty(self, doc):
        assert xpath_select(doc, "/other/owner") == []

    def test_descendant_absolute(self, doc):
        assert xpath_select(doc, "//cpu/text()") == ["2.5", "9.0", "0.1"]
