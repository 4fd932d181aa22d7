"""Codec fast path (docs/performance.md, "Codec fast path").

Nine concerns, one file:

- the three parser *contract* fixes that rode along with the fast path:
  malformed character references raise :class:`XmlParseError` with an
  offset (never a bare ``ValueError``), colons are rejected at scan time
  (no leading/trailing/multiple colons reach a :class:`QName`), and an
  XML declaration is legal only at offset 0;
- a Hypothesis round-trip property ``parse(to_string(e)).equals(e)``
  over trees richer than the ``test_xmlx`` one — several namespaces,
  default-namespace children, qualified attributes, entity-bearing
  text/tails;
- the one-walk writer against the two-pass one it replaced (prefixes
  allocated by a pre-order walk before anything is written);
- coherence oracles for the two hand-offs: the content-addressed
  :class:`repro.db.DecodeCache` (value isolation, destroy-then-recreate,
  post-restore invalidation, one entry per stored blob) and the message object of
  :class:`repro.soap.EnvelopeCache` (the reference text, its size and
  length unread, move semantics of the encode→parse bridge, nothing
  kept for an undelivered message);
- the envelope splice against the reference codec: a Hypothesis
  differential over generated envelopes, and each fallback condition
  from both sides;
- the constant parts a codec and a network write once (root frame,
  addressing head, route): a Hypothesis differential of a warm codec
  against a fresh one and the reference, and their entry counts, which
  more resources or job sets on one deployment do not move;
- the state writer (:func:`repro.soap.write_typed`, value -> text in
  one walk) against the element it does not build: a Hypothesis
  differential with ``write_fragment(to_typed_element(...))`` over
  values inside and outside the types it spells itself, and every field
  fragment of two whole runs;
- what a job event costs the Scheduler's row, counted: the map entries
  each save writes, and no copy or compare of the stored spec;
- the oracles of the always-on hand-off: incremental state encoding
  against from-scratch :func:`encode_state` under random edit
  sequences, of whole states and of maps encoded entry by entry, every envelope and state handed over in whole runs checked
  against the reference ``parse`` / ``decode_state`` from outside,
  hostile wire text still meeting the strict parser, and the run
  differential against the same run forced onto the reference codec
  (byte-identical traces, timestamps included).
"""

import base64
import enum
import re
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import (
    BlobResourceStore, CachedResourceStore, DbError, DecodeCache, SqlResourceStore,
)
from repro.db.resource_store import decode_state, encode_state
from repro.gridapp import FaultToleranceConfig, FederationConfig, FileRef, JobSpec, Testbed
from repro.net import DeliveryError, Network, RetryPolicy
from repro.osim import Machine
from repro.osim.programs import make_compute_program
from repro.soap import (
    EnvelopeCache, SoapEnvelope, SoapFault, from_typed_element, to_typed_element, typed_value,
    write_typed,
)
from repro.soap import envelope as envelope_module
from repro.soap import types as soap_types
from repro.sim import Environment
from repro.wsa import AddressingHeaders, EndpointReference
from repro.wsrf import (
    GetResourcePropertyPortType, Resource, ResourceProperty, ServiceSkeleton, WebMethod,
    WSRFPortType, WsrfClient, deploy,
)
from repro.xmlx import NS, Element, QName, WireText, XmlParseError, parse, to_string
from repro.xmlx import writer

from tests.equivalence import SCENARIOS, fingerprint, run_scenario
from tests.helpers import fan_spec, fig3_testbed

UVA = NS.UVACG


# -- satellite 1: malformed character references ------------------------------------


class TestCharReferenceErrors:
    @pytest.mark.parametrize("ref", ["&#xZZ;", "&#;", "&#x;", "&#1a;", "&#x1G;"])
    def test_malformed_references_raise_parse_error(self, ref):
        with pytest.raises(XmlParseError, match="malformed character reference"):
            parse(f"<a>{ref}</a>")

    def test_non_ascii_digits_rejected(self):
        # int("١٢") would happily parse Arabic-Indic digits; the scanner
        # must not.
        with pytest.raises(XmlParseError, match="malformed character reference"):
            parse("<a>&#١٢;</a>")

    def test_beyond_unicode_rejected(self):
        with pytest.raises(XmlParseError, match="beyond U\\+10FFFF"):
            parse("<a>&#x110000;</a>")
        with pytest.raises(XmlParseError, match="beyond U\\+10FFFF"):
            parse("<a>&#1114112;</a>")

    @pytest.mark.parametrize("ref", ["&#xD800;", "&#xDFFF;", "&#55296;"])
    def test_surrogates_rejected(self, ref):
        with pytest.raises(XmlParseError, match="surrogate code point"):
            parse(f"<a>{ref}</a>")

    def test_error_carries_offset(self):
        text = "<a>pad&#xZZ;</a>"
        with pytest.raises(XmlParseError) as err:
            parse(text)
        assert err.value.pos == text.index("&#xZZ;")
        assert "offset" in str(err.value)

    def test_errors_in_attribute_values_too(self):
        with pytest.raises(XmlParseError, match="malformed character reference"):
            parse('<a b="&#xZZ;"/>')

    def test_valid_references_still_decode(self):
        root = parse("<a>&#65;&#x42;&#x10FFFF;</a>")
        assert root.text == "AB\U0010ffff"


# -- satellite 2: colon placement in names ------------------------------------------


class TestColonNameRejection:
    def test_leading_colon_rejected(self):
        with pytest.raises(XmlParseError, match="expected a name"):
            parse("<:foo/>")

    def test_multiple_colons_rejected(self):
        with pytest.raises(XmlParseError, match="multiple colons"):
            parse('<a:b:c xmlns:a="http://u"/>')

    def test_trailing_colon_rejected(self):
        with pytest.raises(XmlParseError, match="must not end with a colon"):
            parse('<foo: xmlns:foo="http://u"/>')

    def test_attribute_names_checked_too(self):
        with pytest.raises(XmlParseError, match="multiple colons"):
            parse('<r xmlns:a="http://u" a:b:c="1"/>')
        with pytest.raises(XmlParseError, match="must not end with a colon"):
            parse('<r a:="1"/>')

    def test_end_tag_names_checked_too(self):
        with pytest.raises(XmlParseError, match="multiple colons"):
            parse('<a:b xmlns:a="http://u">x</a:b:c>')

    def test_single_colon_still_fine(self):
        root = parse('<a:b xmlns:a="http://u"/>')
        assert root.tag == QName("http://u", "b")


# -- satellite 3: XML declaration placement -----------------------------------------


class TestXmlDeclPlacement:
    def test_declaration_at_offset_zero_ok(self):
        assert parse('<?xml version="1.0"?><a/>').tag == QName("a")

    def test_declaration_after_whitespace_rejected(self):
        with pytest.raises(XmlParseError, match="misplaced XML declaration"):
            parse('  <?xml version="1.0"?><a/>')

    def test_declaration_after_comment_rejected(self):
        with pytest.raises(XmlParseError, match="misplaced XML declaration"):
            parse('<!-- c --><?xml version="1.0"?><a/>')

    def test_repeated_declaration_rejected(self):
        with pytest.raises(XmlParseError, match="misplaced XML declaration"):
            parse('<?xml version="1.0"?><?xml version="1.0"?><a/>')

    def test_declaration_after_root_rejected(self):
        with pytest.raises(XmlParseError, match="misplaced XML declaration"):
            parse('<a/><?xml version="1.0"?>')

    def test_case_insensitive(self):
        with pytest.raises(XmlParseError, match="misplaced XML declaration"):
            parse(' <?XML version="1.0"?><a/>')

    def test_xml_prefixed_pi_is_not_a_declaration(self):
        # A PI whose target merely *starts* with "xml" is an ordinary PI.
        assert parse('<?xml-stylesheet href="s"?><a/>').tag == QName("a")


# -- Hypothesis round-trip over rich trees ------------------------------------------

_URIS = ("", "http://one", "http://two", NS.SOAP)
_locals = st.text(alphabet=st.sampled_from("abcdefgh"), min_size=1, max_size=6)


def _qnames_in(uris):
    return st.builds(
        lambda uri, local: QName(uri, local) if uri else QName(local),
        st.sampled_from(uris), _locals,
    )


_qnames = _qnames_in(_URIS)
#: names whose prefix is the same in every document
_preferred_qnames = _qnames_in(("", NS.UVACG, NS.WSRF_RP, NS.WSNT))
# Texts exercise every escape and entity route, plus non-ASCII.
_rich_texts = st.text(
    alphabet=st.sampled_from("ab <>&\"'\r\n\tzé "), min_size=0, max_size=16
)


@st.composite
def _rich_elements(draw, depth=0, names=_qnames):
    el = Element(draw(names))
    el.text = draw(_rich_texts)
    for name in draw(st.lists(names, max_size=3, unique_by=lambda q: (q.uri, q.local))):
        el.set(name, draw(_rich_texts))
    if depth < 3:
        for child in draw(st.lists(_rich_elements(depth + 1, names), max_size=3)):
            el.append(child)
            child.tail = draw(_rich_texts)
    return el


class TestRoundtripProperty:
    @given(_rich_elements())
    def test_parse_of_to_string_is_identity(self, element):
        reference = element.copy()
        reference.tail = ""  # root tails are not serialized
        assert parse(to_string(element)).equals(reference)

    @given(_rich_elements())
    def test_roundtrip_with_declaration(self, element):
        reference = element.copy()
        reference.tail = ""
        assert parse(to_string(element, xml_declaration=True)).equals(reference)

    @given(_rich_elements())
    def test_roundtrip_survives_a_second_trip(self, element):
        once = parse(to_string(element))
        assert parse(to_string(once)).equals(once)


def _two_pass(root):
    """The writer ``to_string`` replaced: allocate every prefix in a
    pre-order walk (tag, attributes, children), then write."""
    allocator = writer._PrefixAllocator()
    for element in root.iter():
        for name in (element.tag, *element.attrib):
            if name.uri:
                allocator.prefix_for(name.uri)
    out = []
    writer._write_compact(root, allocator, out)
    out[0] += allocator.declarations()
    return "".join(out)


class TestOneWalkWriter:
    """Prefixes allocated while writing land as a pre-walk allots them,
    ``ns0`` / ``ns1`` included, on tags and on attributes."""

    @given(_rich_elements())
    def test_byte_identical_to_the_two_pass_writer(self, element):
        assert to_string(element) == _two_pass(element)

    def test_non_preferred_prefixes_follow_document_order(self):
        root = Element(QName("urn:b", "r"))
        root.set(QName("urn:a", "k"), "v")
        child = root.subelement(QName(UVA, "c"))
        child.set(QName("urn:c", "k"), "v")
        root.subelement(QName("urn:a", "d"))
        text = to_string(root, xml_declaration=True)
        assert text == '<?xml version="1.0" encoding="utf-8"?>' + _two_pass(root)
        assert re.findall(r'xmlns:(\w+)="([^"]+)"', text) == [
            ("ns0", "urn:b"), ("ns1", "urn:a"), ("ns2", "urn:c"), ("uva", UVA)]
        assert '<ns0:r xmlns:ns0="urn:b"' in text and ' ns1:k="v"' in text


# -- DecodeCache coherence ----------------------------------------------------------


def _state(n=0):
    return {
        QName(UVA, "Name"): f"job-{n}",
        QName(UVA, "Count"): n,
        QName(UVA, "Tags"): ["a", "b", n],
        QName(UVA, "Meta"): {"k": f"v{n}"},
        QName(UVA, "Doc"): Element(QName(UVA, "payload"), text=f"t{n}"),
    }


def _values_equal(a, b):
    """State equality as the reference encoder sees it: tells ``True`` /
    ``1`` / ``1.0`` apart, key and map order, Element tails and
    attribute order."""
    return encode_state(a) == encode_state(b)


def _blob_bytes(n):
    return len(encode_state(_state(n)))


class TestDecodeCache:
    def test_decode_matches_uncached(self):
        cache = DecodeCache()
        blob = encode_state(_state(1))
        assert _values_equal(cache.decode(blob), decode_state(blob))
        assert (cache.hits, cache.misses) == (0, 1)
        assert _values_equal(cache.decode(blob), decode_state(blob))
        assert (cache.hits, cache.misses) == (1, 1)

    def test_returned_values_are_isolated(self):
        cache = DecodeCache()
        blob = encode_state(_state(1))
        first = cache.decode(blob)
        first[QName(UVA, "Tags")].append("mutated")
        first[QName(UVA, "Meta")]["k"] = "mutated"
        first[QName(UVA, "Doc")].text = "mutated"
        assert _values_equal(cache.decode(blob), decode_state(blob))

    def test_encode_warms_the_cache(self):
        cache = DecodeCache()
        state = _state(2)
        blob = cache.encode(state)
        assert blob == encode_state(state)
        assert _values_equal(cache.decode(blob), decode_state(blob))
        assert (cache.hits, cache.misses) == (1, 0)

    def test_encode_isolates_from_caller_mutation(self):
        cache = DecodeCache()
        state = _state(3)
        blob = cache.encode(state)
        state[QName(UVA, "Tags")].append("mutated-after-save")
        state[QName(UVA, "Doc")].text = "mutated-after-save"
        assert _values_equal(cache.decode(blob), decode_state(blob))

    def test_superseded_blob_is_dropped(self):
        # Footprint: a save keeps the new version and lets the old one go.
        cache = DecodeCache()
        first = cache.encode(_state(1))
        state = _state(1)
        state[QName(UVA, "Count")] = 99
        second = cache.encode(state, base=first)
        assert second == encode_state(state)
        cache.decode(second)
        cache.decode(first)
        assert (cache.hits, cache.misses) == (1, 1)

    def test_blob_shared_by_two_rows_survives_one_save(self):
        cache = DecodeCache()
        shared = cache.encode(_state(1))
        assert cache.encode(_state(1)) == shared  # a second row, same bytes
        cache.encode(_state(2), base=shared)  # the first row moves on
        cache.decode(shared)  # the second row still loads without a parse
        assert (cache.hits, cache.misses) == (1, 0)
        cache.release(shared)  # ... until it is destroyed too
        cache.decode(shared)
        assert cache.misses == 1

    @given(st.lists(st.one_of(
        st.tuples(st.sampled_from(["create", "save", "touch"]), st.sampled_from("abc"),
                  st.integers(0, 2)),
        st.tuples(st.sampled_from(["destroy", "load"]), st.sampled_from("abc")),
        st.tuples(st.just("snapshot")),
        st.tuples(st.just("restore"), st.integers(0, 3)),
    ), max_size=16))
    def test_entries_are_exactly_the_blobs_the_rows_hold(self, ops):
        """Footprint: no bound but the rows.  After every step the table
        holds one entry per distinct stored blob, counting the rows that
        hold it — two rows may hold the same bytes, and a restore of an
        older snapshot counts its rows in and the replaced ones out."""
        store = BlobResourceStore()
        cache = store.decode_cache
        snapshots = [store.snapshot()]
        for op, *args in ops:
            try:
                if op == "create":
                    store.create("Svc", args[0], _state(args[1]))
                elif op == "save":
                    store.save("Svc", args[0], _state(args[1]))
                elif op == "touch":  # load, change one field, save
                    state = store.load("Svc", args[0])
                    state[QName(UVA, "Count")] = args[1]
                    store.save("Svc", args[0], state)
                elif op == "destroy":
                    store.destroy("Svc", args[0])
                elif op == "load":
                    loaded = store.load("Svc", args[0])
                    assert _values_equal(loaded, decode_state(store.load_blob("Svc", args[0])))
                elif op == "snapshot":
                    snapshots.append(store.snapshot())
                else:
                    store.restore(snapshots[args[0] % len(snapshots)])
            except DbError:
                pass  # a create of a row that exists
            except KeyError:
                pass  # a row that does not exist
            held = {}
            for row in store.db.table(store.TABLE).select():
                held[row["state"]] = held.get(row["state"], 0) + 1
            assert {blob: entry.rows for blob, entry in cache._entries.items()} == held


class TestDecodeCacheThroughStores:
    """The cache is content-addressed, so store-level lifecycle events
    (destroy/recreate, checkpoint restore) need no invalidation — prove
    it against a store on the reference codec (:class:`SqlResourceStore`
    calls ``encode_state`` / ``decode_state``), snapshots byte for byte."""

    def _stores(self):
        return CachedResourceStore(), SqlResourceStore()

    def _assert_same(self, store, oracle):
        assert store.snapshot() == oracle.snapshot()
        for key in oracle.snapshot():
            service, _, rid = key.partition("|")
            assert _values_equal(store.load(service, rid), oracle.load(service, rid))
        store.assert_coherent()

    def test_destroy_then_recreate_serves_fresh_state(self):
        store, oracle = self._stores()
        for s in (store, oracle):
            s.create("Exec", "r1", _state(1))
        for s in (store, oracle):
            s.destroy("Exec", "r1")
            s.create("Exec", "r1", _state(2))
        self._assert_same(store, oracle)

    def test_restore_rolls_back_cached_state(self):
        store, oracle = self._stores()
        for s in (store, oracle):
            s.create("Exec", "r1", _state(1))
        snap_store, snap_oracle = store.snapshot(), oracle.snapshot()
        for s in (store, oracle):
            s.save("Exec", "r1", _state(9))
            s.load("Exec", "r1")
        store.restore(snap_store)
        oracle.restore(snap_oracle)
        self._assert_same(store, oracle)
        assert store.load("Exec", "r1")[QName(UVA, "Name")] == "job-1"
        # The first save after the rollback has no fragments to build
        # on (the restored bytes were never assembled here): still exact.
        for s in (store, oracle):
            state = s.load("Exec", "r1")
            state[QName(UVA, "Count")] = 5
            s.save("Exec", "r1", state)
        self._assert_same(store, oracle)

    def test_loaded_state_mutated_in_place_reloads_pristine(self):
        store, oracle = self._stores()
        for s in (store, oracle):
            s.create("Exec", "r1", _state(1))
        loaded = store.load("Exec", "r1")
        loaded[QName(UVA, "Tags")].append("mutated")
        loaded[QName(UVA, "Doc")].set(QName(UVA, "hacked"), "yes")
        del loaded[QName(UVA, "Name")]
        self._assert_same(store, oracle)

    @given(st.lists(st.sampled_from(["create", "save", "touch", "load", "destroy"]),
                    min_size=1, max_size=12))
    def test_random_op_sequences_match_oracle(self, ops):
        store, oracle = self._stores()
        n = 0
        for op in ops:
            n += 1
            results = []
            for s in (store, oracle):
                try:
                    if op == "create":
                        s.create("Svc", "r", _state(n))
                        results.append(("created", None))
                    elif op == "save":
                        s.save("Svc", "r", _state(n))
                        results.append(("saved", None))
                    elif op == "touch":  # load, change one field, save
                        state = s.load("Svc", "r")
                        state[QName(UVA, "Count")] = -n
                        s.save("Svc", "r", state)
                        results.append(("touched", None))
                    elif op == "load":
                        results.append(("loaded", s.load("Svc", "r")))
                    else:
                        s.destroy("Svc", "r")
                        results.append(("destroyed", None))
                except KeyError:
                    results.append(("missing", None))
                except Exception as exc:  # e.g. duplicate create
                    results.append((type(exc).__name__, None))
            assert results[0][0] == results[1][0]
            if results[0][1] is not None:
                assert _values_equal(results[0][1], results[1][1])
        self._assert_same(store, oracle)


# -- incremental state encoding against the from-scratch encoder --------------------

_FOREIGN = "http://one"  # no entry in NS.PREFERRED_PREFIXES
_KEYS = [QName(UVA, name) for name in "abcd"] + [QName(NS.WSRF_RL, "e"), QName(_FOREIGN, "f")]

_eprs = st.builds(
    EndpointReference,
    st.sampled_from(["http://n1:80/Exec", "soap.tcp://c:9000/files"]),
    st.dictionaries(
        st.sampled_from([QName(UVA, "ResourceID"), QName(_FOREIGN, "k")]),
        st.text(alphabet="ab", max_size=3), max_size=2,
    ),
)


@st.composite
def _element_values(draw):
    """Element-typed values: any namespaces (``_rich_elements``) or the
    testbed's own only, with a tail on the value itself."""
    if draw(st.booleans()):
        el = draw(_rich_elements())
    else:
        el = Element(QName(UVA, draw(_locals)), text=draw(_rich_texts))
        el.set(QName(UVA, "n"), draw(_rich_texts))
        el.subelement(QName(NS.WSA, "Address"), text=draw(_rich_texts))
    el.tail = draw(_rich_texts)
    return el


_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 2),
    st.sampled_from([0.0, -0.0, 1.0, 2.5, float("inf")]),
    st.text(alphabet="ab<&>\" \n1", max_size=5), st.binary(max_size=4),
    _eprs, _element_values(),
)
_typed_values = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(alphabet="kxy", min_size=1, max_size=2), inner, max_size=3),
    ),
    max_leaves=6,
)
_edits = st.one_of(
    st.tuples(st.just("set"), st.sampled_from(_KEYS), _typed_values),
    st.tuples(st.just("remove"), st.sampled_from(_KEYS)),
    st.tuples(st.just("flip"), st.sampled_from(_KEYS)),
    st.tuples(st.just("perturb"), st.sampled_from(_KEYS)),
    st.tuples(st.just("to_end"), st.sampled_from(_KEYS)),
    st.tuples(st.just("reverse")),
    st.tuples(st.just("evict")),
)
_FLIPS = {"1": True, "True": 1.0, "1.0": 1, "0": False, "False": 0.0, "0.0": 0}


def _apply(state, edit):
    op, key = edit[0], (edit[1] if len(edit) > 1 else None)
    if op == "set":
        state[key] = edit[2]
    elif op == "remove":
        state.pop(key, None)
    elif op == "flip" and key in state:
        state[key] = _FLIPS.get(repr(state[key]), 1)
    elif op == "perturb" and key in state:
        # what ``==`` / ``Element.equals`` cannot see but the writer does
        value = state[key]
        if isinstance(value, dict):
            state[key] = dict(reversed(value.items()))
        elif isinstance(value, Element):
            value = state[key] = value.copy()
            value.attrib = dict(reversed(value.attrib.items()))
            value.tail = "" if value.tail else "tail"
    elif op == "to_end" and key in state:
        state[key] = state.pop(key)
    elif op == "reverse":
        for k in list(reversed(state)):
            state[k] = state.pop(k)


def _doc(text="", tail="", attrs=("p",)):
    el = Element(QName(UVA, "doc"), text=text)
    for name in attrs:
        el.set(QName(UVA, name), name)
    el.tail = tail
    return el


class TestIncrementalEncode:
    """``DecodeCache.encode(state, base=...)`` re-encodes only the
    fields that changed; the bytes must be the from-scratch encoder's,
    and what a load is handed must be what ``decode_state`` parses."""

    @given(st.dictionaries(st.sampled_from(_KEYS), _typed_values, max_size=4),
           st.lists(_edits, max_size=8))
    def test_every_step_matches_from_scratch(self, state, edits):
        cache = DecodeCache()
        blob = cache.encode(state)
        assert blob == encode_state(state)
        for edit in edits:
            if edit[0] == "evict":  # the table forgets the base
                cache.release(blob)
            else:
                _apply(state, edit)
            blob = cache.encode(state, base=blob)
            assert blob == encode_state(state)
            assert _values_equal(cache.decode(blob), decode_state(blob))

    @pytest.mark.parametrize("before, after", [
        (1, True), (True, 1.0), (1.0, 1), (0, False), (0.0, -0.0), ([1], [True]),
        ({"a": 1, "b": 2}, {"b": 2, "a": 1}),
        ({"m": {"a": 1, "b": 2}}, {"m": {"b": 2, "a": 1}}),
        (_doc(tail=""), _doc(tail="t")),
        (_doc(attrs=("p", "q")), _doc(attrs=("q", "p"))),
        (_doc(text="x"), _doc(text="y")),
    ])
    def test_lookalikes_are_told_apart(self, before, after):
        """``before == after`` (or ``before.equals(after)``), yet the
        encoder writes them differently: never reuse the fragment."""
        cache = DecodeCache()
        key, other = QName(UVA, "v"), QName(UVA, "other")
        blob = cache.encode({key: before, other: "same"})
        state = {key: after, other: "same"}
        assert blob != encode_state(state)
        blob = cache.encode(state, base=blob)
        assert blob == encode_state(state)
        assert _values_equal(cache.decode(blob), decode_state(blob))

    def test_unchanged_fields_are_not_encoded_again(self, monkeypatch):
        from repro.db import resource_store

        encoded = []
        real = resource_store.write_typed
        monkeypatch.setattr(
            resource_store, "write_typed",
            lambda tag, value, out, **spans: encoded.append(tag) or real(tag, value, out, **spans))
        cache = DecodeCache()
        state = _state(1)
        blob = cache.encode(state)
        assert len(encoded) == len(state)
        state[QName(UVA, "Count")] = 2
        state[QName(UVA, "Meta")]["k"] = "changed"
        expected = encode_state(state)
        del encoded[:]
        assert cache.encode(state, base=blob) == expected
        assert encoded == [QName(UVA, "Count"), QName(UVA, "Meta")]

    # The two sides of the one fallback: a namespace with a preferred
    # prefix serializes the same in any document, any other gets ns0...
    # in document order, so the document is serialized whole.

    def _edit_beside(self, value):
        """Encode, then change a neighbour of *value*'s field."""
        cache = DecodeCache()
        state = {QName(UVA, "a"): 1, QName(UVA, "doc"): value, QName(UVA, "z"): "tail"}
        first = cache.encode(state)
        state[QName(UVA, "a")] = 2
        second = cache.encode(state, base=first)
        assert (first, second) == (encode_state({**state, QName(UVA, "a"): 1}),
                                   encode_state(state))
        assert _values_equal(cache.decode(second), decode_state(second))
        return second

    def test_preferred_prefix_namespaces_are_assembled(self):
        doc = Element(QName(NS.WSNT, "Topic"), text="t")
        doc.set(QName(NS.WSRF_RP, "dialect"), "d")
        blob = self._edit_beside(doc)
        assert b"xmlns:wsnt=" in blob and b"xmlns:wsrp=" in blob and b"ns0" not in blob

    def test_foreign_namespace_is_serialized_whole(self):
        doc = Element(QName("urn:first", "x"))
        doc.subelement(QName("urn:second", "y"))
        blob = self._edit_beside(doc)
        assert b'xmlns:ns0="urn:first"' in blob and b'xmlns:ns1="urn:second"' in blob

    # ... and of what may be handed over decoded: a value that decodes
    # to itself, or one that must cross the codec to be loaded.

    @pytest.mark.parametrize("value, decoded", [
        ((1, "two"), [1, "two"]),
        ({"k": ("nested",)}, {"k": ["nested"]}),
        (EndpointReference(" http://padded/S "), EndpointReference("http://padded/S")),
    ])
    def test_value_that_does_not_decode_to_itself_is_parsed(self, value, decoded):
        store = BlobResourceStore()
        store.create("Svc", "r", {QName(UVA, "v"): value, QName(UVA, "n"): 1})
        loaded = store.load("Svc", "r")
        assert loaded[QName(UVA, "v")] == decoded
        assert type(loaded[QName(UVA, "v")]) is type(decoded)
        assert store.decode_cache.misses == 1
        loaded[QName(UVA, "n")] = 2
        assert store.save("Svc", "r", loaded) == encode_state(loaded)


# -- map fields, entry by entry ------------------------------------------------------

_MAP_KEYS = st.sampled_from(["", "k", "a&<>b", "x", "y"])
_MAP_EPRS = st.builds(
    EndpointReference,
    st.sampled_from(["http://n1:80/Exec", "soap.tcp://c:9000/files?a&b"]),
    st.dictionaries(
        st.sampled_from([QName(UVA, "ResourceID"), QName(NS.WSA, "Extra")]),
        st.text(alphabet="ab&<", max_size=2), max_size=2,
    ),
)
_MAP_ITEMS = st.recursive(
    st.one_of(
        st.sampled_from([0, 1, True, False, -0.0, 0.0, 2.5, "", "s&<>", b"", b"raw", None]),
        _MAP_EPRS,
    ),
    lambda inner: st.one_of(st.lists(inner, max_size=2),
                            st.dictionaries(_MAP_KEYS, inner, max_size=2)),
    max_leaves=4,
)
_MAP_FIELDS = [QName(UVA, name) for name in ("phase", "eprs", "nested")]
_map_states = st.fixed_dictionaries(
    {field: st.dictionaries(_MAP_KEYS, _MAP_ITEMS, max_size=4) for field in _MAP_FIELDS})
_map_edits = st.one_of(
    st.tuples(st.just("set"), st.sampled_from(_MAP_FIELDS), _MAP_KEYS, _MAP_ITEMS),
    st.tuples(st.just("delete"), st.sampled_from(_MAP_FIELDS), _MAP_KEYS),
    st.tuples(st.just("to_end"), st.sampled_from(_MAP_FIELDS), _MAP_KEYS),
    st.tuples(st.just("reverse"), st.sampled_from(_MAP_FIELDS)),
    st.tuples(st.just("retype"), st.sampled_from(_MAP_FIELDS), _MAP_KEYS),
    st.tuples(st.just("clear"), st.sampled_from(_MAP_FIELDS)),
)
#: a value as another type that ``==`` may not tell apart
_RETYPED = {int: float, float: bool, bool: int, str: bytes, bytes: str}


def _edit_map(table, edit):
    op, key = edit[0], (edit[2] if len(edit) > 2 else None)
    if op == "set":
        table[key] = edit[3]
    elif op == "delete":
        table.pop(key, None)
    elif op == "to_end" and key in table:
        table[key] = table.pop(key)
    elif op == "reverse":
        for name in list(reversed(table)):
            table[name] = table.pop(name)
    elif op == "retype" and key in table:
        value = table[key]
        kind = _RETYPED.get(type(value))
        if kind is bytes:
            table[key] = value.encode()
        elif kind is str:
            table[key] = value.decode()
        elif kind is not None:
            table[key] = kind(value)
        else:
            table[key] = [value]  # None, an EPR, a container: into a list
    elif op == "clear":
        table.clear()


class TestMapEntries:
    """A changed map is encoded entry by entry, each unchanged entry
    copied out of the old blob: the bytes must still be the
    from-scratch encoder's, and the kept state what ``decode_state``
    parses."""

    @given(_map_states, st.lists(st.tuples(_map_edits, st.booleans()), max_size=10))
    def test_every_edit_matches_from_scratch(self, state, steps):
        cache = DecodeCache()
        blob = cache.encode(state)
        assert blob == encode_state(state)
        for edit, reload in steps:
            if reload:  # edit what a load shares with the kept state
                state = cache.decode(blob)
            _edit_map(state[edit[1]], edit)
            blob = cache.encode(state, base=blob)
            assert blob == encode_state(state)
            assert _values_equal(cache.decode(blob), decode_state(blob))

    def test_a_changed_entry_is_the_only_one_written(self, monkeypatch):
        written = []
        real = soap_types._write_typed

        def counting(tag, *args, **kwargs):
            if tag == soap_types._VALUE:
                written.append(args[1])
            return real(tag, *args, **kwargs)

        cache = DecodeCache()
        table = QName(UVA, "phase")
        state = {table: {f"job{i}": "pending" for i in range(6)}, QName(UVA, "n"): 1}
        blob = cache.encode(state)
        monkeypatch.setattr(soap_types, "_write_typed", counting)
        for step in ({"job2": "dispatched"}, {"job6": "pending"}, {}, {"job0": "done"}):
            state = cache.decode(blob)
            state[table].update(step)
            del written[:]
            blob = cache.encode(state, base=blob)
            assert blob == encode_state(state)
            assert written == list(step.values())


# -- what a job event costs the Scheduler's row -------------------------------------

_JOBS = QName(UVA, "jobs")


def _chain_run(monkeypatch, n_jobs, on_save, hooks):
    """A chain of *n_jobs* (the ledger's ``staging_chain`` shape, a small
    payload), calling ``on_save(old, new, written)`` for each save of
    the Scheduler's row with the map entries the typed writer wrote for
    it, and counting each call of ``hooks`` (``[(module, name)]``) that
    is handed a stored spec."""
    tb = fig3_testbed(5.0, {"out.dat": b"x" * 64})
    store = tb.scheduler.store
    writing = []  # the entries of the Scheduler save in progress, else empty

    real_write = soap_types._write_typed

    def write(tag, *args, **kwargs):
        if writing and tag == soap_types._VALUE:
            writing[0] += 1
        return real_write(tag, *args, **kwargs)

    real_encode = DecodeCache.encode

    def encode(self, state, base=None):
        if self is not store.decode_cache or base is None:
            return real_encode(self, state, base)
        writing[:] = [0]
        try:
            return real_encode(self, state, base)
        finally:
            on_save(decode_state(base), state, writing.pop())

    def kept_specs():
        return [store.load_kept("Scheduler", rid)[_JOBS] for rid in store.list_ids("Scheduler")]

    calls = []  # (name, handed a stored spec) of each hooked call

    def counted(real):
        def call(*args):
            specs = kept_specs()
            calls.append((real.__name__, any(arg is spec for arg in args for spec in specs)))
            return real(*args)
        return call

    monkeypatch.setattr(soap_types, "_write_typed", write)
    monkeypatch.setattr(DecodeCache, "encode", encode)
    for module, name in hooks:
        if hasattr(module, name):  # the names the code has
            monkeypatch.setattr(module, name, counted(getattr(module, name)))
    client = tb.make_client()
    outcome, _, _ = tb.run_job_set(client, fan_spec(client, tb, n_jobs, chain=True))
    assert outcome == "completed"
    return calls, kept_specs()


def _entry_text(value):
    return to_string(to_typed_element(QName(UVA, "value"), value))


class TestJobEventCost:
    """Counts, not timings: a job event costs the Scheduler's row what
    it changed, not the whole job set."""

    @pytest.mark.parametrize("n_jobs", [8, 32])
    def test_a_save_encodes_only_the_entries_it_changed_or_added(self, monkeypatch, n_jobs):
        saves = []

        def on_save(old, new, written):
            changed = 0
            for key, value in new.items():
                before = old.get(key)
                if type(value) is dict and type(before) is dict:
                    changed += sum(
                        1 for name, item in value.items()
                        if name not in before or _entry_text(item) != _entry_text(before[name])
                    )
                elif type(value) is dict and _entry_text(value) != _entry_text(before):
                    changed += len(value)
            saves.append((written, changed))

        _chain_run(monkeypatch, n_jobs, on_save, [])
        # the first placement, then each exit with the next placement
        assert len(saves) == n_jobs + 1
        assert all(written <= changed for written, changed in saves), saves
        assert sum(written for written, _ in saves) > 0

    @pytest.mark.parametrize("n_jobs", [8, 32])
    def test_a_scheduling_pass_neither_copies_nor_compares_the_spec(self, monkeypatch, n_jobs):
        import repro.db.resource_store as resource_store
        import repro.wsrf.attributes as attributes
        import repro.wsrf.tooling as tooling

        from repro.gridapp import JobSetSpec

        parsed = []
        from_wire = JobSetSpec.from_wire.__func__
        monkeypatch.setattr(JobSetSpec, "from_wire", classmethod(
            lambda cls, data: parsed.append(data) or from_wire(cls, data)))
        hooks = [(module, name) for module in (soap_types, attributes, resource_store)
                 for name in ("copy_field", "read_copy")]
        hooks += [(tooling, "same_field"), (resource_store, "same_field")]
        calls, (spec,) = _chain_run(monkeypatch, n_jobs, lambda *_: None, hooks)
        assert [name for name, on_spec in calls if on_spec] == []
        assert len(calls) > n_jobs  # the other fields are copied and compared
        # one parse at submit, one per pass that placed a job (the chain
        # places each job in its own pass), handed the stored spec itself
        assert len(parsed) == 1 + n_jobs
        assert all(data is spec for data in parsed[1:])


# -- the state writer against the element it does not build -------------------------


class _Str(str):
    pass


class _Int(int):
    pass


class _Bytes(bytes):
    pass


class _List(list):
    pass


class _Dict(dict):
    pass


class _Phase(enum.IntEnum):
    RUNNING = 2


#: what the walk spells itself, at its edges ...
_edge_leaves = st.sampled_from(
    [float("nan"), float("-inf"), "", b"", "a<b>&c", "]]>", -0.0, 10**30, True])
#: ... and what it hands to the reference: a subclass decodes to its
#: base, a tuple to a list, and two of these do not encode at all
_outsiders = st.one_of(
    st.sampled_from([_Str("s<&>"), _Str(""), _Int(7), _Bytes(b"raw"), _Bytes(b""),
                     _Phase.RUNNING, 3j, frozenset({1})]),
    st.builds(EndpointReference, st.just("http://n1:80/Exec"),
              st.just({QName(_FOREIGN, "k"): "v"})),
)


def _writer_containers(inner):
    keys = st.text(alphabet="kxy<", max_size=2)  # "" included
    maps = st.dictionaries(keys, inner, max_size=3)
    lists = st.lists(inner, max_size=3)
    return st.one_of(
        lists, maps, lists.map(tuple), lists.map(_List), maps.map(_Dict),
        # a key that is not exactly a str, after entries that are fine
        st.tuples(maps, st.sampled_from([1, None, _Str("sub"), b"k"]), inner).map(
            lambda parts: {**parts[0], parts[1]: parts[2]}),
    )


_writer_values = st.recursive(
    st.one_of(_leaves, _edge_leaves, _outsiders), _writer_containers, max_leaves=8)
_writer_tags = st.sampled_from(_KEYS + [QName("plain")])


def _written(write):
    """What one of the two outputs answers: the text and the namespaces
    it mentions, None, or the exception."""
    out = []
    try:
        mentions = write(out)
    except Exception as exc:
        return type(exc), str(exc)
    return None if mentions is None else ("".join(out), mentions)


def _fragment(element, out):
    """``write_fragment`` of *element*: the namespaces it mentions, or None."""
    mentions = {}
    return None if writer.write_fragment(element, out, mentions) is None else tuple(mentions)


def _reference_written(tag, value):
    return _written(lambda out: _fragment(to_typed_element(tag, value), out))


def _writer_written(tag, value):
    return _written(lambda out: write_typed(tag, value, out))


_NAME = QName(NS.WSA, "To")


class TestTypedWriter:
    """``write_typed`` is ``write_fragment(to_typed_element(...))``: same
    text, same namespaces, same None, same exception."""

    @settings(max_examples=400)
    @given(_writer_tags, _writer_values)
    def test_matches_the_element_output(self, tag, value):
        assert _writer_written(tag, value) == _reference_written(tag, value)

    @pytest.mark.parametrize("value, handed_over", [
        ({"a": [1, "x", None, 2.5, b"b", True], "": {}}, 0),
        ((1, 2), 1), ([(1, 2), (3,)], 2), (_Str("s"), 1), (_Int(1), 1),
        (_Phase.RUNNING, 1), (_Dict(a=1), 1), ([_List([1])], 1),
        ({"k": 1, _Str("sub"): 2}, 1),
        # an EPR is spelled by the walk, an Element is not
        ([EndpointReference("http://n1:80/Exec"), Element(QName(UVA, "doc")), 1], 1),
    ])
    def test_only_outsiders_reach_the_reference(self, monkeypatch, value, handed_over):
        from repro.soap import types

        handed = []
        monkeypatch.setattr(
            types, "write_fragment",
            lambda element, out, mentions:
                handed.append(element) or writer.write_fragment(element, out, mentions))
        tag = QName(UVA, "v")
        assert _writer_written(tag, value) == _reference_written(tag, value)
        assert len(handed) == handed_over

    @pytest.mark.parametrize("value", [
        EndpointReference("http://n1:80/Exec"),
        EndpointReference("http://n1:80/Exec?a=1&b=<2>"),
        EndpointReference("http://n1:80/Exec", {QName(UVA, "ResourceID"): ""}),
        EndpointReference("http://n1:80/Exec", {QName(UVA, "ResourceID"): "r&1",
                                                QName(NS.WSA, "Extra"): "x",
                                                QName("", "plain"): "p"}),
        EndpointReference("http://n1:80/Exec", {QName(_FOREIGN, "k"): "v"}),
        [1, EndpointReference("http://n1:80/Exec", {QName(_FOREIGN, "k"): ""})],
        {"k": EndpointReference("http://n1:80/Exec", {QName(UVA, "ResourceID"): "r"})},
    ])
    def test_an_epr_is_spelled_as_the_reference_writes_it(self, monkeypatch, value):
        from repro.soap import types

        tag = QName(UVA, "v")
        reference = _reference_written(tag, value)
        handed = []
        monkeypatch.setattr(types, "to_typed_element",
                            lambda tag, value: handed.append(value) or to_typed_element(tag, value))
        assert _writer_written(tag, value) == reference
        assert handed == []

    def test_a_property_namespace_without_a_prefix_has_no_fragment(self):
        epr = EndpointReference("http://n1:80/Exec", {QName(_FOREIGN, "k"): "v"})
        assert _writer_written(QName(UVA, "v"), epr) is None

    @pytest.mark.parametrize("tag, value, answer", [
        (QName(_FOREIGN, "f"), 1, None),
        (QName(UVA, "v"), [1, Element(QName(_FOREIGN, "x"))], None),
        # the walk goes on past a subtree without a fragment: what
        # follows may not encode at all, and the reference says so first
        (QName(UVA, "v"), [Element(QName(_FOREIGN, "x")), 3j],
         (TypeError, "cannot serialize complex: 3j")),
        (QName(_FOREIGN, "f"), {1: 2}, (TypeError, "map keys must be strings, got 1")),
        (QName(UVA, "v"), {"k": 1, 2: 3}, (TypeError, "map keys must be strings, got 2")),
        # a name is a tuple, but no array: the grammar has no spelling for it
        (QName(UVA, "v"), _NAME, (TypeError, f"cannot serialize QName: {_NAME!r}")),
        (QName(UVA, "v"), [1, {"k": _NAME}], (TypeError, f"cannot serialize QName: {_NAME!r}")),
    ])
    def test_none_and_type_errors_are_the_references(self, tag, value, answer):
        assert _writer_written(tag, value) == _reference_written(tag, value) == answer

    def test_a_name_is_not_saved(self):
        store = BlobResourceStore()
        store.create("Svc", "r", {QName(UVA, "n"): 1})
        with pytest.raises(TypeError, match=re.escape(f"cannot serialize QName: {_NAME!r}")):
            store.save("Svc", "r", {QName(UVA, "n"): 1, QName(UVA, "v"): _NAME})

    @pytest.mark.parametrize("name", ["fig3_fan", "perf_fan"])
    def test_every_field_fragment_of_a_run(self, monkeypatch, name):
        from repro.db import resource_store

        real = resource_store.write_typed
        checked = []

        def write_checked(tag, value, out, **spans):
            mark = len(out)
            mentions = real(tag, value, out, **spans)
            assert ("".join(out[mark:]), mentions) == _reference_written(tag, value)
            checked.append(tag)
            return mentions

        monkeypatch.setattr(resource_store, "write_typed", write_checked)
        _, result = run_scenario(SCENARIOS[name])
        assert result["outcome"] == "completed"
        assert len(checked) > 100


# -- EnvelopeCache coherence --------------------------------------------------------


def _envelope(n=0, pad=""):
    epr = EndpointReference(
        "http://node1:80/Exec", {QName(UVA, "ResourceID"): f"r-{n}"}
    )
    body = Element(QName(UVA, "Run"))
    body.subelement(QName(UVA, "Arg"), text=f"value-{n}{pad}")
    return SoapEnvelope(
        AddressingHeaders(epr, action="urn:Run", message_id=f"uuid:m-{n}"), body
    )


class TestEnvelopeCache:
    def test_encode_parse_bridge_hits_without_reparsing(self):
        cache = EnvelopeCache()
        wire = _envelope().serialize(cache)
        parsed = SoapEnvelope.deserialize(wire, cache)
        assert (cache.parse_hits, cache.parse_misses) == (1, 0)
        assert parsed.serialize() == str(wire)  # semantically the same message

    def test_repeat_deliveries_are_isolated(self):
        # Same wire text delivered many times (retries, redeliveries):
        # each handler may mutate what it got; later deliveries must
        # never see it.
        cache = EnvelopeCache()
        wire = _envelope().serialize(cache)
        reference = SoapEnvelope.deserialize(wire)
        for _ in range(5):
            got = SoapEnvelope.deserialize(wire, cache)
            assert got.body.equals(reference.body)
            assert got.addressing.message_id == reference.addressing.message_id
            got.body.children[0].text = "CORRUPTED"
            got.body.set(QName(UVA, "hacked"), "yes")
        assert cache.parse_hits > 0

    def test_undelivered_envelope_is_freed_with_the_message(self, monkeypatch):
        # Nothing but the message holds what its receiver is to have: a
        # message that is dropped or never delivered leaves nothing behind.
        import gc
        import weakref

        class Handed(SoapEnvelope):  # an envelope that can be weakly referenced
            __slots__ = ("__weakref__",)

        monkeypatch.setattr(envelope_module, "SoapEnvelope", Handed)
        cache = EnvelopeCache()
        wire = cache.encode(_envelope())
        probe = weakref.ref(wire.handed)
        assert type(probe()) is Handed
        del wire
        gc.collect()
        assert probe() is None

    def test_message_over_8_mb_is_handed_off(self):
        # The hand-off table this replaced kept at most 8 MB of text and
        # parsed anything longer; a message carries its own envelope.
        cache = EnvelopeCache()
        envelope = _envelope(0, pad="x" * (9 << 20))
        wire = envelope.serialize(cache)
        assert len(wire) > 9 << 20
        got = SoapEnvelope.deserialize(wire, cache)
        assert (cache.parse_hits, cache.parse_misses) == (1, 0)
        assert got.body.equals(envelope.body) and str(wire) == envelope.serialize()

    def test_delivered_texts_are_not_kept_alive(self):
        import gc
        import weakref

        class Text(str):  # a str that can be weakly referenced
            __slots__ = ("__weakref__",)

        cache = EnvelopeCache()
        text = Text(_envelope().serialize())  # not encoded here: parsed
        probe = weakref.ref(text)
        SoapEnvelope.deserialize(text, cache)
        del text
        gc.collect()
        assert probe() is None


# -- the message object: the pieces, its size and its one receiver -------------------


def _blob(n):
    return (bytes(range(256)) * (n // 256 + 1))[:n]


_blob_sizes = st.one_of(st.integers(0, 64), st.integers(100_000, 300_000))
_wire_texts = st.text(alphabet=st.sampled_from("ab<&>\"é€\U0001f600 "), max_size=12)
#: typed values a staged file travels in: exact bytes up to 300 KB (a
#: deferred piece), a bytes subclass (written as text), non-ASCII and
#: astral strings, and bytes inside a map and a list
_message_values = st.one_of(
    _blob_sizes.map(_blob),
    _blob_sizes.map(lambda n: _Bytes(_blob(n))),
    _wire_texts,
    st.builds(lambda n, name: {"kind": name, "data": _blob(n)}, _blob_sizes, _wire_texts),
    st.lists(st.one_of(_blob_sizes.map(_blob), _wire_texts), max_size=2),
)


class TestMessageObject:
    """``EnvelopeCache.encode`` answers a :class:`WireText`: the reference
    text when read, its size and length known without reading it, and
    the receiver's envelope handed to one delivery at the codec that
    wrote it."""

    @settings(max_examples=30)
    @given(st.lists(_message_values, min_size=1, max_size=2))
    def test_a_message_is_the_reference_text_handed_once(self, values):
        envelope = _envelope()
        envelope.body = Element(QName(UVA, "Stage"))
        for at, value in enumerate(values):
            envelope.body.append(typed_value(QName(UVA, f"arg{at}"), value))
        codec, elsewhere = EnvelopeCache(), EnvelopeCache()
        encoded = []

        def b64encode(data):
            encoded.append(data)
            return base64.b64encode(data)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(soap_types, "base64", types.SimpleNamespace(
                b64encode=b64encode, b64decode=base64.b64decode))
            wire = envelope.serialize(codec)
            length, size = len(wire), wire.size
            # nothing read the text: no byte was encoded (an empty value's
            # text is "", spelled by the writer, not deferred)
            assert type(wire) is WireText and not any(encoded)
            text = str(wire)
        assert text == to_string(envelope.to_element(), xml_declaration=True)
        assert size == len(text.encode("utf-8")) and length == len(text) == len(wire)
        reference = SoapEnvelope.from_element(parse(text))
        # delivered to another network's codec: parsed, and the message
        # still carries its envelope for the codec that wrote it
        _assert_same_message(SoapEnvelope.deserialize(wire, elsewhere), reference)
        assert (elsewhere.parse_hits, elsewhere.parse_misses) == (0, 1)
        first = SoapEnvelope.deserialize(wire, codec)
        assert (codec.parse_hits, codec.parse_misses) == (1, 0)
        second = SoapEnvelope.deserialize(wire, codec)
        assert (codec.parse_hits, codec.parse_misses) == (1, 1)
        _assert_same_message(first, reference)
        _assert_same_message(second, first)
        assert [from_typed_element(child) for child in first.body.children] == values


# -- the envelope splice against the reference codec --------------------------------

_SECURITY = QName(NS.WSSE, "Security")


def _assert_same_message(got, expected, minted_id=False):
    """*got* is *expected* field for field, in a document of its own."""
    a, b = got.addressing, expected.addressing
    assert (a.to_epr, a.action, a.relates_to, a.reply_to, a.fault_to) == (
        b.to_epr, b.action, b.relates_to, b.reply_to, b.fault_to)
    if minted_id:  # no usable MessageID on the wire: each decode mints its own
        assert a.message_id.startswith("uuid:msg-") and b.message_id.startswith("uuid:msg-")
    else:
        assert a.message_id == b.message_id
    assert got.body.equals(expected.body) and got.body.tail == expected.body.tail
    assert len(got.extra_headers) == len(expected.extra_headers)
    for x, y in zip(got.extra_headers, expected.extra_headers):
        assert x.equals(y) and x.tail == y.tail


def _watch_decoding(patch):
    """The trees ``SoapEnvelope.from_element`` is given from now on: a
    receiver handed an envelope decodes none."""
    decoded = []
    real = SoapEnvelope.from_element.__func__
    patch.setattr(SoapEnvelope, "from_element", classmethod(
        lambda cls, root: decoded.append(root) or real(cls, root)))
    return decoded


def _deliver(envelope):
    """Send *envelope* through a hand-off and receive it, watching from
    outside whether the receiver was handed an envelope (a hit) or met
    the strict parser with a tree to decode (a miss: nothing is handed
    over for a message the splice declines):
    ``(wire, received envelope or the exception, spliced?)``."""
    cache = EnvelopeCache()
    with pytest.MonkeyPatch.context() as patch:
        decoded = _watch_decoding(patch)
        wire = cache.encode(envelope)
        try:
            received = cache.parse(wire)
        except Exception as exc:
            received = exc
    assert (cache.parse_hits, cache.parse_misses) == ((0, 1) if decoded else (1, 0))
    return str(wire), received, not decoded


# Generated envelopes are spliceable except in up to two respects,
# so the differential meets both paths, and every fallback condition
# alone.  Header values: markup, CR, padding, emptiness — what the
# writer escapes and what the reader strips.
_any_texts = st.text(alphabet=st.sampled_from("ab:/<>&\"\r\n\t é"), max_size=8)
_exact_texts = _any_texts.map(lambda text: f"urn:{text}.")
_prop_values = st.sampled_from(["", " ", "r-1", "a<b&c", " padded\r"])
_exact_props = st.dictionaries(
    st.sampled_from([QName(UVA, "ResourceID"), QName(UVA, "Shard"), QName(NS.WSRF_RL, "Lease")]),
    _prop_values, max_size=3)
_any_props = st.dictionaries(
    st.sampled_from([QName(UVA, "ResourceID"), QName(_FOREIGN, "k"), QName("plain"),
                     QName(NS.WSA, "To"), QName(NS.WSA, "Hop"), QName(NS.WSSE, "Token")]),
    _prop_values, max_size=3)
_any_eprs = st.builds(EndpointReference, _any_texts.filter(bool), _any_props)


@st.composite
def _header_blocks(draw, exact):
    """An extra header: a security block or, not *exact*, also one a
    sender should not have put there (``wsa:``, the testbed's or a
    foreign namespace)."""
    tags = [_SECURITY, QName(NS.WSSE, "Other")]
    if not exact:
        tags += [QName(NS.WSA, "Hop"), QName(NS.WSA, "Action"), QName(UVA, "Trace"),
                 QName(_FOREIGN, "trace")]
    block = Element(draw(st.sampled_from(tags)), text=draw(_rich_texts))
    names = _preferred_qnames if exact else _qnames
    for child in draw(st.lists(_rich_elements(names=names), max_size=2)):
        block.append(child)
        child.tail = draw(_rich_texts)
    block.tail = draw(_rich_texts)
    return block


@st.composite
def _envelopes(draw, spliceable=False):
    loose = set() if spliceable else draw(st.sets(st.sampled_from(
        ["to", "props", "action", "message_id", "relates_to", "reply", "headers", "body"]),
        max_size=2))

    def text(field):
        return draw(_any_texts if field in loose else _exact_texts)

    headers = AddressingHeaders(
        EndpointReference(text("to") or " ",
                          draw(_any_props if "props" in loose else _exact_props)),
        text("action"))
    headers.message_id = text("message_id")
    headers.relates_to = draw(st.one_of(st.none(), st.just(text("relates_to"))))
    if "reply" in loose:
        headers.reply_to = draw(st.one_of(st.none(), _any_eprs))
        headers.fault_to = draw(st.one_of(st.none(), _any_eprs))
    body = draw(_rich_elements(names=_qnames if "body" in loose else _preferred_qnames))
    body.tail = draw(_rich_texts)
    return SoapEnvelope(headers, body,
                        draw(st.lists(_header_blocks("headers" not in loose), max_size=2)))


def _plain(**fields):
    """A message the splice takes, then changed by *fields*."""
    envelope = _envelope()
    envelope.addressing.relates_to = "uuid:m-0"
    envelope.extra_headers.append(Element(_SECURITY, text="token"))
    for name, value in fields.items():
        setattr(envelope.addressing, name, value)
    return envelope


def _with_body(body):
    envelope = _plain()
    envelope.body = body
    return envelope


def _with_header(block):
    envelope = _plain()
    envelope.extra_headers.append(block)
    return envelope


def _deep(uri):
    """A body whose depth-3 child is in *uri*."""
    body = Element(QName(UVA, "Run"))
    body.subelement(QName(UVA, "a")).subelement(QName(UVA, "b")).subelement(
        QName(uri, "c"), text="deep")
    return body


def _to(address, props):
    return _plain(to_epr=EndpointReference(address, props))


class TestEnvelopeSplice:
    """``EnvelopeCache.encode`` writes the reference text without the
    envelope tree and hands the receiver an envelope — or declines, on
    a property of the message, writes the reference text and hands over
    nothing: that receiver's strict parse is a miss."""

    @settings(max_examples=300)
    @given(_envelopes())
    def test_matches_the_reference_codec(self, envelope):
        reference = to_string(envelope.to_element(), xml_declaration=True)
        wire, got, _ = _deliver(envelope)
        assert wire == reference
        try:
            expected = SoapEnvelope.from_element(parse(reference))
        except Exception as exc:
            assert type(got) is type(exc) and str(got) == str(exc)
            return
        _assert_same_message(got, expected,
                             minted_id=not envelope.addressing.message_id.strip())
        assert got.body is not envelope.body
        assert got.addressing is not envelope.addressing
        assert envelope.serialize() == reference  # the sender's is untouched

    def test_the_receiver_shares_only_the_epr(self):
        envelope = _plain()
        _, got, spliced = _deliver(envelope)
        assert spliced
        assert got.addressing.to_epr is envelope.addressing.to_epr
        assert got.addressing is not envelope.addressing
        assert got.body is not envelope.body and got.body.equals(envelope.body)
        assert got.extra_headers is not envelope.extra_headers
        assert got.extra_headers[0] is not envelope.extra_headers[0]

    @settings(max_examples=200)
    @given(_envelopes(spliceable=True))
    def test_the_receiver_shares_no_node_with_the_sender(self, envelope):
        # the walk that writes the text builds the receiver's copy: no
        # Element, attrib dict or children list of the sender's is in it
        _, got, spliced = _deliver(envelope)
        assert spliced
        assert got.addressing.to_epr is envelope.addressing.to_epr

        def parts(env):
            elements = [node for block in (env.body, *env.extra_headers) for node in block.iter()]
            return [id(part) for node in elements for part in (node, node.attrib, node.children)]

        assert not set(parts(got)) & set(parts(envelope))
        assert len(parts(got)) == len(parts(envelope))

    # What falls back, from both sides: the left column is spliced, the
    # right one — the same message with one property changed — is not.
    @pytest.mark.parametrize("spliced, declined", [
        # a namespace whose prefix depends on document order
        (_with_body(Element(QName(NS.WSRF_RP, "Get"), text="uva:x")),
         _with_body(Element(QName(_FOREIGN, "Get"), text="uva:x"))),
        (_with_body(_doc(attrs=("p",))),
         _with_body(Element(QName(UVA, "doc"), {QName(_FOREIGN, "p"): "p"}))),
        (_to("http://n:80/S", {QName(NS.WSRF_RL, "Lease"): "7", QName(UVA, "Empty"): ""}),
         _to("http://n:80/S", {QName(_FOREIGN, "Lease"): "7"})),
        (_plain(), _to("http://n:80/S", {QName("unqualified"): "7"})),
        (_with_header(Element(_SECURITY, text="second")),
         _with_header(Element(_SECURITY, {QName(_FOREIGN, "id"): "1"}))),
        # a header block the parser does not read back as what it was
        (_plain(), _to("http://n:80/S", {QName(NS.WSA, "Hop"): "1"})),
        (_plain(), _to("http://n:80/S", {QName(NS.WSSE, "Token"): "1"})),
        (_with_header(Element(QName(NS.WSSE, "Other"))),
         _with_header(Element(QName(UVA, "Trace"), text="t"))),
        (_plain(), _with_header(Element(QName(_FOREIGN, "trace")))),
        (_plain(), _with_header(Element(QName(NS.WSA, "Hop")))),
        # reply_to / fault_to
        (_plain(), _plain(reply_to=EndpointReference("http://c:9000/reply"))),
        (_plain(), _plain(fault_to=EndpointReference("http://c:9000/fault"))),
        # a value strip() would change, or an empty one
        (_to("http://n:80/a b", None), _to(" http://n:80/S", None)),
        (_plain(action="urn:<Run> &"), _plain(action="urn:Run\r")),
        (_plain(action="urn:Run"), _plain(action="")),
        (_plain(message_id="uuid:m 1"), _plain(message_id="uuid:m-1\n")),
        (_plain(relates_to=None), _plain(relates_to="")),
        (_plain(relates_to="uuid:m-0"), _plain(relates_to="\tuuid:m-0")),
        # the walk gives up deep in the body, not only at its root
        (_with_body(_deep(UVA)), _with_body(_deep(_FOREIGN))),
    ])
    def test_what_falls_back(self, spliced, declined):
        for envelope, expect_spliced in ((spliced, True), (declined, False)):
            wire, got, was_spliced = _deliver(envelope)
            assert was_spliced == expect_spliced
            assert wire == envelope.serialize()
            _assert_same_message(got, SoapEnvelope.deserialize(wire),
                                 minted_id=not envelope.addressing.message_id.strip())

    def test_unreadable_to_fails_at_the_receiver_not_the_sender(self):
        envelope = _plain(to_epr=EndpointReference(" \t"))
        message = "EPR requires a non-empty address"
        with pytest.raises(ValueError, match=message):
            SoapEnvelope.deserialize(envelope.serialize())
        cache = EnvelopeCache()
        wire = envelope.serialize(cache)  # the sender is not the one to fail
        assert str(wire) == envelope.serialize()
        with pytest.raises(ValueError, match=message):
            SoapEnvelope.deserialize(wire, cache)
        assert (cache.parse_hits, cache.parse_misses) == (0, 1)

    def test_fault_and_unqualified_body_children_are_spliced(self):
        from repro.soap import SoapFault

        detail = Element(QName(NS.WSRF_BF, "BaseFault"))
        detail.subelement(QName(NS.WSRF_BF, "Description"), text="no such <resource>")
        envelope = _with_body(SoapFault("soap:Client", "bad & gone", [detail]).to_element())
        wire, got, spliced = _deliver(envelope)
        assert spliced and wire == envelope.serialize()
        _assert_same_message(got, SoapEnvelope.deserialize(wire))


# -- the constant parts, written once per codec -------------------------------------


# A few addresses and actions met many times, each with other
# reference properties, ids, RelatesTo and blocks: the pools hold
# markup, and values the reader strips or reads as absent, which must
# decline on a warm codec as on a fresh one.
_memo_addresses = st.sampled_from(
    ["http://n:80/S", "http://n:80/a&b<c>", " http://n:80/S", "http://n:80/S\t", " "])
_memo_actions = st.sampled_from(["urn:Run", "urn:<Run> & >", "", " urn:Run", "urn:Run\r"])
_memo_ids = st.sampled_from(["uuid:m-1", "uuid:<m>&2", "", " uuid:m-3"])


@st.composite
def _memo_envelopes(draw):
    props = draw(st.one_of(_exact_props, _any_props))
    headers = AddressingHeaders(
        EndpointReference(draw(_memo_addresses), props), draw(_memo_actions))
    headers.message_id = draw(_memo_ids)
    headers.relates_to = draw(st.one_of(st.none(), _memo_ids))
    # the body and blocks are the existing differential's; shallow here
    body = draw(_rich_elements(depth=2, names=_preferred_qnames))
    blocks = draw(st.lists(st.builds(Element, st.just(_SECURITY), text=_rich_texts), max_size=2))
    return SoapEnvelope(headers, body, blocks)


def _clean(value):
    return bool(value) and value == value.strip()


class TestConstantParts:
    """What a codec writes once — the root frame per namespace set, the
    To block per address, the Action block per action — and what a
    network parses once — the route per address — change no byte and
    skip no check."""

    @settings(max_examples=150)
    @given(st.lists(_memo_envelopes(), min_size=1, max_size=6))
    def test_memoized_encode_is_the_reference(self, envelopes):
        warm = EnvelopeCache()
        for envelope in envelopes:
            reference = to_string(envelope.to_element(), xml_declaration=True)
            fresh = EnvelopeCache().encode(envelope)
            for wire in (fresh, warm.encode(envelope), warm.encode(envelope)):
                assert str(wire) == reference
                # spliced on a fresh codec iff spliced on a warm one
                assert type(wire) is type(fresh)
        # a block is kept only for a value the reader gets back
        assert all(map(_clean, [*warm.to_blocks, *warm.action_blocks]))

    def test_one_address_block_serves_every_resource_of_a_service(self):
        codec = EnvelopeCache()
        rid, foreign = QName(UVA, "ResourceID"), QName(_FOREIGN, "ResourceID")
        sent = [
            _to("http://n:80/S", {rid: "r-1"}),
            _to("http://n:80/S", {foreign: "r-2"}),  # declines, after a hit
            _to("http://n:80/S", {rid: "r-3", QName(NS.WSRF_RL, "Lease"): "a<b"}),
            _to("http://n:80/S", {QName(NS.WSSE, "Token"): "t"}),  # declines
        ]
        wires = [codec.encode(envelope) for envelope in sent]
        assert [type(wire) for wire in wires] == [WireText, str, WireText, str]
        for wire, envelope in zip(wires, sent):
            assert str(wire) == to_string(envelope.to_element(), xml_declaration=True)
        assert list(codec.to_blocks) == ["http://n:80/S"]
        assert list(codec.action_blocks) == ["urn:Run"]
        assert len(codec.frames) == 2  # {wsa, uvacg, wsse}, {wsa, uvacg, wsrl, wsse}

    def test_an_unroutable_address_is_refused_on_every_send(self):
        env = Environment()
        net = Network(env)
        net.add_host("a")
        for url in ["nowhere", "local://x", "job3://out.dat", "http://:80/S"] * 2:
            with pytest.raises(DeliveryError, match="cannot route"):
                _drain(env, net.request("a", url, "<x/>"))
        assert net.stats.faults["refused"] == 8
        assert net._routes == {}


def _drain(env, coroutine):
    proc = env.process(coroutine)
    env.run(until=proc)
    return proc.value


@WSRFPortType(GetResourcePropertyPortType)
class _Counter(ServiceSkeleton):
    """The rp_calls service: one integer per WS-Resource."""

    value = Resource(default=0)

    @ResourceProperty
    @property
    def Value(self) -> int:
        return self.value

    @WebMethod(requires_resource=False)
    def Create(self):
        return self.epr_for(self.create_resource(value=0))

    @WebMethod
    def Increment(self) -> int:
        self.value = self.value + 1
        return self.value


def _memo_sizes(network):
    """Entry counts of every memo of the constant parts: the network's
    codec (root frames, envelopes' and state blobs' alike, and the
    addressing blocks) and its routes."""
    codec = network.codec
    return (len(codec.frames), len(codec.to_blocks), len(codec.action_blocks),
            len(network._routes))


class TestMemoBounds:
    """The memos are fixed by the deployment: more resources, messages
    or job sets on the same deployment add no entry."""

    def test_rp_calls_shape_on_32_then_64_resources(self):
        env = Environment()
        net = Network(env)
        wrapper = deploy(_Counter, Machine(net, "server"), "Counter")
        clients = []
        for c in range(4):
            net.add_host(f"client{c:02d}")
            clients.append(WsrfClient(net, f"client{c:02d}"))
        eprs = []

        def run_on(n_resources):
            while len(eprs) < n_resources:
                eprs.append(_drain(env, clients[0].call(wrapper.service_epr(), UVA, "Create")))

            def loop(client, shift):
                # 3 reads per write, every resource
                for i, epr in enumerate(eprs):
                    if (i + shift) % 4 == 0:
                        yield from client.call(epr, UVA, "Increment")
                    else:
                        yield from client.get_resource_property(epr, QName(UVA, "Value"))

            env.run(until=env.all_of([env.process(loop(c, k)) for k, c in enumerate(clients)]))
            return _memo_sizes(net)

        small = run_on(32)
        assert run_on(64) == small
        assert net.stats.messages > 2 * 4 * 64

    def test_a_1_set_then_a_3_set_fan_on_one_testbed(self):
        tb = fig3_testbed(10.0, {"out": b"x"}, n_machines=3)
        client = tb.make_client()

        def fan(n_sets):
            for k in range(n_sets):
                spec = fan_spec(client, tb, 4, name=f"set{n_sets}-{k}-job{{}}")
                assert tb.run_job_set(client, spec)[0] == "completed"
            tb.settle(5.0)
            return _memo_sizes(tb.network)

        assert fan(1) == fan(3)


# -- the hand-off watched from outside, in whole runs -------------------------------


def _grid():
    return fig3_testbed(10.0, {"out": b"x"}, n_machines=3)


def _handed_values(element, path=()):
    """``(child indices, typed value)`` of each typed value under
    *element* that crosses as a value, read without building a tree."""
    if type(element) is soap_types.TypedValue:
        if element.unread:
            yield path, element
        return
    for i, child in enumerate(element.children):
        yield from _handed_values(child, (*path, i))


def _bytes_leaves(value):
    if type(value) is bytes:
        yield value
    elif isinstance(value, dict):
        for item in value.values():
            yield from _bytes_leaves(item)
    elif isinstance(value, list):
        for item in value:
            yield from _bytes_leaves(item)


@pytest.fixture
def audit(monkeypatch):
    """Check, from outside, everything the hand-off hands over: each
    envelope, field for field, against the strict parse of its wire
    text, each ``bytes`` leaf of a typed value handed over against the
    strict decode of its element in that parse, each loaded state
    against ``decode_state`` of the stored bytes.  Counts the envelopes
    handed over (``spliced``) and the encodes the splice declined
    (``fallback``: reference text, nothing handed over)."""
    seen = {"envelopes": 0, "spliced": 0, "fallback": 0, "states": 0, "base64": 0}
    real_parse, real_decode = EnvelopeCache.parse, DecodeCache.decode
    real_splice = EnvelopeCache._splice

    def splice_counted(self, envelope):
        wire = real_splice(self, envelope)
        seen["fallback"] += wire is None
        return wire

    def parse_checked(self, text):
        hits = self.parse_hits
        envelope = real_parse(self, text)
        seen["spliced"] += self.parse_hits - hits
        strict = SoapEnvelope.from_element(parse(text))
        # before the comparison below, which builds every tree
        for block, strict_block in zip((envelope.body, *envelope.extra_headers),
                                       (strict.body, *strict.extra_headers)):
            for path, typed in _handed_values(block):
                handed = list(_bytes_leaves(typed.value))
                received = list(_bytes_leaves(from_typed_element(typed)))
                assert list(map(id, received)) == list(map(id, handed))
                element = strict_block
                for i in path:
                    element = element.children[i]
                assert handed == list(_bytes_leaves(from_typed_element(element)))
                seen["base64"] += len(handed)
        _assert_same_message(envelope, strict)
        seen["envelopes"] += 1
        return envelope

    def decode_checked(self, blob):
        state = real_decode(self, blob)
        assert _values_equal(state, decode_state(blob))
        seen["states"] += 1
        return state

    monkeypatch.setattr(EnvelopeCache, "_splice", splice_counted)
    monkeypatch.setattr(EnvelopeCache, "parse", parse_checked)
    monkeypatch.setattr(DecodeCache, "decode", decode_checked)
    return seen


def _all_blobs(tb):
    wrappers = [tb.scheduler, tb.broker, tb.node_info, *tb.es.values(), *tb.fss.values()]
    for zone in tb.zones[1:]:
        wrappers += [zone.scheduler, zone.broker, zone.node_info]
    if tb.zones:
        wrappers += [tb.root_broker, tb.aggregator]
    return {f"{w.machine.name}/{key}": blob
            for w in wrappers for key, blob in w.store.snapshot().items()}


class TestHandOffFromOutside:
    def test_fig3_run(self, audit):
        tb, result = run_scenario(SCENARIOS["fig3_fan"])
        assert result["outcome"] == "completed"
        assert audit["envelopes"] == audit["spliced"] == tb.network.codec.parse_hits > 0
        assert audit["states"] > 0 and tb.network.codec.parse_misses == 0
        assert audit["base64"] > 0
        # every stored blob is what the from-scratch encoder writes
        for key, blob in _all_blobs(tb).items():
            assert blob == encode_state(decode_state(blob)), key

    def test_chaos_run_with_redelivery(self, audit):
        tb, result = run_scenario(SCENARIOS["drop20_ft"])
        assert result["outcome"] == "completed"
        assert tb.network.stats.drops > 0 and tb.network.stats.retries > 0
        assert audit["envelopes"] > audit["spliced"] > 0 and audit["states"] > 0
        assert audit["base64"] > 0
        assert audit["fallback"] == 0  # the rest were resent texts, parsed
        for key, blob in _all_blobs(tb).items():
            assert blob == encode_state(decode_state(blob)), key

    def test_federated_run_with_bounces(self, audit):
        # The fed_bounce shape: zones, polling clients, a node and a zone
        # head restarted mid-run (snapshot, restore, readoption).
        policy = RetryPolicy(max_attempts=8, base_delay_s=0.5, backoff_factor=2.0,
                             max_delay_s=3.0, timeout_s=30.0)
        tb = Testbed(
            n_machines=4, seed=11, machine_speeds=[1.0] * 4,
            federation=FederationConfig(n_zones=2),
            retry_policy=policy, broker_redelivery=policy,
            fault_tolerance=FaultToleranceConfig(watchdog_period=5.0, stuck_after=20.0),
        )
        tb.programs.register(make_compute_program("work", 10.0, outputs={"out": b"x"}))
        client = tb.make_federated_client()
        spec = client.new_job_set()
        exe = client.add_program_binary(tb.programs.get("work"))
        for i in range(4):
            spec.add(JobSpec(name=f"job{i}", executable=FileRef(exe, "job.exe")))
        tb.restart_host("node01", at=4.0, down_for=5.0)
        tb.restart_host("uvacg-z01", at=12.0, down_for=5.0)
        outcome, _, _ = tb.run(
            client.run_job_set_polled(spec, period=3.0, give_up_after=2000.0)
        )
        tb.settle()
        assert outcome == "completed"
        assert audit["spliced"] > 0 and audit["states"] > 0 and audit["base64"] > 0
        assert audit["fallback"] == 0
        for key, blob in _all_blobs(tb).items():
            assert blob == encode_state(decode_state(blob)), key

    def test_foreign_extra_header_takes_the_tree_path(self, audit):
        """A client that attaches a header block outside ``wsse:``: the
        parser reads it back as a reference property, so those requests
        are written by the reference encoder and strictly parsed on
        arrival — same job set, and the replies are still spliced."""
        tb = _grid()
        client = tb.make_client()
        spec = fan_spec(client, tb, 2)
        outcome, jobset_epr, _ = tb.run_job_set(client, spec)
        tb.settle()
        assert outcome == "completed" and audit["fallback"] == 0
        spliced = audit["spliced"]
        trace = Element(QName("urn:tracking", "Trace"), text="t-1")

        def scenario():
            for _ in range(3):
                ask = Element(QName(NS.WSRF_RP, "GetResourceProperty"),
                              text=QName(UVA, "Status").clark())
                reply = yield from client.soap.invoke(jobset_epr, ask, extra_headers=[trace])
                assert reply.full_text() == "Completed"

        tb.run(scenario())
        assert audit["fallback"] == 3 and audit["spliced"] == spliced + 3
        assert tb.network.codec.parse_misses == 3

    def test_received_envelope_mutated_in_place_redelivers_pristine(self):
        codec = _grid().network.codec
        wire = _envelope().serialize(codec)
        reference = parse(wire)
        for _ in range(4):  # the first delivery, then three resends
            got = SoapEnvelope.deserialize(wire, codec)
            assert got.to_element().equals(SoapEnvelope.from_element(reference).to_element())
            got.body.children[0].text = "CORRUPTED"
            got.extra_headers.append(Element(QName(UVA, "hacked")))
            got.addressing.message_id = "uuid:forged"

    def test_retried_request_is_parsed_afresh(self):
        """A reply lost on the wire: the client resends the text it
        holds, the hand-off's entry went with the first delivery, and
        the second meets the strict parser — an equal envelope in a
        tree of its own."""
        from repro.net import LinkFaultPlan, Network
        from repro.osim import Machine
        from repro.sim import Environment
        from repro.wsrf import ServiceSkeleton, WebMethod, WsrfClient, deploy

        class Draws:  # the injector's rng: the first reply is lost, no other
            def __init__(self):
                self.values = iter([0.0, 1.0])

            def random(self):
                return next(self.values)

        env = Environment()
        net = Network(env)
        machine = Machine(net, "server")
        net.add_host("client")
        net.inject_faults(rng=Draws()).set_link(
            "server", "client", LinkFaultPlan(drop_probability=0.5), symmetric=False)
        received = []

        class Echo(ServiceSkeleton):
            @WebMethod(requires_resource=False)
            def Say(self, word: str) -> str:
                envelope = self.wsrf.envelope
                received.append((envelope, envelope.serialize()))
                envelope.body.children[0].text = "CORRUPTED"  # handlers do mutate
                envelope.addressing.message_id = "uuid:forged"
                return word

        wrapper = deploy(Echo, machine, "Echo")
        client = WsrfClient(net, "client", retry_policy=RetryPolicy(max_attempts=2))
        call = env.process(client.call(wrapper.service_epr(), UVA, "Say", {"word": "hi"}))
        env.run(until=call)
        assert call.value == "hi"
        assert (net.stats.drops, net.stats.retries) == (1, 1)
        (first, first_wire), (second, second_wire) = received
        assert first_wire == second_wire and first.body is not second.body
        # the request twice and the one reply that arrived: only the
        # second delivery of the request was not handed over
        assert (net.codec.parse_hits, net.codec.parse_misses) == (2, 1)

    @pytest.mark.parametrize("text, message", [
        ("<soap:Envelope xmlns:soap='http://schemas.xmlsoap.org/soap/envelope/'><soap:Bo",
         "expected"),
        ("<a>&#xZZ;</a>", "malformed character reference"),
        ("<!DOCTYPE a [<!ENTITY x 'y'>]><a>&x;</a>", "DTDs are not supported"),
    ])
    def test_text_not_encoded_here_meets_the_strict_parser(self, text, message):
        with pytest.raises(XmlParseError) as reference:
            parse(text)
        assert message in str(reference.value)
        tb = _grid()

        def scenario():
            for _ in range(3):  # nothing about a failed parse is remembered
                reply = yield from tb.network.request("node00", tb.scheduler.address, text)
                fault = SoapFault.from_element(SoapEnvelope.deserialize(reply).body)
                assert fault.code == "soap:Client"
                assert fault.reason.endswith(f"XmlParseError: {reference.value}")

        tb.run(scenario())
        assert tb.network.codec.parse_misses == 3


# -- the run differential against the reference codec -------------------------------


class TestReferenceCodecDifferential:
    """The hand-off changes host CPU only: a run is byte-identical —
    the full step trace with its timestamps, the obs export, every
    stored blob — to the same run with every network and store forced
    onto the reference ``parse`` / ``decode_state`` / ``encode_state``
    path (by the test: there is no knob)."""

    def test_traces_byte_identical(self, reference_codec):
        tb, result = run_scenario(SCENARIOS["fig3_fan"])
        with reference_codec():
            tb_ref, result_ref = run_scenario(SCENARIOS["fig3_fan"])
        assert tb_ref.network.codec.parse_hits == 0  # ... it really was forced
        assert tb_ref.scheduler.store.decode_cache.hits == 0
        assert fingerprint(tb, result) == fingerprint(tb_ref, result_ref)
        # ... and the hand-off actually engaged, or this proved nothing.
        assert tb.network.codec.parse_hits > 0
        assert tb.scheduler.store.decode_cache.hits > 0

    def test_chaos_run_byte_identical(self, reference_codec):
        tb, result = run_scenario(SCENARIOS["drop20_ft"])
        with reference_codec():
            tb_ref, result_ref = run_scenario(SCENARIOS["drop20_ft"])
        assert tb.network.stats.drops == tb_ref.network.stats.drops > 0
        assert fingerprint(tb, result) == fingerprint(tb_ref, result_ref)
