"""Blob-backed WS-Resource state store (the WSRF.NET 1.1 design).

"Saving a service's Resources as binary, unstructured data is effective
for loading and storing, but makes it very difficult to query them in
the database" (§5).  This store reproduces that design: each resource's
state dict is serialized to an XML document and stored as a BLOB; point
loads are cheap, but any query must deserialize every blob.
"""

from __future__ import annotations

from itertools import accumulate, chain, compress, count
from operator import is_not
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.db.engine import Column, Database, DbError
from repro.soap import from_typed_element, to_typed_element, write_typed
from repro.soap.types import (
    _STR_ONLY, SHARED_ON_READ, EntrySpan, _Inexact, copy_field, read_copy,
)
from repro.xmlx import NS, Element, QName, parse, to_string, xpath_select
from repro.xmlx.writer import DocumentFrames

_STATE_TAG = QName(NS.UVACG, "ResourceState")

State = Dict[QName, Any]


class NoSuchResource(KeyError):
    """Raised on load/save/destroy of an unknown resource."""


class ResourceStore:
    """What the WSRF wrapper asks of a WS-Resource state backend.

    Every backend implements ``create``/``exists``/``load``/``save``/
    ``destroy``/``list_ids``/``scan_query`` plus ``snapshot``/``restore``
    in the shared checkpoint format (tests/test_store_backends.py runs
    one conformance suite over all of them); this base holds the
    answers they share: a backend with no cache in front of its
    database serves nothing from one.

    ``load`` returns a state the caller owns; :meth:`load_kept` is the
    read of the wrapper's db_load stage, which never mutates what it
    gets.
    """

    #: loads answered from the cache / passed on to the database
    hits = 0
    misses = 0

    def is_cached(self, service: str, resource_id: str) -> bool:
        """True when a load would be served without a database access,
        so the wrapper's db_load stage charges no db delay for it."""
        return False

    def load_kept(self, service: str, resource_id: str) -> State:
        """The stored state, read-only to the caller.  A backend that
        keeps decoded state answers with the kept values uncopied
        (:meth:`DecodeCache.kept`); one that keeps none answers with a
        plain load, whose state the caller owns anyway."""
        return self.load(service, resource_id)


def _qname(key) -> QName:
    return key if isinstance(key, QName) else QName(key)


def encode_state(state: State) -> bytes:
    root = Element(_STATE_TAG)
    for key, value in state.items():
        root.append(to_typed_element(_qname(key), value))
    return to_string(root).encode("utf-8")


def decode_state(blob: bytes) -> State:
    root = parse(blob.decode("utf-8"))
    if root.tag != _STATE_TAG:
        raise ValueError(f"not a resource-state document: {root.tag}")
    return {child.tag: from_typed_element(child) for child in root.children}


def _same_element(a: Element, b: Element) -> bool:
    """Like :meth:`Element.equals`, plus what only the writer sees:
    tails and the order of attributes."""
    if (
        a.tag != b.tag
        or a.text != b.text
        or a.tail != b.tail
        or len(a.children) != len(b.children)
        or list(a.attrib.items()) != list(b.attrib.items())
    ):
        return False
    return all(map(_same_element, a.children, b.children))


def same_field(a: Any, b: Any) -> bool:
    """True when :func:`to_typed_element` encodes *a* and *b* alike: a
    field that is the same as its kept value need not be saved.

    Stricter than ``==``, which cannot stand in for it: the typed
    encoding tells ``True`` / ``1`` / ``1.0`` apart and writes map
    entries in insertion order, and ``Element`` has identity equality.
    Anything outside the exact types of the typed-value universe (a
    tuple, a subclass) is never "the same": it is encoded afresh.

    A state loaded here shares every immutable leaf and EPR with the
    kept value it was copied from (:func:`read_copy`), so members that
    are one object on both sides — nearly all of an unchanged field —
    are passed over without a call.
    """
    if a is b:
        return True
    cls = type(a)
    if cls is not type(b):
        return False
    if cls is dict:
        if len(a) != len(b):
            return False
        for (key_a, item_a), (key_b, item_b) in zip(a.items(), b.items()):
            if key_a != key_b:
                return False
            if item_a is not item_b and not same_field(item_a, item_b):
                return False
        return True
    if cls is list:
        if len(a) != len(b):
            return False
        for item_a, item_b in zip(a, b):
            if item_a is not item_b and not same_field(item_a, item_b):
                return False
        return True
    if cls is float:
        return repr(a) == repr(b)  # the encoded form; tells -0.0 from 0.0
    if cls in SHARED_ON_READ:
        return a == b
    if cls is Element:
        return _same_element(a, b)
    return False


#: where each entry of a map field sits in the field's fragment, for a
#: non-empty map with ``str`` keys assembled here: the length of the
#: map's start tag, then per entry, in the kept map's order, its length
#: and the namespaces its value mentions beyond the map's own.  Lengths
#: and not offsets: an entry that grows moves every entry after it, and
#: ``accumulate`` turns lengths into offsets in C
_EntrySpans = Tuple[int, List[int], List[Tuple[str, ...]]]

#: one field of a kept state: the decoded value (read-only: author code
#: only ever gets copies) and, when the blob was assembled from fragments
#: here, where the field's serialized element sits in the blob (offsets from
#: the end of the root start tag; ``end == 0``: not known), the namespaces
#: it mentions and, for a map, its entries (None: not a map, or not known)
#: — kept so the save that replaces the blob re-encodes only what changed
_Field = Tuple[Any, int, int, Tuple[str, ...], Optional[_EntrySpans]]


class _Entry:
    """What the cache knows about one blob."""

    __slots__ = ("fields", "body_at", "rows")

    def __init__(self, fields: Dict[QName, _Field], body_at: int = 0) -> None:
        self.fields = fields
        #: length of the root start tag: where the first fragment begins
        self.body_at = body_at
        #: store rows this cache saw take this blob, minus those it saw
        #: give it up; the entry goes with the last one
        self.rows = 1


#: the entry of a blob nothing is known about: no field to copy
_UNKNOWN = _Entry({})

#: the fields of a blob a row holds that nobody has decoded yet (restored
#: bytes, or a state that does not decode to itself): none to copy
_UNDECODED: Dict[QName, _Field] = {}


def _encode_map(qkey: QName, value: dict, old: Optional[_Field], base: bytes, field_at: int):
    """The fragment of the map field *value*, entry by entry: each entry
    that encodes as it did in the *old* field (which starts at
    *field_at* in *base*) is copied out of it, a run of them as one
    slice, and the others are written.  ``(fragment, kept value,
    namespaces, entry spans)``; None when the map has no
    document-independent fragment.

    Copying needs the old keys in their order at the front of *value*
    (entries changed in place, new ones added after them): the common
    case is then found by C loops over the values, identity first.  A
    map that dropped or moved an entry is written whole."""
    keys = list(value)
    items = list(value.values())
    if old is not None and old[4] is not None and keys[:len(old[0])] == list(old[0]):
        old_kept, (head, lengths, owns) = old[0], old[4]
        before = list(old_kept.values())
        changed = [
            at for at in compress(count(), map(is_not, items, before))
            if not same_field(items[at], before[at])
        ]
        if not changed and len(keys) == len(before):  # the field as it was
            return base[field_at:field_at + old[2] - old[1]], old_kept, old[3], old[4]
    else:
        old_kept, head, lengths, owns, changed = {}, 0, [], [], []
    n_old = len(lengths)
    written_at = changed + list(range(n_old, len(keys)))
    text: List[str] = []
    written: List[EntrySpan] = []
    mentions = write_typed(qkey, {keys[at]: items[at] for at in written_at}, text, entries=written)
    if mentions is None:
        return None
    starts = list(accumulate(lengths, initial=head))  # old entries, from the field's start
    opening = "".join(text[:written[0][0]]).encode("utf-8")
    parts = [opening]
    kept = old_kept.copy()
    lengths, owns = lengths.copy(), owns.copy()
    copied = 0  # the old entries before this one are in parts
    for at, (begin, end, own) in zip(written_at, written):
        stop = min(at, n_old)
        if copied < stop:
            parts.append(base[field_at + starts[copied]:field_at + starts[stop]])
            copied = stop
        piece = "".join(text[begin:end]).encode("utf-8")
        parts.append(piece)
        if at < n_old:
            lengths[at], owns[at] = len(piece), own
            copied = at + 1
        else:
            lengths.append(len(piece))
            owns.append(own)
        kept[keys[at]] = copy_field(items[at])
    if copied < n_old:
        parts.append(base[field_at + starts[copied]:field_at + starts[n_old]])
    parts.append("".join(text[written[-1][1]:]).encode("utf-8"))
    mentions = tuple(dict.fromkeys(chain(mentions, chain.from_iterable(owns))))
    return b"".join(parts), kept, mentions, (len(opening), lengths, owns)


def _assemble(
    state: State, base: bytes, old: _Entry, frames: DocumentFrames
) -> Optional[Tuple[bytes, _Entry]]:
    """Encode *state* field by field, copying out of *base* (the blob
    being replaced, *old* its entry) every field that encodes as it did
    there, and of a changed map field every entry that does.  None when
    *state* is not a run of document-independent fragments, one per
    key, inside a root start and end tag."""
    if not state:
        return None  # an empty root is written as one tag
    fields: Dict[QName, _Field] = {}
    pieces: List[bytes] = []
    uris: Set[str] = set()
    at = 0
    for key, value in state.items():
        qkey = _qname(key)
        if qkey in fields:
            return None  # "x" beside QName("x"): two children, one key
        field = old.fields.get(qkey)
        if field is not None and not field[2]:
            field = None  # decoded, not assembled: nothing to copy
        if field is not None and (
            value is field[0] or (field[4] is None and same_field(value, field[0]))
        ):
            kept, start, end, mentions, entries = field
            piece = base[old.body_at + start:old.body_at + end]
        else:
            built = None
            if type(value) is dict and value and _STR_ONLY.issuperset(map(type, value)):
                built = _encode_map(
                    qkey, value, field, base, old.body_at + field[1] if field else 0
                )
            if built is not None:
                piece, kept, mentions, entries = built
            else:
                text: List[str] = []
                mentions = write_typed(qkey, value, text)
                if mentions is None:
                    return None
                kept = copy_field(value)
                piece = "".join(text).encode("utf-8")
                entries = None
        fields[qkey] = (kept, at, at + len(piece), mentions, entries)
        at += len(piece)
        pieces.append(piece)
        uris.update(mentions)
    opening, closing = (tag.encode("utf-8") for tag in frames(_STATE_TAG, uris))
    return b"".join([opening, *pieces, closing]), _Entry(fields, len(opening))


def _whole(state: State) -> Tuple[bytes, Optional[_Entry]]:
    """The reference encoding of *state*, and *state* kept decoded —
    unless one of its values does not decode to itself."""
    blob = encode_state(state)
    try:
        return blob, _Entry(
            {_qname(key): (copy_field(value), 0, 0, (), None) for key, value in state.items()}
        )
    except _Inexact:
        return blob, None


class DecodeCache:
    """The state hand-off: a value crosses the codec once
    (docs/performance.md, "Codec fast path").

    Content-addressed — keyed on the immutable encoded blob bytes:
    identical bytes always decode to the same document, so what is known
    about a blob needs no invalidation protocol at all — destroy/recreate
    and checkpoint restore change *which bytes a store serves*, never
    what bytes already seen mean.  Per blob it keeps

    - the decoded state, so a load of bytes that were encoded (or
      already decoded) here skips the parser.  :meth:`decode`, hit or
      miss, returns a deep copy built by :func:`read_copy`, so callers
      can mutate what they get.  :meth:`kept` returns the kept values
      themselves, read-only: only the wrapper's db_load stage asks for
      them, and it copies each field before author code can see it
      (``Resource.__get__``);
    - where each field's serialized fragment sits in the blob, so
      :meth:`encode` of a state that replaces this blob re-encodes only
      the fields that differ under :func:`same_field` and copies the
      rest — byte-identical to :func:`encode_state`, which stays the
      reference.  Of a map it also keeps where each entry sits, so a
      changed map re-encodes only its changed entries.

    Blobs not encoded here (restored snapshots, rows written behind the
    store's back) go through :func:`decode_state` and its strict parser.

    Footprint: the table holds one entry per distinct blob the store's
    rows hold, and no other.  Each entry counts the rows that hold its
    blob (:meth:`hold`, :meth:`release`), and goes with the last one: a
    save replaced the blob, the resource was destroyed, a restore
    rolled the row back.  A blob asked about that no row holds (a cache
    used on its own) is kept as held once.

    The state root's start and end tags come from *frames*
    (:class:`~repro.xmlx.writer.DocumentFrames`, one per namespace set
    the fields mention): a deployed service's store writes through its
    network's (``network.codec.frames``), a store on its own through
    one of its own.
    """

    __slots__ = ("hits", "misses", "_entries", "_frames")

    def __init__(self, frames: Optional[DocumentFrames] = None) -> None:
        #: cache effectiveness counters for the obs registry
        self.hits = 0
        self.misses = 0
        self._entries: Dict[bytes, _Entry] = {}
        self._frames = frames if frames is not None else DocumentFrames()

    def kept(self, blob: bytes) -> State:
        """The state *blob* encodes, as the kept values themselves.

        Read-only by contract.  :meth:`decode` copies what it gets; the
        wrapper's db_load stage copies a field out the first time author
        code reads it and hands every field it did not change back to
        :meth:`encode` as the very kept object, whose bytes are then
        copied out of the blob without a walk.  A kept value that
        reached author code uncopied could be mutated behind the cache's
        back."""
        entry = self._entries.get(blob)
        if entry is None:
            entry = self._entries[blob] = _Entry(_UNDECODED)
        if entry.fields is _UNDECODED:
            self.misses += 1
            entry.fields = {
                key: (value, 0, 0, (), None) for key, value in decode_state(blob).items()
            }
        else:
            self.hits += 1
        return {key: field[0] for key, field in entry.fields.items()}

    def decode(self, blob: bytes) -> State:
        """The state *blob* encodes, a copy the caller owns."""
        return {key: read_copy(value) for key, value in self.kept(blob).items()}

    def encode(self, state: State, base: Optional[bytes] = None) -> bytes:
        """Encode *state*, which replaces the blob *base* (None: a new
        row), and keep it decoded under the produced bytes.

        Fields that encode as they did in *base* are copied out of it
        and keep its decoded values; the others are encoded and
        value-isolated copies kept (the caller goes on mutating its own
        dict).  With no usable *base* every field is encoded: one
        encoder, from scratch or incremental.  A field in a namespace
        without a preferred prefix has no document-independent fragment
        (:func:`~repro.soap.types.write_typed` answers None), so such a
        state is serialized whole by :func:`encode_state`; a state holding a
        value that does not decode to itself (:class:`_Inexact`) is not
        kept decoded, so its next load parses what was written.
        """
        entries = self._entries
        try:
            built = _assemble(state, base or b"", entries.get(base) or _UNKNOWN, self._frames)
        except _Inexact:
            built = None
        blob, entry = built or _whole(state)
        if blob != base:
            if blob in entries or entry is None:
                self.hold(blob)
            else:
                entries[blob] = entry
            if base is not None:
                self.release(base)
        return blob

    def hold(self, blob: bytes) -> None:
        """One more row holds *blob*: an unknown blob (restored, or a
        state that does not decode to itself) is kept undecoded until
        read."""
        entry = self._entries.get(blob)
        if entry is None:
            self._entries[blob] = _Entry(_UNDECODED)
        else:
            entry.rows += 1

    def release(self, blob: bytes) -> None:
        """A row gave up *blob* (replaced or destroyed)."""
        entry = self._entries.get(blob)
        if entry is not None:
            entry.rows -= 1
            if entry.rows < 1:
                del self._entries[blob]


class BlobResourceStore(ResourceStore):
    """CRUD + (expensive) scan-query over serialized resource state."""

    TABLE = "resources"

    def __init__(
        self, db: Optional[Database] = None, frames: Optional[DocumentFrames] = None
    ) -> None:
        self.db = db or Database()
        if self.TABLE not in self.db.tables:
            table = self.db.create_table(
                self.TABLE,
                [
                    Column("rid", "TEXT", primary_key=True),
                    Column("service", "TEXT", nullable=False),
                    Column("resource_id", "TEXT", nullable=False),
                    Column("state", "BLOB", nullable=False),
                ],
            )
            table.create_index("service")
        #: operation counters for the D-3 benchmark
        self.loads = 0
        self.saves = 0
        self.scans = 0
        #: the state hand-off: what this store encoded it never re-parses;
        #: *frames* is the state root's frame memo to share (DecodeCache)
        self.decode_cache = DecodeCache(frames)

    @staticmethod
    def _key(service: str, resource_id: str) -> str:
        return f"{service}|{resource_id}"

    def create(self, service: str, resource_id: str, state: State) -> bytes:
        blob = self.decode_cache.encode(state)
        try:
            self.db.table(self.TABLE).insert(
                {
                    "rid": self._key(service, resource_id),
                    "service": service,
                    "resource_id": resource_id,
                    "state": blob,
                }
            )
        except DbError:
            self.decode_cache.release(blob)
            raise
        self.saves += 1
        return blob

    def exists(self, service: str, resource_id: str) -> bool:
        return self.db.table(self.TABLE).get(self._key(service, resource_id)) is not None

    def load_blob(self, service: str, resource_id: str) -> bytes:
        """The stored bytes of one resource (a counted load)."""
        row = self.db.table(self.TABLE).get(self._key(service, resource_id))
        if row is None:
            raise NoSuchResource(f"{service}/{resource_id}")
        self.loads += 1
        return row["state"]

    def load(self, service: str, resource_id: str) -> State:
        return self.decode_cache.decode(self.load_blob(service, resource_id))

    def load_kept(self, service: str, resource_id: str) -> State:
        return self.decode_cache.kept(self.load_blob(service, resource_id))

    def save(self, service: str, resource_id: str, state: State) -> bytes:
        key = self._key(service, resource_id)
        table = self.db.table(self.TABLE)
        row = table.get(key)
        if row is None:
            raise NoSuchResource(f"{service}/{resource_id}")
        blob = self.decode_cache.encode(state, base=row["state"])
        table.update({"state": blob}, equals={"rid": key})
        self.saves += 1
        return blob

    def destroy(self, service: str, resource_id: str) -> None:
        key = self._key(service, resource_id)
        table = self.db.table(self.TABLE)
        row = table.get(key)
        if row is None:
            raise NoSuchResource(f"{service}/{resource_id}")
        table.delete(equals={"rid": key})
        self.decode_cache.release(row["state"])

    def list_ids(self, service: str) -> List[str]:
        rows = self.db.table(self.TABLE).select(
            equals={"service": service}, columns=["resource_id"]
        )
        return sorted(row["resource_id"] for row in rows)

    # -- checkpoint / restore ----------------------------------------------------------

    def snapshot(self) -> Dict[str, bytes]:
        """Checkpoint: ``{"service|resource_id": encoded state bytes}``.

        The format is backend-independent (every backend encodes state
        through :func:`encode_state`), so a snapshot taken from one
        store implementation restores into any other.
        """
        rows = self.db.table(self.TABLE).select()
        return {row["rid"]: bytes(row["state"]) for row in rows}

    def restore(self, snap: Dict[str, bytes]) -> None:
        """Replace the entire store contents with *snap*.

        Rows are rewritten directly — the D-3 ``loads``/``saves``
        counters track dispatch-path database work, and a host bounce
        is not dispatch work.  The decode cache counts the new rows in
        before the old ones out, so a blob on both sides keeps what is
        known about it.
        """
        table = self.db.table(self.TABLE)
        given_up = [row["state"] for row in table.select(columns=["state"])]
        table.delete()
        for rid in sorted(snap):
            service, _, resource_id = rid.partition("|")
            blob = bytes(snap[rid])
            table.insert(
                {
                    "rid": rid,
                    "service": service,
                    "resource_id": resource_id,
                    "state": blob,
                }
            )
            self.decode_cache.hold(blob)
        for blob in given_up:
            self.decode_cache.release(blob)

    def scan_query(
        self,
        service: str,
        xpath: str,
        namespaces: Optional[Dict[str, str]] = None,
    ) -> List[Tuple[str, list]]:
        """Query every resource of *service* — deserializing each blob.

        This is the §5 pain point made concrete: cost is O(total state
        size), not O(matches).
        """
        self.scans += 1
        out: List[Tuple[str, list]] = []
        rows = self.db.table(self.TABLE).select(equals={"service": service})
        for row in rows:
            doc = parse(row["state"].decode("utf-8"))
            hits = xpath_select(doc, xpath, namespaces)
            if hits:
                out.append((row["resource_id"], hits))
        out.sort(key=lambda pair: pair[0])
        return out
