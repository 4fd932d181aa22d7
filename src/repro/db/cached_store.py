"""Write-through cache over :class:`~repro.db.BlobResourceStore`.

The Fig. 1 pipeline pays a 0.8 ms database access to load resource state
on *every* dispatch.  :class:`CachedResourceStore` models a cache of the
**encoded blob** of each resource it has seen: a hit decodes the blob
instead of touching the database, so the wrapper can elide the
``db_load`` delay (see ``wsrf/tooling.py``).  What it *keeps* is only
the row keys it has seen.  The cache is write-through, so the blob a hit
would hold is always the very ``bytes`` object the database row holds
(measured: 1 469 of 1 469 hits on ``grid_fan_perf``,
docs/performance.md) — a hit reads the row without counting a database
load instead of keeping a second table of pointers to the same bytes.
Every load decodes through the inner store's
:class:`~repro.db.DecodeCache`.  ``load`` hands out a fresh copy, so
callers mutating the returned dict (or the Elements inside it) can never
corrupt the cache, exactly as they cannot corrupt a database row;
``load_kept`` hands the wrapper's db_load stage the kept values
uncopied, and the wrapper copies each field before author code reads it
(``Resource.__get__``), so kept values never reach author code.

``create``/``save`` always hit the inner store first and only then mark
the row cached, and ``destroy`` evicts it.  The inner store therefore
remains the source of truth at all times — the coherence property tests
in ``tests/test_perf_equivalence.py`` drive random op sequences against
a plain :class:`BlobResourceStore` oracle and assert the two never
diverge, including destroy-then-recreate of the same resource id.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from repro.db.resource_store import BlobResourceStore, ResourceStore, State


class CachedResourceStore(ResourceStore):
    """Write-through state cache over a :class:`BlobResourceStore`: the
    set of rows a load is served for without a database access.

    Exposes the full store surface (create/exists/load/load_kept/save/
    destroy/list_ids/scan_query) plus ``is_cached`` for the wrapper's delay
    elision and ``hits``/``misses`` counters for the obs registry.  The
    D-3 operation counters (``loads``/``saves``/``scans``) proxy to the
    inner store so existing diagnostics keep reporting *database*
    operations — a cache hit is precisely a load that never reached the
    database.
    """

    def __init__(self, inner: Optional[BlobResourceStore] = None) -> None:
        self.inner = inner if inner is not None else BlobResourceStore()
        #: keys of the inner store's rows whose blob counts as cached
        self._cached: Set[str] = set()
        #: cache effectiveness counters for the obs registry
        self.hits = 0
        self.misses = 0
        #: the inner store's state hand-off: a cache hit skips the XML
        #: re-parse too, with the same per-load value isolation
        self.decode_cache = self.inner.decode_cache

    @staticmethod
    def _key(service: str, resource_id: str) -> str:
        return BlobResourceStore._key(service, resource_id)

    # -- cache introspection ---------------------------------------------------------

    def is_cached(self, service: str, resource_id: str) -> bool:
        """True when a load would be served without a database access."""
        return self._key(service, resource_id) in self._cached

    def assert_coherent(self) -> None:
        """Check every cached key still names a row (test helper)."""
        table = self.inner.db.table(self.inner.TABLE)
        for key in self._cached:
            if table.get(key) is None:
                raise AssertionError(f"cache holds destroyed resource {key!r}")

    # -- the store surface -----------------------------------------------------------

    def create(self, service: str, resource_id: str, state: State) -> None:
        self.inner.create(service, resource_id, state)
        self._cached.add(self._key(service, resource_id))

    def exists(self, service: str, resource_id: str) -> bool:
        if self.is_cached(service, resource_id):
            return True
        return self.inner.exists(service, resource_id)

    def _blob(self, service: str, resource_id: str) -> bytes:
        """The row's bytes, counted as a cache hit or miss."""
        key = self._key(service, resource_id)
        if key in self._cached:
            # The cached blob *is* the row's: read it, count no load.
            self.hits += 1
            return self.inner.db.table(self.inner.TABLE).get(key)["state"]
        self.misses += 1
        blob = self.inner.load_blob(service, resource_id)
        self._cached.add(key)
        return blob

    def load(self, service: str, resource_id: str) -> State:
        return self.decode_cache.decode(self._blob(service, resource_id))

    def load_kept(self, service: str, resource_id: str) -> State:
        return self.decode_cache.kept(self._blob(service, resource_id))

    def save(self, service: str, resource_id: str, state: State) -> None:
        self.inner.save(service, resource_id, state)
        self._cached.add(self._key(service, resource_id))

    def destroy(self, service: str, resource_id: str) -> None:
        self.inner.destroy(service, resource_id)
        self._cached.discard(self._key(service, resource_id))

    def list_ids(self, service: str) -> List[str]:
        return self.inner.list_ids(service)

    # -- checkpoint / restore ----------------------------------------------------------

    def snapshot(self) -> Dict[str, bytes]:
        """Checkpoint of the inner (source-of-truth) store."""
        return self.inner.snapshot()

    def restore(self, snap: Dict[str, bytes]) -> None:
        """Restore the inner store and forget every cached key.

        The cache MUST be emptied here: it is process memory, which the
        crash took, so the first load of each row after a restart is a
        database access again — and a key cached before the checkpoint
        may name a row the rollback removed (``assert_coherent`` would
        trip).  docs/durability.md spells this out.
        """
        self.inner.restore(snap)
        self._cached.clear()

    def scan_query(
        self,
        service: str,
        xpath: str,
        namespaces: Optional[Dict[str, str]] = None,
    ) -> List[Tuple[str, list]]:
        # Scans stay O(total state size) against the database — the §5
        # pain point the blob design creates is not what this cache fixes.
        return self.inner.scan_query(service, xpath, namespaces)

    # -- D-3 database-operation counters (proxied) -------------------------------------

    @property
    def db(self) -> Any:
        return self.inner.db

    @property
    def loads(self) -> int:
        return self.inner.loads

    @property
    def saves(self) -> int:
        return self.inner.saves

    @property
    def scans(self) -> int:
        return self.inner.scans
