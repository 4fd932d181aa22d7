"""Miniature database layer.

WSRF.NET "implements WS-Resources using any ODBC compliant database";
state values are loaded from the database when a method is invoked and
saved back when it returns.  This package supplies that substrate:

- :mod:`repro.db.engine` — a tiny relational engine (typed columns,
  primary keys, secondary indexes, predicate queries);
- :mod:`repro.db.sql` — a small SQL dialect over the engine (SELECT /
  INSERT / UPDATE / DELETE with equality WHERE), standing in for ODBC;
- :mod:`repro.db.resource_store` — the blob-backed WS-Resource state
  store (state dicts serialized to XML bytes in a BLOB column), which
  reproduces §5's "binary, unstructured data ... makes it very difficult
  to query" behaviour;
- :mod:`repro.db.xmlstore` — the XML-database alternative the authors
  were "currently experimenting with" (Yukon): documents stay structured
  and are queryable with XPath.  Benchmark D-3 compares the two.
- :mod:`repro.db.cached_store` — the opt-in write-through cache the
  performance layer (``Testbed(perf=...)``) puts in front of the blob
  store; proven coherent against it in tests/test_perf_equivalence.py.

Every store backend exposes ``snapshot()`` / ``restore()`` in a shared
``{"service|resource_id": encoded-state-bytes}`` checkpoint format used
by the host crash-restart machinery (docs/durability.md).
"""

from repro.db.engine import Column, Database, DbError, Table
from repro.db.sql import SqlError, SqlResourceStore, execute_sql
from repro.db.resource_store import (
    BlobResourceStore,
    DecodeCache,
    NoSuchResource,
    ResourceStore,
    same_field,
)
# the exactness rule lives beside the grammar it describes
from repro.soap.types import SHARED_ON_READ, copy_field, read_copy
from repro.db.cached_store import CachedResourceStore
from repro.db.xmlstore import XmlResourceStore

__all__ = [
    "BlobResourceStore",
    "CachedResourceStore",
    "Column",
    "Database",
    "DbError",
    "DecodeCache",
    "NoSuchResource",
    "ResourceStore",
    "SHARED_ON_READ",
    "SqlError",
    "SqlResourceStore",
    "Table",
    "XmlResourceStore",
    "copy_field",
    "execute_sql",
    "read_copy",
    "same_field",
]
