"""A small SQL dialect over the engine — the "ODBC" face of the database.

Supported statements (enough for WSRF.NET-style state plumbing):

    CREATE TABLE t (col TYPE [PRIMARY KEY] [NOT NULL], ...)
    INSERT INTO t (a, b) VALUES (?, ?)
    SELECT a, b | * FROM t [WHERE col = ? [AND col2 = ?]]
    UPDATE t SET a = ? [, b = ?] [WHERE ...]
    DELETE FROM t [WHERE ...]

Values are always passed as ``?`` parameters (the ODBC style), which
sidesteps literal-quoting entirely and keeps the parser honest.
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Optional, Sequence

from repro.db.engine import Column, Database, DbError
from repro.db.resource_store import (
    NoSuchResource,
    ResourceStore,
    decode_state,
    encode_state,
)


class SqlError(DbError):
    """Malformed SQL or parameter-count mismatch."""


_IDENT = r"[A-Za-z_][A-Za-z_0-9]*"

_CREATE_RE = re.compile(
    rf"^\s*CREATE\s+TABLE\s+({_IDENT})\s*\((.*)\)\s*$", re.IGNORECASE | re.DOTALL
)
_INSERT_RE = re.compile(
    rf"^\s*INSERT\s+INTO\s+({_IDENT})\s*\(([^)]*)\)\s*VALUES\s*\(([^)]*)\)\s*$",
    re.IGNORECASE,
)
_SELECT_RE = re.compile(
    rf"^\s*SELECT\s+(.*?)\s+FROM\s+({_IDENT})(?:\s+WHERE\s+(.*))?\s*$",
    re.IGNORECASE | re.DOTALL,
)
_UPDATE_RE = re.compile(
    rf"^\s*UPDATE\s+({_IDENT})\s+SET\s+(.*?)(?:\s+WHERE\s+(.*))?\s*$",
    re.IGNORECASE | re.DOTALL,
)
_DELETE_RE = re.compile(
    rf"^\s*DELETE\s+FROM\s+({_IDENT})(?:\s+WHERE\s+(.*))?\s*$",
    re.IGNORECASE | re.DOTALL,
)


class _Params:
    def __init__(self, params: Sequence[Any]) -> None:
        self._params = list(params)
        self._used = 0

    def take(self) -> Any:
        if self._used >= len(self._params):
            raise SqlError("not enough parameters for the ?s in the statement")
        value = self._params[self._used]
        self._used += 1
        return value

    def finish(self) -> None:
        if self._used != len(self._params):
            raise SqlError(
                f"{len(self._params)} parameters supplied, {self._used} consumed"
            )


def _parse_where(clause: Optional[str], params: _Params) -> dict:
    if clause is None:
        return {}
    equals = {}
    for part in re.split(r"\s+AND\s+", clause.strip(), flags=re.IGNORECASE):
        m = re.match(rf"^\s*({_IDENT})\s*=\s*\?\s*$", part)
        if not m:
            raise SqlError(f"unsupported WHERE term {part!r} (only `col = ?`)")
        equals[m.group(1)] = params.take()
    return equals


def _parse_columns_def(body: str) -> List[Column]:
    columns = []
    for chunk in body.split(","):
        tokens = chunk.split()
        if len(tokens) < 2:
            raise SqlError(f"malformed column definition {chunk.strip()!r}")
        name, ctype = tokens[0], tokens[1].upper()
        rest = " ".join(tokens[2:]).upper()
        primary = "PRIMARY KEY" in rest
        not_null = "NOT NULL" in rest
        columns.append(
            Column(name, ctype, primary_key=primary, nullable=not not_null)
        )
    return columns


def execute_sql(db: Database, statement: str, params: Sequence[Any] = ()) -> Any:
    """Execute one statement; returns rows (SELECT) or an affected count."""
    bound = _Params(params)

    m = _CREATE_RE.match(statement)
    if m:
        bound.finish()
        db.create_table(m.group(1), _parse_columns_def(m.group(2)))
        return 0

    m = _INSERT_RE.match(statement)
    if m:
        table = db.table(m.group(1))
        names = [c.strip() for c in m.group(2).split(",") if c.strip()]
        slots = [s.strip() for s in m.group(3).split(",") if s.strip()]
        if any(s != "?" for s in slots):
            raise SqlError("INSERT values must all be ? parameters")
        if len(names) != len(slots):
            raise SqlError("column/value count mismatch in INSERT")
        row = {name: bound.take() for name in names}
        bound.finish()
        table.insert(row)
        return 1

    m = _SELECT_RE.match(statement)
    if m:
        cols_text, table_name, where_text = m.group(1), m.group(2), m.group(3)
        table = db.table(table_name)
        equals = _parse_where(where_text, bound)
        bound.finish()
        columns = (
            None
            if cols_text.strip() == "*"
            else [c.strip() for c in cols_text.split(",")]
        )
        return table.select(equals=equals or None, columns=columns)

    m = _UPDATE_RE.match(statement)
    if m:
        table = db.table(m.group(1))
        set_text, where_text = m.group(2), m.group(3)
        values = {}
        # SET consumes parameters before WHERE, matching textual order.
        for part in set_text.split(","):
            sm = re.match(rf"^\s*({_IDENT})\s*=\s*\?\s*$", part)
            if not sm:
                raise SqlError(f"unsupported SET term {part!r}")
            values[sm.group(1)] = bound.take()
        equals = _parse_where(where_text, bound)
        bound.finish()
        return table.update(values, equals=equals or None)

    m = _DELETE_RE.match(statement)
    if m:
        table = db.table(m.group(1))
        equals = _parse_where(m.group(2), bound)
        bound.finish()
        return table.delete(equals=equals or None)

    raise SqlError(f"unrecognized statement: {statement.strip()[:60]!r}")


class SqlResourceStore(ResourceStore):
    """WS-Resource state store speaking only SQL — the literal "ODBC
    compliant database" face of the paper's persistence model.

    Same schema and serialized-blob design as
    :class:`repro.db.resource_store.BlobResourceStore`, but every
    operation goes through :func:`execute_sql` statements with ``?``
    parameters instead of the engine's table API.  Interchangeable with
    the other backends (see ``tests/test_store_backends.py``), including
    the cross-backend ``snapshot()``/``restore()`` checkpoint format.
    """

    TABLE = "resources"

    def __init__(self, db: Optional[Database] = None) -> None:
        self.db = db or Database()
        if self.TABLE not in self.db.tables:
            execute_sql(
                self.db,
                f"CREATE TABLE {self.TABLE} ("
                "rid TEXT PRIMARY KEY, service TEXT NOT NULL, "
                "resource_id TEXT NOT NULL, state BLOB NOT NULL)",
            )
        #: operation counters matching the other backends
        self.loads = 0
        self.saves = 0
        self.scans = 0

    @staticmethod
    def _key(service: str, resource_id: str) -> str:
        return f"{service}|{resource_id}"

    def create(self, service: str, resource_id: str, state: Dict[Any, Any]) -> None:
        execute_sql(
            self.db,
            f"INSERT INTO {self.TABLE} (rid, service, resource_id, state) "
            "VALUES (?, ?, ?, ?)",
            [self._key(service, resource_id), service, resource_id,
             encode_state(state)],
        )
        self.saves += 1

    def exists(self, service: str, resource_id: str) -> bool:
        rows = execute_sql(
            self.db,
            f"SELECT rid FROM {self.TABLE} WHERE rid = ?",
            [self._key(service, resource_id)],
        )
        return bool(rows)

    def load(self, service: str, resource_id: str) -> Dict[Any, Any]:
        rows = execute_sql(
            self.db,
            f"SELECT state FROM {self.TABLE} WHERE rid = ?",
            [self._key(service, resource_id)],
        )
        if not rows:
            raise NoSuchResource(f"{service}/{resource_id}")
        self.loads += 1
        return decode_state(rows[0]["state"])

    def save(self, service: str, resource_id: str, state: Dict[Any, Any]) -> None:
        count = execute_sql(
            self.db,
            f"UPDATE {self.TABLE} SET state = ? WHERE rid = ?",
            [encode_state(state), self._key(service, resource_id)],
        )
        if count == 0:
            raise NoSuchResource(f"{service}/{resource_id}")
        self.saves += 1

    def destroy(self, service: str, resource_id: str) -> None:
        count = execute_sql(
            self.db,
            f"DELETE FROM {self.TABLE} WHERE rid = ?",
            [self._key(service, resource_id)],
        )
        if count == 0:
            raise NoSuchResource(f"{service}/{resource_id}")

    def list_ids(self, service: str) -> List[str]:
        rows = execute_sql(
            self.db,
            f"SELECT resource_id FROM {self.TABLE} WHERE service = ?",
            [service],
        )
        return sorted(row["resource_id"] for row in rows)

    def scan_query(
        self,
        service: str,
        xpath: str,
        namespaces: Optional[Dict[str, str]] = None,
    ) -> List[Any]:
        """Query every resource of *service* — deserializing each blob."""
        from repro.xmlx import parse, xpath_select

        self.scans += 1
        rows = execute_sql(
            self.db,
            f"SELECT resource_id, state FROM {self.TABLE} WHERE service = ?",
            [service],
        )
        out = []
        for row in rows:
            doc = parse(row["state"].decode("utf-8"))
            hits = xpath_select(doc, xpath, namespaces)
            if hits:
                out.append((row["resource_id"], hits))
        out.sort(key=lambda pair: pair[0])
        return out

    # -- checkpoint / restore ----------------------------------------------------------

    def snapshot(self) -> Dict[str, bytes]:
        """Checkpoint in the cross-backend ``{"service|rid": bytes}`` format."""
        rows = execute_sql(self.db, f"SELECT rid, state FROM {self.TABLE}")
        return {row["rid"]: bytes(row["state"]) for row in rows}

    def restore(self, snap: Dict[str, bytes]) -> None:
        """Replace the entire store contents with *snap*."""
        execute_sql(self.db, f"DELETE FROM {self.TABLE}")
        for rid in sorted(snap):
            service, _, resource_id = rid.partition("|")
            execute_sql(
                self.db,
                f"INSERT INTO {self.TABLE} (rid, service, resource_id, state) "
                "VALUES (?, ?, ?, ?)",
                [rid, service, resource_id, bytes(snap[rid])],
            )
