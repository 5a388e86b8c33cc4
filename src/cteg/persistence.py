"""Append-only relational persistence and the canonical trace text format.

A trace persists as rows of a node table: node id, session id, optional
parent pointer, timestamp, event type and an opaque payload. The stores are
append-only by design. Each session's rows live in a `core.NodeTable`, the
same table a live session keeps, so the store checks only what is its own
(registered session, payload cap) and the table checks the row (parent
already present, fresh id, strictly increasing timestamp, single root).
Every per-session reconstruction is thus a valid CTEG at all times,
including after a crash that truncated the log.

`MemoryStore` keeps the tables in memory; `FileStore` is a `MemoryStore`
that also writes each validated change to a single-file append log before
admitting it. The file layout is a `CTEGSTORE1` magic header followed by
length-prefixed little-endian binary records; a torn trailing record is
cut off on open, and a file cut short inside its header is a new log,
while any complete but inconsistent record is reported as corruption.

The text format serializes one trace bit-exactly: a `cteg/1 <session>`
header line, then one tab-separated row per node in temporal projection
order, with base64 payloads. Export is canonical, so byte equality of two
exports coincides with equality of the traces they encode (given equal
session ids).
"""

from __future__ import annotations

import base64
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from threading import RLock

from .core import (
    ActionId,
    Cteg,
    CtegError,
    DuplicateNodeError,
    DuplicateRootError,
    EventType,
    NodeTable,
    Row,
    StoreError,
    Timestamp,
    TimestampOrderError,
    TypedTemporalGraph,
    UnknownParentError,
    graph_from_rows,
    graph_text,
    projection_rows,
)
from .session import SessionId

__all__ = [
    "StoreError",
    "UnknownSessionError",
    "DuplicateSessionError",
    "UnknownParentError",
    "DuplicateNodeError",
    "DuplicateRootError",
    "TimestampOrderError",
    "PayloadTooLargeError",
    "EmptySessionError",
    "CorruptStoreError",
    "TraceFormatError",
    "DEFAULT_PAYLOAD_CAP",
    "NodeRecord",
    "MemoryStore",
    "FileStore",
    "append_trace",
    "export_trace",
    "parse_trace",
    "import_trace",
    "graph_text",
]


class UnknownSessionError(StoreError):
    """The session id is not registered in the store."""


class DuplicateSessionError(StoreError):
    """The session id is already registered."""


class PayloadTooLargeError(StoreError):
    """The row's payload exceeds the store's configured cap."""


class EmptySessionError(StoreError):
    """The session is registered but has no rows to reconstruct from."""


class CorruptStoreError(StoreError):
    """The store's backing file is structurally or semantically inconsistent."""


class TraceFormatError(CtegError):
    """The trace text cannot be parsed into a node table."""


DEFAULT_PAYLOAD_CAP = 1 << 20  # one MiB per payload


@dataclass(frozen=True)
class NodeRecord:
    """One row of the append-only node table."""

    node_id: ActionId
    session_id: SessionId
    parent_id: ActionId | None
    timestamp: Timestamp
    event_type: EventType
    payload: bytes = b""


# A validated row: its session's table, the row as a batch and the batch's `{node: ts}`.
_Checked = tuple[NodeTable, tuple[Row], dict[ActionId, Timestamp]]


class MemoryStore:
    """Append-only in-memory store: one node table per registered session.

    The interface deliberately offers no update or delete: the only ways to
    change a store are registering a session and appending a node row. Each
    change is validated, handed to the `_write` hook, then admitted.
    """

    def __init__(self, payload_cap: int = DEFAULT_PAYLOAD_CAP) -> None:
        self._payload_cap = payload_cap
        self._tables: dict[SessionId, NodeTable] = {}  # in registration order
        self._lock = RLock()

    def register_session(self, session_id: SessionId | None = None) -> SessionId:
        """Record a session id (minting a fresh one when none is given)."""
        with self._lock:
            sid = session_id if session_id is not None else SessionId.fresh()
            self._append(sid)
            return sid

    def append_node(self, rec: NodeRecord) -> None:
        """Validate and append one node row; its payload must fit the cap."""
        with self._lock:
            cap = self._payload_cap
            if len(rec.payload) > cap:
                raise PayloadTooLargeError(f"payload of {len(rec.payload)} bytes exceeds cap of {cap}")
            self._append(rec)

    def _append(self, rec: SessionId | NodeRecord) -> None:
        checked = self._validate(rec)
        self._write(rec)
        self._admit(rec, checked)

    def _validate(self, rec: SessionId | NodeRecord) -> _Checked | None:
        if isinstance(rec, SessionId):
            if rec in self._tables:
                raise DuplicateSessionError(f"session {rec.hex} is already registered")
            return None
        table = self._tables.get(rec.session_id)
        if table is None:
            raise UnknownSessionError(f"session {rec.session_id.hex} is not registered")
        rows = ((rec.node_id, rec.parent_id, rec.timestamp, rec.event_type, rec.payload),)
        return table, rows, table.check(rows)

    def _write(self, rec: SessionId | NodeRecord) -> None:
        """Persist a validated change before it is admitted; memory needs nothing."""

    def _admit(self, rec: SessionId | NodeRecord, checked: _Checked | None) -> None:
        if checked is None:
            self._tables[rec] = NodeTable()
        else:
            table, rows, new = checked
            table.admit(rows, new)

    def load_session(self, session_id: SessionId) -> Cteg:
        """Reconstruct the session's trace by pointer resolution."""
        with self._lock:
            table = self._tables.get(session_id)
            if table is None:
                raise UnknownSessionError(f"session {session_id.hex} is not registered")
            if not table.rows:
                raise EmptySessionError(f"session {session_id.hex} has no rows")
            return table.to_cteg()

    def session_ids(self) -> tuple[SessionId, ...]:
        """All registered session ids, in registration order."""
        with self._lock:
            return tuple(self._tables)


# ---------------------------------------------------------------------------
# File-backed store


_MAGIC = b"CTEGSTORE1"
_KIND_SESSION = 1
_KIND_NODE = 2


def _encode_record(rec: SessionId | NodeRecord) -> bytes:
    if isinstance(rec, SessionId):
        body = bytes([_KIND_SESSION]) + rec.value
    else:
        name = rec.event_type.name.encode("utf-8")
        parent = b"\x01" + rec.parent_id.value if rec.parent_id is not None else b"\x00"
        ids = bytes([_KIND_NODE]) + rec.node_id.value + rec.session_id.value + parent
        sizes = struct.pack("<qH", rec.timestamp.micros, len(name))
        body = b"".join((ids, sizes, name, struct.pack("<I", len(rec.payload)), rec.payload))
    return struct.pack("<I", len(body)) + body


def _decode_record(body: bytes) -> SessionId | NodeRecord:
    if not body:
        raise CorruptStoreError("empty record body")
    kind = body[0]
    view = memoryview(body)[1:]
    if kind == _KIND_SESSION:
        if len(view) != 16:
            raise CorruptStoreError("session record has the wrong length")
        return SessionId(bytes(view))
    if kind != _KIND_NODE:
        raise CorruptStoreError(f"unknown record kind {kind}")
    try:
        node_id = ActionId(bytes(view[:16]))
        session_id = SessionId(bytes(view[16:32]))
        offset = 32
        flag = view[offset]
        offset += 1
        parent: ActionId | None = None
        if flag == 1:
            parent = ActionId(bytes(view[offset : offset + 16]))
            offset += 16
        elif flag != 0:
            raise CorruptStoreError(f"bad parent flag {flag}")
        (micros,) = struct.unpack_from("<q", view, offset)
        offset += 8
        (type_len,) = struct.unpack_from("<H", view, offset)
        offset += 2
        type_name = bytes(view[offset : offset + type_len]).decode("utf-8")
        if len(type_name.encode("utf-8")) != type_len:
            raise CorruptStoreError("truncated event type")
        offset += type_len
        (payload_len,) = struct.unpack_from("<I", view, offset)
        offset += 4
        payload = bytes(view[offset : offset + payload_len])
        if len(payload) != payload_len or offset + payload_len != len(view):
            raise CorruptStoreError("node record length mismatch")
        return NodeRecord(
            node_id=node_id,
            session_id=session_id,
            parent_id=parent,
            timestamp=Timestamp(micros),
            event_type=EventType(type_name),
            payload=payload,
        )
    except CorruptStoreError:
        raise
    except (ValueError, struct.error) as exc:
        raise CorruptStoreError(f"malformed node record: {exc}") from exc


def _iter_complete_records(data: bytes, offset: int):
    """Yield each record from `offset` on with the offset just past it; stop at a torn tail."""
    while offset + 4 <= len(data):
        (length,) = struct.unpack_from("<I", data, offset)
        end = offset + 4 + length
        if end > len(data):
            return
        yield _decode_record(data[offset + 4 : end]), end
        offset = end


def _open_log(path: Path):
    """Unbuffered append handle on an existing log; raises OSError rather than create one."""
    return open(path, "ab", buffering=0, opener=lambda p, flags: os.open(p, flags & ~os.O_CREAT))


class FileStore(MemoryStore):
    """Single-file append log behind the in-memory store.

    Opening an existing file replays and re-validates every complete record;
    semantic violations (which cannot be produced through this interface)
    therefore surface as corruption, and a torn tail is cut off. The payload
    cap governs new appends only: replay admits every payload already in the
    log, whatever cap it was written under. A missing file, or one cut short
    inside its header, starts a new log. The store then keeps one unbuffered
    append handle until `close` (or the end of a `with` block). Each record
    is written before the store admits it; a failed or short write is rolled
    back. An append never goes to a log that is no longer linked (removed,
    or replaced by a rename over it): it reopens the path, and fails while
    no file is there.
    """

    def __init__(self, path: str | Path, payload_cap: int = DEFAULT_PAYLOAD_CAP) -> None:
        super().__init__(payload_cap)
        self._path = Path(path)
        data = self._path.read_bytes() if self._path.exists() else b""
        if len(data) < len(_MAGIC) and _MAGIC.startswith(data):
            # A crash while the log was being created leaves it empty or cut in its header.
            self._path.write_bytes(_MAGIC)
        else:
            self._replay(data)
        self._log = _open_log(self._path)

    def _replay(self, data: bytes) -> None:
        if data[: len(_MAGIC)] != _MAGIC:
            raise CorruptStoreError("missing store magic header")
        end = len(_MAGIC)
        try:
            for record, end in _iter_complete_records(data, end):
                self._admit(record, self._validate(record))
        except StoreError as exc:
            raise CorruptStoreError(f"replay failed: {exc}") from exc
        if end < len(data):
            with open(self._path, "r+b") as fh:
                fh.truncate(end)

    def _write(self, rec: SessionId | NodeRecord) -> None:
        blob = _encode_record(rec)
        held = os.fstat(self._log.fileno())
        if held.st_nlink == 0:
            # The log is no longer linked: an append to it would be lost on reopen.
            log = _open_log(self._path)
            self._log.close()
            self._log, held = log, os.fstat(log.fileno())
        try:
            if self._log.write(blob) != len(blob):
                raise OSError(f"short write to {self._path}")
        except OSError:
            # A partial record would swallow the next append on reopen.
            os.ftruncate(self._log.fileno(), held.st_size)
            raise

    def close(self) -> None:
        """Close the append handle; the store still answers reads, but refuses appends."""
        with self._lock:
            self._log.close()

    def __enter__(self) -> "FileStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def append_trace(store: MemoryStore, session_id: SessionId, c: Cteg) -> None:
    """Write a whole trace as rows, parents before children.

    Temporal projection order guarantees every parent row precedes its
    children, so the rows pass the store's incremental checks. The session
    must already be registered.
    """
    for node, parent, ts, event_type, payload in projection_rows(c):
        store.append_node(NodeRecord(node, session_id, parent, ts, event_type, payload))


# ---------------------------------------------------------------------------
# Canonical trace text format


_HEADER_PREFIX = "cteg/1 "


def export_trace(c: Cteg, session: SessionId) -> bytes:
    """Canonical line-delimited text for one trace.

    Header `cteg/1 <session-hex>`, then one row per node in temporal
    projection order: node id, parent id (or `-`), timestamp in
    microseconds, event type, base64 payload, tab-separated. Exporting
    equal traces yields identical bytes.
    """
    lines = [_HEADER_PREFIX + session.hex]
    for node, parent, ts, event_type, payload in projection_rows(c):
        parent_field = parent.hex if parent is not None else "-"
        payload_field = base64.b64encode(payload).decode("ascii")
        lines.append("\t".join((node.hex, parent_field, str(ts.micros), event_type.name, payload_field)))
    return ("\n".join(lines) + "\n").encode("utf-8")


def _parse_id(field: str, what: str) -> ActionId:
    try:
        if len(field) != 32:
            raise ValueError("expected 32 hex characters")
        return ActionId.from_hex(field)
    except ValueError as exc:
        raise TraceFormatError(f"bad {what} {field!r}: {exc}") from exc


def parse_trace(data: bytes) -> tuple[TypedTemporalGraph, ActionId, SessionId]:
    """Parse trace text into an unvalidated graph, root candidate and session id.

    Parsing covers everything needed to *represent* the rows as a typed
    temporal graph; whether that graph is a well-formed CTEG is the
    validators' concern. The root candidate is the first parentless row.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TraceFormatError(f"trace is not valid UTF-8: {exc}") from exc
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise TraceFormatError("empty trace file")
    header = lines[0]
    if not header.startswith(_HEADER_PREFIX):
        raise TraceFormatError(f"bad header line {header!r}")
    try:
        session = SessionId.from_hex(header[len(_HEADER_PREFIX) :])
    except ValueError as exc:
        raise TraceFormatError(f"bad session id in header: {exc}") from exc

    rows: list[Row] = []
    seen: set[ActionId] = set()
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split("\t")
        if len(fields) != 5:
            raise TraceFormatError(f"line {lineno}: expected 5 tab-separated fields, got {len(fields)}")
        node_field, parent_field, ts_field, type_field, payload_field = fields
        node = _parse_id(node_field, f"node id on line {lineno}")
        if node in seen:
            raise TraceFormatError(f"line {lineno}: duplicate node id {node.hex}")
        parent = None if parent_field == "-" else _parse_id(parent_field, f"parent id on line {lineno}")
        try:
            ts = Timestamp(int(ts_field))
        except ValueError as exc:
            raise TraceFormatError(f"line {lineno}: bad timestamp: {exc}") from exc
        try:
            event_type = EventType(type_field)
        except ValueError as exc:
            raise TraceFormatError(f"line {lineno}: bad event type: {exc}") from exc
        try:
            payload = base64.b64decode(payload_field.encode("ascii"), validate=True)
        except (ValueError, UnicodeEncodeError) as exc:
            raise TraceFormatError(f"line {lineno}: bad base64 payload: {exc}") from exc
        seen.add(node)
        rows.append((node, parent, ts, event_type, payload))

    if not rows:
        raise TraceFormatError("trace has a header but no node rows")
    roots = [node for node, parent, *_ in rows if parent is None]
    if not roots:
        raise TraceFormatError("trace has no parentless root row")
    for node, parent, *_ in rows:
        if parent is not None and parent not in seen:
            raise TraceFormatError(f"node {node.hex} references unknown parent {parent.hex}")
    try:
        graph = graph_from_rows(rows)
    except ValueError as exc:
        raise TraceFormatError(f"rows do not form a representable graph: {exc}") from exc
    return graph, roots[0], session


def import_trace(data: bytes) -> tuple[Cteg, SessionId]:
    """Parse and validate trace text; the exact inverse of `export_trace`.

    Raises TraceFormatError on malformed text and ValidationFailedError when
    the rows parse but do not form a valid CTEG.
    """
    graph, root, session = parse_trace(data)
    return Cteg(graph, root), session
