"""Append-only relational persistence and the canonical trace text format.

A trace persists as rows of a node table: node id, session id, optional
parent pointer, timestamp, event type and an opaque payload. The stores are
append-only by design, and their one write is a batch of one session's
rows, kept in a `core.NodeTable` of plain rows (id bytes, integer
microseconds), the table a live session keeps. `append_rows` converts
object rows at the boundary; `append_trace`, the log decoder and the text
parser hand over plain rows. The store checks what is its own
(registered session, payload cap) and the table checks the batch, which is
admitted whole or not at all, so every per-session reconstruction is a
valid CTEG at all times, including after a crash that truncated the log.

`MemoryStore` keeps the tables in memory; `FileStore` is a `MemoryStore`
that also writes each checked change to a single-file append log before
admitting it. The file layout is a `CTEGSTORE1` magic header followed by
length-prefixed little-endian binary records, one per registration or
node row; a torn trailing record is cut off on open, and a file cut short
inside its header is a new log, while any complete but malformed or
inconsistent record is reported as corruption.

The text format serializes one trace bit-exactly: a `cteg/1 <session>`
header line, then one tab-separated row per node in temporal projection
order, with base64 payloads. Export is canonical, so byte equality of two
exports coincides with equality of the traces they encode (given equal
session ids). Import proves the parsed rows with a `NodeTable`, as
`load_session` does (see `import_trace`).
"""

from __future__ import annotations

import base64
import logging
import os
import struct
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from threading import RLock
from typing import Sequence

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
    TimestampOrderError,
    TypedTemporalGraph,
    UnknownParentError,
    _in_projection_order,
    _micros,
    _objects,
    _Plain,
    _plain_rows,
    graph_from_rows,
    graph_text,
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
    "MemoryStore",
    "FileStore",
    "OpenReport",
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

_logger = logging.getLogger("cteg")
if not _logger.handlers:
    _logger.addHandler(logging.NullHandler())  # the application decides what reaches stderr


class MemoryStore:
    """Append-only in-memory store: one node table per registered session.

    The interface deliberately offers no update or delete: the only ways to
    change a store are registering a session and appending a batch of node
    rows. A batch is checked whole, handed to the `_write` hook, then
    admitted whole; a batch that fails anywhere changes nothing.
    """

    def __init__(self, payload_cap: int = DEFAULT_PAYLOAD_CAP) -> None:
        self._payload_cap = payload_cap
        self._tables: dict[SessionId, NodeTable] = {}  # in registration order
        self._lock = RLock()

    def register_session(self, session_id: SessionId | None = None) -> SessionId:
        """Record a session id (minting a fresh one when none is given)."""
        with self._lock:
            sid = session_id if session_id is not None else SessionId.fresh()
            if sid in self._tables:
                raise DuplicateSessionError(f"session {sid.hex} is already registered")
            self._write(sid, None)
            self._tables[sid] = NodeTable()
            return sid

    def append_rows(self, session_id: SessionId, rows: Sequence[Row]) -> None:
        """Check a batch of one session's rows, write it, then admit it whole.

        Each row is (node, parent or None, timestamp, type, payload); a
        parent may come earlier in the batch, and every payload must be
        bytes that fit the cap.
        """
        self._append(session_id, _plain_rows(rows))

    def _append(self, session_id: SessionId, rows: Sequence[_Plain]) -> None:
        """`append_rows` of plain rows."""
        with self._lock:
            table = self._table(session_id)
            new = table.check(rows)  # payloads are bytes before the cap measures them
            cap = self._payload_cap
            big = next((len(p) for *_, p in rows if len(p) > cap), None)
            if big is not None:
                raise PayloadTooLargeError(f"payload of {big} bytes exceeds cap of {cap}")
            self._write(session_id, rows)
            table.admit(rows, new)

    def _write(self, session_id: SessionId, rows: Sequence[_Plain] | None) -> None:
        """Persist a checked registration (`rows` None) or batch before it is admitted; memory needs nothing."""

    def _table(self, session_id: SessionId) -> NodeTable:
        table = self._tables.get(session_id)
        if table is None:
            raise UnknownSessionError(f"session {session_id.hex} is not registered")
        return table

    def load_session(self, session_id: SessionId) -> Cteg:
        """Reconstruct the session's trace by pointer resolution."""
        with self._lock:
            table = self._table(session_id)
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
_U32 = struct.Struct("<I")
# Node record bodies up to the type name: kind, node, session, parent flag, [parent,] micros, type length.
_ROOT_HEAD = struct.Struct("<B16s16sBqH")
_CHILD_HEAD = struct.Struct("<B16s16sB16sqH")


def _encode_rows(session_id: SessionId, rows: Sequence[_Plain]) -> bytearray:
    """One v1 node record per plain row, concatenated."""
    out = bytearray()
    sid = session_id.value
    for node, parent, micros, event_type, payload in rows:
        name = event_type.name.encode("utf-8")
        if parent is None:
            head = _ROOT_HEAD.pack(_KIND_NODE, node, sid, 0, micros, len(name))
        else:
            head = _CHILD_HEAD.pack(_KIND_NODE, node, sid, 1, parent, micros, len(name))
        out += _U32.pack(len(head) + len(name) + 4 + len(payload))
        out += head
        out += name
        out += _U32.pack(len(payload))
        out += payload
    return out


@lru_cache(maxsize=256)
def _event_type(name: str) -> EventType:
    """Parsed and replayed rows share one checked `EventType` per name; a trace holds few of them."""
    return EventType(name)


def _decode_record(body: bytes) -> SessionId | tuple[bytes, _Plain]:
    """A session registration, or a plain node row with its session's raw id; any malformed body is corruption."""
    try:
        kind = body[0]
        if kind == _KIND_SESSION:
            if len(body) != 17:
                raise CorruptStoreError("session record has the wrong length")
            return SessionId(body[1:])
        if kind != _KIND_NODE:
            raise CorruptStoreError(f"unknown record kind {kind}")
        flag = body[33]  # after the kind, node id and session id
        if flag == 0:
            _, node, sid, _, micros, type_len = _ROOT_HEAD.unpack_from(body)
            parent, offset = None, _ROOT_HEAD.size
        elif flag == 1:
            _, node, sid, _, parent, micros, type_len = _CHILD_HEAD.unpack_from(body)
            offset = _CHILD_HEAD.size
        else:
            raise CorruptStoreError(f"bad parent flag {flag}")
        end = offset + type_len
        (payload_len,) = _U32.unpack_from(body, end)
        payload = body[end + 4 :]
        if len(payload) != payload_len:
            raise CorruptStoreError("node record length mismatch")
        return sid, (node, parent, micros, _event_type(body[offset:end].decode("utf-8")), payload)
    except (IndexError, ValueError, struct.error) as exc:
        raise CorruptStoreError(f"malformed record: {exc}") from exc


@dataclass(frozen=True)
class OpenReport:
    """What opening a `FileStore` found and did.

    `records` complete records were replayed into `sessions` sessions, and
    `torn_bytes` bytes of a torn trailing record were cut off. `new_log` is
    true when the file was missing or cut inside its header, so a fresh
    header was written and nothing was replayed.
    """

    records: int
    sessions: int
    torn_bytes: int
    new_log: bool


def _open_log(path: Path):
    """Unbuffered append handle on an existing log; raises OSError rather than create one."""
    return open(path, "ab", buffering=0, opener=lambda p, flags: os.open(p, flags & ~os.O_CREAT))


class FileStore(MemoryStore):
    """Single-file append log behind the in-memory store.

    Opening an existing file replays every complete record through the
    node-table check of an append, so a semantic violation surfaces as
    corruption named by record index and byte offset; a torn tail is cut
    off (and logged as a warning on the `cteg` logger), and `open_report`
    says what opening found. Replay admits every payload already in the log,
    whatever cap it was written under. A missing file, or one cut short
    inside its header, starts a new log. The store keeps one unbuffered
    append handle until `close` (or the end of a `with` block), and writes
    each batch with one `write` before admitting it, rolling back a failed
    or short write. An append never goes to a log that is no longer linked
    (removed, or renamed over): it reopens the path, failing if it is gone.
    """

    def __init__(self, path: str | Path, payload_cap: int = DEFAULT_PAYLOAD_CAP) -> None:
        super().__init__(payload_cap)
        self._path = Path(path)
        data = self._path.read_bytes() if self._path.exists() else b""
        if len(data) < len(_MAGIC) and _MAGIC.startswith(data):
            # A crash while the log was being created leaves it empty or cut in its header.
            self._path.write_bytes(_MAGIC)
            self._open_report = OpenReport(0, 0, 0, True)
        else:
            self._open_report = self._replay(data)
        self._log = _open_log(self._path)

    @property
    def open_report(self) -> OpenReport:
        """What opening the file found: records replayed, sessions, torn bytes cut, new log."""
        return self._open_report

    def _replay(self, data: bytes) -> OpenReport:
        if data[: len(_MAGIC)] != _MAGIC:
            raise CorruptStoreError("missing store magic header")
        tables = self._tables
        by_sid: dict[bytes, NodeTable] = {}
        index, offset = 0, len(_MAGIC)
        while offset + 4 <= len(data):
            end = offset + 4 + _U32.unpack_from(data, offset)[0]
            if end > len(data):
                break
            try:
                record = _decode_record(data[offset + 4 : end])
                if isinstance(record, SessionId):
                    if record in tables:
                        raise DuplicateSessionError(f"session {record.hex} is already registered")
                    tables[record] = by_sid[record.value] = NodeTable()
                else:
                    sid, row = record
                    (by_sid.get(sid) or self._table(SessionId(sid))).append((row,))
            except StoreError as exc:
                raise CorruptStoreError(f"record {index} at byte {offset}: {exc}") from exc
            index, offset = index + 1, end
        torn = len(data) - offset
        if torn:
            with open(self._path, "r+b") as fh:
                fh.truncate(offset)
            _logger.warning("store.torn_tail_cut path=%s offset=%d bytes=%d records=%d", self._path, offset, torn, index)
        return OpenReport(index, len(tables), torn, False)

    def _write(self, session_id: SessionId, rows: Sequence[_Plain] | None) -> None:
        if rows is None:
            blob = _U32.pack(17) + bytes([_KIND_SESSION]) + session_id.value
        else:
            blob = _encode_rows(session_id, rows)
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
    """Write a whole trace as one batch of rows, parents before children.

    The batch is the trace's own plain rows, whose projection order lists
    every parent first. It is admitted whole or not at all. The session
    must already be registered.
    """
    store._append(session_id, c._rows)


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
    for node, parent, micros, event_type, payload in c._rows:
        parent_field = parent.hex() if parent is not None else "-"
        payload_field = base64.b64encode(payload).decode("ascii")
        lines.append("\t".join((node.hex(), parent_field, str(micros), event_type.name, payload_field)))
    return ("\n".join(lines) + "\n").encode("utf-8")


def _parse_id(field: str, what: str, lineno: int) -> bytes:
    try:
        value = bytes.fromhex(field) if len(field) == 32 else b""
        if len(value) != 16:  # a wrong length, or whitespace, which `fromhex` skips
            raise ValueError("expected 32 hex characters")
        return value
    except ValueError as exc:
        raise TraceFormatError(f"bad {what} on line {lineno} {field!r}: {exc}") from exc


def _parse_rows(data: bytes) -> tuple[list[_Plain], set[bytes], SessionId]:
    """The text's plain node rows in file order, at least one, their ids and the session id; each line is checked on its own."""
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
    session = SessionId(_parse_id(header[len(_HEADER_PREFIX) :], "session id", 1))

    rows: list[_Plain] = []
    seen: set[bytes] = set()
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split("\t")
        if len(fields) != 5:
            raise TraceFormatError(f"line {lineno}: expected 5 tab-separated fields, got {len(fields)}")
        node_field, parent_field, ts_field, type_field, payload_field = fields
        node = _parse_id(node_field, "node id", lineno)
        if node in seen:
            raise TraceFormatError(f"line {lineno}: duplicate node id {node.hex()}")
        parent = None if parent_field == "-" else _parse_id(parent_field, "parent id", lineno)
        try:
            micros = _micros(int(ts_field))
            if str(micros) != ts_field:  # `int` also takes signs, spaces, underscores and leading zeros
                raise ValueError(f"{ts_field!r} is not in canonical form {str(micros)!r}")
        except ValueError as exc:
            raise TraceFormatError(f"line {lineno}: bad timestamp: {exc}") from exc
        try:
            event_type = _event_type(type_field)
        except ValueError as exc:
            raise TraceFormatError(f"line {lineno}: bad event type: {exc}") from exc
        try:
            payload = base64.b64decode(payload_field.encode("ascii"), validate=True)
        except (ValueError, UnicodeEncodeError) as exc:
            raise TraceFormatError(f"line {lineno}: bad base64 payload: {exc}") from exc
        seen.add(node)
        rows.append((node, parent, micros, event_type, payload))
    if not rows:
        raise TraceFormatError("trace has a header but no node rows")
    return rows, seen, session


def _graph_of(rows: list[_Plain], seen: set[bytes]) -> tuple[TypedTemporalGraph, ActionId]:
    """The plain rows' unvalidated graph and root candidate, once the rows can represent one."""
    roots = [node for node, parent, *_ in rows if parent is None]
    if not roots:
        raise TraceFormatError("trace has no parentless root row")
    for node, parent, *_ in rows:
        if parent is not None and parent not in seen:
            raise TraceFormatError(f"node {node.hex()} references unknown parent {parent.hex()}")
    try:
        graph = graph_from_rows(_objects(rows))
    except ValueError as exc:
        raise TraceFormatError(f"rows do not form a representable graph: {exc}") from exc
    return graph, ActionId(roots[0])


def parse_trace(data: bytes) -> tuple[TypedTemporalGraph, ActionId, SessionId]:
    """Parse trace text into an unvalidated graph, root candidate and session id.

    Parsing covers everything needed to *represent* the rows as a typed
    temporal graph; whether that graph is a well-formed CTEG is the
    validators' concern. The root candidate is the first parentless row.
    """
    rows, seen, session = _parse_rows(data)
    graph, root = _graph_of(rows, seen)
    return graph, root, session


def import_trace(data: bytes) -> tuple[Cteg, SessionId]:
    """Parse and prove trace text; the exact inverse of `export_trace`.

    The parsed rows, sorted into projection order, which lists each parent
    of a valid trace first, pass a fresh `NodeTable`'s row check, so valid
    text in any row order is accepted. Text the table rejects takes the
    reference path, only for the error: `parse_trace`'s representability
    checks, then the validating `Cteg(...)` with its diagnostics.

    Raises TraceFormatError on malformed text and ValidationFailedError when
    the rows parse but do not form a valid CTEG.
    """
    rows, seen, session = _parse_rows(data)
    ordered = _in_projection_order(rows)
    try:
        NodeTable().check(ordered)
    except StoreError as exc:
        rejected = exc
    else:
        return Cteg._proved(ordered), session
    graph, root = _graph_of(rows, seen)
    Cteg(graph, root)  # raises: a CTEG's sorted rows pass the table
    raise rejected
