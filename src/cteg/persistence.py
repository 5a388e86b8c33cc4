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
admitting it. A new log is a `CTEGSTORE2` magic header, then one record
per registration or batch, framed by its length and two CRC-32s (length,
body), so a crash prefix holds whole batches only. A torn trailing record
is cut off on open, and a file cut short inside its header is a new log,
while a record that fails a checksum, or is malformed or inconsistent, is
corruption. `CTEGSTORE1` logs keep their unchecksummed one-record-per-row
format, so their crash prefixes may end inside a batch. Opening a store
replays its log from the file one record at a time, so it holds one
record beyond its tables, and each replayed or imported row whose parent
came earlier in its batch shares that parent's id bytes.

The text format serializes one trace bit-exactly: a `cteg/1 <session>`
header line, then one tab-separated row per node in temporal projection
order, with base64 payloads. Export is canonical: equal traces give equal
bytes. Only the types in use persist, so traces that differ only in
declared types no node uses export to the same bytes. Import proves the
parsed rows with a `NodeTable`, as `load_session` does (see `import_trace`).
"""

from __future__ import annotations

import base64
import io
import logging
import os
import struct
from binascii import crc32
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from threading import RLock
from typing import BinaryIO, Sequence

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
    _frozen,
    _in_projection_order,
    _micros,
    _objects,
    _Plain,
    _plain_rows,
    graph_from_rows,
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
    "StoreFailedError",
    "TraceFormatError",
    "DEFAULT_PAYLOAD_CAP",
    "MemoryStore",
    "FileStore",
    "OpenReport",
    "append_trace",
    "export_trace",
    "parse_trace",
    "import_trace",
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
    """The store's backing file is structurally or semantically inconsistent.

    Replay names the first bad record by its index `record` and byte `offset`, both None for a bad header.
    """

    def __init__(self, reason: str, record: int | None = None, offset: int | None = None) -> None:
        super().__init__(reason if record is None else f"record {record} at byte {offset}: {reason}")
        self.reason, self.record, self.offset = reason, record, offset


class StoreFailedError(StoreError):
    """A write to the log failed and could not be rolled back, so the store refuses every later write.

    The message names that first fault. Reads of what the store admitted
    still work, and the half-written record stays the last bytes of the
    log, where the next open cuts it as a torn tail.
    """


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


_MAGIC = b"CTEGSTORE2"  # what a new log begins with
_MAGIC_V1 = b"CTEGSTORE1"
_KIND_SESSION = 1
_KIND_NODE = 2  # v1: one node row; v2: one batch of rows
_U32 = struct.Struct("<I")
# v1 node record bodies up to the type name: kind, node, session, parent flag, [parent,] micros, type length.
_ROOT_HEAD = struct.Struct("<B16s16sBqH")
_CHILD_HEAD = struct.Struct("<B16s16sB16sqH")
# v2 records: length of what follows it, CRC-32 of the length field, CRC-32 of the body; then the body.
_FRAME = struct.Struct("<III")
# v2 batch bodies up to the type name lengths: kind, session, row count, type count.
_BATCH_HEAD = struct.Struct("<B16sIH")
_ID = struct.Struct("16s")
_I64 = struct.Struct("<q")
_U16 = struct.Struct("<H")


def _encode_v1(session_id: SessionId, rows: Sequence[_Plain] | None) -> bytes | bytearray:
    """A v1 registration record, or one v1 node record per plain row, concatenated."""
    if rows is None:
        return _U32.pack(17) + bytes([_KIND_SESSION]) + session_id.value
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


def _encode_v2(session_id: SessionId, rows: Sequence[_Plain] | None) -> bytes:
    """One framed v2 record: a registration, or a whole batch as columns with its type names once."""
    if rows is None:
        body = bytes([_KIND_SESSION]) + session_id.value
    else:
        index: dict[str, int] = {}
        kinds = [index.setdefault(event_type.name, len(index)) for _, _, _, event_type, _ in rows]
        if len(index) > 0xFFFF:
            raise StoreError(f"a batch of {len(index)} type names exceeds the 65535 a record holds")
        names = [name.encode("utf-8") for name in index]
        nodes, parents, micros, _, payloads = zip(*rows) if rows else ((),) * 5
        n = len(rows)
        body = b"".join((
            _BATCH_HEAD.pack(_KIND_NODE, session_id.value, n, len(names)), struct.pack(f"<{len(names)}H", *map(len, names)), *names,
            *nodes, bytes(parent is not None for parent in parents), *(parent for parent in parents if parent is not None),
            struct.pack(f"<{n}q", *micros), struct.pack(f"<{n}H", *kinds), struct.pack(f"<{n}I", *map(len, payloads)), *payloads,
        ))
    size = _U32.pack(len(body) + 8)
    return _FRAME.pack(len(body) + 8, crc32(size), crc32(body)) + body


@lru_cache(maxsize=256)
def _event_type(name: str) -> EventType:
    """Parsed and replayed rows share one checked `EventType` per name; a trace holds few of them."""
    return EventType(name)


def _decode_v1(body: bytes) -> SessionId | tuple[bytes, tuple[_Plain]]:
    """A session registration, or one plain node row with its session's raw id; any malformed body is corruption."""
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
        return sid, ((node, parent, micros, _event_type(body[offset:end].decode("utf-8")), payload),)
    except (IndexError, ValueError, struct.error) as exc:
        raise CorruptStoreError(f"malformed record: {exc}") from exc


def _decode_v2(body: bytes) -> SessionId | tuple[bytes, list[_Plain]]:
    """A session registration, or a batch of plain rows with its session's raw id; any malformed body is corruption.

    The rows are built in one pass over `memoryview` columns, and a parent
    earlier in the batch is the bytes object of its own row's node.
    """
    if body[0] != _KIND_NODE:
        return _decode_v1(body)  # a registration, or an unknown kind, reads as in v1
    try:
        _, sid, n, k = _BATCH_HEAD.unpack_from(body)
        at = _BATCH_HEAD.size + 2 * k
        types = []
        for size in struct.unpack_from(f"<{k}H", body, _BATCH_HEAD.size):
            types.append(_event_type(body[at : at + size].decode("utf-8")))
            at += size
        # Columns: node ids at `at`, parent flags at `flags`, parent ids, micros at `stamps`, type indices,
        # payload lengths at `sizes`, then the payloads from `start` to the end of the body.
        flags = at + 16 * n
        linked = body.count(1, flags, flags + n)
        stamps = flags + n + 16 * linked
        sizes = stamps + 10 * n
        start = sizes + 4 * n
        if start > len(body):  # also when the flags themselves overrun it
            raise ValueError(f"the columns of {n} rows overrun the {len(body)}-byte body")
        if linked + body.count(0, flags, flags + n) != n:
            raise CorruptStoreError("bad parent flag")
        view = memoryview(body)
        if start + sum(size for (size,) in _U32.iter_unpack(view[sizes:start])) != len(body):
            raise CorruptStoreError("batch record length mismatch")
        parents = _ID.iter_unpack(view[flags + n : stamps])
        own: dict[bytes, bytes] = {}
        rows: list[_Plain] = []
        for (node,), flag, (micros,), (kind,), (size,) in zip(
            _ID.iter_unpack(view[at:flags]),
            view[flags : flags + n],
            _I64.iter_unpack(view[stamps : stamps + 8 * n]),
            _U16.iter_unpack(view[stamps + 8 * n : sizes]),
            _U32.iter_unpack(view[sizes:start]),
        ):
            parent = None
            if flag:
                (parent,) = next(parents)
                parent = own.get(parent, parent)
            own[node] = node
            rows.append((node, parent, micros, types[kind], body[start : start + size]))
            start += size
        return sid, rows
    except (IndexError, ValueError, struct.error) as exc:
        raise CorruptStoreError(f"malformed record: {exc}") from exc


def _record_v1(stream: BinaryIO, offset: int, size: int) -> tuple[SessionId | tuple[bytes, tuple[_Plain]], int] | None:
    """The decoded v1 record at `offset` of a `size`-byte log and its end, or None when the log ends inside it."""
    if offset + 4 > size:
        return None
    end = offset + 4 + _U32.unpack(stream.read(4))[0]
    return (_decode_v1(stream.read(end - offset - 4)), end) if end <= size else None


def _record_v2(stream: BinaryIO, offset: int, size: int) -> tuple[SessionId | tuple[bytes, list[_Plain]], int] | None:
    """The decoded v2 record at `offset` of a `size`-byte log and its end, or None when the log ends inside it (a torn tail).

    Its length is trusted only once its checksum holds, and its body only
    once the body's does: a damaged length is corruption, never a torn tail.
    """
    if offset + 8 > size:
        return None
    length_field = stream.read(4)
    if crc32(length_field) != _U32.unpack(stream.read(4))[0]:
        raise CorruptStoreError("length checksum mismatch")
    (length,) = _U32.unpack(length_field)
    if length < 9:
        raise CorruptStoreError(f"record length {length} is below the 9-byte minimum")
    end = offset + 4 + length
    if end > size:
        return None
    (body_sum,) = _U32.unpack(stream.read(4))
    body = stream.read(length - 8)
    if crc32(body) != body_sum:
        raise CorruptStoreError("body checksum mismatch")
    return _decode_v2(body), end


def _replay(stream: BinaryIO) -> tuple[dict[SessionId, NodeTable], int, int]:
    """Replay a seekable binary log: its tables in registration order, its complete records, and where a torn tail starts.

    The stream is read from its start, one record at a time, and no read
    asks for more than the record it reads, so replay holds one record's
    body beyond the tables. The magic picks the record reader; the loop is
    the same for both versions. Every batch goes through its table's check,
    so a semantic violation is corruption too. Writes nothing; raises
    CorruptStoreError naming the first bad record by index and byte offset.
    """
    size = stream.seek(0, io.SEEK_END)
    stream.seek(0)
    read = {_MAGIC: _record_v2, _MAGIC_V1: _record_v1}.get(stream.read(len(_MAGIC)))
    if read is None:
        raise CorruptStoreError("missing store magic header")
    tables: dict[SessionId, NodeTable] = {}
    by_sid: dict[bytes, NodeTable] = {}
    index, offset = 0, len(_MAGIC)
    try:
        while (framed := read(stream, offset, size)) is not None:
            record, end = framed
            if isinstance(record, SessionId):
                if record in tables:
                    raise DuplicateSessionError(f"session {record.hex} is already registered")
                tables[record] = by_sid[record.value] = NodeTable()
            else:
                sid, rows = record
                table = by_sid.get(sid)
                if table is None:
                    raise UnknownSessionError(f"session {sid.hex()} is not registered")
                table.append(rows)
            index, offset = index + 1, end
    except StoreError as exc:
        raise CorruptStoreError(str(exc), index, offset) from exc
    return tables, index, offset


@_frozen
@dataclass(frozen=True, slots=True)
class OpenReport:
    """What opening a `FileStore` found and did.

    `records` complete records were replayed into `sessions` sessions, and
    `torn_bytes` bytes of a torn trailing record were cut off. A record is
    a registration or, in a v2 log, a whole batch; a v1 log holds one
    record per row. `new_log` is true when the file was missing or cut
    inside its header, so a fresh header was written and nothing was
    replayed.
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

    Opening an existing file reads it one record at a time, holding one
    record beyond the tables, and replays every complete record through the
    node-table check of an append, so a semantic violation surfaces as
    corruption named by record index and byte offset (and logged as an
    error on the `cteg` logger); a torn tail is cut off (and logged as a
    warning), and `open_report` says what opening found. Replay admits
    every payload already in the log, whatever cap it was written under. A
    missing file, or one cut short inside its header, starts a new v2 log;
    a v1 log keeps taking v1 records. The store keeps one unbuffered append
    handle until `close` (or the end of a `with` block), and writes each
    batch with one `write` before admitting it, rolling back a failed or
    short write; when the rollback itself fails, the store fails closed
    (`StoreFailedError`, logged as `store.failed`). An append never goes to
    a log that is no longer linked (removed, or renamed over): it reopens
    the path, failing if it is gone.
    """

    def __init__(self, path: str | Path, payload_cap: int = DEFAULT_PAYLOAD_CAP) -> None:
        super().__init__(payload_cap)
        self._path = Path(path)
        try:
            log = open(self._path, "rb")
        except FileNotFoundError:
            log = io.BytesIO()  # a missing log reads as an empty one
        with log:
            magic = log.read(len(_MAGIC))
            if len(magic) < len(_MAGIC) and _MAGIC.startswith(magic):
                # A crash while the log was being created leaves it empty or cut in its header.
                self._path.write_bytes(_MAGIC)
                self._open_report = OpenReport(0, 0, 0, True)
            else:
                try:
                    self._tables, records, end = _replay(log)
                except CorruptStoreError as exc:
                    if exc.record is not None:
                        _logger.error("store.corrupt_record path=%s record=%d offset=%d reason=%s", self._path, exc.record, exc.offset, exc.reason)
                    raise
                torn = os.fstat(log.fileno()).st_size - end
                if torn:
                    with open(self._path, "r+b") as fh:
                        fh.truncate(end)
                    _logger.warning("store.torn_tail_cut path=%s offset=%d bytes=%d records=%d", self._path, end, torn, records)
                self._open_report = OpenReport(records, len(self._tables), torn, False)
        self._encode = _encode_v1 if magic == _MAGIC_V1 else _encode_v2
        self._failed: str | None = None  # the first fault, once a rollback has failed
        self._log = _open_log(self._path)

    @property
    def open_report(self) -> OpenReport:
        """What opening the file found: records replayed, sessions, torn bytes cut, new log."""
        return self._open_report

    def _write(self, session_id: SessionId, rows: Sequence[_Plain] | None) -> None:
        if self._failed is not None:
            raise StoreFailedError(self._failed)
        blob = self._encode(session_id, rows)
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
            try:
                os.ftruncate(self._log.fileno(), held.st_size)
            except OSError as fault:
                # The log may now end inside a record: nothing written after it could be read back.
                self._failed = f"store {self._path} failed: rolling back a failed write raised {type(fault).__name__}: {fault}"
                _logger.error("store.failed path=%s op=ftruncate errno=%s", self._path, fault.errno)
                raise StoreFailedError(self._failed) from fault
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


def _parse_rows(data: bytes) -> tuple[list[_Plain], dict[bytes, bytes], SessionId]:
    """The text's plain node rows in file order, at least one, their ids and the session id; each line is checked on its own.

    The ids map each node id to its row's own bytes, so a row whose parent
    came earlier, as in canonical text, shares that object as its parent.
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
    session = SessionId(_parse_id(header[len(_HEADER_PREFIX) :], "session id", 1))

    rows: list[_Plain] = []
    seen: dict[bytes, bytes] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split("\t")
        if len(fields) != 5:
            raise TraceFormatError(f"line {lineno}: expected 5 tab-separated fields, got {len(fields)}")
        node_field, parent_field, ts_field, type_field, payload_field = fields
        node = _parse_id(node_field, "node id", lineno)
        if node in seen:
            raise TraceFormatError(f"line {lineno}: duplicate node id {node.hex()}")
        parent = None if parent_field == "-" else _parse_id(parent_field, "parent id", lineno)
        parent = seen.get(parent, parent)
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
        seen[node] = node
        rows.append((node, parent, micros, event_type, payload))
    if not rows:
        raise TraceFormatError("trace has a header but no node rows")
    return rows, seen, session


def _graph_of(rows: list[_Plain], seen: dict[bytes, bytes]) -> tuple[TypedTemporalGraph, ActionId]:
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
    """Parse and prove trace text; the inverse of `export_trace` up to unused types.

    The text holds no type set, so the trace declares the types in use. The
    parsed rows, sorted into projection order, which lists each parent of a
    valid trace first, pass a fresh `NodeTable`'s row check, so valid text
    in any row order is accepted. Text the table rejects runs
    `parse_trace`'s representability checks, then `Cteg(...)`, only to word
    the error.

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
