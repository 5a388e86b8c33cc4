"""The v2 store log: one checksummed record per registration or batch.

Covered claims:
    - a new log is `CTEGSTORE2`, and each registration and each batch is
      one record whose framing and batch columns are the documented ones:
      the logs written here match an encoder written from the README alone,
      and the store log of simulated traces matches its golden (in
      `test_canonical_order.py`)
    - the open report counts records (a batch is one), sessions and torn
      bytes; a torn tail is cut and logged once, a whole log logs nothing
    - a log cut at any byte reopens to exactly the whole batches before the
      cut, stays appendable, and each session's states are a history in
      E-infinity, also for scripts over several sessions with rejected
      batches, which write nothing
    - replay is a function of the log's bytes that writes nothing
    - a flipped byte anywhere after the magic, the length fields included,
      is corruption named by its record's index and offset, never a torn
      tail; so is a complete record the table rejects, and each logs one
      `store.corrupt_record` error on the `cteg` logger
    - so is a last record whose checksums hold but whose body is malformed
      (a column cut short, a length that overruns, a type index or name
      that does not decode) or whose length is below the 9-byte minimum;
      reopening it leaves the file's bytes as they were
    - when the rollback of a short write fails, the store fails closed: the
      write and every later one raise `StoreFailedError` naming the first
      fault, one `store.failed` error is logged, reads still work, and a
      copy of the log reopens to every acknowledged write, cutting the
      half record as a torn tail
"""

import errno
import io
import logging
import os
import struct
import zlib
from itertools import count
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cteg import Cteg, FileStore, SessionId, append_trace, is_member_e_infinity
from cteg import persistence
from cteg.core import graph_from_rows
from cteg.dynamics import ExecutionSequence
from cteg.persistence import CorruptStoreError, EmptySessionError, OpenReport, StoreError, StoreFailedError, _MAGIC, _replay
from util import aid, record_boundaries, ts, ty

MAGIC = b"CTEGSTORE2"


def sid(i: int) -> SessionId:
    return SessionId.from_int(i)


def row(node, parent, stamp, payload=b"", kind="evt"):
    """One node-table row: node, parent or None, timestamp, type, payload."""
    return (aid(node), aid(parent) if parent is not None else None, ts(stamp), ty(kind), payload)


def framed(body: bytes) -> bytes:
    """A v2 record as README describes it: u32 length of what follows, CRC-32 of the length, CRC-32 of the body."""
    size = struct.pack("<I", len(body) + 8)
    return size + struct.pack("<II", zlib.crc32(size), zlib.crc32(body)) + body


def registration(session: SessionId) -> bytes:
    return framed(b"\x01" + session.value)


def batch(session: SessionId, rows) -> bytes:
    """A v2 batch record as README describes it, type names listed in order of first use."""
    names = list(dict.fromkeys(r[3].name.encode() for r in rows))
    n = len(rows)
    body = struct.pack("<B16sIH", 2, session.value, n, len(names))
    body += struct.pack(f"<{len(names)}H", *map(len, names)) + b"".join(names)
    body += b"".join(r[0].value for r in rows)
    body += bytes(r[1] is not None for r in rows)
    body += b"".join(r[1].value for r in rows if r[1] is not None)
    body += struct.pack(f"<{n}q", *(r[2].micros for r in rows))
    body += struct.pack(f"<{n}H", *(names.index(r[3].name.encode()) for r in rows))
    body += struct.pack(f"<{n}I", *(len(r[4]) for r in rows)) + b"".join(r[4] for r in rows)
    return framed(body)


def two_session_log(path: Path) -> list:
    """Write a small v2 log: two sessions, three batches; return its records' writes in order."""
    writes = [
        ("register", sid(1)),
        ("append", sid(1), [row(10, None, 0, b"root", "task"), row(11, 10, 1, b"", "tool")]),
        ("register", sid(2)),
        ("append", sid(2), [row(20, None, 5)]),
        ("append", sid(1), [row(12, 11, 2, b"x"), row(13, 10, 3, b"yz", "task")]),
    ]
    with FileStore(path) as store:
        for op, session, *rows in writes:
            if op == "register":
                store.register_session(session)
            else:
                store.append_rows(session, rows[0])
    return writes


def expected_bytes(writes) -> bytes:
    return MAGIC + b"".join(registration(w[1]) if w[0] == "register" else batch(w[1], w[2]) for w in writes)


class TestFormat:
    def test_each_registration_and_batch_is_one_record_in_the_documented_layout(self, tmp_path):
        path = tmp_path / "log.cteg"
        writes = two_session_log(path)
        data = path.read_bytes()
        assert _MAGIC == MAGIC
        assert data == expected_bytes(writes)
        assert len(record_boundaries(data, len(MAGIC))) == len(writes) + 1

    def test_a_trace_is_one_record(self, tmp_path):
        path = tmp_path / "log.cteg"
        c = Cteg(graph_from_rows([row(1, None, 0), row(2, 1, 1, b"p", "tool"), row(3, 2, 2)]), aid(1))
        with FileStore(path) as store:
            store.register_session(sid(1))
            append_trace(store, sid(1), c)
        with FileStore(path) as reopened:
            assert reopened.open_report == OpenReport(records=2, sessions=1, torn_bytes=0, new_log=False)
            assert reopened.load_session(sid(1)) == c
        assert path.read_bytes() == MAGIC + registration(sid(1)) + batch(sid(1), [row(1, None, 0), row(2, 1, 1, b"p", "tool"), row(3, 2, 2)])

    def test_a_batch_of_more_types_than_a_record_holds_is_refused(self, tmp_path):
        path = tmp_path / "log.cteg"
        rows = [row(0, None, 0)] + [row(i, 0, 1, kind=f"t{i}") for i in range(1, 1 << 16)]  # 65536 type names
        with FileStore(path) as store:
            store.register_session(sid(1))
            size = path.stat().st_size
            with pytest.raises(StoreError, match="65536 type names exceeds the 65535"):
                store.append_rows(sid(1), rows)
            assert path.stat().st_size == size
            store.append_rows(sid(1), rows[:-1])
        with FileStore(path) as reopened:
            assert reopened.open_report == OpenReport(records=2, sessions=1, torn_bytes=0, new_log=False)


class TestOpenReport:
    def test_open_report_of_a_whole_log(self, tmp_path, caplog):
        path = tmp_path / "log.cteg"
        two_session_log(path)
        with caplog.at_level(logging.DEBUG, logger="cteg"), FileStore(path) as reopened:
            assert reopened.open_report == OpenReport(records=5, sessions=2, torn_bytes=0, new_log=False)
            assert [len(reopened.load_session(s).graph.nodes) for s in (sid(1), sid(2))] == [4, 1]
        assert caplog.records == []

    def test_open_report_of_a_log_cut_at_every_byte(self, tmp_path, caplog):
        path = tmp_path / "log.cteg"
        two_session_log(path)
        data = path.read_bytes()
        boundaries = record_boundaries(data, len(MAGIC))
        assert len(boundaries) == 6
        for cut in range(len(MAGIC), len(data) + 1):
            path.write_bytes(data[:cut])
            complete = [b for b in boundaries if b <= cut]
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="cteg"), FileStore(path) as reopened:
                report = reopened.open_report
            records, torn = len(complete) - 1, cut - complete[-1]
            sessions = 0 if records < 1 else 1 if records < 3 else 2
            assert report == OpenReport(records=records, sessions=sessions, torn_bytes=torn, new_log=False)
            assert path.read_bytes() == data[: complete[-1]]
            if torn:
                (event,) = caplog.records
                assert (event.name, event.levelno) == ("cteg", logging.WARNING)
                assert event.getMessage() == f"store.torn_tail_cut path={path} offset={complete[-1]} bytes={torn} records={records}"
            else:
                assert caplog.records == []


class TestCrashPrefixes:
    def test_store_stays_appendable_after_a_cut_at_any_byte(self, tmp_path):
        path = tmp_path / "log.cteg"
        two_session_log(path)
        data = path.read_bytes()
        boundaries = record_boundaries(data, len(MAGIC))
        for cut in range(0, len(data)):  # from inside the header on
            path.write_bytes(data[:cut])
            complete = sum(1 for b in boundaries if b <= cut) - 1  # records wholly before the cut
            with FileStore(path) as reopened:
                reopened.register_session(sid(3))
                reopened.append_rows(sid(3), [row(30, None, 5), row(31, 30, 6)])
            with FileStore(path) as again:
                expected = [s for s, k in ((sid(1), 1), (sid(2), 3)) if complete >= k]
                assert again.session_ids() == (*expected, sid(3)), f"cut at byte {cut}"
                kept = {aid(10), aid(11), aid(12), aid(13)} if complete == 5 else {aid(10), aid(11)}
                if complete >= 2:
                    assert again.load_session(sid(1)).graph.nodes == kept, f"cut at byte {cut}"
                if complete >= 4:
                    assert again.load_session(sid(2)).graph.nodes == {aid(20)}, f"cut at byte {cut}"
                assert again.load_session(sid(3)).graph.nodes == {aid(30), aid(31)}, f"cut at byte {cut}"

    def test_replay_is_a_function_of_the_bytes_that_writes_nothing(self, tmp_path, monkeypatch):
        path = tmp_path / "log.cteg"
        two_session_log(path)
        data = path.read_bytes()
        boundaries = record_boundaries(data, len(MAGIC))

        def refuse(*args, **kwargs):
            raise AssertionError("replay touched a file")

        for name in ("open", "write_bytes", "unlink", "truncate"):
            monkeypatch.setattr(Path, name, refuse, raising=False)
        monkeypatch.setattr(persistence, "open", refuse, raising=False)
        monkeypatch.setattr(persistence, "os", None)
        for cut in range(len(MAGIC), len(data) + 1):
            tables, records, end = _replay(io.BytesIO(data[:cut]))
            complete = [b for b in boundaries if b <= cut]
            assert (records, end) == (len(complete) - 1, complete[-1])
            assert list(tables) == [s for s, k in ((sid(1), 1), (sid(2), 3)) if records >= k]
            assert [len(t.rows) for t in tables.values()] == [[], [0], [2], [2, 0], [2, 1], [4, 1]][records]
        monkeypatch.undo()
        assert path.read_bytes() == data


class TestCorruption:
    @pytest.mark.parametrize(
        "record_index,edit,reason",
        [
            # body offsets: batch head 23, one u16 name length, a 3-byte name, then the columns
            (1, lambda body: body[:44] + b"\x07" + body[45:], "bad parent flag"),  # the root's parent flag
            # the two-row batch's first timestamp, after its ids, flags and parent ids
            (4, lambda body: body[:94] + (0).to_bytes(8, "little") + body[102:], "not above parent"),
            (2, lambda body: body[:1] + sid(1).value, "already registered"),  # the second session's id, made the first's
            (0, lambda body: b"\x09" + body[1:], "unknown record kind 9"),
            (3, lambda body: body[:1] + sid(7).value + body[17:], "is not registered"),  # a batch of an unknown session
            (3, lambda body: body + b"\x00", "length mismatch"),
        ],
        ids=["malformed", "inconsistent", "registered-twice", "unknown-kind", "unregistered", "long"],
    )
    def test_corruption_names_the_record_and_its_offset(self, tmp_path, caplog, record_index, edit, reason):
        path = tmp_path / "log.cteg"
        writes = [
            ("register", sid(1)),
            ("append", sid(1), [row(10, None, 5)]),
            ("register", sid(2)),
            ("append", sid(2), [row(20, None, 5)]),
            ("append", sid(1), [row(11, 10, 6), row(12, 10, 7)]),
        ]
        records = [registration(w[1]) if w[0] == "register" else batch(w[1], w[2]) for w in writes]
        start = len(MAGIC) + sum(map(len, records[:record_index]))
        records[record_index] = framed(edit(records[record_index][12:]))  # checksums that hold, so the decoder or the table must object
        path.write_bytes(MAGIC + b"".join(records))
        with caplog.at_level(logging.DEBUG, logger="cteg"), pytest.raises(CorruptStoreError, match=f"^record {record_index} at byte {start}: .*{reason}") as raised:
            FileStore(path)
        (event,) = caplog.records
        assert (event.name, event.levelno) == ("cteg", logging.ERROR)
        assert event.getMessage() == f"store.corrupt_record path={path} record={record_index} offset={start} reason={raised.value.reason}"
        assert (raised.value.record, raised.value.offset) == (record_index, start)

    def test_every_flipped_byte_is_corruption_of_its_record(self, tmp_path, caplog):
        path = tmp_path / "log.cteg"
        two_session_log(path)
        data = path.read_bytes()
        boundaries = record_boundaries(data, len(MAGIC))
        for at in range(len(MAGIC), len(data)):
            index = max(i for i, b in enumerate(boundaries) if b <= at)
            for mask in (0x01, 0x80, 0xFF):
                flipped = bytearray(data)
                flipped[at] ^= mask
                path.write_bytes(bytes(flipped))
                caplog.clear()
                with caplog.at_level(logging.DEBUG, logger="cteg"), pytest.raises(CorruptStoreError, match=f"^record {index} at byte {boundaries[index]}: "):
                    FileStore(path)
                assert path.read_bytes() == flipped, f"byte {at} flipped by {mask:#x}: the file changed"
                assert [(e.levelno, e.getMessage().split()[0]) for e in caplog.records] == [(logging.ERROR, "store.corrupt_record")]

    @pytest.mark.parametrize("field,reason", [(0, "length checksum"), (4, "length checksum"), (8, "body checksum"), (12, "body checksum")])
    def test_a_damaged_last_record_is_corruption_not_a_torn_tail(self, tmp_path, field, reason):
        path = tmp_path / "log.cteg"
        two_session_log(path)
        data = bytearray(path.read_bytes())
        last = record_boundaries(bytes(data), len(MAGIC))[-2]
        data[last + field] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptStoreError, match=f"^record 4 at byte {last}: {reason} mismatch"):
            FileStore(path)
        assert path.read_bytes() == data

    # body offsets of the batch below: head 23, one u16 name length, the 3-byte name "evt", node ids 28-60,
    # parent flags 60-62, one parent id 62-78, timestamps 78-94, type indices 94-98, payload lengths 98-106, payloads
    @pytest.mark.parametrize(
        "edit,reason",
        [
            (lambda body: body[:10], "malformed record"),
            (lambda body: body[:24], "malformed record"),
            (lambda body: body[:21] + struct.pack("<H", 5000) + body[23:], "malformed record"),
            (lambda body: body[:25] + b"\xff\xfe\xfd" + body[28:], "malformed record"),
            (lambda body: body[:40], "malformed record"),
            (lambda body: body[:70], "malformed record"),
            (lambda body: body[:85], "malformed record"),
            (lambda body: body[:96], "malformed record"),
            (lambda body: body[:94] + struct.pack("<H", 1) + body[96:], "malformed record"),
            (lambda body: body[:100], "malformed record"),
            (lambda body: body[:107], "length mismatch"),
            (lambda body: body[:102] + struct.pack("<I", 1000) + body[106:], "length mismatch"),
        ],
        ids=[
            "head-cut", "name-lengths-cut", "name-count-overruns", "name-not-utf8", "node-ids-cut", "parent-ids-cut",
            "timestamps-cut", "type-indices-cut", "type-index-past-the-names", "payload-lengths-cut", "payloads-cut",
            "payload-length-overruns",
        ],
    )
    def test_a_malformed_body_with_good_checksums_is_corruption_not_a_torn_tail(self, tmp_path, caplog, edit, reason):
        path = tmp_path / "log.cteg"
        body = batch(sid(1), [row(10, None, 5, b"ab"), row(11, 10, 6, b"c")])[12:]
        assert len(body) == 109
        data = MAGIC + registration(sid(1)) + framed(edit(body))  # the malformed batch is the last record
        path.write_bytes(data)
        start = len(MAGIC) + len(registration(sid(1)))
        with caplog.at_level(logging.DEBUG, logger="cteg"), pytest.raises(CorruptStoreError, match=f"^record 1 at byte {start}: .*{reason}") as raised:
            FileStore(path)
        assert (raised.value.record, raised.value.offset) == (1, start)
        assert path.read_bytes() == data
        assert [(e.levelno, e.getMessage().split()[0]) for e in caplog.records] == [(logging.ERROR, "store.corrupt_record")]

    @pytest.mark.parametrize("size", [0, 1, 8])
    @pytest.mark.parametrize("tail", [b"", bytes(4)], ids=["log-ends-after-the-length-checksum", "more-bytes-follow"])
    def test_a_checksummed_length_below_the_minimum_is_corruption(self, tmp_path, size, tail):
        path = tmp_path / "log.cteg"
        size_field = struct.pack("<I", size)
        data = MAGIC + registration(sid(1)) + size_field + struct.pack("<I", zlib.crc32(size_field)) + tail
        path.write_bytes(data)
        start = len(MAGIC) + len(registration(sid(1)))
        with pytest.raises(CorruptStoreError, match=f"^record 1 at byte {start}: record length {size} is below the 9-byte minimum$"):
            FileStore(path)
        assert path.read_bytes() == data

    def test_a_bad_magic_logs_nothing(self, tmp_path, caplog):
        path = tmp_path / "log.cteg"
        path.write_bytes(b"CTEGSTORE9" + registration(sid(1)))
        with caplog.at_level(logging.DEBUG, logger="cteg"), pytest.raises(CorruptStoreError, match="missing store magic header"):
            FileStore(path)
        assert caplog.records == []


class _HalfWrites:
    """An append handle that writes the first half of each blob and says so."""

    def __init__(self, raw) -> None:
        self.raw = raw

    def write(self, blob) -> int:
        return self.raw.write(blob[: len(blob) // 2])

    def fileno(self) -> int:
        return self.raw.fileno()


class TestFailedRollback:
    def test_a_store_whose_rollback_failed_refuses_writes_and_reopens_to_what_it_acknowledged(self, tmp_path, monkeypatch, caplog):
        path = tmp_path / "log.cteg"
        with FileStore(path) as store:
            store.register_session(sid(1))
            store.append_rows(sid(1), [row(10, None, 0), row(11, 10, 1)])
            store.register_session(sid(2))
            store.append_rows(sid(2), [row(20, None, 3)])
            acknowledged = path.read_bytes()

            def eio(fd, size):
                raise OSError(errno.EIO, "injected")

            monkeypatch.setattr(store, "_log", _HalfWrites(store._log))
            monkeypatch.setattr(os, "ftruncate", eio)
            with caplog.at_level(logging.DEBUG, logger="cteg"), pytest.raises(StoreFailedError, match=r"\[Errno 5\] injected") as first:
                store.append_rows(sid(1), [row(12, 11, 2, payload=b"x" * 64)])
            monkeypatch.undo()
            assert isinstance(first.value.__cause__, OSError)
            assert [(e.levelno, e.getMessage()) for e in caplog.records] == [
                (logging.ERROR, f"store.failed path={path} op=ftruncate errno={errno.EIO}")
            ]
            half = path.read_bytes()
            assert half.startswith(acknowledged) and len(half) > len(acknowledged)

            # every later write names the first fault and writes nothing; reads still work
            for write in (lambda: store.append_rows(sid(2), [row(21, 20, 4)]), lambda: store.register_session(sid(3))):
                with pytest.raises(StoreFailedError, match=r"\[Errno 5\] injected"):
                    write()
            assert path.read_bytes() == half
            assert store.session_ids() == (sid(1), sid(2))
            assert store.load_session(sid(1)).graph.nodes == {aid(10), aid(11)}

        copy = tmp_path / "copy.cteg"
        copy.write_bytes(half)
        with FileStore(copy) as reopened:
            assert reopened.open_report == OpenReport(4, 2, len(half) - len(acknowledged), False)
            assert reopened.load_session(sid(1)).graph.nodes == {aid(10), aid(11)}
            assert reopened.load_session(sid(2)).graph.nodes == {aid(20)}
        assert copy.read_bytes() == acknowledged


# ---------------------------------------------------------------------------
# Scripts of registrations and batches over several sessions


TYPES = ("task", "tool", "llm")
KINDS = ("emit", "invoke", "unknown-parent", "duplicate-node", "early", "second-root", "unregistered")
scripts = st.tuples(
    st.integers(min_value=1, max_value=3),
    st.lists(
        st.tuples(st.integers(0, 2), st.sampled_from(KINDS), st.integers(0, 2**16), st.integers(1, 3)),
        min_size=1,
        max_size=8,
    ),
)


def valid_batch(rows: list, kind: str, pick: int, size: int, fresh) -> list:
    """A batch that extends a session's rows by one emission or one invocation step (a root when empty)."""
    payload = bytes([pick % 256]) * (pick % 3)
    if not rows:
        return [(aid(next(fresh)), None, ts(pick % 5), ty(TYPES[pick % 3]), payload)]
    parent = rows[pick % len(rows)]
    out: list = []
    for j in range(size):
        # an emission hangs every row from one parent; an invocation grows a tree below its first row
        above = parent if kind != "invoke" or not out else out[(pick >> j) % len(out)]
        out.append((aid(next(fresh)), above[0], ts(above[2].micros + 1 + (pick + j) % 3), ty(TYPES[(pick + j) % 3]), payload))
    return out


def rejected_batch(rows: list, kind: str, good: list, fresh) -> tuple[SessionId | None, list]:
    """A batch the store must refuse, built from a good one; a session id when it goes elsewhere."""
    node, parent, stamp, event_type, payload = good[-1]
    if kind == "unregistered":
        return sid(99), good
    if kind == "second-root" and rows:
        return None, good + [(aid(next(fresh)), None, stamp, event_type, payload)]
    if kind == "duplicate-node" and rows:
        return None, good[:-1] + [(rows[0][0], parent, stamp, event_type, payload)]
    if kind == "early" and rows:
        micros = next(r[2] for r in rows + good if r[0] == parent)
        return None, good[:-1] + [(node, parent, micros, event_type, payload)]
    return None, good[:-1] + [(node, aid(next(fresh)), stamp, event_type, payload)]  # a parent nobody wrote


def run_script(path: Path, n_sessions: int, ops) -> list[tuple[SessionId, list]]:
    """Register the sessions, then run the script's batches; return the admitted batches in log order."""
    fresh = count(1000)
    sessions = [sid(i + 1) for i in range(n_sessions)]
    rows: dict[SessionId, list] = {s: [] for s in sessions}
    admitted = []
    with FileStore(path) as store:
        for s in sessions:
            store.register_session(s)
        for which, kind, pick, size in ops:
            s = sessions[which % n_sessions]
            good = valid_batch(rows[s], kind, pick, size, fresh)
            if kind in ("emit", "invoke"):
                store.append_rows(s, good)
                rows[s] += good
                admitted.append((s, good))
                continue
            elsewhere, bad = rejected_batch(rows[s], kind, good, fresh)
            size_before = path.stat().st_size
            with pytest.raises(StoreError):
                store.append_rows(elsewhere or s, bad)
            assert path.stat().st_size == size_before
    return admitted


@settings(max_examples=40, deadline=None)
@given(scripts)
def test_every_cut_of_a_script_reopens_to_its_whole_batches(tmp_path_factory, script):
    n_sessions, ops = script
    path = tmp_path_factory.mktemp("script") / "log.cteg"
    admitted = run_script(path, n_sessions, ops)
    sessions = [sid(i + 1) for i in range(n_sessions)]
    data = path.read_bytes()
    boundaries = record_boundaries(data, len(MAGIC))
    assert len(boundaries) == 1 + n_sessions + len(admitted)

    def states(records: int) -> dict[SessionId, list]:
        """Each registered session's states after the whole records, as row lists."""
        out = {s: [] for s in sessions[:records]}
        for s, rows in admitted[: max(0, records - n_sessions)]:
            out[s].append((out[s][-1] if out[s] else []) + rows)
        return out

    for records in range(len(boundaries)):  # each crash prefix is a history of every session
        for chain in states(records).values():
            if chain:
                history = ExecutionSequence(tuple(graph_from_rows(rows) for rows in chain))
                assert is_member_e_infinity(history).ok
    for cut in range(len(MAGIC), len(data) + 1):
        path.write_bytes(data[:cut])
        records = sum(1 for b in boundaries if b <= cut) - 1
        expected = states(records)
        with FileStore(path) as reopened:
            assert reopened.open_report.records == records
            assert reopened.session_ids() == tuple(expected)
            for s, chain in expected.items():
                if chain:
                    assert reopened.load_session(s) == Cteg(graph_from_rows(chain[-1]), chain[-1][0][0])
                else:
                    with pytest.raises(EmptySessionError):
                        reopened.load_session(s)
            reopened.register_session(sid(50))
            reopened.append_rows(sid(50), [row(50, None, 0)])
        tables, replayed, end = _replay(io.BytesIO(path.read_bytes()))
        assert (replayed, end) == (records + 2, len(path.read_bytes()))
        assert [len(t.rows) for t in tables.values()] == [len(c[-1]) if c else 0 for c in expected.values()] + [1]
