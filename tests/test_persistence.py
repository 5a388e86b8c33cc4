"""Unit tests for the append-only stores and the canonical trace format.

Covered claims:
    - both stores enforce registration, parent-before-child order, strict
      timestamps, single roots and unique node ids at append time, and
      reject a timestamp, type or payload of the wrong class with
      TypeError; the file store then writes nothing
    - reconstruction by pointer resolution is the exact inverse of writing
    - the file store replays its log on open, rejects semantic corruption,
      cuts off a torn trailing record, and every record-boundary prefix of
      the log still reconstructs valid traces
    - the file store stays appendable after a cut at any byte, and a write
      that fails, wholly or part-way, leaves nothing admitted or stored
    - the file store appends through one handle, and once closed it
      refuses appends but still answers reads
    - the file store's open report counts the records replayed, the
      sessions and the torn bytes cut, and says when a new log was started;
      a torn-tail cut, and only that, logs one warning on the `cteg` logger
    - every malformed complete record, however short, is corruption, and
      corruption names the record's index and byte offset
    - `append_trace` is one checked write, admitted whole or not at all,
      and it writes the bytes that row-by-row appends of the same rows write
    - every store error is a StoreError importable from the persistence
      module, and the row errors are also the session's error classes
    - the trace text format is canonical: export is deterministic, import
      inverts it bit-exactly, and malformed text is reported line by line

The tests that read a log's bytes start it as a `CTEGSTORE1` log, which
keeps its v1 records; `test_store_v2.py` has their twins for new logs.
"""

import logging
import random
import struct
import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cteg import (
    CompatibilityError,
    Cteg,
    DisjointnessError,
    FileStore,
    MemoryStore,
    SessionId,
    TraceFormatError,
    TypedTemporalGraph,
    UnknownNodeError,
    ValidationFailedError,
    append_trace,
    export_trace,
    graph_text,
    import_trace,
    parse_trace,
    validate_cteg,
)
from cteg import persistence
from cteg.persistence import (
    CorruptStoreError,
    DuplicateNodeError,
    DuplicateRootError,
    DuplicateSessionError,
    EmptySessionError,
    OpenReport,
    PayloadTooLargeError,
    StoreError,
    TimestampOrderError,
    UnknownParentError,
    UnknownSessionError,
    _MAGIC,
    _MAGIC_V1,
)
from util import aid, cteg, ctegs, hexid, random_cteg, record_boundaries, ts, ty


@pytest.fixture(params=["memory", "file"])
def store(request, tmp_path):
    if request.param == "memory":
        yield MemoryStore()
    else:
        with FileStore(tmp_path / "log.cteg") as file_store:
            yield file_store


def sid(i: int) -> SessionId:
    return SessionId.from_int(i)


def row(node, parent, stamp, payload=b""):
    """One node-table row: node, parent or None, timestamp, type, payload."""
    return (aid(node), aid(parent) if parent is not None else None, ts(stamp), ty("evt"), payload)


FIELDS = {"timestamp": 2, "event_type": 3}


def foreign(good, field):
    """The row with its timestamp or type replaced by a plain int or str."""
    i = FIELDS[field]
    return good[:i] + (5 if field == "timestamp" else "evt",) + good[i + 1 :]


class TestRegistry:
    def test_two_registrations_are_distinct(self, store):
        assert store.register_session() != store.register_session()

    def test_registry_lists_sessions_in_order(self, store):
        a = store.register_session(sid(1))
        b = store.register_session(sid(2))
        assert store.session_ids() == (a, b)

    def test_duplicate_registration_rejected(self, store):
        store.register_session(sid(1))
        with pytest.raises(DuplicateSessionError):
            store.register_session(sid(1))

    def test_uniqueness_sweep(self, store):
        drawn = {store.register_session() for _ in range(500)}
        assert len(drawn) == 500


class TestAppend:
    def test_root_then_child(self, store):
        store.register_session(sid(1))
        store.append_rows(sid(1), [row(10, None, 0)])
        store.append_rows(sid(1), [row(11, 10, 1)])

    def test_child_before_parent_rejected(self, store):
        store.register_session(sid(1))
        with pytest.raises(UnknownParentError):
            store.append_rows(sid(1), [row(11, 10, 1)])

    def test_second_root_rejected(self, store):
        store.register_session(sid(1))
        store.append_rows(sid(1), [row(10, None, 0)])
        with pytest.raises(DuplicateRootError):
            store.append_rows(sid(1), [row(11, None, 1)])

    def test_duplicate_node_rejected(self, store):
        store.register_session(sid(1))
        store.append_rows(sid(1), [row(10, None, 0)])
        with pytest.raises(DuplicateNodeError):
            store.append_rows(sid(1), [row(10, None, 5)])

    def test_timestamp_must_strictly_increase(self, store):
        store.register_session(sid(1))
        store.append_rows(sid(1), [row(10, None, 5)])
        with pytest.raises(TimestampOrderError):
            store.append_rows(sid(1), [row(11, 10, 5)])

    def test_unknown_session_rejected(self, store):
        with pytest.raises(UnknownSessionError):
            store.append_rows(sid(9), [row(10, None, 0)])

    @pytest.mark.parametrize("payload", [bytearray(b"ab"), "ab", None, 5])
    def test_payload_that_is_not_bytes_rejected(self, store, payload):
        s = store.register_session(sid(1))
        with pytest.raises(TypeError, match="must be bytes"):
            store.append_rows(s, [row(1, None, 0, payload)])
        store.append_rows(s, [row(1, None, 0, b"ab")])
        assert store.load_session(s).graph.payloads == {aid(1): b"ab"}

    @pytest.mark.parametrize("field", ["timestamp", "event_type"])
    def test_timestamp_or_type_that_is_not_ours_rejected(self, store, field):
        s = store.register_session(sid(1))
        good = row(1, None, 5)
        with pytest.raises(TypeError, match="must be an? (Timestamp|EventType), not (int|str)"):
            store.append_rows(s, [foreign(good, field)])
        store.append_rows(s, [good])
        assert store.load_session(s).graph.t == {aid(1): ts(5)}

    @pytest.mark.parametrize("field", ["timestamp", "event_type"])
    def test_file_store_writes_nothing_for_a_foreign_timestamp_or_type(self, tmp_path, field):
        path = tmp_path / "log.cteg"
        with FileStore(path) as store:
            s = store.register_session(sid(1))
            size = path.stat().st_size
            good = row(1, None, 5)
            with pytest.raises(TypeError):
                store.append_rows(s, [foreign(good, field)])
            assert path.stat().st_size == size
            store.append_rows(s, [good])
        with FileStore(path) as reopened:
            assert reopened.load_session(s).graph.t == {aid(1): ts(5)}

    def test_payload_cap_enforced(self, tmp_path):
        small = MemoryStore(payload_cap=4)
        small.register_session(sid(1))
        with pytest.raises(PayloadTooLargeError):
            small.append_rows(sid(1), [row(10, None, 0, payload=b"12345")])


class TestErrorClasses:
    def test_every_store_error_is_a_store_error(self):
        names = [name for name in persistence.__all__ if name.endswith("Error") and name != "TraceFormatError"]
        assert len(names) == 11
        for name in names:
            assert issubclass(getattr(persistence, name), StoreError), name

    def test_row_errors_are_also_the_session_error_classes(self):
        assert issubclass(UnknownParentError, UnknownNodeError)
        assert issubclass(DuplicateNodeError, DisjointnessError)
        assert issubclass(TimestampOrderError, CompatibilityError)


class TestLoad:
    @pytest.mark.parametrize("seed", range(5))
    def test_round_trip_of_a_random_trace(self, store, seed):
        c = random_cteg(random.Random(seed), 30)
        session = store.register_session()
        append_trace(store, session, c)
        assert store.load_session(session) == c

    def test_unknown_session(self, store):
        with pytest.raises(UnknownSessionError):
            store.load_session(sid(404))

    def test_empty_session(self, store):
        session = store.register_session()
        with pytest.raises(EmptySessionError):
            store.load_session(session)

    def test_concurrent_appenders_from_distinct_sessions(self, store):
        import threading

        rng = random.Random(7)
        traces = {store.register_session(): random_cteg(rng, 20) for _ in range(4)}

        def writer(session, c):
            append_trace(store, session, c)

        threads = [threading.Thread(target=writer, args=item) for item in traces.items()]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for session, c in traces.items():
            assert store.load_session(session) == c

    def test_interleaved_sessions_reconstruct_independently(self, store):
        rng = random.Random(42)
        traces = {store.register_session(): random_cteg(rng, 12) for _ in range(3)}
        queues = {
            session: [
                (n, c.parent_map().get(n), c.graph.t[n], c.graph.tau[n], c.graph.payloads[n])
                for n in sorted(c.graph.nodes, key=lambda n: (c.graph.t[n], n))
            ]
            for session, c in traces.items()
        }
        while any(queues.values()):
            session = rng.choice([s for s, q in queues.items() if q])
            store.append_rows(session, [queues[session].pop(0)])
        for session, c in traces.items():
            assert store.load_session(session) == c


class TestFileStore:
    def test_reopen_restores_state(self, tmp_path):
        path = tmp_path / "log.cteg"
        with FileStore(path) as first:
            session = first.register_session(sid(1))
            c = random_cteg(random.Random(1), 10)
            append_trace(first, session, c)
        with FileStore(path) as reopened:
            assert reopened.session_ids() == (session,)
            assert reopened.load_session(session) == c

    def test_payload_cap_applies_to_new_appends_only(self, tmp_path):
        path = tmp_path / "log.cteg"
        with FileStore(path) as first:
            first.register_session(sid(1))
            first.append_rows(sid(1), [row(10, None, 0, payload=bytes(100))])
        with FileStore(path, payload_cap=10) as reopened:
            assert reopened.load_session(sid(1)).graph.payloads[aid(10)] == bytes(100)
            with pytest.raises(PayloadTooLargeError):
                reopened.append_rows(sid(1), [row(11, 10, 1, payload=bytes(11))])
            reopened.append_rows(sid(1), [row(12, 10, 1, payload=bytes(10))])
        with FileStore(path, payload_cap=10) as again:
            assert again.load_session(sid(1)).graph.nodes == {aid(10), aid(12)}

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "log.cteg"
        path.write_bytes(b"NOTASTORE!" + b"\x00" * 8)
        with pytest.raises(CorruptStoreError):
            FileStore(path)

    def test_hand_edited_timestamp_is_corruption(self, tmp_path):
        path = tmp_path / "log.cteg"
        path.write_bytes(_MAGIC_V1)  # a v1 log, read as v1 bytes below
        with FileStore(path) as store:
            store.register_session(sid(1))
            store.append_rows(sid(1), [row(10, None, 5)])
            store.append_rows(sid(1), [row(11, 10, 6)])
        data = bytearray(path.read_bytes())
        # independent walk to the last record, then patch its i64 timestamp
        # field (offset: 4 len + 1 kind + 16 node + 16 session + 1 flag + 16 parent)
        boundaries = record_boundaries(bytes(data), len(_MAGIC))
        last = boundaries[-2]
        ts_offset = last + 4 + 1 + 16 + 16 + 1 + 16
        data[ts_offset : ts_offset + 8] = (1).to_bytes(8, "little")  # now below the parent's 5
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptStoreError):
            FileStore(path)

    @pytest.mark.parametrize(
        "record_index,field_offset,value,reason",
        [
            (1, 1 + 16 + 16, b"\x07", "bad parent flag"),  # the root's parent flag
            (2, 1 + 16 + 16 + 1 + 16, (1).to_bytes(8, "little"), "not above parent"),  # the child's timestamp
            (3, 1, sid(1).value, "already registered"),  # the second session's id, made the first's
            (0, 0, b"\x09", "unknown record kind 9"),  # the first session record's kind
        ],
        ids=["malformed", "inconsistent", "registered-twice", "unknown-kind"],
    )
    def test_corruption_names_the_record_and_its_offset(self, tmp_path, record_index, field_offset, value, reason):
        path = tmp_path / "log.cteg"
        path.write_bytes(_MAGIC_V1)  # a v1 log, read as v1 bytes below
        with FileStore(path) as store:
            store.register_session(sid(1))
            store.append_rows(sid(1), [row(10, None, 5)])
            store.append_rows(sid(1), [row(11, 10, 6)])
            store.register_session(sid(2))
        data = bytearray(path.read_bytes())
        start = record_boundaries(bytes(data), len(_MAGIC))[record_index]
        data[start + 4 + field_offset : start + 4 + field_offset + len(value)] = value
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptStoreError, match=f"record {record_index} at byte {start}: .*{reason}"):
            FileStore(path)

    def test_every_short_record_is_corruption(self, tmp_path):
        path = tmp_path / "log.cteg"
        path.write_bytes(_MAGIC_V1)  # a v1 log, read as v1 bytes below
        with FileStore(path) as store:
            store.register_session(sid(1))
            store.append_rows(sid(1), [row(10, None, 0, payload=b"root")])
            store.append_rows(sid(1), [row(11, 10, 1)])
        data = path.read_bytes()
        boundaries = record_boundaries(data, len(_MAGIC))
        for start, end in zip(boundaries, boundaries[1:]):
            for n in range(end - start - 4):  # every body length short of the record's own
                path.write_bytes(data[:start] + struct.pack("<I", n) + data[start + 4 : start + 4 + n] + data[end:])
                with pytest.raises(CorruptStoreError):
                    FileStore(path)

    def test_torn_trailing_record_is_ignored(self, tmp_path):
        path = tmp_path / "log.cteg"
        path.write_bytes(_MAGIC_V1)  # a v1 log, read as v1 bytes below
        with FileStore(path) as store:
            store.register_session(sid(1))
            store.append_rows(sid(1), [row(10, None, 0)])
        data = path.read_bytes()
        path.write_bytes(data + b"\x99\x00\x00\x00partial")
        with FileStore(path) as reopened:
            assert reopened.load_session(sid(1)).graph.nodes == {aid(10)}

    @pytest.mark.parametrize("data", [None, b"", b"CTEG", _MAGIC[:-1]])
    def test_open_report_of_a_new_log(self, tmp_path, data, caplog):
        path = tmp_path / "log.cteg"
        if data is not None:
            path.write_bytes(data)
        with caplog.at_level(logging.DEBUG, logger="cteg"), FileStore(path) as store:
            assert store.open_report == OpenReport(records=0, sessions=0, torn_bytes=0, new_log=True)
        assert path.read_bytes() == b"CTEGSTORE2"
        assert caplog.records == []

    def test_open_report_of_a_whole_log(self, tmp_path, caplog):
        path = tmp_path / "log.cteg"
        with FileStore(path) as store:
            assert store.open_report.new_log
            store.register_session(sid(1))
            store.register_session(sid(2))
            for session, rec in ((sid(1), row(10, None, 0)), (sid(2), row(20, None, 0)), (sid(1), row(11, 10, 1))):
                store.append_rows(session, [rec])
        with caplog.at_level(logging.DEBUG, logger="cteg"), FileStore(path) as reopened:
            assert reopened.open_report == OpenReport(records=5, sessions=2, torn_bytes=0, new_log=False)
        assert caplog.records == []
        path.write_bytes(_MAGIC)
        with FileStore(path) as empty:
            assert empty.open_report == OpenReport(records=0, sessions=0, torn_bytes=0, new_log=False)

    def test_open_report_of_a_log_cut_at_every_byte(self, tmp_path, caplog):
        path = tmp_path / "log.cteg"
        path.write_bytes(_MAGIC_V1)  # a v1 log, read as v1 bytes below
        with FileStore(path) as store:
            store.register_session(sid(1))
            store.append_rows(sid(1), [row(10, None, 0, b"payload")])
            store.append_rows(sid(1), [row(11, 10, 1)])
        data = path.read_bytes()
        boundaries = record_boundaries(data, len(_MAGIC))
        assert len(boundaries) == 4
        for cut in range(len(_MAGIC), len(data) + 1):
            path.write_bytes(data[:cut])
            complete = [b for b in boundaries if b <= cut]
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="cteg"), FileStore(path) as reopened:
                report = reopened.open_report
            torn = cut - complete[-1]
            assert report == OpenReport(records=len(complete) - 1, sessions=min(1, len(complete) - 1), torn_bytes=torn, new_log=False)
            assert path.read_bytes() == data[: complete[-1]]
            if torn:
                (event,) = caplog.records
                assert (event.name, event.levelno) == ("cteg", logging.WARNING)
                assert event.getMessage() == (
                    f"store.torn_tail_cut path={path} offset={complete[-1]} bytes={torn} records={len(complete) - 1}"
                )
            else:
                assert caplog.records == []

    def test_the_cteg_logger_prints_nothing_unless_configured(self):
        assert any(isinstance(h, logging.NullHandler) for h in logging.getLogger("cteg").handlers)

    def test_store_stays_appendable_after_a_cut_at_any_byte(self, tmp_path):
        path = tmp_path / "log.cteg"
        path.write_bytes(_MAGIC_V1)  # a v1 log, read as v1 bytes below
        with FileStore(path) as store:
            store.register_session(sid(1))
            store.append_rows(sid(1), [row(10, None, 0, payload=b"root")])
            store.append_rows(sid(1), [row(11, 10, 1, payload=b"child")])
        data = path.read_bytes()
        boundaries = record_boundaries(data, len(_MAGIC))
        for cut in range(0, len(data)):  # from inside the header on
            path.write_bytes(data[:cut])
            complete = sum(1 for b in boundaries if b <= cut) - 1  # records wholly before the cut
            with FileStore(path) as reopened:
                reopened.register_session(sid(2))
                reopened.append_rows(sid(2), [row(20, None, 5)])
                reopened.append_rows(sid(2), [row(21, 20, 6)])
            with FileStore(path) as again:
                expected = [sid(1)] if complete >= 1 else []
                assert again.session_ids() == (*expected, sid(2)), f"cut at byte {cut}"
                if complete >= 2:
                    kept = {aid(10), aid(11)} if complete == 3 else {aid(10)}
                    assert again.load_session(sid(1)).graph.nodes == kept, f"cut at byte {cut}"
                assert again.load_session(sid(2)).graph.nodes == {aid(20), aid(21)}, f"cut at byte {cut}"

    def test_failed_write_admits_nothing(self, tmp_path):
        path = tmp_path / "log.cteg"
        with FileStore(path) as store:
            store.register_session(sid(1))
            store.append_rows(sid(1), [row(10, None, 0)])
            data = path.read_bytes()
            path.unlink()
            path.mkdir()  # every later open of the log for writing now raises an OSError
            with pytest.raises(OSError):
                store.register_session(sid(2))
            with pytest.raises(OSError):
                store.append_rows(sid(1), [row(11, 10, 1)])
            assert store.session_ids() == (sid(1),)
            assert store.load_session(sid(1)).graph.nodes == {aid(10)}
            path.rmdir()
            path.write_bytes(data)
            store.register_session(sid(2))
            store.append_rows(sid(1), [row(11, 10, 1)])
        with FileStore(path) as reopened:
            assert reopened.session_ids() == (sid(1), sid(2))
            assert reopened.load_session(sid(1)).graph.nodes == {aid(10), aid(11)}

    def test_partial_write_is_rolled_back(self, tmp_path):
        resource = pytest.importorskip("resource")
        import signal

        path = tmp_path / "log.cteg"
        with FileStore(path) as store:
            store.register_session(sid(1))
            store.append_rows(sid(1), [row(10, None, 0)])
            size = path.stat().st_size
            limits = resource.getrlimit(resource.RLIMIT_FSIZE)
            handler = signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
            try:
                # the file may grow by 20 bytes: the next record gets cut part-way
                resource.setrlimit(resource.RLIMIT_FSIZE, (size + 20, limits[1]))
                with pytest.raises(OSError):
                    store.append_rows(sid(1), [row(11, 10, 1, payload=b"x" * 100)])
            finally:
                resource.setrlimit(resource.RLIMIT_FSIZE, limits)
                signal.signal(signal.SIGXFSZ, handler)
            assert path.stat().st_size == size
            store.append_rows(sid(1), [row(12, 10, 2)])
        with FileStore(path) as reopened:
            assert reopened.load_session(sid(1)).graph.nodes == {aid(10), aid(12)}

    def test_appends_reuse_one_handle(self, tmp_path, monkeypatch):
        path = tmp_path / "log.cteg"
        with FileStore(path) as store:

            def no_open(*args, **kwargs):
                raise AssertionError("the store reopened its log")

            monkeypatch.setattr(persistence, "open", no_open, raising=False)
            store.register_session(sid(1))
            append_trace(store, sid(1), random_cteg(random.Random(3), 20))
        monkeypatch.undo()
        with FileStore(path) as reopened:
            assert len(reopened.load_session(sid(1)).graph.nodes) == 20

    def test_closed_store_refuses_appends_but_answers_reads(self, tmp_path):
        path = tmp_path / "log.cteg"
        with FileStore(path) as store:
            store.register_session(sid(1))
            store.append_rows(sid(1), [row(10, None, 0)])
        size = path.stat().st_size
        with pytest.raises(ValueError):
            store.append_rows(sid(1), [row(11, 10, 1)])
        assert path.stat().st_size == size
        assert store.load_session(sid(1)).graph.nodes == {aid(10)}
        with FileStore(path) as reopened:
            reopened.append_rows(sid(1), [row(11, 10, 1)])
        with FileStore(path) as again:
            assert again.load_session(sid(1)).graph.nodes == {aid(10), aid(11)}

    def test_every_record_boundary_prefix_reconstructs(self, tmp_path):
        path = tmp_path / "log.cteg"
        path.write_bytes(_MAGIC_V1)  # a v1 log, read as v1 bytes below
        with FileStore(path) as store:
            rng = random.Random(9)
            sessions = [store.register_session() for _ in range(2)]
            for session in sessions:
                append_trace(store, session, random_cteg(rng, 8))
        data = path.read_bytes()
        for i, boundary in enumerate(record_boundaries(data, len(_MAGIC))):
            trimmed = tmp_path / f"prefix{i}.cteg"
            trimmed.write_bytes(data[:boundary])
            with FileStore(trimmed) as partial:
                for session in partial.session_ids():
                    try:
                        snap = partial.load_session(session)
                    except EmptySessionError:
                        continue
                    assert validate_cteg(snap.graph, snap.root).ok


class TestBatches:
    def test_append_trace_is_all_or_nothing(self, tmp_path):
        path = tmp_path / "log.cteg"
        c = cteg({1: 0, 2: 1, 3: 2}, {(1, 2), (2, 3)}, root=1, payloads={2: b"12345"})  # the middle row is too big
        with FileStore(path, payload_cap=4) as store:
            store.register_session(sid(1))
            size = path.stat().st_size
            with pytest.raises(PayloadTooLargeError):
                append_trace(store, sid(1), c)
            with pytest.raises(EmptySessionError):
                store.load_session(sid(1))
            assert path.stat().st_size == size
        with FileStore(path) as reopened:
            assert reopened.session_ids() == (sid(1),)
            with pytest.raises(EmptySessionError):
                reopened.load_session(sid(1))

    def test_a_trace_is_one_write(self, tmp_path, monkeypatch):
        batches = []
        write = FileStore._write

        def counting(self, session_id, rows):
            batches.append(None if rows is None else len(rows))
            write(self, session_id, rows)

        monkeypatch.setattr(FileStore, "_write", counting)
        with FileStore(tmp_path / "log.cteg") as store:
            store.register_session(sid(1))
            append_trace(store, sid(1), random_cteg(random.Random(4), 20))
        assert batches == [None, 20]


@given(traces=st.lists(ctegs(), min_size=1, max_size=3))
def test_append_trace_writes_the_bytes_of_row_by_row_appends(traces):
    sessions = [sid(i + 1) for i in range(len(traces))]
    with tempfile.TemporaryDirectory() as tmp:
        batched, by_row = Path(tmp) / "batched.cteg", Path(tmp) / "by_row.cteg"
        batched.write_bytes(_MAGIC_V1)  # v1 logs: one record per row, however the rows are batched
        by_row.write_bytes(_MAGIC_V1)
        with FileStore(batched) as store:
            for session, c in zip(sessions, traces):
                store.register_session(session)
                append_trace(store, session, c)
        with FileStore(by_row) as store:
            for session, c in zip(sessions, traces):
                store.register_session(session)
                parents, g = c.parent_map(), c.graph
                for n in sorted(g.nodes, key=lambda n: (g.t[n], n)):
                    store.append_rows(session, [(n, parents.get(n), g.t[n], g.tau[n], g.payloads[n])])
        assert batched.read_bytes() == by_row.read_bytes()
        with FileStore(batched) as reopened:
            assert reopened.session_ids() == tuple(sessions)
            for session, c in zip(sessions, traces):
                assert reopened.load_session(session) == c


class TestExportImport:
    def test_single_root_is_two_lines(self):
        c = cteg({1: 0}, set(), root=1)
        data = export_trace(c, sid(7))
        lines = data.decode().splitlines()
        assert len(lines) == 2
        assert lines[0] == f"cteg/1 {hexid(7)}"
        assert lines[1].split("\t")[1] == "-"

    def test_export_is_deterministic(self):
        c1 = cteg({1: 0, 2: 1, 3: 1}, {(1, 2), (1, 3)}, root=1)
        c2 = cteg({3: 1, 2: 1, 1: 0}, {(1, 3), (1, 2)}, root=1)
        assert export_trace(c1, sid(7)) == export_trace(c2, sid(7))

    @pytest.mark.parametrize("seed", range(8))
    def test_import_inverts_export(self, seed):
        c = random_cteg(random.Random(seed), 25)
        data = export_trace(c, sid(3))
        loaded, session = import_trace(data)
        assert loaded == c
        assert session == sid(3)
        assert export_trace(loaded, session) == data

    def test_rows_follow_temporal_projection_order(self):
        c = cteg({1: 0, 2: 2, 3: 1}, {(1, 2), (1, 3)}, root=1)
        body = export_trace(c, sid(1)).decode().splitlines()[1:]
        stamps = [int(line.split("\t")[2]) for line in body]
        assert stamps == sorted(stamps)

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda lines: ["garbage"] + lines[1:],                       # bad header
            lambda lines: lines + ["only\tthree\tfields"],               # bad arity
            lambda lines: lines + [f"zz{'0' * 30}\t-\t9\tevt\t"],        # bad hex
            lambda lines: lines + [f"{hexid(9)}\t-\tnine\tevt\t"],       # bad timestamp
            lambda lines: lines + [f"{hexid(9)}\t-\t9\tevt\t@@@"],       # bad base64
            lambda lines: lines + [f"{hexid(9)}\t{hexid(404)}\t9\tevt\t"],  # unknown parent
            lambda lines: lines + [lines[1]],                            # duplicate node id
            lambda lines: lines[:1],                                     # no rows at all
            lambda lines: lines + [f"{hexid(9)}\t{hexid(1)}\t+9\tevt\t"],  # signed timestamp
            lambda lines: lines + [f"{hexid(9)}\t{hexid(1)}\t09\tevt\t"],  # zero-padded timestamp
            lambda lines: lines + [f"{hexid(9)}\t{hexid(1)}\t 9\tevt\t"],  # space before a timestamp
            lambda lines: lines + [f"{hexid(9)}\t{hexid(1)}\t9_0\tevt\t"],  # underscored timestamp
            lambda lines: lines + [f"{hexid(9)}\t{hexid(1)}\t\u0669\tevt\t"],  # non-ASCII digit
            lambda lines: [f"cteg/1 {sid(1).value.hex(' ')}"] + lines[1:],  # header id with spaced bytes
            lambda lines: [lines[0][:-1]] + lines[1:],                   # 31-character header id
            lambda lines: lines + [f"{hexid(9)[:31]}\t{hexid(1)}\t9\tevt\t"],  # 31-character node id
            lambda lines: lines + [f"  {hexid(9)[2:]}\t{hexid(1)}\t9\tevt\t"],  # 32-character node id with spaces
            lambda lines: lines + [f"{hexid(9)}\t{hexid(1)}\t9\te\x01vt\t"],  # control character in a type
        ],
    )
    def test_malformed_text_is_a_format_error(self, mangle):
        base = export_trace(cteg({1: 0}, set(), root=1), sid(1)).decode().splitlines()
        data = ("\n".join(mangle(base)) + "\n").encode()
        with pytest.raises(TraceFormatError):
            parse_trace(data)

    def test_an_empty_file_is_a_format_error(self):
        with pytest.raises(TraceFormatError, match="empty trace file"):
            parse_trace(b"")

    def test_rootless_text_is_a_format_error(self):
        text = f"cteg/1 {hexid(1)}\n{hexid(2)}\t{hexid(3)}\t1\tevt\t\n{hexid(3)}\t{hexid(2)}\t0\tevt\t\n"
        with pytest.raises(TraceFormatError):
            parse_trace(text.encode())

    def test_cycle_parses_but_fails_validation(self):
        text = (
            f"cteg/1 {hexid(1)}\n"
            f"{hexid(1)}\t-\t0\tevt\t\n"
            f"{hexid(2)}\t{hexid(3)}\t2\tevt\t\n"
            f"{hexid(3)}\t{hexid(2)}\t1\tevt\t\n"
        ).encode()
        graph, root, _ = parse_trace(text)
        diag = validate_cteg(graph, root)
        assert "cycle" in diag.codes()
        with pytest.raises(ValidationFailedError):
            import_trace(text)

    def test_exported_session_id_round_trips(self):
        c = cteg({1: 0}, set(), root=1)
        session = SessionId.fresh()
        _, out = import_trace(export_trace(c, session))
        assert out == session


class TestGraphText:
    def test_rendering_separates_equal_structures(self):
        a = cteg({1: 0, 2: 1}, {(1, 2)}, root=1).graph
        b = cteg({1: 0, 2: 2}, {(1, 2)}, root=1).graph
        assert graph_text(a) != graph_text(b)
        assert graph_text(a) == graph_text(cteg({2: 1, 1: 0}, {(1, 2)}, root=1).graph)

    def test_payload_marker_only_when_non_empty(self):
        bare = cteg({1: 0}, set(), root=1).graph
        loaded = Cteg(
            TypedTemporalGraph(
                nodes=bare.nodes,
                edges=bare.edges,
                t=bare.t,
                tau=bare.tau,
                type_set=bare.type_set,
                payloads={aid(1): b"x"},
            ),
            aid(1),
        ).graph
        assert "=" not in graph_text(bare)
        assert "=" in graph_text(loaded)
