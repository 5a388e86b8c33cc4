"""Replay as a stream: one record at a time, rows sharing their parent's id bytes.

Covered claims:
    - replaying a v1 or v2 log from a stream gives what the whole-bytes
      reference replay gives (`util.reference_replay`): the same table rows
      in registration order, record count and torn-tail offset, or the same
      corruption record, offset and reason, for logs of random session
      scripts cut at any byte or with any one byte flipped
    - replay never asks its stream for more than the record it is reading,
      and never for a byte past it, also when a damaged v1 length names
      bytes the log does not hold
    - replaying a one-batch log holds at most that record's bytes, and a
      small margin, above what it keeps
    - after `import_trace` of canonical text, and after a store reopen, each
      row's parent is the very bytes object of its parent row's node
"""

import gc
import io
import random
import tracemalloc
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from cteg import Cteg, FileStore, SessionId, append_trace, export_trace, import_trace
from cteg.persistence import CorruptStoreError, _encode_v2, _event_type, _MAGIC, _MAGIC_V1, _replay
from test_store_v2 import run_script, scripts, two_session_log
from util import record_boundaries, reference_replay


def outcome(run) -> tuple:
    """A replay's tables as (session, rows) in registration order, its records and end; or its corruption."""
    try:
        tables, records, end = run()
    except CorruptStoreError as exc:
        return ("corrupt", exc.record, exc.offset, exc.reason)
    return ([(s, t.rows) for s, t in tables.items()], records, end)


def script_log(path: Path, magic: bytes, script) -> bytes:
    """The bytes of a log begun with `magic` that a session script wrote."""
    if magic == _MAGIC_V1:
        path.write_bytes(_MAGIC_V1)  # an existing v1 log keeps taking v1 records
    run_script(path, *script)
    data = path.read_bytes()
    assert data.startswith(magic)
    return data


@settings(max_examples=15, deadline=None)
@given(st.sampled_from([_MAGIC, _MAGIC_V1]), scripts, st.integers(1, 255))
def test_streamed_replay_equals_the_reference_on_every_cut_and_flipped_byte(tmp_path_factory, magic, script, mask):
    data = script_log(tmp_path_factory.mktemp("log") / "log.cteg", magic, script)
    logs = [data[:cut] for cut in range(len(magic), len(data) + 1)]
    for at in range(len(data)):
        flipped = bytearray(data)
        flipped[at] ^= mask
        logs.append(bytes(flipped))
    for log in logs:
        assert outcome(lambda: _replay(io.BytesIO(log))) == outcome(lambda: reference_replay(log))


class RecordingStream(io.BytesIO):
    """A byte stream that records where each `read` starts and how much it asks for."""

    def __init__(self, data: bytes) -> None:
        super().__init__(data)
        self.reads: list[tuple[int, int]] = []

    def read(self, size=-1):
        self.reads.append((self.tell(), size))
        return super().read(size)


def test_replay_never_reads_past_the_record_it_is_reading(tmp_path):
    v2 = tmp_path / "v2.cteg"
    two_session_log(v2)
    v1 = tmp_path / "v1.cteg"
    v1.write_bytes(_MAGIC_V1)
    two_session_log(v1)
    for path in (v2, v1):
        data = path.read_bytes()
        boundaries = [0] + record_boundaries(data, len(_MAGIC))
        for cut in (len(data), len(data) - 3):  # whole, and with a torn tail
            stream = RecordingStream(data[:cut])
            _, records, end = _replay(stream)
            assert end == boundaries[records + 1]
            assert stream.reads, "replay read nothing"
            for at, size in stream.reads:
                record_end = min(b for b in boundaries + [len(data)] if b > at)
                assert 0 <= size <= record_end - at, f"{path.name}: a read of {size} bytes at {at} passes the record ending at {record_end}"
    # No checksum guards a v1 length: a damaged one that runs past the log is a torn tail, read no further.
    data = bytearray(v1.read_bytes())
    last = record_boundaries(bytes(data), len(_MAGIC_V1))[-2]
    data[last + 3] = 0xFF
    stream = RecordingStream(bytes(data))
    assert _replay(stream)[2] == last
    assert all(at + size <= last + 4 for at, size in stream.reads)


def _batch_rows(rng: random.Random, n: int) -> list:
    """Plain rows of a random n-node trace in projection order, with payloads of 0-256 bytes."""
    ids = [rng.randbytes(16) for _ in range(n)]
    parents = [None] + [ids[rng.randrange(i)] for i in range(1, n)]
    micros = [0]
    index = {node: i for i, node in enumerate(ids)}
    for parent in parents[1:]:
        micros.append(micros[index[parent]] + rng.randint(1, 1000))
    kinds = [_event_type(name) for name in ("task", "tool", "llm", "observe")]
    rows = [(ids[i], parents[i], micros[i], rng.choice(kinds), rng.randbytes(rng.randint(0, 256))) for i in range(n)]
    return sorted(rows, key=lambda r: (r[2], r[0]))


# Calibrated on this 2·10^4-row batch (a 3.3 MiB record, Python 3.11): the
# streamed replay peaked 0.02 MiB above its record and what it keeps, the
# whole-bytes reference 1.2 MiB.
_MARGIN = 1 << 19


def test_replaying_one_batch_holds_one_record_beyond_what_it_keeps():
    session = SessionId.from_int(1)
    record = _encode_v2(session, _batch_rows(random.Random(0), 20_000))
    stream = io.BytesIO(_MAGIC + _encode_v2(session, None) + record)
    gc.collect()
    tracemalloc.start()
    try:
        tables, records, _ = _replay(stream)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (records, len(tables[session].rows)) == (2, 20_000)
    assert peak - kept <= len(record) + _MARGIN, f"replay peaked {(peak - kept - len(record)) / 2**20:.1f} MiB above its record and what it keeps"


def _assert_parents_share_their_node_bytes(rows) -> None:
    own = {row[0]: row[0] for row in rows}
    linked = [row for row in rows if row[1] is not None]
    assert linked and all(row[1] is own[row[1]] for row in linked)


def test_imported_and_reopened_rows_share_their_parents_node_bytes(tmp_path):
    rows = _batch_rows(random.Random(1), 500)
    session = SessionId.from_int(7)
    text = export_trace(Cteg._proved(tuple(rows)), session)  # canonical text, which lists each parent first
    trace, _ = import_trace(text)
    _assert_parents_share_their_node_bytes(trace._rows)
    with FileStore(tmp_path / "log.cteg") as store:
        store.register_session(session)
        append_trace(store, session, trace)
    with FileStore(tmp_path / "log.cteg") as reopened:
        loaded = reopened.load_session(session)
    assert loaded == trace
    _assert_parents_share_their_node_bytes(loaded._rows)
