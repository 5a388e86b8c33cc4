"""A trace is its rows: every way of building one keeps the same rows and graph.

Covered claims:
    - whichever way a trace is built (the public constructor, some traces
      declaring types no node uses; session snapshots with complete and
      partial grafts; import of canonical and of reordered text; loads from
      a `MemoryStore` and from a reopened `FileStore`), it equals
      `Cteg(c.graph, c.root)` and hashes as it does, its graph equals the
      reference graph of the same material, and its projection rows equal
      their sort-based definition; the snapshot, the imports and the loads
      of one session are equal and hash equal
    - a trace declaring types no node uses is unequal to its re-import, and
      any other trace equals it
    - a trace survives pickling, `copy.copy` and `copy.deepcopy` equal,
      hash equal and with an equal graph, and takes no attribute assignment
    - the seal sequence (import, receipt, verify, export, store append,
      reopen, load, equality) and the `simulate`, `normalize`, `verify`,
      `project` and `commit` commands build no graph
    - a chain-random session, an imported trace and a trace loaded from a
      reopened `FileStore` each hold at most 1.5 objects tracked by the
      cyclic GC per node: their rows hold plain values
"""

import copy
import gc
import pickle
import random
import tempfile
from itertools import count
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cteg import (
    ActionId,
    Cteg,
    FailurePolicy,
    FileStore,
    MemoryStore,
    TypedTemporalGraph,
    append_trace,
    begin_session,
    export_trace,
    import_trace,
    merkle_root,
    verify_commitment,
)
from cteg.cli import EXIT_OK, main
from cteg.core import projection_rows
from cteg.persistence import parse_trace
from test_dynamics import ctegs_declaring_types
from test_import_proof import _sorted_rows, sessions
from test_session import _drive, quiet_session
from util import counting_graphs, cteg, ty


def _assert_rows_are_the_trace(c, reference):
    rebuilt = Cteg(c.graph, c.root)
    assert c == rebuilt and rebuilt == c and hash(c) == hash(rebuilt)
    assert c.graph == reference and c.graph.type_set == reference.type_set
    assert projection_rows(c) == _sorted_rows(c)


def _reordered(text: bytes, shuffle) -> bytes:
    header, *lines = text.decode().splitlines()
    shuffle.shuffle(lines)
    return ("\n".join([header] + lines) + "\n").encode()


@given(s=sessions(), built=ctegs_declaring_types(), shuffle=st.randoms(use_true_random=False))
def test_every_way_of_building_a_trace_keeps_its_rows_and_its_graph(s, built, shuffle):
    g = built.graph
    snapshot = s.snapshot()
    text = export_trace(snapshot, s.id)
    cases = [
        (built, TypedTemporalGraph(g.nodes, g.edges, g.t, g.tau, g.type_set, g.payloads)),
        (snapshot, s.history().final),
    ]
    for data in (text, _reordered(text, shuffle)):
        imported, sid = import_trace(data)
        cases.append((imported, parse_trace(data)[0]))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.cteg"
        memory = MemoryStore()
        with FileStore(path) as store:
            for target in (memory, store):
                target.register_session(sid)
                append_trace(target, sid, imported)
        with FileStore(path) as reopened:
            for target in (memory, reopened):
                cases.append((target.load_session(sid), parse_trace(text)[0]))
    for c, reference in cases:
        _assert_rows_are_the_trace(c, reference)
    assert all(c == snapshot and hash(c) == hash(snapshot) for c, _ in cases[2:])

    again, _ = import_trace(export_trace(built, sid))
    in_use = frozenset(row[3] for row in projection_rows(built))
    assert again.graph.type_set == in_use
    assert (again == built) is (g.type_set == in_use)


def _traces() -> list[Cteg]:
    """A snapshot with a complete and a partial graft, its import, and a constructed trace declaring an unused type."""
    s = quiet_session(3)
    _drive(s, [("emit", 0, "a", 2), ("invoke", 1, None, [("emit", 0, "b", 2)]), ("invoke", 0, FailurePolicy.GRAFT_PARTIAL, [("emit", 0, "c", 1)])])
    snapshot = s.snapshot()
    imported, _ = import_trace(export_trace(snapshot, s.id))
    built = cteg({1: 0, 2: 1, 3: 1}, {(1, 2), (1, 3)}, root=1, type_set={"spare"})
    return [snapshot, imported, built]


class TestTraceValue:
    def test_pickle_and_copy_round_trip(self):
        for x in _traces():
            for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x), copy.copy(x)):
                assert type(y) is Cteg
                assert y == x and hash(y) == hash(x)
                assert y.graph == x.graph and y.graph.type_set == x.graph.type_set
                assert y.root == x.root and repr(y) == repr(x)

    def test_a_trace_takes_no_assignment(self):
        for x in _traces():
            with pytest.raises(AttributeError):
                x.root = x.root
            with pytest.raises(AttributeError):
                del x.root
            with pytest.raises(AttributeError):
                x.other = 1
            assert not hasattr(x, "__dict__")

    def test_the_traces_are_the_ones_described(self):
        snapshot, imported, built = _traces()
        assert snapshot == imported and len(projection_rows(snapshot)) == 8
        assert built.graph.type_set > {row[3] for row in projection_rows(built)}


def test_seal_path_and_commands_build_no_graph(tmp_path, capsys):
    path, store_path = tmp_path / "t.cteg", tmp_path / "t.store"
    built, patch = counting_graphs()
    with patch:
        assert main(["simulate", "--seed", "3", "--steps", "8", "--fail-prob", "0.3", "--out", str(path)]) == EXIT_OK
        text = path.read_bytes()
        trace, sid = import_trace(text)
        digest = merkle_root(trace)
        assert verify_commitment(trace, digest)
        assert export_trace(trace, sid) == text
        with FileStore(store_path) as store:
            store.register_session(sid)
            append_trace(store, sid, trace)
        with FileStore(store_path) as store:
            loaded = store.load_session(sid)
        assert loaded == trace
        for command in ("normalize", "verify", "project", "commit"):
            assert main([command, str(path)]) == EXIT_OK
    capsys.readouterr()
    assert len(projection_rows(trace)) > 20
    assert built == []


def _tracked_per_node(build, nodes):
    """What `build()` returns, and the objects tracked by the cyclic GC that it adds per node while kept."""
    gc.collect()
    before = len(gc.get_objects())
    kept = build()
    gc.collect()
    return kept, (len(gc.get_objects()) - before) / nodes


def test_traces_keep_few_tracked_objects_per_node(tmp_path):
    n, rng, task = 10_000, random.Random(0), ty("task")
    ids, clock = count(1), count(1)

    def chain_random():
        # Ids count up from 1: the session takes 1 and its root 2, so every
        # emit hangs under an earlier node without keeping an id object.
        s = begin_session(task, wall_clock=lambda: next(clock), id_factory=lambda: next(ids).to_bytes(16, "big"))
        for k in range(3, n + 2):
            s.emit(ActionId.from_int(rng.randrange(2, k)), [(task, b"")])
        return s

    s, per_node = _tracked_per_node(chain_random, n)
    assert per_node <= 1.5
    text = export_trace(s.snapshot(), s.id)
    del s
    (trace, sid), per_node = _tracked_per_node(lambda: import_trace(text), n)
    assert per_node <= 1.5
    path = tmp_path / "log.cteg"
    with FileStore(path) as store:
        store.register_session(sid)
        append_trace(store, sid, trace)
    del store

    def reopen_and_load():
        with FileStore(path) as reopened:
            return reopened, reopened.load_session(sid)

    (store, loaded), per_node = _tracked_per_node(reopen_and_load, n)
    assert per_node <= 1.5
    assert loaded == trace and export_trace(loaded, sid) == text
