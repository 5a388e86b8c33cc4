"""Property tests of the append-only node table against the whole-graph references.

Covered claims:
    - a row appended alone is accepted exactly when the table's rows plus
      that row form a valid CTEG under `validate_cteg` (a row set that
      `graph_from_rows` cannot even represent counts as a rejection)
    - a batch is admitted whole exactly when its rows would be admitted one
      by one, and a rejected batch leaves the rows and timestamps unchanged
    - a table graft and `graft_cteg` both match `reference_graft_cteg`
      (the graph graft, validated whole): the same trace when it succeeds,
      the same broken rule when it does not, and the reference's words for
      an unknown attach node or shared ids; over traces declaring unused
      types, `graft_cteg` keeps both declared sets
    - `Cteg(graph, root)` accepts a small arbitrary graph exactly when
      `validate_cteg` does, and on rejection carries its diagnostics;
      neither it nor `graft_cteg` runs `validate_cteg` on valid input, and
      `graft_cteg` builds no graph
    - the in-memory and the file-backed store raise the same error class
      for the same bad record, and the file replays to the same traces
    - `to_cteg` on rows with grafts builds, without validating, the same
      fields the validating `Cteg(graph_from_rows(rows), root)` builds; the
      trace it returns does not change when the table grows, and a file
      store reopens to equal traces
    - loading a stored session and taking a session snapshot run no
      `validate_cteg`; importing canonical trace text runs one table check
      of the whole batch and no `validate_cteg`, and so does the same text
      with its rows shuffled, while invalid text that parses runs
      `validate_cteg` exactly once
    - a payload that is not `bytes`, a timestamp that is not a `Timestamp`
      and a type that is not an `EventType` are rejected with TypeError,
      admitting nothing, by the table and by `Cteg(graph, root)`
"""

import random
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from hypothesis import example, given
from hypothesis import strategies as st

from cteg import (
    ActionId,
    Cteg,
    FailurePolicy,
    FileStore,
    MemoryStore,
    SessionId,
    ValidationFailedError,
    append_trace,
    begin_session,
    export_trace,
    graft_cteg,
    import_trace,
    validate_cteg,
)
from cteg.core import NodeTable, StoreError, _objects, _plain_rows, graph_from_rows, projection_rows, temporal_projection
from test_dynamics import ctegs_declaring_types
from util import aid, counting_graphs, graft_outcome, graph, random_cteg, reference_graft_cteg, ts, ty

FAULTS = ("unknown-parent", "reused-id", "equal-time", "earlier-time", "second-root", "parent-first")

# One scripted row: a fault to inject (or none), a pick among the accepted nodes and a time step.
_steps = st.tuples(st.sampled_from((None,) * 6 + FAULTS), st.integers(0, 99), st.integers(1, 5))
_scripts = st.lists(_steps, max_size=25)


def _row(rows, fault, pick, step, fresh):
    """The next plain row for a table holding `rows`, with `fault` injected when it applies."""
    if not rows or fault == "parent-first":
        parent = aid(10_000 + pick).value if fault == "parent-first" else None
        return (fresh.value, parent, step, ty("evt"), b"")
    parent, _, parent_ts, _, _ = rows[pick % len(rows)]
    node, micros = fresh.value, parent_ts + step
    if fault == "unknown-parent":
        parent = aid(20_000 + pick).value
    elif fault == "reused-id":
        node = rows[(pick * 7) % len(rows)][0]
    elif fault == "equal-time":
        micros = parent_ts
    elif fault == "earlier-time":
        micros = parent_ts - step
    elif fault == "second-root":
        parent = None
    return (node, parent, micros, ty("evt" if step % 2 else "alt"), bytes([pick % 7]))


def _reference_accepts(rows):
    """Whether plain `rows` form a valid CTEG rooted at the first row, by whole-graph validation."""
    try:
        graph = graph_from_rows(_objects(rows))
    except ValueError:
        return False
    return validate_cteg(graph, ActionId(rows[0][0])).ok


def _rows_of(script, start=0):
    """The rows a script yields, each built against the rows before it."""
    rows = []
    for i, (fault, pick, step) in enumerate(script):
        rows.append(_row(rows, fault, pick, step, aid(start + i)))
    return rows


def _valid_table(script, start):
    """A table holding the accepted rows of a fault-free script (never empty)."""
    table = NodeTable()
    for row in _rows_of([(None, 0, 1)] + [(None, pick, step) for _, pick, step in script], start):
        table.append([row])
    return table


@given(script=_scripts)
def test_a_row_is_accepted_exactly_when_the_reference_accepts_it(script):
    table = NodeTable()
    for i, (fault, pick, step) in enumerate(script):
        row = _row(table.rows, fault, pick, step, aid(i))
        before = (list(table.rows), dict(table.t))
        expected = _reference_accepts(table.rows + [row])
        try:
            table.append([row])
        except StoreError:
            assert not expected, row
            assert (table.rows, table.t) == before
        else:
            assert expected, row
            assert table.t == {r[0]: r[2] for r in table.rows}


@given(script=_scripts, batch=_scripts)
@example(script=[], batch=[(None, 0, 1), (None, 0, 2), (None, 1, 1)])  # parents earlier in the batch
@example(script=[], batch=[(None, 0, 1), (None, 0, 1), ("reused-id", 0, 1)])  # an id reused in the batch
@example(script=[], batch=[(None, 0, 1), ("second-root", 0, 1)])  # two roots in one batch
def test_a_batch_is_admitted_whole_or_not_at_all(script, batch):
    table = NodeTable()
    for row in _rows_of(script):
        try:
            table.append([row])
        except StoreError:
            pass
    rows = list(table.rows)
    for fault, pick, step in batch:
        rows.append(_row(rows, fault, pick, step, aid(1000 + len(rows))))
    added = rows[len(table.rows) :]
    expected = all(_reference_accepts(rows[:k]) for k in range(len(table.rows) + 1, len(rows) + 1))
    before = (list(table.rows), dict(table.t))
    try:
        new = table.check(added)
    except StoreError:
        assert not expected
        assert (table.rows, table.t) == before
        return
    assert expected
    assert new == {r[0]: r[2] for r in added}
    table.admit(added, new)
    assert table.rows == rows


@given(
    host=_scripts,
    child=_scripts,
    child_start=st.sampled_from([0, 3, 500]),
    attach=st.integers(0, 99),
    unknown_attach=st.booleans(),
    child_offset=st.integers(-8, 8),
)
def test_a_graft_matches_graft_cteg(host, child, child_start, attach, unknown_attach, child_offset):
    parent_table = _valid_table(host, 0)
    child_table = _valid_table(child, child_start)
    # Shift the child in time so the new edge is sometimes not strictly increasing.
    child_table.rows = [(n, p, t + child_offset, ty_, pl) for n, p, t, ty_, pl in child_table.rows]
    child_table.t = {r[0]: r[2] for r in child_table.rows}
    p = aid(9_999).value if unknown_attach else parent_table.rows[attach % len(parent_table.rows)][0]
    c1, c2 = parent_table.to_cteg(), child_table.to_cteg()
    reference = graft_outcome(lambda: reference_graft_cteg(c1, ActionId(p), c2))
    composed = graft_outcome(lambda: graft_cteg(c1, ActionId(p), c2))
    before = (list(parent_table.rows), dict(parent_table.t))
    grafted = graft_outcome(lambda: parent_table.graft(p, child_table) or parent_table.to_cteg())
    if isinstance(reference, Cteg):
        assert grafted == composed == reference
        return
    # The same rule broken, in the same words: the reference's, except for the time rule it words as a diagnostic.
    assert grafted == composed and composed[0] == reference[0] and reference[1] in (None, composed[1])
    assert (parent_table.rows, parent_table.t) == before


@given(
    c1=ctegs_declaring_types(),
    c2=ctegs_declaring_types(),
    pick=st.integers(0, 99),
    attach=st.sampled_from(["host"] * 4 + ["child", "unknown"]),
    shared=st.sampled_from([False] * 5 + [True]),
)
def test_graft_cteg_equals_the_reference(c1, c2, pick, attach, shared):
    if shared:
        c2 = c1  # every id shared
    nodes = {"host": temporal_projection(c1), "child": temporal_projection(c2), "unknown": (aid(10**6),)}[attach]
    p = nodes[pick % len(nodes)]
    composed = graft_outcome(lambda: graft_cteg(c1, p, c2))
    reference = graft_outcome(lambda: reference_graft_cteg(c1, p, c2))
    if isinstance(reference, Cteg):
        assert composed == reference and composed.root == c1.root
        assert composed.graph.type_set == reference.graph.type_set == c1.graph.type_set | c2.graph.type_set
    else:
        assert composed[0] == reference[0] and reference[1] in (None, composed[1])


@st.composite
def small_graphs(draw):
    """A graph of up to six nodes and a named root, often invalid.

    A tree whose time steps may be zero or negative, with maybe one edge
    dropped (an unreachable node) and up to two extra edges (second
    parents, edges into the root, cycles); the root named may be another
    node or no node at all.
    """
    n = draw(st.integers(1, 6))
    parents = {i: draw(st.integers(1, i - 1)) for i in range(2, n + 1)}
    times = {1: 0}
    for i in range(2, n + 1):
        times[i] = times[parents[i]] + draw(st.integers(-1, 3))
    edges = {(p, i) for i, p in parents.items()}
    if edges and draw(st.booleans()):
        edges.discard(draw(st.sampled_from(sorted(edges))))
    pairs = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda e: e[0] != e[1])
    edges |= draw(st.sets(pairs, max_size=2))
    root = draw(st.sampled_from([1, 1, 1, n, n + 1]))  # node n + 1 does not exist
    return graph(times, edges), aid(root)


@given(small_graphs())
@example((graph({1: 0, 2: 1}, {(1, 2), (2, 1)}), aid(1)))  # an edge into the root, and a cycle
@example((graph({1: 0, 2: 1, 3: 2}, {(1, 2), (1, 3), (2, 3)}), aid(1)))  # a second parent
@example((graph({1: 0, 2: 1, 3: 2}, {(1, 2)}), aid(1)))  # an unreachable node
@example((graph({1: 0, 2: 0}, {(1, 2)}), aid(1)))  # equal times
@example((graph({1: 0, 2: 1}, {(1, 2)}), aid(2)))  # the wrong root
@example((graph({1: 0}, set()), aid(2)))  # a missing root
def test_the_public_constructor_accepts_exactly_what_validate_cteg_accepts(case):
    g, r = case
    diag = validate_cteg(g, r)
    try:
        c = Cteg(g, r)
    except ValidationFailedError as exc:
        assert not diag.ok and exc.diagnostics == diag and str(exc) == str(ValidationFailedError(diag))
        return
    assert diag.ok and c.root == r and c.graph is g
    assert graph_from_rows(projection_rows(c), g.type_set) == g


def test_graft_cteg_and_the_public_constructor_run_no_validation():
    c1, c2 = random_cteg(random.Random(1), 30), random_cteg(random.Random(2), 10, root_ts=10_000)
    p, g = temporal_projection(c1)[7], c1.graph
    built, patch = counting_graphs()
    with _spy() as spy, patch:
        composed = graft_cteg(c1, p, c2)
        assert Cteg(g, c1.root) == c1
        assert spy.call_count == 0 and built == []
    assert composed == reference_graft_cteg(c1, p, c2)


_bad_records = st.tuples(
    st.sampled_from((None,) * 4 + FAULTS + ("unknown-session", "payload-cap")), st.integers(0, 99), st.integers(1, 5)
)


@given(script=st.lists(_bad_records, max_size=20))
def test_memory_and_file_stores_raise_the_same_errors(script):
    session = SessionId.from_int(1)
    memory = MemoryStore(payload_cap=4)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.cteg"
        with FileStore(path, payload_cap=4) as file_store:
            for store in (memory, file_store):
                store.register_session(session)
            rows = []
            for i, (fault, pick, step) in enumerate(script):
                row = _row(rows, fault if fault in FAULTS else None, pick, step, aid(i))
                node, parent, stamp, kind, payload = row
                target = SessionId.from_int(2) if fault == "unknown-session" else session
                record = (node, parent, stamp, kind, b"12345" if fault == "payload-cap" else payload)
                outcomes = []
                for store in (memory, file_store):
                    try:
                        store.append_rows(target, list(_objects([record])))
                        outcomes.append(None)
                    except StoreError as exc:
                        outcomes.append(type(exc))
                assert outcomes[0] == outcomes[1], (fault, outcomes)
                if outcomes[0] is None:
                    rows.append(row)
        with FileStore(path) as reopened:
            assert reopened.session_ids() == memory.session_ids()
            if rows:
                assert reopened.load_session(session) == memory.load_session(session)


def _grown_table(host, grafts):
    """A valid table from a fault-free script, with valid child tables grafted under its nodes."""
    table = _valid_table(host, 0)
    for k, (child, attach) in enumerate(grafts):
        p = table.rows[attach % len(table.rows)][0]
        shift = table.t[p]  # child roots sit at t=1, so this makes the new edge strictly increasing
        shifted = NodeTable()
        shifted.append([(n, q, t + shift, kind, pl) for n, q, t, kind, pl in _valid_table(child, 1000 * (k + 1)).rows])
        table.graft(p, shifted)
    return table


_grafts = st.lists(st.tuples(_scripts, st.integers(0, 99)), max_size=3)


@given(host=_scripts, grafts=_grafts)
def test_to_cteg_builds_what_the_validating_constructor_builds(host, grafts):
    table = _grown_table(host, grafts)
    rows = list(table.rows)
    trace = table.to_cteg()
    reference = Cteg(graph_from_rows(_objects(rows)), ActionId(rows[0][0]))
    assert trace == reference and hash(trace) == hash(reference)
    g, r = trace.graph, reference.graph
    assert (g.nodes, g.edges, g.t, g.tau, g.type_set, g.payloads) == (r.nodes, r.edges, r.t, r.tau, r.type_set, r.payloads)
    assert [type(x) for x in (g.nodes, g.edges, g.t, g.tau, g.type_set, g.payloads)] == [
        type(x) for x in (r.nodes, r.edges, r.t, r.tau, r.type_set, r.payloads)
    ]
    assert trace.root == reference.root and trace.parent_map() == reference.parent_map()
    assert validate_cteg(g, trace.root).ok

    # The trace is a value: rows appended later do not reach it.
    table.append([(aid(99_999).value, rows[0][0], rows[0][2] + 1, ty("late"), b"")])
    assert trace == reference and aid(99_999) not in g.t

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.cteg"
        with FileStore(path) as store:
            sid = store.register_session(SessionId.from_int(1))
            for row in rows:
                store.append_rows(sid, list(_objects([row])))
        with FileStore(path) as reopened:
            assert reopened.load_session(sid) == reference


def _quiet_session():
    """A session on a frozen clock whose ids count up from 1."""
    draws = iter(range(1, 1000))
    return begin_session(ty("task"), wall_clock=lambda: 0, id_factory=lambda: next(draws).to_bytes(16, "big"))


def _spy():
    return mock.patch("cteg.core.validate_cteg", mock.Mock(wraps=validate_cteg))


def test_load_and_snapshot_do_not_validate(tmp_path):
    with _spy() as spy:
        s = _quiet_session()
        (a,) = s.emit(s.root, [(ty("a"), b"x")])
        handle, child = s.invoke_subagent(a, ty("sub"))
        child.emit(child.root, [(ty("b"), b""), (ty("c"), b"y")])
        s.complete_subagent(handle, child)
        handle, failed = s.invoke_subagent(s.root, ty("sub"))
        failed.emit(failed.root, [(ty("d"), b"")])
        s.fail_subagent(handle, failed, FailurePolicy.GRAFT_PARTIAL)
        trace = s.snapshot()
        assert child.snapshot().graph.nodes < trace.graph.nodes
        with FileStore(tmp_path / "log.cteg") as store:
            for target in (MemoryStore(), store):
                target.register_session(s.id)
                append_trace(target, s.id, trace)
                assert target.load_session(s.id) == trace
        with FileStore(tmp_path / "log.cteg") as reopened:
            assert reopened.load_session(s.id) == trace
        assert spy.call_count == 0
    assert validate_cteg(trace.graph, trace.root).ok


def test_import_proves_exactly_once():
    s = _quiet_session()
    (a,) = s.emit(s.root, [(ty("a"), b"")])
    s.emit(a, [(ty("b"), b"z"), (ty("c"), b"")])
    text = export_trace(s.snapshot(), s.id)
    header, *lines = text.decode().splitlines()
    shuffled = ("\n".join([header] + lines[::-1]) + "\n").encode()
    lines[2] = lines[2].replace("\t2\t", "\t1\t")  # the child of `a` no later than `a`
    invalid = ("\n".join([header] + lines) + "\n").encode()

    checks = mock.patch.object(NodeTable, "check", autospec=True, side_effect=NodeTable.check)
    with checks as check, _spy() as spy:
        trace, sid = import_trace(text)
        assert check.call_count == 1 and len(check.call_args.args[1]) == len(lines)
        assert spy.call_count == 0
    assert (trace, sid) == (s.snapshot(), s.id)

    with checks as check, _spy() as spy:
        assert import_trace(shuffled) == (trace, sid)
        assert check.call_count == 1 and len(check.call_args.args[1]) == len(lines)
        assert spy.call_count == 0
    with _spy() as spy:
        with pytest.raises(ValidationFailedError, match="edge-timestamp"):
            import_trace(invalid)
        assert spy.call_count == 1


@pytest.mark.parametrize("payload", [bytearray(b"ab"), "ab", memoryview(b"ab"), None])
def test_a_payload_that_is_not_bytes_is_rejected(payload):
    table = NodeTable()
    with pytest.raises(TypeError, match="must be bytes"):
        table.append(_plain_rows([(aid(1), None, ts(0), ty("evt"), payload)]))
    table.append(_plain_rows([(aid(1), None, ts(0), ty("evt"), b"")]))
    with pytest.raises(TypeError, match="must be bytes"):
        table.append(_plain_rows([(aid(2), aid(1), ts(1), ty("evt"), b""), (aid(3), aid(1), ts(1), ty("evt"), payload)]))
    assert table.rows == _plain_rows([(aid(1), None, ts(0), ty("evt"), b"")]) and table.t == {aid(1).value: 0}
    # The public constructor proves a graph's rows with the same check.
    for rows in ([(aid(1), None, ts(0), ty("evt"), payload)], [(aid(1), None, ts(0), ty("evt"), b""), (aid(2), aid(1), ts(1), ty("evt"), payload)]):
        with pytest.raises(TypeError, match="must be bytes"):
            Cteg(graph_from_rows(rows), aid(1))


@pytest.mark.parametrize("field, value, name", [(2, 0, "Timestamp, not int"), (3, "evt", "EventType, not str"), (2, None, "Timestamp, not NoneType")])
def test_a_timestamp_or_type_that_is_not_ours_is_rejected(field, value, name):
    table = NodeTable()
    root = (aid(1), None, ts(0), ty("evt"), b"")
    with pytest.raises(TypeError, match=f"must be an? {name}"):
        table.append(_plain_rows([(*root[:field], value, *root[field + 1 :])]))
    table.append(_plain_rows([root]))
    child = (aid(2), aid(1), ts(1), ty("evt"), b"")
    with pytest.raises(TypeError, match=f"must be an? {name}"):
        table.append(_plain_rows([child, (*child[:field], value, *child[field + 1 :])]))
    assert table.rows == _plain_rows([root]) and table.t == {aid(1).value: 0}
    # The public constructor proves a graph's rows with the same check.
    for rows in ([(*root[:field], value, *root[field + 1 :])], [root, (*child[:field], value, *child[field + 1 :])]):
        with pytest.raises(TypeError, match=f"must be an? {name}"):
            Cteg(graph_from_rows(rows), aid(1))
