"""Property tests of trace import through the node table and of the projection cache.

Covered claims:
    - `import_trace` gives what the reference import (`parse_trace`, then
      the validating `Cteg(...)`) gives: the same trace and session id, or
      the same exception type and message, with the same diagnostic codes
      for ValidationFailedError. Inputs are canonical exports of sessions
      with complete and partial grafts, the same rows shuffled, and the
      export with one mutation (a self-parent row, an unknown parent, a
      duplicate id, a second root, a child not later than its parent, bad
      base64)
    - a self-parent row is a TraceFormatError naming the self-loop
    - whichever way a trace was built (the public constructor, import,
      a snapshot with grafts, a load from either store after a reopen), its
      projection rows equal the sort-based definition, a returned list is
      the caller's to change, its receipt equals the recursive definition,
      and exporting it after a store round trip gives back the imported
      text byte for byte; an import and a store load come with their
      projection rows already in place
"""

import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cteg import (
    Cteg,
    CtegError,
    FailurePolicy,
    FileStore,
    MemoryStore,
    TraceFormatError,
    ValidationFailedError,
    append_trace,
    begin_session,
    export_trace,
    import_trace,
    merkle_root,
    temporal_projection,
)
from cteg.core import projection_rows
from test_commitment import oracle_digest
from util import ctegs, reference_import_trace, ty

# One scripted session step: what to do, a pick among the known nodes, a count and a payload.
_steps = st.tuples(
    st.sampled_from(("emit", "emit", "complete", "partial")), st.integers(0, 99), st.integers(1, 3), st.binary(max_size=3)
)


@st.composite
def sessions(draw):
    """A session on a counting clock with emits and complete and partial grafts; child rows overlap the parent's in time."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    s = begin_session(ty("task"), wall_clock=lambda: 0, id_factory=lambda: rng.randbytes(16))
    known = [s.root]
    for kind, pick, count, payload in draw(st.lists(_steps, max_size=10)):
        parent = known[pick % len(known)]
        if kind == "emit":
            known += s.emit(parent, [(ty("evt"), payload)] * count)
            continue
        handle, child = s.invoke_subagent(parent, ty("sub"), payload)
        grown = [child.root]
        for i in range(count):
            grown += child.emit(grown[(pick + i) % len(grown)], [(ty("tool"), payload)])
            if i % 2:
                known += s.emit(parent, [(ty("evt"), b"")])
        if kind == "partial":
            s.fail_subagent(handle, child, FailurePolicy.GRAFT_PARTIAL)
        else:
            s.complete_subagent(handle, child)
        known += grown
    return s


MUTATIONS = ("self-parent", "unknown-parent", "duplicate-id", "second-root", "not-later", "bad-base64")


def mutate_text(text: bytes, kind: str, pick: int) -> bytes:
    """The text with one row changed so that it is no longer a valid trace."""
    header, *lines = text.decode().splitlines()
    rows = [line.split("\t") for line in lines]
    by_id = {row[0]: row for row in rows}
    i = pick % len(rows)
    row = rows[i]
    if kind == "self-parent":
        row[1] = row[0]
    elif kind == "unknown-parent":
        row[1] = "f" * 32
    elif kind == "duplicate-id":
        rows.append(list(rows[i]))
    elif kind == "second-root":
        rows.append([f"{pick:032x}", "-", row[2], "task", ""])
    elif kind == "not-later":
        if row[1] == "-":
            rows.append([f"{pick:032x}", row[0], row[2], "evt", ""])
        else:
            row[2] = str(int(by_id[row[1]][2]) - pick % 3)
    elif kind == "bad-base64":
        row[4] = "!!"
    return ("\n".join([header] + ["\t".join(r) for r in rows]) + "\n").encode()


def _outcome(importer, data):
    try:
        trace, sid = importer(data)
    except CtegError as exc:
        codes = exc.diagnostics.codes() if isinstance(exc, ValidationFailedError) else None
        return type(exc), str(exc), codes
    return trace, sid, export_trace(trace, sid)


def _assert_same_import(data):
    got, want = _outcome(import_trace, data), _outcome(reference_import_trace, data)
    assert got == want
    if isinstance(want[0], Cteg):
        assert got[0].root == want[0].root and got[0].graph.type_set == want[0].graph.type_set


@given(s=sessions(), shuffle=st.randoms(use_true_random=False), kind=st.sampled_from(MUTATIONS), pick=st.integers(0, 99))
def test_import_gives_what_the_reference_import_gives(s, shuffle, kind, pick):
    text = export_trace(s.snapshot(), s.id)
    _assert_same_import(text)
    header, *lines = text.decode().splitlines()
    shuffle.shuffle(lines)
    _assert_same_import(("\n".join([header] + lines) + "\n").encode())
    _assert_same_import(mutate_text(text, kind, pick))


def test_a_self_parent_row_is_a_format_error():
    root, child = "01" * 16, "02" * 16
    text = f"cteg/1 {'00' * 16}\n{root}\t-\t0\ttask\t\n{child}\t{child}\t1\tevt\t\n".encode()
    with pytest.raises(TraceFormatError) as caught:
        import_trace(text)
    assert str(caught.value) == f"rows do not form a representable graph: self-loop on node {child}"
    assert _outcome(import_trace, text) == _outcome(reference_import_trace, text)


def _sorted_rows(c):
    """The projection rows by their definition: every node, sorted by (timestamp, id)."""
    g = c.graph
    parents = {b: a for a, b in g.edges}
    order = sorted(g.nodes, key=lambda n: (g.t[n].micros, n.value))
    return [(n, parents.get(n), g.t[n], g.tau[n], g.payloads[n]) for n in order]


def _recursive_root(c):
    g, children = c.graph, c.graph.children_map()

    def digest(n):
        kids = sorted(children[n], key=lambda ch: (g.t[ch].micros, ch.value))
        return oracle_digest(g.tau[n].name, g.t[n].micros, g.payloads[n], [digest(ch) for ch in kids])

    return digest(c.root)


def _assert_projection(c):
    expected = _sorted_rows(c)
    rows = projection_rows(c)
    assert rows == expected
    rows.reverse()
    rows.append(None)
    assert projection_rows(c) == expected
    assert temporal_projection(c) == tuple(row[0] for row in expected)
    assert merkle_root(c).value == _recursive_root(c)


@given(s=sessions(), built=ctegs(max_nodes=20))
def test_every_trace_projects_once_and_as_defined(s, built):
    snapshot = s.snapshot()
    text = export_trace(snapshot, s.id)
    imported, sid = import_trace(text)
    traces = [built, snapshot, imported]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.cteg"
        memory = MemoryStore()
        with FileStore(path) as store:
            for target in (memory, store):
                target.register_session(sid)
                append_trace(target, sid, imported)
        with FileStore(path) as reopened:
            loaded = [memory.load_session(sid), reopened.load_session(sid)]
    # A trace keeps its rows in projection order however it was built; these came from a node table.
    assert all(c._rows is not None for c in [imported] + loaded)
    for c in traces + loaded:
        _assert_projection(c)
    for c in [imported] + loaded:
        assert export_trace(c, sid) == text
