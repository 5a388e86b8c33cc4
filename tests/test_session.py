"""Unit tests for session builders: emission, delegation, failure, snapshots.

Covered claims:
    - a new session is a single typed root above any given lower bound
    - emitted timestamps stay strictly above the parent even under frozen
      or colliding clocks, including at nodes grafted in from children
    - invocation is opaque until completion; completion grafts atomically
      and respects the lower-bound chain through nested children
    - handles are single-use and bound to their sessions
    - failure keeps a valid partial trace (graft_partial) or none (discard)
    - snapshots are always valid and the recorded history is a member of
      the recursive closure
    - the row-built history and snapshot match the reference step
      functions replayed from the history's own labels; the history, and
      every child history in its labels, passes the public constructor,
      and building it runs no extension proof; an emit builds no step
      label, and `history` reads equal labels from the rows
    - rejected emits and grafts raise today's error classes and leave the
      trace and its history unchanged; a payload that is not `bytes` is
      rejected with TypeError wherever a session takes one, so a snapshot
      never shares a caller's mutable buffer, and so is a type that is not
      an `EventType`, so every snapshot exports and commits
"""

import random
import threading
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cteg import (
    CompatibilityError,
    ConsumedHandleError,
    DisjointnessError,
    Emission,
    EmptyEmissionError,
    ExecutionSequence,
    FailurePolicy,
    InactiveSessionError,
    Invocation,
    Session,
    SessionMismatchError,
    SessionStatus,
    SubagentHandle,
    Timestamp,
    UnknownNodeError,
    apply_emission,
    apply_invocation,
    begin_session,
    export_trace,
    height,
    import_trace,
    is_member_e_infinity,
    merkle_root,
    validate_cteg,
    verify_commitment,
)
from cteg.core import _new
from util import aid, counting_subgraph_proofs, ty


def frozen_clock(value: int = 0):
    return lambda: value


def seeded_ids(seed: int):
    rng = random.Random(seed)
    return lambda: rng.randbytes(16)


def quiet_session(seed: int = 0, root_type=None, lower_bound=None):
    return begin_session(
        root_type or ty("task"),
        lower_bound=lower_bound,
        wall_clock=frozen_clock(),
        id_factory=seeded_ids(seed),
    )


class TestBeginSession:
    def test_trace_is_a_single_typed_root(self):
        s = quiet_session()
        snap = s.snapshot()
        assert len(snap.graph.nodes) == 1
        assert snap.graph.edges == frozenset()
        assert snap.graph.tau[snap.root] == ty("task")
        assert s.status is SessionStatus.ACTIVE

    def test_begin_session_is_the_session_class(self):
        assert begin_session is Session

    def test_lower_bound_is_strictly_exceeded(self):
        s = begin_session(ty("task"), lower_bound=Timestamp(100), wall_clock=frozen_clock())
        assert s.snapshot().graph.t[s.root].micros >= 101

    def test_sessions_draw_distinct_identities(self):
        seen_sessions = set()
        seen_roots = set()
        for _ in range(200):
            s = begin_session(ty("task"))
            seen_sessions.add(s.id)
            seen_roots.add(s.root)
        assert len(seen_sessions) == 200
        assert len(seen_roots) == 200

    def test_fresh_snapshot_is_valid(self):
        snap = quiet_session().snapshot()
        assert validate_cteg(snap.graph, snap.root).ok


class TestEmit:
    def test_two_events_become_children_in_order(self):
        s = quiet_session()
        ids = s.emit(s.root, [(ty("a"), b"1"), (ty("b"), b"2")])
        snap = s.snapshot()
        assert len(ids) == 2
        assert snap.graph.edges == {(s.root, ids[0]), (s.root, ids[1])}
        assert snap.graph.payloads[ids[0]] == b"1"
        assert validate_cteg(snap.graph, snap.root).ok

    def test_frozen_clock_still_strictly_increases(self):
        s = quiet_session()
        (child,) = s.emit(s.root, [(ty("a"), b"")])
        (grandchild,) = s.emit(child, [(ty("a"), b"")])
        g = s.snapshot().graph
        assert g.t[s.root] < g.t[child] < g.t[grandchild]

    def test_emit_on_settled_session_fails(self):
        parent = quiet_session()
        handle, child = parent.invoke_subagent(parent.root, ty("sub"))
        parent.complete_subagent(handle, child)
        with pytest.raises(InactiveSessionError):
            child.emit(child.root, [(ty("a"), b"")])

    def test_unknown_parent(self):
        s = quiet_session()
        with pytest.raises(UnknownNodeError):
            s.emit(aid(1234), [(ty("a"), b"")])

    def test_empty_event_list(self):
        s = quiet_session()
        with pytest.raises(EmptyEmissionError):
            s.emit(s.root, [])

    def test_an_empty_iterator_admits_no_step(self):
        s = quiet_session()
        with pytest.raises(EmptyEmissionError):
            s.emit(s.root, iter([]))
        (node,) = s.emit(s.root, [(ty("a"), b"")])
        assert s.history().steps == (Emission(s.root, frozenset({node})),)


class TestInvokeSubagent:
    def test_child_root_is_strictly_later_than_invocation_node(self):
        s = quiet_session()
        (node,) = s.emit(s.root, [(ty("a"), b"")])
        _, child = s.invoke_subagent(node, ty("sub"))
        assert s.snapshot().graph.t[node] < child.snapshot().graph.t[child.root]

    def test_parent_trace_unchanged_until_completion(self):
        s = quiet_session()
        before = s.snapshot()
        s.invoke_subagent(s.root, ty("sub"))
        assert s.snapshot() == before

    def test_nested_lower_bound_chain(self):
        s = quiet_session()
        h1, child = s.invoke_subagent(s.root, ty("sub"))
        (node,) = child.emit(child.root, [(ty("sub"), b"")])
        h2, grandchild = child.invoke_subagent(node, ty("subsub"))
        t_node = child.snapshot().graph.t[node]
        t_groot = grandchild.snapshot().graph.t[grandchild.root]
        assert t_node < t_groot
        child.complete_subagent(h2, grandchild)
        s.complete_subagent(h1, child)
        snap = s.snapshot()
        assert validate_cteg(snap.graph, snap.root).ok


class TestCompleteSubagent:
    def test_two_level_workflow_reproduces_the_global_shape(self):
        # parent emits, invokes a child that itself invokes a grandchild;
        # the fully resolved trace is one arborescence of height >= 3
        parent = quiet_session()
        (work,) = parent.emit(parent.root, [(ty("plan"), b"")])
        h1, child = parent.invoke_subagent(work, ty("child"))
        (step,) = child.emit(child.root, [(ty("child"), b"")])
        h2, grandchild = child.invoke_subagent(step, ty("grandchild"))
        grandchild.emit(grandchild.root, [(ty("grandchild"), b"")])
        child.complete_subagent(h2, grandchild)
        parent.complete_subagent(h1, child)

        snap = parent.snapshot()
        assert validate_cteg(snap.graph, snap.root).ok
        assert len(snap.graph.nodes) == 6
        assert height(snap) >= 3
        assert child.status is SessionStatus.COMPLETED
        assert grandchild.status is SessionStatus.COMPLETED

    def test_handle_is_single_use(self):
        s = quiet_session()
        handle, child = s.invoke_subagent(s.root, ty("sub"))
        s.complete_subagent(handle, child)
        with pytest.raises(ConsumedHandleError):
            s.complete_subagent(handle, child)

    @pytest.mark.parametrize("settle", ["complete", "fail"])
    def test_a_settled_child_cannot_be_settled_again(self, settle):
        s = quiet_session()
        handle, child = s.invoke_subagent(s.root, ty("sub"))
        s.complete_subagent(handle, child)
        before = s.snapshot()
        again = SubagentHandle(s.id, s.root, child.id)
        with pytest.raises(InactiveSessionError, match="child session is already completed"):
            if settle == "complete":
                s.complete_subagent(again, child)
            else:
                s.fail_subagent(again, child, FailurePolicy.GRAFT_PARTIAL)
        assert not again.consumed and s.snapshot() == before

    def test_can_continue_emitting_at_the_invocation_node(self):
        s = quiet_session()
        (node,) = s.emit(s.root, [(ty("a"), b"")])
        handle, child = s.invoke_subagent(node, ty("sub"))
        child.emit(child.root, [(ty("sub"), b"x")])
        s.complete_subagent(handle, child)
        s.emit(node, [(ty("a"), b"follow-up")])
        snap = s.snapshot()
        assert validate_cteg(snap.graph, snap.root).ok
        assert is_member_e_infinity(s.history()).ok

    def test_emitting_under_a_grafted_node_stays_strict(self):
        # the child's clock runs far ahead of the parent's frozen wall clock;
        # a later parent emission below a grafted node must still be strict
        parent = begin_session(ty("task"), wall_clock=frozen_clock(0), id_factory=seeded_ids(1))
        handle, child = parent.invoke_subagent(parent.root, ty("sub"))
        child._last = 10_000  # simulate a child that issued far-future stamps
        (deep,) = child.emit(child.root, [(ty("sub"), b"")])
        parent.complete_subagent(handle, child)
        (cont,) = parent.emit(deep, [(ty("task"), b"")])
        g = parent.snapshot().graph
        assert g.t[deep] == Timestamp(10_001) and g.t[deep] < g.t[cont]
        assert validate_cteg(g, parent.root).ok

    def test_wrong_child_session_rejected(self):
        s = quiet_session()
        handle, _child = s.invoke_subagent(s.root, ty("sub"))
        _, other = s.invoke_subagent(s.root, ty("sub"))
        with pytest.raises(SessionMismatchError):
            s.complete_subagent(handle, other)

    def test_foreign_handle_rejected(self):
        s1 = quiet_session(seed=1)
        s2 = quiet_session(seed=2)
        handle, child = s1.invoke_subagent(s1.root, ty("sub"))
        with pytest.raises(SessionMismatchError):
            s2.complete_subagent(handle, child)


class TestFailSubagent:
    def test_graft_partial_keeps_the_partial_work(self):
        s = quiet_session()
        handle, child = s.invoke_subagent(s.root, ty("sub"))
        done = child.emit(child.root, [(ty("sub"), b"1"), (ty("sub"), b"2"), (ty("sub"), b"3")])
        s.fail_subagent(handle, child, FailurePolicy.GRAFT_PARTIAL)
        snap = s.snapshot()
        assert child.status is SessionStatus.FAILED
        assert set(done) <= snap.graph.nodes
        assert validate_cteg(snap.graph, snap.root).ok

    def test_discard_leaves_the_parent_unchanged(self):
        s = quiet_session()
        before = s.snapshot()
        handle, child = s.invoke_subagent(s.root, ty("sub"))
        child.emit(child.root, [(ty("sub"), b"")])
        s.fail_subagent(handle, child, FailurePolicy.DISCARD)
        assert s.snapshot() == before
        assert child.status is SessionStatus.FAILED

    def test_a_policy_that_is_not_a_failure_policy_settles_nothing(self):
        s = quiet_session()
        before = s.snapshot()
        handle, child = s.invoke_subagent(s.root, ty("sub"))
        child.emit(child.root, [(ty("sub"), b"")])
        with pytest.raises(TypeError, match="FailurePolicy"):
            s.fail_subagent(handle, child, "graft_partial")
        assert child.status is SessionStatus.ACTIVE and not handle.consumed
        assert s.snapshot() == before

    def test_graft_partial_of_a_bare_root(self):
        s = quiet_session()
        handle, child = s.invoke_subagent(s.root, ty("sub"))
        s.fail_subagent(handle, child, FailurePolicy.GRAFT_PARTIAL)
        snap = s.snapshot()
        assert child.root in snap.graph.nodes
        assert validate_cteg(snap.graph, snap.root).ok


class TestSnapshotAndHistory:
    def _scripted_session(self, seed: int, steps: int = 50):
        rng = random.Random(seed)
        s = begin_session(ty("task"), wall_clock=frozen_clock(), id_factory=seeded_ids(seed))
        known = [s.root]
        snapshots = [s.snapshot()]
        for _ in range(steps):
            roll = rng.random()
            if roll < 0.25:
                handle, child = s.invoke_subagent(rng.choice(known), ty("sub"))
                for _ in range(rng.randint(0, 3)):
                    child.emit(child.root, [(ty("sub"), rng.randbytes(3))])
                if rng.random() < 0.3:
                    s.fail_subagent(handle, child, FailurePolicy.GRAFT_PARTIAL)
                else:
                    s.complete_subagent(handle, child)
                known.append(child.root)
            else:
                known.extend(
                    s.emit(rng.choice(known), [(ty("task"), rng.randbytes(2))])
                )
            snapshots.append(s.snapshot())
        return s, snapshots

    @pytest.mark.parametrize("seed", range(4))
    def test_every_snapshot_is_valid(self, seed):
        _, snapshots = self._scripted_session(seed)
        for snap in snapshots:
            assert validate_cteg(snap.graph, snap.root).ok

    @pytest.mark.parametrize("seed", range(4))
    def test_history_is_a_member_of_the_closure(self, seed):
        s, _ = self._scripted_session(seed)
        history = s.history()
        assert is_member_e_infinity(history).ok
        assert history.steps is not None
        kinds = {type(step) for step in history.steps}
        assert kinds <= {Emission, Invocation}

    def test_history_is_append_only(self):
        s, _ = self._scripted_session(11, steps=25)
        history = s.history()
        for g, g2 in zip(history.graphs, history.graphs[1:]):
            assert g.is_subgraph_of(g2)

    def test_snapshot_atomic_under_concurrent_graft(self):
        s = quiet_session()
        handle, child = s.invoke_subagent(s.root, ty("sub"))
        child.emit(child.root, [(ty("sub"), b"")] * 3)
        before = len(s.snapshot().graph.nodes)
        worker = threading.Thread(target=s.complete_subagent, args=(handle, child))
        worker.start()
        worker.join()
        after = len(s.snapshot().graph.nodes)
        assert (before, after) == (1, 5)


_OUTCOMES = st.sampled_from([None, FailurePolicy.GRAFT_PARTIAL, FailurePolicy.DISCARD])


def _scripts(depth: int):
    """Session scripts: emits (parent pick, type, batch size) and, below `depth`, nested invokes."""
    op = st.tuples(st.just("emit"), st.integers(0, 99), st.sampled_from("abc"), st.integers(1, 3))
    if depth > 0:
        op = op | st.tuples(st.just("invoke"), st.integers(0, 99), _OUTCOMES, _scripts(depth - 1))
    return st.lists(op, max_size=6)


def _drive(session, script):
    known = [session.root]
    for op in script:
        parent = known[op[1] % len(known)]
        if op[0] == "emit":
            _, _, name, size = op
            known += session.emit(parent, [(ty(name), bytes([k])) for k in range(size)])
            continue
        _, _, outcome, sub = op
        handle, child = session.invoke_subagent(parent, ty("sub"), payload=b"call")
        _drive(child, sub)
        if outcome is None:
            session.complete_subagent(handle, child)
        else:
            session.fail_subagent(handle, child, outcome)
        if outcome is not FailurePolicy.DISCARD:
            known.append(child.root)


def _replay(history):
    """The graph chain rebuilt from the history's first graph and labels by the reference steps."""
    final = history.final
    graphs = [history.graphs[0]]
    for label in history.steps:
        if isinstance(label, Emission):
            new = {n: (final.t[n], final.tau[n]) for n in label.emitted}
            payloads = {n: final.payloads[n] for n in label.emitted}
            graphs.append(apply_emission(graphs[-1], label.root, new, payloads=payloads))
        else:
            assert _replay(label.subtrace) == label.subtrace.graphs
            graphs.append(apply_invocation(graphs[-1], label.root, label.subtrace, attach=label.attach))
    return tuple(graphs)


class TestRowsAgainstReference:
    @given(script=_scripts(3), seed=st.integers(0, 2**32 - 1))
    def test_history_and_snapshot_match_the_reference_steps(self, script, seed):
        s = quiet_session(seed)
        _drive(s, script)
        history = s.history()
        assert _replay(history) == history.graphs
        assert s.snapshot().graph == history.final
        assert is_member_e_infinity(history).ok

    @given(script=_scripts(3), seed=st.integers(0, 2**32 - 1))
    def test_public_constructor_accepts_the_history(self, script, seed):
        s = quiet_session(seed)
        _drive(s, script)
        pending = [s.history()]
        while pending:
            seq = pending.pop()
            rebuilt = ExecutionSequence(seq.graphs, seq.steps)
            assert rebuilt == seq and rebuilt.steps == seq.steps
            pending += [label.subtrace for label in seq.steps if isinstance(label, Invocation)]

    def test_history_runs_no_extension_proof(self):
        s = quiet_session(3)
        _drive(s, [("emit", 0, "a", 2), ("invoke", 1, None, [("emit", 0, "b", 1)]), ("emit", 2, "c", 1)])
        calls, patch = counting_subgraph_proofs()
        with patch:
            history = s.history()
        assert len(history) == 4 and len(history.steps[1].subtrace) == 2
        assert calls == []

    def test_emit_builds_no_label_and_history_reads_the_labels_from_the_rows(self):
        s = quiet_session(5)
        with mock.patch("cteg.dynamics._new", mock.Mock(wraps=_new)) as spy:
            (a,) = s.emit(s.root, [(ty("a"), b"")])
            handle, child = s.invoke_subagent(a, ty("sub"))
            (b,) = child.emit(child.root, [(ty("b"), b"")])
            s.complete_subagent(handle, child)
            later = s.emit(a, [(ty("c"), b""), (ty("d"), b"x")])
            assert spy.call_count == 0
            history = s.history()
        assert history.steps == (
            Emission(s.root, frozenset({a})),
            Invocation(a, child.history(), child.root),
            Emission(a, frozenset(later)),
        )
        assert history.steps[1].subtrace.steps == (Emission(child.root, frozenset({b})),)


def scripted_ids(*ints):
    """An id factory that hands out the given small ints in turn, repeats included."""
    draws = iter(ints)
    return lambda: next(draws).to_bytes(16, "big")


class TestRejectedSteps:
    def test_emit_with_a_repeated_id_admits_nothing(self):
        s = begin_session(ty("task"), wall_clock=frozen_clock(), id_factory=scripted_ids(1, 2, 3, 3))
        before, history = s.snapshot(), s.history()
        with pytest.raises(DisjointnessError):
            s.emit(s.root, [(ty("a"), b""), (ty("b"), b"")])
        assert s.snapshot() == before
        assert s.history() == history

    def test_rejected_emit_leaves_the_clock_where_it_was(self):
        s = begin_session(ty("task"), wall_clock=frozen_clock(), id_factory=scripted_ids(1, 2, 3, 3, 4))
        with pytest.raises(DisjointnessError):
            s.emit(s.root, [(ty("a"), b""), (ty("b"), b"")])
        (node,) = s.emit(s.root, [(ty("a"), b"")])
        assert node == aid(4)  # the rejected batch's draws stay consumed
        assert s.snapshot().graph.t[node] == Timestamp(1)

    def test_emit_of_a_payload_that_is_not_bytes_admits_nothing(self):
        s = begin_session(ty("task"), wall_clock=frozen_clock(), id_factory=scripted_ids(*range(1, 10)))
        before, history = s.snapshot(), s.history()
        buffer = bytearray(b"ab")
        with pytest.raises(TypeError, match="must be bytes"):
            s.emit(s.root, [(ty("a"), b""), (ty("b"), buffer)])
        with pytest.raises(TypeError, match="must be bytes"):
            s.emit(s.root, [(ty("a"), "ab")])
        assert s.snapshot() == before
        assert s.history() == history
        (node,) = s.emit(s.root, [(ty("a"), bytes(buffer))])
        assert s.snapshot().graph.t[node] == Timestamp(1)  # the rejected batches issued no time
        buffer[0] = 0
        assert s.snapshot().graph.payloads[node] == b"ab"
        hash(s.snapshot().graph)

    @pytest.mark.parametrize("payload", [bytearray(b"ab"), "ab"])
    def test_a_root_payload_that_is_not_bytes_is_rejected(self, payload):
        with pytest.raises(TypeError, match="must be bytes"):
            begin_session(ty("task"), payload=payload)
        s = quiet_session()
        before = s.snapshot()
        with pytest.raises(TypeError, match="must be bytes"):
            s.invoke_subagent(s.root, ty("sub"), payload=payload)
        assert s.snapshot() == before

    def test_a_type_that_is_not_an_event_type_is_rejected(self):
        with pytest.raises(TypeError, match="must be an EventType, not str"):
            begin_session("task")
        s = begin_session(ty("task"), wall_clock=frozen_clock(), id_factory=scripted_ids(*range(1, 10)))
        before, history = s.snapshot(), s.history()
        with pytest.raises(TypeError, match="must be an EventType, not str"):
            s.emit(s.root, [("tool", b"")])
        with pytest.raises(TypeError, match="must be an EventType, not str"):
            s.invoke_subagent(s.root, "sub")
        assert s.snapshot() == before
        assert s.history() == history
        (node,) = s.emit(s.root, [(ty("tool"), b"")])
        assert s.snapshot().graph.t[node] == Timestamp(1)  # the rejected batch issued no time
        assert import_trace(export_trace(s.snapshot(), s.id)) == (s.snapshot(), s.id)
        assert verify_commitment(s.snapshot(), merkle_root(s.snapshot()))

    def test_graft_of_a_child_sharing_an_id_changes_nothing(self):
        # session 1 with root 2 emits node 3; child session 4 with root 5 emits node 3 again
        s = begin_session(ty("task"), wall_clock=frozen_clock(), id_factory=scripted_ids(1, 2, 3, 4, 5, 3))
        s.emit(s.root, [(ty("a"), b"")])
        handle, child = s.invoke_subagent(s.root, ty("sub"))
        child.emit(child.root, [(ty("b"), b"")])
        before, history = s.snapshot(), s.history()
        with pytest.raises(DisjointnessError):
            s.complete_subagent(handle, child)
        assert s.snapshot() == before
        assert s.history() == history
        assert not handle.consumed and child.status is SessionStatus.ACTIVE

    def test_handle_on_a_node_later_than_the_child_root_is_incompatible(self):
        s = quiet_session()
        (first,) = s.emit(s.root, [(ty("a"), b"")])
        (later,) = s.emit(first, [(ty("a"), b"")])
        _, child = s.invoke_subagent(s.root, ty("sub"))
        assert s.snapshot().graph.t[later] >= child.snapshot().graph.t[child.root]
        before = s.snapshot()
        with pytest.raises(CompatibilityError):
            s.complete_subagent(SubagentHandle(s.id, later, child.id), child)
        assert s.snapshot() == before
