"""Compositional trace builders: local emission and opaque subagent delegation.

A session owns one growing trace. It emits typed events under nodes it
already knows, and it delegates work by spawning child sessions whose
finished (or failed) traces are grafted back atomically at the invocation
node. A child is born with a timestamp lower bound equal to its invocation
node's time, so the strict-increase rule of the grafting edge holds by
construction rather than by late failure; the check still runs defensively
at graft time.

Issued timestamps follow max(wall clock, last issued + 1, lower bound + 1),
additionally clamped strictly above the parent node's time when emitting.
This keeps every causal edge strictly increasing under frozen or colliding
clocks while still allowing sibling nodes of different sessions to share a
timestamp.

A session keeps its trace in a `core.NodeTable` of plain rows, the table
the stores keep too, so an emit or a graft costs what it adds: the table
checks each batch row by row and each graft by its one new edge, and no
step re-validates the whole trace. Beside the rows a session keeps one
mark (a row count) per state and each grafted child, nothing per emit;
`history` builds its states and labels from them only when one is read.

Each session is single-writer: all public operations serialize on an
internal lock, grafts are atomic with respect to snapshots, and distinct
sessions may progress concurrently. Nothing is ever removed or rewritten;
the trace and its recorded history are append-only.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from threading import RLock
from typing import Callable, Sequence

from .core import (
    ActionId,
    Cteg,
    CtegError,
    EventType,
    NodeTable,
    Timestamp,
    _micros,
    _OpaqueId,
)
from .dynamics import EmptyEmissionError, ExecutionSequence, _Steps

__all__ = [
    "InactiveSessionError",
    "ConsumedHandleError",
    "SessionMismatchError",
    "SessionId",
    "SessionStatus",
    "FailurePolicy",
    "SubagentHandle",
    "Session",
    "begin_session",
]


class InactiveSessionError(CtegError):
    """The session is completed or failed and accepts no further mutation."""


class ConsumedHandleError(CtegError):
    """A subagent handle admits exactly one completion or failure."""


class SessionMismatchError(CtegError):
    """Handle, parent session and child session do not belong together."""


class SessionId(_OpaqueId):
    """Globally unique session identity."""

    __slots__ = ()


class SessionStatus(Enum):
    ACTIVE = "active"
    COMPLETED = "completed"
    FAILED = "failed"


class FailurePolicy(Enum):
    """What a parent does with the partial trace of a failed child."""

    DISCARD = "discard"
    GRAFT_PARTIAL = "graft_partial"


@dataclass
class SubagentHandle:
    """Single-use ticket tying an invocation node to a child session."""

    parent_session: SessionId
    parent_node: ActionId
    child_session: SessionId
    _consumed: bool = field(default=False, repr=False)

    @property
    def consumed(self) -> bool:
        return self._consumed


def _wall_clock_micros() -> int:
    return time.time_ns() // 1000


class Session:
    """A single agent's execution trace under construction.

    `begin_session` is this class under its public name; children come
    from `invoke_subagent`. The current trace is always a valid CTEG;
    `snapshot` returns it as an immutable value and `history` returns the
    full labelled chain of states reached so far.
    """

    def __init__(
        self,
        root_type: EventType,
        payload: bytes = b"",
        lower_bound: Timestamp | None = None,
        *,
        wall_clock: Callable[[], int] | None = None,
        id_factory: Callable[[], bytes] | None = None,
    ) -> None:
        """Start a fresh session whose trace is a single typed root node.

        The root timestamp strictly exceeds `lower_bound` when one is given.
        `wall_clock` (microseconds) and `id_factory` (16-byte draws) exist
        for deterministic construction in simulations and tests.
        """
        self._wall = wall_clock if wall_clock is not None else _wall_clock_micros
        self._id_factory = id_factory
        self._lock = RLock()
        self._id = SessionId.fresh(id_factory)
        self._status = SessionStatus.ACTIVE

        root = ActionId.fresh(id_factory)
        root_ts = self._stamp(None, lower_bound and lower_bound.micros)  # later stamps exceed it: all keep the bound
        self._root = root
        self._table = NodeTable()
        self._table.append([(root.value, None, root_ts, root_type, payload)])
        self._last = root_ts  # the last timestamp issued, in microseconds
        self._marks: list[int] = [1]  # row count of each state in turn
        self._grafts: dict[int, Session] = {}  # step index: the child grafted at that step
        self._snapshot: Cteg | None = None

    @property
    def id(self) -> SessionId:
        return self._id

    @property
    def status(self) -> SessionStatus:
        return self._status

    @property
    def root(self) -> ActionId:
        return self._root

    def snapshot(self) -> Cteg:
        """The current trace as an immutable value, built once per change from the proved table rows."""
        with self._lock:
            if self._snapshot is None:
                self._snapshot = self._table.to_cteg()
            return self._snapshot

    def history(self) -> ExecutionSequence:
        """Every state the trace has passed through, with step labels.

        Row-backed (see `ExecutionSequence`): it shares the table's rows,
        which only grow, so it costs memory linear in the trace. Graph `k`
        declares the types in use in state `k`. Label `k` is built when read,
        from the rows between marks `k` and `k + 1` and the child settled
        at step `k`, if any.
        """
        with self._lock:
            rows, marks = self._table.rows, tuple(self._marks)
            grafts = {k: child.history() for k, child in self._grafts.items()}
            return ExecutionSequence._rows(rows, marks, _Steps(rows, marks, grafts))

    def emit(self, parent: ActionId, events: Sequence[tuple[EventType, bytes]]) -> list[ActionId]:
        """Add one batch of typed events as children of `parent`.

        Timestamps are issued by the session clock and strictly exceed the
        parent node's time. Returns the new node ids in argument order.
        A rejected batch admits nothing and leaves the clock where it was;
        ids it already drew from `id_factory` stay consumed.
        """
        with self._lock:
            self._require_active()
            p = parent.value
            floor = self._table.time_of(p)
            last, ids, rows = self._last, [], []
            for kind, payload in events:
                ids.append(node := ActionId.fresh(self._id_factory))
                last = self._stamp(last, floor)
                rows.append((node.value, p, last, kind, payload))
            if not rows:
                raise EmptyEmissionError("emit requires at least one event")
            self._table.append(rows)
            self._last = last
            self._advance()
            return ids

    def invoke_subagent(
        self,
        parent: ActionId,
        root_type: EventType,
        payload: bytes = b"",
    ) -> tuple[SubagentHandle, "Session"]:
        """Spawn a child session to be grafted later at `parent`.

        The child's timestamp lower bound is the invocation node's time, so
        the composition criterion at graft time holds by construction. The
        parent trace is untouched until completion or failure.
        """
        with self._lock:
            self._require_active()
            child = Session(
                root_type,
                payload=payload,
                lower_bound=Timestamp(self._table.time_of(parent.value)),
                wall_clock=self._wall,
                id_factory=self._id_factory,
            )
            handle = SubagentHandle(self._id, parent, child.id)
            return handle, child

    def complete_subagent(self, handle: SubagentHandle, child: "Session") -> None:
        """Graft the child's finished trace atomically at the handle's node."""
        self._finish_subagent(handle, child, graft_trace=True, final_status=SessionStatus.COMPLETED)

    def fail_subagent(self, handle: SubagentHandle, child: "Session", policy: FailurePolicy) -> None:
        """Settle a failed child: discard its trace or graft the valid partial one."""
        if not isinstance(policy, FailurePolicy):
            raise TypeError(f"policy must be a FailurePolicy, not {type(policy).__name__}")
        self._finish_subagent(
            handle,
            child,
            graft_trace=(policy is FailurePolicy.GRAFT_PARTIAL),
            final_status=SessionStatus.FAILED,
        )

    def _finish_subagent(
        self,
        handle: SubagentHandle,
        child: "Session",
        *,
        graft_trace: bool,
        final_status: SessionStatus,
    ) -> None:
        with self._lock:
            self._require_active()
            if handle.parent_session != self._id:
                raise SessionMismatchError("handle was issued by a different session")
            if handle.consumed:
                raise ConsumedHandleError("handle has already been completed or failed")
            if handle.child_session != child.id:
                raise SessionMismatchError("child session does not match the handle")
            with child._lock:
                if child._status is not SessionStatus.ACTIVE:
                    raise InactiveSessionError(f"child session is already {child._status.value}")
                if graft_trace:
                    self._table.graft(handle.parent_node.value, child._table)
                    self._grafts[len(self._marks) - 1] = child
                    self._advance()
                child._status = final_status
            handle._consumed = True

    def _stamp(self, last: int | None, floor: int | None) -> int:
        """The wall clock's microseconds, raised strictly above `last`, the last stamp issued, and above `floor`."""
        stamp = self._wall()
        if last is not None:
            stamp = max(stamp, last + 1)
        if floor is not None:
            stamp = max(stamp, floor + 1)
        return _micros(stamp)

    def _advance(self) -> None:
        self._marks.append(len(self._table.rows))
        self._snapshot = None

    def _require_active(self) -> None:
        if self._status is not SessionStatus.ACTIVE:
            raise InactiveSessionError(f"session is {self._status.value}")

    def __repr__(self) -> str:
        return f"Session(id={self._id.hex[:8]}, status={self._status.value}, nodes={len(self._table.rows)})"


begin_session = Session
