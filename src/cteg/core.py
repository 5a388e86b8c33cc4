"""Causal-temporal event graphs: immutable model and static operations.

A causal graph is a rooted arborescence: every non-root node has exactly one
incoming edge and is reachable from the distinguished root. A causal-temporal
event graph (CTEG) refines this with per-node timestamps that strictly
increase along every edge, a type drawn from a declared finite type set, and
an opaque byte payload per node.

This module holds the value types plus the static operations on them:
diagnostic validation, the unique root-to-node path, grafting and the
strict-timestamp compatibility rule for composing two CTEGs, temporal
projection, longest-path height and a canonical one-line text of a graph.
`graph_from_rows` turns node-table rows into a graph, and the public `Cteg`
constructor a graph into rows. Every value is immutable after
construction and all operations are pure, so everything here is safe to
share between threads without synchronization.

The one mutable exception is `NodeTable`, the append-only node table that
sessions, stores and trace import keep their rows in; every prefix of its
rows is a CTEG. Its rows, and a `Cteg`'s, hold plain values: id bytes and
integer microseconds. Id and timestamp objects are built only where the
API hands them out, such as `projection_rows` and `Cteg.graph`.
"""

from __future__ import annotations

import base64
import secrets
from collections import deque
from dataclasses import dataclass
from functools import total_ordering
from itertools import islice
from operator import attrgetter, itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

__all__ = [
    "CtegError",
    "UnknownNodeError",
    "DisjointnessError",
    "CompatibilityError",
    "ValidationFailedError",
    "StoreError",
    "UnknownParentError",
    "DuplicateNodeError",
    "DuplicateRootError",
    "TimestampOrderError",
    "ActionId",
    "Timestamp",
    "EventType",
    "Violation",
    "Diagnostics",
    "TypedTemporalGraph",
    "Cteg",
    "Row",
    "NodeTable",
    "graph_from_rows",
    "projection_rows",
    "graph_text",
    "validate_causal_graph",
    "validate_cteg",
    "causal_path",
    "graft",
    "graft_cteg",
    "temporal_projection",
    "height",
]


class CtegError(Exception):
    """Base class for all errors raised by this package."""


class UnknownNodeError(CtegError):
    """A referenced node is not present in the graph it should belong to."""


class DisjointnessError(CtegError):
    """Two node sets required to be disjoint overlap."""


class CompatibilityError(CtegError):
    """A strict timestamp increase required along an edge does not hold."""


class ValidationFailedError(CtegError):
    """A graph that must be a valid CTEG is not; carries the diagnostics."""

    def __init__(self, diagnostics: "Diagnostics", context: str = "") -> None:
        self.diagnostics = diagnostics
        head = context or "graph is not a valid CTEG"
        details = "; ".join(str(v) for v in diagnostics.violations)
        super().__init__(f"{head}: {details}" if details else head)


class StoreError(CtegError):
    """Base class for store-level failures, node-table rejections among them."""


class UnknownParentError(StoreError, UnknownNodeError):
    """A row's parent is not in the node table yet."""


class DuplicateNodeError(StoreError, DisjointnessError):
    """A row's node id is already in the node table."""


class DuplicateRootError(StoreError):
    """A second parentless row was appended to the same node table."""


class TimestampOrderError(StoreError, CompatibilityError):
    """A row's timestamp does not strictly exceed its parent's."""


@total_ordering
class _OpaqueId:
    """Opaque identifier of `_size` bytes, 16 by default, totally ordered by its big-endian bytes.

    An immutable value: equal, ordered and hashed by its bytes, and only
    against ids of its own class. The hash is computed once, at
    construction, so a dict or set lookup costs no Python-level work.
    """

    __slots__ = ("value", "_hash")
    _size = 16

    def __init__(self, value: bytes) -> None:
        if not isinstance(value, bytes) or len(value) != self._size:
            raise ValueError(f"{type(self).__name__} requires exactly {self._size} bytes")
        _put_value(self, value)
        _put_hash(self, hash(value))

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        # Rebuilt from the bytes, so the hash is recomputed under the loading process's seed.
        return (type(self), (self.value,))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is self.__class__:
            return self.value == other.value
        return NotImplemented

    def __lt__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.value < other.value
        return NotImplemented

    @classmethod
    def fresh(cls, source: Callable[[], bytes] | None = None):
        """Draw a new random identifier, optionally from a custom byte source."""
        return cls(source() if source is not None else secrets.token_bytes(cls._size))

    @classmethod
    def from_int(cls, n: int):
        return cls(n.to_bytes(cls._size, "big"))

    @classmethod
    def from_hex(cls, s: str):
        return cls(bytes.fromhex(s))

    @property
    def hex(self) -> str:
        return self.value.hex()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.value.hex()})"


# The slots' own setters: construction writes past the immutable `__setattr__`.
_put_value, _put_hash = _OpaqueId.value.__set__, _OpaqueId._hash.__set__


class ActionId(_OpaqueId):
    """Globally unique node identity within and across graphs."""

    __slots__ = ()


# Sorting on the raw bytes orders ids exactly as their own comparison does,
# without a Python-level comparison per step.
_id_bytes = attrgetter("value")


_TS_MIN = -(2**63)
_TS_MAX = 2**63 - 1


@dataclass(frozen=True, order=True)
class Timestamp:
    """Microseconds since epoch as a signed 64-bit integer.

    Integer microseconds stand in for real-valued time so that the strict
    ordering required along causal edges is decidable by exact comparison.
    """

    micros: int

    def __post_init__(self) -> None:
        _micros(self.micros)

    def __repr__(self) -> str:
        return f"Timestamp({self.micros})"


def _micros(value: object) -> int:
    """`value` as a timestamp's microseconds: an int in the signed 64-bit range, else ValueError."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError("Timestamp.micros must be an int")
    if not _TS_MIN <= value <= _TS_MAX:
        raise ValueError("Timestamp.micros outside the signed 64-bit range")
    return value


@dataclass(frozen=True, order=True)
class EventType:
    """Named event type drawn from a graph's declared finite type set.

    Names must be non-empty, at most 1024 characters, and free of control
    characters, so both serialization formats can always round-trip them.
    """

    name: str

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ValueError("EventType.name must be a non-empty string")
        if len(self.name) > 1024:
            raise ValueError("EventType.name must not exceed 1024 characters")
        if any(ord(ch) < 0x20 or ord(ch) == 0x7F for ch in self.name):
            raise ValueError("EventType.name must not contain control characters")

    def __repr__(self) -> str:
        return f"EventType({self.name!r})"


@dataclass(frozen=True)
class Violation:
    """One named defect found by a validator."""

    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


@dataclass(frozen=True)
class Diagnostics:
    """Outcome of a validation pass; ok exactly when no violations were found."""

    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok

    def codes(self) -> tuple[str, ...]:
        return tuple(v.code for v in self.violations)


def _as_edge(e) -> tuple[ActionId, ActionId]:
    a, b = e
    return (a, b)


@dataclass(frozen=True, eq=False, repr=False)
class TypedTemporalGraph:
    """Directed graph whose nodes carry timestamps, types and payloads.

    Nothing is assumed about rootedness or the interplay of edges and
    timestamps; those properties are what the validators diagnose. The
    timestamp and type maps must be total on the node set; payloads default
    to empty bytes for nodes they do not mention. Equality and hashing are
    structural over all fields. The canonical key behind them is built from
    raw values on the first comparison or hash and then cached, so building
    a graph sorts nothing.
    """

    nodes: frozenset[ActionId]
    edges: frozenset[tuple[ActionId, ActionId]]
    t: Mapping[ActionId, Timestamp]
    tau: Mapping[ActionId, EventType]
    type_set: frozenset[EventType]
    payloads: Mapping[ActionId, bytes] | None = None

    def __post_init__(self) -> None:
        nodes = frozenset(self.nodes)
        edges = frozenset(_as_edge(e) for e in self.edges)
        t = dict(self.t)
        tau = dict(self.tau)
        type_set = frozenset(self.type_set)
        raw_payloads = {} if self.payloads is None else dict(self.payloads)

        if not nodes:
            raise ValueError("graph must have at least one node")
        for a, b in edges:
            if a not in nodes or b not in nodes:
                raise ValueError(f"edge ({a.hex}, {b.hex}) has an endpoint outside the node set")
            if a == b:
                raise ValueError(f"self-loop on node {a.hex}")
        if set(t) != nodes:
            raise ValueError("timestamp map must be total on the node set")
        if set(tau) != nodes:
            raise ValueError("type map must be total on the node set")
        for n, ty in tau.items():
            if ty not in type_set:
                raise ValueError(f"node {n.hex} has type {ty.name!r} outside the declared type set")
        if not set(raw_payloads) <= nodes:
            raise ValueError("payload map mentions unknown nodes")
        payloads = {n: raw_payloads.get(n, b"") for n in nodes}

        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "type_set", type_set)
        object.__setattr__(self, "payloads", payloads)

        object.__setattr__(self, "_key", None)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_children", None)
        object.__setattr__(self, "_indeg", None)

    @classmethod
    def trivial(
        cls,
        node: ActionId,
        ts: Timestamp,
        event_type: EventType,
        payload: bytes = b"",
        type_set: Iterable[EventType] | None = None,
    ) -> "TypedTemporalGraph":
        """Single-node graph with no edges."""
        return cls(
            nodes=frozenset({node}),
            edges=frozenset(),
            t={node: ts},
            tau={node: event_type},
            type_set=frozenset({event_type}) if type_set is None else frozenset(type_set),
            payloads={node: payload},
        )

    @classmethod
    def _unchecked(
        cls,
        nodes: frozenset[ActionId],
        edges: frozenset[tuple[ActionId, ActionId]],
        t: dict[ActionId, Timestamp],
        tau: dict[ActionId, EventType],
        type_set: frozenset[EventType],
        payloads: dict[ActionId, bytes],
    ) -> "TypedTemporalGraph":
        """A graph whose fields are well formed by construction, stored as given.

        The caller guarantees what `__post_init__` checks and converts to:
        frozensets of nodes, edge pairs and types; timestamp, type and payload
        dicts total on the nodes; edges and types inside their sets. The
        bounded enumeration renames checked graphs injectively this way.
        """
        g = object.__new__(cls)
        vars(g).update(
            nodes=nodes, edges=edges, t=t, tau=tau, type_set=type_set, payloads=payloads,
            _key=None, _hash=None, _children=None, _indeg=None,
        )
        return g

    def _canonical_key(self) -> tuple:
        """The graph's canonical form, built on first use and then cached.

        Six parts of primitives (id bytes, microseconds, type names, payload
        bytes): the sorted ids, the sorted edges, the timestamp and type
        columns in id order, the sorted type set and the payload column in id
        order. That orders graphs exactly as sorting the nodes, edges, maps
        and type set as objects does.
        """
        key = self._key  # type: ignore[attr-defined]
        if key is None:
            order = sorted(self.nodes, key=_id_bytes)
            t, tau, payloads = self.t, self.tau, self.payloads
            key = (
                tuple(n.value for n in order),
                tuple(sorted((a.value, b.value) for a, b in self.edges)),
                tuple(t[n].micros for n in order),
                tuple(tau[n].name for n in order),
                tuple(sorted(ty.name for ty in self.type_set)),
                tuple(payloads[n] for n in order),
            )
            object.__setattr__(self, "_key", key)
        return key

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, TypedTemporalGraph):
            return NotImplemented
        return self._canonical_key() == other._canonical_key()

    def __hash__(self) -> int:
        h = self._hash  # type: ignore[attr-defined]
        if h is None:
            h = hash(self._canonical_key())
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        return f"TypedTemporalGraph(nodes={len(self.nodes)}, edges={len(self.edges)})"

    def children_map(self) -> dict[ActionId, tuple[ActionId, ...]]:
        """Successors of every node, sorted for deterministic iteration."""
        cached = self._children  # type: ignore[attr-defined]
        if cached is None:
            out: dict[ActionId, list[ActionId]] = {n: [] for n in self.nodes}
            for a, b in self.edges:
                out[a].append(b)
            cached = {n: tuple(sorted(cs, key=_id_bytes)) for n, cs in out.items()}
            object.__setattr__(self, "_children", cached)
        return cached

    def in_degrees(self) -> dict[ActionId, int]:
        cached = self._indeg  # type: ignore[attr-defined]
        if cached is None:
            cached = {n: 0 for n in self.nodes}
            for _, b in self.edges:
                cached[b] += 1
            object.__setattr__(self, "_indeg", cached)
        return cached

    def in_degree(self, n: ActionId) -> int:
        return self.in_degrees()[n]

    def is_subgraph_of(self, other: "TypedTemporalGraph") -> bool:
        """True when `other` extends this graph and restricts back to it exactly.

        Extension preserves every node, edge, timestamp, type and payload of
        the smaller graph; only new material may appear in the larger one.
        """
        if not (self.nodes <= other.nodes and self.edges <= other.edges):
            return False
        return all(
            other.t[n] == self.t[n]
            and other.tau[n] == self.tau[n]
            and other.payloads[n] == self.payloads[n]
            for n in self.nodes
        )


class Cteg:
    """A valid causal-temporal event graph: its root, its declared type set and its rows.

    One plain row (id bytes, parent id bytes or None, microseconds, type,
    payload) per node, in projection order (see `projection_rows`); the type
    set may name types no node uses. Holding a Cteg is proof of
    well-formedness: the public constructor validates a graph, raising
    ValidationFailedError on any defect, and keeps it; `NodeTable.to_cteg`
    orders rows its own check proved. `graph` and `parent_map` are built
    from the rows on first use. Traces are equal when their type sets and
    rows are, which for valid traces is exactly equality of their graphs.
    """

    __slots__ = ("root", "_rows", "_types", "_graph", "_parents")

    def __init__(self, graph: TypedTemporalGraph, root: ActionId) -> None:
        diag = validate_cteg(graph, root)
        if not diag.ok:
            raise ValidationFailedError(diag)
        parents = {b: a for a, b in graph.edges}
        t, tau, payloads = graph.t, graph.tau, graph.payloads
        rows = _in_projection_order(_plain_rows((n, parents.get(n), t[n], tau[n], payloads[n]) for n in t))
        self._fill(root, rows, graph.type_set, graph, None)

    @classmethod
    def _proved(cls, rows: tuple[_Plain, ...], type_set: frozenset[EventType] | None = None) -> "Cteg":
        """The trace of rows already proved valid and in projection order, stored without validation.

        Without a type set it declares the types in use.
        """
        if type_set is None:
            kinds = list(map(itemgetter(3), rows))
            # A trace holds few type objects, so they are deduplicated by identity before any is hashed.
            type_set = frozenset(dict(zip(map(id, kinds), kinds)).values())
        c = object.__new__(cls)
        c._fill(ActionId(rows[0][0]), rows, type_set, None, None)
        return c

    def _fill(self, *values) -> None:
        for name, value in zip(Cteg.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError("Cteg is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return (Cteg._proved, (self._rows, self._types))

    @property
    def graph(self) -> TypedTemporalGraph:
        """The trace as a typed temporal graph, built on first access."""
        g = self._graph
        if g is None:
            g = graph_from_rows(_objects(self._rows), self._types)
            object.__setattr__(self, "_graph", g)
        return g

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Cteg):
            return NotImplemented
        return self._types == other._types and self._rows == other._rows  # the first row is the root's

    def __hash__(self) -> int:
        return hash((self._types, self._rows))

    def __repr__(self) -> str:
        return f"Cteg(root={self.root.hex[:8]}, nodes={len(self._rows)})"

    def parent_map(self) -> dict[ActionId, ActionId]:
        """Unique parent of every non-root node, keyed in projection order."""
        parents = self._parents
        if parents is None:
            parents = dict(islice(_ids(self._rows), 1, None))
            object.__setattr__(self, "_parents", parents)
        return parents


Row = tuple[ActionId, ActionId | None, Timestamp, EventType, bytes]
_Plain = tuple[bytes, bytes | None, int, EventType, bytes]


def _in_projection_order(rows: Iterable[_Plain]) -> tuple[_Plain, ...]:
    """Plain rows sorted by (microseconds, id): one keyed sort, linear when they already are in that order."""
    return tuple(sorted(rows, key=itemgetter(2, 0)))


def _plain_rows(rows: Iterable[Row]) -> list[_Plain]:
    """Object rows as plain rows; the first timestamp that is not a `Timestamp` raises TypeError."""
    out = []
    for node, parent, ts, event_type, payload in rows:
        if not isinstance(ts, Timestamp):
            raise TypeError(f"timestamp of node {node.hex} must be a Timestamp, not {type(ts).__name__}")
        out.append((node.value, None if parent is None else parent.value, ts.micros, event_type, payload))
    return out


def _ids(rows: Iterable[_Plain]) -> Iterator[tuple[ActionId, ActionId | None]]:
    """The (node, parent or None) ids of plain rows as `ActionId`s, one object per distinct id."""
    ids: dict[bytes, ActionId] = {}
    for node, parent, _, _, _ in rows:
        ids[node] = n = ActionId(node)
        yield n, parent if parent is None else ids.get(parent) or ActionId(parent)


def _objects(rows: Sequence[_Plain]) -> Iterator[Row]:
    """Object rows of plain rows, with one `ActionId` per distinct id and one `Timestamp` per row."""
    for (node, parent), (_, _, micros, event_type, payload) in zip(_ids(rows), rows):
        yield node, parent, Timestamp(micros), event_type, payload


def graph_from_rows(rows: Iterable[Row], type_set: Iterable[EventType] | None = None) -> TypedTemporalGraph:
    """The graph of node-table rows (node, parent or None, timestamp, type, payload).

    Edges follow parent pointers; the type set is `type_set` when given and
    the types in use otherwise. Only representability is checked
    (ValueError); well-formedness is for `Cteg`.
    """
    edges: list[tuple[ActionId, ActionId]] = []
    t: dict[ActionId, Timestamp] = {}
    tau: dict[ActionId, EventType] = {}
    payloads: dict[ActionId, bytes] = {}
    for node, parent, ts, event_type, payload in rows:
        if node in t:
            raise ValueError(f"node {node.hex} appears in more than one row")
        if parent is not None:
            edges.append((parent, node))
        t[node], tau[node], payloads[node] = ts, event_type, payload
    types = frozenset(tau.values()) if type_set is None else frozenset(type_set)
    return TypedTemporalGraph(frozenset(t), frozenset(edges), t, tau, types, payloads)


def projection_rows(c: Cteg) -> list[Row]:
    """The trace's rows in temporal projection order, so every parent comes first.

    Timestamps rise strictly along every edge, so sorting the rows by
    (timestamp, node id) lists each parent before its children. The list
    and its id and timestamp objects are built on each call.
    """
    return list(_objects(c._rows))


class NodeTable:
    """Append-only plain node rows whose every prefix is a valid CTEG; owners serialize access.

    A row is (id bytes, parent id bytes or None, microseconds, `EventType`,
    payload bytes), and `t` maps id bytes to microseconds; `_plain_rows`
    converts object rows. `check` is the one incremental check of the row
    invariant (parent present, fresh id, strictly later timestamp, one root,
    an `EventType` and a bytes payload) and the proof of `to_cteg`;
    `validate_cteg` is the whole-graph reference.
    """

    __slots__ = ("rows", "t")

    def __init__(self) -> None:
        self.rows: list[_Plain] = []
        self.t: dict[bytes, int] = {}

    def time_of(self, parent: bytes) -> int:
        """The microseconds of a node that rows may hang under."""
        micros = self.t.get(parent)
        if micros is None:
            raise UnknownParentError(f"parent {parent.hex()} is not in the table")
        return micros

    def check(self, rows: Sequence[_Plain]) -> dict[bytes, int]:
        """Check a batch (parents may come earlier in it); return its `{node: micros}`, admitting nothing."""
        t = self.t
        new: dict[bytes, int] = {}
        for node, parent, micros, event_type, payload in rows:
            if not isinstance(payload, bytes):
                raise TypeError(f"payload of node {node.hex()} must be bytes, not {type(payload).__name__}")
            if not isinstance(event_type, EventType):
                raise TypeError(f"type of node {node.hex()} must be an EventType, not {type(event_type).__name__}")
            if node in t or node in new:
                raise DuplicateNodeError(f"node {node.hex()} is already in the table")
            if parent is None:
                if t or new:
                    raise DuplicateRootError("the table already has a parentless root row")
            else:
                pt = t.get(parent, new.get(parent))  # not `or`: a time may be 0
                if pt is None:
                    raise UnknownParentError(f"parent {parent.hex()} is not in the table")
                if not pt < micros:
                    raise TimestampOrderError(f"node {node.hex()} t={micros} not above parent t={pt}")
            new[node] = micros
        return new

    def admit(self, rows: Sequence[_Plain], new: dict[bytes, int]) -> None:
        """Append a batch that `check` returned `new` for."""
        self.rows.extend(rows)
        self.t.update(new)

    def append(self, rows: Sequence[_Plain]) -> None:
        """Check a batch and admit it whole, or raise and admit none of it."""
        self.admit(rows, self.check(rows))

    def graft(self, p: bytes, child: "NodeTable") -> None:
        """Append a valid child table under `p`, checking only disjointness and the new edge."""
        pt = self.time_of(p)
        if not self.t.keys().isdisjoint(child.t):
            raise DuplicateNodeError("child table shares node ids with this table")
        root, _, root_ts, root_type, payload = child.rows[0]
        if not pt < root_ts:
            raise TimestampOrderError(f"attach point t={pt} is not strictly below grafted root t={root_ts}")
        self.rows.append((root, p, root_ts, root_type, payload))
        self.rows.extend(islice(child.rows, 1, None))
        self.t.update(child.t)

    def to_cteg(self) -> Cteg:
        """The table's trace, built without a second proof; it declares the types in use.

        The row check is the proof, and the sort into projection order is
        linear on rows already in it, as canonical text and stores list them.
        """
        return Cteg._proved(_in_projection_order(self.rows))


def validate_causal_graph(g: TypedTemporalGraph, r: ActionId) -> Diagnostics:
    """Diagnose whether `g` is an arborescence rooted at `r`.

    Never raises: any graph is accepted for inspection and every violated
    condition is reported with the offending node or edge.
    """
    violations: list[Violation] = []
    if r not in g.nodes:
        return Diagnostics((Violation("unknown-root", f"root {r.hex} is not a node of the graph"),))

    # Valid input has no offenders, so only offenders are sorted.
    indeg = g.in_degrees()
    if indeg[r]:
        for a, b in sorted(e for e in g.edges if e[1] == r):
            violations.append(Violation("edge-into-root", f"edge ({a.hex}, {b.hex}) points into the root"))
    for n in sorted(n for n, d in indeg.items() if d != 1 and n != r):
        violations.append(
            Violation("in-degree", f"node {n.hex} has in-degree {indeg[n]}, expected exactly 1")
        )

    children = g.children_map()
    reachable = {r}
    queue = deque([r])
    while queue:
        for c in children[queue.popleft()]:
            if c not in reachable:
                reachable.add(c)
                queue.append(c)
    for n in sorted(g.nodes - reachable):
        violations.append(Violation("unreachable", f"node {n.hex} is not reachable from the root"))

    # Kahn peel; whatever cannot be peeled sits on or behind a cycle.
    remaining = dict(indeg)
    queue = deque(n for n in g.nodes if remaining[n] == 0)
    seen = 0
    while queue:
        seen += 1
        for c in children[queue.popleft()]:
            remaining[c] -= 1
            if remaining[c] == 0:
                queue.append(c)
    if seen != len(g.nodes):
        stuck = sorted(n for n in g.nodes if remaining[n] > 0)
        names = ", ".join(n.hex for n in stuck)
        violations.append(Violation("cycle", f"cycle detected involving nodes {names}"))

    return Diagnostics(tuple(violations))


def validate_cteg(g: TypedTemporalGraph, r: ActionId) -> Diagnostics:
    """Diagnose `g` as a CTEG rooted at `r`.

    On top of the arborescence conditions, timestamps must strictly increase
    along every edge; checking edge-wise suffices by transitivity.
    """
    base = validate_causal_graph(g, r)
    violations = list(base.violations)
    if r in g.nodes:
        t = g.t
        for a, b in sorted(e for e in g.edges if t[e[0]].micros >= t[e[1]].micros):
            violations.append(
                Violation(
                    "edge-timestamp",
                    f"edge ({a.hex}, {b.hex}) has t={t[a].micros} not strictly below t={t[b].micros}",
                )
            )
    return Diagnostics(tuple(violations))


def causal_path(c: Cteg, n: ActionId) -> tuple[ActionId, ...]:
    """The unique directed path from the root to `n`, inclusive on both ends."""
    parents = c.parent_map()
    if n not in parents and n != c.root:
        raise UnknownNodeError(f"node {n.hex} is not in the graph")
    path = [n]
    while path[-1] != c.root:
        path.append(parents[path[-1]])
    path.reverse()
    return tuple(path)


def graft(
    g1: TypedTemporalGraph,
    p: ActionId,
    g2: TypedTemporalGraph,
    r2: ActionId,
) -> TypedTemporalGraph:
    """Union of two node-disjoint graphs plus the single new edge (p, r2).

    Timestamp, type and payload maps are merged; the declared type sets are
    merged by union. No temporal compatibility is checked here.
    """
    if p not in g1.nodes:
        raise UnknownNodeError(f"attach point {p.hex} is not in the host graph")
    if r2 not in g2.nodes:
        raise UnknownNodeError(f"graft root {r2.hex} is not in the grafted graph")
    overlap = g1.nodes & g2.nodes
    if overlap:
        sample = ", ".join(n.hex for n in sorted(overlap)[:3])
        raise DisjointnessError(f"node sets overlap ({len(overlap)} shared, e.g. {sample})")
    return TypedTemporalGraph(
        nodes=g1.nodes | g2.nodes,
        edges=g1.edges | g2.edges | {(p, r2)},
        t={**g1.t, **g2.t},
        tau={**g1.tau, **g2.tau},
        type_set=g1.type_set | g2.type_set,
        payloads={**g1.payloads, **g2.payloads},
    )


def graft_cteg(c1: Cteg, p: ActionId, c2: Cteg) -> Cteg:
    """Compose two CTEGs by grafting `c2` under node `p` of `c1`.

    Succeeds exactly when t(p) < t(root of c2); the grafted edge is the only
    place where well-formedness could break, so this check is necessary and
    sufficient.
    """
    g = graft(c1.graph, p, c2.graph, c2.root)
    if not c1.graph.t[p] < c2.graph.t[c2.root]:
        raise CompatibilityError(
            f"attach point t={c1.graph.t[p].micros} is not strictly below grafted root "
            f"t={c2.graph.t[c2.root].micros}"
        )
    return Cteg(g, c1.root)


def temporal_projection(c: Cteg) -> tuple[ActionId, ...]:
    """Enumerate all nodes in nondecreasing timestamp order.

    Ties are broken by ascending node id so the projection is a deterministic
    function of the graph. It is the node column of `projection_rows`.
    """
    return tuple(map(ActionId, map(itemgetter(0), c._rows)))


def height(c: Cteg) -> int:
    """Edge count of the longest root-to-leaf path."""
    rows = c._rows
    depth = {rows[0][0]: 0}
    for row in islice(rows, 1, None):  # every parent comes first
        depth[row[0]] = depth[row[1]] + 1
    return max(depth.values())


def graph_text(g: TypedTemporalGraph) -> str:
    """Compact canonical one-line rendering of a typed temporal graph.

    Node entries are sorted by id as `id@micros:type` (with `=base64` only
    for non-empty payloads); edges are sorted pairs. Two graphs are equal
    exactly when their renderings are, making this suitable for golden
    listings.
    """
    ids, edges, micros, names, type_names, payloads = g._canonical_key()
    nodes = ",".join(
        f"{n.hex()}@{m}:{name}" + (f"={base64.b64encode(p).decode('ascii')}" if p else "")
        for n, m, name, p in zip(ids, micros, names, payloads)
    )
    arcs = ",".join(f"{a.hex()}>{b.hex()}" for a, b in edges)
    return f"types{{{','.join(type_names)}}};nodes{{{nodes}}};edges{{{arcs}}}"
