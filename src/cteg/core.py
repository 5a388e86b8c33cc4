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
rows is a CTEG, and its row check proves every trace; `validate_cteg` only
words a rejection. Its rows, and a `Cteg`'s, hold plain values: id bytes and
integer microseconds. Id and timestamp objects are built only where the
API hands them out, such as `projection_rows` and `Cteg.graph`.
"""

from __future__ import annotations

import base64
import secrets
from bisect import bisect
from collections import deque
from dataclasses import FrozenInstanceError, dataclass, field
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


def _refuse(self, name: str, value: object = None) -> None:
    """The one `__setattr__` and `__delattr__` of every immutable value: it refuses every name."""
    raise FrozenInstanceError(f"{type(self).__name__} is immutable")


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

    __setattr__ = __delattr__ = _refuse

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


_slot_setters: dict[type, tuple] = {}  # each class's slot setters, in the order of its own `__slots__`


def _new(cls, *values):
    """An instance of the slotted class `cls` holding `values` in its own slots, in declaration order.

    The one way an immutable value is built without its checks: the caller
    guarantees what the checked constructor would prove and convert.
    """
    obj = object.__new__(cls)
    setters = _slot_setters.get(cls)
    if setters is None:
        setters = _slot_setters[cls] = tuple(getattr(cls, name).__set__ for name in cls.__slots__)
    for put, value in zip(setters, values):
        put(obj, value)
    return obj


def _frozen(cls):
    """A frozen slotted dataclass given `_refuse` as its setters.

    `slots=True` builds a new class, and the setters `frozen=True` generated
    still name the old one, so on Python 3.10 and 3.11 a name that is not a
    field raised TypeError from `super()`, not FrozenInstanceError.
    """
    cls.__setattr__ = cls.__delattr__ = _refuse
    return cls


_TS_MIN = -(2**63)
_TS_MAX = 2**63 - 1


@_frozen
@dataclass(frozen=True, order=True, slots=True)
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


@_frozen
@dataclass(frozen=True, order=True, slots=True)
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


@_frozen
@dataclass(frozen=True, slots=True)
class Violation:
    """One named defect found by a validator."""

    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


@_frozen
@dataclass(frozen=True, slots=True)
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


@_frozen
@dataclass(frozen=True, eq=False, repr=False, slots=True)
class TypedTemporalGraph:
    """Directed graph whose nodes carry timestamps, types and payloads.

    Nothing is assumed about rootedness or the interplay of edges and
    timestamps; those properties are what the validators diagnose. The
    timestamp and type maps must be total on the node set; payloads default
    to empty bytes for nodes they do not mention. The constructor copies the
    three maps, so the graph's maps are its own; callers must not edit them.
    Equality and hashing are structural over all fields. The canonical key
    behind them is built from raw values on the first comparison or hash and
    then cached, so building a graph sorts nothing.
    """

    nodes: frozenset[ActionId]
    edges: frozenset[tuple[ActionId, ActionId]]
    t: Mapping[ActionId, Timestamp]
    tau: Mapping[ActionId, EventType]
    type_set: frozenset[EventType]
    payloads: Mapping[ActionId, bytes] | None = None
    _key: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        nodes = frozenset(self.nodes)
        edges = frozenset((a, b) for a, b in self.edges)
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
    def _unchecked(cls, nodes, edges, t, tau, type_set, payloads) -> "TypedTemporalGraph":
        """A graph whose fields are well formed by construction, stored as given.

        The caller guarantees what `__post_init__` checks and converts to:
        frozensets, dicts total on the nodes, edges and types inside their sets.
        """
        return _new(cls, nodes, edges, t, tau, type_set, payloads, None, None)

    def __reduce__(self):
        # The cached hash is left behind: it depends on the hash seed of the process that made it.
        return (TypedTemporalGraph._unchecked, (self.nodes, self.edges, self.t, self.tau, self.type_set, self.payloads))

    def _canonical_key(self) -> tuple:
        """The graph's canonical form in primitives, built on first use and then cached.

        The sorted ids and edges, the timestamp and type columns in id order,
        the sorted type names and the payload column in id order. That orders
        graphs exactly as sorting those parts as objects does.
        """
        key = self._key
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
        h = self._hash
        if h is None:
            h = hash(self._canonical_key())
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        return f"TypedTemporalGraph(nodes={len(self.nodes)}, edges={len(self.edges)})"

    def children_map(self) -> dict[ActionId, tuple[ActionId, ...]]:
        """Successors of every node, sorted for deterministic iteration; a new dict on each call."""
        out: dict[ActionId, list[ActionId]] = {n: [] for n in self.nodes}
        for a, b in self.edges:
            out[a].append(b)
        return {n: tuple(sorted(cs, key=_id_bytes)) for n, cs in out.items()}

    def in_degrees(self) -> dict[ActionId, int]:
        """In-degree of every node; a new dict on each call."""
        out = dict.fromkeys(self.nodes, 0)
        for _, b in self.edges:
            out[b] += 1
        return out

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
    well-formedness by `NodeTable.check`: the public constructor also checks
    that no edge was lost to a second parent and that the first row is
    `root`, and on any defect raises ValidationFailedError with the
    diagnostics of `validate_cteg`. `graph` is built from the rows on first
    use and then kept. Traces are equal when their type sets and rows are,
    which for valid traces is exactly equality of their graphs.
    """

    __slots__ = ("root", "_rows", "_types", "_graph")

    def __new__(cls, graph: TypedTemporalGraph, root: ActionId) -> "Cteg":
        parents = {b: a for a, b in graph.edges}
        t, tau, payloads = graph.t, graph.tau, graph.payloads
        rows = _in_projection_order(_plain_rows((n, parents.get(n), t[n], tau[n], payloads[n]) for n in t))
        try:  # rows cannot show an edge lost to a second parent, nor which node was named root
            NodeTable().check(rows)
            proved = len(parents) == len(graph.edges) and ActionId(rows[0][0]) == root
        except StoreError:
            proved = False
        if not proved:
            raise ValidationFailedError(validate_cteg(graph, root))
        return _new(cls, root, rows, graph.type_set, graph)

    @classmethod
    def _proved(cls, rows: tuple[_Plain, ...], type_set: frozenset[EventType] | None = None) -> "Cteg":
        """The trace of rows proved valid and in projection order; without a type set, the types in use."""
        if type_set is None:
            kinds = list(map(itemgetter(3), rows))
            # A trace holds few type objects, so they are deduplicated by identity before any is hashed.
            type_set = frozenset(dict(zip(map(id, kinds), kinds)).values())
        return _new(cls, ActionId(rows[0][0]), rows, type_set, None)

    __setattr__ = __delattr__ = _refuse

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
        """Unique parent of every non-root node, keyed in projection order; a new dict on each call."""
        return dict(islice(_ids(self._rows), 1, None))


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
    """The trace's rows sorted by (timestamp, node id), so every parent comes first.

    The list and its id and timestamp objects are built on each call.
    """
    return list(_objects(c._rows))


class NodeTable:
    """Append-only plain node rows whose every prefix is a valid CTEG; owners serialize access.

    A row is (id bytes, parent id bytes or None, microseconds, `EventType`,
    payload bytes), and `t` maps id bytes to microseconds; `_plain_rows`
    converts object rows. `check` is the one incremental check of the row
    invariant (parent present, fresh id, strictly later timestamp, one root,
    an `EventType` and a bytes payload) and the proof of every `Cteg`;
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
        pt = self.t.get(p)
        if pt is None:
            raise UnknownParentError(f"attach point {p.hex()} is not in the host graph")
        if not self.t.keys().isdisjoint(child.t):
            shared = sorted(self.t.keys() & child.t.keys())
            raise DuplicateNodeError(f"node sets overlap ({len(shared)} shared, e.g. {', '.join(map(bytes.hex, shared[:3]))})")
        root, _, root_ts, root_type, payload = child.rows[0]
        if not pt < root_ts:
            raise TimestampOrderError(f"attach point t={pt} is not strictly below grafted root t={root_ts}")
        self.rows.append((root, p, root_ts, root_type, payload))
        self.rows.extend(islice(child.rows, 1, None))
        self.t.update(child.t)

    def to_cteg(self) -> Cteg:
        """The table's trace, built without a second proof; it declares the types in use.

        The sort into projection order is linear on rows already in it.
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

    # Kahn peel, which uses up the degrees; whatever cannot be peeled sits on or behind a cycle.
    queue = deque(n for n in g.nodes if indeg[n] == 0)
    seen = 0
    while queue:
        seen += 1
        for c in children[queue.popleft()]:
            indeg[c] -= 1
            if indeg[c] == 0:
                queue.append(c)
    if seen != len(g.nodes):
        stuck = sorted(n for n in g.nodes if indeg[n] > 0)
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

    `NodeTable.graft`, the rule sessions use, checks the attach node, id
    disjointness and t(p) < t(root of c2), the one new edge, on the two
    traces' proved rows; the result declares both type sets.
    """
    host, child = NodeTable(), NodeTable()
    for table, rows in ((host, c1._rows), (child, c2._rows)):
        table.admit(rows, {row[0]: row[2] for row in rows})
    host.graft(p.value, child)
    merged, lo, key = [], 0, itemgetter(2, 0)
    for row in islice(host.rows, len(c1._rows), None):  # both runs are in projection order: bisect, do not sort
        hi = bisect(c1._rows, key(row), lo, key=key)
        merged += (*c1._rows[lo:hi], row)
        lo = hi
    return Cteg._proved((*merged, *c1._rows[lo:]), c1._types | c2._types)


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
    return _key_text(g._canonical_key())


def _key_text(key: tuple) -> str:
    """`graph_text` of the graph whose canonical key is `key`."""
    ids, edges, micros, names, type_names, payloads = key
    nodes = ",".join(
        f"{n.hex()}@{m}:{name}" + (f"={base64.b64encode(p).decode('ascii')}" if p else "")
        for n, m, name, p in zip(ids, micros, names, payloads)
    )
    arcs = ",".join(f"{a.hex()}>{b.hex()}" for a, b in edges)
    return f"types{{{','.join(type_names)}}};nodes{{{nodes}}};edges{{{arcs}}}"
