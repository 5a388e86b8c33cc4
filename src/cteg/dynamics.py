"""Step semantics of trace growth and the bounded recursion hierarchy.

Traces evolve from a single root by two local moves: a direct emission adds
a non-empty batch of new children under one existing node, and an invocation
grafts the final graph of a finished sub-execution at an attach node. An
execution sequence records the chain of graphs one move at a time, together
with step labels that witness how each extension was made. Chains built by
this library extend by construction and skip the pair-by-pair proof that
the public constructor runs (see `ExecutionSequence`).

On top of the step semantics this module provides:

- delta analysis (`is_emission_step` / `is_invocation_step`) that recognises
  a legal move purely from two successive graphs, without labels;
- `e0_normalize`, which rebuilds any valid CTEG as an emission-only sequence
  of its projection-order row prefixes, and `replicate_as_e0_invocation`,
  which swaps the sub-execution inside an invocation for its emission-only
  equivalent;
- membership checking for the recursive closure of the dynamics;
- an exhaustive bounded enumerator: `phi` maps a set of candidate
  sub-executions to every sequence buildable inside finite pools of node
  ids, timestamps and types, and `hierarchy` iterates it from the empty
  set. At desk scale this machine-checks that the levels ascend, that depth
  one is strictly richer than depth zero, that the chain stabilises, and
  that the stable set is a fixed point. Renaming node ids maps every level
  onto itself, so `phi` grows one representative per orbit under renaming
  and expands the orbits into their members at the end. Given back a level
  it returned, `phi` expands only the orbits derived differently from the
  level's and reuses the level's members for the rest.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from itertools import combinations_with_replacement, groupby, permutations, product, repeat
from operator import attrgetter, eq, itemgetter, le
from typing import AbstractSet, NamedTuple

from .core import (
    ActionId,
    CompatibilityError,
    Cteg,
    CtegError,
    Diagnostics,
    DisjointnessError,
    EventType,
    NodeTable,
    Timestamp,
    TypedTemporalGraph,
    UnknownNodeError,
    ValidationFailedError,
    Violation,
    _frozen,
    _new,
    _objects,
    _Plain,
    graft,
    graph_from_rows,
    graph_text,
    validate_cteg,
)

__all__ = [
    "EmptyEmissionError",
    "AttachPointError",
    "BudgetExceededError",
    "Emission",
    "Invocation",
    "StepLabel",
    "ExecutionSequence",
    "EmissionWitness",
    "InvocationWitness",
    "apply_emission",
    "apply_invocation",
    "is_emission_step",
    "is_invocation_step",
    "e0_normalize",
    "replicate_as_e0_invocation",
    "is_member_e_infinity",
    "UniverseBounds",
    "phi",
    "hierarchy",
    "canonical_listing",
]


class EmptyEmissionError(CtegError):
    """An emission step must add at least one node."""


class AttachPointError(CtegError):
    """No usable in-degree-zero attach node in a grafted sub-execution."""


class BudgetExceededError(CtegError):
    """The bounded enumeration exceeded its state-count budget."""


@_frozen
@dataclass(frozen=True, slots=True)
class Emission:
    """Step label: `emitted` nodes were added as children of `root`."""

    root: ActionId
    emitted: frozenset[ActionId]

    def __post_init__(self) -> None:
        object.__setattr__(self, "emitted", frozenset(self.emitted))
        if not self.emitted:
            raise EmptyEmissionError("emission label requires a non-empty emitted set")


@_frozen
@dataclass(frozen=True, slots=True)
class Invocation:
    """Step label: the final graph of `subtrace` was grafted under `root`.

    `attach` names the in-degree-zero node of the sub-execution's final graph
    that received the new edge. Only that final graph is ever consumed by the
    step; the sub-execution's construction history is opaque to the host.
    """

    root: ActionId
    subtrace: "ExecutionSequence"
    attach: ActionId

    def __post_init__(self) -> None:
        final = self.subtrace.final
        if self.attach not in final.nodes:
            raise AttachPointError(f"attach node {self.attach.hex} is not in the sub-execution's final graph")
        if final.in_degree(self.attach) != 0:
            raise AttachPointError(f"attach node {self.attach.hex} does not have in-degree zero")


StepLabel = Emission | Invocation


class _Prefixes(Sequence):
    """The graphs of a row-backed execution sequence, each built only when asked.

    Graph `k` is that of the plain rows `rows[:marks[k]]` under `type_set`,
    or under the types in use when it is None. Slices are views of the same
    rows, and no built graph is kept. A view equals any tuple or view of
    equal graphs and is unhashable. Two views with the same kind of type
    set and nondecreasing marks are compared from their rows alone: equal
    declared sets, and equal row sets between marks.
    """

    __slots__ = ("rows", "marks", "type_set")

    def __init__(self, rows: Sequence[_Plain], marks: Sequence[int], type_set: frozenset[EventType] | None) -> None:
        self.rows, self.marks, self.type_set = rows, marks, type_set

    def __len__(self) -> int:
        return len(self.marks)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return _Prefixes(self.rows, self.marks[k], self.type_set)
        return graph_from_rows(_objects(self.rows[: self.marks[k]]), self.type_set)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _Prefixes):
            if (self.type_set is None) is (other.type_set is None) and self._plain() and other._plain():
                a, b = self.marks, other.marks
                return (
                    len(a) == len(b)
                    and all(map(eq, a, b))
                    and self.type_set == other.type_set
                    and all(set(self.rows[lo:hi]) == set(other.rows[lo:hi]) for lo, hi in zip((0, *a), a))
                )
        elif not isinstance(other, tuple):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def _plain(self) -> bool:
        """Whether the marks rise or stay, from 0 up to at most the number of rows."""
        marks = self.marks
        return all(map(le, (0, *marks), (*marks, len(self.rows))))


class _Steps(Sequence):
    """The step labels of a row-backed execution sequence, each built only when asked.

    Label `k` is read from the rows between marks `k` and `k + 1`: the graft
    of `grafts[k]`, a child's history rooted at the first of them, or else
    the emission of them all under one parent. Slices are tuples; a view
    equals any tuple or view of equal labels.
    """

    __slots__ = ("rows", "marks", "grafts")

    def __init__(self, rows: Sequence[_Plain], marks: Sequence[int], grafts: Mapping[int, ExecutionSequence]) -> None:
        self.rows, self.marks, self.grafts = rows, marks, grafts

    def __len__(self) -> int:
        return len(self.marks) - 1

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(map(self.__getitem__, range(len(self))[k]))
        k = range(len(self))[k]
        rows, lo, sub = self.rows, self.marks[k], self.grafts.get(k)
        if sub is not None:
            return _new(Invocation, ActionId(rows[lo][1]), sub, ActionId(rows[lo][0]))
        emitted = frozenset(map(ActionId, map(itemgetter(0), rows[lo : self.marks[k + 1]])))
        return _new(Emission, ActionId(rows[lo][1]), emitted)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (tuple, _Steps)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))


@_frozen
@dataclass(frozen=True, eq=False, repr=False, slots=True)
class ExecutionSequence:
    """A finite chain of typed temporal graphs, each extending the last.

    Extension means every node, edge, timestamp, type and payload survives
    into the next graph. `steps` optionally carries one label per extension
    as a witness of how it was made; witness-free chains pass `steps=None`.
    Equality considers the graph chain only, so two sequences that built
    the same chain by differently labelled moves are the same element of
    the sequence space. Equal chains have equal lengths, final graphs and
    ids added by the last step (all ids of a one-graph chain), so the hash
    is that of the three, computed on first use and then cached; an id
    hashes as its bytes, so both forms below hash alike.

    A sequence has one of two forms; `graphs` and `steps` are tuples only
    in the first:

    - graph-backed, every graph held: the public constructor proves
      extension pair by pair; `phi` builds it through `_chain`, without
      the proof, from injectively renamed checked chains.
    - row-backed: one shared list of plain node-table rows, one mark (a
      row count) per state, and an optional declared type set (`_rows`),
      built by `Session.history` and `e0_normalize`. A prefix of one row
      list extends every shorter prefix, so nothing is proved. Indexing,
      slicing and iteration of `graphs` and `steps`, and `final`, build
      each graph or label they return and keep none. It equals, and hashes
      as, its graph-backed copy.
    """

    graphs: Sequence[TypedTemporalGraph]
    steps: Sequence[StepLabel] | None = None
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        graphs = tuple(self.graphs)
        if not graphs:
            raise ValueError("an execution sequence must contain at least one graph")
        for g, g2 in zip(graphs, graphs[1:]):
            if not g.is_subgraph_of(g2):
                raise ValueError("each graph must extend the previous one")
        steps = self.steps
        if steps is not None:
            steps = tuple(steps)
            if len(steps) != len(graphs) - 1:
                raise ValueError("need exactly one step label per extension")
        object.__setattr__(self, "graphs", graphs)
        object.__setattr__(self, "steps", steps)

    @classmethod
    def _chain(cls, graphs: Sequence[TypedTemporalGraph], steps: Sequence[StepLabel] | None):
        """A chain that extends by construction, built without the per-pair proof."""
        return _new(cls, graphs, steps, None)

    def __reduce__(self):  # leaves the cached hash behind, as a graph's `__reduce__` does
        return (ExecutionSequence._chain, (self.graphs, self.steps))

    @classmethod
    def _rows(cls, rows: Sequence[_Plain], marks: Sequence[int], steps: Sequence[StepLabel] | None, type_set=None):
        """The row-backed chain of the graphs of the plain rows `rows[:m]` and `type_set`, one per mark `m`."""
        return cls._chain(_Prefixes(rows, marks, type_set), steps)

    @property
    def final(self) -> TypedTemporalGraph:
        return self.graphs[-1]

    def __len__(self) -> int:
        return len(self.graphs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExecutionSequence):
            return NotImplemented
        return self.graphs == other.graphs

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            graphs = self.graphs
            if isinstance(graphs, _Prefixes):
                marks = graphs.marks
                added = frozenset(map(itemgetter(0), graphs.rows[marks[-2] if len(marks) > 1 else 0 : marks[-1]]))
            else:
                added = graphs[-1].nodes - graphs[-2].nodes if len(graphs) > 1 else graphs[-1].nodes
            h = hash((len(graphs), graphs[-1], added))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        return f"ExecutionSequence(len={len(self.graphs)}, final_nodes={len(self.final.nodes)})"


class EmissionWitness(NamedTuple):
    root: ActionId
    emitted: frozenset[ActionId]


class InvocationWitness(NamedTuple):
    root: ActionId
    graft: TypedTemporalGraph
    attach: ActionId


def apply_emission(
    g: TypedTemporalGraph,
    p: ActionId,
    new: Mapping[ActionId, tuple[Timestamp, EventType]],
    *,
    payloads: Mapping[ActionId, bytes] | None = None,
) -> TypedTemporalGraph:
    """Extend `g` with the nodes of `new`, each edged from `p`.

    Every new timestamp must strictly exceed t(p); new node ids must be
    disjoint from the existing ones. New types extend the declared type set.
    """
    if p not in g.nodes:
        raise UnknownNodeError(f"emission root {p.hex} is not in the graph")
    if not new:
        raise EmptyEmissionError("emission requires at least one new node")
    clash = set(new) & g.nodes
    if clash:
        raise DisjointnessError(f"emitted node {sorted(clash)[0].hex} already exists in the graph")
    for a, (ts, _ty) in new.items():
        if not g.t[p] < ts:
            raise CompatibilityError(
                f"emitted node {a.hex} has t={ts.micros}, not strictly above parent t={g.t[p].micros}"
            )
    extra_payloads = payloads or {}
    if not set(extra_payloads) <= set(new):
        raise UnknownNodeError("payloads given for nodes that are not being emitted")
    return TypedTemporalGraph(
        nodes=g.nodes | set(new),
        edges=g.edges | {(p, a) for a in new},
        t={**g.t, **{a: ts for a, (ts, _ty) in new.items()}},
        tau={**g.tau, **{a: ty for a, (_ts, ty) in new.items()}},
        type_set=g.type_set | {ty for _ts, ty in new.values()},
        payloads={**g.payloads, **{a: extra_payloads.get(a, b"") for a in new}},
    )


def apply_invocation(
    g: TypedTemporalGraph,
    p: ActionId,
    subtrace: ExecutionSequence,
    *,
    attach: ActionId | None = None,
) -> TypedTemporalGraph:
    """Graft the final graph of `subtrace` under node `p` of `g`.

    Only the final graph is consumed; how the sub-execution was built is
    never inspected. The attach node must have in-degree zero in the final
    graph and is inferred when it is unique (always the case when the final
    graph is a CTEG). Compatibility requires t(p) < t(attach).
    """
    final = subtrace.final
    if p not in g.nodes:
        raise UnknownNodeError(f"invocation root {p.hex} is not in the graph")
    indeg = final.in_degrees()
    if attach is None:
        candidates = sorted(n for n, d in indeg.items() if d == 0)
        if not candidates:
            raise AttachPointError("final graph has no in-degree-zero node to attach")
        if len(candidates) > 1:
            raise AttachPointError(
                "final graph has several in-degree-zero nodes; pass attach= explicitly"
            )
        attach = candidates[0]
    else:
        if attach not in final.nodes:
            raise AttachPointError(f"attach node {attach.hex} is not in the final graph")
        if indeg[attach] != 0:
            raise AttachPointError(f"attach node {attach.hex} does not have in-degree zero")
    if not g.t[p] < final.t[attach]:
        raise CompatibilityError(
            f"invocation root t={g.t[p].micros} is not strictly below attach t={final.t[attach].micros}"
        )
    return graft(g, p, final, attach)


def is_emission_step(g: TypedTemporalGraph, g2: TypedTemporalGraph) -> EmissionWitness | None:
    """Recognise `g2` as one emission step from `g` and return its witness.

    The delta must be a non-empty set of new nodes, each receiving exactly
    one new edge from a single shared parent in `g`, with strictly later
    timestamps and no other new edges anywhere.
    """
    if not g.is_subgraph_of(g2):
        return None
    new_nodes = g2.nodes - g.nodes
    if not new_nodes:
        return None
    new_edges = g2.edges - g.edges
    if len(new_edges) != len(new_nodes):
        return None
    sources = {a for a, _ in new_edges}
    targets = {b for _, b in new_edges}
    if len(sources) != 1 or targets != new_nodes:
        return None
    (p,) = sources
    if not all(g.t[p] < g2.t[a] for a in new_nodes):
        return None
    return EmissionWitness(p, frozenset(new_nodes))


def is_invocation_step(g: TypedTemporalGraph, g2: TypedTemporalGraph) -> InvocationWitness | None:
    """Recognise `g2` as one invocation step from `g` and return its witness.

    The delta must be attached by exactly one crossing edge (p, q) with
    t(p) < t(q), q having no other incoming edge inside the delta. The
    grafted graph is the induced subgraph on the delta; whether it is a
    valid CTEG is deliberately not checked here.
    """
    if not g.is_subgraph_of(g2):
        return None
    delta = g2.nodes - g.nodes
    if not delta:
        return None
    new_edges = g2.edges - g.edges
    crossing: list[tuple[ActionId, ActionId]] = []
    internal: set[tuple[ActionId, ActionId]] = set()
    for a, b in new_edges:
        if a in g.nodes and b in delta:
            crossing.append((a, b))
        elif a in delta and b in delta:
            internal.add((a, b))
        else:
            return None  # new edge among old nodes, or from the delta back into them
    if len(crossing) != 1:
        return None
    p, q = crossing[0]
    if any(b == q for _, b in internal):
        return None
    if not g.t[p] < g2.t[q]:
        return None
    grafted = TypedTemporalGraph(
        nodes=frozenset(delta),
        edges=frozenset(internal),
        t={n: g2.t[n] for n in delta},
        tau={n: g2.tau[n] for n in delta},
        type_set=g2.type_set,
        payloads={n: g2.payloads[n] for n in delta},
    )
    return InvocationWitness(p, grafted, q)


def e0_normalize(c: Cteg) -> ExecutionSequence:
    """Rebuild `c` as an emission-only sequence whose final graph equals `c`.

    The schedule starts from the single root and emits one non-root node per
    step, in nondecreasing timestamp order with node-id tie-breaking, each
    from its unique parent. The sequence therefore has exactly as many graphs
    as `c` has nodes: the prefixes of `projection_rows(c)`, each declaring
    the type set of `c`. It is row-backed (see `ExecutionSequence`) over the
    trace's own rows, and builds each label only when it is read.
    """
    rows, marks = c._rows, range(1, len(c._rows) + 1)
    return ExecutionSequence._rows(rows, marks, _Steps(rows, marks, {}), c._types)


def replicate_as_e0_invocation(step: Invocation) -> Invocation:
    """Replace an invocation's sub-execution by its emission-only equivalent.

    The final graph, attach node and invocation root are preserved exactly,
    so applying either step to any compatible host graph yields an identical
    result. Requires the final graph to be a valid CTEG rooted at the attach
    node.
    """
    if not isinstance(step, Invocation):
        raise TypeError("replicate_as_e0_invocation expects an Invocation step")
    try:
        sub = Cteg(step.subtrace.final, step.attach)
    except ValidationFailedError as exc:
        raise ValidationFailedError(exc.diagnostics, "sub-execution final graph is not a valid CTEG") from None
    return Invocation(root=step.root, subtrace=e0_normalize(sub), attach=step.attach)


def _is_trivial(g: TypedTemporalGraph) -> bool:
    return len(g.nodes) == 1 and not g.edges


def is_member_e_infinity(seq: ExecutionSequence) -> Diagnostics:
    """Check membership in the recursive closure of the dynamics.

    A sequence belongs exactly when its initial graph is a single root and
    every extension is either an emission step or an invocation step whose
    grafted delta is a valid CTEG rooted at the attach node. The check runs
    witness-free on graph deltas, so step labels never influence the verdict.
    Every prefix of a member is again a member by construction.

    A row-backed sequence is proved in one `NodeTable` pass over its rows
    (`_row_proofs`); what the rows do not prove goes through the graphs,
    which word the messages as for a graph-backed sequence.
    """
    graphs = seq.graphs
    proofs = _row_proofs(graphs) if isinstance(graphs, _Prefixes) else repeat(False)
    violations: list[Violation] = []
    if not next(proofs):
        g0 = graphs[0]
        if not _is_trivial(g0):
            violations.append(
                Violation(
                    "initial-not-trivial",
                    f"initial graph has {len(g0.nodes)} nodes and {len(g0.edges)} edges, expected a single root",
                )
            )
    for k, proved in zip(range(len(graphs) - 1), proofs):
        if proved:
            continue
        g, g2 = graphs[k], graphs[k + 1]
        if is_emission_step(g, g2) is not None:
            continue
        w = is_invocation_step(g, g2)
        if w is not None:
            sub = validate_cteg(w.graft, w.attach)
            if sub.ok:
                continue
            detail = "; ".join(str(v) for v in sub.violations)
            violations.append(
                Violation("step-invalid", f"step {k}: grafted delta is not a valid CTEG ({detail})")
            )
            continue
        violations.append(
            Violation("step-invalid", f"step {k}: neither an emission step nor an invocation step")
        )
    return Diagnostics(tuple(violations))


def _row_proofs(view: _Prefixes) -> Iterator[bool]:
    """Whether the rows alone prove the initial state, then each step, legal.

    One `NodeTable` admits each state's delta in order, proving every state
    a valid CTEG, and parent pointers give a step's shape: the initial state
    is one row; an emission hangs every row from the first row's parent, an
    invocation every row after the first inside the delta. A delta that is
    empty, holds an undeclared type or is refused ends the proofs, and later
    states are left to the graphs, which accept whatever these prove.
    """
    rows, type_set, table, lo = view.rows, view.type_set, NodeTable(), 0
    for hi in view.marks:
        delta = rows[lo:hi]
        if not delta or (type_set is not None and not type_set.issuperset(map(itemgetter(3), delta))):
            break
        try:
            new = table.check(delta)
        except CtegError:
            break
        table.admit(delta, new)
        if not lo:  # the initial state
            yield len(delta) == 1
        else:
            p, *rest = map(itemgetter(1), delta)
            yield all(q == p for q in rest) or all(q in new for q in rest)
        lo = hi
    yield from repeat(False)


@_frozen
@dataclass(frozen=True, slots=True)
class UniverseBounds:
    """Finite pools delimiting the exhaustive enumeration universe.

    `actions`, `timestamps` and `types` are the only node ids, timestamps
    and types a bounded sequence may use; `max_len` caps the number of
    graphs per sequence and `max_step_emit` the batch size of a single
    emission (defaulting to the size of the action pool).
    """

    actions: tuple[ActionId, ...]
    timestamps: tuple[Timestamp, ...]
    types: frozenset[EventType]
    max_len: int
    max_step_emit: int | None = None

    def __post_init__(self) -> None:
        actions = tuple(sorted(set(self.actions)))
        timestamps = tuple(sorted(set(self.timestamps)))
        types = frozenset(self.types)
        if not actions or not timestamps or not types:
            raise ValueError("bounds require non-empty action, timestamp and type pools")
        if self.max_len < 1:
            raise ValueError("max_len must be at least 1")
        if self.max_step_emit is not None and self.max_step_emit < 1:
            raise ValueError("max_step_emit must be at least 1 when given")
        object.__setattr__(self, "actions", actions)
        object.__setattr__(self, "timestamps", timestamps)
        object.__setattr__(self, "types", types)

    @property
    def emit_cap(self) -> int:
        return self.max_step_emit if self.max_step_emit is not None else len(self.actions)


class _Budget:
    """Mutable countdown of enumeration work; None means unlimited."""

    __slots__ = ("left",)

    def __init__(self, limit: int | None) -> None:
        if limit is not None and limit < 0:
            raise ValueError("budget must be non-negative")
        self.left = limit

    def spend(self, n: int = 1) -> None:
        if self.left is None:
            return
        self.left -= n
        if self.left < 0:
            raise BudgetExceededError("enumeration state budget exhausted")


def _seq_sort_key(seq: ExecutionSequence):
    return tuple(g._canonical_key() for g in seq.graphs)


def _rename_graph(g: TypedTemporalGraph, m: Mapping[ActionId, ActionId]) -> TypedTemporalGraph:
    # An injective renaming of a checked graph is well formed.
    return TypedTemporalGraph._unchecked(
        frozenset(m[n] for n in g.nodes),
        frozenset((m[a], m[b]) for a, b in g.edges),
        {m[n]: ts for n, ts in g.t.items()},
        {m[n]: ty for n, ty in g.tau.items()},
        g.type_set,
        {m[n]: pl for n, pl in g.payloads.items()},
    )


def _rename_chain(seq: ExecutionSequence, m: Mapping[ActionId, ActionId]) -> ExecutionSequence:
    # Graphs in a chain only ever use nodes of the final graph, so the
    # renaming is total on them, and being injective it keeps the chain
    # extending. Labels are dropped rather than renamed: hand-built label
    # trees may mention ids the mapping does not cover.
    return ExecutionSequence._chain(tuple(_rename_graph(g, m) for g in seq.graphs), None)


# ---------------------------------------------------------------------------
# Enumeration up to renaming of action ids.
#
# Renaming action ids maps every bounded sequence, graft candidate and step
# label onto another; only timestamps carry order. So `phi` grows one
# representative per orbit of sequences under renaming, charges the budget
# per orbit by orbit-stabiliser counts, and expands the orbits into their
# members at the end, reusing those of a pool level (`_Level`) for every
# orbit derived as one of its own. A representative numbers its nodes 0..k-1
# in order of appearance, so its prefix is its parent's representative under
# the same numbering. A node column is `(Timestamp, EventType, payload)`.


def _least(cols, edges: Sequence[tuple[int, int]], nodes: Iterable[int], fixed=((),)):
    """A canonical form up to renaming `nodes`, and every node ordering that attains it.

    The orderings are one of `fixed` (orderings of the other nodes) followed
    by `nodes` sorted by label, in every order within runs of equal labels;
    a label is a node's column as primitives and its degrees. The form is
    the sorted labels and the least sorted edge list over those orderings.
    """
    deg = {x: [0, 0] for x in nodes}
    for a, b in edges:
        if a in deg:
            deg[a][1] += 1
        if b in deg:
            deg[b][0] += 1
    labelled = sorted(((cols[x][0].micros, cols[x][1].name, cols[x][2], *d), x) for x, d in deg.items())
    runs = [list(permutations(x for _label, x in run)) for _label, run in groupby(labelled, key=itemgetter(0))]
    best, hits, pos = None, [], [0] * len(cols)
    for choice in product(fixed, *runs):
        order = [x for block in choice for x in block]
        for i, x in enumerate(order):
            pos[x] = i
        form = sorted((pos[a], pos[b]) for a, b in edges)
        if best is None or form < best:
            best, hits = form, [order]
        elif form == best:
            hits.append(order)
    return (tuple(label for label, _x in labelled), tuple(best)), hits


def _automorphisms(hits: list[list[int]]) -> list[tuple[int, ...]]:
    """The node maps that carry the first least ordering onto each, identity first."""
    back = {x: i for i, x in enumerate(hits[0])}
    return [tuple(order[back[x]] for x in range(len(order))) for order in hits]


class _Class(NamedTuple):
    """Isomorphic usable pool finals: graft candidates once renamed into the action pool.

    `rep` is the least pool sequence (by `_seq_sort_key`) whose final is in
    the class; `cols`, `edges`, `zero_in` and `aut` (the final's
    automorphisms) index into `src`, the sorted nodes of that final.
    """

    rep: ExecutionSequence
    src: tuple[ActionId, ...]
    cols: tuple
    edges: tuple[tuple[int, int], ...]
    type_set: frozenset[EventType]
    zero_in: tuple[int, ...]
    aut: list[tuple[int, ...]]


def _usable(seq: ExecutionSequence, bounds: UniverseBounds, stamps: AbstractSet[Timestamp]) -> tuple[tuple, _Class] | None:
    """The class key of the final of `seq` and its class with `seq` as `rep`, or None when the final is not usable."""
    f = seq.final
    k = len(f.nodes)
    if k < len(bounds.actions) and set(f.t.values()) <= stamps and set(f.tau.values()) <= bounds.types:
        src = tuple(sorted(f.nodes, key=attrgetter("value")))
        index = {node: j for j, node in enumerate(src)}
        cols = tuple((f.t[node], f.tau[node], f.payloads[node]) for node in src)
        edges = tuple((index[a], index[b]) for a, b in f.edges)
        zero_in = tuple(sorted(set(range(k)) - {b for _a, b in edges}))
        if zero_in:
            form, hits = _least(cols, edges, range(k))
            return (*form, f.type_set), _Class(seq, src, cols, edges, f.type_set, zero_in, _automorphisms(hits))
    return None


def _graft_classes(pool: Iterable[ExecutionSequence], bounds: UniverseBounds, budget: _Budget) -> list[_Class]:
    """The usable pool finals, grouped by isomorphism class, classes in order of their `rep`.

    A final is usable when it leaves room for a host node, its timestamps
    and types lie in the bounds and it has an in-degree-zero node. The
    budget is charged every injective renaming of every distinct usable
    final into the action pool, as renaming them one by one would spend.
    """
    n = len(bounds.actions)
    stamps = set(bounds.timestamps)
    local: dict[TypedTemporalGraph, tuple | None] = {}
    best: dict[tuple, tuple[tuple, _Class]] = {}
    for seq in pool:
        f = seq.final
        if f not in local:
            local[f] = _usable(seq, bounds, stamps)
            if local[f] is not None:
                budget.spend(math.perm(n, len(f.nodes)))
        if local[f] is not None:
            key, c = local[f]
            sort_key = _seq_sort_key(seq)
            if key not in best or sort_key < best[key][0]:
                best[key] = (sort_key, c._replace(rep=seq))
    return [c for _sort_key, c in sorted(best.values(), key=itemgetter(0))]


def _level_classes(level: _Level, budget: _Budget) -> list[_Class]:
    """`_graft_classes` of a level under its own bounds, read from its orbits without a member scan.

    Every final of a level is usable, and the level holds every renaming of
    each, so the finals of one final form number `perm(n, k) / |Aut|`, each
    charged `perm(n, k)`. A class's `rep` is the least of the least members
    of its orbits (`_least_member`).
    """
    bounds = level.bounds
    n = len(bounds.actions)
    best: dict[tuple, tuple[tuple, ExecutionSequence]] = {}
    for s, kept in level.members.items():
        if s.k < n:
            if s.form not in best:
                budget.spend(math.perm(n, s.k) // len(s.orders) * math.perm(n, s.k))
            key, m = _least_member(s)
            if s.form not in best or key < best[s.form][0]:
                best[s.form] = (key, kept[m])
    stamps = set(bounds.timestamps)
    return [_usable(rep, bounds, stamps)[1] for _key, rep in sorted(best.values(), key=itemgetter(0))]


def _least_member(s: _Orbit) -> tuple[tuple, tuple[int, ...]]:
    """The `_seq_sort_key` of the least member of `s`, with action indices for ids, and its image as `_members` keys it.

    A graph's sorted ids lead its key, so the least member gives each
    step's new nodes the next-smallest ids; only the orders inside those
    blocks are compared, graph by graph, keeping the ties.
    """
    chain = []
    while s is not None:
        chain.append(s)
        s = s.parent
    keys, images, lo = [], [()], 0
    for t in reversed(chain):
        scored = [(_index_key(t, m), m) for m in (m + p for m in images for p in permutations(range(lo, t.k)))]
        least = min(key for key, _m in scored)
        keys.append(least)
        images, lo = [m for key, m in scored if key == least], t.k
    m = images[0]
    return tuple(keys), min(a(m) for a in _permuters(chain[0].aut))


def _index_key(s: _Orbit, m: tuple[int, ...]) -> tuple:
    """The canonical key of the final of `s` renamed by the image `m`, with action indices for ids.

    Indices order as the ids they stand for, so these keys order as the
    graphs' own; the ids themselves are `range(k)`, given by `k`.
    """
    cols = [s.cols[x] for x in sorted(range(s.k), key=m.__getitem__)]
    return (
        s.k,
        tuple(sorted((m[a], m[b]) for a, b in s.edges)),
        tuple(col[0].micros for col in cols),
        tuple(col[1].name for col in cols),
        tuple(sorted(ty.name for ty in s.type_set)),
        tuple(col[2] for col in cols),
    )


class _Orbit:
    """One orbit of bounded sequences under renaming of action ids, by its representative.

    `cols`, `edges` and `type_set` are the representative's final graph on
    the nodes `0..k-1`. `parent` is the orbit of its prefix (None for a root
    alone) and `step` its last label, `("E", p, new)` or
    `("I", p, q, class, iso)` with `iso[j]` the node that the class's
    `src[j]` became. `aut` lists the automorphisms of the whole chain,
    identity first; `form` and `orders` are the final graph's canonical form
    and least orderings.
    """

    __slots__ = ("parent", "k", "cols", "edges", "type_set", "step", "aut", "form", "orders")

    def __init__(self, parent, cols, edges, type_set, step, aut) -> None:
        self.parent, self.k, self.cols, self.edges = parent, len(cols), cols, edges
        self.type_set, self.step, self.aut = type_set, step, aut
        form, self.orders = _least(cols, edges, range(len(cols)))
        self.form = (*form, type_set)


def _grow(s: _Orbit, bounds: UniverseBounds, classes: list[_Class]) -> list[_Orbit]:
    """The orbits of one-step extensions of `s`, each once.

    Fresh ids are interchangeable, so an emission takes the next free nodes
    with one multiset of columns, and a graft the next free nodes in the
    class's order. Emissions come first, then grafts class by class, so
    where several moves build the same sequence the first one labels the
    step. Two extensions are renamings of each other exactly when an
    automorphism of `s` and an ordering of equally labelled new nodes carry
    one onto the other, which `_least` decides.
    """
    k = s.k
    free = len(bounds.actions) - k
    moves = []
    for p in range(k):
        options = [(ts, ty, b"") for ts in bounds.timestamps if s.cols[p][0] < ts for ty in sorted(bounds.types)]
        for j in range(1, min(bounds.emit_cap, free) + 1):
            new = tuple(range(k, k + j))
            for chosen in combinations_with_replacement(options, j):
                moves.append((chosen, tuple((p, x) for x in new), {col[1] for col in chosen}, ("E", p, new)))
    for c in classes:
        if len(c.src) <= free:
            inner = tuple((k + a, k + b) for a, b in c.edges)
            iso = tuple(range(k, k + len(c.src)))
            for z in c.zero_in:
                for p in range(k):
                    if s.cols[p][0] < c.cols[z][0]:
                        moves.append((c.cols, inner + ((p, k + z),), c.type_set, ("I", p, k + z, c, iso)))
    out: dict[tuple, _Orbit] = {}
    for new_cols, new_edges, types, step in moves:
        cols, edges, type_set = s.cols + new_cols, s.edges + new_edges, s.type_set | types
        form, hits = _least(cols, edges, range(k, len(cols)), s.aut)
        if (form, type_set) not in out:
            out[form, type_set] = _Orbit(s, cols, edges, type_set, step, _automorphisms(hits))
    return list(out.values())


def _move_count(s: _Orbit, bounds: UniverseBounds, classes: list[_Class]) -> int:
    """How many moves a step-by-step enumeration tries from the final graph of `s`.

    That is every emission (parent, chosen ids, a column per id) and every
    graft (candidate, attach node, host node), repeats included. A class has
    `kc! / |aut|` distinct candidates on each set of `kc` free ids.
    """
    free = len(bounds.actions) - s.k
    times = [col[0].micros for col in s.cols]
    total = 0
    for tp in times:
        options = len(bounds.types) * sum(tp < ts.micros for ts in bounds.timestamps)
        total += sum(math.comb(free, j) * options**j for j in range(1, min(bounds.emit_cap, free) + 1))
    for c in classes:
        per_set = math.comb(free, len(c.src)) * math.factorial(len(c.src)) // len(c.aut)
        total += per_set * sum(tp < c.cols[z][0].micros for z in c.zero_in for tp in times)
    return total


def _permuters(perms: Iterable[Sequence[int]]) -> list:
    """One callable per `p` in `perms` that rearranges a tuple `m` into `tuple(m[x] for x in p)`."""
    return [itemgetter(*p) if len(p) > 1 else (lambda m, x=p[0]: (m[x],)) for p in perms]


def _members(
    orbits: list[_Orbit], bounds: UniverseBounds, reused: Mapping[_Orbit, dict[tuple[int, ...], ExecutionSequence]]
) -> dict[_Orbit, dict[tuple[int, ...], ExecutionSequence]]:
    """Every member of every orbit, by orbit and image, each distinct graph and step label built once.

    A member renames node `x` of the representative to `actions[m[x]]` for
    an injective image `m`. Images that differ by an automorphism give the
    same member, so only the least is kept, and a member's prefix is the
    parent orbit's member at the least image of `m[:k]`. A graph is keyed by
    its form and its ids in the form's order, least over the form's
    orderings. A graft's subtrace is the class's `rep` renamed by the least
    id tuple that carries its final onto the candidate: the renaming that an
    enumeration of renamings in order meets first. An orbit in `reused`
    takes the members given there and builds none.
    """
    actions = bounds.actions
    graphs: dict[tuple, dict[tuple[int, ...], TypedTemporalGraph]] = {}
    labels: dict[tuple, StepLabel] = {}
    subtraces: dict[tuple, ExecutionSequence] = {}
    members: dict[_Orbit, dict[tuple[int, ...], ExecutionSequence]] = {}
    for s in orbits:
        kept = reused.get(s)
        if kept is not None:
            members[s] = kept
            continue
        kept = members[s] = {}
        graphs_of = graphs.setdefault(s.form, {})
        orders, others = _permuters(s.orders), _permuters(s.aut)[1:]
        cols = [s.cols[x] for x in s.orders[0]]
        if s.parent is not None:
            k0, others0, prefixes = s.parent.k, _permuters(s.parent.aut)[1:], members[s.parent]
            if s.step[0] == "E":
                get, c = itemgetter(s.step[1], *s.step[2]), None
            else:
                _kind, p, q, c, iso = s.step
                get, firsts = itemgetter(p, q), _permuters([tuple(iso[j] for j in a) for a in c.aut])
        for m in permutations(range(len(actions)), s.k):
            if others and not all(m <= a(m) for a in others):
                continue
            image = orders[0](m) if len(orders) == 1 else min(order(m) for order in orders)
            g = graphs_of.get(image)
            if g is None:
                ids = [actions[i] for i in image]
                g = graphs_of[image] = TypedTemporalGraph._unchecked(
                    frozenset(ids),
                    frozenset((ids[a], ids[b]) for a, b in s.form[1]),
                    {n: col[0] for n, col in zip(ids, cols)},
                    {n: col[1] for n, col in zip(ids, cols)},
                    s.type_set,
                    {n: col[2] for n, col in zip(ids, cols)},
                )
            if s.parent is None:
                seq = ExecutionSequence._chain((g,), ())
            else:
                m0 = m[:k0]
                if others0:
                    m0 = min(m0, *(a(m0) for a in others0))
                if c is None:
                    key = get(m)
                else:
                    first = min(f(m) for f in firsts)
                    key = (c.rep, *get(m), first)
                label = labels.get(key)
                if label is None and c is None:
                    label = labels[key] = Emission(actions[key[0]], frozenset(actions[x] for x in key[1:]))
                elif label is None:
                    sub = subtraces.get((c.rep, first))
                    if sub is None:
                        sub = subtraces[c.rep, first] = _rename_chain(c.rep, dict(zip(c.src, (actions[i] for i in first))))
                    label = labels[key] = Invocation(root=actions[key[1]], subtrace=sub, attach=actions[key[2]])
                prefix = prefixes[m0]
                seq = ExecutionSequence._chain(prefix.graphs + (g,), prefix.steps + (label,))
            kept[m] = seq
    return members


def _reused(orbits: list[_Orbit], level: _Level) -> dict[_Orbit, dict[tuple[int, ...], ExecutionSequence]]:
    """The level's members of each orbit whose derivation is one of the level's orbits'.

    A derivation is the parent's derivation, the final form with its type
    set, and the step, whose graft class compares as its fields, all read
    from its `rep`'s graphs. Equal derivations give equal representatives
    and equal step labels, so their orbits have the same members.
    """
    index: dict[tuple, list[_Orbit]] = {}
    for old in level.members:
        index.setdefault((old.parent, old.form), []).append(old)
    same: dict[_Orbit, _Orbit] = {}
    for s in orbits:  # parents first
        if s.parent is None or s.parent in same:
            for old in index.get((same.get(s.parent), s.form), ()):
                if s.step == old.step:
                    same[s] = old
                    break
    return {s: level.members[old] for s, old in same.items()}


class _Level(frozenset):
    """A level as `phi` returns it: the frozenset of its members, with how `phi` built them.

    `members` maps each orbit, in order of growth, to its members by image
    (`_members`), under `bounds`. `phi` reads them when it is given the
    level back under equal bounds. Otherwise it is a plain frozenset: its
    unions and copies are plain frozensets, and it pickles as one.
    """

    __slots__ = ("bounds", "members")

    def __new__(cls, bounds: UniverseBounds, members: dict[_Orbit, dict[tuple[int, ...], ExecutionSequence]]):
        level = super().__new__(cls, (seq for kept in members.values() for seq in kept.values()))
        level.bounds, level.members = bounds, members
        return level

    def __reduce__(self):
        return frozenset, (tuple(self),)


def phi(
    pool: AbstractSet[ExecutionSequence] | Iterable[ExecutionSequence],
    bounds: UniverseBounds,
    *,
    budget: int | None = None,
) -> frozenset[ExecutionSequence]:
    """One application of the hierarchy operator, exhaustive within bounds.

    Returns every bounded sequence that starts from a single root drawn from
    the pools and grows, one step at a time, by a direct emission or by
    grafting the (injectively renamed) final graph of a sequence in `pool`.
    `phi(frozenset(), bounds)` is therefore the emission-only level, and
    iterating yields the depth hierarchy. Each step is labelled by the
    emission that builds it when there is one, and otherwise by a graft from
    the first candidate class that builds it, classes ordered by their least
    pool sequence (`_seq_sort_key`). The graft's subtrace is that least
    sequence, renamed by the first injective renaming, in order of the ids
    it assigns, that carries its final onto the grafted graph.

    The operator is monotone in `pool` by construction: a larger pool only
    adds graft candidates. Renaming action ids maps the result onto itself,
    so it is enumerated one orbit at a time: pool finals are grouped by
    isomorphism class, one representative sequence per orbit is grown, and
    each orbit is expanded into its members at the end.

    The result is a frozenset that also keeps its orbits and their members.
    When `pool` is such a result under equal bounds, as `hierarchy` passes
    it, the graft classes, their least sequences and their budget charge
    are read from the pool's orbits, and an orbit whose derivation is one of
    the pool's (the same parent derivation, final form and step, a graft
    class counting by its least sequence's graphs) takes the pool's member
    objects; only the other orbits are expanded. The orbits are still grown
    and the budget still charged on every call, so the result, its labels
    and the budget at which it gives up are those of `frozenset(pool)`. Its
    unions, copies and pickles are plain frozensets.

    `budget`, when given, caps the work in the moves that a step-by-step
    enumeration of the level makes (`reference_phi` in the test suite): one
    unit per injective renaming of each distinct usable pool final, one per
    move tried from each sequence shorter than `max_len`, and one more per
    move tried from each distinct final graph of those sequences. Those
    counts do not change under renaming, so they are charged per orbit, as
    orbit size times one member's count, and BudgetExceededError is raised
    before any member is built, at exactly the budgets at which the
    step-by-step enumeration gives up. A negative budget is a ValueError.
    """
    tracker = _Budget(budget)
    level = pool if isinstance(pool, _Level) and pool.bounds == bounds else None
    classes = _graft_classes(pool, bounds, tracker) if level is None else _level_classes(level, tracker)
    n = len(bounds.actions)
    frontier = [_Orbit(None, ((ts, ty, b""),), (), bounds.types, None, [(0,)]) for ts in bounds.timestamps for ty in sorted(bounds.types)]
    orbits = list(frontier)
    graph_forms: set[tuple] = set()
    for _ in range(bounds.max_len - 1):
        nxt: list[_Orbit] = []
        for s in frontier:
            moves = _move_count(s, bounds, classes)
            if moves:
                tracker.spend(math.perm(n, s.k) // len(s.aut) * moves)
                if s.form not in graph_forms:
                    graph_forms.add(s.form)
                    tracker.spend(math.perm(n, s.k) // len(s.orders) * moves)
                nxt.extend(_grow(s, bounds, classes))
        orbits.extend(nxt)
        frontier = nxt
    return _Level(bounds, _members(orbits, bounds, {} if level is None else _reused(orbits, level)))


def hierarchy(
    bounds: UniverseBounds,
    d_max: int,
    *,
    budget: int | None = None,
) -> list[frozenset[ExecutionSequence]]:
    """Iterate `phi` from the empty pool: levels 0 through `d_max` inclusive.

    The returned list ascends under set inclusion. Each level is enumerated
    one orbit under renaming of action ids at a time (see `phi`) from the
    level before it, whose members it shares wherever an orbit is derived as
    there; the budget applies to each level separately and counts, as
    before, the moves of a step-by-step enumeration of that level.
    """
    if d_max < 0:
        raise ValueError("d_max must be non-negative")
    levels: list[frozenset[ExecutionSequence]] = []
    current: frozenset[ExecutionSequence] = frozenset()
    for _ in range(d_max + 1):
        current = phi(current, bounds, budget=budget)
        levels.append(current)
    return levels


def canonical_listing(seqs: Iterable[ExecutionSequence]) -> str:
    """Canonical text listing of a sequence set: one sorted line per sequence."""
    lines = sorted(" -> ".join(graph_text(g) for g in s.graphs) for s in seqs)
    return "".join(line + "\n" for line in lines)
