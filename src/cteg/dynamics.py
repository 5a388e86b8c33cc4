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
  that the stable set is a fixed point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, islice, permutations, product
from typing import AbstractSet, Iterable, Mapping, NamedTuple, Sequence, Union

from .core import (
    ActionId,
    CompatibilityError,
    Cteg,
    CtegError,
    Diagnostics,
    DisjointnessError,
    EventType,
    Row,
    Timestamp,
    TypedTemporalGraph,
    UnknownNodeError,
    ValidationFailedError,
    Violation,
    graft,
    graph_from_rows,
    graph_text,
    projection_rows,
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


@dataclass(frozen=True)
class Emission:
    """Step label: `emitted` nodes were added as children of `root`."""

    root: ActionId
    emitted: frozenset[ActionId]

    def __post_init__(self) -> None:
        object.__setattr__(self, "emitted", frozenset(self.emitted))
        if not self.emitted:
            raise EmptyEmissionError("emission label requires a non-empty emitted set")


@dataclass(frozen=True)
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


StepLabel = Union[Emission, Invocation]


@dataclass(frozen=True, eq=False, repr=False)
class ExecutionSequence:
    """A finite chain of typed temporal graphs, each extending the last.

    Extension means every node, edge, timestamp, type and payload survives
    into the next graph. `steps` optionally carries one label per extension
    as a witness of how it was made; witness-free chains pass `steps=None`.
    Equality and hashing consider the graph chain only, so two sequences
    that built the same chain by differently labelled moves are the same
    element of the sequence space. The hash is computed on first use and
    then cached.

    The constructor proves extension pair by pair. Chains the library builds
    go through `_chain` and skip that proof, as they extend by construction:
    prefixes of one append-only row list (`Session.history`, `e0_normalize`),
    an injectively renamed checked chain (`phi`'s graft candidates), and a
    checked chain plus one graph, whose one new pair `_extend` still checks.
    """

    graphs: tuple[TypedTemporalGraph, ...]
    steps: tuple[StepLabel, ...] | None = None

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
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _chain(cls, graphs: tuple[TypedTemporalGraph, ...], steps: tuple[StepLabel, ...] | None):
        """A chain that extends by construction, built without the per-pair proof."""
        s = object.__new__(cls)
        object.__setattr__(s, "graphs", graphs)
        object.__setattr__(s, "steps", steps)
        object.__setattr__(s, "_hash", None)
        return s

    @classmethod
    def _prefixes(cls, rows: Sequence[Row], marks: Iterable[int], steps: tuple[StepLabel, ...], type_set=None):
        """The chain of `graph_from_rows(rows[:m], type_set)` for each mark `m`; each extends the last."""
        return cls._chain(tuple(graph_from_rows(islice(rows, m), type_set) for m in marks), steps)

    def _extend(self, g2: TypedTemporalGraph, label: StepLabel) -> "ExecutionSequence":
        """This labelled sequence followed by `g2`, checking only the new pair.

        Every earlier pair was checked when this sequence was built, and the
        sequence is immutable, so only `final` against `g2` is left to prove.
        """
        if not self.final.is_subgraph_of(g2):
            raise ValueError("each graph must extend the previous one")
        assert self.steps is not None
        return ExecutionSequence._chain(self.graphs + (g2,), self.steps + (label,))

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
        h = self._hash  # type: ignore[attr-defined]
        if h is None:
            h = hash(self.graphs)
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
    if attach is None:
        candidates = sorted(n for n in final.nodes if final.in_degree(n) == 0)
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
        if final.in_degree(attach) != 0:
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
    if p not in g.nodes:
        return None
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
    the type set of `c`.
    """
    rows = projection_rows(c)
    steps = tuple(Emission(parent, frozenset({node})) for node, parent, *_ in rows[1:])
    return ExecutionSequence._prefixes(rows, range(1, len(rows) + 1), steps, c.graph.type_set)


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
    """
    violations: list[Violation] = []
    g0 = seq.graphs[0]
    if not _is_trivial(g0):
        violations.append(
            Violation(
                "initial-not-trivial",
                f"initial graph has {len(g0.nodes)} nodes and {len(g0.edges)} edges, expected a single root",
            )
        )
    for k, (g, g2) in enumerate(zip(seq.graphs, seq.graphs[1:])):
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


@dataclass(frozen=True)
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
    return TypedTemporalGraph(
        nodes=frozenset(m[n] for n in g.nodes),
        edges=frozenset((m[a], m[b]) for a, b in g.edges),
        t={m[n]: ts for n, ts in g.t.items()},
        tau={m[n]: ty for n, ty in g.tau.items()},
        type_set=g.type_set,
        payloads={m[n]: pl for n, pl in g.payloads.items()},
    )


def _rename_chain(seq: ExecutionSequence, m: Mapping[ActionId, ActionId]) -> ExecutionSequence:
    # Graphs in a chain only ever use nodes of the final graph, so the
    # renaming is total on them, and being injective it keeps the chain
    # extending. Labels are dropped rather than renamed: hand-built label
    # trees may mention ids the mapping does not cover.
    return ExecutionSequence._chain(tuple(_rename_graph(g, m) for g in seq.graphs), None)


def _shape(f: TypedTemporalGraph, src: list[ActionId]) -> tuple:
    """Canonical form of `f` up to renaming its nodes.

    The least, over every ordering of `src` (the nodes of `f`), of the edges
    and the `(micros, type name, payload)` column under that ordering,
    together with the type set. Two graphs share a shape exactly when some
    bijection of their nodes carries one onto the other.
    """
    cols = {n: (f.t[n].micros, f.tau[n].name, f.payloads[n]) for n in src}
    best = None
    for order in permutations(src):
        pos = {n: i for i, n in enumerate(order)}
        form = (tuple(sorted((pos[a], pos[b]) for a, b in f.edges)), tuple(cols[n] for n in order))
        if best is None or form < best:
            best = form
    return best, tuple(sorted(ty.name for ty in f.type_set))


def _trivial_graphs(bounds: UniverseBounds) -> list[TypedTemporalGraph]:
    return [
        TypedTemporalGraph.trivial(a, ts, ty, type_set=bounds.types)
        for a in bounds.actions
        for ts in bounds.timestamps
        for ty in sorted(bounds.types)
    ]


def _graft_candidates(
    pool: Iterable[ExecutionSequence],
    bounds: UniverseBounds,
    budget: _Budget,
) -> dict[frozenset[ActionId], list[tuple[TypedTemporalGraph, ActionId, ExecutionSequence]]]:
    """All renamed final graphs of `pool`, grouped by the node ids they occupy.

    Candidate sub-executions contribute only their final graph, injectively
    renamed into the action pool in every possible way (renaming preserves
    structure and is how disjointness is achieved inside a finite pool).
    Finals whose timestamps or types fall outside the bounds can never occur
    inside a bounded sequence and are skipped.

    Finals are visited in sorted order and renamed once per isomorphism
    class: every renaming of a later member of a class equals one of the
    first member's, so it could only add `(graph, attach)` pairs already
    present. Skipping it leaves the result, its order and the representative
    subtraces unchanged. The budget still counts every renaming, so a
    skipped final spends the renamings it would have made.
    """
    ts_pool = set(bounds.timestamps)
    finals: dict[TypedTemporalGraph, ExecutionSequence] = {}
    for seq in sorted(pool, key=_seq_sort_key):
        f = seq.final
        if f not in finals:
            finals[f] = seq
    out: dict[frozenset[ActionId], list[tuple[TypedTemporalGraph, ActionId, ExecutionSequence]]] = {}
    seen: set[tuple[TypedTemporalGraph, ActionId]] = set()
    shapes: set[tuple] = set()
    for f, rep in finals.items():
        k = len(f.nodes)
        if k > len(bounds.actions) - 1:
            continue  # no room left for a host node
        if not set(f.t.values()) <= ts_pool or not set(f.tau.values()) <= bounds.types:
            continue
        src = sorted(f.nodes)
        zero_in = [n for n in src if f.in_degree(n) == 0]
        if not zero_in:
            continue
        shape = _shape(f, src)
        if shape in shapes:
            budget.spend(math.perm(len(bounds.actions), k))
            continue
        shapes.add(shape)
        for ids in combinations(bounds.actions, k):
            for perm in permutations(ids):
                budget.spend()
                mapping = dict(zip(src, perm))
                f2 = _rename_graph(f, mapping)
                rep2: ExecutionSequence | None = None
                for q in zero_in:
                    key = (f2, mapping[q])
                    if key in seen:
                        continue
                    seen.add(key)
                    if rep2 is None:
                        rep2 = _rename_chain(rep, mapping)
                    out.setdefault(f2.nodes, []).append((f2, mapping[q], rep2))
    return out


def _emission_successors(
    g: TypedTemporalGraph,
    bounds: UniverseBounds,
    budget: _Budget,
) -> list[tuple[StepLabel, TypedTemporalGraph]]:
    out: list[tuple[StepLabel, TypedTemporalGraph]] = []
    avail = sorted(set(bounds.actions) - g.nodes)
    if not avail:
        return out
    types_sorted = sorted(bounds.types)
    cap = min(bounds.emit_cap, len(avail))
    for p in sorted(g.nodes):
        options = [(ts, ty) for ts in bounds.timestamps if g.t[p] < ts for ty in types_sorted]
        if not options:
            continue
        for k in range(1, cap + 1):
            for chosen in combinations(avail, k):
                for assignment in product(options, repeat=k):
                    budget.spend()
                    new = dict(zip(chosen, assignment))
                    g2 = apply_emission(g, p, new)
                    out.append((Emission(p, frozenset(chosen)), g2))
    return out


def _invocation_successors(
    g: TypedTemporalGraph,
    candidates: Mapping[frozenset[ActionId], list[tuple[TypedTemporalGraph, ActionId, ExecutionSequence]]],
    budget: _Budget,
) -> list[tuple[StepLabel, TypedTemporalGraph]]:
    out: list[tuple[StepLabel, TypedTemporalGraph]] = []
    for idset in sorted(candidates, key=sorted):
        if idset & g.nodes:
            continue
        for h, q, rep in candidates[idset]:
            for p in sorted(g.nodes):
                if g.t[p] < h.t[q]:
                    budget.spend()
                    g2 = graft(g, p, h, q)
                    out.append((Invocation(root=p, subtrace=rep, attach=q), g2))
    return out


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
    iterating yields the depth hierarchy.

    The operator is monotone in `pool` by construction: a larger pool only
    adds graft candidates. Pool finals are renamed into the action pool once
    per isomorphism class, since isomorphic finals yield the same renamed
    candidates. `budget`, when given, caps the number of explored extensions
    and raises BudgetExceededError once exhausted; it counts every renaming
    of every usable pool final, those of skipped isomorphic finals included,
    so it is exhausted at exactly the same point as without the skipping.
    """
    tracker = _Budget(budget)
    candidates = _graft_candidates(pool, bounds, tracker)

    result: set[ExecutionSequence] = set()
    frontier: list[ExecutionSequence] = []
    for g0 in _trivial_graphs(bounds):
        s = ExecutionSequence((g0,), ())
        result.add(s)
        frontier.append(s)

    succ_cache: dict[TypedTemporalGraph, list[tuple[StepLabel, TypedTemporalGraph]]] = {}
    for _ in range(bounds.max_len - 1):
        nxt: list[ExecutionSequence] = []
        for s in frontier:
            g = s.final
            succ = succ_cache.get(g)
            if succ is None:
                succ = _emission_successors(g, bounds, tracker)
                succ.extend(_invocation_successors(g, candidates, tracker))
                succ_cache[g] = succ
            for label, g2 in succ:
                tracker.spend()
                s2 = s._extend(g2, label)
                if s2 not in result:
                    result.add(s2)
                    nxt.append(s2)
        if not nxt:
            break
        frontier = nxt
    return frozenset(result)


def hierarchy(
    bounds: UniverseBounds,
    d_max: int,
    *,
    budget: int | None = None,
) -> list[frozenset[ExecutionSequence]]:
    """Iterate `phi` from the empty pool: levels 0 through `d_max` inclusive.

    The returned list ascends under set inclusion; the budget applies to
    each level separately.
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
