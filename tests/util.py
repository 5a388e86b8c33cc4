"""Shared builders and independent oracles for the test suite.

The enumerators and checkers here are deliberately written from scratch
(walk-up acyclicity checks, direct dict surgery, struct-level file walking)
so they can serve as independent references for the production code paths
they are used to test.
"""

from __future__ import annotations

import contextlib
import random
import struct
from binascii import crc32
from itertools import accumulate, combinations, permutations, product
from typing import AbstractSet, Iterable, Mapping
from unittest import mock

from hypothesis import strategies as st

from cteg import (
    ActionId,
    CompatibilityError,
    Cteg,
    DisjointnessError,
    Emission,
    EventType,
    ExecutionSequence,
    Invocation,
    SessionId,
    Timestamp,
    TypedTemporalGraph,
    UniverseBounds,
    UnknownNodeError,
    ValidationFailedError,
    apply_emission,
    canonical_listing,
    temporal_projection,
)
from cteg import dynamics
from cteg.core import NodeTable, StoreError, graft
from cteg.dynamics import StepLabel, _Budget, _seq_sort_key
from cteg.persistence import (
    _BATCH_HEAD,
    _ID,
    _KIND_NODE,
    _MAGIC,
    _MAGIC_V1,
    _U32,
    CorruptStoreError,
    DuplicateSessionError,
    UnknownSessionError,
    _decode_v1,
    _event_type,
    parse_trace,
)


def aid(i: int) -> ActionId:
    return ActionId.from_int(i)


def ts(m: int) -> Timestamp:
    return Timestamp(m)


def ty(name: str) -> EventType:
    return EventType(name)


def hexid(i: int) -> str:
    return f"{i:032x}"


def graph(
    nodes: dict[int, int],
    edges: set[tuple[int, int]],
    types: dict[int, str] | None = None,
    payloads: dict[int, bytes] | None = None,
    type_set: set[str] | None = None,
) -> TypedTemporalGraph:
    """Small-graph builder keyed by ints: nodes maps id -> timestamp micros."""
    types = types or {}
    payloads = payloads or {}
    tau = {aid(n): ty(types.get(n, "evt")) for n in nodes}
    declared = {t.name for t in tau.values()} | (type_set or set())
    return TypedTemporalGraph(
        nodes=frozenset(aid(n) for n in nodes),
        edges=frozenset((aid(a), aid(b)) for a, b in edges),
        t={aid(n): ts(m) for n, m in nodes.items()},
        tau=tau,
        type_set=frozenset(ty(name) for name in declared),
        payloads={aid(n): p for n, p in payloads.items()},
    )


def cteg(
    nodes: dict[int, int],
    edges: set[tuple[int, int]],
    root: int,
    **kwargs,
) -> Cteg:
    return Cteg(graph(nodes, edges, **kwargs), aid(root))


_TYPE_POOL = ("task", "tool", "result", "note")


def random_cteg(
    rng: random.Random,
    n_nodes: int,
    root_ts: int | None = None,
    with_payloads: bool = True,
) -> Cteg:
    """Random tree built directly: each node hangs under an earlier one."""
    ids = [ActionId(rng.randbytes(16)) for _ in range(n_nodes)]
    root = ids[0]
    t = {root: ts(root_ts if root_ts is not None else rng.randint(0, 500))}
    edges: set[tuple[ActionId, ActionId]] = set()
    for i in range(1, n_nodes):
        parent = ids[rng.randrange(i)]
        edges.add((parent, ids[i]))
        t[ids[i]] = ts(t[parent].micros + rng.randint(1, 40))
    tau = {n: ty(rng.choice(_TYPE_POOL)) for n in ids}
    payloads = {n: rng.randbytes(rng.randint(0, 8)) for n in ids} if with_payloads else {}
    g = TypedTemporalGraph(
        nodes=frozenset(ids),
        edges=frozenset(edges),
        t=t,
        tau=tau,
        type_set=frozenset(tau.values()),
        payloads=payloads,
    )
    return Cteg(g, root)


@st.composite
def ctegs(draw, max_nodes: int = 12) -> Cteg:
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    return random_cteg(random.Random(seed), n)


def reference_graft_cteg(c1: Cteg, p: ActionId, c2: Cteg) -> Cteg:
    """`graft_cteg` by its definition: the graph union plus the edge (p, root of c2), validated whole."""
    return Cteg(graft(c1.graph, p, c2.graph, c2.root), c1.root)


def graft_outcome(run) -> object:
    """What a graft returns, or the rule its error names ("attach", "overlap" or "time") and its message.

    The reference words a broken time rule as an `edge-timestamp`
    diagnostic of the whole graph, so its message is None there.
    """
    try:
        return run()
    except ValidationFailedError as exc:
        assert exc.diagnostics.codes() == ("edge-timestamp",), exc
        return "time", None
    except UnknownNodeError as exc:
        return "attach", str(exc)
    except DisjointnessError as exc:
        return "overlap", str(exc)
    except CompatibilityError as exc:
        return "time", str(exc)


def reference_key(g: TypedTemporalGraph) -> tuple:
    """Canonical key over the objects themselves: every field sorted as objects.

    Reference for the graph's own key, which is built from raw values: both
    must agree on equality and on the order they put graphs in.
    """
    return (
        tuple(sorted(g.nodes)),
        tuple(sorted(g.edges)),
        tuple(sorted(g.t.items())),
        tuple(sorted(g.tau.items())),
        tuple(sorted(g.type_set)),
        tuple(sorted(g.payloads.items())),
    )


def all_simple_paths(g: TypedTemporalGraph, src: ActionId, dst: ActionId) -> list[tuple[ActionId, ...]]:
    """Brute-force every simple directed path src..dst by DFS over edges."""
    adjacency: dict[ActionId, list[ActionId]] = {n: [] for n in g.nodes}
    for a, b in g.edges:
        adjacency[a].append(b)
    found: list[tuple[ActionId, ...]] = []

    def walk(path: list[ActionId]) -> None:
        if path[-1] == dst:
            found.append(tuple(path))
            return
        for nxt in adjacency[path[-1]]:
            if nxt not in path:
                walk(path + [nxt])

    walk([src])
    return found


def brute_force_in_degrees(g: TypedTemporalGraph) -> dict[ActionId, int]:
    """Count incoming edges by direct scan, independent of the cached map."""
    return {n: sum(1 for _, b in g.edges if b == n) for n in g.nodes}


# ---------------------------------------------------------------------------
# Independent bounded-universe enumeration (reference for phi / hierarchy).
#
# Sequences are represented as bare tuples of TypedTemporalGraph so that
# nothing here depends on ExecutionSequence semantics.


def _reaches_root(parent: dict[ActionId, ActionId], root: ActionId, n: ActionId, limit: int) -> bool:
    for _ in range(limit + 1):
        if n == root:
            return True
        if n not in parent:
            return False
        n = parent[n]
    return False


def enumerate_trees(ids: tuple, stamps: tuple, types: tuple) -> list[tuple[TypedTemporalGraph, ActionId]]:
    """Every CTEG (as graph plus root) on any non-empty subset of `ids`.

    Trees come from raw parent assignments checked by walking up to the
    root; timestamps are filtered edge-wise.
    """
    out: list[tuple[TypedTemporalGraph, ActionId]] = []
    pool = list(ids)
    for mask in range(1, 1 << len(pool)):
        chosen = [pool[i] for i in range(len(pool)) if mask >> i & 1]
        for root in chosen:
            rest = [n for n in chosen if n != root]
            for parents in product(chosen, repeat=len(rest)):
                parent = dict(zip(rest, parents))
                if not all(_reaches_root(parent, root, n, len(chosen)) for n in rest):
                    continue
                for stamps_choice in product(stamps, repeat=len(chosen)):
                    t = dict(zip([root] + rest, stamps_choice))
                    if any(not t[parent[n]] < t[n] for n in rest):
                        continue
                    for types_choice in product(types, repeat=len(chosen)):
                        tau = dict(zip([root] + rest, types_choice))
                        g = TypedTemporalGraph(
                            nodes=frozenset(chosen),
                            edges=frozenset((parent[n], n) for n in rest),
                            t=t,
                            tau=tau,
                            type_set=frozenset(types),
                        )
                        out.append((g, root))
    return out


def _extend_by_union(
    g: TypedTemporalGraph,
    extra: TypedTemporalGraph,
    new_edges: set,
) -> TypedTemporalGraph:
    return TypedTemporalGraph(
        nodes=g.nodes | extra.nodes,
        edges=g.edges | extra.edges | new_edges,
        t={**g.t, **extra.t},
        tau={**g.tau, **extra.tau},
        type_set=g.type_set | extra.type_set,
        payloads={**g.payloads, **extra.payloads},
    )


def enumerate_closure(ids: tuple, stamps: tuple, types: tuple, max_len: int) -> set[tuple]:
    """All bounded graph chains built by emissions or whole-CTEG grafts.

    This is the recursive-closure universe written from the definitions:
    each step either emits a non-empty batch under one node or grafts an
    arbitrary valid in-bounds CTEG on unused ids with a strictly later root.
    """
    trees = enumerate_trees(ids, stamps, types)
    starts = [
        TypedTemporalGraph.trivial(a, s, t, type_set=frozenset(types))
        for a in ids
        for s in stamps
        for t in types
    ]
    result: set[tuple] = {(g,) for g in starts}
    frontier: list[tuple] = [(g,) for g in starts]
    for _ in range(max_len - 1):
        nxt: list[tuple] = []
        for chain in frontier:
            g = chain[-1]
            free = [a for a in ids if a not in g.nodes]
            successors: list[TypedTemporalGraph] = []
            # emissions: every non-empty assignment of free ids to (ts, ty)
            for p in g.nodes:
                later = [s for s in stamps if g.t[p] < s]
                slots = [
                    [None] + [(s, t) for s in later for t in types]
                    for _ in free
                ]
                for assignment in product(*slots):
                    picked = {a: v for a, v in zip(free, assignment) if v is not None}
                    if not picked:
                        continue
                    extra = TypedTemporalGraph(
                        nodes=frozenset(picked),
                        edges=frozenset(),
                        t={a: s for a, (s, _t) in picked.items()},
                        tau={a: t for a, (_s, t) in picked.items()},
                        type_set=g.type_set,
                    )
                    successors.append(_extend_by_union(g, extra, {(p, a) for a in picked}))
            # grafts: any enumerated tree on ids unused by g, attached below p
            for tree, root in trees:
                if tree.nodes & g.nodes:
                    continue
                for p in g.nodes:
                    if g.t[p] < tree.t[root]:
                        successors.append(_extend_by_union(g, tree, {(p, root)}))
            for g2 in successors:
                chain2 = chain + (g2,)
                if chain2 not in result:
                    result.add(chain2)
                    nxt.append(chain2)
        frontier = nxt
    return result


def chains_of(seqs) -> set[tuple]:
    return {tuple(s.graphs) for s in seqs}


def junk_sequence(ids: tuple, stamps: tuple, types: tuple) -> ExecutionSequence:
    """A legal chain that is not a member: its lone graph is not a single root."""
    a, b = ids[0], ids[1]
    g = TypedTemporalGraph(
        nodes=frozenset({a, b}),
        edges=frozenset({(a, b), (b, a)}),
        t={a: stamps[0], b: stamps[0]},
        tau={a: types[0], b: types[0]},
        type_set=frozenset(types),
    )
    return ExecutionSequence((g,), ())


# ---------------------------------------------------------------------------
# Reference oracle: `phi` as it was before graft candidates were deduplicated
# by isomorphism class and sequences enumerated by orbit. It renames every
# distinct final of the pool under every injective map, tries every move
# from every sequence one at a time and re-checks every pair of each new
# sequence, so it is the slow ground truth for the fast path's results,
# labels and budget.


def reference_rename_graph(g: TypedTemporalGraph, m) -> TypedTemporalGraph:
    return TypedTemporalGraph(
        nodes=frozenset(m[n] for n in g.nodes),
        edges=frozenset((m[a], m[b]) for a, b in g.edges),
        t={m[n]: ts for n, ts in g.t.items()},
        tau={m[n]: ty for n, ty in g.tau.items()},
        type_set=g.type_set,
        payloads={m[n]: pl for n, pl in g.payloads.items()},
    )


def reference_rename_chain(seq: ExecutionSequence, m) -> ExecutionSequence:
    return ExecutionSequence._chain(tuple(reference_rename_graph(g, m) for g in seq.graphs), None)


def reference_trivial_graphs(bounds: UniverseBounds) -> list[TypedTemporalGraph]:
    return [
        TypedTemporalGraph.trivial(a, ts, ty, type_set=bounds.types)
        for a in bounds.actions
        for ts in bounds.timestamps
        for ty in sorted(bounds.types)
    ]


def reference_emission_successors(
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


def reference_invocation_successors(
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


def reference_graft_candidates(
    pool: Iterable[ExecutionSequence],
    bounds: UniverseBounds,
    budget: _Budget,
) -> dict[frozenset[ActionId], list[tuple[TypedTemporalGraph, ActionId, ExecutionSequence]]]:
    ts_pool = set(bounds.timestamps)
    finals: dict[TypedTemporalGraph, ExecutionSequence] = {}
    for seq in sorted(pool, key=_seq_sort_key):
        f = seq.final
        if f not in finals:
            finals[f] = seq
    out: dict[frozenset[ActionId], list[tuple[TypedTemporalGraph, ActionId, ExecutionSequence]]] = {}
    seen: set[tuple[TypedTemporalGraph, ActionId]] = set()
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
        for ids in combinations(bounds.actions, k):
            for perm in permutations(ids):
                budget.spend()
                mapping = dict(zip(src, perm))
                f2 = reference_rename_graph(f, mapping)
                rep2: ExecutionSequence | None = None
                for q in zero_in:
                    key = (f2, mapping[q])
                    if key in seen:
                        continue
                    seen.add(key)
                    if rep2 is None:
                        rep2 = reference_rename_chain(rep, mapping)
                    out.setdefault(f2.nodes, []).append((f2, mapping[q], rep2))
    return out


def reference_phi(
    pool: AbstractSet[ExecutionSequence] | Iterable[ExecutionSequence],
    bounds: UniverseBounds,
    *,
    budget: int | None = None,
) -> frozenset[ExecutionSequence]:
    tracker = _Budget(budget)
    candidates = reference_graft_candidates(pool, bounds, tracker)

    result: set[ExecutionSequence] = set()
    frontier: list[ExecutionSequence] = []
    for g0 in reference_trivial_graphs(bounds):
        s = ExecutionSequence((g0,), ())
        result.add(s)
        frontier.append(s)

    succ_cache: dict[TypedTemporalGraph, list] = {}
    for _ in range(bounds.max_len - 1):
        nxt: list[ExecutionSequence] = []
        for s in frontier:
            g = s.final
            succ = succ_cache.get(g)
            if succ is None:
                succ = reference_emission_successors(g, bounds, tracker)
                succ.extend(reference_invocation_successors(g, candidates, tracker))
                succ_cache[g] = succ
            assert s.steps is not None
            for label, g2 in succ:
                tracker.spend()
                s2 = ExecutionSequence(s.graphs + (g2,), s.steps + (label,))
                if s2 not in result:
                    result.add(s2)
                    nxt.append(s2)
        if not nxt:
            break
        frontier = nxt
    return frozenset(result)


# ---------------------------------------------------------------------------
# Reference import: `import_trace` as it was before canonical text was proved
# by a node table. It parses the text into a graph and validates the whole
# graph in the public constructor.


def reference_import_trace(data: bytes):
    graph, root, session = parse_trace(data)
    return Cteg(graph, root), session


# ---------------------------------------------------------------------------
# Reference normalization: `e0_normalize` as it was before it became the row
# prefixes of the projection. It replays the trace one `apply_emission` at a
# time and re-checks every pair in the public constructor.


def reference_e0_normalize(c: Cteg) -> ExecutionSequence:
    order = temporal_projection(c)
    parents = c.parent_map()
    g = TypedTemporalGraph.trivial(
        c.root,
        c.graph.t[c.root],
        c.graph.tau[c.root],
        payload=c.graph.payloads[c.root],
        type_set=c.graph.type_set,
    )
    graphs = [g]
    steps: list[StepLabel] = []
    for n in order[1:]:
        p = parents[n]
        g = apply_emission(
            g,
            p,
            {n: (c.graph.t[n], c.graph.tau[n])},
            payloads={n: c.graph.payloads[n]},
        )
        graphs.append(g)
        steps.append(Emission(p, frozenset({n})))
    return ExecutionSequence(tuple(graphs), tuple(steps))


def reference_history_steps(session) -> tuple[StepLabel, ...]:
    """The step labels of `session.history()`, built eagerly from the session's rows, marks and settled children.

    Step `k` added the rows between marks `k` and `k + 1`: an emission of
    them all under their one parent, or the graft of the child settled at
    step `k`, whose root heads those rows and hangs under the invocation
    node. Labels go through their checked constructors, and a graft's
    subtrace is the child's row-backed history carrying its own labels
    built the same way.
    """
    rows, marks, grafts = session._table.rows, session._marks, session._grafts
    labels = []
    for k, (lo, hi) in enumerate(zip(marks, marks[1:])):
        root = ActionId(rows[lo][1])
        child = grafts.get(k)
        if child is None:
            labels.append(Emission(root, frozenset(ActionId(row[0]) for row in rows[lo:hi])))
        else:
            sub = ExecutionSequence._rows(child._table.rows, tuple(child._marks), reference_history_steps(child))
            labels.append(Invocation(root, sub, ActionId(rows[lo][0])))
    return tuple(labels)


def chain_text(seq: ExecutionSequence) -> str:
    """The line `canonical_listing` gives `seq`, which a row-backed sequence reads from its rows."""
    return canonical_listing((seq,))[:-1]


def label_text(label) -> str:
    """A step label as text: kind, root, then the emitted set or the attach
    node and the listing of the subtrace it carries."""
    if isinstance(label, Emission):
        return f"E {label.root.hex} {','.join(sorted(n.hex for n in label.emitted))}"
    return f"I {label.root.hex} {label.attach.hex} [{chain_text(label.subtrace)}]"


def label_listing(seqs: Iterable[ExecutionSequence]) -> str:
    """One sorted line per sequence: its chain, then the text of each label."""
    lines = sorted(
        chain_text(s) + " | " + " ; ".join(label_text(x) for x in (s.steps or ()))
        for s in seqs
    )
    return "".join(line + "\n" for line in lines)


def budget_spent(run):
    """Run `run()` with no budget and return (units it spent, its result).

    `_Budget` raises exactly when the total spent exceeds the limit, so the
    count is the smallest budget under which `run` completes.
    """
    spent = 0
    spend = _Budget.spend

    def counting_spend(self, n: int = 1) -> None:
        nonlocal spent
        spent += n
        spend(self, n)

    with mock.patch.object(_Budget, "spend", counting_spend):
        result = run()
    return spent, result


def counting_subgraph_proofs():
    """A list and a patch of `is_subgraph_of` that appends to it once per call."""
    calls = []
    proof = TypedTemporalGraph.is_subgraph_of

    def counting(self, other):
        calls.append(1)
        return proof(self, other)

    return calls, mock.patch.object(TypedTemporalGraph, "is_subgraph_of", counting)


def counting_graphs():
    """A list and a patch that appends every graph built, checked or not."""
    built = []
    check = TypedTemporalGraph.__post_init__
    unchecked = TypedTemporalGraph._unchecked.__func__

    def counting(self):
        built.append(self)
        check(self)

    def counting_unchecked(cls, *fields):
        built.append(unchecked(cls, *fields))
        return built[-1]

    patch = mock.patch.multiple(
        TypedTemporalGraph, __post_init__=counting, _unchecked=classmethod(counting_unchecked)
    )
    return built, patch


def counting_sequences():
    """A list and a patch that appends every execution sequence built, checked or not."""
    built = []
    check = ExecutionSequence.__post_init__
    chain = ExecutionSequence._chain.__func__

    def counting(self):
        built.append(self)
        check(self)

    def counting_chain(cls, *fields):
        built.append(chain(cls, *fields))
        return built[-1]

    patch = mock.patch.multiple(ExecutionSequence, __post_init__=counting, _chain=classmethod(counting_chain))
    return built, patch


def counting_labels():
    """A list and a patch that appends the class of every `ActionId`, `Emission` and `Invocation` built, checked or not."""
    built = []
    init, new = ActionId.__init__, dynamics._new
    checks = {cls: cls.__post_init__ for cls in (Emission, Invocation)}

    def counting_init(self, value):
        built.append(ActionId)
        init(self, value)

    def counting_new(cls, *values):
        if cls in checks:
            built.append(cls)
        return new(cls, *values)

    def counting_check(cls):
        def check(self):
            built.append(cls)
            checks[cls](self)

        return check

    @contextlib.contextmanager
    def patch():
        with contextlib.ExitStack() as stack:
            stack.enter_context(mock.patch.object(ActionId, "__init__", counting_init))
            stack.enter_context(mock.patch.object(dynamics, "_new", counting_new))
            for cls in checks:
                stack.enter_context(mock.patch.object(cls, "__post_init__", counting_check(cls)))
            yield

    return built, patch()


# ---------------------------------------------------------------------------
# Store file walking (independent of the persistence decoder).


def record_boundaries(data: bytes, magic_len: int) -> list[int]:
    """Offsets of every record boundary in a store file, including the header."""
    offsets = [magic_len]
    pos = magic_len
    while pos + 4 <= len(data):
        (length,) = struct.unpack_from("<I", data, pos)
        if pos + 4 + length > len(data):
            break
        pos += 4 + length
        offsets.append(pos)
    return offsets


# ---------------------------------------------------------------------------
# Reference replay: the store log replayed as it was before it was streamed.
# It takes the whole file's bytes, copies each record's body out of them and
# decodes a batch column by column into whole-batch lists.


def _reference_decode_v2(body: bytes):
    if body[0] != _KIND_NODE:
        return _decode_v1(body)
    try:
        _, sid, n, k = _BATCH_HEAD.unpack_from(body)
        at = _BATCH_HEAD.size + 2 * k
        types = []
        for size in struct.unpack_from(f"<{k}H", body, _BATCH_HEAD.size):
            types.append(_event_type(body[at : at + size].decode("utf-8")))
            at += size
        nodes = [node for (node,) in _ID.iter_unpack(body[at : at + 16 * n])]
        flags = body[at + 16 * n : at + 17 * n]
        linked = flags.count(1)
        if linked + flags.count(0) != n:
            raise CorruptStoreError("bad parent flag")
        at += 17 * n
        parent_ids = iter([parent for (parent,) in _ID.iter_unpack(body[at : at + 16 * linked])])
        at += 16 * linked
        micros = struct.unpack_from(f"<{n}q", body, at)
        kinds = [types[i] for i in struct.unpack_from(f"<{n}H", body, at + 8 * n)]
        ends = list(accumulate(struct.unpack_from(f"<{n}I", body, at + 10 * n), initial=at + 14 * n))
        if ends[-1] != len(body):
            raise CorruptStoreError("batch record length mismatch")
        parents = [next(parent_ids) if flag else None for flag in flags]
        payloads = [body[start:end] for start, end in zip(ends, ends[1:])]
        return sid, list(zip(nodes, parents, micros, kinds, payloads))
    except (IndexError, ValueError, struct.error) as exc:
        raise CorruptStoreError(f"malformed record: {exc}") from exc


def _reference_frame_v1(data: bytes, offset: int):
    if offset + 4 > len(data):
        return None
    end = offset + 4 + _U32.unpack_from(data, offset)[0]
    return (data[offset + 4 : end], end) if end <= len(data) else None


def _reference_frame_v2(data: bytes, offset: int):
    if offset + 8 > len(data):
        return None
    size_field = data[offset : offset + 4]
    if crc32(size_field) != _U32.unpack_from(data, offset + 4)[0]:
        raise CorruptStoreError("length checksum mismatch")
    (size,) = _U32.unpack(size_field)
    if size < 9:
        raise CorruptStoreError(f"record length {size} is below the 9-byte minimum")
    end = offset + 4 + size
    if end > len(data):
        return None
    body = data[offset + 12 : end]
    if crc32(body) != _U32.unpack_from(data, offset + 8)[0]:
        raise CorruptStoreError("body checksum mismatch")
    return body, end


def reference_replay(data: bytes) -> tuple[dict[SessionId, NodeTable], int, int]:
    """A log's tables in registration order, its complete records and where a torn tail starts, from its whole bytes."""
    if data.startswith(_MAGIC):
        frame, decode = _reference_frame_v2, _reference_decode_v2
    elif data.startswith(_MAGIC_V1):
        frame, decode = _reference_frame_v1, _decode_v1
    else:
        raise CorruptStoreError("missing store magic header")
    tables: dict[SessionId, NodeTable] = {}
    by_sid: dict[bytes, NodeTable] = {}
    index, offset = 0, len(_MAGIC)
    try:
        while (framed := frame(data, offset)) is not None:
            body, end = framed
            record = decode(body)
            if isinstance(record, SessionId):
                if record in tables:
                    raise DuplicateSessionError(f"session {record.hex} is already registered")
                tables[record] = by_sid[record.value] = NodeTable()
            else:
                sid, rows = record
                table = by_sid.get(sid)
                if table is None:
                    raise UnknownSessionError(f"session {sid.hex()} is not registered")
                table.append(rows)
            index, offset = index + 1, end
    except StoreError as exc:
        raise CorruptStoreError(str(exc), index, offset) from exc
    return tables, index, offset


# ---------------------------------------------------------------------------
# Validity-preserving single mutations (reference corpus for tamper tests).


def mutate_cteg(rng: random.Random, c: Cteg) -> tuple[Cteg, str]:
    """Apply one random structural or content mutation, keeping validity."""
    g = c.graph
    kind = rng.choice(("ts", "type", "payload", "leaf_add", "leaf_remove", "reparent"))
    nodes = sorted(g.nodes)
    children = g.children_map()
    leaves = [n for n in nodes if not children[n]]

    if kind == "ts":
        n = rng.choice(leaves)
        t2 = {**g.t, n: ts(g.t[n].micros + 1)}
        return Cteg(
            TypedTemporalGraph(g.nodes, g.edges, t2, g.tau, g.type_set, g.payloads), c.root
        ), f"ts+1 on {n.hex[:8]}"

    if kind == "type":
        n = rng.choice(nodes)
        new_type = ty("mutated")
        tau2 = {**g.tau, n: new_type}
        return Cteg(
            TypedTemporalGraph(g.nodes, g.edges, g.t, tau2, g.type_set | {new_type}, g.payloads),
            c.root,
        ), f"type change on {n.hex[:8]}"

    if kind == "payload":
        n = rng.choice(nodes)
        old = g.payloads[n]
        new = bytes([old[0] ^ 1]) + old[1:] if old else b"\x01"
        return Cteg(
            TypedTemporalGraph(g.nodes, g.edges, g.t, g.tau, g.type_set, {**g.payloads, n: new}),
            c.root,
        ), f"payload flip on {n.hex[:8]}"

    if kind == "leaf_add":
        parent = rng.choice(nodes)
        fresh = ActionId(rng.randbytes(16))
        return Cteg(
            TypedTemporalGraph(
                g.nodes | {fresh},
                g.edges | {(parent, fresh)},
                {**g.t, fresh: ts(g.t[parent].micros + 1)},
                {**g.tau, fresh: g.tau[parent]},
                g.type_set,
                {**g.payloads, fresh: b""},
            ),
            c.root,
        ), f"leaf added under {parent.hex[:8]}"

    if kind == "leaf_remove" and len(nodes) > 1:
        n = rng.choice([x for x in leaves if x != c.root])
        keep = g.nodes - {n}
        return Cteg(
            TypedTemporalGraph(
                keep,
                frozenset(e for e in g.edges if n not in e),
                {k: v for k, v in g.t.items() if k != n},
                {k: v for k, v in g.tau.items() if k != n},
                g.type_set,
                {k: v for k, v in g.payloads.items() if k != n},
            ),
            c.root,
        ), f"leaf {n.hex[:8]} removed"

    if kind == "reparent" and len(nodes) > 2:
        parents = c.parent_map()
        candidates = [
            (n, p2)
            for n in leaves
            if n != c.root
            for p2 in nodes
            if p2 not in (n, parents[n]) and g.t[p2] < g.t[n]
        ]
        if candidates:
            n, p2 = rng.choice(candidates)
            edges2 = (g.edges - {(parents[n], n)}) | {(p2, n)}
            return Cteg(
                TypedTemporalGraph(g.nodes, edges2, g.t, g.tau, g.type_set, g.payloads), c.root
            ), f"{n.hex[:8]} reparented under {p2.hex[:8]}"

    return mutate_cteg(rng, c)  # fall through to another kind
