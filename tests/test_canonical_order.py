"""Canonical forms and orders: the primitive key against its object reference.

Covered claims:
    - graph equality holds exactly when the object-tuple reference keys are
      equal, also for graphs that differ in one field only or whose nodes
      trade timestamps, types or payloads, and equal graphs hash equally
    - execution sequences sort by the graph key exactly as by the
      reference keys, so the oracle keeps its representative choice
    - building a graph, a trace or a session history computes no key
    - validation diagnostics keep their content and order on input with
      many violations of each kind
    - when siblings share a timestamp, temporal projection and child order
      still break the tie by node id, and exports, receipts and simulated
      traces stay byte-identical to their goldens
    - a store log of each simulated trace, after a reopen and a second
      append, and the output of `verify`, `project`, `normalize` and
      `commit` on each stay byte-identical to their golden, for a v1 log
      and for a new (v2) log
"""

import hashlib
import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cteg import (
    ActionId,
    Cteg,
    ExecutionSequence,
    FileStore,
    SessionId,
    Timestamp,
    TypedTemporalGraph,
    Violation,
    append_trace,
    begin_session,
    export_trace,
    import_trace,
    merkle_root,
    temporal_projection,
    validate_cteg,
)
from cteg.cli import main
from cteg.persistence import _MAGIC_V1
from cteg.core import graph_from_rows
from cteg.dynamics import _seq_sort_key
from util import aid, graph, hexid, reference_key, ty

# Small pools, so that independent draws collide often.
_IDS = tuple(aid(v) for v in (1, 2, 0xFF, 0x100, 2**120, 2**127 + 5))
_STAMPS = (-(2**40), -1, 0, 1, 7)
_TYPES = ("a", "b", "tool", "tool2")
_PAYLOADS = (b"", b"\x00", b"a", b"ab", b"b")


def _rebuild(g: TypedTemporalGraph, **fields) -> TypedTemporalGraph:
    base = dict(nodes=g.nodes, edges=g.edges, t=g.t, tau=g.tau, type_set=g.type_set, payloads=g.payloads)
    return TypedTemporalGraph(**{**base, **fields})


@st.composite
def typed_graphs(draw) -> TypedTemporalGraph:
    nodes = draw(st.lists(st.sampled_from(_IDS), min_size=1, max_size=4, unique=True))
    pairs = [(a, b) for a in nodes for b in nodes if a != b]
    edges = draw(st.sets(st.sampled_from(pairs), max_size=4)) if pairs else set()
    tau = {n: ty(draw(st.sampled_from(_TYPES))) for n in nodes}
    extra = draw(st.sets(st.sampled_from(_TYPES), max_size=2))
    return TypedTemporalGraph(
        nodes=frozenset(nodes),
        edges=frozenset(edges),
        t={n: Timestamp(draw(st.sampled_from(_STAMPS))) for n in nodes},
        tau=tau,
        type_set=frozenset(tau.values()) | {ty(name) for name in extra},
        payloads={n: draw(st.sampled_from(_PAYLOADS)) for n in nodes},
    )


@st.composite
def one_field_variants(draw, g: TypedTemporalGraph) -> TypedTemporalGraph:
    """`g` with exactly one node, edge, timestamp, type, type-set entry or payload changed."""
    kind = draw(st.sampled_from(("node", "edge", "timestamp", "type", "type_set", "payload")))
    nodes = sorted(g.nodes)
    n = draw(st.sampled_from(nodes))
    if kind == "node":
        new = draw(st.sampled_from([a for a in _IDS if a not in g.nodes]))
        some_type = min(g.type_set)
        return _rebuild(
            g,
            nodes=g.nodes | {new},
            t={**g.t, new: Timestamp(0)},
            tau={**g.tau, new: some_type},
            payloads={**g.payloads, new: b""},
        )
    if kind == "edge":
        pairs = [(a, b) for a in nodes for b in nodes if a != b]
        assume(pairs)
        return _rebuild(g, edges=g.edges ^ {draw(st.sampled_from(pairs))})
    if kind == "timestamp":
        micros = draw(st.sampled_from([m for m in _STAMPS if m != g.t[n].micros]))
        return _rebuild(g, t={**g.t, n: Timestamp(micros)})
    if kind == "type":
        others = sorted(x for x in g.type_set if x != g.tau[n])
        assume(others)
        return _rebuild(g, tau={**g.tau, n: draw(st.sampled_from(others))})
    if kind == "type_set":
        in_use = set(g.tau.values())
        toggles = sorted({ty(name) for name in _TYPES} - in_use)
        assume(toggles)
        return _rebuild(g, type_set=g.type_set ^ {draw(st.sampled_from(toggles))})
    payload = draw(st.sampled_from([p for p in _PAYLOADS if p != g.payloads[n]]))
    return _rebuild(g, payloads={**g.payloads, n: payload})


@st.composite
def column_swaps(draw, g: TypedTemporalGraph) -> TypedTemporalGraph:
    """`g` with the timestamps, types or payloads of two nodes swapped: same values, other owners."""
    assume(len(g.nodes) > 1)
    a, b = draw(st.lists(st.sampled_from(sorted(g.nodes)), min_size=2, max_size=2, unique=True))
    field = draw(st.sampled_from(("t", "tau", "payloads")))
    column = getattr(g, field)
    return _rebuild(g, **{field: {**column, a: column[b], b: column[a]}})


@st.composite
def graph_pairs(draw) -> tuple[TypedTemporalGraph, TypedTemporalGraph]:
    g1 = draw(typed_graphs())
    how = draw(st.sampled_from(("independent", "copy", "variant", "swap")))
    if how == "independent":
        return g1, draw(typed_graphs())
    if how == "copy":
        return g1, _rebuild(g1, t=dict(g1.t), tau=dict(g1.tau), payloads=dict(g1.payloads))
    if how == "variant":
        return g1, draw(one_field_variants(g1))
    return g1, draw(column_swaps(g1))


def _grown(g: TypedTemporalGraph) -> TypedTemporalGraph:
    """`g` plus one fresh node under its smallest node, so the pair is a legal chain."""
    new = next(a for a in _IDS if a not in g.nodes)
    parent = min(g.nodes)
    return _rebuild(
        g,
        nodes=g.nodes | {new},
        edges=g.edges | {(parent, new)},
        t={**g.t, new: Timestamp(g.t[parent].micros + 1)},
        tau={**g.tau, new: g.tau[parent]},
        payloads={**g.payloads, new: b"grown"},
    )


class TestGraphKey:
    @settings(max_examples=200)
    @given(graph_pairs())
    def test_equality_is_reference_key_equality(self, pair):
        g1, g2 = pair
        same = reference_key(g1) == reference_key(g2)
        assert (g1 == g2) is same
        assert (g2 == g1) is same
        if same:
            assert hash(g1) == hash(g2)

    @settings(max_examples=100)
    @given(st.lists(graph_pairs(), min_size=1, max_size=6))
    def test_sequences_sort_as_by_the_reference_key(self, pairs):
        pool = []
        for g1, g2 in pairs:
            # A fresh node is left whenever a graph has at most four of the six ids.
            pool += [ExecutionSequence((g1,)), ExecutionSequence((g2,)), ExecutionSequence((g1, _grown(g1)))]
        fast = sorted(pool, key=_seq_sort_key)
        reference = sorted(pool, key=lambda s: tuple(reference_key(g) for g in s.graphs))
        assert [id(s) for s in fast] == [id(s) for s in reference]

    def test_building_computes_no_key(self):
        rows = [(aid(1), None, Timestamp(0), ty("root"), b""), (aid(2), aid(1), Timestamp(1), ty("leaf"), b"x")]
        g = graph_from_rows(rows)
        c = Cteg(graph_from_rows(rows), aid(1))
        assert g._key is None and g._hash is None
        assert c.graph._key is None and c.graph._hash is None
        assert g == c.graph and hash(g) == hash(c.graph)

    def test_session_history_computes_no_key(self):
        ids = iter(range(1, 100))
        s = begin_session(ty("root"), wall_clock=lambda: 0, id_factory=lambda: next(ids).to_bytes(16, "big"))
        node = s.root
        for _ in range(5):
            node = s.emit(node, [(ty("step"), b"")])[0]
        history = s.history()
        assert history._hash is None
        assert all(g._key is None for g in history.graphs)


# ---------------------------------------------------------------------------
# Diagnostics order


def _many_violations() -> TypedTemporalGraph:
    """Three edges into the root, four bad in-degrees, three unreachable nodes, a cycle, six mistimed edges."""
    return graph(
        {0x50: 10, 0x10: 5, 0x90: 20, 0x30: 15, 0x70: 12, 0x20: 8, 0xA0: 30, 0x60: 40, 0x40: 25},
        {
            (0x10, 0x50),
            (0x50, 0x90),
            (0x90, 0x50),
            (0x50, 0x30),
            (0x90, 0x30),
            (0x30, 0x70),
            (0x50, 0x20),
            (0xA0, 0x60),
            (0x70, 0x40),
            (0x40, 0x50),
            (0x60, 0x40),
        },
    )


def test_diagnostics_keep_their_content_and_order():
    h = hexid
    expected = (
        Violation("edge-into-root", f"edge ({h(0x10)}, {h(0x50)}) points into the root"),
        Violation("edge-into-root", f"edge ({h(0x40)}, {h(0x50)}) points into the root"),
        Violation("edge-into-root", f"edge ({h(0x90)}, {h(0x50)}) points into the root"),
        Violation("in-degree", f"node {h(0x10)} has in-degree 0, expected exactly 1"),
        Violation("in-degree", f"node {h(0x30)} has in-degree 2, expected exactly 1"),
        Violation("in-degree", f"node {h(0x40)} has in-degree 2, expected exactly 1"),
        Violation("in-degree", f"node {h(0xA0)} has in-degree 0, expected exactly 1"),
        Violation("unreachable", f"node {h(0x10)} is not reachable from the root"),
        Violation("unreachable", f"node {h(0x60)} is not reachable from the root"),
        Violation("unreachable", f"node {h(0xA0)} is not reachable from the root"),
        Violation(
            "cycle",
            "cycle detected involving nodes "
            + ", ".join(h(n) for n in (0x20, 0x30, 0x40, 0x50, 0x70, 0x90)),
        ),
        Violation("edge-timestamp", f"edge ({h(0x30)}, {h(0x70)}) has t=15 not strictly below t=12"),
        Violation("edge-timestamp", f"edge ({h(0x40)}, {h(0x50)}) has t=25 not strictly below t=10"),
        Violation("edge-timestamp", f"edge ({h(0x50)}, {h(0x20)}) has t=10 not strictly below t=8"),
        Violation("edge-timestamp", f"edge ({h(0x60)}, {h(0x40)}) has t=40 not strictly below t=25"),
        Violation("edge-timestamp", f"edge ({h(0x90)}, {h(0x30)}) has t=20 not strictly below t=15"),
        Violation("edge-timestamp", f"edge ({h(0x90)}, {h(0x50)}) has t=20 not strictly below t=10"),
    )
    assert validate_cteg(_many_violations(), aid(0x50)).violations == expected


# ---------------------------------------------------------------------------
# Orders under timestamp ties


def tied_cteg(rng: random.Random, n_nodes: int) -> Cteg:
    """Random tree whose nodes sit 1 or 2 microseconds after their parents, so siblings often tie."""
    ids = [ActionId(rng.randbytes(16)) for _ in range(n_nodes)]
    t = {ids[0]: rng.randint(0, 3)}
    rows = [(ids[0], None, Timestamp(t[ids[0]]), ty("root"), rng.randbytes(2))]
    for i in range(1, n_nodes):
        parent = ids[rng.randrange(i)]
        t[ids[i]] = t[parent] + rng.randint(1, 2)
        rows.append((ids[i], parent, Timestamp(t[ids[i]]), ty(rng.choice(_TYPES)), rng.randbytes(rng.randint(0, 3))))
    return Cteg(graph_from_rows(rows), ids[0])


GOLDEN_TIED_EXPORTS = "bbd0edeebe7d01f7beaf9394cb4f9b9bba9ec522870e92ffd4508657817c90dc"
GOLDEN_TIED_RECEIPTS = "160ffda05fa4088bff33d4a233e1b7d19ec2f9c5af7f0c6e6e2dc18c49c4c532"
GOLDEN_SIMULATIONS = "25b5ba4adedcb83196508c92c9cb4e3ae89838a80695aaee5a9c93cb572194cb"
GOLDEN_STORES_AND_COMMANDS = "ad95dd9a381e749e48345a263f95e970db0e99ab6f10c68715c01a46cabad620"
GOLDEN_V2_STORES_AND_COMMANDS = "a37956285df5bb5d9a5ca60c49f4a2e9c6084bf7ca1bc488ac186e039c7f46f2"


class TestTies:
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=40))
    def test_projection_and_child_order_break_ties_by_id(self, seed, n):
        c = tied_cteg(random.Random(seed), n)
        g = c.graph
        assert temporal_projection(c) == tuple(sorted(g.nodes, key=lambda x: (g.t[x], x)))
        assert all(children == tuple(sorted(children)) for children in g.children_map().values())

    def test_exports_and_receipts_match_their_goldens(self):
        exports, receipts = hashlib.sha256(), hashlib.sha256()
        for seed in range(20):
            c = tied_cteg(random.Random(seed), 60)
            exports.update(export_trace(c, SessionId.from_int(seed)))
            receipts.update(merkle_root(c).value)
        assert exports.hexdigest() == GOLDEN_TIED_EXPORTS
        assert receipts.hexdigest() == GOLDEN_TIED_RECEIPTS

    def test_simulations_match_their_golden(self, tmp_path, capsys):
        outputs = hashlib.sha256()
        for seed in range(10):
            out = tmp_path / f"sim{seed}.cteg"
            argv = ["simulate", "--seed", str(seed), "--max-depth", "3", "--fail-prob", "0.3", "--out", str(out)]
            assert main(argv) == 0
            outputs.update(capsys.readouterr().out.encode())
            outputs.update(out.read_bytes())
        assert outputs.hexdigest() == GOLDEN_SIMULATIONS

    def test_stores_and_commands_match_their_golden(self, tmp_path, capsys):
        assert stores_and_commands(tmp_path, capsys, _MAGIC_V1) == GOLDEN_STORES_AND_COMMANDS

    def test_v2_stores_and_commands_match_their_golden(self, tmp_path, capsys):
        assert stores_and_commands(tmp_path, capsys, b"") == GOLDEN_V2_STORES_AND_COMMANDS


def stores_and_commands(tmp_path, capsys, magic: bytes) -> str:
    """Digest of ten simulated traces' store logs, each begun as `magic` (empty: a new log), and command outputs."""
    outputs = hashlib.sha256()
    for seed in range(10):
        out, log = tmp_path / f"sim{seed}.cteg", tmp_path / f"sim{seed}.store"
        argv = ["simulate", "--seed", str(seed), "--max-depth", "3", "--fail-prob", "0.3", "--out", str(out)]
        assert main(argv) == 0
        trace, sid = import_trace(out.read_bytes())
        log.write_bytes(magic)
        with FileStore(log) as store:
            store.register_session(sid)
            append_trace(store, sid, trace)
        outputs.update(log.read_bytes())
        with FileStore(log) as store:
            again = store.register_session(SessionId.from_int(seed))
            append_trace(store, again, store.load_session(sid))
        outputs.update(log.read_bytes())
        capsys.readouterr()
        for command in ("verify", "project", "normalize", "commit"):
            assert main([command, str(out)]) == 0
            outputs.update(capsys.readouterr().out.encode())
    return outputs.hexdigest()
