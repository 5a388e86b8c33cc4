"""Unit tests for the graph model and its static operations.

Covered claims:
    - identifier, timestamp and type invariants hold at construction; ids
      are immutable values, equal, hashed and ordered by their bytes within
      their own class only, and survive pickling and deep copies
    - validators report every violated arborescence / timestamp condition
    - root-to-node paths are unique (checked against brute-force search)
    - node-table rows build the graph their parent pointers describe, and a
      trace's projection rows rebuild the trace
    - the module surface: `graph_text` is one function, in `core` and the
      package and no longer in `persistence`,
      and constants and aliases that only their own module uses are not
      exported from the package
    - grafting unions structure, preserves in-degrees, and composes two
      valid graphs exactly when the new edge strictly increases in time
    - temporal projection is a deterministic nondecreasing bijection and
      does not determine causal structure
    - height is the longest root-to-leaf path
"""

import copy
import operator
import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cteg import (
    ActionId,
    CompatibilityError,
    Cteg,
    DisjointnessError,
    EventType,
    Timestamp,
    TypedTemporalGraph,
    SessionId,
    UnknownNodeError,
    ValidationFailedError,
    causal_path,
    graft,
    graft_cteg,
    height,
    temporal_projection,
    validate_causal_graph,
    validate_cteg,
)
import cteg as package
from cteg import commitment, core, dynamics, persistence
from cteg.core import graph_from_rows, projection_rows
from util import aid, all_simple_paths, brute_force_in_degrees, cteg, ctegs, graph, random_cteg, ts, ty


class TestIdentifiers:
    def test_order_is_lexicographic_on_bytes(self):
        assert aid(1) < aid(2) < aid(255) < aid(256)

    def test_hex_roundtrip(self):
        a = aid(0xDEADBEEF)
        assert ActionId.from_hex(a.hex) == a
        assert len(a.hex) == 32

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            ActionId(b"short")

    @pytest.mark.parametrize("value", [bytes(15), bytes(17), bytearray(16), "0" * 16, 0])
    def test_only_sixteen_bytes_are_an_id(self, value):
        for cls in (ActionId, SessionId):
            with pytest.raises(ValueError, match="requires exactly 16 bytes"):
                cls(value)

    def test_ids_of_different_classes_are_never_equal(self):
        value = bytes(range(16))
        assert ActionId(value) != SessionId(value)
        assert not ActionId(value) == SessionId(value)
        assert len({ActionId(value), SessionId(value)}) == 2

    def test_equal_ids_hash_equal(self):
        value = bytes(range(16))
        for cls in (ActionId, SessionId):
            a, b = cls(value), cls(bytes(value))
            assert a == b and a is not b
            assert hash(a) == hash(b)
            assert {a: 1}[b] == 1

    @pytest.mark.parametrize("op", [operator.lt, operator.le, operator.gt, operator.ge])
    def test_ids_of_different_classes_do_not_order(self, op):
        with pytest.raises(TypeError):
            op(ActionId.from_int(1), SessionId.from_int(2))

    def test_order_operators_agree_with_the_bytes(self):
        ids = [ActionId.from_int(n) for n in (0, 1, 2, 255, 256)]
        for x in ids:
            for y in ids:
                assert (x < y, x <= y, x > y, x >= y, x == y) == (
                    x.value < y.value, x.value <= y.value, x.value > y.value, x.value >= y.value, x.value == y.value
                )

    def test_ids_are_immutable(self):
        a = ActionId.from_int(7)
        with pytest.raises(AttributeError):
            a.value = bytes(16)
        with pytest.raises(AttributeError):
            del a.value
        assert a == ActionId.from_int(7)

    def test_ids_take_no_other_attributes(self):
        for x in (ActionId.from_int(7), SessionId.from_int(7)):
            with pytest.raises(AttributeError):
                x.other = 1
            assert not hasattr(x, "__dict__")

    def test_pickle_and_deepcopy_round_trip(self):
        for x in (ActionId.from_int(5), SessionId.from_int(5)):
            for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x), copy.copy(x)):
                assert type(y) is type(x)
                assert y == x and hash(y) == hash(x)
                assert repr(y) == repr(x) and y.hex == x.hex

    def test_repr_names_the_class_and_the_hex(self):
        assert repr(ActionId.from_int(1)) == "ActionId(00000000000000000000000000000001)"
        assert repr(SessionId.from_int(1)) == "SessionId(00000000000000000000000000000001)"

    def test_fresh_ids_are_distinct(self):
        drawn = {ActionId.fresh() for _ in range(1000)}
        assert len(drawn) == 1000


class TestTimestamp:
    def test_exact_integer_order(self):
        assert Timestamp(1) < Timestamp(2)
        assert Timestamp(5) == Timestamp(5)
        assert not Timestamp(5) < Timestamp(5)

    def test_int64_range_enforced(self):
        Timestamp(2**63 - 1)
        Timestamp(-(2**63))
        with pytest.raises(ValueError):
            Timestamp(2**63)

    def test_non_int_rejected(self):
        with pytest.raises(ValueError):
            Timestamp(1.5)


class TestEventType:
    def test_valid_names(self):
        assert EventType("tool_call").name == "tool_call"

    @pytest.mark.parametrize("bad", ["", "a\tb", "a\nb", "x\x00", pytest.param("x" * 1025, id="1025-characters")])
    def test_invalid_names(self, bad):
        with pytest.raises(ValueError):
            EventType(bad)


class TestGraphConstruction:
    def test_edge_endpoint_must_exist(self):
        with pytest.raises(ValueError, match="endpoint"):
            graph({1: 0}, {(1, 2)})

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            TypedTemporalGraph(
                nodes=frozenset({aid(1)}),
                edges=frozenset({(aid(1), aid(1))}),
                t={aid(1): ts(0)},
                tau={aid(1): ty("evt")},
                type_set=frozenset({ty("evt")}),
            )

    def test_timestamp_map_must_be_total(self):
        with pytest.raises(ValueError, match="total"):
            TypedTemporalGraph(
                nodes=frozenset({aid(1), aid(2)}),
                edges=frozenset(),
                t={aid(1): ts(0)},
                tau={aid(1): ty("evt"), aid(2): ty("evt")},
                type_set=frozenset({ty("evt")}),
            )

    def test_node_type_must_be_declared(self):
        with pytest.raises(ValueError, match="type set"):
            TypedTemporalGraph(
                nodes=frozenset({aid(1)}),
                edges=frozenset(),
                t={aid(1): ts(0)},
                tau={aid(1): ty("undeclared")},
                type_set=frozenset({ty("evt")}),
            )

    @pytest.mark.parametrize(
        "fields, message",
        [
            (dict(nodes=frozenset(), t={}, tau={}), "at least one node"),
            (dict(tau={aid(1): ty("evt")}), "type map must be total"),
            (dict(payloads={aid(3): b"x"}), "payload map mentions unknown nodes"),
        ],
        ids=["no-nodes", "partial-type-map", "payload-for-an-unknown-node"],
    )
    def test_malformed_node_maps_rejected(self, fields, message):
        well_formed = dict(
            nodes=frozenset({aid(1), aid(2)}),
            edges=frozenset(),
            t={aid(1): ts(0), aid(2): ts(1)},
            tau={aid(1): ty("evt"), aid(2): ty("evt")},
            type_set=frozenset({ty("evt")}),
        )
        with pytest.raises(ValueError, match=message):
            TypedTemporalGraph(**{**well_formed, **fields})

    def test_payloads_default_to_empty(self):
        g = graph({1: 0, 2: 1}, {(1, 2)}, payloads={2: b"x"})
        assert g.payloads[aid(1)] == b""
        assert g.payloads[aid(2)] == b"x"

    def test_structural_equality_and_hash(self):
        g1 = graph({1: 0, 2: 1}, {(1, 2)})
        g2 = graph({2: 1, 1: 0}, {(1, 2)})
        assert g1 == g2
        assert hash(g1) == hash(g2)
        assert g1 != graph({1: 0, 2: 2}, {(1, 2)})


class TestGraphFromRows:
    def test_rows_become_nodes_and_parent_edges(self):
        rows = [
            (aid(1), None, ts(0), ty("task"), b"r"),
            (aid(2), aid(1), ts(1), ty("tool"), b""),
            (aid(3), aid(1), ts(2), ty("task"), b"x"),
        ]
        expected = graph(
            {1: 0, 2: 1, 3: 2},
            {(1, 2), (1, 3)},
            types={1: "task", 2: "tool", 3: "task"},
            payloads={1: b"r", 3: b"x"},
        )
        assert graph_from_rows(rows) == expected

    def test_repeated_node_rejected(self):
        with pytest.raises(ValueError, match="more than one row"):
            graph_from_rows([(aid(1), None, ts(0), ty("evt"), b""), (aid(1), None, ts(1), ty("evt"), b"")])

    def test_parent_outside_the_rows_rejected(self):
        with pytest.raises(ValueError, match="endpoint"):
            graph_from_rows([(aid(2), aid(1), ts(1), ty("evt"), b"")])

    def test_declared_type_set_replaces_the_types_in_use(self):
        rows = [(aid(1), None, ts(0), ty("task"), b"")]
        assert graph_from_rows(rows).type_set == {ty("task")}
        assert graph_from_rows(rows, {ty("task"), ty("spare")}).type_set == {ty("task"), ty("spare")}
        with pytest.raises(ValueError, match="outside the declared type set"):
            graph_from_rows(rows, {ty("spare")})

    @given(ctegs())
    def test_projection_rows_rebuild_the_trace(self, c):
        rows = projection_rows(c)
        assert [row[0] for row in rows] == list(temporal_projection(c))
        assert rows[0][1] is None and rows[0][0] == c.root
        assert graph_from_rows(rows, c.graph.type_set) == c.graph


class TestModuleSurface:
    def test_graph_text_is_one_function(self):
        assert package.graph_text is core.graph_text
        assert "graph_text" not in persistence.__all__ and not hasattr(persistence, "graph_text")

    def test_module_constants_stay_out_of_the_package_surface(self):
        for name, module in (("StepLabel", dynamics), ("DEFAULT_PAYLOAD_CAP", persistence), ("DOMAIN_TAG", commitment)):
            assert name in module.__all__ and hasattr(module, name)
            assert name not in package.__all__ and not hasattr(package, name)


class TestValidateCausalGraph:
    def test_single_node_is_a_causal_graph(self):
        assert validate_causal_graph(graph({1: 0}, set()), aid(1)).ok

    def test_two_cycle_reports_cycle_and_edge_into_root(self):
        diag = validate_causal_graph(graph({1: 0, 2: 1}, {(1, 2), (2, 1)}), aid(1))
        assert not diag.ok
        assert "edge-into-root" in diag.codes()
        assert "cycle" in diag.codes()

    def test_in_degree_two_detected(self):
        # diamond: node 4 has two parents; cross-check the count by brute force
        g = graph({1: 0, 2: 1, 3: 1, 4: 2}, {(1, 2), (1, 3), (2, 4), (3, 4)})
        assert brute_force_in_degrees(g)[aid(4)] == 2
        diag = validate_causal_graph(g, aid(1))
        assert "in-degree" in diag.codes()
        assert any(aid(4).hex in v.message for v in diag.violations)

    def test_unknown_root(self):
        diag = validate_causal_graph(graph({1: 0}, set()), aid(9))
        assert diag.codes() == ("unknown-root",)

    def test_unreachable_island(self):
        g = graph({1: 0, 2: 1, 3: 2, 4: 3}, {(1, 2), (3, 4), (4, 3)})
        diag = validate_causal_graph(g, aid(1))
        assert "unreachable" in diag.codes()
        assert "cycle" in diag.codes()


class TestValidateCteg:
    def test_increasing_chain_ok(self):
        assert validate_cteg(graph({1: 0, 2: 1, 3: 2}, {(1, 2), (2, 3)}), aid(1)).ok

    def test_equal_timestamp_edge_rejected(self):
        diag = validate_cteg(graph({1: 5, 2: 5}, {(1, 2)}), aid(1))
        assert diag.codes() == ("edge-timestamp",)

    def test_simultaneous_siblings_allowed(self):
        g = graph({1: 0, 2: 1, 3: 1}, {(1, 2), (1, 3)})
        assert validate_cteg(g, aid(1)).ok


class TestCausalPath:
    def test_chain(self):
        c = cteg({1: 0, 2: 1, 3: 2}, {(1, 2), (2, 3)}, root=1)
        assert causal_path(c, aid(3)) == (aid(1), aid(2), aid(3))

    def test_root_path_is_just_the_root(self):
        c = cteg({1: 0}, set(), root=1)
        assert causal_path(c, aid(1)) == (aid(1),)

    def test_path_through_a_shared_parent(self):
        # r->a, a->b, a->c; the path to c goes through a
        c = cteg({1: 0, 2: 1, 3: 2, 4: 3}, {(1, 2), (2, 3), (2, 4)}, root=1)
        assert causal_path(c, aid(4)) == (aid(1), aid(2), aid(4))

    def test_unknown_node(self):
        c = cteg({1: 0}, set(), root=1)
        with pytest.raises(UnknownNodeError):
            causal_path(c, aid(7))

    @given(ctegs(max_nodes=8))
    def test_paths_unique_by_brute_force(self, c):
        for n in c.graph.nodes:
            walks = all_simple_paths(c.graph, c.root, n)
            assert len(walks) == 1
            assert walks[0] == causal_path(c, n)


class TestGraft:
    def test_two_singletons(self):
        g = graft(graph({1: 0}, set()), aid(1), graph({2: 5}, set()), aid(2))
        assert g.nodes == {aid(1), aid(2)}
        assert g.edges == {(aid(1), aid(2))}

    def test_chain_onto_chain_edge_union(self):
        # computed by hand: edges are the union plus the attach edge
        g1 = graph({1: 0, 2: 1}, {(1, 2)})
        g2 = graph({3: 2, 4: 3}, {(3, 4)})
        g = graft(g1, aid(2), g2, aid(3))
        assert g.edges == {(aid(1), aid(2)), (aid(2), aid(3)), (aid(3), aid(4))}

    def test_overlap_rejected(self):
        with pytest.raises(DisjointnessError):
            graft(graph({1: 0}, set()), aid(1), graph({1: 5}, set()), aid(1))

    def test_unknown_attach_point(self):
        with pytest.raises(UnknownNodeError):
            graft(graph({1: 0}, set()), aid(9), graph({2: 5}, set()), aid(2))

    def test_unknown_graft_root(self):
        with pytest.raises(UnknownNodeError, match="graft root"):
            graft(graph({1: 0}, set()), aid(1), graph({2: 5}, set()), aid(9))

    def test_type_sets_merge_by_union(self):
        g1 = graph({1: 0}, set(), types={1: "x"})
        g2 = graph({2: 5}, set(), types={2: "y"})
        assert graft(g1, aid(1), g2, aid(2)).type_set == {ty("x"), ty("y")}

    @given(st.integers(0, 2**32 - 1), st.integers(2, 8), st.integers(1, 8))
    def test_graft_preserves_in_degrees_and_rootedness(self, seed, n1, n2):
        rng = random.Random(seed)
        c1 = random_cteg(rng, n1)
        c2 = random_cteg(rng, n2)
        p = rng.choice(sorted(c1.graph.nodes))
        g = graft(c1.graph, p, c2.graph, c2.root)
        before = brute_force_in_degrees(c1.graph) | brute_force_in_degrees(c2.graph)
        after = brute_force_in_degrees(g)
        for n in g.nodes:
            expected = before[n] + (1 if n == c2.root else 0)
            assert after[n] == expected
        assert validate_causal_graph(g, c1.root).ok


class TestGraftCteg:
    def test_compatible_graft_is_valid(self):
        c1 = cteg({1: 10}, set(), root=1)
        c2 = cteg({2: 11}, set(), root=2)
        out = graft_cteg(c1, aid(1), c2)
        assert out.root == aid(1)
        assert validate_cteg(out.graph, out.root).ok

    def test_equal_timestamps_rejected(self):
        c1 = cteg({1: 11}, set(), root=1)
        c2 = cteg({2: 11}, set(), root=2)
        with pytest.raises(CompatibilityError):
            graft_cteg(c1, aid(1), c2)

    def test_type_set_union(self):
        c1 = cteg({1: 0}, set(), root=1, types={1: "x"})
        c2 = cteg({2: 5}, set(), root=2, types={2: "y"})
        assert graft_cteg(c1, aid(1), c2).graph.type_set == {ty("x"), ty("y")}

    def test_iff_both_directions_sampled(self):
        rng = random.Random(7)
        succeeded = failed = 0
        for _ in range(300):
            c1 = random_cteg(rng, rng.randint(1, 6))
            p = rng.choice(sorted(c1.graph.nodes))
            c2 = random_cteg(rng, rng.randint(1, 6), root_ts=c1.graph.t[p].micros + rng.randint(-3, 4))
            compatible = c1.graph.t[p] < c2.graph.t[c2.root]
            if compatible:
                out = graft_cteg(c1, p, c2)
                assert validate_cteg(out.graph, out.root).ok
                succeeded += 1
            else:
                with pytest.raises(CompatibilityError):
                    graft_cteg(c1, p, c2)
                forced = graft(c1.graph, p, c2.graph, c2.root)
                diag = validate_cteg(forced, c1.root)
                assert "edge-timestamp" in diag.codes()
                failed += 1
        assert succeeded > 50 and failed > 50


COUNTEREXAMPLE_NODES = {1: 0, 2: 1, 3: 2, 4: 3}
COUNTEREXAMPLE_FORK_EDGES = {(1, 2), (2, 3), (2, 4)}
COUNTEREXAMPLE_CHAIN_EDGES = {(1, 2), (2, 3), (3, 4)}


class TestTemporalProjection:
    def test_counterexample_graphs_share_a_projection(self):
        g = cteg(COUNTEREXAMPLE_NODES, COUNTEREXAMPLE_FORK_EDGES, root=1)
        g_prime = cteg(COUNTEREXAMPLE_NODES, COUNTEREXAMPLE_CHAIN_EDGES, root=1)
        expected = (aid(1), aid(2), aid(3), aid(4))
        assert temporal_projection(g) == expected
        assert temporal_projection(g_prime) == expected
        assert g.graph.edges != g_prime.graph.edges  # projection does not determine causality

    def test_single_root(self):
        assert temporal_projection(cteg({5: 9}, set(), root=5)) == (aid(5),)

    @given(ctegs())
    def test_projection_is_sorted_bijection_with_parents_first(self, c):
        proj = temporal_projection(c)
        assert sorted(proj) == sorted(c.graph.nodes)
        assert len(set(proj)) == len(c.graph.nodes)
        stamps = [c.graph.t[n] for n in proj]
        assert stamps == sorted(stamps)
        position = {n: i for i, n in enumerate(proj)}
        for a, b in c.graph.edges:
            assert position[a] < position[b]


class TestHeight:
    def test_single_root(self):
        assert height(cteg({1: 0}, set(), root=1)) == 0

    def test_chain_of_three_edges(self):
        c = cteg({1: 0, 2: 1, 3: 2, 4: 3}, {(1, 2), (2, 3), (3, 4)}, root=1)
        assert height(c) == 3

    def test_grafted_depth_two_subtree_under_depth_one_node(self):
        parent = cteg({1: 0, 2: 1}, {(1, 2)}, root=1)
        subtree = cteg({3: 2, 4: 3, 5: 4}, {(3, 4), (4, 5)}, root=3)
        combined = graft_cteg(parent, aid(2), subtree)
        assert height(combined) == 4
        assert height(combined) >= 3


class TestCtegConstruction:
    def test_invalid_graph_rejected_with_diagnostics(self):
        g = graph({1: 5, 2: 5}, {(1, 2)})
        with pytest.raises(ValidationFailedError) as exc_info:
            Cteg(g, aid(1))
        assert "edge-timestamp" in exc_info.value.diagnostics.codes()

    def test_equality_and_hash(self):
        a = cteg({1: 0, 2: 1}, {(1, 2)}, root=1)
        b = cteg({2: 1, 1: 0}, {(1, 2)}, root=1)
        assert a == b and hash(a) == hash(b)
