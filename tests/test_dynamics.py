"""Unit tests for step semantics, normalization, membership and the oracle.

Covered claims:
    - emission and invocation application enforce disjointness and strict
      timestamps, reject an unknown root, payloads for nodes not emitted
      and an unusable attach node, and preserve CTEG validity; a chain
      needs a graph, extension pair by pair and one label per step
    - delta analysis recognises exactly the legal steps, including the
      singleton case where both readings coincide
    - e0_normalize round-trips any valid trace through an emission-only
      schedule, and replaying that schedule rebuilds the trace exactly; it
      equals the reference replay in `util` (graphs, declared type sets and
      labels), passes the public constructor, and runs no extension proof
    - invocation application is opaque: only the sub-execution's final
      graph matters
    - membership accepts exactly chains of legal steps and is closed under
      prefixes
    - within finite bounds, the hierarchy ascends, is strict at depth one,
      stabilises at depth one, and its stable set is the least fixed point,
      matching an independently written closure enumeration; at five actions
      all four oracle assertions hold, and with one node per emission depth
      two outgrows depth one
    - the oracle's levels and step labels at the CLI defaults and at a
      two-type bound are pinned by sha256 goldens, and `phi` agrees with the
      reference implementation in `util` on results, labels and the exact
      budget at which it gives up
    - for `phi` and the reference alike, a level is closed under renaming
      action ids and a step label is a function of its two graphs, which is
      what enumerating by orbit rests on
    - the d* table's two cheapest rows (4 actions, 4 timestamps, max_len 3,
      batches of one or uncapped) stabilise at depth one
    - `phi` given a level it returned (depth 0-2) gives the result, labels
      and exact budget of the same pool as a plain frozenset, and at depth
      0-1 the reference's; so it does at five actions, where a graft class
      of E1 has a least sequence E0 lacks; each orbit's least member is
      found without a member scan; a level pickles, copies and unions as a
      plain frozenset, and one built under other bounds is never reused
    - at the CLI defaults, `phi(E0)` builds only the members of the orbits
      new in E1, `phi(E1)` and `phi(E2)` build no graph, sequence or label,
      and the whole chain with its assertions compares no two sequences;
      chains that share a final hash by the ids their last step added
"""

import copy
import hashlib
import pickle
import random
from operator import itemgetter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cteg import (
    ActionId,
    AttachPointError,
    BudgetExceededError,
    CompatibilityError,
    Cteg,
    DisjointnessError,
    Emission,
    EmptyEmissionError,
    ExecutionSequence,
    Invocation,
    TypedTemporalGraph,
    UniverseBounds,
    UnknownNodeError,
    ValidationFailedError,
    apply_emission,
    apply_invocation,
    canonical_listing,
    e0_normalize,
    hierarchy,
    is_emission_step,
    is_invocation_step,
    is_member_e_infinity,
    phi,
    replicate_as_e0_invocation,
    validate_cteg,
)
from cteg import dynamics
from cteg.cli import _oracle_bounds
from cteg.core import NodeTable
from cteg.dynamics import _least_member, _rename_chain, _seq_sort_key
from util import (
    aid,
    budget_spent,
    chains_of,
    counting_graphs,
    counting_labels,
    counting_sequences,
    counting_subgraph_proofs,
    cteg,
    ctegs,
    enumerate_closure,
    graph,
    hexid,
    junk_sequence,
    label_listing,
    random_cteg,
    reference_e0_normalize,
    reference_phi,
    reference_rename_chain,
    ts,
    ty,
)


def bounds_of(n_actions, n_stamps, max_len, n_types=1, max_step_emit=None):
    return UniverseBounds(
        actions=tuple(aid(i + 1) for i in range(n_actions)),
        timestamps=tuple(ts(i) for i in range(n_stamps)),
        types=frozenset(ty(f"t{i}") for i in range(n_types)),
        max_len=max_len,
        max_step_emit=max_step_emit,
    )


class TestApplyEmission:
    def test_single_child(self):
        g = graph({1: 0}, set())
        g2 = apply_emission(g, aid(1), {aid(2): (ts(1), ty("evt"))})
        assert g2.edges == {(aid(1), aid(2))}
        assert g2.t[aid(2)] == ts(1)

    def test_simultaneous_children_allowed(self):
        g = graph({1: 0}, set())
        g2 = apply_emission(g, aid(1), {aid(2): (ts(1), ty("x")), aid(3): (ts(1), ty("y"))})
        assert validate_cteg(g2, aid(1)).ok

    def test_timestamp_violation(self):
        g = graph({1: 0}, set())
        with pytest.raises(CompatibilityError):
            apply_emission(g, aid(1), {aid(2): (ts(0), ty("evt"))})

    def test_empty_emission(self):
        with pytest.raises(EmptyEmissionError):
            apply_emission(graph({1: 0}, set()), aid(1), {})

    def test_empty_emission_label(self):
        with pytest.raises(EmptyEmissionError):
            Emission(aid(1), frozenset())

    def test_node_collision(self):
        g = graph({1: 0, 2: 1}, {(1, 2)})
        with pytest.raises(DisjointnessError):
            apply_emission(g, aid(1), {aid(2): (ts(5), ty("evt"))})

    @pytest.mark.parametrize(
        "root, payloads, message",
        [(9, None, "emission root"), (1, {aid(3): b"x"}, "not being emitted")],
        ids=["unknown-root", "payload-for-a-node-not-emitted"],
    )
    def test_unknown_root_or_payload_node_rejected(self, root, payloads, message):
        with pytest.raises(UnknownNodeError, match=message):
            apply_emission(graph({1: 0}, set()), aid(root), {aid(2): (ts(1), ty("evt"))}, payloads=payloads)

    def test_payloads_attach_to_new_nodes(self):
        g = graph({1: 0}, set())
        g2 = apply_emission(g, aid(1), {aid(2): (ts(1), ty("evt"))}, payloads={aid(2): b"pp"})
        assert g2.payloads[aid(2)] == b"pp"

    @given(ctegs(max_nodes=8), st.integers(0, 2**32 - 1))
    def test_preserves_validity(self, c, seed):
        rng = random.Random(seed)
        p = rng.choice(sorted(c.graph.nodes))
        fresh = ActionId.fresh()  # system entropy: cannot collide with seeded ids
        g2 = apply_emission(
            c.graph, p, {fresh: (ts(c.graph.t[p].micros + 1), ty("evt"))}
        )
        assert validate_cteg(g2, c.root).ok


class TestExecutionSequence:
    @pytest.mark.parametrize(
        "graphs, steps, message",
        [
            ((), None, "at least one graph"),
            ((graph({1: 0, 2: 1}, {(1, 2)}), graph({1: 0}, set())), None, "must extend the previous one"),
            ((graph({1: 0}, set()), graph({1: 0, 2: 1}, {(1, 2)})), (), "one step label per extension"),
        ],
        ids=["no-graphs", "not-extending", "wrong-label-count"],
    )
    def test_malformed_chains_rejected(self, graphs, steps, message):
        with pytest.raises(ValueError, match=message):
            ExecutionSequence(graphs, steps)


class TestApplyInvocation:
    def test_single_node_subtrace(self):
        g = graph({1: 4}, set())
        sub = ExecutionSequence((graph({9: 5}, set()),), ())
        g2 = apply_invocation(g, aid(1), sub)
        assert g2.edges == {(aid(1), aid(9))}

    def test_strictness_at_attach(self):
        g = graph({1: 5}, set())
        sub = ExecutionSequence((graph({9: 5, 10: 6}, {(9, 10)}),), ())
        with pytest.raises(CompatibilityError):
            apply_invocation(g, aid(1), sub)

    def test_recursive_two_level_scenario(self):
        # a parent invokes at its depth-1 node; the sub-execution itself grew
        # to height 2, so the grafted result reaches height 3 in one step
        child_final = graph({5: 2, 6: 3, 7: 4}, {(5, 6), (6, 7)})
        child_seq = e0_normalize(Cteg(child_final, aid(5)))
        parent = graph({1: 0, 2: 1}, {(1, 2)})
        merged = apply_invocation(parent, aid(2), child_seq)
        c = Cteg(merged, aid(1))
        assert validate_cteg(merged, aid(1)).ok
        from cteg import height

        assert height(c) == 4

    def test_consumes_only_the_final_element(self):
        g = graph({1: 0}, set())
        final = graph({5: 2, 6: 3}, {(5, 6)})
        near_empty = ExecutionSequence((graph({5: 2}, set()), final), None)
        via_e0 = e0_normalize(Cteg(final, aid(5)))
        assert apply_invocation(g, aid(1), near_empty) == apply_invocation(g, aid(1), via_e0)

    def test_ambiguous_attach_requires_explicit_choice(self):
        final = TypedTemporalGraph(
            nodes=frozenset({aid(5), aid(6)}),
            edges=frozenset(),
            t={aid(5): ts(2), aid(6): ts(3)},
            tau={aid(5): ty("evt"), aid(6): ty("evt")},
            type_set=frozenset({ty("evt")}),
        )
        sub = ExecutionSequence((final,), ())
        g = graph({1: 0}, set())
        with pytest.raises(AttachPointError):
            apply_invocation(g, aid(1), sub)
        g2 = apply_invocation(g, aid(1), sub, attach=aid(5))
        assert (aid(1), aid(5)) in g2.edges

    def test_no_attach_candidate(self):
        cyclic = TypedTemporalGraph(
            nodes=frozenset({aid(5), aid(6)}),
            edges=frozenset({(aid(5), aid(6)), (aid(6), aid(5))}),
            t={aid(5): ts(2), aid(6): ts(3)},
            tau={aid(5): ty("evt"), aid(6): ty("evt")},
            type_set=frozenset({ty("evt")}),
        )
        sub = ExecutionSequence((cyclic,), ())
        with pytest.raises(AttachPointError):
            apply_invocation(graph({1: 0}, set()), aid(1), sub)

    @pytest.mark.parametrize(
        "root, attach, error, message",
        [
            (7, None, UnknownNodeError, "invocation root"),
            (1, 8, AttachPointError, "not in the final graph"),
            (1, 6, AttachPointError, "does not have in-degree zero"),
        ],
        ids=["unknown-root", "attach-outside-the-final-graph", "attach-with-an-in-edge"],
    )
    def test_unknown_root_or_unusable_attach_rejected(self, root, attach, error, message):
        sub = ExecutionSequence((graph({5: 2, 6: 3}, {(5, 6)}),), ())
        with pytest.raises(error, match=message):
            apply_invocation(graph({1: 0}, set()), aid(root), sub, attach=None if attach is None else aid(attach))

    def test_disjointness(self):
        g = graph({1: 0, 9: 1}, {(1, 9)})
        sub = ExecutionSequence((graph({9: 5}, set()),), ())
        with pytest.raises(DisjointnessError):
            apply_invocation(g, aid(1), sub)


class TestIsEmissionStep:
    def test_two_children_witnessed(self):
        g = graph({1: 0}, set())
        g2 = graph({1: 0, 2: 1, 3: 1}, {(1, 2), (1, 3)})
        w = is_emission_step(g, g2)
        assert w is not None
        assert w.root == aid(1)
        assert w.emitted == {aid(2), aid(3)}

    def test_two_distinct_roots_rejected(self):
        # delta {2, 3} hangs off two different parents: 1->2 but 2->3
        g = graph({1: 0}, set())
        g2 = graph({1: 0, 2: 1, 3: 2}, {(1, 2), (2, 3)})
        assert is_emission_step(g, g2) is None

    def test_no_growth_rejected(self):
        g = graph({1: 0}, set())
        assert is_emission_step(g, g) is None

    def test_non_extension_rejected(self):
        g = graph({1: 0}, set())
        g2 = graph({1: 1, 2: 2}, {(1, 2)})  # timestamp of node 1 changed
        assert is_emission_step(g, g2) is None

    def test_timestamp_violation_rejected(self):
        g = graph({1: 5}, set())
        g2 = graph({1: 5, 2: 5}, {(1, 2)})
        assert is_emission_step(g, g2) is None


class TestIsInvocationStep:
    def test_arborescent_delta_witnessed(self):
        g = graph({1: 0}, set())
        g2 = graph({1: 0, 5: 2, 6: 3}, {(1, 5), (5, 6)})
        w = is_invocation_step(g, g2)
        assert w is not None
        assert (w.root, w.attach) == (aid(1), aid(5))
        assert w.graft.nodes == {aid(5), aid(6)}
        assert w.graft.edges == {(aid(5), aid(6))}

    def test_two_crossing_edges_rejected(self):
        g = graph({1: 0, 2: 1}, {(1, 2)})
        g2 = graph({1: 0, 2: 1, 5: 2, 6: 3}, {(1, 2), (1, 5), (2, 6), (5, 6)})
        assert is_invocation_step(g, g2) is None

    def test_singleton_delta_is_both_witnesses(self):
        g = graph({1: 0}, set())
        g2 = graph({1: 0, 5: 2}, {(1, 5)})
        assert is_emission_step(g, g2) is not None
        assert is_invocation_step(g, g2) is not None

    def test_edge_from_delta_back_into_host_rejected(self):
        g = graph({1: 0, 2: 9}, {(1, 2)})
        g2 = graph({1: 0, 2: 9, 5: 2, 6: 3}, {(1, 2), (1, 5), (5, 6), (6, 2)})
        assert is_invocation_step(g, g2) is None

    def test_internal_edge_into_attach_rejected(self):
        g = graph({1: 0}, set())
        g2 = graph({1: 0, 5: 2, 6: 3}, {(1, 5), (6, 5)})
        assert is_invocation_step(g, g2) is None

    def test_timestamp_violation_rejected(self):
        g = graph({1: 5}, set())
        g2 = graph({1: 5, 5: 5, 6: 6}, {(1, 5), (5, 6)})
        assert is_invocation_step(g, g2) is None

    def test_no_new_node_is_no_step(self):
        g = graph({1: 0, 5: 2}, {(1, 5)})
        assert is_invocation_step(g, g) is None


class TestE0Normalize:
    def test_single_root(self):
        seq = e0_normalize(cteg({1: 0}, set(), root=1))
        assert len(seq) == 1
        assert seq.steps == ()

    def test_chain(self):
        c = cteg({1: 0, 2: 1, 3: 2}, {(1, 2), (2, 3)}, root=1)
        seq = e0_normalize(c)
        assert [len(g.nodes) for g in seq.graphs] == [1, 2, 3]
        assert seq.final == c.graph

    @pytest.mark.parametrize("seed", range(6))
    def test_round_trip_with_emission_witnesses(self, seed):
        c = random_cteg(random.Random(seed), 12)
        seq = e0_normalize(c)
        assert len(seq) == len(c.graph.nodes)
        assert seq.final == c.graph
        for g, g2 in zip(seq.graphs, seq.graphs[1:]):
            assert is_emission_step(g, g2) is not None

    @given(ctegs())
    def test_replay_reproduces_the_trace(self, c):
        seq = e0_normalize(c)
        g = seq.graphs[0]
        assert seq.steps is not None
        for label, target in zip(seq.steps, seq.graphs[1:]):
            new = {a: (target.t[a], target.tau[a]) for a in label.emitted}
            payloads = {a: target.payloads[a] for a in label.emitted}
            g = apply_emission(g, label.root, new, payloads=payloads)
            assert g == target
        assert g == c.graph


@st.composite
def ctegs_declaring_types(draw):
    """Traces from `ctegs`, some declaring types they do not use."""
    c = draw(ctegs(max_nodes=20))
    extra = draw(st.sets(st.sampled_from(["spare", "idle", "task"]), max_size=2))
    g = c.graph
    declared = g.type_set | {ty(name) for name in extra}
    return Cteg(TypedTemporalGraph(g.nodes, g.edges, g.t, g.tau, declared, g.payloads), c.root)


class TestE0NormalizeMatchesReference:
    @given(ctegs_declaring_types())
    def test_equals_the_reference_replay(self, c):
        seq, ref = e0_normalize(c), reference_e0_normalize(c)
        assert seq.graphs == ref.graphs
        assert [g.type_set for g in seq.graphs] == [g.type_set for g in ref.graphs]
        assert all(g.type_set == c.graph.type_set for g in seq.graphs)
        assert seq.steps == ref.steps

    @given(ctegs_declaring_types())
    def test_public_constructor_accepts_it(self, c):
        seq = e0_normalize(c)
        rebuilt = ExecutionSequence(seq.graphs, seq.steps)
        assert rebuilt == seq and rebuilt.steps == seq.steps

    def test_runs_no_extension_proof(self):
        c = random_cteg(random.Random(4), 30)
        calls, patch = counting_subgraph_proofs()
        with patch:
            e0_normalize(c)
        assert calls == []


class TestReplicateAsE0Invocation:
    def _nested_invocation_step(self):
        inner_final = graph({7: 4, 8: 5}, {(7, 8)})
        inner = e0_normalize(Cteg(inner_final, aid(7)))
        outer_first = graph({5: 2, 6: 3}, {(5, 6)})
        outer_final = apply_invocation(outer_first, aid(6), inner)
        outer = ExecutionSequence(
            (graph({5: 2}, set()), outer_first, outer_final),
            (
                Emission(aid(5), frozenset({aid(6)})),
                Invocation(aid(6), inner, aid(7)),
            ),
        )
        return Invocation(root=aid(1), subtrace=outer, attach=aid(5))

    def test_nested_subtrace_flattens_to_same_final(self):
        step = self._nested_invocation_step()
        flat = replicate_as_e0_invocation(step)
        assert flat.subtrace.final == step.subtrace.final
        assert (flat.root, flat.attach) == (step.root, step.attach)
        assert flat.subtrace.steps is not None
        assert all(isinstance(s, Emission) for s in flat.subtrace.steps)

    def test_already_emission_only_subtrace(self):
        sub = e0_normalize(cteg({5: 2, 6: 3}, {(5, 6)}, root=5))
        step = Invocation(root=aid(1), subtrace=sub, attach=aid(5))
        assert replicate_as_e0_invocation(step).subtrace.final == sub.final

    def test_application_is_identical(self):
        step = self._nested_invocation_step()
        flat = replicate_as_e0_invocation(step)
        host = graph({1: 0}, set())
        original = apply_invocation(host, step.root, step.subtrace, attach=step.attach)
        replayed = apply_invocation(host, flat.root, flat.subtrace, attach=flat.attach)
        assert original == replayed

    def test_invalid_final_rejected(self):
        final = TypedTemporalGraph(
            nodes=frozenset({aid(5), aid(6), aid(7)}),
            edges=frozenset({(aid(5), aid(6)), (aid(7), aid(6))}),
            t={aid(5): ts(2), aid(6): ts(4), aid(7): ts(3)},
            tau={n: ty("evt") for n in (aid(5), aid(6), aid(7))},
            type_set=frozenset({ty("evt")}),
        )
        step_like = ExecutionSequence((final,), ())
        with pytest.raises(AttachPointError):
            # 6 has in-degree two, so it cannot even be named as the attach
            Invocation(root=aid(1), subtrace=step_like, attach=aid(6))
        bad = Invocation(root=aid(1), subtrace=step_like, attach=aid(5))
        with pytest.raises(ValidationFailedError):
            replicate_as_e0_invocation(bad)

    def test_invalid_final_keeps_its_context_and_diagnostics(self):
        final = graph({5: 2, 6: 4, 7: 3}, {(5, 6), (5, 7), (7, 6)})
        bad = Invocation(root=aid(1), subtrace=ExecutionSequence((final,), ()), attach=aid(5))
        with pytest.raises(ValidationFailedError) as info:
            replicate_as_e0_invocation(bad)
        assert info.value.diagnostics == validate_cteg(final, aid(5))
        assert str(info.value).startswith("sub-execution final graph is not a valid CTEG: in-degree: ")

    def test_attach_outside_the_final_graph_rejected(self):
        sub = ExecutionSequence((graph({5: 2}, set()),), ())
        with pytest.raises(AttachPointError, match="not in the sub-execution's final graph"):
            Invocation(root=aid(1), subtrace=sub, attach=aid(8))

    def test_an_emission_step_rejected(self):
        with pytest.raises(TypeError, match="expects an Invocation"):
            replicate_as_e0_invocation(Emission(aid(1), frozenset({aid(2)})))

    def test_final_graph_is_validated_once(self):
        # One node-table proof of the final graph's rows; `validate_cteg` only words a rejection.
        step = self._nested_invocation_step()
        spy = mock.Mock(wraps=validate_cteg)
        checks = mock.patch.object(NodeTable, "check", autospec=True, side_effect=NodeTable.check)
        with checks as check, mock.patch("cteg.core.validate_cteg", spy), mock.patch("cteg.dynamics.validate_cteg", spy):
            replicate_as_e0_invocation(step)
        assert check.call_count == 1 and len(check.call_args.args[1]) == len(step.subtrace.final.nodes)
        assert spy.call_count == 0


class TestMembership:
    def test_normalized_traces_are_members(self):
        c = random_cteg(random.Random(3), 10)
        assert is_member_e_infinity(e0_normalize(c)).ok

    def test_in_degree_two_delta_rejected(self):
        g0 = graph({1: 0}, set())
        bad_delta = graph(
            {1: 0, 5: 1, 6: 2, 7: 3},
            {(1, 5), (5, 6), (5, 7), (6, 7)},
        )
        seq = ExecutionSequence((g0, bad_delta), None)
        report = is_member_e_infinity(seq)
        assert not report.ok
        assert "step-invalid" in report.codes()

    def test_every_prefix_of_a_member_is_a_member(self):
        c = random_cteg(random.Random(5), 9)
        seq = e0_normalize(c)
        for k in range(1, len(seq.graphs) + 1):
            assert seq.steps is not None
            prefix = ExecutionSequence(seq.graphs[:k], seq.steps[: k - 1])
            assert is_member_e_infinity(prefix).ok

    def test_non_trivial_start_rejected(self):
        g = graph({1: 0, 2: 1}, {(1, 2)})
        report = is_member_e_infinity(ExecutionSequence((g,), ()))
        assert report.codes() == ("initial-not-trivial",)

    def test_verdict_ignores_labels(self):
        # mislabel a perfectly valid emission chain; delta analysis still accepts
        g0 = graph({1: 0}, set())
        g1 = graph({1: 0, 2: 1}, {(1, 2)})
        mislabeled = ExecutionSequence((g0, g1), (Emission(aid(1), frozenset({aid(9)})),))
        assert is_member_e_infinity(mislabeled).ok

    def test_valid_invocation_of_cteg_delta_accepted(self):
        g0 = graph({1: 0}, set())
        g1 = graph({1: 0, 5: 1, 6: 2}, {(1, 5), (5, 6)})
        assert is_member_e_infinity(ExecutionSequence((g0, g1), None)).ok


class TestUniverseBounds:
    def test_pools_are_sorted_and_deduplicated(self):
        b = UniverseBounds(
            actions=(aid(2), aid(1), aid(2)),
            timestamps=(ts(1), ts(0)),
            types=frozenset({ty("x")}),
            max_len=2,
        )
        assert b.actions == (aid(1), aid(2))
        assert b.timestamps == (ts(0), ts(1))
        assert b.emit_cap == 2

    def test_empty_pools_rejected(self):
        with pytest.raises(ValueError):
            UniverseBounds(actions=(), timestamps=(ts(0),), types=frozenset({ty("x")}), max_len=1)

    def test_max_len_must_be_positive(self):
        with pytest.raises(ValueError):
            bounds_of(2, 2, 0)

    def test_max_step_emit_must_be_positive(self):
        with pytest.raises(ValueError, match="max_step_emit must be at least 1"):
            bounds_of(2, 2, 1, max_step_emit=0)


class TestPhi:
    def test_renaming_runs_no_proof(self):
        seq = e0_normalize(random_cteg(random.Random(5), 6))
        renaming = {n: aid(100 + i) for i, n in enumerate(sorted(seq.final.nodes))}
        calls, patch = counting_subgraph_proofs()
        with patch:
            renamed = _rename_chain(seq, renaming)
        assert calls == []
        assert ExecutionSequence(renamed.graphs) == renamed

    @pytest.mark.parametrize("n_types,expected", [(1, 4), (3, 12)])
    def test_base_level_count_matches_direct_formula(self, n_types, expected):
        # 2 actions x 2 timestamps x n types of single-root sequences
        assert expected == 2 * 2 * n_types
        level0 = phi(frozenset(), bounds_of(2, 2, 1, n_types=n_types))
        assert len(level0) == expected

    def test_base_level_golden_listing(self):
        level0 = phi(frozenset(), bounds_of(2, 2, 1))
        expected = "".join(
            f"types{{t0}};nodes{{{hexid(n)}@{m}:t0}};edges{{}}\n"
            for n in (1, 2)
            for m in (0, 1)
        )
        assert canonical_listing(level0) == expected

    def test_emission_only_level_has_no_invocation_labels(self):
        for seq in phi(frozenset(), bounds_of(2, 2, 2)):
            assert seq.steps is not None
            assert all(isinstance(s, Emission) for s in seq.steps)

    @pytest.mark.parametrize("seed", range(10))
    def test_monotone_on_random_pool_pairs(self, seed):
        rng = random.Random(seed)
        b = bounds_of(3, 3, 2)
        universe = sorted(hierarchy(b, 1)[-1], key=lambda s: len(s.graphs))
        bigger = frozenset(s for s in universe if rng.random() < 0.5) | {
            junk_sequence(b.actions, b.timestamps, tuple(sorted(b.types)))
        }
        smaller = frozenset(s for s in bigger if rng.random() < 0.5)
        assert phi(smaller, b) <= phi(bigger, b)

    def test_deterministic_across_calls(self):
        b = bounds_of(3, 3, 2)
        first = phi(frozenset(), b)
        second = phi(frozenset(), b)
        assert first == second
        assert canonical_listing(first) == canonical_listing(second)

    def test_out_of_bounds_candidates_contribute_nothing(self):
        b = bounds_of(3, 3, 2)
        exotic = ExecutionSequence((graph({9: 999}, set()),), ())  # timestamp outside the pool
        assert phi(frozenset({exotic}), b) == phi(frozenset(), b)

    def test_budget_exhaustion_raises(self):
        with pytest.raises(BudgetExceededError):
            phi(frozenset(), bounds_of(4, 4, 3), budget=50)

    def test_every_attach_candidate_of_a_loose_final_is_tried(self):
        # a pool final with two in-degree-zero nodes can be grafted either way;
        # the whole final lands in the host, with the dangling node left loose
        loose = ExecutionSequence(
            (TypedTemporalGraph(
                nodes=frozenset({aid(1), aid(2)}),
                edges=frozenset(),
                t={aid(1): ts(1), aid(2): ts(2)},
                tau={aid(1): ty("t0"), aid(2): ty("t0")},
                type_set=frozenset({ty("t0")}),
            ),),
            (),
        )
        b = bounds_of(3, 3, 2)
        out = phi(frozenset({loose}), b)
        attach_edges = {
            next(iter(s.final.edges))
            for s in out
            if len(s.graphs) == 2 and len(s.final.nodes) == 3 and len(s.final.edges) == 1
        }
        targets = {edge[1] for edge in attach_edges}
        assert len(targets) >= 2  # grafts through both in-degree-zero nodes occur

    def test_max_step_emit_caps_batch_width(self):
        b = UniverseBounds(
            actions=tuple(aid(i + 1) for i in range(3)),
            timestamps=(ts(0), ts(1)),
            types=frozenset({ty("t0")}),
            max_len=2,
            max_step_emit=1,
        )
        for seq in phi(frozenset(), b):
            assert seq.steps is not None
            assert all(len(s.emitted) == 1 for s in seq.steps)


class TestHierarchyAtDeskScale:
    def test_levels_ascend_strictly_then_stabilise(self):
        b = bounds_of(3, 3, 2)
        levels = hierarchy(b, 2)
        assert levels[0] <= levels[1] <= levels[2]
        assert levels[0] != levels[1]
        assert levels[1] == levels[2]

    def test_depth_one_witness_is_a_tall_graft(self):
        # a height-2 chain grafted in one step cannot come from emissions alone
        b = bounds_of(3, 3, 2)
        level0, level1 = hierarchy(b, 1)
        gained = level1 - level0
        assert gained
        assert any(
            len(s.graphs) == 2 and len(s.final.nodes) == 3 for s in gained
        )

    def test_stable_set_is_a_fixed_point(self):
        b = bounds_of(3, 3, 2)
        stable = hierarchy(b, 2)[-1]
        assert phi(stable, b) == stable

    @pytest.mark.parametrize("seed", range(8))
    def test_random_closed_supersets_contain_the_stable_set(self, seed):
        # closed sets are built as the stable set plus chains whose finals
        # occupy the whole action pool, leaving no room to graft them
        rng = random.Random(seed)
        b = bounds_of(3, 3, 2)
        stable = hierarchy(b, 2)[-1]
        filler = set()
        for _ in range(rng.randint(1, 4)):
            ids = list(b.actions)
            rng.shuffle(ids)
            stamps = [rng.choice(b.timestamps) for _ in ids]
            full = TypedTemporalGraph(
                nodes=frozenset(ids),
                edges=frozenset(),
                t=dict(zip(ids, stamps)),
                tau={n: ty("t0") for n in ids},
                type_set=frozenset({ty("t0")}),
            )
            filler.add(ExecutionSequence((full,), ()))
        closed = stable | filler
        assert phi(closed, b) <= closed
        assert stable <= closed

    def test_matches_independent_closure_enumeration(self):
        b = bounds_of(3, 3, 2)
        stable = hierarchy(b, 2)[-1]
        independent = enumerate_closure(
            b.actions, b.timestamps, tuple(sorted(b.types)), b.max_len
        )
        assert chains_of(stable) == independent

    def test_membership_accepts_exactly_the_stable_set(self):
        b = bounds_of(3, 3, 2)
        stable = hierarchy(b, 2)[-1]
        for seq in stable:
            assert is_member_e_infinity(seq).ok
        # and an in-bounds chain outside the stable set is refused
        outside = junk_sequence(b.actions, b.timestamps, tuple(sorted(b.types)))
        assert outside not in stable
        assert not is_member_e_infinity(outside).ok

    def test_d_max_zero_is_single_level(self):
        b = bounds_of(2, 2, 1)
        levels = hierarchy(b, 0)
        assert len(levels) == 1

    def test_negative_d_max_rejected(self):
        with pytest.raises(ValueError, match="d_max must be non-negative"):
            hierarchy(bounds_of(2, 2, 1), -1)

    def test_negative_budget_rejected(self):
        for run in (lambda b: phi(frozenset(), b, budget=-5), lambda b: hierarchy(b, 1, budget=-1)):
            with pytest.raises(ValueError, match="budget must be non-negative"):
                run(bounds_of(2, 2, 1))
        assert phi(frozenset(), bounds_of(1, 1, 1), budget=0) is not None  # zero is a budget

    def test_five_actions_pass_every_assertion(self):
        # the `cteg oracle --actions 5` bounds; two levels alive at a time
        b = _oracle_bounds(5, 4, 3)
        e0 = phi(frozenset(), b)
        e1 = phi(e0, b)
        assert (len(e0), len(e1)) == (18_790, 33_810)
        assert e0 <= e1 and e0 != e1
        del e0
        e2 = phi(e1, b)
        assert e1 == e2
        del e1
        assert phi(e2, b) == e2

    @pytest.mark.parametrize(
        "max_step_emit,d_star,sizes", [(1, 1, (520, 1432, 1432)), (None, 1, (2032, 2944, 2944))], ids=["batches-of-one", "uncapped"]
    )
    def test_stabilisation_depth_of_the_cheapest_table_rows(self, max_step_emit, d_star, sizes):
        # README's d* table at 4 actions, 4 timestamps and max_len 3: the least d with E_d == E_{d+1}
        b = _oracle_bounds(4, 4, 3)
        b = UniverseBounds(b.actions, b.timestamps, b.types, b.max_len, max_step_emit)
        levels = hierarchy(b, d_star + 1)
        assert tuple(map(len, levels)) == sizes
        assert levels[d_star - 1] != levels[d_star] == levels[d_star + 1]

    def test_depth_two_outgrows_depth_one_when_batches_are_capped(self):
        # With one node per emission, a two-step sequence can end in a
        # four-node tree (a root with a graft of a two-node chain and one
        # emission) that no emission-only sequence ends in. Depth two grafts
        # that tree in one step; depth one cannot. The sizes agree with
        # `util.reference_phi`, which takes about 20 s, so it is not rerun here.
        b = bounds_of(5, 4, 3, max_step_emit=1)
        e0, e1, e2 = hierarchy(b, 2)
        assert (len(e0), len(e1), len(e2)) == (1220, 11_000, 11_300)
        assert e1 < e2
        e0_finals = {s.final for s in e0}
        for s in e2 - e1:
            assert len(s.graphs) == 2 and isinstance(s.steps[0], Invocation)
            grafted = s.steps[0].subtrace.final
            assert len(grafted.nodes) == 4 and grafted not in e0_finals


class TestOpacity:
    @pytest.mark.parametrize("seed", range(5))
    def test_result_depends_only_on_the_final_element(self, seed):
        rng = random.Random(seed)
        final_cteg = random_cteg(rng, rng.randint(2, 7), root_ts=50)
        via_e0 = e0_normalize(final_cteg)
        direct = ExecutionSequence((final_cteg.graph,), ())
        host = random_cteg(rng, rng.randint(1, 5), root_ts=0)
        anchors = [n for n in sorted(host.graph.nodes) if host.graph.t[n] < ts(50)]
        p = rng.choice(anchors)
        assert apply_invocation(host.graph, p, via_e0) == apply_invocation(host.graph, p, direct)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# Digests of E0, E1, E2 and phi(E2): (canonical_listing, label_listing).
ORACLE_GOLDENS = {
    "cli-defaults": (
        _oracle_bounds(4, 4, 3),
        [
            ("9f34c420713adb601ae6c46a974481e4a87d0a764cf959a8c0dfb19b5b7cb5bf",
             "7085a86f0fc1f92963a74de7ab1d6aa9c811216fd6e7c35694502aa64fea5693"),
        ] + 3 * [
            ("1f3c8e95845900beddae8bae0c055144edfcaada729137061713ee3f887e03af",
             "89a7a2ef8c2cbd1a9351856f8327ed98220af2ab1034a70e04e4959f41b26fad"),
        ],
    ),
    "two-types": (
        bounds_of(3, 4, 3, n_types=2),
        [
            ("845540a10acc8accc18d4af76544ae0f592b4328073ce9a99e8bf56b0e20d83d",
             "eed033db96c933158f08202b9f02342197a15e020d3ef2a2291b72078a909301"),
        ] + 3 * [
            ("1dba5d509d1fdad5681de48acccbd1d7661a1557a687769f1ab71aa45a3a485f",
             "14ba5b429aca06b6dc7c5dd700fc09f1f643e59ef54a911d6d2536ff7b3c8ea8"),
        ],
    ),
}


class TestOracleGoldens:
    @pytest.mark.parametrize("name", sorted(ORACLE_GOLDENS))
    def test_levels_and_labels_match_goldens(self, name):
        b, expected = ORACLE_GOLDENS[name]
        pool: frozenset = frozenset()
        digests = []
        for _ in range(4):
            pool = phi(pool, b)
            digests.append((sha256(canonical_listing(pool)), sha256(label_listing(pool))))
        assert digests == expected


def loose_final(b: UniverseBounds, rng: random.Random) -> ExecutionSequence:
    """An in-bounds edgeless final on two or three ids: every node is an attach candidate."""
    ids = rng.sample(b.actions, min(len(b.actions), rng.randint(2, 3)))
    types = sorted(b.types)
    g = TypedTemporalGraph(
        nodes=frozenset(ids),
        edges=frozenset(),
        t={n: rng.choice(b.timestamps) for n in ids},
        tau={n: rng.choice(types) for n in ids},
        type_set=b.types,
        payloads={n: rng.choice((b"", b"p")) for n in ids},
    )
    return ExecutionSequence((g,), ())


def out_of_bounds_final(b: UniverseBounds, rng: random.Random) -> ExecutionSequence:
    """A one-node final whose timestamp or type no bounded sequence can use."""
    a = rng.choice(b.actions)
    if rng.random() < 0.5:
        return ExecutionSequence((TypedTemporalGraph.trivial(a, ts(10**6), sorted(b.types)[0]),), ())
    return ExecutionSequence((TypedTemporalGraph.trivial(a, b.timestamps[0], ty("exotic")),), ())


# Small bounds for the reference property. The corner of 4 actions, 2 types
# and max_len 3 is left out: its first level alone has 17,600 to 40,448
# sequences (by max_step_emit), seconds of work per phi call.
small_bounds = st.builds(
    bounds_of,
    n_actions=st.integers(2, 4),
    n_stamps=st.integers(2, 4),
    max_len=st.integers(2, 3),
    n_types=st.integers(1, 2),
    max_step_emit=st.one_of(st.none(), st.integers(1, 2)),
).filter(lambda b: not (len(b.actions) == 4 and len(b.types) == 2 and b.max_len == 3))


def pool_of(b: UniverseBounds, depth: int, rng: random.Random) -> frozenset:
    """Level `depth` of the hierarchy plus junk, loose and out-of-bounds sequences."""
    lower: frozenset = frozenset()
    for _ in range(depth):
        lower = phi(lower, b)
    extra = [junk_sequence(b.actions, b.timestamps, tuple(sorted(b.types)))]
    extra += [loose_final(b, rng) for _ in range(rng.randint(0, 3))]
    extra += [out_of_bounds_final(b, rng) for _ in range(rng.randint(0, 2))]
    return lower | frozenset(extra)


class TestLevelSymmetry:
    """What enumerating by orbit rests on, checked on `phi` and on the reference alike."""

    @pytest.mark.parametrize("oracle", [phi, reference_phi], ids=["phi", "reference"])
    @settings(max_examples=8, deadline=None)
    @given(b=small_bounds, depth=st.integers(0, 1), seed=st.integers(0, 2**32 - 1))
    def test_a_level_is_closed_under_renaming_actions(self, oracle, b, depth, seed):
        rng = random.Random(seed)
        level = oracle(pool_of(b, depth, rng), b)
        ids = list(b.actions)
        rng.shuffle(ids)
        renaming = dict(zip(b.actions, ids))
        assert {reference_rename_chain(s, renaming) for s in level} == level

    @pytest.mark.parametrize("oracle", [phi, reference_phi], ids=["phi", "reference"])
    @settings(max_examples=8, deadline=None)
    @given(b=small_bounds, depth=st.integers(0, 1), seed=st.integers(0, 2**32 - 1))
    def test_a_step_label_is_a_function_of_its_two_graphs(self, oracle, b, depth, seed):
        level = oracle(pool_of(b, depth, random.Random(seed)), b)
        labels = {}
        for s in level:
            for pair, label in zip(zip(s.graphs, s.graphs[1:]), s.steps):
                assert labels.setdefault(pair, label) == label

    @settings(max_examples=8, deadline=None)
    @given(b=small_bounds, depth=st.integers(0, 1), seed=st.integers(0, 2**32 - 1))
    def test_every_graph_passes_the_checked_constructor(self, b, depth, seed):
        # expansion builds graphs and subtraces unchecked, as renamings of checked ones
        level = phi(pool_of(b, depth, random.Random(seed)), b)
        subtraces = [x.subtrace for s in level for x in s.steps if isinstance(x, Invocation)]
        for g in {g for s in [*level, *subtraces] for g in s.graphs}:
            assert TypedTemporalGraph(g.nodes, g.edges, g.t, g.tau, g.type_set, g.payloads) == g


class TestPhiMatchesReference:
    """The fast `phi` against the verbatim reference in `util.reference_phi`."""

    @settings(max_examples=20, deadline=None)
    @given(b=small_bounds, depth=st.integers(0, 1), seed=st.integers(0, 2**32 - 1))
    def test_results_labels_and_budget_match(self, b, depth, seed):
        rng = random.Random(seed)
        lower: frozenset = frozenset()
        for _ in range(depth):
            lower = phi(lower, b)
        extra = [junk_sequence(b.actions, b.timestamps, tuple(sorted(b.types)))]
        extra += [loose_final(b, rng) for _ in range(rng.randint(0, 3))]
        extra += [out_of_bounds_final(b, rng) for _ in range(rng.randint(0, 2))]
        pool = lower | frozenset(extra)

        fast_spent, fast = budget_spent(lambda: phi(pool, b))
        ref_spent, ref = budget_spent(lambda: reference_phi(pool, b))
        assert fast == ref
        assert label_listing(fast) == label_listing(ref)
        # Both give up exactly above the same total: one unit less raises.
        assert fast_spent == ref_spent
        assert phi(pool, b, budget=fast_spent) == fast
        if fast_spent:
            with pytest.raises(BudgetExceededError):
                phi(pool, b, budget=fast_spent - 1)


def level_at(b: UniverseBounds, depth: int) -> frozenset:
    """Level `depth` of the hierarchy, as `phi` returns it."""
    level = phi(frozenset(), b)
    for _ in range(depth):
        level = phi(level, b)
    return level


class TestLevelReuse:
    """`phi` given a level it returned, under equal bounds, against the same pool as a plain frozenset."""

    @settings(max_examples=12, deadline=None)
    @given(b=small_bounds, depth=st.integers(0, 2))
    def test_a_level_pool_gives_the_plain_pool_result_labels_and_budget(self, b, depth):
        level = level_at(b, depth)
        plain = frozenset(level)
        assert type(plain) is frozenset
        fast_spent, fast = budget_spent(lambda: phi(level, b))
        slow_spent, slow = budget_spent(lambda: phi(plain, b))
        assert fast == slow
        assert label_listing(fast) == label_listing(slow)
        assert fast_spent == slow_spent
        if fast_spent:
            for pool in (level, plain):
                with pytest.raises(BudgetExceededError):
                    phi(pool, b, budget=fast_spent - 1)
        if depth < 2:
            ref = reference_phi(level, b)
            assert fast == ref and label_listing(fast) == label_listing(ref)

    def test_a_class_whose_least_sequence_is_new_relabels_its_grafts(self):
        # At five actions a graft class of E1 can have a least sequence that E0 lacks, so an orbit of
        # E2 with the parent and final form of an E1 orbit is grafted from another rep; its labels change.
        b = bounds_of(5, 4, 3, max_step_emit=2)
        e1 = level_at(b, 1)
        fast = phi(e1, b)
        slow = phi(frozenset(e1), b)
        assert fast == slow and label_listing(fast) == label_listing(slow)

    def test_the_least_member_of_each_orbit_is_the_least_by_sort_key(self):
        e1 = level_at(bounds_of(4, 4, 3, n_types=2, max_step_emit=2), 1)
        least = []
        for s, kept in e1.members.items():
            key, m = _least_member(s)
            assert kept[m] is min(kept.values(), key=_seq_sort_key)
            least.append((key, kept[m]))
        # keys in action indices order the least members as their own sort keys do
        assert [seq for _key, seq in sorted(least, key=itemgetter(0))] == sorted((seq for _key, seq in least), key=_seq_sort_key)

    def test_a_level_pickles_copies_and_unions_as_a_plain_frozenset(self):
        b = bounds_of(3, 3, 2)
        level = phi(frozenset(), b)
        assert type(level) is not frozenset
        func, args = level.__reduce__()
        assert func is frozenset and all(isinstance(s, ExecutionSequence) for s in args[0])
        others = [pickle.loads(pickle.dumps(level)), copy.copy(level), copy.deepcopy(level)]
        others += [level | frozenset(), level & level, level - frozenset(), level ^ frozenset()]
        for other in others:
            assert type(other) is frozenset and other == level

    def test_a_level_under_other_bounds_is_never_reused(self):
        b = bounds_of(3, 3, 2)
        for other in (bounds_of(3, 3, 2, max_step_emit=1), bounds_of(3, 4, 2), bounds_of(3, 3, 3)):
            level = phi(frozenset(), other)
            with mock.patch.multiple(dynamics, _level_classes=mock.DEFAULT, _reused=mock.DEFAULT) as fast_path:
                result = phi(level, b)
            assert not any(f.called for f in fast_path.values())
            plain = phi(frozenset(level), b)
            assert result == plain and label_listing(result) == label_listing(plain)

    def test_at_the_cli_defaults_only_the_orbits_new_in_e1_are_expanded(self):
        b = _oracle_bounds(4, 4, 3)
        e0 = phi(frozenset(), b)
        built, patch = counting_sequences()
        with patch:
            e1 = phi(e0, b)
        in_e1 = {id(s) for s in e1}
        assert {id(s) for s in e0} <= in_e1  # every member of E0 is reused as it is
        assert sum(id(s) in in_e1 for s in built) == len(e1) - len(e0) == 912
        assert all(s.steps is None for s in built if id(s) not in in_e1)  # the rest are renamed subtraces

        graphs, graph_patch = counting_graphs()
        sequences, sequence_patch = counting_sequences()
        labels, label_patch = counting_labels()
        with graph_patch, sequence_patch, label_patch:
            e2 = phi(e1, b)
            fix = phi(e2, b)
        assert (graphs, sequences, labels) == ([], [], [])
        assert e1 == e2 == fix

    def test_a_chain_at_the_cli_defaults_compares_no_two_sequences(self):
        b = _oracle_bounds(4, 4, 3)
        calls = []
        eq = ExecutionSequence.__eq__

        def counting(self, other):
            calls.append(1)
            return eq(self, other)

        with mock.patch.object(ExecutionSequence, "__eq__", counting):
            e0, e1, e2, fix = hierarchy(b, 3)
            assert e0 <= e1 <= e2 and e0 != e1 and e1 == e2 == fix
        assert calls == []

    def test_chains_sharing_a_final_hash_by_their_last_step(self):
        root, a, b = graph({1: 0}, set()), graph({1: 0, 2: 1}, {(1, 2)}), graph({1: 0, 3: 1}, {(1, 3)})
        both = graph({1: 0, 2: 1, 3: 1}, {(1, 2), (1, 3)})
        via_a, via_b = ExecutionSequence((root, a, both)), ExecutionSequence((root, b, both))
        assert via_a != via_b and hash(via_a) != hash(via_b)
