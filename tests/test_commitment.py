"""Unit tests for Merkle receipts.

Golden digests are frozen from an independent recomputation of the preimage
layout with raw hashlib calls (reproduced in `oracle_digest` below); the
production path must agree byte for byte.
"""

import hashlib
import random
import struct

import pytest
from hypothesis import given

from cteg import (
    Cteg,
    Digest,
    TypedTemporalGraph,
    e0_normalize,
    merkle_root,
    node_digest,
    verify_commitment,
)
from util import aid, cteg, ctegs, mutate_cteg, random_cteg, ts, ty

GOLDEN_ROOT_ONLY = "59b8e2b1f34c5df4b4b651aca55fae73515f21101b14c1e0332e79e47aeb8fc1"
GOLDEN_CHAIN = "5a7e0092c966388b136a312b51fc4e131cfee1f6b0ec6f69446cc1f49c4fec12"
GOLDEN_STAR = "169d5d4c8c440ef9b0233a5d8c15beb71b7a28ed0c6c2e1350b4da05b2c91815"
GOLDEN_STAR_SWAPPED = "bc07431d9dcc039d390984aca64fa43af57ad97f4358f63a4a73a77f21b8cb49"


def oracle_digest(type_name: str, micros: int, payload: bytes, children: list[bytes]) -> bytes:
    """Independent reference composition of the node preimage."""
    h = hashlib.sha256()
    h.update(b"CTEG-NODE-V1")
    name = type_name.encode()
    h.update(struct.pack("<I", len(name)))
    h.update(name)
    h.update(struct.pack("<q", micros))
    h.update(hashlib.sha256(payload).digest())
    h.update(struct.pack("<I", len(children)))
    for d in children:
        h.update(d)
    return h.digest()


def chain_fixture() -> Cteg:
    return cteg(
        {1: 0, 2: 5, 3: 9},
        {(1, 2), (2, 3)},
        root=1,
        types={1: "evt", 2: "step", 3: "leaf"},
        payloads={1: b"r", 2: b"aa", 3: b""},
    )


def star_fixture(swap_ids: bool = False) -> Cteg:
    left, right = (3, 2) if swap_ids else (2, 3)
    return cteg(
        {1: 0, left: 1, right: 1},
        {(1, left), (1, right)},
        root=1,
        types={1: "evt", left: "left", right: "right"},
        payloads={left: b"x", right: b"y"},
    )


class TestNodeDigest:
    def test_leaf_matches_the_oracle(self):
        got = node_digest(ty("evt"), ts(0), b"", [])
        assert got.value == oracle_digest("evt", 0, b"", [])
        assert got.hex == GOLDEN_ROOT_ONLY

    def test_internal_node_matches_the_oracle(self):
        child = node_digest(ty("leaf"), ts(9), b"", [])
        parent = node_digest(ty("step"), ts(5), b"aa", [child])
        expected = oracle_digest("step", 5, b"aa", [oracle_digest("leaf", 9, b"", [])])
        assert parent.value == expected

    def test_payload_avalanche(self):
        a = node_digest(ty("evt"), ts(0), b"payload", [])
        b = node_digest(ty("evt"), ts(0), b"paylOad", [])
        assert a != b

    def test_child_order_matters(self):
        x = node_digest(ty("l"), ts(1), b"", [])
        y = node_digest(ty("r"), ts(1), b"", [])
        assert node_digest(ty("evt"), ts(0), b"", [x, y]) != node_digest(ty("evt"), ts(0), b"", [y, x])

    def test_digest_requires_32_bytes(self):
        with pytest.raises(ValueError):
            Digest(b"short")


class TestMerkleRoot:
    def test_root_only_golden(self):
        c = cteg({1: 0}, set(), root=1)
        assert merkle_root(c).hex == GOLDEN_ROOT_ONLY

    def test_chain_golden(self):
        assert merkle_root(chain_fixture()).hex == GOLDEN_CHAIN

    def test_star_golden_and_id_permutation_changes_it(self):
        # equal timestamps: the canonical child order falls back to node ids,
        # so swapping which id carries which content flips the receipt
        assert merkle_root(star_fixture()).hex == GOLDEN_STAR
        assert merkle_root(star_fixture(swap_ids=True)).hex == GOLDEN_STAR_SWAPPED

    def test_identifiers_are_not_committed(self):
        a = cteg({1: 0, 2: 4}, {(1, 2)}, root=1)
        b = cteg({7: 0, 9: 4}, {(7, 9)}, root=7)
        assert merkle_root(a) == merkle_root(b)

    @pytest.mark.parametrize("seed", range(5))
    def test_construction_history_is_irrelevant(self, seed):
        c = random_cteg(random.Random(seed), 14)
        replayed = e0_normalize(c).final
        assert merkle_root(Cteg(replayed, c.root)) == merkle_root(c)

    def test_adding_a_leaf_anywhere_changes_the_root(self):
        c = chain_fixture()
        base = merkle_root(c)
        for parent in sorted(c.graph.nodes):
            grown = Cteg(
                TypedTemporalGraph(
                    nodes=c.graph.nodes | {aid(99)},
                    edges=c.graph.edges | {(parent, aid(99))},
                    t={**c.graph.t, aid(99): ts(100)},
                    tau={**c.graph.tau, aid(99): ty("evt")},
                    type_set=c.graph.type_set,
                    payloads=c.graph.payloads,
                ),
                c.root,
            )
            assert merkle_root(grown) != base

    @given(ctegs(max_nodes=30))
    def test_matches_the_recursive_definition(self, c):
        g, children = c.graph, c.graph.children_map()

        def reference(n):
            kids = sorted(children[n], key=lambda ch: (g.t[ch].micros, ch.value))
            return oracle_digest(g.tau[n].name, g.t[n].micros, g.payloads[n], [reference(ch) for ch in kids])

        assert merkle_root(c).value == reference(c.root)

    def test_deep_chain_does_not_hit_recursion_limits(self):
        nodes = {i: i for i in range(1, 3002)}
        edges = {(i, i + 1) for i in range(1, 3001)}
        deep = cteg(nodes, edges, root=1)
        assert len(merkle_root(deep).value) == 32


class TestVerifyCommitment:
    def test_accepts_the_true_receipt(self):
        c = chain_fixture()
        assert verify_commitment(c, merkle_root(c))

    def test_detects_payload_flip(self):
        c = chain_fixture()
        receipt = merkle_root(c)
        tampered = Cteg(
            TypedTemporalGraph(
                nodes=c.graph.nodes,
                edges=c.graph.edges,
                t=c.graph.t,
                tau=c.graph.tau,
                type_set=c.graph.type_set,
                payloads={**c.graph.payloads, aid(2): b"ab"},
            ),
            c.root,
        )
        assert not verify_commitment(tampered, receipt)

    def test_detects_one_microsecond_shift(self):
        c = chain_fixture()
        receipt = merkle_root(c)
        shifted = Cteg(
            TypedTemporalGraph(
                nodes=c.graph.nodes,
                edges=c.graph.edges,
                t={**c.graph.t, aid(3): ts(10)},
                tau=c.graph.tau,
                type_set=c.graph.type_set,
                payloads=c.graph.payloads,
            ),
            c.root,
        )
        assert not verify_commitment(shifted, receipt)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_single_mutations_are_detected(self, seed):
        rng = random.Random(seed)
        c = random_cteg(rng, rng.randint(1, 15))
        receipt = merkle_root(c)
        mutated, what = mutate_cteg(rng, c)
        assert merkle_root(mutated) != receipt, what
        assert not verify_commitment(mutated, receipt), what

    def test_partial_snapshots_have_receipts(self):
        c = random_cteg(random.Random(2), 9)
        seq = e0_normalize(c)
        for g in seq.graphs:
            assert len(merkle_root(Cteg(g, c.root)).value) == 32
