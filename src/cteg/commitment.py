"""Deterministic Merkle commitments over traces: tamper-evident receipts.

Every node hashes its event type, timestamp, payload hash and the digests
of its children in canonical order (ascending timestamp, then node id, so
simultaneous siblings still hash deterministically). The root digest is
then a pure function of the trace's structure and content: rebuilding the
same final trace by any construction order yields the same receipt, while
any single-field change anywhere flips it.

Node ids are deliberately excluded from the preimage: receipts commit to
what happened and when, not to the randomly drawn identifiers. Two
structurally identical traces share a receipt unless siblings tie on
timestamp, where the ids still decide the order of the child digests.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from hashlib import sha256
from typing import Sequence

from .core import ActionId, Cteg, EventType, Timestamp

__all__ = ["DOMAIN_TAG", "Digest", "node_digest", "merkle_root", "verify_commitment"]

DOMAIN_TAG = b"CTEG-NODE-V1"


@dataclass(frozen=True, order=True)
class Digest:
    """32-byte SHA-256 value."""

    value: bytes

    def __post_init__(self) -> None:
        if not isinstance(self.value, bytes) or len(self.value) != 32:
            raise ValueError("Digest requires exactly 32 bytes")

    @property
    def hex(self) -> str:
        return self.value.hex()

    @classmethod
    def from_hex(cls, s: str) -> "Digest":
        return cls(bytes.fromhex(s))

    def __repr__(self) -> str:
        return f"Digest({self.value.hex()})"


def node_digest(
    event_type: EventType,
    timestamp: Timestamp,
    payload: bytes,
    child_digests: Sequence[Digest],
) -> Digest:
    """Digest of one node given its children's digests in canonical order.

    Preimage layout: domain tag, u32-LE type-name length, type name bytes,
    i64-LE microseconds, SHA-256 of the payload, u32-LE child count, then
    the concatenated child digests.
    """
    name = event_type.name.encode("utf-8")
    h = sha256()
    h.update(DOMAIN_TAG)
    h.update(struct.pack("<I", len(name)))
    h.update(name)
    h.update(struct.pack("<q", timestamp.micros))
    h.update(sha256(payload).digest())
    h.update(struct.pack("<I", len(child_digests)))
    for d in child_digests:
        h.update(d.value)
    return Digest(h.digest())


def merkle_root(c: Cteg) -> Digest:
    """Root digest of a trace, computed bottom-up without recursion."""
    g = c.graph
    digests: dict[ActionId, Digest] = {}
    # A node is pushed bare, then again with its children in canonical order.
    stack: list[tuple[ActionId, list[ActionId] | None]] = [(c.root, None)]
    while stack:
        n, children = stack.pop()
        if children is None:
            children = sorted(g.children_map()[n], key=lambda ch: (g.t[ch].micros, ch.value))
            stack.append((n, children))
            stack.extend((ch, None) for ch in children)
        else:
            digests[n] = node_digest(g.tau[n], g.t[n], g.payloads[n], [digests[ch] for ch in children])
    return digests[c.root]


def verify_commitment(c: Cteg, d: Digest) -> bool:
    """True exactly when `d` is the root digest of `c`."""
    return merkle_root(c) == d
