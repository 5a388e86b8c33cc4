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
from hashlib import sha256
from typing import Sequence

from .core import Cteg, EventType, Timestamp, _OpaqueId

__all__ = ["DOMAIN_TAG", "Digest", "node_digest", "merkle_root", "verify_commitment"]

DOMAIN_TAG = b"CTEG-NODE-V1"


class Digest(_OpaqueId):
    """32-byte SHA-256 value."""

    __slots__ = ()
    _size = 32


_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")


def _type_head(name: str) -> bytes:
    """The preimage up to the timestamp: domain tag, name length, name."""
    raw = name.encode("utf-8")
    return DOMAIN_TAG + _U32.pack(len(raw)) + raw


def _digest(head: bytes, micros: int, payload: bytes, child_digests: Sequence[bytes]) -> bytes:
    """SHA-256 of one node's preimage, given its children's raw digests in canonical order."""
    return sha256(b"".join(
        (head, _I64.pack(micros), sha256(payload).digest(), _U32.pack(len(child_digests)), *child_digests)
    )).digest()


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
    return Digest(_digest(_type_head(event_type.name), timestamp.micros, payload, [d.value for d in child_digests]))


def merkle_root(c: Cteg) -> Digest:
    """Root digest of a trace, computed bottom-up without recursion.

    Timestamps strictly increase along edges, so walking the trace's plain
    projection rows backwards, in descending (timestamp, id) order, reaches
    every child before its parent and collects each node's child digests in
    reverse canonical order. The root comes last. Each type's preimage head
    is built once per call.
    """
    below: dict[bytes, list[bytes]] = {}
    heads: dict[str, bytes] = {}
    digest = b""
    for n, parent, micros, event_type, payload in reversed(c._rows):
        kids = below.pop(n, [])
        kids.reverse()
        head = heads.get(event_type.name) or heads.setdefault(event_type.name, _type_head(event_type.name))
        digest = _digest(head, micros, payload, kids)
        if parent is not None:
            below.setdefault(parent, []).append(digest)
    return Digest(digest)


def verify_commitment(c: Cteg, d: Digest) -> bool:
    """True exactly when `d` is the root digest of `c`."""
    return merkle_root(c) == d
