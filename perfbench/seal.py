"""Workload `seal`: archive ingest of finished traces, as an auditor or archiver runs it.

The inputs are canonical `cteg/1` trace texts that the benchmark writes
itself, without the library: rows sorted by (timestamp, node id), base64
payloads of 0-256 bytes, three tree shapes (uniform random parent, one deep
chain, fan-out of 40-60) at two sizes: 16 traces of each shape at 10^3
nodes and one at 10^4. One work item handles each size group with its own
`FileStore`: every trace is imported, given a receipt, verified,
exported again, registered and appended; then the store is reopened and
every session loaded back. The store flushes every append and never fsyncs
(the library's only policy today); both sides of a comparison share it.
"""

from __future__ import annotations

import base64
import random
from dataclasses import dataclass
from pathlib import Path

from harness import Recorder

TYPES = ("task", "tool", "llm", "observe")
SHAPES = ("uniform", "chain", "wide")
PAYLOAD_MAX = 256


@dataclass(frozen=True)
class Config:
    sizes: tuple[int, ...] = (1_000, 10_000)
    copies: tuple[int, ...] = (16, 1)  # traces of each shape at each size
    fan_out: tuple[int, int] = (40, 60)


FULL = Config()
SMOKE = Config(sizes=(50, 200), copies=(2, 1), fan_out=(4, 6))


def _parents(rng: random.Random, shape: str, n: int, cfg: Config) -> list[int | None]:
    if shape == "uniform":
        return [None] + [rng.randrange(i) for i in range(1, n)]
    if shape == "chain":
        return [None] + list(range(n - 1))
    parents: list[int | None] = [None]
    frontier = 0
    while len(parents) < n:
        parents += [frontier] * min(rng.randint(*cfg.fan_out), n - len(parents))
        frontier += 1
    return parents


def trace_text(rng: random.Random, shape: str, n: int, cfg: Config) -> bytes:
    """Canonical `cteg/1` text of one random trace, written without the library."""
    parents = _parents(rng, shape, n, cfg)
    ids = [rng.randbytes(16).hex() for _ in range(n)]
    ts = [rng.randint(0, 10**6)]
    for p in parents[1:]:
        ts.append(ts[p] + rng.randint(1, 1000))
    lines = [f"cteg/1 {rng.randbytes(16).hex()}"]
    for i in sorted(range(n), key=lambda i: (ts[i], ids[i])):
        p = parents[i]
        payload = base64.b64encode(rng.randbytes(rng.randint(0, PAYLOAD_MAX))).decode("ascii")
        lines.append("\t".join((ids[i], "-" if p is None else ids[p], str(ts[i]), rng.choice(TYPES), payload)))
    return ("\n".join(lines) + "\n").encode("ascii")


def generate(seed: int, cfg: Config) -> list[list[list[tuple[bytes, int]]]]:
    """One work item: a group of `(text, nodes)` per size, `copies` traces per shape; plain bytes, no library types."""
    rng = random.Random(seed)
    return [
        [[(trace_text(rng, shape, n, cfg), n) for _ in range(copies) for shape in SHAPES]
         for n, copies in zip(cfg.sizes, cfg.copies)]
    ]


class Workload:
    """Ingests, stores and reloads traces; its unit of work is one trace node taken through every stage."""

    UNIT = "nodes"

    def __init__(self, cteg, cfg: Config, work_dir: Path) -> None:
        self.cteg = cteg
        self.work_dir = work_dir
        self.units = 0
        self.stored_bytes = 0

    def item(self, rec: Recorder, groups, k: int) -> None:
        """One work item: every size group in turn."""
        for j, group in enumerate(groups):
            path = self.work_dir / f"item{k}-group{j}-{'traced' if rec.tracing else 'plain'}.ctegstore"
            rec.open("seal.group", f"seal-{k}-{j}")
            try:
                nodes = self._group(rec, group, path)
                size = path.stat().st_size
            except Exception as exc:
                rec.abandon(f"seal item {k} group {j}", exc)
                continue
            finally:
                rec.close()
                path.unlink(missing_ok=True)
            self.units += nodes
            self.stored_bytes += size

    def _group(self, rec: Recorder, group, path: Path) -> int:
        c = self.cteg
        store, _ = rec.call("persistence.filestore_create", c.FileStore, path)
        imported = []
        for text, n in group:
            if rec.tracing:
                (graph, root, sid), _ = rec.call("persistence.parse_trace", c.parse_trace, text, size=n)
                trace, _ = rec.call("core.cteg_construct", c.Cteg, graph, root, size=n)
            else:
                (trace, sid), _ = rec.call("persistence.import_trace", c.import_trace, text, size=n)
            digest, _ = rec.call("commitment.merkle_root", c.merkle_root, trace, size=n)
            verified, _ = rec.call("commitment.verify_commitment", c.verify_commitment, trace, digest, size=n)
            out, _ = rec.call("persistence.export_trace", c.export_trace, trace, sid, size=n)
            rec.call("persistence.register_session", store.register_session, sid)
            rec.call("persistence.append_trace", c.append_trace, store, sid, trace, size=n)
            rec.check("seal: export is byte-equal to the input", lambda: out == text)
            rec.check("seal: receipt verifies", lambda: verified is True)
            imported.append((sid, trace))
        nodes = sum(n for _, n in group)
        store, _ = rec.call("persistence.reopen", c.FileStore, path, size=nodes)
        for (sid, trace), (_, n) in zip(imported, group):
            loaded, _ = rec.call("persistence.load_session", store.load_session, sid, size=n)
            rec.check("seal: loaded trace equals the imported one", lambda: loaded == trace)
        rec.check("seal: store lists every session", lambda: store.session_ids() == tuple(s for s, _ in imported))
        return nodes
