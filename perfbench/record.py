"""Workload `record`: live recursive agent sessions, as an agent runtime drives them.

Each root session replays a script generated from the seed. A step emits a
batch of 1-4 events under a known node or, at rate 0.15 and to depth 3,
invokes a subagent (a subagent of `b` steps invokes at exactly
`round(0.15 * b)` of them). Subagents follow the rule of
`cli.run_simulation`: a subagent that completes gets its parent's step
budget, one that fails gets a uniform share of it (0 to the budget). The
root's budget for its subagents is 6 steps, the default of
`cteg simulate`. Of the subagents, 80% complete,
10% fail with GRAFT_PARTIAL and 10% with DISCARD. The root itself takes
steps until its trace, counting grafted children, reaches 1000 nodes. The
clock is logical and node ids come from a per-session seeded generator, so
a seed fixes every trace byte for byte. A session closes the way a runtime
closes it: snapshot, Merkle receipt, export.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from harness import Recorder

TYPES = ("task", "tool", "llm", "observe")
EMIT, INVOKE = 0, 1
COMPLETE, GRAFT_PARTIAL, DISCARD = 0, 1, 2


MAX_DEPTH = 3
INVOKES = (3, 20)  # 3 invocations in every 20 steps: rate 0.15
OUTCOMES = (COMPLETE,) * 8 + (GRAFT_PARTIAL, DISCARD)
BATCHES = (1, 2, 3, 4)
PAYLOAD_MAX = 256


@dataclass(frozen=True)
class Config:
    root_nodes: int = 1000
    sessions: int = 6
    child_steps: int = 6  # step budget of the root's subagents: the default `--steps` of `cteg simulate`


FULL = Config()
SMOKE = Config(root_nodes=60, sessions=2, child_steps=3)


class _Deck:
    """Draws without replacement from a fixed multiset, reshuffling when it runs out.

    Every root session thus has the same mix of batch sizes, invocations
    and outcomes; the seed decides their order, the parents, the step
    budgets of failed subagents, the payloads and the ids. That keeps the
    work of one seed close to that of another.
    """

    def __init__(self, rng: random.Random, values) -> None:
        self.rng = rng
        self.values = list(values)
        self.left: list = []

    def draw(self):
        if not self.left:
            self.left = self.values[:]
            self.rng.shuffle(self.left)
        return self.left.pop()


class _Decks:
    """One deck per kind of draw; the invocation deck serves the root session only."""

    def __init__(self, rng: random.Random) -> None:
        hits, period = INVOKES
        self.invoke = _Deck(rng, [True] * hits + [False] * (period - hits))
        self.outcome = _Deck(rng, OUTCOMES)
        self.batch = _Deck(rng, BATCHES)


def _payload(rng: random.Random) -> bytes:
    return rng.randbytes(rng.randint(0, PAYLOAD_MAX))


def _script(rng: random.Random, cfg: Config, decks: _Decks, depth: int, budget: int) -> tuple[tuple, int]:
    """One session's script and the node count its trace reaches.

    The root takes steps until its trace reaches `cfg.root_nodes`; a grafted
    subagent may carry it past that; its invocations come from a deck. A
    subagent takes `budget` steps, of which `round(0.15 * budget)`, at
    random, invoke. As in `cli.run_simulation`, a subagent that completes
    inherits the budget and one that fails runs a uniform 0 to `budget`
    steps.

    A script is `(root type, root payload, ops)`; an op is
    `(EMIT, parent index, ((type, payload), ...))` or
    `(INVOKE, parent index, child script, outcome)`. Parent indices point
    into the nodes the session knows at that moment: its own emitted nodes
    and the roots of children it grafted, in order.
    """
    root_type, payload = rng.randrange(len(TYPES)), _payload(rng)
    ops: list[tuple] = []
    hits, period = INVOKES
    invoke_at = set(rng.sample(range(budget), round(budget * hits / period))) if 0 < depth < MAX_DEPTH else set()
    known = size = 1
    step = 0
    while size < cfg.root_nodes if depth == 0 else step < budget:
        parent = rng.randrange(known)
        if decks.invoke.draw() if depth == 0 else step in invoke_at:
            outcome = decks.outcome.draw()
            child_budget = budget if outcome == COMPLETE else rng.randint(0, budget)
            child, child_size = _script(rng, cfg, decks, depth + 1, child_budget)
            ops.append((INVOKE, parent, child, outcome))
            if outcome != DISCARD:
                known += 1
                size += child_size
        else:
            batch = tuple((rng.randrange(len(TYPES)), _payload(rng)) for _ in range(decks.batch.draw()))
            ops.append((EMIT, parent, batch))
            known += len(batch)
            size += len(batch)
        step += 1
    return (root_type, payload, tuple(ops)), size


def generate(seed: int, cfg: Config) -> list[tuple[int, tuple, int]]:
    """Root session scripts as `(id seed, script, expected nodes)`; plain data, no library types."""
    rng = random.Random(seed)
    out = []
    for _ in range(cfg.sessions):
        id_seed = rng.getrandbits(64)
        script, size = _script(rng, cfg, _Decks(rng), 0, cfg.child_steps)
        out.append((id_seed, script, size))
    return out


class Workload:
    """Replays root sessions; its unit of work is one event accepted by `emit`."""

    UNIT = "events"
    stored_bytes = 0

    def __init__(self, cteg, cfg: Config, work_dir: Path) -> None:
        self.cteg = cteg
        self.types = [cteg.EventType(t) for t in TYPES]
        self.policy = {GRAFT_PARTIAL: cteg.FailurePolicy.GRAFT_PARTIAL, DISCARD: cteg.FailurePolicy.DISCARD}
        self.units = 0

    def item(self, rec: Recorder, item, k: int) -> None:
        """Replay one root session, close it, then check it."""
        c = self.cteg
        id_seed, (root_type, payload, ops), expected = item
        ids = random.Random(id_seed)
        events = [0]
        rec.open("record.session", f"record-{k}")
        try:
            session, _ = rec.call(
                "session.begin", c.begin_session, self.types[root_type], payload,
                wall_clock=_logical_clock, id_factory=lambda: ids.randbytes(16),
            )
            size = self._drive(rec, session, ops, True, events)
            trace, _ = rec.call("session.snapshot", session.snapshot)
            digest, _ = rec.call("commitment.merkle_root", c.merkle_root, trace, size=size)
            blob, _ = rec.call("persistence.export_trace", c.export_trace, trace, session.id, size=size)
        except Exception as exc:
            rec.abandon(f"record session {k}", exc)
            return
        finally:
            rec.close()
        self.units += events[0]

        rec.check("record: node count matches the script", lambda: len(trace.graph.nodes) == size == expected)
        rec.check("record: snapshot is a valid CTEG", lambda: c.validate_cteg(trace.graph, trace.root).ok)
        rec.check("record: import(export(trace)) == trace", lambda: c.import_trace(blob) == (trace, session.id))
        rec.check("record: receipt verifies", lambda: c.verify_commitment(trace, digest))
        rec.check("record: history is in E-infinity", lambda: c.is_member_e_infinity(session.history()).ok)

    def _drive(self, rec: Recorder, session, ops, is_root: bool, events) -> int:
        """Run one session's ops; return its node count. Only root-session emits carry a size."""
        known = [session.root]
        size = 1
        for op in ops:
            if op[0] == EMIT:
                _, parent, batch = op
                batch = [(self.types[t], p) for t, p in batch]
                new, _ = rec.call("session.emit", session.emit, known[parent], batch, size=size if is_root else None)
                events[0] += len(new)
                known += new
                size += len(new)
                continue
            _, parent, (child_type, child_payload, child_ops), outcome = op
            (handle, child), _ = rec.call(
                "session.invoke", session.invoke_subagent, known[parent], self.types[child_type], child_payload
            )
            child_size = self._drive(rec, child, child_ops, False, events)
            if outcome == COMPLETE:
                rec.call("session.graft", session.complete_subagent, handle, child)
            elif outcome == GRAFT_PARTIAL:
                rec.call("session.graft", session.fail_subagent, handle, child, self.policy[outcome])
            else:
                rec.call("session.discard", session.fail_subagent, handle, child, self.policy[outcome])
            if outcome != DISCARD:
                known.append(child.root)
                size += child_size
        return size


def _logical_clock() -> int:
    return 0
