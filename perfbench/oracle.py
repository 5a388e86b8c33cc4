"""Workload `oracle`: the bounded hierarchy the test suite treats as ground truth.

One chain computes the levels E0, E1 and E2 with `phi` from the empty pool,
then the fixed-point check `phi(E2)`. The bounds are those of `cteg oracle`'s
defaults: 4 actions, 4 timestamps, sequences of at most 3 graphs, one event
type. The seed draws which node ids, timestamps and type name fill those
pools; level sizes do not depend on the draw, since enumeration is invariant
under order-preserving renaming.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from harness import Recorder

LEVELS = ("e0", "e1", "e2", "fixpoint")
BUDGET = 2_000_000  # the CLI's default enumeration budget


@dataclass(frozen=True)
class Config:
    actions: int = 4
    timestamps: int = 4
    max_len: int = 3
    sizes: tuple[int, int, int] = (2032, 2944, 2944)


FULL = Config()
SMOKE = Config(actions=3, timestamps=3, max_len=2, sizes=(42, 48, 48))


def generate(seed: int, cfg: Config) -> list[tuple[list[int], list[int], str]]:
    """The pools as plain data: node ids as integers, timestamps in microseconds, a type name."""
    rng = random.Random(seed)
    actions = rng.sample(range(1, 2**62), cfg.actions)
    timestamps = sorted(rng.sample(range(10**12), cfg.timestamps))
    return [(actions, timestamps, f"evt-{rng.randbytes(4).hex()}")]


class Workload:
    """Runs oracle chains; its unit of work is one sequence returned by `phi`."""

    UNIT = "sequences"
    stored_bytes = 0

    def __init__(self, cteg, cfg: Config, work_dir: Path) -> None:
        self.cteg = cteg
        self.cfg = cfg
        self.units = 0

    def item(self, rec: Recorder, pools, k: int) -> None:
        """One chain E0, E1, E2, phi(E2), then the oracle's assertions."""
        c = self.cteg
        actions, timestamps, type_name = pools
        bounds = c.UniverseBounds(
            actions=tuple(c.ActionId.from_int(a) for a in actions),
            timestamps=tuple(c.Timestamp(t) for t in timestamps),
            types=frozenset({c.EventType(type_name)}),
            max_len=self.cfg.max_len,
        )
        levels = []
        pool = frozenset()
        rec.open("oracle.chain", f"oracle-{k}")
        try:
            for name in LEVELS:
                pool, _ = rec.call(f"dynamics.phi.{name}", c.phi, pool, bounds, budget=BUDGET)
                levels.append(pool)
        except Exception as exc:
            rec.abandon(f"oracle chain {k}", exc)
            return
        finally:
            rec.close()
        self.units += sum(map(len, levels))
        e0, e1, e2, fix = levels
        rec.check("oracle: level sizes", lambda: tuple(map(len, levels[:3])) == self.cfg.sizes)
        rec.check("oracle: ascending chain", lambda: e0 <= e1 <= e2)
        rec.check("oracle: E0 != E1", lambda: e0 != e1)
        rec.check("oracle: E1 == E2", lambda: e1 == e2)
        rec.check("oracle: phi(S) == S", lambda: fix == e2)
