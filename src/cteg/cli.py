"""Command-line surface: simulate, verify, commit, normalize, project, oracle.

Exit codes are uniform across commands: 0 for success, 1 for a semantically
invalid trace or a failed oracle assertion, 2 for unreadable or malformed
input, 3 for an exhausted enumeration budget.
"""

from __future__ import annotations

import argparse
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import TextIO

from .commitment import merkle_root
from .core import (
    ActionId,
    Cteg,
    EventType,
    Timestamp,
    ValidationFailedError,
    height,
)
from .dynamics import BudgetExceededError, UniverseBounds, phi
from .persistence import TraceFormatError, export_trace, import_trace
from .session import FailurePolicy, Session, begin_session

__all__ = ["SimulationConfig", "run_simulation", "build_parser", "main"]

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3

DEFAULT_ORACLE_BUDGET = 2_000_000

_INVOKE_RATE = 0.35


@dataclass(frozen=True)
class SimulationConfig:
    """Parameters of one seeded recursive simulation."""

    seed: int
    max_depth: int = 2
    branching: int = 2
    steps: int = 6
    fail_prob: float = 0.0
    types: tuple[EventType, ...] = (EventType("event"),)

    def __post_init__(self) -> None:
        if self.branching < 1:
            raise ValueError("branching must be at least 1")
        if self.steps < 0 or self.max_depth < 0:
            raise ValueError("steps and max_depth must be non-negative")
        if not 0.0 <= self.fail_prob <= 1.0:
            raise ValueError("fail_prob must lie in [0, 1]")
        if not self.types:
            raise ValueError("at least one event type is required")
        object.__setattr__(self, "types", tuple(self.types))


def run_simulation(config: SimulationConfig) -> Session:
    """Drive a deterministic recursive session script and return the session.

    All identifiers come from the seeded generator and the clock is purely
    logical, so a fixed seed reproduces the trace byte for byte. Failed
    subagents are settled with the graft-partial policy, keeping their
    partial work in the trace.
    """
    rng = random.Random(config.seed)
    session = begin_session(
        config.types[0],
        payload=rng.randbytes(rng.randint(0, 8)),
        wall_clock=lambda: 0,
        id_factory=lambda: rng.randbytes(16),
    )
    _drive(session, config.max_depth, config.steps, rng, config)
    return session


def _drive(session: Session, depth_budget: int, steps: int, rng: random.Random, config: SimulationConfig) -> None:
    known = [session.root]
    for _ in range(steps):
        if depth_budget > 0 and rng.random() < _INVOKE_RATE:
            parent = rng.choice(known)
            handle, child = session.invoke_subagent(
                parent,
                rng.choice(config.types),
                payload=rng.randbytes(rng.randint(0, 8)),
            )
            if rng.random() < config.fail_prob:
                _drive(child, depth_budget - 1, rng.randint(0, steps), rng, config)
                session.fail_subagent(handle, child, FailurePolicy.GRAFT_PARTIAL)
            else:
                _drive(child, depth_budget - 1, steps, rng, config)
                session.complete_subagent(handle, child)
            known.append(child.root)
        else:
            parent = rng.choice(known)
            events = [
                (rng.choice(config.types), rng.randbytes(rng.randint(0, 6)))
                for _ in range(rng.randint(1, config.branching))
            ]
            known.extend(session.emit(parent, events))


def _load_for_command(path: str, violations_to: TextIO) -> tuple[Cteg, int] | tuple[None, int]:
    """Read and validate a trace file, mapping failures to exit codes; violations go to `violations_to`."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return None, EXIT_PARSE
    try:
        trace, _session = import_trace(data)
    except TraceFormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return None, EXIT_PARSE
    except ValidationFailedError as exc:
        for v in exc.diagnostics.violations:
            print(f"violation: {v}", file=violations_to)
        return None, EXIT_INVALID
    return trace, EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    config = SimulationConfig(
        seed=args.seed,
        max_depth=args.max_depth,
        branching=args.branching,
        steps=args.steps,
        fail_prob=args.fail_prob,
        types=tuple(EventType(name) for name in args.types.split(",")),
    )
    session = run_simulation(config)
    trace = session.snapshot()
    try:
        Path(args.out).write_bytes(export_trace(trace, session.id))
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    print(f"nodes={len(trace._rows)} height={height(trace)} merkle={merkle_root(trace).hex}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    trace, code = _load_for_command(args.file, sys.stdout)
    if trace is None:
        return code
    rows = trace._rows  # plain rows in projection order
    print(f"nodes={len(rows)} height={height(trace)} root_ts={rows[0][2]}")
    return EXIT_OK


def cmd_commit(args: argparse.Namespace) -> int:
    trace, code = _load_for_command(args.file, sys.stderr)
    if trace is None:
        return code
    print(merkle_root(trace).hex)
    return EXIT_OK


def cmd_normalize(args: argparse.Namespace) -> int:
    trace, code = _load_for_command(args.file, sys.stderr)
    if trace is None:
        return code
    # The emission-only schedule emits each non-root row from its parent, in projection order.
    for node, parent, micros, _, _ in trace._rows[1:]:
        print(f"{parent.hex()}\t{node.hex()}\t{micros}")
    return EXIT_OK


def cmd_project(args: argparse.Namespace) -> int:
    trace, code = _load_for_command(args.file, sys.stderr)
    if trace is None:
        return code
    for node, _, micros, event_type, _ in trace._rows:
        print(f"{node.hex()}\t{micros}\t{event_type.name}")
    return EXIT_OK


def _oracle_bounds(n_actions: int, n_timestamps: int, max_len: int) -> UniverseBounds:
    return UniverseBounds(
        actions=tuple(ActionId.from_int(i + 1) for i in range(n_actions)),
        timestamps=tuple(Timestamp(i) for i in range(n_timestamps)),
        types=frozenset({EventType("evt")}),
        max_len=max_len,
    )


def cmd_oracle(args: argparse.Namespace) -> int:
    # Only the newest level and the one before it are kept alive; every
    # assertion about the chain is folded in as each level arrives.
    if args.d_max < 0:
        raise ValueError("d_max must be non-negative")
    bounds = _oracle_bounds(args.actions, args.timestamps, args.max_len)
    sizes: list[int] = []
    ascending = grows = stable = True
    current: frozenset = frozenset()
    try:
        for d in range(args.d_max + 1):
            level = phi(current, bounds, budget=args.budget)
            if d:
                ascending = ascending and current <= level
                stable = current == level
                if d == 1:
                    grows = not stable
            current = level
            sizes.append(len(level))
            print(f"E{d} size={len(level)}")
    except BudgetExceededError:
        for d, size in enumerate(sizes):
            print(f"E{d} size={size} (complete)")
        where = f"after level {len(sizes) - 1}" if sizes else "in level 0"
        print(f"budget exceeded {where}", file=sys.stderr)
        return EXIT_BUDGET

    failures = 0

    def check(name: str, ok: bool) -> None:
        nonlocal failures
        print(f"assert {name}: {'ok' if ok else 'FAIL'}")
        if not ok:
            failures += 1

    if args.d_max >= 1:
        check("ascending chain", ascending)
        expressible = args.actions >= 3 and args.timestamps >= 3 and args.max_len >= 2
        if expressible:
            check("E0 != E1", grows)
    if args.d_max >= 2:
        check(f"E{args.d_max - 1} == E{args.d_max}", stable)
        try:
            check("phi(S) == S", phi(current, bounds, budget=args.budget) == current)
        except BudgetExceededError:
            print("budget exceeded while checking the fixed point", file=sys.stderr)
            return EXIT_BUDGET
    return EXIT_OK if failures == 0 else EXIT_INVALID


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cteg",
        description="Build, verify, normalize, project and commit causal-temporal event traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a seeded recursive execution and export its trace")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-depth", type=int, default=2)
    p.add_argument("--branching", type=int, default=2)
    p.add_argument("--steps", type=int, default=6)
    p.add_argument("--fail-prob", type=float, default=0.0)
    p.add_argument("--types", type=str, default="event")
    p.add_argument("--out", type=str, required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="validate a trace file")
    p.add_argument("file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("commit", help="print the Merkle receipt of a trace file")
    p.add_argument("file")
    p.set_defaults(func=cmd_commit)

    p = sub.add_parser("normalize", help="print the emission-only schedule of a trace file")
    p.add_argument("file")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("project", help="print the temporal projection of a trace file")
    p.add_argument("file")
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("oracle", help="enumerate the bounded hierarchy and check its fixed point")
    p.add_argument("--actions", type=int, default=4)
    p.add_argument("--timestamps", type=int, default=4)
    p.add_argument("--max-len", type=int, default=3)
    p.add_argument("--d-max", type=int, default=2)
    p.add_argument("--budget", type=int, default=DEFAULT_ORACLE_BUDGET)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    raise SystemExit(main())
