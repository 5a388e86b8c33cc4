"""One-off size sweep through the benchmark's own timing code.

Usage, from the root of a checkout:

    python3 perfbench/sweep.py --sizes 250,500,1000 --seed 1

For each size it builds one trace with one event per emit, each new node
under a uniformly random earlier node, on a logical clock. It reports the
build's total time, its mean per emit, and the median of the last 25 emits,
which is the marginal cost at that size. On the largest trace it then times
`e0_normalize`, `merkle_root`, `export_trace` and `import_trace` once each.
The last line of standard output is the results as JSON.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics

import harness


def build(cteg, rec: harness.Recorder, n: int, seed: int):
    rng = random.Random(seed)
    evt = cteg.EventType("event")
    session, _ = rec.call(
        "session.begin", cteg.begin_session, evt, wall_clock=lambda: 0, id_factory=lambda: rng.randbytes(16)
    )
    known = [session.root]
    emits = []
    for size in range(1, n):
        new, dt = rec.call("session.emit", session.emit, rng.choice(known), [(evt, rng.randbytes(rng.randint(0, 256)))], size=size)
        known += new
        emits.append(dt)
    return session, emits


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", default="250,500,1000")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    sizes = [int(s) for s in args.sizes.split(",")]
    cteg = harness.import_cteg()
    rec = harness.Recorder(tracing=True)
    out: dict = {"emit": [], "whole_trace": {}}
    session = None
    for n in sizes:
        session, emits = build(cteg, rec, n, args.seed)
        row = {
            "nodes": n,
            "build_s": sum(emits),
            "mean_emit_ms": statistics.fmean(emits) * 1e3,
            "marginal_emit_ms": statistics.median(emits[-25:]) * 1e3,
        }
        out["emit"].append(row)
        print(f"emit  nodes={n:<6} build {row['build_s']:.3f} s  mean {row['mean_emit_ms']:.3f} ms  "
              f"last-25 median {row['marginal_emit_ms']:.3f} ms", flush=True)
    out["emit_size_exponent"] = harness.span_exponent(rec.spans, "session.emit")

    trace = session.snapshot()
    n = sizes[-1]
    _, dt_norm = rec.call("dynamics.e0_normalize", cteg.e0_normalize, trace, size=n)
    _, dt_merkle = rec.call("commitment.merkle_root", cteg.merkle_root, trace, size=n)
    blob, dt_export = rec.call("persistence.export_trace", cteg.export_trace, trace, session.id, size=n)
    (back, _), dt_import = rec.call("persistence.import_trace", cteg.import_trace, blob, size=n)
    if back != trace:
        raise SystemExit("sweep: import(export(trace)) differs from the trace")
    out["whole_trace"] = {"nodes": n, "e0_normalize_s": dt_norm, "merkle_root_s": dt_merkle,
                          "export_trace_s": dt_export, "import_trace_s": dt_import}
    for key, value in out["whole_trace"].items():
        if key != "nodes":
            print(f"{key:<16} nodes={n:<6} {value:.4f} s")
    print(f"emit size exponent (all emits, log latency on log size): {out['emit_size_exponent']:.3f}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
