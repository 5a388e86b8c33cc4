"""Benchmark of cteg: one workload per process, closed loop, one client.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload record --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # record, seal and oracle, each in its own process
    python3 perfbench/run.py --workload seal --smoke          # small inputs, every output check on

Inputs come from `--seed` alone. The library is imported from the
checkout's `src/`. The run measures for `--seconds` seconds, going at least
once through all the inputs it generated. It checks every output outside
the timed regions. It prints each metric with its unit, then, as its last
line, one JSON object: `correct`, `attempted`, `failed`, `metrics`. Every
workload reports the same metrics. With `--trace 0` they are the
end-to-end metrics of `BENCHMARK.json`. With
`--trace 1` every input is run twice, once plain and once traced, in
alternating order. That run reports the per-layer metrics taken from the
spans, plus `trace.overhead_ratio`, and writes the spans to
`.perfbench/spans/`. See `perfbench/README.md` for what each workload and
metric stands for.
"""

from __future__ import annotations

import argparse
import gc
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import harness
import oracle
import record
import seal

WORKLOADS = {"record": record, "seal": seal, "oracle": oracle}
SETUP_REPEATS = 5  # set-ups at the start of a run, before the first input


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    module = WORKLOADS[name]
    cfg = module.SMOKE if smoke else module.FULL

    def build():
        return harness.import_cteg(), module.generate(seed, cfg)

    # Set-up is timed SETUP_REPEATS times here and, in untraced runs, again after each input run, with
    # the result thrown away. The machine's speed drifts over seconds, so set-ups spread over the run
    # give a steadier median than repeats made back to back alone.
    setup_times: list[float] = []
    for _ in range(SETUP_REPEATS):
        cteg, items = harness.timed_setup(build, setup_times)
    import_s: list[float] = []  # the import alone, once, for the printout
    harness.timed_setup(harness.import_cteg, import_s)
    harness.WORK_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=harness.WORK_DIR))
    plain, traced = harness.Recorder(False), harness.Recorder(True)
    seconds_by = {False: 0.0, True: 0.0}
    try:
        work = module.Workload(cteg, cfg, work_dir)

        def one(rec: harness.Recorder, item, k: int) -> None:
            gc.collect()
            checks = rec.check_s
            t0 = time.perf_counter()
            work.item(rec, item, k)
            seconds_by[rec.tracing] += time.perf_counter() - t0 - (rec.check_s - checks)

        def do_item(item, k: int) -> None:
            if not trace:
                one(plain, item, k)
                harness.timed_setup(build, setup_times)
                return
            for rec in (plain, traced) if k % 2 == 0 else (traced, plain):
                one(rec, item, k)

        if trace:
            # The first item a process runs also grows its heap; keep that out of the overhead ratio.
            work.item(harness.Recorder(False), items[0], -1)
        n_items = harness.run_items(seconds, items, do_item)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if trace:
        metrics = harness.per_layer(traced.spans, n_items)
        metrics["persistence.file_bytes_per_node"] = harness.metric(harness.ratio(work.stored_bytes, work.units), "B/node")
        metrics["trace.overhead_ratio"] = harness.metric(
            harness.ratio(seconds_by[True], seconds_by[False]), "ratio"
        )
        spans_path = harness.WORK_DIR / "spans" / f"{name}-seed{seed}.jsonl"
        harness.write_spans(traced.spans, spans_path)
        note = f"{len(traced.spans)} spans in {spans_path.relative_to(harness.ROOT)}"
    else:
        calls = plain.latencies
        metrics = {
            "setup_s": harness.metric(statistics.median(setup_times), "s"),
            "peak_rss_mib": harness.metric(harness.peak_rss_mib(), "MiB"),
            "throughput_per_s": harness.metric(harness.ratio(work.units, plain.busy_s), "1/s"),
            "call_p50_us": harness.metric(harness.percentile(calls, 50) * 1e6, "us"),
            "call_p90_us": harness.metric(harness.percentile(calls, 90) * 1e6, "us"),
        }
        note = (f"{work.units} {work.UNIT} in {plain.busy_s:.3f} s of {len(calls)} calls into cteg, "
                f"{len(setup_times)} set-ups of {min(setup_times):.3f}-{max(setup_times):.3f} s, "
                f"the import of cteg alone {import_s[0]:.3f} s")
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed

    print(f"workload {name}: seed {seed}, {n_items} work items, {note}")
    for key, m in metrics.items():
        print(f"  {key:<40} {m['value']:.6g} {m['unit']}")
    print(f"  {'error_rate':<40} {harness.ratio(failed, attempted):.6g} ({failed} failed of {attempted} attempted)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args: argparse.Namespace) -> dict:
    """Each workload in its own process, one after the other; metric names gain the workload as prefix."""
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise harness.SetupError(f"workload {name} exited with code {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        out["correct"] = out["correct"] and result["correct"]
        out["attempted"] += result["attempted"]
        out["failed"] += result["failed"]
        out["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            result = run_all(args)
        else:
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    except harness.SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
