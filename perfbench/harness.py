"""Timing, span tracing and statistics shared by the benchmark workloads.

Every call the benchmark makes into `cteg` goes through `Recorder.call`,
which times it with `time.perf_counter`, keeps its latency, counts it as
one attempted operation and, when tracing is on, records a span in the model of Dapper
(Sigelman et al., 2010): name, start, end, the span that caused it, and the
trace (session or input trace) it belongs to. Spans stay in memory until the
run ends. Nothing in `cteg` is patched or rebound; the spans sit around the
benchmark's own calls.
"""

from __future__ import annotations

import gc
import importlib
import json
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
"""Root of the checkout: the directory holding `perfbench/` and `src/`."""

WORK_DIR = ROOT / ".perfbench"
"""Scratch stores and span dumps; listed in the repository's `.gitignore`."""


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (for example, `src/cteg` is missing)."""


def import_cteg():
    """Import `cteg` from this checkout's `src/`, never from anywhere else.

    Any cached copy is dropped first, so repeated calls time a real module
    import (from bytecode once it has been written).
    """
    src = ROOT / "src"
    if not (src / "cteg" / "__init__.py").is_file():
        raise SetupError(f"no cteg package under {src}")
    if sys.path[:1] != [str(src)]:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "cteg" or m.startswith("cteg.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    module = importlib.import_module("cteg")
    if Path(module.__file__).resolve().parent != (src / "cteg").resolve():
        raise SetupError(f"cteg resolved to {module.__file__}, outside {src}")
    return module


def timed_setup(build: Callable[[], Any], times: list[float]) -> Any:
    """Run `build` (import, input generation) from a collected heap; append its seconds to `times`."""
    gc.collect()
    t0 = time.perf_counter()
    result = build()
    times.append(time.perf_counter() - t0)
    return result


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    trace: str | None
    size: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Times calls into the library, counts operations and failures, and keeps spans when tracing."""

    def __init__(self, tracing: bool) -> None:
        self.tracing = tracing
        self.spans: list[Span] = []
        self._item: int | None = None
        self.attempted = 0
        self.failed = 0
        self.busy_s = 0.0
        self.latencies: list[float] = []
        self.check_s = 0.0
        self.failures: list[str] = []

    def call(self, name: str, fn: Callable, *args, size: int | None = None, **kwargs):
        """Run `fn(*args, **kwargs)` as one attempted operation and return `(result, seconds)`.

        `size` (the nodes or rows the call handles) feeds the scaling fits.
        The span becomes a child of the open work item's span.
        """
        self.attempted += 1
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        t1 = time.perf_counter()
        self.busy_s += t1 - t0
        self.latencies.append(t1 - t0)
        if self.tracing:
            trace = None if self._item is None else self.spans[self._item].trace
            self.spans.append(Span(name, t0, t1, self._item, trace, size))
        return result, t1 - t0

    def open(self, name: str, trace: str) -> None:
        """Start the span of one work item; calls made until `close` become its children."""
        if self.tracing:
            self._item = len(self.spans)
            self.spans.append(Span(name, time.perf_counter(), math.nan, None, trace, None))

    def close(self) -> None:
        if self.tracing:
            self.spans[self._item].end = time.perf_counter()
            self._item = None

    def check(self, what: str, predicate: Callable[[], bool]) -> bool:
        """Count one output check, made outside any timed region; false or raising is a failure."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            ok = bool(predicate())
        except Exception as exc:
            ok = False
            what = f"{what} ({type(exc).__name__}: {exc})"
        self.check_s += time.perf_counter() - t0
        if not ok:
            self._fail(f"check failed: {what}")
        return ok

    def abandon(self, item: str, exc: Exception) -> None:
        """Count the exception that ended a work item as one failed operation; the workload carries on."""
        self._fail(f"{item} abandoned: {type(exc).__name__}: {exc}")

    def _fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)
        print(f"perfbench: {message}", file=sys.stderr)


# ---------------------------------------------------------------------------
# Span analysis


def busy(spans: list[Span], name: str) -> float:
    """Total duration of the spans named `name` (they never overlap: one thread, no recursion)."""
    return sum(s.duration for s in spans if s.name == name)


def calls(spans: list[Span], name: str) -> int:
    return sum(1 for s in spans if s.name == name)


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per span name: duration minus the time covered by its direct children."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration
    out: dict[str, float] = {}
    for i, s in enumerate(spans):
        out[s.name] = out.get(s.name, 0.0) + s.duration - child_time[i]
    return out


def size_exponent(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(seconds) against log(size).

    0.0 when the sizes span less than a factor of 2, where the slope would
    be noise (the Merkle roots of `record`'s traces of 1000-1042 nodes).
    """
    pts = [(math.log(n), math.log(dt)) for n, dt in points if n > 0 and dt > 0]
    if len(pts) < 2 or max(x for x, _ in pts) - min(x for x, _ in pts) < math.log(2):
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def span_exponent(spans: list[Span], name: str) -> float:
    return size_exponent([(s.size, s.duration) for s in spans if s.name == name and s.size])


LAYERS = ("session", "core", "dynamics", "persistence", "commitment")
"""The modules of `cteg` that get metrics; a span's layer is its name up to the first dot."""

SHARES = {
    "session.emit": ("session.emit",),
    "session.graft": ("session.graft", "session.discard"),
    "persistence.parse_trace": ("persistence.parse_trace",),
    "persistence.export_trace": ("persistence.export_trace",),
    "persistence.append_trace": ("persistence.append_trace",),
    "persistence.reopen": ("persistence.reopen", "persistence.load_session"),
    "commitment.merkle_root": ("commitment.merkle_root",),
    "dynamics.phi.e0": ("dynamics.phi.e0",),
    "dynamics.phi.e1": ("dynamics.phi.e1",),
    "dynamics.phi.e2": ("dynamics.phi.e2",),
    "dynamics.phi.fixpoint": ("dynamics.phi.fixpoint",),
}
"""Per-layer share metrics: the span names whose busy time each one sums."""

EXPONENTS = (
    "session.emit",
    "persistence.parse_trace",
    "persistence.append_trace",
    "persistence.load_session",
    "commitment.merkle_root",
)
"""Span names that carry a size and get a scaling exponent."""


def per_layer(spans: list[Span], items: int) -> dict:
    """The per-layer metrics of one traced run, the same set for every workload.

    `cteg.busy_s` is the seconds spent inside `cteg` per work item. Every
    other metric is a share of that time or a scaling exponent, so a layer
    or call that a workload never makes reads 0 on it.
    """
    lib = [s for s in spans if s.parent is not None]
    total = sum(s.duration for s in lib)
    out = {"cteg.busy_s": metric(ratio(total, items), "s")}
    for layer in LAYERS:
        out[f"{layer}.busy_share"] = metric(
            ratio(sum(s.duration for s in lib if s.name.split(".", 1)[0] == layer), total), "ratio"
        )
    for name, parts in SHARES.items():
        out[f"{name}.busy_share"] = metric(ratio(sum(busy(lib, p) for p in parts), total), "ratio")
    for name in EXPONENTS:
        out[f"{name}.size_exponent"] = metric(span_exponent(lib, name), "exponent")
    return out


def write_spans(spans: list[Span], path: Path) -> None:
    """Dump spans as JSON lines, followed by one summary line of busy and self time per name."""
    path.parent.mkdir(parents=True, exist_ok=True)
    names = sorted({s.name for s in spans})
    selfs = self_times(spans)
    with path.open("w") as fh:
        for i, s in enumerate(spans):
            fh.write(
                json.dumps(
                    {"id": i, "name": s.name, "start": s.start, "end": s.end,
                     "parent": s.parent, "trace": s.trace, "size": s.size}
                )
                + "\n"
            )
        summary = {n: {"calls": calls(spans, n), "busy_s": busy(spans, n), "self_s": selfs[n]} for n in names}
        fh.write(json.dumps({"summary": summary}) + "\n")


# ---------------------------------------------------------------------------
# Statistics and reporting


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, `q` in (0, 100]; 0.0 when nothing was measured."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mib() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_items(seconds: float, items: list, do_item: Callable[[Any, int], None]) -> int:
    """Closed loop, one client: run the items in turn, cycling, until every item ran once and `seconds` passed."""
    deadline = time.perf_counter() + seconds
    k = 0
    while k < len(items) or time.perf_counter() < deadline:
        do_item(items[k % len(items)], k)
        k += 1
    return k


def ratio(a: float, b: float) -> float:
    """`a / b`, or 0.0 when nothing was measured (every item failed)."""
    return a / b if b else 0.0


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}
