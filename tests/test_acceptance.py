"""Acceptance suite: one test per criterion, at its stated scale and tolerance.

Each test prints a single PASS/FAIL line (visible with `pytest -s` or on
failure). All checks are exact unless a runtime ceiling is stated.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import random
import time

from cteg import (
    CompatibilityError,
    FileStore,
    Invocation,
    SessionId,
    apply_emission,
    apply_invocation,
    e0_normalize,
    export_trace,
    graft,
    graft_cteg,
    import_trace,
    is_member_e_infinity,
    merkle_root,
    phi,
    replicate_as_e0_invocation,
    validate_cteg,
    verify_commitment,
)
from cteg.cli import EXIT_BUDGET, EXIT_OK, SimulationConfig, main, run_simulation
from cteg.dynamics import ExecutionSequence, hierarchy
from cteg.persistence import EmptySessionError, _MAGIC, _MAGIC_V1, append_trace
from util import (
    aid,
    cteg,
    graph,
    junk_sequence,
    mutate_cteg,
    random_cteg,
    record_boundaries,
    ts,
    ty,
)


def report(number: int, name: str, ok: bool, detail: str, problems: list[str]) -> None:
    print(f"\nACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} failed:\n" + "\n".join(problems[:10])


def test_c01_graft_compatibility_iff_equivalence():
    """graft_cteg succeeds exactly when t(p) < t(r2), over 10^4 random pairs."""
    rng = random.Random(101)
    problems: list[str] = []
    t0 = time.monotonic()
    successes = failures = 0
    for i in range(10_000):
        c1 = random_cteg(rng, rng.randint(1, 8))
        p = rng.choice(sorted(c1.graph.nodes))
        c2 = random_cteg(rng, rng.randint(1, 8), root_ts=c1.graph.t[p].micros + rng.randint(-3, 4))
        compatible = c1.graph.t[p] < c2.graph.t[c2.root]
        try:
            merged = graft_cteg(c1, p, c2)
            succeeded = True
        except CompatibilityError:
            succeeded = False
        if succeeded != compatible:
            problems.append(f"pair {i}: criterion={compatible} but graft succeeded={succeeded}")
            continue
        if succeeded:
            successes += 1
            if not validate_cteg(merged.graph, merged.root).ok:
                problems.append(f"pair {i}: successful graft fails validation")
        else:
            failures += 1
            forced = graft(c1.graph, p, c2.graph, c2.root)
            diag = validate_cteg(forced, c1.root)
            offending = [
                v
                for v in diag.violations
                if v.code == "edge-timestamp" and p.hex in v.message and c2.root.hex in v.message
            ]
            if not offending:
                problems.append(f"pair {i}: forced assembly does not flag edge (p, r2)")
    elapsed = time.monotonic() - t0
    if elapsed >= 10.0:
        problems.append(f"runtime {elapsed:.1f}s exceeds the 10s ceiling")
    report(
        1,
        "graft-compatibility-iff",
        not problems,
        f"10000 pairs, {successes} compatible / {failures} incompatible, {elapsed:.1f}s",
        problems,
    )


def test_c02_characterisation_over_seeded_sessions():
    """10^3 mixed session scripts: every snapshot valid, every history a member."""
    problems: list[str] = []
    t0 = time.monotonic()
    for seed in range(1_000):
        config = SimulationConfig(seed=seed, max_depth=3, branching=2, steps=4, fail_prob=0.25)
        session = run_simulation(config)
        history = session.history()
        membership = is_member_e_infinity(history)
        if not membership.ok:
            problems.append(f"seed {seed}: history rejected: {membership.violations[0]}")
        root = session.root
        for k, g in enumerate(history.graphs):
            diag = validate_cteg(g, root)
            if not diag.ok:
                problems.append(f"seed {seed}: snapshot {k} invalid: {diag.violations[0]}")
                break
    elapsed = time.monotonic() - t0
    if elapsed >= 30.0:
        problems.append(f"runtime {elapsed:.1f}s exceeds the 30s ceiling")
    report(2, "characterisation-on-sessions", not problems, f"1000 scripts, {elapsed:.1f}s", problems)


def test_c03_fixed_point_and_stabilization_via_oracle(capsys):
    """The oracle command proves the chain ascends, is strict at depth 0->1, and stabilises."""
    problems: list[str] = []
    t0 = time.monotonic()
    argv = ["oracle", "--actions", "4", "--timestamps", "4", "--max-len", "3", "--d-max", "2"]
    code = main(argv)
    out = capsys.readouterr().out
    elapsed = time.monotonic() - t0
    if code == EXIT_BUDGET:
        code = main(["oracle", "--actions", "3", "--timestamps", "3", "--max-len", "2", "--d-max", "2"])
        out = capsys.readouterr().out
        if code != EXIT_OK:
            problems.append(f"fallback bounds also failed with exit {code}")
    elif code != EXIT_OK:
        problems.append(f"oracle exited {code}:\n{out}")
    for needed in ("assert ascending chain: ok", "assert E0 != E1: ok", "assert E1 == E2: ok", "assert phi(S) == S: ok"):
        if needed not in out:
            problems.append(f"missing assertion line {needed!r}")
    if elapsed >= 300.0:
        problems.append(f"runtime {elapsed:.1f}s exceeds the 5min ceiling")
    with capsys.disabled():
        report(3, "fixed-point-and-stabilization", not problems, f"exit {code}, {elapsed:.1f}s", problems)


def test_c04_phi_monotonicity():
    """100 random pool pairs E within E': phi(E) within phi(E'), exact inclusion."""
    problems: list[str] = []
    from cteg import UniverseBounds

    bounds = UniverseBounds(
        actions=tuple(aid(i + 1) for i in range(3)),
        timestamps=tuple(ts(i) for i in range(3)),
        types=frozenset({ty("t0")}),
        max_len=2,
    )
    universe = sorted(hierarchy(bounds, 1)[-1], key=lambda s: (len(s.graphs), len(s.final.nodes)))
    junk = junk_sequence(bounds.actions, bounds.timestamps, (ty("t0"),))
    rng = random.Random(4)
    for i in range(100):
        bigger = frozenset(s for s in universe if rng.random() < 0.4)
        if rng.random() < 0.5:
            bigger |= {junk}
        smaller = frozenset(s for s in bigger if rng.random() < 0.6)
        if not phi(smaller, bounds) <= phi(bigger, bounds):
            problems.append(f"pair {i}: phi not monotone for |E|={len(smaller)}, |E'|={len(bigger)}")
    report(4, "phi-monotonicity", not problems, "100 pool pairs", problems)


def test_c05_normalization_round_trip():
    """10^3 random traces up to 50 nodes: normalize, then replay, exactly."""
    rng = random.Random(55)
    problems: list[str] = []
    for i in range(1_000):
        c = random_cteg(rng, rng.randint(1, 50))
        seq = e0_normalize(c)
        if seq.final != c.graph or len(seq) != len(c.graph.nodes):
            problems.append(f"trace {i}: normalized final differs from the input")
            continue
        g = seq.graphs[0]
        assert seq.steps is not None
        for label, target in zip(seq.steps, seq.graphs[1:]):
            g = apply_emission(
                g,
                label.root,
                {a: (target.t[a], target.tau[a]) for a in label.emitted},
                payloads={a: target.payloads[a] for a in label.emitted},
            )
        if g != c.graph:
            problems.append(f"trace {i}: replay diverges from the input")
    report(5, "normalization-round-trip", not problems, "1000 traces <= 50 nodes", problems)


def test_c06_opacity_of_nested_invocations():
    """10^2 invocation steps with nested sub-executions replay identically."""
    rng = random.Random(66)
    problems: list[str] = []
    for i in range(100):
        mid_first = random_cteg(rng, rng.randint(1, 4), root_ts=100)
        anchor = rng.choice(sorted(mid_first.graph.nodes))
        inner = random_cteg(
            rng, rng.randint(1, 5), root_ts=mid_first.graph.t[anchor].micros + rng.randint(1, 20)
        )
        mid_final = apply_invocation(mid_first.graph, anchor, e0_normalize(inner))
        nested_subtrace = ExecutionSequence(
            (mid_first.graph, mid_final),
            (Invocation(anchor, e0_normalize(inner), inner.root),),
        )
        step = Invocation(root=aid(1), subtrace=nested_subtrace, attach=mid_first.root)
        flattened = replicate_as_e0_invocation(step)
        host = graph({1: 0}, set())
        original = apply_invocation(host, step.root, step.subtrace, attach=step.attach)
        replayed = apply_invocation(host, flattened.root, flattened.subtrace, attach=flattened.attach)
        if original != replayed:
            problems.append(f"step {i}: flattened application differs")
        if flattened.subtrace.final != step.subtrace.final:
            problems.append(f"step {i}: flattened final differs")
    report(6, "opacity-replication", not problems, "100 nested invocation steps", problems)


def test_c07_temporal_projection_counterexample(tmp_path, capsys):
    """Different causal structures, byte-identical projection output."""
    problems: list[str] = []
    nodes = {1: 0, 2: 1, 3: 2, 4: 3}
    g = cteg(nodes, {(1, 2), (2, 3), (2, 4)}, root=1)
    g_prime = cteg(nodes, {(1, 2), (2, 3), (3, 4)}, root=1)
    if g.graph.edges == g_prime.graph.edges:
        problems.append("fixtures unexpectedly share their edge sets")
    path_g = tmp_path / "g.cteg"
    path_g_prime = tmp_path / "gp.cteg"
    path_g.write_bytes(export_trace(g, SessionId.from_int(1)))
    path_g_prime.write_bytes(export_trace(g_prime, SessionId.from_int(1)))
    code_a = main(["project", str(path_g)])
    out_a = capsys.readouterr().out
    code_b = main(["project", str(path_g_prime)])
    out_b = capsys.readouterr().out
    if (code_a, code_b) != (EXIT_OK, EXIT_OK):
        problems.append(f"project exited ({code_a}, {code_b})")
    if out_a != out_b:
        problems.append("projections are not byte-identical")
    with capsys.disabled():
        report(7, "projection-counterexample", not problems, "two fixtures, equal output", problems)


def test_c08_persistence_round_trip_and_crash_prefix(tmp_path):
    """10^3 export/import round trips; every log prefix reconstructs."""
    rng = random.Random(88)
    problems: list[str] = []
    for i in range(1_000):
        c = random_cteg(rng, rng.randint(1, 20))
        session = SessionId(rng.randbytes(16))
        loaded, out_session = import_trace(export_trace(c, session))
        if loaded != c or out_session != session:
            problems.append(f"trace {i}: round trip differs")

    path = tmp_path / "log.cteg"
    path.write_bytes(_MAGIC_V1)  # a v1 log: one record per row, so at least 100 prefixes
    with FileStore(path) as store:
        sessions = [store.register_session() for _ in range(4)]
        total_nodes = 0
        for session in sessions:
            c = random_cteg(rng, 24)
            total_nodes += 24
            append_trace(store, session, c)
    data = path.read_bytes()
    boundaries = record_boundaries(data, len(_MAGIC))
    if len(boundaries) < 100:
        problems.append(f"log holds only {len(boundaries)} records, expected at least 100")
    for i, boundary in enumerate(boundaries):
        trimmed = tmp_path / "prefix.cteg"
        trimmed.write_bytes(data[:boundary])
        with FileStore(trimmed) as partial:
            for session in partial.session_ids():
                try:
                    snap = partial.load_session(session)
                except EmptySessionError:
                    continue
                if not validate_cteg(snap.graph, snap.root).ok:
                    problems.append(f"prefix {i}: session reconstructs invalid")
        trimmed.unlink()
    report(
        8,
        "persistence-round-trip-and-crash-prefix",
        not problems,
        f"1000 round trips, {len(boundaries)} prefixes",
        problems,
    )


def test_c09_tamper_evidence():
    """10^3 random single mutations: the receipt changes every single time."""
    rng = random.Random(99)
    problems: list[str] = []
    t0 = time.monotonic()
    changed = 0
    for i in range(1_000):
        c = random_cteg(rng, rng.randint(1, 20))
        receipt = merkle_root(c)
        mutated, what = mutate_cteg(rng, c)
        if merkle_root(mutated) == receipt:
            problems.append(f"trace {i}: receipt unchanged after {what}")
        else:
            changed += 1
        if verify_commitment(mutated, receipt):
            problems.append(f"trace {i}: verification accepted a mutated trace ({what})")
    elapsed = time.monotonic() - t0
    if elapsed >= 30.0:
        problems.append(f"runtime {elapsed:.1f}s exceeds the 30s ceiling")
    report(9, "tamper-evidence", not problems, f"{changed}/1000 receipts changed, {elapsed:.1f}s", problems)


def test_c10_seeded_simulation_determinism(tmp_path, capsys):
    """A fixed seed yields byte-identical trace files and receipts."""
    problems: list[str] = []
    outputs = []
    for name in ("one.cteg", "two.cteg"):
        out = tmp_path / name
        code = main(
            ["simulate", "--seed", "1234", "--max-depth", "2", "--branching", "2",
             "--steps", "6", "--fail-prob", "0.3", "--out", str(out)]
        )
        summary = capsys.readouterr().out
        if code != EXIT_OK:
            problems.append(f"simulate exited {code}")
        outputs.append((out.read_bytes(), summary))
    if outputs[0][0] != outputs[1][0]:
        problems.append("trace files differ between runs")
    if outputs[0][1] != outputs[1][1]:
        problems.append("summary lines differ between runs")
    loaded, _ = import_trace(outputs[0][0])
    again, _ = import_trace(outputs[1][0])
    if merkle_root(loaded) != merkle_root(again):
        problems.append("receipts differ between runs")
    with capsys.disabled():
        report(10, "seeded-simulation-determinism", not problems, "two identical runs", problems)
