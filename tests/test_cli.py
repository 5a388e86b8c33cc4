"""End-to-end tests of the command-line surface and its exit-code contract.

Exit codes: 0 success, 1 invalid trace or failed oracle assertion, 2
unreadable or malformed input, 3 exhausted enumeration budget.
"""

import random
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from cteg import SessionId, cli, export_trace, import_trace, phi
from cteg.cli import EXIT_BUDGET, EXIT_INVALID, EXIT_OK, EXIT_PARSE, SimulationConfig, main, run_simulation
from cteg.dynamics import Emission
from util import counting_graphs, cteg, hexid, random_cteg

GOLDEN_ROOT_ONLY = "59b8e2b1f34c5df4b4b651aca55fae73515f21101b14c1e0332e79e47aeb8fc1"

COUNTEREXAMPLE_NODES = {1: 0, 2: 1, 3: 2, 4: 3}
COUNTEREXAMPLE_FORK_EDGES = {(1, 2), (2, 3), (2, 4)}
COUNTEREXAMPLE_CHAIN_EDGES = {(1, 2), (2, 3), (3, 4)}


def write_trace(tmp_path, name, c, session=7):
    path = tmp_path / name
    path.write_bytes(export_trace(c, SessionId.from_int(session)))
    return str(path)


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSimulate:
    def test_fixed_seed_is_byte_identical(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a.cteg", tmp_path / "b.cteg"
        code1, line1, _ = run(capsys, "simulate", "--seed", "1", "--steps", "6", "--out", str(out1))
        code2, line2, _ = run(capsys, "simulate", "--seed", "1", "--steps", "6", "--out", str(out2))
        assert code1 == code2 == EXIT_OK
        assert line1 == line2
        assert out1.read_bytes() == out2.read_bytes()

    def test_different_seeds_differ(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a.cteg", tmp_path / "b.cteg"
        run(capsys, "simulate", "--seed", "1", "--out", str(out1))
        run(capsys, "simulate", "--seed", "2", "--out", str(out2))
        assert out1.read_bytes() != out2.read_bytes()

    def test_total_failure_still_verifies(self, tmp_path, capsys):
        out = tmp_path / "fail.cteg"
        code, _, _ = run(
            capsys, "simulate", "--seed", "3", "--max-depth", "2", "--fail-prob", "1.0", "--out", str(out)
        )
        assert code == EXIT_OK
        assert run(capsys, "verify", str(out))[0] == EXIT_OK

    def test_depth_zero_never_invokes(self):
        session = run_simulation(SimulationConfig(seed=5, max_depth=0, steps=8))
        history = session.history()
        assert history.steps is not None
        assert all(isinstance(s, Emission) for s in history.steps)

    def test_zero_branching_is_an_argument_error(self, tmp_path, capsys):
        out = tmp_path / "t.cteg"
        code, stdout, err = run(capsys, "simulate", "--branching", "0", "--out", str(out))
        assert code == EXIT_PARSE
        assert err == "error: branching must be at least 1\n" and stdout == ""
        assert not out.exists()

    def test_summary_line_shape(self, tmp_path, capsys):
        _, line, _ = run(capsys, "simulate", "--seed", "4", "--out", str(tmp_path / "t.cteg"))
        fields = dict(part.split("=") for part in line.strip().split())
        assert set(fields) == {"nodes", "height", "merkle"}
        assert len(fields["merkle"]) == 64

    def test_a_thousand_seeds_all_verify(self):
        from cteg import validate_cteg
        from cteg.persistence import parse_trace

        for seed in range(1000):
            config = SimulationConfig(seed=seed, max_depth=2, branching=2, steps=3, fail_prob=0.2)
            session = run_simulation(config)
            data = export_trace(session.snapshot(), session.id)
            graph, root, _ = parse_trace(data)
            assert validate_cteg(graph, root).ok, f"seed {seed} failed verification"


class TestVerify:
    def test_simulated_trace_verifies(self, tmp_path, capsys):
        out = tmp_path / "t.cteg"
        run(capsys, "simulate", "--seed", "1", "--out", str(out))
        code, report, _ = run(capsys, "verify", str(out))
        assert code == EXIT_OK
        assert report.startswith("nodes=") and "height=" in report and "root_ts=" in report

    def test_cycle_fixture_is_invalid_and_named(self, tmp_path, capsys):
        text = (
            f"cteg/1 {hexid(1)}\n"
            f"{hexid(1)}\t-\t0\tevt\t\n"
            f"{hexid(2)}\t{hexid(3)}\t2\tevt\t\n"
            f"{hexid(3)}\t{hexid(2)}\t1\tevt\t\n"
        )
        path = tmp_path / "cycle.cteg"
        path.write_text(text)
        code, out, _ = run(capsys, "verify", str(path))
        assert code == EXIT_INVALID
        assert "cycle" in out

    def test_equal_timestamp_edge_is_invalid_and_named(self, tmp_path, capsys):
        path = tmp_path / "flat.cteg"
        path.write_text(
            f"cteg/1 {hexid(1)}\n"
            f"{hexid(1)}\t-\t5\tevt\t\n"
            f"{hexid(2)}\t{hexid(1)}\t5\tevt\t\n"
        )
        code, out, _ = run(capsys, "verify", str(path))
        assert code == EXIT_INVALID
        assert "edge-timestamp" in out
        assert hexid(1) in out and hexid(2) in out

    def test_garbage_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "garbage.cteg"
        path.write_bytes(b"\xff\xfenot a trace")
        assert run(capsys, "verify", str(path))[0] == EXIT_PARSE

    def test_missing_file_is_a_parse_error(self, capsys, tmp_path):
        assert run(capsys, "verify", str(tmp_path / "nope.cteg"))[0] == EXIT_PARSE


class TestCommit:
    def test_root_only_fixture_matches_the_golden_receipt(self, tmp_path, capsys):
        path = write_trace(tmp_path, "root.cteg", cteg({1: 0}, set(), root=1))
        code, out, _ = run(capsys, "commit", path)
        assert code == EXIT_OK
        assert out.strip() == GOLDEN_ROOT_ONLY

    def test_tampered_fixture_diverges_from_the_golden(self, tmp_path, capsys):
        path = write_trace(tmp_path, "root.cteg", cteg({1: 1}, set(), root=1))
        _, out, _ = run(capsys, "commit", path)
        assert out.strip() != GOLDEN_ROOT_ONLY

    def test_repeated_runs_agree(self, tmp_path, capsys):
        c = random_cteg(random.Random(1), 12)
        path = write_trace(tmp_path, "t.cteg", c)
        assert run(capsys, "commit", path)[1] == run(capsys, "commit", path)[1]

    def test_invalid_trace_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.cteg"
        path.write_text(
            f"cteg/1 {hexid(1)}\n{hexid(1)}\t-\t5\tevt\t\n{hexid(2)}\t{hexid(1)}\t5\tevt\t\n"
        )
        assert run(capsys, "commit", str(path))[0] == EXIT_INVALID


class TestNormalize:
    def test_chain_schedule_in_order(self, tmp_path, capsys):
        c = cteg({1: 0, 2: 1, 3: 2}, {(1, 2), (2, 3)}, root=1)
        path = write_trace(tmp_path, "chain.cteg", c)
        code, out, _ = run(capsys, "normalize", path)
        assert code == EXIT_OK
        lines = [line.split("\t") for line in out.strip().splitlines()]
        assert [(p, n) for p, n, _ in lines] == [(hexid(1), hexid(2)), (hexid(2), hexid(3))]

    def test_root_only_schedule_is_empty(self, tmp_path, capsys):
        path = write_trace(tmp_path, "root.cteg", cteg({1: 0}, set(), root=1))
        code, out, _ = run(capsys, "normalize", path)
        assert code == EXIT_OK
        assert out == ""

    def test_schedule_length_matches_non_root_count(self, tmp_path, capsys):
        c = random_cteg(random.Random(6), 17)
        path = write_trace(tmp_path, "t.cteg", c)
        _, out, _ = run(capsys, "normalize", path)
        assert len(out.strip().splitlines()) == 16

    def test_builds_no_graph(self, tmp_path, capsys):
        c = random_cteg(random.Random(7), 40)
        path = write_trace(tmp_path, "t.cteg", c)
        built, patch = counting_graphs()
        with patch:
            code, out, _ = run(capsys, "normalize", path)
        assert code == EXIT_OK and len(out.splitlines()) == 39
        assert built == []


class TestProject:
    def test_counterexample_fixtures_project_identically(self, tmp_path, capsys):
        g = cteg(COUNTEREXAMPLE_NODES, COUNTEREXAMPLE_FORK_EDGES, root=1)
        g_prime = cteg(COUNTEREXAMPLE_NODES, COUNTEREXAMPLE_CHAIN_EDGES, root=1)
        assert g.graph.edges != g_prime.graph.edges
        path_g = write_trace(tmp_path, "g.cteg", g)
        path_g_prime = write_trace(tmp_path, "gp.cteg", g_prime)
        code_a, out_a, _ = run(capsys, "project", path_g)
        code_b, out_b, _ = run(capsys, "project", path_g_prime)
        assert code_a == code_b == EXIT_OK
        assert out_a == out_b
        assert [line.split("\t")[0] for line in out_a.strip().splitlines()] == [
            hexid(1), hexid(2), hexid(3), hexid(4)
        ]

    def test_root_only_projection(self, tmp_path, capsys):
        path = write_trace(tmp_path, "root.cteg", cteg({5: 3}, set(), root=5))
        _, out, _ = run(capsys, "project", path)
        assert out.strip().split("\t")[0] == hexid(5)


class TestOracle:
    def test_small_bounds_pass_all_assertions(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "--actions", "3", "--timestamps", "3", "--max-len", "2", "--d-max", "2"
        )
        assert code == EXIT_OK
        assert "assert ascending chain: ok" in out
        assert "assert E0 != E1: ok" in out
        assert "assert E1 == E2: ok" in out
        assert "assert phi(S) == S: ok" in out

    def test_d_max_zero_reports_only_the_base_level(self, capsys):
        code, out, _ = run(capsys, "oracle", "--actions", "2", "--timestamps", "2", "--max-len", "1", "--d-max", "0")
        assert code == EXIT_OK
        assert out.strip() == "E0 size=4"

    def test_inexpressible_bounds_skip_the_strictness_assertion(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "--actions", "2", "--timestamps", "2", "--max-len", "2", "--d-max", "2"
        )
        assert code == EXIT_OK
        assert "E0 != E1" not in out

    def test_readme_example_output(self, capsys):
        # the README's console block: the command line, then its stdout up to the fence
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        prompt = "$ cteg oracle "
        block = readme[readme.index(prompt) :].split("```", 1)[0]
        command, *expected = block.splitlines()
        code, out, _ = run(capsys, *shlex.split(command)[2:])
        assert code == EXIT_OK
        assert out == "".join(line + "\n" for line in expected)

    def test_budget_exhaustion_exits_three(self, capsys):
        code, _, err = run(
            capsys,
            "oracle", "--actions", "4", "--timestamps", "4", "--max-len", "3", "--d-max", "2",
            "--budget", "100",
        )
        assert code == EXIT_BUDGET
        assert "budget exceeded" in err

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["--budget", "100"], (EXIT_BUDGET, "", "budget exceeded in level 0\n")),
            (
                ["--budget", "5000"],
                (EXIT_BUDGET, "E0 size=2032\nE0 size=2032 (complete)\n", "budget exceeded after level 0\n"),
            ),
            (["--d-max", "-1"], (EXIT_PARSE, "", "error: d_max must be non-negative\n")),
        ],
        ids=["budget-in-the-base-level", "budget-after-the-base-level", "negative-d-max"],
    )
    def test_a_cut_short_run_says_where(self, capsys, argv, expected):
        assert run(capsys, "oracle", *argv) == expected

    def test_budget_exhaustion_on_the_fixed_point_check_exits_three(self, capsys, monkeypatch):
        # At these bounds the check costs what the last level did, so one more call of `phi` is cut short.
        calls = []

        def levels_then_one_state(current, bounds, budget):
            calls.append(current)
            return phi(current, bounds, budget=1 if len(calls) > 3 else budget)

        monkeypatch.setattr(cli, "phi", levels_then_one_state)
        code, out, err = run(capsys, "oracle", "--actions", "3", "--timestamps", "3", "--max-len", "2", "--d-max", "2")
        assert code == EXIT_BUDGET and len(calls) == 4
        assert out.splitlines()[-1] == "assert E1 == E2: ok"
        assert err == "budget exceeded while checking the fixed point\n"


class TestModuleEntryPoint:
    def test_python_dash_m_smoke(self, tmp_path):
        out = tmp_path / "t.cteg"
        proc = subprocess.run(
            [sys.executable, "-m", "cteg", "simulate", "--seed", "9", "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert out.exists()
        proc2 = subprocess.run(
            [sys.executable, "-m", "cteg", "verify", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc2.returncode == 0

    def test_round_trip_through_the_file(self, tmp_path, capsys):
        out = tmp_path / "t.cteg"
        run(capsys, "simulate", "--seed", "11", "--out", str(out))
        loaded, _ = import_trace(out.read_bytes())
        assert len(loaded.graph.nodes) >= 1
