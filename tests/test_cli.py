"""Command-line behavior: one JSON report per run, reproducible payloads,
file outputs, GraphViz mode, and the documented exit codes."""

from __future__ import annotations

import io
import json
import sys

import pytest

import assumekit.cli as cli
from assumekit import (
    dump_game,
    parse_automaton,
    parse_game,
    random_game,
)
from assumekit.fixtures import f_buchi_loop, f_coin, f_pipe, f_rcg, f_safety_escape
from helpers import isolated_loops, live_but_unfixable_synthesis, unsatisfiable_synthesis


@pytest.fixture
def run(capsys):
    def invoke(*args):
        code = cli.main(list(args))
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return invoke


@pytest.fixture
def game_file(tmp_path):
    def write(name, fixture):
        g, obj = fixture()
        p = tmp_path / name
        p.write_text(dump_game(g, obj))
        return str(p)
    return write


@pytest.fixture
def synth_file(tmp_path):
    def write(name, sg):
        p = tmp_path / name
        p.write_text(dump_game(sg))
        return str(p)
    return write


def payload_of(out):
    report = json.loads(out)
    assert set(report) == {"command", "input_digest", "payload", "seed", "timing_ms"}
    assert len(report["input_digest"]) == 64
    return report["payload"]


class TestSolve:
    def test_deterministic_game(self, run, game_file):
        path = game_file("esc.json", f_safety_escape)
        code, out, err = run("solve", path)
        assert code == 0 and err == ""
        assert payload_of(out) == {
            "strategy1": {},
            "strategy2": {"b": "c"},
            "win1": [],
            "win2": ["a", "b", "c"],
        }

    def test_probabilistic_game(self, run, game_file):
        path = game_file("coin.json", f_coin)
        code, out, _ = run("solve", path)
        assert code == 0
        assert payload_of(out) == {
            "almost_sure": ["v", "w", "x"],
            "strategy1": {"w": "v", "x": "v"},
        }

    def test_objective_override(self, run, game_file):
        path = game_file("esc.json", f_safety_escape)
        code, out, _ = run("solve", path, "--objective-override", "reach:c")
        assert code == 0
        assert payload_of(out)["win1"] == ["c"]

    def test_bad_override_kind(self, run, game_file):
        path = game_file("esc.json", f_safety_escape)
        code, out, err = run("solve", path, "--objective-override", "zap:c")
        assert code == 2 and out == ""
        assert "unknown kind" in err

    def test_missing_file(self, run, tmp_path):
        code, out, err = run("solve", str(tmp_path / "nope.json"))
        assert code == 2 and out == ""
        assert err.startswith("assumekit:")

    @pytest.mark.parametrize(
        "raw, message",
        [
            (b"[" * 200_000, "nesting too deep"),
            (b'{"states": [{"id": "a", "owner": "P1"}], "edges": [[["x"], "a"]]}',
             "edges[0]: expected a [src, dst] pair"),
            (b'{"states": [{"id": "a", "owner": "P1"}], "edges": [["a", "a"]], "dist": [1]}',
             "dist: expected an object"),
            (b'{"states": [{"id": "a", "owner": "PROB"}], "edges": [["a", "a"]],'
             b' "dist": {"a": {"a": [1]}}}',
             "bad weight [1]"),
            (b'{"states": "\xff\xfe"}', "not UTF-8 text"),
            (b'{"states": [{"id": "a", "owner": "P1"}], "edges": [["a", "a"]], "initial": ["a"]}',
             "initial: expected a state id"),
            (b'{"states": [{"id": "a", "owner": "P1"}], "edges": [["a", "a"]],'
             b' "objective": {"kind": "Safe", "target": [["a"]]}}',
             "objective.target: expected a list of state ids"),
            (b'{"states": [{"id": "a", "owner": "P1"}], "edges": [["a", "a"]],'
             b' "objective": {"kind": "Parity", "priorities": {"a": "x"}}}',
             "objective.priorities: invalid literal"),
            (b'{"states": [{"id": "a", "owner": "P1"}], "edges": [["a", "a"]], "initial": "a",'
             b' "objective": {"kind": "Buchi", "target": ["a"]}, "inputs": [["x"]], "outputs": []}',
             "inputs: expected a list of proposition names"),
            (b'{"states": [{"id": "a", "owner": "P1"}], "edges": [["a", "a"]],'
             b' "objective": {"kind": "Parity", "priorities": {"a": 2.5}}}',
             "objective.priorities: invalid literal 2.5"),
            (b'{"states": [{"id": "a", "owner": "P1"}], "edges": [["a", "a"]],'
             b' "objective": {"kind": "Parity", "priorities": {"a": "3"}}}',
             "objective.priorities: invalid literal '3'"),
            (b'{"states": [{"id": "a", "owner": "P1"}], "edges": [["a", "a"]],'
             b' "objective": {"kind": "Parity", "priorities": {"a": true}}}',
             "objective.priorities: invalid literal True"),
            (b'{"states": [{"id": "a", "owner": "P1"}], "edges": [["a", "a"]],'
             b' "objective": {"kind": "Parity", "priorities": {"a": -1}}}',
             "objective.priorities: parity objective: negative priority"),
            (b'{"states": [{"id": "a", "owner": "P1", "priority": true}], "edges": [["a", "a"]],'
             b' "objective": {"kind": "Parity"}}',
             "states[0]: priority must be a natural number"),
        ],
        ids=[
            "deep-nesting", "list-endpoint", "dist-list", "list-weight", "bad-bytes",
            "list-initial", "list-target", "word-priority", "list-proposition",
            "float-priority", "string-priority", "bool-priority", "negative-priority",
            "bool-state-priority",
        ],
    )
    def test_malformed_file_exits_2(self, run, tmp_path, raw, message):
        p = tmp_path / "bad.json"
        p.write_bytes(raw)
        code, out, err = run("solve", str(p))
        assert code == 2 and out == ""
        assert err.startswith("assumekit: ") and message in err
        assert "internal error" not in err and "Traceback" not in err

    def test_file_without_objective(self, run, tmp_path):
        g = random_game(4, 0.4, 3, seed=1)
        p = tmp_path / "bare.json"
        p.write_text(dump_game(g))
        code, _, err = run("solve", str(p))
        assert code == 2 and "no objective" in err
        code, out, _ = run("solve", str(p), "--objective-override", "parity")
        assert code == 0 and "win1" in payload_of(out)

    def test_dot_mode_prints_graphviz_only(self, run, game_file):
        path = game_file("esc.json", f_safety_escape)
        code, out, _ = run("solve", path, "--dot")
        assert code == 0
        assert out.startswith("digraph")
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)


class TestAssume:
    def test_safety_mode(self, run, game_file):
        path = game_file("esc.json", f_safety_escape)
        code, out, _ = run("assume", path, "--mode", "safety")
        assert code == 0
        assert payload_of(out) == {
            "edges": [["b", "c"]],
            "safe_region": ["a", "b"],
        }

    def test_fair_mode(self, run, game_file):
        path = game_file("bl.json", f_buchi_loop)
        code, out, _ = run("assume", path, "--mode", "fair")
        assert code == 0
        assert payload_of(out) == {
            "edges": [["b", "a"]],
            "winning_from": ["a", "b"],
        }

    def test_fair_mode_exit_5(self, run, game_file):
        path = game_file("pipe.json", f_pipe)
        code, out, err = run("assume", path, "--mode", "fair")
        assert code == 5 and out == ""
        assert "no strong-fairness" in err

    def test_combined_writes_the_automaton(self, run, synth_file, tmp_path):
        path = synth_file("rcg.json", f_rcg())
        out_path = tmp_path / "assumption.json"
        code, out, _ = run("assume", path, "--mode", "combined", "-o", str(out_path))
        assert code == 0
        payload = payload_of(out)
        assert payload["forbidden"] == []
        assert payload["fair"] == [["t_p1b1_on", "q_p1b0_ir"]]
        assert payload["output"] == str(out_path)
        a = parse_automaton(out_path.read_text())
        assert a.fair == frozenset({("t_p1b1_on", "q_p1b0_ir")})

    def test_combined_needs_a_synthesis_game(self, run, game_file):
        path = game_file("bl.json", f_buchi_loop)
        code, _, err = run("assume", path, "--mode", "combined")
        assert code == 2 and "combined mode needs" in err

    def test_combined_exit_4(self, run, synth_file):
        path = synth_file("unsat.json", unsatisfiable_synthesis())
        code, out, err = run("assume", path, "--mode", "combined")
        assert code == 4 and out == ""
        assert "outside the cooperative" in err

    def test_combined_exit_5(self, run, synth_file):
        path = synth_file("unfix.json", live_but_unfixable_synthesis())
        code, out, err = run("assume", path, "--mode", "combined")
        assert code == 5 and out == ""
        assert "no strong-fairness" in err


class TestCheck:
    def test_sufficient_and_not(self, run, game_file):
        path = game_file("bl.json", f_buchi_loop)
        code, out, _ = run("check", path, "--fair-edges", "b>a", "--state", "a")
        assert code == 0
        assert payload_of(out) == {
            "fair": [["b", "a"]],
            "state": "a",
            "sufficient": True,
        }
        code, out, _ = run("check", path, "--fair-edges", "b>b", "--state", "a")
        assert payload_of(out)["sufficient"] is False

    def test_malformed_edge_list(self, run, game_file):
        path = game_file("bl.json", f_buchi_loop)
        code, _, err = run("check", path, "--fair-edges", "b-a", "--state", "a")
        assert code == 2 and "src>dst" in err

    def test_unknown_state(self, run, game_file):
        path = game_file("bl.json", f_buchi_loop)
        code, _, err = run("check", path, "--fair-edges", "b>a", "--state", "zz")
        assert code == 2 and "unknown state" in err


class TestGen:
    def test_three_sat(self, run, tmp_path):
        dimacs = tmp_path / "x1.cnf"
        dimacs.write_text("p cnf 1 1\n1 0\n")
        code, out, _ = run("gen", "--three-sat", str(dimacs))
        assert code == 0
        payload = payload_of(out)
        assert payload["k"] == 1 and payload["initial"] == "11"
        assert payload["states"] == 10 and payload["edges"] == 17

    def test_bad_dimacs_exit_2(self, run, tmp_path):
        dimacs = tmp_path / "bad.cnf"
        dimacs.write_text("p cnf 1 2\n1 0\n")
        code, out, err = run("gen", "--three-sat", str(dimacs))
        assert code == 2 and out == "" and "announces" in err

    def test_random_writes_a_loadable_game(self, run, tmp_path):
        out_path = tmp_path / "g.json"
        code, out, _ = run("gen", "--random", "--states", "5", "--seed", "3",
                           "-o", str(out_path))
        assert code == 0
        payload = payload_of(out)
        assert payload["states"] == 5 and payload["initial"] == "s00"
        g = parse_game(out_path.read_text())
        assert dump_game(g) == dump_game(random_game(5, 0.3, 3, seed=3))

    def test_seed_reported_and_env_fallback(self, run, monkeypatch):
        code, out, _ = run("gen", "--random", "--seed", "3")
        assert json.loads(out)["seed"] == 3
        monkeypatch.setenv("ASSUMEKIT_SEED", "9")
        code, out, _ = run("gen", "--random")
        report = json.loads(out)
        assert report["seed"] == 9
        assert report["payload"]["game"] == json.loads(
            dump_game(random_game(6, 0.3, 3, seed=9)))

    def test_closed_stdout_exits_quietly(self, monkeypatch):
        # ``assumekit gen ... | head -c 100``: the reader is gone before the
        # report is written.
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        err = io.StringIO()
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        monkeypatch.setattr(sys, "stderr", err)
        code = cli.main(["gen", "--random", "--states", "30"])
        sys.stdout.close()
        assert code == 0 and err.getvalue() == ""

    def test_dot(self, run):
        code, out, _ = run("gen", "--random", "--states", "4", "--seed", "1", "--dot")
        assert code == 0 and out.startswith("digraph")


class TestMember:
    @pytest.fixture
    def automaton_file(self, run, synth_file, tmp_path):
        path = synth_file("rcg.json", f_rcg())
        out_path = tmp_path / "assumption.json"
        run("assume", path, "--mode", "combined", "-o", str(out_path))
        return str(out_path)

    def test_accept_and_reject(self, run, automaton_file):
        code, out, _ = run("member", automaton_file, "--word", "|{}")
        assert code == 0 and payload_of(out)["accept"] is True
        code, out, _ = run("member", automaton_file, "--word", "{req}|{cancel}")
        assert code == 0 and payload_of(out)["accept"] is False

    def test_bad_word(self, run, automaton_file):
        code, out, err = run("member", automaton_file, "--word", "oops")
        assert code == 2 and out == ""

    def test_unknown_proposition(self, run, automaton_file):
        code, _, err = run("member", automaton_file, "--word", "|{zap}")
        assert code == 2 and "unknown proposition" in err


class TestReportEnvelope:
    def test_payload_reproducible(self, run, game_file):
        path = game_file("esc.json", f_safety_escape)
        reports = []
        for _ in range(2):
            code, out, _ = run("solve", path)
            assert code == 0
            reports.append(json.loads(out))
        a, b = reports
        a.pop("timing_ms"), b.pop("timing_ms")
        assert a == b

    def test_command_echo_and_digest(self, run, game_file):
        path = game_file("esc.json", f_safety_escape)
        _, out, _ = run("assume", path, "--mode", "safety")
        report = json.loads(out)
        assert report["command"] == f"assume {path} --mode safety"
        assert report["seed"] is None
        int(report["input_digest"], 16)

    def test_unexpected_exception_exits_3(self, run, game_file, monkeypatch):
        def boom(args):
            raise RuntimeError("kaboom")

        monkeypatch.setattr(cli, "cmd_solve", boom)
        path = game_file("esc.json", f_safety_escape)
        code, out, err = run("solve", path)
        assert code == 3 and out == ""
        assert err == "assumekit: internal error: RuntimeError: kaboom\n"

    def test_deep_self_loops_solve(self, run, tmp_path):
        # 1,200 isolated P1 self-loops, even priorities: the recursive solver
        # overflowed the interpreter stack here.
        p = tmp_path / "loops.json"
        p.write_text(dump_game(*isolated_loops(1200)))
        code, out, err = run("solve", str(p))
        assert code == 0 and err == ""
        assert len(payload_of(out)["win1"]) == 1200
