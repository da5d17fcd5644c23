"""The three workloads: streams of operations made from the workload seed.

A stream yields ``Op`` objects.  Inputs are generated when the op is
yielded, outside the timed region; ``Op.call`` is the one library call that
is timed, and ``Op.check`` verifies its result afterwards and returns a
digest of the output.  Calls go through ``assumekit`` attributes at call
time, so the tracer's wrappers see them.

parity-solve and pipeline-cli draw their inputs from fixed pools, one per
operation kind, indexed by ``pool``: the seed picks where in each pool a
run starts.  ``goldens.json`` holds the digest of every pool entry whose
answer is checked by digest (almost-sure games, CLI game files) as the
seed commit computed it.
"""

from __future__ import annotations

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from collections import Counter
from itertools import combinations, count
from random import Random

import gen
from checks import CheckError, check_parity_solution, digest, solve_doc, strategy_doc


class Op:
    __slots__ = ("kind", "call", "check")

    def __init__(self, kind, call, check):
        self.kind, self.call, self.check = kind, call, check


class CliExitError(Exception):
    """A CLI command exited with an unexpected code (counts as failed)."""


class Workload:
    name = ""
    warmup_ops = 1  # set-up runs this many ops from a separate stream
    first_ops = 1  # set-up generates this many inputs of the main stream
    pool_size = 0
    warmup_pool = 1  # pool entries after the main pool, one per warm-up cycle

    def __init__(self, ak, seed: int, workdir: str, goldens: dict, known_defects: bool = False):
        self.ak, self.seed, self.workdir = ak, seed, workdir
        self.goldens, self.known_defects = goldens, known_defects
        self.recorded: dict[str, str] | None = None
        self.buffer: list[Op] = []

    def rng(self, salt: str, part: str) -> Random:
        # The warm-up stream is the same for every seed, so set-up time does
        # not vary with the seed's inputs.
        key = self.name if salt == "warmup" else f"{self.name}/{self.seed}"
        return Random(f"{key}/{salt}/{part}")

    def prepare(self, first: int) -> None:
        """Set-up input generation: the first ``first`` ops of the main stream."""
        self.main = self.stream("main")
        self.buffer = [next(self.main) for _ in range(first)]

    def ops(self):
        yield from self.buffer
        self.buffer = []
        yield from self.main

    def golden(self, key: str, doc) -> str:
        d = digest(doc)
        if self.recorded is not None:
            self.recorded[key] = d
        elif self.goldens.get(key) != d:
            raise CheckError(f"{key}: output digest {d} != recorded {self.goldens.get(key)}")
        return d

    def pool(self, kind: str) -> int:
        """Size of the main pool of ``kind``."""
        return self.pool_size

    def pool_index(self, salt: str, kind: str, round_: int) -> int:
        size = self.pool(kind)
        if salt == "warmup":
            # Entries past the main pool, which the timed loop never reads.
            assert round_ < self.warmup_pool
            return size + round_
        base = self.rng(salt, f"pool/{kind}").randrange(size)
        return (base + round_) % size


# ---------------------------------------------------------------------------


class FairSweep(Workload):
    """assume_fair_win queries on 3SAT reduction games.

    Two lanes of unsatisfiable n=2 formulas (4 and 3 clauses) each walk
    every fair-edge subset of size <= k in the order of an exhaustive
    minimum-subset search, and a third lane queries satisfiable n=3
    formulas with their model's edges.  The lanes are interleaved in the
    proportions of acceptance criterion 6, which fixes the mix, and so the
    medians, when a run ends mid-formula.
    """

    name = "fair-sweep"
    warmup_ops = 50
    first_ops = 100
    # Highest percentile op_tail_ms may report.  About 25,000 ops per run:
    # p99.9 would read the 25 slowest, which on a shared machine are
    # scheduling stalls rather than queries.
    tail_cap = 99.0
    # Criterion 6's queries in the classes run here: 50 unsatisfiable
    # 4-clause n=2 formulas and 20 3-clause ones, each walked by
    # min_fair_subset_exhaustive (1,433 and 863 queries: an all-candidates
    # pre-check, then 1,432 and 862 subsets), and one query for each of the
    # 16,240 satisfiable n=3 formulas of 1 to 4 clauses.  selftest.py
    # re-derives these counts.
    WEIGHTS = {"unsat4-subset": 50 * 1433, "unsat3-subset": 20 * 863, "sat-assignment": 16240}

    def stream(self, salt: str):
        lanes = {
            f"unsat{c}-subset": self._unsat_lane(c, self.rng(salt, f"unsat{c}")) for c in (4, 3)
        }
        lanes["sat-assignment"] = self._sat_lane(self.rng(salt, "sat"))
        # Smooth weighted round robin: each lane's share of any stretch of
        # the stream is within one query of its weight's share.
        total = sum(self.WEIGHTS.values())
        credit = dict.fromkeys(self.WEIGHTS, 0)
        while True:
            for lane, weight in self.WEIGHTS.items():
                credit[lane] += weight
            pick = max(credit, key=credit.get)
            credit[pick] -= total
            yield next(lanes[pick])

    def _query(self, kind, tg, edges, expect: bool) -> Op:
        ak = self.ak

        def check(out):
            win, strat = out
            if (tg.initial in win) is not expect:
                raise CheckError(f"{kind}: verdict {not expect} for fair set {edges}")
            return digest({"win": sorted(win), "strategy": strategy_doc(strat.choice)})

        return Op(kind, lambda: ak.assume_fair_win(tg.graph, tg.objective, edges), check)

    def _unsat_lane(self, clauses: int, rng: Random):
        ak = self.ak
        kind, formulas = f"unsat{clauses}-subset", gen.unsat_formulas(2, clauses)
        while True:
            tg = ak.gen_3sat_game(ak.Cnf(2, rng.choice(formulas)))
            candidates = sorted(tg.graph.player2_edges())
            for size in range(tg.k + 1):
                for combo in combinations(candidates, size):
                    yield self._query(kind, tg, list(combo), False)

    def _sat_lane(self, rng: Random):
        ak = self.ak
        while True:
            clauses, model = gen.sat_formula(rng, 3, (1, 2, 3, 4))
            cnf = ak.Cnf(3, clauses)
            tg = ak.gen_3sat_game(cnf)
            edges = sorted(ak.assumption_from_assignment(cnf, model))
            yield self._query("sat-assignment", tg, edges, True)


# ---------------------------------------------------------------------------


class ParitySolve(Workload):
    """solve / almost_sure_parity on large games, one per op, in a fixed
    cycle of game shapes; every op gets a freshly generated game."""

    name = "parity-solve"
    warmup_ops = 2
    first_ops = 12
    tail_cap = 75.0  # 40 to 100 ops per run; p90 would need 100
    # Shapes sorted by cost: the three 1,000-state games take the bottom
    # quarter of the ops, the 4,000/20 games the next 42% (so the median
    # falls well inside them), and the fixed self-loop adversary the next
    # 25% (so the p75 tail reads one fixed input, not a seed's luck).
    CYCLE = (
        ("sparse-1000-p20", 1000, 20),
        ("sparse-4000-p20", 4000, 20),
        ("loops-200", 200, 0),
        ("almost-sure-1000", 1000, 6),
        ("sparse-4000-p20", 4000, 20),
        ("loops-200", 200, 0),
        ("sparse-1000-p200", 1000, 200),
        ("sparse-4000-p20", 4000, 20),
        ("sparse-4000-p200", 4000, 200),
        ("sparse-4000-p20", 4000, 20),
        ("loops-200", 200, 0),
        ("sparse-4000-p20", 4000, 20),
    )
    DEFECT = ("loops-1200-deep", 1200, 0)
    # Random games of one shape differ in Zielonka's cost by 30 to 40%, and
    # a run solves only about 25 games of the 4,000/20 shape.  So the games
    # come from pools of five cycles' worth, which one run at today's speed
    # (4.5 to 6.5 cycles) goes through about once: every run solves nearly
    # the same set of games, and the seed sets where in each pool it starts.
    POOLS = Counter(kind for kind, _, _ in CYCLE * 5)

    def pool(self, kind: str) -> int:
        return self.POOLS[kind]

    def stream(self, salt: str):
        cycle = self.CYCLE + ((self.DEFECT,) if self.known_defects else ())
        rounds: Counter[str] = Counter()
        while True:
            for kind, n, prios in cycle:
                round_ = rounds[kind]
                rounds[kind] += 1
                if kind.startswith("almost-sure"):
                    yield self.almost_sure_op(self.pool_index(salt, kind, round_))
                elif kind.startswith("loops"):
                    owners = "even" if kind == self.DEFECT[0] else "alternate"
                    yield self._solve_op(kind, gen.loops_game(n, owners))
                else:
                    index = self.pool_index(salt, kind, round_)
                    yield self._solve_op(kind, gen.sparse_game(Random(f"{kind}/{index}"), n, prios))

    def _solve_op(self, kind: str, spec: dict) -> Op:
        ak = self.ak
        g = gen.spec_to_graph(ak, spec)
        objective = ak.Objective.parity(spec["priority"])

        def check(res):
            check_parity_solution(spec, res)
            return digest(solve_doc(res))

        return Op(kind, lambda: ak.solve(g, objective), check)

    def almost_sure_op(self, index: int) -> Op:
        ak = self.ak
        kind, n, prios = "almost-sure-1000", 1000, 6
        spec = gen.sparse_game(Random(f"{kind}/{index}"), n, prios, prob_fraction=0.2)
        g = gen.spec_to_graph(ak, spec)
        priority = spec["priority"]

        def check(out):
            win, strat = out
            doc = {"almost_sure": sorted(win), "strategy1": strategy_doc(strat.choice)}
            return self.golden(f"{self.name}/{kind}/{index}", doc)

        return Op(kind, lambda: ak.almost_sure_parity(g, priority), check)

    def golden_ops(self):
        for index in range(self.pool("almost-sure-1000") + self.warmup_pool):
            yield self.almost_sure_op(index)


# ---------------------------------------------------------------------------


class PipelineCli(Workload):
    """In-process ``assumekit.cli.main`` calls on game files written just
    before each call; every command but the arbiter reads a game it has not
    seen before."""

    name = "pipeline-cli"
    warmup_ops = 5
    first_ops = 5
    tail_cap = 90.0  # 150 to 300 ops per run; p99 would need 1,000
    pool_size = 256
    CYCLE = ("rcg-assume", "fair-assume", "check", "safety-assume", "solve")
    # Sizes put the commands in a fixed cost order: check, solve, the fixed
    # arbiter (so the median reads one fixed input), fair, then safety on
    # the big file, whose cost varies least between games (so the p90 tail
    # does too).  Zielonka's cost on random games varies most, so solve
    # gets the small file.
    STATES = {"safety-assume": 8000, "solve": 300}
    PARITY_PRIORITIES = 20
    files = 0

    def stream(self, salt: str):
        for round_ in count():
            for kind in self.CYCLE:
                index = self.pool_index(salt, kind, round_) if kind != "rcg-assume" else 0
                yield self.cli_op(kind, index)

    def _write(self, kind: str, text: str) -> str:
        self.files += 1
        path = os.path.join(self.workdir, f"{kind}-{self.files}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def _sat_game_text(self, rng: Random, satisfiable: bool):
        ak = self.ak
        if satisfiable:
            clauses, model = gen.sat_formula(rng, 3, (3,))
        else:
            clauses = rng.choice(gen.unsat_formulas(2, 3))
            model = {1: True, 2: False}
        cnf = ak.Cnf(len(model), clauses)
        tg = ak.gen_3sat_game(cnf)
        text = ak.dump_game(tg.graph, tg.objective)
        return text, tg, sorted(ak.assumption_from_assignment(cnf, model))

    def cli_op(self, kind: str, index: int) -> Op:
        rng = Random(f"{kind}/{index}")
        if kind == "rcg-assume":
            path = self._write(kind, self.ak.dump_game(self.ak.fixtures.f_rcg()))
            argv = ["assume", path]
        elif kind == "fair-assume":
            text, _, _ = self._sat_game_text(rng, True)
            path = self._write(kind, text)
            argv = ["assume", "--mode", "fair", path]
        elif kind == "check":
            text, tg, edges = self._sat_game_text(rng, rng.random() < 0.5)
            path = self._write(kind, text)
            fair = ",".join(f"{u}>{v}" for u, v in edges)
            argv = ["check", path, "--fair-edges", fair, "--state", tg.initial]
        else:
            spec = gen.sparse_game(rng, self.STATES[kind], self.PARITY_PRIORITIES, sink_fraction=0.1)
            path = self._write(kind, gen.game_file_text(spec, {"kind": "Parity"}))
            argv = ["assume", "--mode", "safety", path] if kind == "safety-assume" else ["solve", path]
        cli = self.ak.cli

        def call():
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(argv)
            if code != 0:
                raise CliExitError(f"{kind}: exit code {code}: {err.getvalue().strip()}")
            return out.getvalue()

        def check(stdout: str):
            os.remove(path)
            payload = json.loads(stdout)["payload"]
            return self.golden(f"{self.name}/{kind}/{index}", payload)

        return Op(kind, call, check)

    def golden_ops(self):
        yield self.cli_op("rcg-assume", 0)
        for kind in self.CYCLE[1:]:
            for index in range(self.pool_size + self.warmup_pool):
                yield self.cli_op(kind, index)


WORKLOADS = {w.name: w for w in (FairSweep, ParitySolve, PipelineCli)}
