"""Self-test of the benchmark.  Run from the repository root:

    python3 perfbench/selftest.py

1. The checks reject wrong answers: a tampered parity solution, a wrong
   fair-set verdict and an output digest that differs from the recorded one.
2. A short traced run of every workload on a small seed gives the same
   output digest as its untraced reference run, and within every operation
   the layers' self times sum to no more than the operation's wall time
   (run.py fails the traced run otherwise).
3. With --known-defects, the deep-recursion game's failures are counted
   and every other output still checks out.
4. In a directory holding only BENCHMARK.json and perfbench/, the
   benchmark exits non-zero without printing a result.
5. fair-sweep's lane weights equal acceptance criterion 6's query counts,
   re-derived from its enumeration.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from itertools import combinations
from math import comb

import gen

from checks import CheckError, check_parity_solution
from run import HERE, OUT, ROOT, load_library
from workloads import WORKLOADS, FairSweep, ParitySolve

OPS = {"fair-sweep": 120, "parity-solve": 4, "pipeline-cli": 5}


def expect_rejected(what: str, fn) -> None:
    try:
        fn()
    except CheckError:
        return
    raise AssertionError(f"{what} was not rejected")


def test_checks(ak) -> None:
    w = ParitySolve(ak, 1, str(OUT), {})
    op = next(w.stream("selftest"))
    res = op.call()
    op.check(res)

    flipped = type(res)(win1=res.win2, win2=res.win1, strat1=res.strat2, strat2=res.strat1)
    expect_rejected("swapped winning sets", lambda: op.check(flipped))
    s = next(iter(res.strat1.choice))
    bad = dict(res.strat1.choice)
    bad[s] = "no-such-state"
    tampered = type(res)(win1=res.win1, win2=res.win2,
                         strat1=type(res.strat1)(res.strat1.player, bad), strat2=res.strat2)
    expect_rejected("strategy leaving its winning set", lambda: op.check(tampered))

    loops = ak.build_graph(states=["a", "b"], owner={"a": "P1", "b": "P1"},
                           edges=[("a", "a"), ("b", "b")], priority={"a": 1, "b": 0})
    spec = {"states": ["a", "b"], "owner": {"a": "P1", "b": "P1"},
            "priority": {"a": 1, "b": 0}, "succ": {"a": ["a"], "b": ["b"]}}
    lie = ak.solve(loops, ak.Objective.parity({"a": 0, "b": 0}))
    expect_rejected("winning set with an odd cycle", lambda: check_parity_solution(spec, lie))

    fair = FairSweep(ak, 1, str(OUT), {})
    query = next(fair.stream("selftest"))
    out = query.call()
    query.check(out)
    win, strat = out
    expect_rejected("wrong fair-set verdict", lambda: query.check((win | {"11"}, strat)))

    golden = ParitySolve(ak, 1, str(OUT), {"parity-solve/x": "0" * 16})
    expect_rejected("digest mismatch", lambda: golden.golden("parity-solve/x", {"a": 1}))


def test_traced_runs() -> None:
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "1",
               "--trace", "1", "--ops", str(OPS[name])]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if out.returncode != 0 or not result.get("correct"):
            raise AssertionError(f"{name}: traced run failed\n{out.stdout}{out.stderr}")
        print(f"{name}: traced and untraced digests agree over {result['attempted']} ops")


def test_known_defects() -> None:
    """One full parity-solve cycle with the deep-recursion game: every
    output checks out and each op that raised is counted as failed."""
    ops = len(ParitySolve.CYCLE) + 1
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", "parity-solve", "--seed", "1",
           "--ops", str(ops), "--known-defects", "--record", str(OUT / "selftest-defects.json")]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    record = json.loads((OUT / "selftest-defects.json").read_text(encoding="utf-8"))
    if out.returncode != 0 or not result["correct"]:
        raise AssertionError(f"known defects run failed\n{out.stdout}{out.stderr}")
    if result["failed"] != sum(record["failures"].values()):
        raise AssertionError("failed count disagrees with the recorded failures")
    print(f"known defects: {result['failed']} of {result['attempted']} ops failed "
          f"{record['failures']}")


def test_bare_directory() -> None:
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "fair-sweep", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    out = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    if out.returncode == 0 or '"correct"' in out.stdout:
        raise AssertionError(f"bare directory: exit {out.returncode}, stdout {out.stdout!r}")
    print(f"bare directory: exit {out.returncode}, no result printed")


def test_fair_mix(ak) -> None:
    """Criterion 6 walks each unsatisfiable n=2 formula with
    min_fair_subset_exhaustive (one all-candidates query, then every subset
    of size <= k) and queries each satisfiable n=3 formula of 1 to 4
    clauses once."""
    derived = {}
    for c in (4, 3):
        queries = 0
        for clauses in gen.unsat_formulas(2, c):
            tg = ak.gen_3sat_game(ak.Cnf(2, clauses))
            pool = len(tg.graph.player2_edges())
            queries += 1 + sum(comb(pool, size) for size in range(tg.k + 1))
        derived[f"unsat{c}-subset"] = queries
    clauses3 = gen.canonical_clauses(3)
    derived["sat-assignment"] = sum(
        1 for c in (1, 2, 3, 4) for cl in combinations(clauses3, c)
        if gen.first_model(3, cl) is not None
    )
    if derived != FairSweep.WEIGHTS:
        raise AssertionError(f"fair-sweep weights {FairSweep.WEIGHTS} != criterion 6's {derived}")


def main() -> int:
    ak = load_library()
    test_fair_mix(ak)
    print("fair-sweep weights match criterion 6's query counts")
    test_checks(ak)
    print("checks reject wrong answers")
    test_traced_runs()
    test_known_defects()
    test_bare_directory()
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
