"""The cycle searches against the code the SCC-refinement kernel replaced.

``reference_scc`` keeps the per-even-priority SCC loop and the Safe
fixpoint of ``cooperative_win``, the core loop of ``is_restrictive`` and
the recursive ``is_empty`` verbatim.  Their results are sets with no
tie-break, so the library must return equal sets on seeded games of every
objective kind, and equal verdicts on the synthesis games of the test
suite under seeded forbidden and fair edge sets.  Two regression cases pin
the cost: it must follow the number of states and of distinct priorities,
not the number of removal rounds or the priority values.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager
from random import Random

from assumekit import (
    AssumptionAutomaton,
    GameGraph,
    Objective,
    Owner,
    build_graph,
    cooperative_win,
    is_empty,
    is_restrictive,
    random_game,
)
from assumekit.fixtures import f_rcg
from helpers import live_but_unfixable_synthesis, sparse_game, unsatisfiable_synthesis
from reference_scc import (
    reference_cooperative_win,
    reference_is_empty,
    reference_is_restrictive,
)


def _objectives(g: GameGraph, rng: Random) -> list[Objective]:
    def target() -> set[str]:
        return {s for s in g.states if rng.random() < 0.5}

    # Priorities spread over 0..41 keep their order and parity but skip
    # values, so the reference makes many passes with nothing to find.
    gapped = {s: 8 * p + p % 2 for s, p in g.priority.items()}
    return [
        Objective.reach(target()),
        Objective.safe(target()),
        Objective.buchi(target()),
        Objective.cobuchi(target()),
        Objective.parity(dict(g.priority)),
        Objective.parity(gapped),
    ]


def _assert_same(g: GameGraph, rng: Random) -> None:
    for obj in _objectives(g, rng):
        assert cooperative_win(g, obj) == reference_cooperative_win(g, obj), obj.kind


class TestCooperativeWin:
    def test_small_random_games(self):
        for seed in range(200):
            g = random_game(
                num_states=2 + seed % 11,
                edge_density=0.1 + 0.05 * (seed % 7),
                num_priorities=1 + seed % 6,
                seed=seed,
            )
            _assert_same(g, Random(seed))

    def test_sparse_games(self):
        for seed in range(12):
            rng = Random(seed)
            n = (60, 150, 300)[seed % 3]
            g = sparse_game(rng, n, 1 + seed % 6)
            _assert_same(g, rng)


def _synthesis_games():
    return [f_rcg(), live_but_unfixable_synthesis(), unsatisfiable_synthesis()]


def _random_split(edges, rng: Random) -> tuple[frozenset, frozenset]:
    """Disjoint seeded forbidden and fair subsets of ``edges``."""
    forbidden, fair = set(), set()
    p_forbid, p_fair = rng.random() * 0.3, rng.random()
    for e in edges:
        r = rng.random()
        if r < p_forbid:
            forbidden.add(e)
        elif rng.random() < p_fair:
            fair.add(e)
    return frozenset(forbidden), frozenset(fair)


class TestSynthesisGames:
    def test_is_empty(self):
        verdicts = set()
        for i, sg in enumerate(_synthesis_games()):
            rng = Random(i)
            p2 = sg.graph.player2_edges()
            for _ in range(150):
                forbidden, fair = _random_split(p2, rng)
                a = AssumptionAutomaton(base=sg, forbidden=forbidden, fair=fair)
                got = is_empty(a)
                assert got == reference_is_empty(a), (forbidden, fair)
                verdicts.add(got)
        assert verdicts == {True, False}

    def test_is_restrictive(self):
        verdicts = set()
        for i, sg in enumerate(_synthesis_games()):
            rng = Random(100 + i)
            g = sg.graph
            objectives = [sg.objective] + _objectives(g, rng)
            for _ in range(6):
                cand, _ = _random_split(g.player2_edges(), rng)
                for obj in objectives:
                    for s in g.states:
                        got = is_restrictive(g, obj, cand, s)
                        assert got == reference_is_restrictive(g, obj, cand, s)
                        verdicts.add(got)
        assert verdicts == {True, False}

    def test_is_restrictive_on_random_games(self):
        for seed in range(40):
            g = random_game(2 + seed % 9, 0.2, 1 + seed % 4, seed=seed)
            rng = Random(seed)
            p2 = g.player2_edges()
            for obj in _objectives(g, rng):
                cand = [e for e in p2 if rng.random() < 0.5]
                for s in g.states:
                    assert is_restrictive(g, obj, cand, s) == reference_is_restrictive(
                        g, obj, cand, s
                    )


@contextmanager
def _deadline(seconds: float):
    """Fail with TimeoutError once ``seconds`` of wall time have passed, so
    a slow implementation fails quickly instead of running on."""

    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


class TestCost:
    def test_safe_chain_leaving_the_target(self):
        # c0000 -> c0001 -> ... -> c7999 -> out, plus a self-loop at c0000.
        # Only c0000 can stay in the target; peeling the chain one state per
        # round would take 8,000 rounds over the whole target.
        ids = [f"c{i:04d}" for i in range(8000)]
        edges = list(zip(ids, ids[1:] + ["out"])) + [("c0000", "c0000"), ("out", "out")]
        g = build_graph(
            states=ids + ["out"],
            owner={s: Owner.P1 for s in ids + ["out"]},
            edges=edges,
        )
        with _deadline(2.0):
            assert cooperative_win(g, Objective.safe(ids)) == frozenset({"c0000"})

    def test_huge_priority_values(self):
        g = build_graph(
            states=["a", "b"],
            owner={"a": Owner.P1, "b": Owner.P2},
            edges=[("a", "a"), ("b", "b"), ("b", "a")],
            priority={"a": 10**8, "b": 10**8 + 1},
        )
        with _deadline(2.0):
            assert cooperative_win(g, Objective.parity(dict(g.priority))) == {"a", "b"}
            assert cooperative_win(g, Objective.parity({"a": 10**8 + 1, "b": 10**8})) == {"b"}
