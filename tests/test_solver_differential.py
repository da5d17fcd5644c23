"""The solver against the string-keyed implementation it replaced.

``reference_solver`` keeps the round-based attractor and the recursive
Zielonka verbatim.  On seeded games of several sizes, on every objective
kind and on hypothesis-drawn games, ``solve``, ``attractor`` and
``almost_sure_parity`` must return the same winning sets and the same
strategies, key order included: strategies break ties lexicographically and
callers (CLI payloads, frozen test values) rely on that.
"""

from __future__ import annotations

from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

from assumekit import (
    GameGraph,
    Objective,
    ObjectiveKind,
    Owner,
    almost_sure_parity,
    attractor,
    build_graph,
    random_game,
    solve,
)
from helpers import sparse_game
from reference_solver import (
    reference_almost_sure_parity,
    reference_attractor,
    reference_solve,
)


def _objective(kind: ObjectiveKind, g: GameGraph, target: set[str]) -> Objective:
    if kind is ObjectiveKind.PARITY:
        return Objective.parity(dict(g.priority))
    return {
        ObjectiveKind.REACH: Objective.reach,
        ObjectiveKind.SAFE: Objective.safe,
        ObjectiveKind.BUCHI: Objective.buchi,
        ObjectiveKind.COBUCHI: Objective.cobuchi,
    }[kind](target)


def _assert_same(g: GameGraph, objective: Objective) -> None:
    got = solve(g, objective)
    ref = reference_solve(g, objective)
    assert got.win1 == ref.win1
    assert got.win2 == ref.win2
    assert list(got.strat1.choice.items()) == list(ref.strat1.choice.items())
    assert list(got.strat2.choice.items()) == list(ref.strat2.choice.items())


def _assert_same_everywhere(g: GameGraph, rng: Random) -> None:
    for kind in ObjectiveKind:
        target = {s for s in g.states if rng.random() < 0.4}
        _assert_same(g, _objective(kind, g, target))
    for player in (Owner.P1, Owner.P2):
        target = {s for s in g.states if rng.random() < 0.2}
        assert attractor(g, player, target) == reference_attractor(g, player, target)


class TestSeeded:
    def test_small_random_games(self):
        for seed in range(120):
            g = random_game(
                num_states=2 + seed % 11,
                edge_density=0.15 + 0.05 * (seed % 7),
                num_priorities=1 + seed % 6,
                seed=seed,
            )
            _assert_same_everywhere(g, Random(seed))

    def test_medium_random_games(self):
        for seed in range(12):
            g = random_game(30 + 5 * (seed % 4), 0.08, 1 + seed % 6, seed=500 + seed)
            _assert_same_everywhere(g, Random(seed))

    def test_sparse_games(self):
        for seed in range(16):
            rng = Random(seed)
            n = (60, 150, 400)[seed % 3]
            g = sparse_game(rng, n, 1 + seed % 6 if seed % 4 else 20)
            _assert_same_everywhere(g, rng)

    def test_isolated_self_loops(self):
        # The doubling adversary: every loop is its own trap.
        ids = [f"l{i:03d}" for i in range(40)]
        g = build_graph(
            states=ids,
            owner={s: Owner.P1 if i % 2 else Owner.P2 for i, s in enumerate(ids)},
            edges=[(s, s) for s in ids],
            priority={s: i for i, s in enumerate(ids)},
        )
        _assert_same_everywhere(g, Random(0))

    def test_almost_sure_through_the_gadget(self):
        for seed in range(40):
            if seed % 2:
                g = random_game(3 + seed % 6, 0.3, 1 + seed % 5, prob_fraction=0.3, seed=seed)
            else:
                g = sparse_game(Random(seed), 80, 1 + seed % 6, prob_fraction=0.25)
            prio = dict(g.priority)
            win, strat = almost_sure_parity(g, prio)
            ref_win, ref_strat = reference_almost_sure_parity(g, prio)
            assert win == ref_win
            assert list(strat.choice.items()) == list(ref_strat.choice.items())
            # attractor() also takes probabilistic games; their states count
            # as the opponent's.
            target = set(g.states[::5])
            for player in (Owner.P1, Owner.P2):
                assert attractor(g, player, target) == reference_attractor(g, player, target)


@st.composite
def games(draw) -> tuple[GameGraph, ObjectiveKind, set[str]]:
    n = draw(st.integers(1, 12))
    ids = [f"v{i}" for i in range(n)]
    owner = {s: draw(st.sampled_from([Owner.P1, Owner.P2])) for s in ids}
    edges = set()
    for s in ids:
        succ = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=3))
        edges.update((s, ids[j]) for j in succ)
    priority = {s: draw(st.integers(0, 5)) for s in ids}
    g = build_graph(states=ids, owner=owner, edges=sorted(edges), priority=priority)
    kind = draw(st.sampled_from(list(ObjectiveKind)))
    target = draw(st.sets(st.sampled_from(ids)))
    return g, kind, target


@settings(max_examples=300, deadline=None, derandomize=True)
@given(games())
def test_hypothesis_games(case):
    g, kind, target = case
    _assert_same(g, _objective(kind, g, target))
    for player in (Owner.P1, Owner.P2):
        assert attractor(g, player, target) == reference_attractor(g, player, target)
