"""The pipeline's witness re-check against the code it replaced.

``combined_assumption`` fixes its completed system strategy and asks
``_fair_loops`` for the loops, reachable from the start state, that honour
every fair edge and have an odd least priority; any such loop fails the
witness.  ``reference_fair`` keeps the old re-check, which solved the
fairness question again on the induced structure.  The two must agree on
every state of seeded games under random total player-1 choices and random
fair sets, and on the arbiter's transformed game.  On games of at most 8
states the brute-force ``_has_fair_losing_loop`` must agree as well.
"""

from __future__ import annotations

from random import Random

from assumekit import (
    GameGraph,
    Objective,
    Owner,
    assume_fair_win,
    combined_assumption,
    random_game,
)
from assumekit.fairness import _has_fair_losing_loop
from assumekit.fixtures import f_rcg
from assumekit.graphs import reachable
from assumekit.pipeline import _fair_loops
from reference_fair import reference_witness_wins


def _objective(g: GameGraph, seed: int, rng: Random) -> Objective:
    target = [s for s in g.states if rng.random() < 0.5]
    kind = seed % 4
    if kind == 0:
        return Objective.buchi(target)
    if kind == 1:
        return Objective.cobuchi(target)
    if kind == 2:
        return Objective.parity(dict(g.priority))
    # Order and parity kept, values spread apart.
    return Objective.parity({s: 8 * p + p % 2 for s, p in g.priority.items()})


def _random_choice(g: GameGraph, rng: Random) -> dict[str, str]:
    return {q: rng.choice(g.succ(q)) for q in g.states_of(Owner.P1)}


def _agree(g, obj, choice, fair, brute: bool) -> int:
    """Compare on every state; returns the number of states checked."""
    prio = obj.as_parity(g).priority
    fixed = {q: (choice[q],) if q in choice else g.succ(q) for q in g.states}
    wins = reference_witness_wins(g, obj, fair, choice)
    verdicts: dict[frozenset[str], bool] = {}
    for s in g.states:
        loses = bool(_fair_loops([s], fixed, fair, prio))
        assert loses == (s not in wins), (s, choice, sorted(fair))
        if brute:
            reach = frozenset(reachable([s], fixed))
            if reach not in verdicts:
                verdicts[reach] = _has_fair_losing_loop(reach, fixed, prio, sorted(fair))
            assert verdicts[reach] == loses, (s, choice, sorted(fair))
    return len(g.states)


def test_random_games():
    checked = brute_checked = 0
    for seed in range(400):
        rng = Random(seed)
        g = random_game(
            num_states=2 + seed % 9,
            edge_density=0.15 + 0.05 * (seed % 6),
            num_priorities=1 + seed % 5,
            seed=seed,
        )
        obj = _objective(g, seed, rng)
        p2 = g.player2_edges()
        for _ in range(4):
            fair = frozenset(e for e in p2 if rng.random() < 0.5)
            brute = len(g.states) <= 8
            n = _agree(g, obj, _random_choice(g, rng), fair, brute)
            checked += n
            brute_checked += n if brute else 0
    assert checked >= 9000 and brute_checked >= 6000


def test_arbiter_transformed_game():
    res = combined_assumption(f_rcg())
    h, obj = res.transformed_graph, res.transformed_objective
    # The pipeline's own witness: the strategy completed as it does.
    _, strat = assume_fair_win(h, obj, res.fairness.edges)
    choice = dict(strat.choice)
    for q in h.states_of(Owner.P1):
        choice.setdefault(q, h.succ(q)[0])
    _agree(h, obj, choice, res.fairness.edges, brute=False)
    rng = Random(7)
    p2 = h.player2_edges()
    for _ in range(8):
        fair = frozenset(e for e in p2 if rng.random() < 0.5)
        _agree(h, obj, _random_choice(h, rng), fair, brute=False)
