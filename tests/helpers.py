"""Brute-force references shared by the test suite.

Everything here is independent of the solver implementations: memoryless
strategy pairs are enumerated, the unique play under a fixed pair is
simulated step by step, and the objective is evaluated on the resulting
lasso.  Agreement with the library is then evidence, not circularity.
Only usable on small deterministic games.  ``sparse_game`` draws the
seeded large games that the differential tests run.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from random import Random

from assumekit import (
    GameGraph,
    Objective,
    ObjectiveKind,
    Owner,
    SynthesisGame,
    build_graph,
    build_synthesis_game,
)


def live_but_unfixable_game() -> tuple[GameGraph, Objective]:
    """A game where hope never dies yet no strong-fairness assumption helps.

    Both players alternate between a good-priority and a bad-priority state
    of their own.  Cooperatively the players can stay on the good pair
    forever, so every state is live.  But player 2 moves infinitely often,
    and under full fairness its coin keeps dragging the play through the
    bad-priority state, so even the strongest fair-edge assumption leaves
    the minimal recurring priority odd.
    """
    g = build_graph(
        states=["A2", "B2", "C1", "D1"],
        owner={"A2": Owner.P1, "C1": Owner.P1, "B2": Owner.P2, "D1": Owner.P2},
        edges=[("A2", "B2"), ("A2", "D1"), ("C1", "B2"), ("C1", "D1"),
               ("B2", "A2"), ("B2", "C1"), ("D1", "A2"), ("D1", "C1")],
        priority={"A2": 2, "B2": 2, "C1": 1, "D1": 1},
        label={"A2": frozenset(), "C1": frozenset({"i"}),
               "B2": frozenset(), "D1": frozenset({"o"})},
        initial="A2",
    )
    return g, Objective.parity({"A2": 2, "B2": 2, "C1": 1, "D1": 1})


def live_but_unfixable_synthesis() -> SynthesisGame:
    g, obj = live_but_unfixable_game()
    return build_synthesis_game(g, inputs=["i"], outputs=["o"], objective=obj)


def unsatisfiable_synthesis() -> SynthesisGame:
    """A synthesis game whose initial state cannot win even with full
    environment cooperation: the recurrence target can never be revisited,
    so the cooperative winning region is empty."""
    g = build_graph(
        states=["q0", "q1", "qW", "tn", "tg"],
        owner={"q0": Owner.P1, "q1": Owner.P1, "qW": Owner.P1,
               "tn": Owner.P2, "tg": Owner.P2},
        edges=[("q0", "tn"), ("q0", "tg"), ("q1", "tn"), ("q1", "tg"),
               ("qW", "tn"), ("qW", "tg"),
               ("tn", "q0"), ("tn", "q1"), ("tg", "q0"), ("tg", "q1")],
        priority={s: 1 for s in ["q0", "q1", "qW", "tn", "tg"]},
        label={"q0": frozenset(), "q1": frozenset({"i"}), "qW": frozenset(),
               "tn": frozenset(), "tg": frozenset({"o"})},
        initial="q0",
    )
    obj = Objective.buchi({"qW"})
    return build_synthesis_game(g, inputs=["i"], outputs=["o"], objective=obj)


def isolated_loops(n: int) -> tuple[GameGraph, Objective]:
    """n isolated P1 self-loops with the even priorities 0, 2, ..., 2n-2.

    Zielonka peels one loop per level, so a solver whose stack grows with
    the recursion needs depth n here."""
    ids = [f"q{i:04d}" for i in range(n)]
    priority = {s: 2 * i for i, s in enumerate(ids)}
    g = build_graph(
        states=ids,
        owner={s: Owner.P1 for s in ids},
        edges=[(s, s) for s in ids],
        priority=priority,
        initial=ids[0],
    )
    return g, Objective.parity(priority)


def strategy_space(g: GameGraph, owner: Owner) -> list[dict[str, str]]:
    owned = [s for s in g.states if g.owner[s] is owner]
    choices = [sorted(g.succ(s)) for s in owned]
    return [dict(zip(owned, picks)) for picks in product(*choices)]


def lasso_under(g: GameGraph, fixed: dict[str, str], start: str):
    """Stem and cycle of the unique play from start when every state's move
    is pinned by ``fixed``.

    States without an entry fall back to the least successor: returned
    strategies cover only the owner's states inside the owner's winning set,
    and a play leaves that set only once the objective is already decided
    (target visited, safety broken), where the continuation is irrelevant.
    """
    path = [start]
    seen = {start: 0}
    while True:
        cur = path[-1]
        nxt = fixed.get(cur) or min(g.succ(cur))
        if nxt in seen:
            return path[: seen[nxt]], path[seen[nxt] :]
        seen[nxt] = len(path)
        path.append(nxt)


def play_satisfies(g: GameGraph, objective: Objective, stem, cycle) -> bool:
    recurring = set(cycle)
    visited = set(stem) | recurring
    kind = objective.kind
    if kind is ObjectiveKind.REACH:
        return bool(visited & objective.target)
    if kind is ObjectiveKind.SAFE:
        return visited <= objective.target
    if kind is ObjectiveKind.BUCHI:
        return bool(recurring & objective.target)
    if kind is ObjectiveKind.COBUCHI:
        return recurring <= objective.target
    prio = objective.priority
    return min(prio[s] for s in recurring) % 2 == 0


def brute_partition(g: GameGraph, objective: Objective):
    """(win1, win2) by plain exists-forall over memoryless strategies.

    Memoryless determinacy of these objective classes makes the two
    quantifier orders complementary; the caller may assert the partition.
    """
    assert g.deterministic
    alphas = strategy_space(g, Owner.P1)
    betas = strategy_space(g, Owner.P2)
    win1, win2 = set(), set()
    for s in g.states:
        for alpha in alphas:
            if all(
                play_satisfies(g, objective, *lasso_under(g, {**alpha, **beta}, s))
                for beta in betas
            ):
                win1.add(s)
                break
        for beta in betas:
            if all(
                not play_satisfies(g, objective, *lasso_under(g, {**alpha, **beta}, s))
                for alpha in alphas
            ):
                win2.add(s)
                break
    return frozenset(win1), frozenset(win2)


def strategy_wins_everywhere(
    g: GameGraph, objective: Objective, choice: dict[str, str], states
) -> bool:
    """True when the fixed player-1 choice map beats every memoryless
    player-2 reply from every state in ``states``."""
    betas = strategy_space(g, Owner.P2)
    for s in states:
        for beta in betas:
            fixed = {**choice, **beta}
            if not play_satisfies(g, objective, *lasso_under(g, fixed, s)):
                return False
    return True


def strategy_loses_everywhere(
    g: GameGraph, objective: Objective, choice: dict[str, str], states
) -> bool:
    """True when the fixed player-2 choice map defeats every memoryless
    player-1 reply from every state in ``states``."""
    alphas = strategy_space(g, Owner.P1)
    for s in states:
        for alpha in alphas:
            fixed = {**alpha, **choice}
            if play_satisfies(g, objective, *lasso_under(g, fixed, s)):
                return False
    return True


def seeded_objective(g: GameGraph, pick: int) -> Objective:
    """Deterministic objective family over a seeded game, cycling through
    all five kinds so sweeps exercise every solver path."""
    ids = list(g.states)
    half = ids[: max(1, len(ids) // 2)]
    kind = pick % 5
    if kind == 0:
        return Objective.reach(half)
    if kind == 1:
        return Objective.safe(ids[: max(1, 2 * len(ids) // 3)])
    if kind == 2:
        return Objective.buchi(half)
    if kind == 3:
        return Objective.cobuchi(ids[: max(1, 2 * len(ids) // 3)])
    return Objective.parity(dict(g.priority))


def seeded_confinable_objective(g: GameGraph, pick: int) -> Objective:
    """Like seeded_objective but drawn from the kinds whose satisfied plays
    never leave the cooperative region (Safe plus the parity class).

    Reach is excluded: a target state counts as cooperatively winning even
    when all of its continuations exit the region, so the boundary-edge
    safety assumption cannot confine plays there and the region-wide
    sufficiency and avoidance guarantees do not apply to that kind.
    """
    ids = list(g.states)
    half = ids[: max(1, len(ids) // 2)]
    kind = pick % 4
    if kind == 0:
        return Objective.safe(ids[: max(1, 2 * len(ids) // 3)])
    if kind == 1:
        return Objective.buchi(half)
    if kind == 2:
        return Objective.cobuchi(ids[: max(1, 2 * len(ids) // 3)])
    return Objective.parity(dict(g.priority))


def sparse_game(rng: Random, n: int, priorities: int, prob_fraction: float = 0.0) -> GameGraph:
    """Out-degree 1 to 3; unpadded ids so index order differs from numeric
    order (s10 sorts before s2)."""
    ids = [f"s{i}" for i in range(n)]
    owner = {}
    for s in ids:
        if rng.random() < prob_fraction:
            owner[s] = Owner.PROB
        else:
            owner[s] = Owner.P1 if rng.random() < 0.5 else Owner.P2
    edges = {(s, ids[rng.randrange(n)]) for s in ids for _ in range(rng.randint(1, 3))}
    succ: dict[str, list[str]] = {s: [] for s in ids}
    for u, v in sorted(edges):
        succ[u].append(v)
    dist = {
        s: {t: Fraction(1, len(succ[s])) for t in succ[s]}
        for s in ids
        if owner[s] is Owner.PROB
    }
    return build_graph(
        states=ids,
        owner=owner,
        edges=sorted(edges),
        dist=dist,
        priority={s: rng.randrange(priorities) for s in ids},
        initial=ids[0],
    )
