"""The string-keyed solver that the integer-indexed core replaced.

``_attract``, ``_zielonka``, ``_solve_reach`` and ``_solve_safe`` are the
round-based attractor and the recursive Zielonka exactly as the library
shipped them before it compiled games into integer arrays.  The wrappers at
the bottom mirror the public entry points, so differential tests can demand
that the library returns the same winning sets and the same strategies,
key order included.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

from assumekit import (
    GameGraph,
    MemorylessStrategy,
    Objective,
    ObjectiveKind,
    Owner,
    SolveResult,
)
from assumekit.stochastic import gadget_reduce


def _attract(
    nodes: set[str],
    succ_of: Callable[[str], Iterable[str]],
    owner: Mapping[str, Owner],
    player: Owner,
    targets: Iterable[str],
) -> tuple[set[str], dict[str, str]]:
    """Round-based attractor within ``nodes``.

    Newly attracted player states record the lexicographically least
    successor that was already attracted in an earlier round, which makes
    the induced strategy level-decreasing (hence target-reaching).
    """
    area = set(targets) & nodes
    strat: dict[str, str] = {}
    while True:
        added: list[tuple[str, str | None]] = []
        for v in sorted(nodes - area):
            succs = [t for t in succ_of(v) if t in nodes]
            if owner[v] is player:
                pick = next((t for t in succs if t in area), None)
                if pick is not None:
                    added.append((v, pick))
            elif succs and all(t in area for t in succs):
                added.append((v, None))
        if not added:
            return area, strat
        for v, pick in added:
            area.add(v)
            if pick is not None:
                strat[v] = pick



def _zielonka(
    nodes: set[str],
    succ_of: Callable[[str], Iterable[str]],
    owner: Mapping[str, Owner],
    prio: Mapping[str, int],
) -> tuple[set[str], set[str], dict[str, str], dict[str, str]]:
    """Returns (win P1, win P2, strategy P1, strategy P2) on ``nodes``."""
    if not nodes:
        return set(), set(), {}, {}
    m = min(prio[v] for v in nodes)
    fav = Owner.P1 if m % 2 == 0 else Owner.P2
    opp = Owner.P2 if fav is Owner.P1 else Owner.P1
    best = {v for v in nodes if prio[v] == m}

    area, area_strat = _attract(nodes, succ_of, owner, fav, best)
    sub_w1, sub_w2, sub_s1, sub_s2 = _zielonka(nodes - area, succ_of, owner, prio)
    sub_win = {Owner.P1: sub_w1, Owner.P2: sub_w2}
    sub_strat = {Owner.P1: sub_s1, Owner.P2: sub_s2}

    if not sub_win[opp]:
        # The favored player wins all of ``nodes``: recurse-winning states use
        # their subgame strategy, attracted states walk to ``best``, and on
        # ``best`` itself any move inside the node set does.
        strat_fav = dict(sub_strat[fav])
        strat_fav.update(area_strat)
        for v in sorted(best):
            if owner[v] is fav:
                strat_fav[v] = next(t for t in succ_of(v) if t in nodes)
        if fav is Owner.P1:
            return set(nodes), set(), strat_fav, {}
        return set(), set(nodes), {}, strat_fav

    trap, trap_strat = _attract(nodes, succ_of, owner, opp, sub_win[opp])
    rest_w1, rest_w2, rest_s1, rest_s2 = _zielonka(nodes - trap, succ_of, owner, prio)
    rest_win = {Owner.P1: rest_w1, Owner.P2: rest_w2}
    rest_strat = {Owner.P1: rest_s1, Owner.P2: rest_s2}

    strat_opp = dict(sub_strat[opp])
    strat_opp.update(trap_strat)
    strat_opp.update(rest_strat[opp])
    win_opp = rest_win[opp] | trap
    win_fav = rest_win[fav]
    if fav is Owner.P1:
        return win_fav, win_opp, rest_strat[fav], strat_opp
    return win_opp, win_fav, strat_opp, rest_strat[fav]


def _solve_reach(g: GameGraph, target: frozenset[str]) -> SolveResult:
    nodes = set(g.states)
    area, astrat = _attract(nodes, g.succ, g.owner, Owner.P1, target)
    strat1 = dict(astrat)
    for v in sorted(target):
        if g.owner[v] is Owner.P1:
            # Already at the target; any continuation keeps the visit.
            strat1[v] = g.succ(v)[0]
    strat2 = {}
    for v in sorted(nodes - area):
        if g.owner[v] is Owner.P2:
            strat2[v] = next(t for t in g.succ(v) if t not in area)
    return SolveResult(
        win1=frozenset(area),
        win2=frozenset(nodes - area),
        strat1=MemorylessStrategy(Owner.P1, strat1),
        strat2=MemorylessStrategy(Owner.P2, strat2),
    )


def _solve_safe(g: GameGraph, target: frozenset[str]) -> SolveResult:
    nodes = set(g.states)
    bad = nodes - target
    area, astrat = _attract(nodes, g.succ, g.owner, Owner.P2, bad)
    win1 = nodes - area
    strat1 = {}
    for v in sorted(win1):
        if g.owner[v] is Owner.P1:
            strat1[v] = next(t for t in g.succ(v) if t in win1)
    strat2 = dict(astrat)
    for v in sorted(bad):
        if g.owner[v] is Owner.P2:
            # Safety is already broken here; any move does.
            strat2[v] = g.succ(v)[0]
    return SolveResult(
        win1=frozenset(win1),
        win2=frozenset(area),
        strat1=MemorylessStrategy(Owner.P1, strat1),
        strat2=MemorylessStrategy(Owner.P2, strat2),
    )



def reference_attractor(g: GameGraph, player: Owner, target: Iterable[str]) -> frozenset[str]:
    area, _ = _attract(set(g.states), g.succ, g.owner, player, set(target))
    return frozenset(area)


def reference_solve(g: GameGraph, objective: Objective) -> SolveResult:
    if objective.kind is ObjectiveKind.REACH:
        return _solve_reach(g, objective.target)
    if objective.kind is ObjectiveKind.SAFE:
        return _solve_safe(g, objective.target)
    prio = objective.as_parity(g).priority
    w1, w2, s1, s2 = _zielonka(set(g.states), g.succ, g.owner, prio)
    return SolveResult(
        win1=frozenset(w1),
        win2=frozenset(w2),
        strat1=MemorylessStrategy(Owner.P1, {v: s1[v] for v in sorted(s1) if v in w1}),
        strat2=MemorylessStrategy(Owner.P2, {v: s2[v] for v in sorted(s2) if v in w2}),
    )


def reference_almost_sure_parity(
    g: GameGraph, priority: Mapping[str, int]
) -> tuple[frozenset[str], MemorylessStrategy]:
    """``stochastic.almost_sure_parity`` with the reference solver inside."""
    if g.deterministic:
        res = reference_solve(g, Objective.parity({s: priority[s] for s in g.states}))
        return res.win1, res.strat1
    out = gadget_reduce(g, priority)
    res = reference_solve(out.game, Objective.parity(dict(out.priority)))
    win = frozenset(res.win1 & set(g.states))
    choice = {
        s: t
        for s, t in res.strat1.choice.items()
        if s in win and g.owner[s] is Owner.P1
    }
    return win, MemorylessStrategy(Owner.P1, choice)
