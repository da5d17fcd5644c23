"""Sure-winning solvers for deterministic games.

Each call compiles the game into integer arrays once: state i is the i-th
id of the sorted ``g.states``, so index order is lexicographic order, and
ids come back only when the result is built.  Reachability and safety are
solved directly through the attractor; Buchi, co-Buchi and parity go through
Zielonka's algorithm, run on an explicit work stack so that no recursion
depth grows with the input.  All winning conditions follow min-parity
convention.

Attractor levels and tie-breaks: targets have level 0.  A state of the
attracting player joins at 1 + the least level among its successors inside
the subgame, an opponent state at 1 + the greatest, and only once all of
them have joined.  A joining player state records its lexicographically
least successor that joined before its own level, so the induced strategy
lowers the level at every step and reaches the target; strategy maps list
the attracted states by level, then lexicographically.  The attractor is
built layer by layer with a counter, per opponent state, of successors not
yet attracted, in time linear in the area and the edges into it.  Every
other move (at a reached target, inside a safe region, at the least
priority in Zielonka) is the least successor that stays where its owner
wins, so repeated runs give identical strategies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Iterable

from .errors import ValidationError
from .game import (
    GameGraph,
    MemorylessStrategy,
    Objective,
    ObjectiveKind,
    Owner,
)
from .graphs import backward_reachable, good_components

# Integer owners: a parity favours player ``priority % 2``.
_P1, _P2 = 0, 1
_SIDE = {Owner.P1: _P1, Owner.P2: _P2, Owner.PROB: 2}

# (win P1, win P2, strategy P1, strategy P2) over state indices.
_Solution = tuple[set[int], set[int], dict[int, int], dict[int, int]]


@dataclass(frozen=True)
class SolveResult:
    """Determined partition: win1/win2 cover the state space disjointly and
    each strategy is defined exactly on the owner's states inside its set."""

    win1: frozenset[str]
    win2: frozenset[str]
    strat1: MemorylessStrategy
    strat2: MemorylessStrategy


@dataclass(frozen=True)
class _Arena:
    """A game as integer arrays; index i is the i-th id of ``names``."""

    names: tuple[str, ...]
    index: dict[str, int]
    succ: list[tuple[int, ...]]  # sorted
    pred: list[list[int]]
    side: list[int]  # _P1, _P2, or 2 for probabilistic states


def _compile(g: GameGraph) -> _Arena:
    names = g.states
    index = {s: i for i, s in enumerate(names)}
    at = index.__getitem__
    succ = [tuple(map(at, g.succ(s))) for s in names]
    pred: list[list[int]] = [[] for _ in names]
    for u, ts in enumerate(succ):
        for t in ts:
            pred[t].append(u)
    return _Arena(names, index, succ, pred, [_SIDE[g.owner[s]] for s in names])


def _attract(
    a: _Arena, nodes: set[int], player: int, targets: AbstractSet[int]
) -> tuple[set[int], set[int], dict[int, int]]:
    """Attractor of ``targets`` for ``player`` within ``nodes``, by the levels
    of the module docstring.  Returns the area, the rest of ``nodes`` and the
    player's moves on the attracted states."""
    succ, pred, side = a.succ, a.pred, a.side
    area = nodes & targets
    rest = nodes - area
    moves: dict[int, int] = {}
    left: dict[int, int] = {}  # opponent state -> successors not yet attracted
    layer = sorted(area)
    while layer:
        picks: dict[int, int] = {}
        forced: list[int] = []
        for v in layer:
            for u in pred[v]:
                if u not in rest:
                    continue
                if side[u] == player:
                    # The layer runs in index order, so the first pick is the least.
                    picks.setdefault(u, v)
                    continue
                n = left.get(u)
                if n is None:
                    n = len(nodes.intersection(succ[u]))
                left[u] = n - 1
                if n == 1:
                    forced.append(u)
        moves.update(sorted(picks.items()))
        layer = sorted([*picks, *forced])
        area.update(layer)
        rest.difference_update(layer)
    return area, rest, moves


def attractor(g: GameGraph, player: Owner, target: Iterable[str]) -> frozenset[str]:
    if player not in (Owner.P1, Owner.P2):
        raise ValidationError("attractor: player must be P1 or P2")
    target = set(target)
    unknown = target - set(g.states)
    if unknown:
        raise ValidationError(f"attractor target mentions unknown state {sorted(unknown)[0]!r}")
    a = _compile(g)
    area, _, _ = _attract(a, set(range(len(a.names))), _SIDE[player], {a.index[s] for s in target})
    return frozenset(map(a.names.__getitem__, area))


_SOLVE, _SUB_DONE, _REST_DONE = range(3)


def _zielonka(a: _Arena, prio: list[int]) -> _Solution:
    """Zielonka's algorithm on an explicit work stack.

    Each ``_SOLVE`` frame is one call of the recursion on a subgame with
    least priority m, favouring player m % 2: attract to the m-states and
    solve the rest (``_SUB_DONE`` takes over); if the opponent wins nothing
    there the favoured player wins the whole subgame, else attract to the
    opponent's part and solve what is left (``_REST_DONE``).  Waiting frames
    hold only the attracted part; the subgame is the sub-solve's partition
    plus that part, so the stack stays linear in the number of states.

    Moves go into one map per player.  A frame writes only inside its own
    subgame, and the last moves written on a winning region are the
    recursion's strategy there, so the maps restricted to the final winning
    regions are the recursion's strategies.
    """
    succ, side = a.succ, a.side
    levels = sorted(set(prio))
    rank = {p: i for i, p in enumerate(levels)}
    classes: list[set[int]] = [set() for _ in levels]
    for v, p in enumerate(prio):
        classes[rank[p]].add(v)
    strat: tuple[dict[int, int], dict[int, int]] = ({}, {})
    won: tuple[set[int], set[int]] = (set(), set())  # the last finished frame's partition
    # A frame is (kind, priority rank, states): the subgame for _SOLVE, the
    # fav-attractor for _SUB_DONE, the opponent's trap for _REST_DONE.
    stack = [(_SOLVE, 0, set(range(len(prio))))]
    while stack:
        kind, lo, part = stack.pop()
        if kind == _SOLVE:
            if not part:
                won = (set(), set())
                continue
            # A subgame's least priority is no lower than its parent's.
            while part.isdisjoint(classes[lo]):
                lo += 1
            fav = levels[lo] & 1
            area, sub, moves = _attract(a, part, fav, classes[lo])
            strat[fav].update(moves)
            stack.append((_SUB_DONE, lo, area))
            stack.append((_SOLVE, lo + 1, sub))
            continue
        fav = levels[lo] & 1
        opp = fav ^ 1
        if kind == _REST_DONE:
            won[opp].update(part)
        elif won[opp]:
            nodes = won[0] | won[1] | part
            trap, rest, moves = _attract(a, nodes, opp, won[opp])
            strat[opp].update(moves)
            stack.append((_REST_DONE, lo, trap))
            stack.append((_SOLVE, lo, rest))
        else:
            # The favoured player wins the whole subgame; on the m-states any
            # move inside it does.  The sub-solve's sets are fresh, so they
            # grow in place.
            nodes = won[fav]
            nodes.update(part)
            moves = strat[fav]
            for v in part & classes[lo]:
                if side[v] == fav:
                    moves[v] = next(t for t in succ[v] if t in nodes)
    w1, w2 = won
    s1, s2 = strat
    return (
        w1,
        w2,
        {v: s1[v] for v in sorted(s1.keys() & w1)},
        {v: s2[v] for v in sorted(s2.keys() & w2)},
    )


def _solve_reach(a: _Arena, target: set[int]) -> _Solution:
    succ, side = a.succ, a.side
    area, rest, strat1 = _attract(a, set(range(len(a.names))), _P1, target)
    for v in sorted(target):
        if side[v] == _P1:
            # Already at the target; any continuation keeps the visit.
            strat1[v] = succ[v][0]
    strat2 = {
        v: next(t for t in succ[v] if t not in area)
        for v in sorted(rest)
        if side[v] == _P2
    }
    return area, rest, strat1, strat2


def _solve_safe(a: _Arena, target: set[int]) -> _Solution:
    succ, side = a.succ, a.side
    nodes = set(range(len(a.names)))
    bad = nodes - target
    area, win1, strat2 = _attract(a, nodes, _P2, bad)
    strat1 = {
        v: next(t for t in succ[v] if t in win1)
        for v in sorted(win1)
        if side[v] == _P1
    }
    for v in sorted(bad):
        if side[v] == _P2:
            # Safety is already broken here; any move does.
            strat2[v] = succ[v][0]
    return win1, area, strat1, strat2


def solve(g: GameGraph, objective: Objective) -> SolveResult:
    """Sure-winning partition with memoryless strategies for both players."""
    if not g.deterministic:
        raise ValidationError("solve: game has probabilistic states")
    objective.validate_against(g)
    a = _compile(g)
    if objective.kind is ObjectiveKind.REACH:
        w1, w2, s1, s2 = _solve_reach(a, {a.index[s] for s in objective.target})
    elif objective.kind is ObjectiveKind.SAFE:
        w1, w2, s1, s2 = _solve_safe(a, {a.index[s] for s in objective.target})
    else:
        prio = objective.as_parity(g).priority
        w1, w2, s1, s2 = _zielonka(a, [prio[s] for s in a.names])
    name = a.names.__getitem__
    return SolveResult(
        win1=frozenset(map(name, w1)),
        win2=frozenset(map(name, w2)),
        strat1=MemorylessStrategy(Owner.P1, {name(v): name(t) for v, t in s1.items()}),
        strat2=MemorylessStrategy(Owner.P2, {name(v): name(t) for v, t in s2.items()}),
    )


def cooperative_win(g: GameGraph, objective: Objective) -> frozenset[str]:
    """States from which the two players together can satisfy the objective.

    One-player analysis: ownership is irrelevant, only the edge relation
    matters.  A state qualifies iff it reaches a good cycle: for Safe, a
    cycle inside the target, reached inside it; for parity-class objectives,
    a cycle whose minimal priority is even, found by deleting a component's
    least priority while it is odd (cost grows with the number of distinct
    priorities, not their values).
    """
    if not g.deterministic:
        raise ValidationError("cooperative_win: game has probabilistic states")
    objective.validate_against(g)
    succ = g.succ_map()
    nodes = list(g.states)
    if objective.kind is ObjectiveKind.REACH:
        return frozenset(backward_reachable(objective.target, nodes, succ))
    if objective.kind is ObjectiveKind.SAFE:
        inside = sorted(objective.target)
        loops = good_components(inside, succ, lambda comp: ())
        return frozenset(backward_reachable(loops, inside, succ))
    prio = objective.as_parity(g).priority

    def odd_least(comp: list[str]) -> list[str]:
        least = min(prio[s] for s in comp)
        return [s for s in comp if prio[s] == least] if least % 2 else []

    return frozenset(backward_reachable(good_components(nodes, succ, odd_least), nodes, succ))
