"""Strongly-fair edge assumptions.

A fair edge set E_l obliges the environment: whenever the source of a fair
edge is visited infinitely often, that edge must be taken infinitely often.
Player 1 then wins AssumeFair(E_l, Phi) on plays that are unfair or satisfy
Phi.  Winning is computed by turning every fair-edge source into a
probabilistic state (fair choices uniform at random, unconstrained choices
kept on a copy) and solving the resulting game almost-surely.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Iterable, Mapping

from .errors import GuardError, ValidationError
from .game import (
    Edge,
    GameGraph,
    MemorylessStrategy,
    Objective,
    Owner,
    check_p2_edges,
    check_priorities,
    check_state,
)
from .graphs import fresh_id, reachable, tarjan_scc
from .solvers import cooperative_win, solve
from .stochastic import almost_sure_parity


@dataclass(frozen=True)
class FairAssumption:
    edges: frozenset[Edge]
    winning_from: frozenset[str]


def ass_red(
    g: GameGraph, fair: Iterable[Edge], priority: Mapping[str, int]
) -> tuple[GameGraph, dict[str, int]]:
    """Fairness-to-probability reduction.

    Every source s of fair edges becomes probabilistic.  If all of its edges
    are fair it simply randomizes over them; otherwise it randomizes over the
    fair edges plus a copy state, and the copy (player 2, same priority)
    keeps every edge of s.  Visiting s infinitely often then takes every
    fair edge infinitely often with probability 1, while the copy preserves
    the environment's free choice; fairness never forces an unfair edge, so
    the copy must keep the fair edges too, or the coin would wrongly force
    the environment out of a loop it is allowed to stay in.
    """
    if not g.deterministic:
        raise ValidationError("ass_red: game already has probabilistic states")
    fair_edges = check_p2_edges(g, fair, "fair")
    check_priorities(g, priority)
    prio = {s: priority[s] for s in g.states}

    fair_out: dict[str, list[str]] = {}
    for u, v in fair_edges:
        fair_out.setdefault(u, []).append(v)
    if not fair_out:
        return g, prio

    used = set(g.states)
    owner = dict(g.owner)
    label = dict(g.label)
    edges = [e for e in g.edges if e[0] not in fair_out]
    dist: dict[str, dict[str, Fraction]] = {}

    # Sources in sorted order, so copies get their ids in state order.
    for s, support in fair_out.items():
        owner[s] = Owner.PROB
        if len(support) < len(g.succ(s)):
            copy = fresh_id(f"{s}~", used)
            owner[copy] = Owner.P2
            prio[copy] = priority[s]
            label[copy] = g.label[s]
            edges.extend((copy, t) for t in g.succ(s))
            support = sorted(support + [copy])
        w = Fraction(1, len(support))
        dist[s] = {t: w for t in support}
        edges.extend((s, t) for t in support)

    graph = GameGraph(
        states=tuple(sorted(used)),
        owner=owner,
        edges=frozenset(edges),
        dist=dist,
        priority=prio,
        label=label,
        initial=g.initial,
    )
    return graph, prio


def _parity_map(g: GameGraph, objective: Objective) -> dict[str, int]:
    if not objective.parity_class:
        raise ValidationError(
            f"{objective.kind.value} objectives are not supported here; "
            "encode them on a transformed graph first"
        )
    return dict(objective.as_parity(g).priority)


def assume_fair_win(
    g: GameGraph, objective: Objective, fair: Iterable[Edge]
) -> tuple[frozenset[str], MemorylessStrategy]:
    """Player-1 sure-winning set of AssumeFair(fair, objective), with a
    memoryless strategy, via the probabilistic reduction."""
    reduced, red_prio = ass_red(g, fair, _parity_map(g, objective))
    win_red, strat_red = almost_sure_parity(reduced, red_prio)
    original = set(g.states)
    win = frozenset(win_red & original)
    choice = {s: t for s, t in strat_red.choice.items() if s in win}
    return win, MemorylessStrategy(Owner.P1, choice)


def oracle_assume_fair(
    g: GameGraph,
    objective: Objective,
    fair: Iterable[Edge],
    s: str,
    max_states: int = 8,
) -> bool:
    """Brute-force reference for AssumeFair winning from ``s``.

    A memoryless player-1 strategy wins iff no set Z of states reachable
    under it carries a fair-yet-losing loop: Z strongly connected with at
    least one edge, odd minimal priority, and closed under the fair edges of
    its members (a loop traversing all edges over Z respects the assumption
    exactly when every fair edge rooted in Z stays in Z).
    """
    if len(g.states) > max_states:
        raise GuardError(f"oracle_assume_fair: {len(g.states)} states exceeds {max_states}")
    check_state(g, s)
    prio = _parity_map(g, objective)
    fair_edges = check_p2_edges(g, fair, "fair")

    p1 = g.states_of(Owner.P1)
    for picks in product(*(g.succ(q) for q in p1)):
        alpha = dict(zip(p1, picks))
        succ = {
            q: (alpha[q],) if q in alpha else g.succ(q)
            for q in g.states
        }
        reach = reachable([s], succ)
        if _has_fair_losing_loop(reach, succ, prio, fair_edges):
            continue
        return True
    return False


def _has_fair_losing_loop(
    reach: set[str],
    succ: Mapping[str, tuple[str, ...]],
    prio: Mapping[str, int],
    fair_edges: list[Edge],
) -> bool:
    members = sorted(reach)
    for size in range(1, len(members) + 1):
        for combo in combinations(members, size):
            z = frozenset(combo)
            if min(prio[x] for x in z) % 2 == 0:
                continue
            if any(u in z and t not in z for u, t in fair_edges):
                continue
            if size == 1:
                u = combo[0]
                if u not in succ[u]:
                    continue
            elif len(tarjan_scc(sorted(z), succ)) != 1:
                continue
            return True
    return False


def is_live(g: GameGraph, objective: Objective, s: str) -> bool:
    """A state is live when player 1 can keep the play inside the
    cooperative winning region forever (some hope always remains)."""
    check_state(g, s)
    region = cooperative_win(g, objective)
    return s in solve(g, Objective.safe(region)).win1


def locally_minimal_fair(
    g: GameGraph,
    objective: Objective,
    s: str,
    candidates: Iterable[Edge] | None = None,
) -> FairAssumption | None:
    """Greedy minimization of a sufficient fair-edge set for state ``s``.

    Starts from all candidate edges (default: every player-2 edge).  If even
    those do not suffice no subset can, by monotonicity, and the result is
    None; callers distinguish non-live states via :func:`is_live`.  Otherwise
    the edges are scanned once in lexicographic order and each one whose
    removal keeps ``s`` winning is dropped.  Winning is monotone in the fair
    set, so an edge that could not be dropped stays undroppable as later
    edges go, and the result is locally minimal: every proper subset loses.
    """
    check_state(g, s)
    if candidates is None:
        current = list(g.player2_edges())
    else:
        current = check_p2_edges(g, candidates, "fair")

    win, _ = assume_fair_win(g, objective, current)
    if s not in win:
        return None
    for e in list(current):
        trial = [x for x in current if x != e]
        trial_win, _ = assume_fair_win(g, objective, trial)
        if s in trial_win:
            current, win = trial, trial_win
    return FairAssumption(edges=frozenset(current), winning_from=win)
