"""Qualitative solving of probabilistic parity games.

Almost-sure winning reduces to sure winning in a deterministic game where
every probabilistic state becomes a claim/concede/challenge gadget:

  - the entry keeps the original id, becomes a P1 state and keeps its
    priority; P1 moves to an accept vertex to claim "the least priority seen
    infinitely often is the even value 2k";
  - each accept vertex (priority d, neutral under min-parity) is P2-owned:
    P2 either concedes, paying priority 2k but choosing the successor, or
    challenges, paying only 2k+1 but handing successor choice to P1.

Only supports matter qualitatively, so weights never enter the reduction.
The module also ships the brute-force BSCC oracle that validates it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Mapping

from .errors import GuardError
from .game import GameGraph, MemorylessStrategy, Objective, Owner, check_priorities
from .graphs import fresh_id, reachable, tarjan_scc
from .solvers import solve


@dataclass(frozen=True)
class GadgetOutput:
    """Deterministic reduction of a probabilistic game.

    ``back`` maps every state that participates in a gadget to its
    originating probabilistic state and role; non-probabilistic states are
    copied verbatim and do not appear in it.
    """

    game: GameGraph
    priority: Mapping[str, int]
    back: Mapping[str, tuple[str, str]]


def gadget_reduce(g: GameGraph, priority: Mapping[str, int]) -> GadgetOutput:
    """Deterministic game whose P1 sure-winning set, intersected with the
    original states, is the almost-sure winning set of ``g``."""
    check_priorities(g, priority)
    prio = {s: priority[s] for s in g.states}
    prob_states = g.states_of(Owner.PROB)
    if not prob_states:
        return GadgetOutput(game=g, priority=prio, back={})

    d = max(prio.values()) + 1
    used = set(g.states)
    owner = dict(g.owner)
    label = dict(g.label)
    edges = [e for e in g.edges if e[0] not in g.dist]
    back: dict[str, tuple[str, str]] = {}

    for v in prob_states:
        support = g.succ(v)
        owner[v] = Owner.P1
        back[v] = (v, "entry")
        for claim in range(0, d, 2):
            accept = fresh_id(f"{v}@a{claim}", used)
            concede = fresh_id(f"{v}@c{claim}", used)
            challenge = fresh_id(f"{v}@d{claim + 1}", used)
            owner[accept] = Owner.P2
            owner[concede] = Owner.P2
            owner[challenge] = Owner.P1
            prio[accept] = d
            prio[concede] = claim
            prio[challenge] = claim + 1
            label[accept] = label[concede] = label[challenge] = frozenset()
            back[accept] = (v, f"accept-{claim}")
            back[concede] = (v, f"concede-{claim}")
            back[challenge] = (v, f"challenge-{claim + 1}")
            edges.append((v, accept))
            edges.append((accept, concede))
            edges.append((accept, challenge))
            edges.extend((concede, u) for u in support)
            edges.extend((challenge, u) for u in support)

    game = GameGraph(
        states=tuple(sorted(used)),
        owner=owner,
        edges=frozenset(edges),
        dist={},
        priority=prio,
        label=label,
        initial=g.initial,
    )
    return GadgetOutput(game=game, priority=prio, back=back)


def almost_sure_parity(
    g: GameGraph, priority: Mapping[str, int]
) -> tuple[frozenset[str], MemorylessStrategy]:
    """Almost-sure P1 winning set of Parity(priority), with a memoryless
    witness strategy on P1 states of the original game.  A deterministic
    game passes through the reduction unchanged: there almost-sure and sure
    winning coincide."""
    out = gadget_reduce(g, priority)
    res = solve(out.game, Objective.parity(dict(out.priority)))
    original = set(g.states)
    win = frozenset(res.win1 & original)
    choice = {
        s: t
        for s, t in res.strat1.choice.items()
        if s in win and g.owner[s] is Owner.P1
    }
    return win, MemorylessStrategy(Owner.P1, choice)


def _strategy_space(g: GameGraph, owner: Owner) -> list[dict[str, str]]:
    owned = g.states_of(owner)
    choices = [g.succ(s) for s in owned]
    return [dict(zip(owned, picks)) for picks in product(*choices)]


def oracle_almost_sure(
    g: GameGraph, priority: Mapping[str, int], max_states: int = 8
) -> frozenset[str]:
    """Brute-force reference: s is almost-sure winning iff some memoryless P1
    strategy guarantees that under every memoryless P2 strategy, every bottom
    SCC of the induced Markov chain reachable from s has an even minimal
    priority."""
    if len(g.states) > max_states:
        raise GuardError(f"oracle_almost_sure: {len(g.states)} states exceeds {max_states}")
    check_priorities(g, priority)

    result: set[str] = set()
    for alpha in _strategy_space(g, Owner.P1):
        good = set(g.states)
        for beta in _strategy_space(g, Owner.P2):
            fixed = {**alpha, **beta}
            succ = {
                s: tuple(t for t in g.succ(s) if s not in fixed or fixed[s] == t)
                for s in g.states
            }
            comps = tarjan_scc(list(g.states), succ)
            bad_states: set[str] = set()
            for comp in comps:
                comp_set = set(comp)
                bottom = all(t in comp_set for s in comp for t in succ[s])
                if bottom and min(priority[s] for s in comp) % 2 == 1:
                    bad_states.update(comp_set)
            good &= {s for s in g.states if not (reachable([s], succ) & bad_states)}
            if not good:
                break
        result |= good
    return frozenset(result)
