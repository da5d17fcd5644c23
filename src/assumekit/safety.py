"""Safety assumptions: forbidden environment edges.

The computed assumption is the set of player-2 edges crossing from the
cooperative winning region to its complement.  It is safe-sufficient
(player 1 can then keep the play inside the region), non-restrictive (no
cooperatively winning play needs any of these edges), and minimal among
such sets.  Candidate edge sets are evaluated on a transformed game where
each forbidden edge is redirected to a fresh winning sink.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import ValidationError
from .game import Edge, GameGraph, Objective, ObjectiveKind, Owner, check_p2_edges
from .graphs import fresh_id, reachable
from .solvers import cooperative_win, solve


@dataclass(frozen=True)
class SafetyAssumption:
    edges: frozenset[Edge]
    safe_region: frozenset[str]


@dataclass(frozen=True)
class TransformResult:
    """Game with forbidden edges redirected to a priority-0 sink, plus the
    matching relaxed objective (original parity extended with the sink, or
    the target widened by it for Reach/Safe)."""

    graph: GameGraph
    objective: Objective
    sink: str


def _redirect(g: GameGraph, forbidden: list[Edge]) -> tuple[GameGraph, str]:
    if not g.deterministic:
        raise ValidationError("forbidden edges: game has probabilistic states")
    used = set(g.states)
    sink = fresh_id("_top", used)
    edges = set(g.edges).difference(forbidden)
    edges.update((u, sink) for u, _ in forbidden)
    edges.add((sink, sink))
    graph = GameGraph(
        states=tuple(sorted(used)),
        owner={**g.owner, sink: Owner.P1},
        edges=frozenset(edges),
        dist={},
        priority={**g.priority, sink: 0},
        label={**g.label, sink: frozenset()},
        initial=g.initial,
    )
    return graph, sink


def compute_safety_assumption(g: GameGraph, objective: Objective) -> SafetyAssumption:
    """The boundary player-2 edges of the cooperative winning region: the
    unique minimal non-restrictive set whose avoidance keeps every state of
    the region winnable."""
    if not g.deterministic:
        raise ValidationError("compute_safety_assumption: game has probabilistic states")
    region = cooperative_win(g, objective)
    edges = frozenset(
        (u, v) for u, v in g.player2_edges() if u in region and v not in region
    )
    return SafetyAssumption(edges=edges, safe_region=region)


def assume_safe_transform(
    g: GameGraph, objective: Objective, forbidden: Iterable[Edge]
) -> TransformResult:
    """Redirect every forbidden edge to a fresh player-1 sink that satisfies
    the relaxed objective outright: traversing a forbidden edge becomes an
    immediate win for player 1, everything else is judged as before."""
    forb = check_p2_edges(g, forbidden, "candidate")
    graph, sink = _redirect(g, forb)
    if objective.parity_class:
        prio = dict(objective.as_parity(g).priority)
        prio[sink] = 0
        out = Objective.parity(prio)
    elif objective.kind is ObjectiveKind.REACH:
        out = Objective.reach(set(objective.target) | {sink})
    else:
        out = Objective.safe(set(objective.target) | {sink})
    return TransformResult(graph=graph, objective=out, sink=sink)


def is_safe_sufficient(
    g: GameGraph, objective: Objective, cand: Iterable[Edge], s: str
) -> bool:
    """Player 1 wins "a candidate edge is chosen, or the play never leaves
    the cooperative region" from ``s``.  The region is always the one of the
    original game, also when the candidate is not the computed assumption."""
    if s not in g.owner:
        raise ValidationError(f"unknown state {s!r}")
    region = cooperative_win(g, objective)
    tr = assume_safe_transform(g, objective, cand)
    res = solve(tr.graph, Objective.safe(set(region) | {tr.sink}))
    return s in res.win1


def is_restrictive(
    g: GameGraph, objective: Objective, cand: Iterable[Edge], s: str
) -> bool:
    """True when some cooperative play from ``s`` stays in the cooperative
    region forever yet uses a candidate edge, i.e. forbidding the candidate
    would cut genuinely useful environment behavior."""
    if s not in g.owner:
        raise ValidationError(f"unknown state {s!r}")
    cand_edges = check_p2_edges(g, cand, "candidate")
    region = cooperative_win(g, objective)
    if s not in region:
        return False
    inside = {u: tuple(t for t in g.succ(u) if t in region) for u in region}
    reach_s = reachable([s], inside)
    # States that can prolong a play inside the region forever; for
    # prefix-independent objectives this is the whole region.
    core = cooperative_win(g, Objective.safe(region))
    return any(u in reach_s and v in core for u, v in cand_edges)


def env_can_avoid(g: GameGraph, forbidden: Iterable[Edge], s: str) -> bool:
    """Player 2 can forever avoid traversing any forbidden edge from ``s``
    (player 1 steers, but the forbidden edges belong to player 2)."""
    if s not in g.owner:
        raise ValidationError(f"unknown state {s!r}")
    forb = check_p2_edges(g, forbidden, "candidate")
    graph, sink = _redirect(g, forb)
    return s in solve(graph, Objective.reach({sink})).win2


def avoid_region(g: GameGraph, forbidden: Iterable[Edge]) -> frozenset[str]:
    """All states from which player 2 can forever avoid the forbidden edges."""
    forb = check_p2_edges(g, forbidden, "candidate")
    graph, sink = _redirect(g, forb)
    return solve(graph, Objective.reach({sink})).win2
