"""The cycle searches that the SCC-refinement kernel replaced.

``reference_cooperative_win``, the core loop of ``reference_is_restrictive``
and ``reference_is_empty`` are the code the library shipped before
``graphs.good_components`` took over: one ``tarjan_scc`` pass per even
priority, a Safe core re-scanned until nothing changes, and a recursive
refinement for emptiness.  Every result is a set with no tie-break, so the
differential tests demand plain set equality.  ``predecessors`` and
``backward_reachable`` are the string-keyed versions those searches used,
before the library's version took predecessor lists.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from assumekit import (
    AssumptionAutomaton,
    Edge,
    GameGraph,
    Objective,
    ObjectiveKind,
    ValidationError,
)
from assumekit.graphs import reachable, tarjan_scc


def predecessors(nodes: Iterable[str], succ: Mapping[str, Sequence[str]]) -> dict[str, list[str]]:
    """Reverse adjacency restricted to ``nodes``; lists come out sorted."""
    node_set = set(nodes)
    pred: dict[str, list[str]] = {u: [] for u in node_set}
    for u in sorted(node_set):
        for v in succ.get(u, ()):
            if v in node_set:
                pred[v].append(u)
    return pred


def backward_reachable(
    targets: Iterable[str],
    nodes: Iterable[str],
    succ: Mapping[str, Sequence[str]],
) -> set[str]:
    """States within ``nodes`` that can reach ``targets`` inside ``nodes``."""
    node_set = set(nodes)
    pred = predecessors(node_set, succ)
    seen = {t for t in targets if t in node_set}
    stack = list(seen)
    while stack:
        v = stack.pop()
        for u in pred.get(v, ()):
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return seen


def has_internal_edge(comp: Sequence[str], succ: Mapping[str, Sequence[str]]) -> bool:
    """True when the component carries at least one edge of its own, i.e. it
    contains a cycle (multi-node components always do; singletons need a
    self-loop)."""
    comp_set = set(comp)
    if len(comp_set) > 1:
        return True
    u = next(iter(comp_set))
    return u in succ.get(u, ())


def reference_cooperative_win(g: GameGraph, objective: Objective) -> frozenset[str]:
    """States from which the two players together can satisfy the objective.

    One-player analysis: ownership is irrelevant, only the edge relation
    matters.  For parity-class objectives a state qualifies iff it reaches a
    cycle whose minimal priority is even; per even priority k this is an SCC
    question on the subgraph of priorities >= k.
    """
    if not g.deterministic:
        raise ValidationError("cooperative_win: game has probabilistic states")
    objective.validate_against(g)
    succ = {s: g.succ(s) for s in g.states}
    nodes = list(g.states)
    if objective.kind is ObjectiveKind.REACH:
        return frozenset(backward_reachable(objective.target, nodes, succ))
    if objective.kind is ObjectiveKind.SAFE:
        core = set(objective.target)
        while True:
            keep = {s for s in core if any(t in core for t in succ[s])}
            if keep == core:
                return frozenset(core)
            core = keep
    prio = objective.as_parity(g).priority
    good: set[str] = set()
    for k in range(0, max(prio.values()) + 1, 2):
        high = [s for s in nodes if prio[s] >= k]
        high_set = set(high)
        sub = {s: [t for t in succ[s] if t in high_set] for s in high}
        for comp in tarjan_scc(high, sub):
            if has_internal_edge(comp, sub) and any(prio[s] == k for s in comp):
                good.update(comp)
    return frozenset(backward_reachable(good, nodes, succ))


def reference_is_restrictive(
    g: GameGraph, objective: Objective, cand: Iterable[Edge], s: str
) -> bool:
    """True when some cooperative play from ``s`` stays in the cooperative
    region forever yet uses a candidate edge.  Takes valid candidates only:
    the library validates them, this reference keeps the decision."""
    cand_edges = sorted(set(cand))
    region = reference_cooperative_win(g, objective)
    if s not in region:
        return False
    inside = {u: tuple(t for t in g.succ(u) if t in region) for u in region}
    reach_s = reachable([s], inside)
    # States that can prolong a play inside the region forever; for
    # prefix-independent objectives this is the whole region.
    core = set(region)
    while True:
        keep = {u for u in core if any(t in core for t in inside[u])}
        if keep == core:
            break
        core = keep
    return any(u in reach_s and v in core for u, v in cand_edges)


def reference_is_empty(a: AssumptionAutomaton) -> bool:
    """No lasso word is granted.

    A granted word needs a reachable loop, in the graph pruned of forbidden
    edges, that contains every fair edge rooted at one of its states.  Such
    a loop lives inside a single strongly connected chunk, so the check
    discards, per component, the states whose fair edges escape it and
    recurses on the rest.
    """
    g = a.base.graph
    succ = {
        s: tuple(t for t in g.succ(s) if (s, t) not in a.forbidden)
        for s in g.states
    }
    reach = reachable([a.base.initial], succ)
    fair_out: dict[str, list[str]] = {}
    for u, t in sorted(a.fair):
        fair_out.setdefault(u, []).append(t)

    def good(nodes: list[str]) -> bool:
        for comp in tarjan_scc(nodes, succ):
            comp_set = set(comp)
            if not has_internal_edge(comp, succ):
                continue
            bad = {
                u for u in comp
                if any(t not in comp_set for t in fair_out.get(u, ()))
            }
            if not bad:
                return True
            if good([u for u in comp if u not in bad]):
                return True
        return False

    return not good(sorted(reach))
