"""Output checks, run outside the timed region.

Deterministic parity solutions are checked as certificates against the
benchmark's own game spec, so no recorded answer is needed: the winning
sets partition the states, each is closed under its owner's strategy, and
no cycle that stays inside a winning set under the fixed strategy has a
minimal priority of the wrong parity.  Outputs with no cheap certificate
(almost-sure solutions, CLI payloads) are compared by digest with the ones
recorded at the seed commit in ``goldens.json``.
"""

from __future__ import annotations

import hashlib
import json


class CheckError(Exception):
    """An operation returned a wrong answer."""


def digest(doc) -> str:
    """Short sha256 of a JSON document in canonical form."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def strategy_doc(choice) -> list[list[str]]:
    return [[s, t] for s, t in sorted(choice.items())]


def solve_doc(res) -> dict:
    return {
        "win1": sorted(res.win1),
        "win2": sorted(res.win2),
        "strategy1": strategy_doc(res.strat1.choice),
        "strategy2": strategy_doc(res.strat2.choice),
    }


def sccs(nodes: set[str], succ) -> list[list[str]]:
    """Strongly connected components of the subgraph induced by ``nodes``
    (iterative Tarjan, so the depth of the input does not matter)."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    out: list[list[str]] = []
    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter([t for t in succ(root) if t in nodes]))]
        while work:
            u, it = work[-1]
            for v in it:
                if v not in index:
                    index[v] = low[v] = len(index)
                    stack.append(v)
                    on_stack.add(v)
                    work.append((v, iter([t for t in succ(v) if t in nodes])))
                    break
                if v in on_stack:
                    low[u] = min(low[u], index[v])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[u])
                if low[u] == index[u]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp.append(w)
                        if w == u:
                            break
                    out.append(comp)
    return out


def _cycles_have_parity(nodes: set[str], succ, priority, parity: int) -> bool:
    """Every cycle inside ``nodes`` has a minimal priority of ``parity``.

    A cycle lies in one SCC; if the SCC's least priority m has the right
    parity, cycles through an m-state are fine and the rest live in the
    SCC minus its m-states, which is decomposed again.
    """
    work = [nodes]
    while work:
        part = work.pop()
        for comp in sccs(part, succ):
            if len(comp) == 1 and comp[0] not in succ(comp[0]):
                continue
            m = min(priority[v] for v in comp)
            if m % 2 != parity:
                return False
            rest = {v for v in comp if priority[v] != m}
            if rest:
                work.append(rest)
    return True


def check_parity_solution(spec: dict, res) -> None:
    """Certificate check of a sure-winning parity solution (min-parity,
    player 1 wins on even)."""
    states, owner = spec["states"], spec["owner"]
    full_succ, priority = spec["succ"], spec["priority"]
    win = {"P1": set(res.win1), "P2": set(res.win2)}
    if win["P1"] & win["P2"] or win["P1"] | win["P2"] != set(states):
        raise CheckError("winning sets do not partition the states")
    for player, strat, parity in (("P1", res.strat1, 0), ("P2", res.strat2, 1)):
        region = win[player]
        choice = dict(strat.choice)
        owned = {s for s in region if owner[s] == player}
        if set(choice) != owned:
            raise CheckError(f"{player} strategy is not defined exactly on its winning states")
        for s in region:
            moves = [choice[s]] if s in choice else full_succ[s]
            if s in choice and choice[s] not in full_succ[s]:
                raise CheckError(f"{player} strategy picks a missing edge at {s}")
            if any(t not in region for t in moves):
                raise CheckError(f"{player} winning set is not closed at {s}")

        def succ(s, choice=choice):
            return [choice[s]] if s in choice else full_succ[s]

        if not _cycles_have_parity(region, succ, priority, parity):
            raise CheckError(f"{player} strategy allows a losing cycle")
