"""Plain directed-graph routines used throughout the package.

All functions take explicit node and successor collections instead of game
objects so they can run on induced subgraphs, product constructions and
reduction outputs alike.  Everything is deterministic: nodes are processed
in the order given and successors in sorted order.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence


def fresh_id(base: str, used: set[str]) -> str:
    """Allocate an id not colliding with ``used``; records and returns it."""
    name = base
    while name in used:
        name += "'"
    used.add(name)
    return name


def reachable(start: Iterable[str], succ: Mapping[str, Sequence[str]]) -> set[str]:
    """Forward-reachable set from ``start`` following ``succ``."""
    seen: set[str] = set()
    stack = list(start)
    while stack:
        u = stack.pop()
        if u in seen:
            continue
        seen.add(u)
        for v in succ.get(u, ()):
            if v not in seen:
                stack.append(v)
    return seen


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


def tarjan_scc(nodes: Sequence[str], succ: Mapping[str, Sequence[str]]) -> list[list[str]]:
    """Strongly connected components of the subgraph induced by ``nodes``.

    Iterative so deep recursion on long chains cannot overflow.  Components
    are returned in reverse topological order (sinks first) with members
    sorted; only edges staying inside ``nodes`` are considered.
    """
    node_set = set(nodes)
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    components: list[list[str]] = []
    counter = 0

    for root in nodes:
        if root in index:
            continue
        # Each work item is (node, its sorted successors inside ``nodes``,
        # position of the next one to visit); the list is built on the
        # node's first visit and carried until it is popped.
        work: list[tuple[str, list[str], int]] = [(root, [], 0)]
        while work:
            u, successors, i = work[-1]
            if u not in index:
                index[u] = low[u] = counter
                counter += 1
                stack.append(u)
                on_stack.add(u)
                successors = [v for v in sorted(succ.get(u, ())) if v in node_set]
            advanced = False
            while i < len(successors):
                v = successors[i]
                i += 1
                if v not in index:
                    work[-1] = (u, successors, i)
                    work.append((v, [], 0))
                    advanced = True
                    break
                if v in on_stack:
                    low[u] = min(low[u], index[v])
            if advanced:
                continue
            work.pop()
            if low[u] == index[u]:
                comp: list[str] = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == u:
                        break
                components.append(sorted(comp))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[u])
    return components


def has_internal_edge(comp: Sequence[str], succ: Mapping[str, Sequence[str]]) -> bool:
    """True when the component carries at least one edge of its own, i.e. it
    contains a cycle (multi-node components always do; singletons need a
    self-loop)."""
    comp_set = set(comp)
    if len(comp_set) > 1:
        return True
    u = next(iter(comp_set))
    return u in succ.get(u, ())
