"""Plain directed-graph routines used throughout the package.

All functions take explicit node and successor collections instead of game
objects so they can run on induced subgraphs, product constructions and
reduction outputs alike.  Everything is deterministic: nodes are processed
in the order given and successors in sorted order.

Every "is there a good cycle?" question goes through one SCC-refinement
kernel, :func:`good_components`, the classic fair-cycle and Streett
emptiness check (Emerson & Lei, SCP 1987; Friedmann & Lange, ATVA 2009).
It decomposes node lists from a work stack with :func:`tarjan_scc` and
skips trivial components (one node, no self-loop).  The caller's ``drop``
rule names the members of a component that cannot lie on a good cycle in
it: none accepts the component, otherwise the rest goes back on the stack.
The rules in use: parity deletes the least priority while it is odd, so the
rounds follow the distinct priorities, not their values; Safe deletes
nothing; emptiness deletes the states whose fair edges leave the component.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence


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


def good_components(
    nodes: Sequence[str],
    succ: Mapping[str, Sequence[str]],
    drop: Callable[[list[str]], Iterable[str]],
) -> set[str]:
    """Union of the components accepted by ``drop``, which gets each
    non-trivial SCC (members sorted) and returns the members to delete from
    it; an empty result accepts it.  Iterative, see the module docstring."""
    good: set[str] = set()
    work = [list(nodes)]
    while work:
        for comp in tarjan_scc(work.pop(), succ):
            if len(comp) == 1 and comp[0] not in succ.get(comp[0], ()):
                continue
            bad = set(drop(comp))
            if not bad:
                good.update(comp)
            else:
                work.append([u for u in comp if u not in bad])
    return good
