"""Plain directed-graph routines used throughout the package.

All functions take explicit node and adjacency collections instead of game
objects so they can run on induced subgraphs, product constructions and
reduction outputs alike.  Each routine is generic over the node type: the
solvers pass the integer lists of a graph's arena, the brute-force oracles
and the tests pass maps keyed by state id, with an entry for every node
given.  Everything is deterministic: nodes are processed in the order
given and successors in the order listed, which every caller keeps sorted.

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
from typing import TypeVar, Union

N = TypeVar("N", str, int)
# Successor (or predecessor) lists: a map keyed by state id, or a list
# indexed by arena position.
Adjacency = Union[Mapping[N, Sequence[N]], Sequence[Sequence[N]]]


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


def backward_reachable(
    targets: Iterable[N],
    nodes: Iterable[N],
    pred: Adjacency,
) -> set[N]:
    """Nodes within ``nodes`` that can reach ``targets`` inside ``nodes``,
    following the predecessor lists ``pred``."""
    node_set = set(nodes)
    seen = {t for t in targets if t in node_set}
    stack = list(seen)
    while stack:
        v = stack.pop()
        for u in pred[v]:
            if u in node_set and u not in seen:
                seen.add(u)
                stack.append(u)
    return seen


def tarjan_scc(nodes: Sequence[N], succ: Adjacency) -> list[list[N]]:
    """Strongly connected components of the subgraph induced by ``nodes``.

    Iterative so deep recursion on long chains cannot overflow.  Components
    are returned in reverse topological order (sinks first) with members
    sorted; only edges staying inside ``nodes`` are considered.  Successors
    are visited in the order ``succ`` lists them.
    """
    node_set = set(nodes)
    index: dict[N, int] = {}
    low: dict[N, int] = {}
    on_stack: set[N] = set()
    stack: list[N] = []
    components: list[list[N]] = []
    counter = 0

    for root in nodes:
        if root in index:
            continue
        # Each work item is (node, its successors inside ``nodes``, position
        # of the next one to visit); the list is built on the node's first
        # visit and carried until it is popped.
        work: list[tuple[N, list[N], int]] = [(root, [], 0)]
        while work:
            u, successors, i = work[-1]
            if u not in index:
                index[u] = low[u] = counter
                counter += 1
                stack.append(u)
                on_stack.add(u)
                successors = [v for v in succ[u] if v in node_set]
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
                comp: list[N] = []
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
    nodes: Sequence[N],
    succ: Adjacency,
    drop: Callable[[list[N]], Iterable[N]],
) -> set[N]:
    """Union of the components accepted by ``drop``, which gets each
    non-trivial SCC (members sorted) and returns the members to delete from
    it; an empty result accepts it.  Iterative, see the module docstring."""
    good: set[N] = set()
    work = [list(nodes)]
    while work:
        for comp in tarjan_scc(work.pop(), succ):
            if len(comp) == 1 and comp[0] not in succ[comp[0]]:
                continue
            bad = set(drop(comp))
            if not bad:
                good.update(comp)
            else:
                work.append([u for u in comp if u not in bad])
    return good
