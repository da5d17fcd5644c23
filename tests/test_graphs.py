"""Plain graph routines: Tarjan's SCC decomposition."""

from __future__ import annotations

from random import Random

from assumekit.graphs import reachable, tarjan_scc


def test_tarjan_frozen_order():
    succ = {
        "a": ["b"],
        "b": ["c", "a"],
        "c": ["d"],
        "d": ["c", "e"],
        "e": [],
        "x": ["a", "e"],
    }
    # Sinks first, members sorted; roots are taken in the order given.
    assert tarjan_scc(["x", "a", "b", "c", "d", "e"], succ) == [
        ["e"], ["c", "d"], ["a", "b"], ["x"],
    ]
    # Edges leaving ``nodes`` are ignored.
    assert tarjan_scc(["b", "a", "d"], succ) == [["a", "b"], ["d"]]


def test_tarjan_against_mutual_reachability():
    for seed in range(200):
        rng = Random(seed)
        n = rng.randint(1, 30)
        ids = [f"n{i}" for i in range(n)]
        nodes = [u for u in ids if rng.random() < 0.8] or ids[:1]
        rng.shuffle(nodes)
        succ = {u: [ids[rng.randrange(n)] for _ in range(rng.randint(0, 4))] for u in ids}
        inside = set(nodes)
        sub = {u: [v for v in succ[u] if v in inside] for u in nodes}
        reach = {u: reachable([u], sub) for u in nodes}
        comps = tarjan_scc(nodes, succ)
        assert sorted(u for c in comps for u in c) == sorted(nodes)
        position = {}
        for k, comp in enumerate(comps):
            assert comp == sorted(comp)
            for u in comp:
                position[u] = k
                assert set(comp) == {v for v in reach[u] if u in reach[v]}
        # Reverse topological order: an edge never leads to a later component.
        for u in nodes:
            for v in sub[u]:
                assert position[v] <= position[u]
