"""Seeded inputs for the benchmark, built without the library.

Formulas come from the same canonical clause set the acceptance tests
enumerate, and satisfiability is decided here by brute force, so the
expected verdicts do not depend on the code under test.  Random parity
games are drawn in O(states) time: every state gets one to three distinct
successors, unlike the library's ``random_game`` whose density pass is
quadratic in the number of states.  Games are plain dicts ("specs") with
string owners, so the checks in ``checks.py`` read them without trusting
the library's graph object.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations, product
from math import comb
from random import Random


def canonical_clauses(n: int) -> list[tuple[int, ...]]:
    """Clauses of one to three literals over n variables without a
    complementary pair, each sorted."""
    lits = [lit for v in range(1, n + 1) for lit in (v, -v)]
    out = []
    for size in (1, 2, 3):
        for combo in combinations(lits, size):
            if not any(-lit in combo for lit in combo):
                out.append(tuple(sorted(combo)))
    return out


def first_model(n: int, clauses) -> dict[int, bool] | None:
    """Lexicographically first satisfying assignment (False before True)."""
    for bits in product((False, True), repeat=n):
        sigma = {i + 1: bits[i] for i in range(n)}
        if all(any(sigma[abs(lit)] == (lit > 0) for lit in c) for c in clauses):
            return sigma
    return None


def unsat_formulas(n: int, c: int) -> list[tuple[tuple[int, ...], ...]]:
    """Every unsatisfiable canonical formula with n variables and c clauses."""
    return [
        cl for cl in combinations(canonical_clauses(n), c) if first_model(n, cl) is None
    ]


def sat_formula(
    rng: Random, n: int, sizes: tuple[int, ...]
) -> tuple[tuple[tuple[int, ...], ...], dict]:
    """Random satisfiable canonical formula with its first model, uniform
    over the satisfiable formulas whose clause count is in ``sizes``."""
    pool = canonical_clauses(n)
    weights = [comb(len(pool), c) for c in sizes]
    while True:
        c = rng.choices(sizes, weights)[0]
        clauses = tuple(sorted(rng.sample(pool, c)))
        model = first_model(n, clauses)
        if model is not None:
            return clauses, model


def sparse_game(
    rng: Random, n: int, priorities: int, prob_fraction: float = 0.0, sink_fraction: float = 0.0
) -> dict:
    """Random game with n states, out-degree 1 to 3 and priorities drawn
    from range(priorities).  A share of the states is probabilistic, and a
    share are losing sinks (a self-loop with an odd priority), which leaves
    part of the game outside the cooperative winning region."""
    ids = [f"s{i:04d}" for i in range(n)]
    owner, priority, succ = {}, {}, {}
    for s in ids:
        if rng.random() < prob_fraction:
            owner[s] = "PROB"
        else:
            owner[s] = "P1" if rng.random() < 0.5 else "P2"
        priority[s] = rng.randrange(priorities)
        succ[s] = sorted({ids[rng.randrange(n)] for _ in range(rng.randint(1, 3))})
        if sink_fraction and rng.random() < sink_fraction:
            succ[s] = [s]
            priority[s] = 2 * rng.randrange(priorities // 2) + 1
    return {"states": ids, "owner": owner, "priority": priority, "succ": succ, "initial": ids[0]}


def loops_game(n: int, owners: str) -> dict:
    """n isolated self-loops with distinct priorities.

    ``owners="alternate"`` gives owners P1, P2, ... and priorities 0..n-1,
    the input on which Zielonka's recursion doubles at every level;
    ``owners="even"`` gives P1 states with the even priorities 0..2n-2.
    """
    ids = [f"q{i:04d}" for i in range(n)]
    if owners == "alternate":
        owner = {s: "P1" if i % 2 == 0 else "P2" for i, s in enumerate(ids)}
        priority = {s: i for i, s in enumerate(ids)}
    else:
        owner = {s: "P1" for s in ids}
        priority = {s: 2 * i for i, s in enumerate(ids)}
    succ = {s: [s] for s in ids}
    return {"states": ids, "owner": owner, "priority": priority, "succ": succ, "initial": ids[0]}


def spec_to_graph(ak, spec: dict):
    """The spec as a library graph; probabilistic states are uniform."""
    succ = spec["succ"]
    dist = {
        s: {t: Fraction(1, len(succ[s])) for t in succ[s]}
        for s, o in spec["owner"].items()
        if o == "PROB"
    }
    return ak.build_graph(
        states=spec["states"],
        owner=spec["owner"],
        edges=[(u, v) for u in spec["states"] for v in succ[u]],
        dist=dist,
        priority=spec["priority"],
        initial=spec["initial"],
    )


def game_file_text(spec: dict, objective: dict) -> str:
    """The spec in the library's game-file format."""
    doc = {
        "states": [
            {"id": s, "owner": spec["owner"][s], "priority": spec["priority"][s]}
            for s in spec["states"]
        ],
        "edges": [[u, v] for u in spec["states"] for v in spec["succ"][u]],
        "initial": spec["initial"],
        "objective": objective,
    }
    return json.dumps(doc, sort_keys=True) + "\n"

