"""Construction gate for the graph transforms.

The transforms (``ass_red``, ``gadget_reduce``, the safety redirect, the
parity form of the pipeline, ``induced_structure`` and ``gen_3sat_game``)
derive new graphs from graphs that are already valid, so they build their
outputs without the validating ``build_graph``.  Each output must therefore
equal what ``build_graph`` makes of the output's own fields, carry the
normalised field types the kernels rely on (``Owner`` values, frozenset
labels, int priorities, sorted ``Fraction`` rows) and serialise to the same
bytes.  The inputs cover seeded random games, the 3SAT games, the fixtures
and state ids that collide with the names the transforms generate.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from assumekit import (
    Cnf,
    GameGraph,
    MemorylessStrategy,
    Objective,
    Owner,
    build_graph,
    dump_game,
    gen_3sat_game,
    induced_structure,
    random_game,
)
from assumekit.fairness import ass_red
from assumekit.fixtures import f_buchi_loop, f_coin, f_coin_abs, f_pipe, f_rcg, f_safety_escape
from assumekit.pipeline import _parity_form
from assumekit.safety import assume_safe_transform
from assumekit.stochastic import gadget_reduce
from helpers import sparse_game
from reference_solver import _compile


def assert_canonical(out: GameGraph) -> None:
    ref = build_graph(
        states=out.states,
        owner=out.owner,
        edges=out.edges,
        dist=out.dist,
        priority=out.priority,
        label=out.label,
        initial=out.initial,
    )
    assert out == ref
    assert dump_game(out) == dump_game(ref)
    # Equality alone would let a str owner, a list label or a bool priority through.
    for s in out.states:
        assert type(out.owner[s]) is Owner
        assert type(out.label[s]) is frozenset
        assert type(out.priority[s]) is int
    for row in out.dist.values():
        assert list(row) == sorted(row)
        assert all(type(w) is Fraction for w in row.values())
    for s in out.states:
        assert out.succ(s) == ref.succ(s)
    assert out.player2_edges() == ref.player2_edges()
    assert out.deterministic == ref.deterministic


def objective(g: GameGraph, pick: int) -> Objective:
    """Buchi, coBuchi, the game's own parity or a gapped parity, by ``pick``."""
    ids = list(g.states)
    kind = pick % 4
    if kind == 0:
        return Objective.buchi(ids[: max(1, len(ids) // 2)])
    if kind == 1:
        return Objective.cobuchi(ids[: max(1, 2 * len(ids) // 3)])
    if kind == 2:
        return Objective.parity(dict(g.priority))
    rng = Random(pick)
    return Objective.parity({s: 3 * rng.randrange(4) + 1 for s in ids})


def strategy(g: GameGraph, owner: Owner, rng: Random) -> MemorylessStrategy:
    return MemorylessStrategy(owner, {s: rng.choice(g.succ(s)) for s in g.states_of(owner)})


def check_deterministic(g: GameGraph, rng: Random, pick: int) -> None:
    """Every transform that takes a deterministic game, on ``g``."""
    ids = list(g.states)
    p2 = list(g.player2_edges())
    prio = dict(objective(g, pick).as_parity(g).priority)
    reduced, red_prio = ass_red(g, [e for e in p2 if rng.random() < 0.5], prio)
    assert_canonical(reduced)
    assert_canonical(gadget_reduce(reduced, red_prio).game)
    forbidden = [e for e in p2 if rng.random() < 0.3]
    for obj in (
        Objective.reach(ids[: max(1, len(ids) // 2)]),
        Objective.safe(ids[: max(1, 2 * len(ids) // 3)]),
        Objective.buchi(ids[:1]),
    ):
        tr = assume_safe_transform(g, obj, forbidden)
        assert_canonical(tr.graph)
        assert_canonical(_parity_form(tr)[0])
    check_induced(g, rng)


def check_induced(g: GameGraph, rng: Random) -> None:
    alpha = strategy(g, Owner.P1, rng)
    beta = strategy(g, Owner.P2, rng)
    for a, b in ((alpha, None), (None, beta), (alpha, beta)):
        assert_canonical(induced_structure(g, a, b))


def test_random_games():
    for seed in range(200):
        rng = Random(seed)
        n = rng.randint(2, 9)
        det = random_game(n, 0.35, rng.randint(1, 5), seed=seed)
        check_deterministic(det, rng, seed)
        prob = random_game(n, 0.35, rng.randint(1, 5), prob_fraction=0.25, seed=seed)
        assert_canonical(gadget_reduce(prob, objective(prob, seed).as_parity(prob).priority).game)
        check_induced(prob, rng)


def test_3sat_games():
    for n in (1, 2, 3):
        rng = Random(n)
        for _ in range(3):
            clauses = tuple(
                tuple(rng.choice((1, -1)) * rng.randint(1, n) for _ in range(rng.randint(1, 3)))
                for _ in range(rng.randint(1, 3))
            )
            tg = gen_3sat_game(Cnf(n, clauses))
            assert_canonical(tg.graph)
            rng_g = Random(len(tg.graph.states))
            p2 = list(tg.graph.player2_edges())
            fair = rng_g.sample(p2, min(len(p2), n))
            prio = dict(tg.objective.as_parity(tg.graph).priority)
            reduced, red_prio = ass_red(tg.graph, fair, prio)
            assert_canonical(reduced)
            assert_canonical(gadget_reduce(reduced, red_prio).game)


def test_fixtures():
    rng = Random(0)
    for pick, make in enumerate((f_buchi_loop, f_safety_escape, f_pipe)):
        check_deterministic(make()[0], rng, pick)
    check_deterministic(f_rcg().graph, rng, 3)
    for make in (f_coin, f_coin_abs):
        g, obj = make()
        assert_canonical(gadget_reduce(g, obj.priority).game)
        check_induced(g, rng)


def test_ids_that_collide_with_generated_names():
    states = ["a", "a~", "a@a0", "a@c0", "a@d1", "_top", "_bot"]
    owner = {"a": Owner.P2, "a~": Owner.P2, "a@a0": Owner.P1, "a@c0": Owner.P1,
             "a@d1": Owner.P2, "_top": Owner.P1, "_bot": Owner.P2}
    edges = [("a", "a~"), ("a", "a@a0"), ("a", "_top"), ("a~", "a"), ("a~", "_bot"),
             ("a@a0", "a"), ("a@c0", "a@d1"), ("a@d1", "a@c0"), ("a@d1", "_bot"),
             ("_top", "a"), ("_bot", "_bot"), ("_bot", "a")]
    g = build_graph(states, owner, edges, priority={s: i % 3 for i, s in enumerate(states)},
                    label={"a": {"p"}, "_top": {"q"}}, initial="a")
    rng = Random(1)
    for pick in range(20):
        check_deterministic(g, rng, pick)
    reduced, red_prio = ass_red(g, [("a", "a~"), ("a", "a@a0")], dict(g.priority))
    assert "a~'" in reduced.states
    out = gadget_reduce(reduced, red_prio).game
    assert {"a@a0'", "a@c0'", "a@d1'"} <= set(out.states)
    assert_canonical(out)
    tr = assume_safe_transform(g, Objective.safe(["a", "a~", "_bot"]), [("a", "_top")])
    assert tr.sink == "_top'"
    h, _ = _parity_form(tr)
    assert "_bot'" in h.states
    assert_canonical(h)


def test_cached_arena_matches_compile():
    """The arena a graph caches is the one the solvers used to compile on
    every call, and it is built once."""
    games = [random_game(8, 0.3, 4, prob_fraction=0.25 * (seed % 2), seed=seed) for seed in range(40)]
    games += [sparse_game(Random(seed), 200, 5, prob_fraction=0.2) for seed in range(3)]
    games += [f_rcg().graph, f_coin()[0]]
    for g in games:
        assert g._arena == _compile(g)
        assert g._arena is g._arena
