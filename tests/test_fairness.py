"""Strongly-fair edge assumptions: the probability reduction, sure winning
under fairness, the brute-force reference, liveness, and greedy minimization."""

from __future__ import annotations

from fractions import Fraction

import pytest

from assumekit import (
    GuardError,
    Objective,
    Owner,
    ValidationError,
    ass_red,
    assume_fair_win,
    assume_safe_transform,
    compute_safety_assumption,
    cooperative_win,
    is_live,
    locally_minimal_fair,
    oracle_assume_fair,
    random_game,
    solve,
)
from assumekit.fixtures import f_buchi_loop, f_coin, f_pipe
from helpers import build_graph, live_but_unfixable_game
from reference_fair import reference_locally_minimal_fair


def parity_family_objective(g, pick):
    """Seeded objective drawn from the kinds the fairness layer accepts."""
    ids = list(g.states)
    half = ids[: max(1, len(ids) // 2)]
    kind = pick % 3
    if kind == 0:
        return Objective.buchi(half)
    if kind == 1:
        return Objective.cobuchi(ids[: max(1, 2 * len(ids) // 3)])
    return Objective.parity(dict(g.priority))


class TestAssRed:
    def test_structure_with_copy(self):
        g, obj = f_pipe()
        prio = dict(obj.as_parity(g).priority)
        red, red_prio = ass_red(g, [("b", "a")], prio)
        assert list(red.states) == ["a", "b", "b~", "c"]
        assert red.owner["b"] is Owner.PROB
        assert red.owner["b~"] is Owner.P2
        assert red.dist["b"] == {"a": Fraction(1, 2), "b~": Fraction(1, 2)}
        # the copy keeps every move of the source, fair ones included
        assert sorted(t for u, t in red.edges if u == "b~") == ["a", "c"]
        assert red_prio == {"a": 0, "b": 1, "c": 1, "b~": 1}
        assert red.label["b~"] == g.label["b"]
        assert red.initial == "a"

    def test_no_copy_when_every_move_is_fair(self):
        g, obj = f_pipe()
        prio = dict(obj.as_parity(g).priority)
        red, _ = ass_red(g, [("c", "c")], prio)
        assert list(red.states) == ["a", "b", "c"]
        assert red.owner["c"] is Owner.PROB
        assert red.dist["c"] == {"c": Fraction(1)}

    def test_no_fair_edges_returns_input_graph(self):
        g, obj = f_pipe()
        prio = dict(obj.as_parity(g).priority)
        red, red_prio = ass_red(g, [], prio)
        assert red is g
        assert red_prio == prio

    def test_validation(self):
        g, obj = f_pipe()
        prio = dict(obj.as_parity(g).priority)
        with pytest.raises(ValidationError, match="is not an edge"):
            ass_red(g, [("a", "c")], prio)
        with pytest.raises(ValidationError, match="player-2"):
            ass_red(g, [("a", "b")], prio)
        with pytest.raises(ValidationError, match="no priority"):
            ass_red(g, [("b", "a")], {"a": 0})
        coin, _ = f_coin()
        with pytest.raises(ValidationError, match="probabilistic"):
            ass_red(coin, [], {s: 0 for s in coin.states})

    def test_duplicate_fair_edges_collapse(self):
        g, obj = f_pipe()
        prio = dict(obj.as_parity(g).priority)
        once, _ = ass_red(g, [("b", "a")], prio)
        twice, _ = ass_red(g, [("b", "a"), ("b", "a")], prio)
        assert list(once.states) == list(twice.states)
        assert once.dist["b"] == twice.dist["b"]


class TestAssumeFairWin:
    def test_buchi_loop_frozen(self):
        g, obj = f_buchi_loop()
        win, strat = assume_fair_win(g, obj, [("b", "a")])
        assert win == frozenset({"a", "b"})
        assert strat.choice == {"a": "b"}

    def test_fairness_on_the_wrong_edge_does_not_help(self):
        # the self-loop can be taken infinitely often without ever
        # returning to a; a reduction whose copy dropped fair edges would
        # wrongly report a win here
        g, obj = f_buchi_loop()
        win, _ = assume_fair_win(g, obj, [("b", "b")])
        assert win == frozenset()

    def test_empty_fair_set_is_the_plain_game(self):
        g, obj = f_buchi_loop()
        win, _ = assume_fair_win(g, obj, [])
        assert win == solve(g, obj).win1 == frozenset()

    def test_pipe_frozen(self):
        g, obj = f_pipe()
        win, _ = assume_fair_win(g, obj, [("b", "a")])
        assert win == frozenset()
        win, _ = assume_fair_win(g, obj, g.player2_edges())
        assert win == frozenset()

    def test_prefix_dependent_kinds_rejected(self):
        g, obj = f_pipe()
        with pytest.raises(ValidationError, match="not supported here"):
            assume_fair_win(g, Objective.reach({"a"}), [("b", "a")])
        with pytest.raises(ValidationError, match="not supported here"):
            assume_fair_win(g, Objective.safe({"a", "b"}), [("b", "a")])

    def test_fair_edge_validation_propagates(self):
        g, obj = f_buchi_loop()
        with pytest.raises(ValidationError, match="is not an edge"):
            assume_fair_win(g, obj, [("a", "a")])

    def test_strategy_wins_under_forced_fairness(self):
        # fixing the returned choice and solving again must keep every
        # reported state winning
        for seed in range(25):
            g = random_game(5, 0.4, 3, seed=seed)
            obj = parity_family_objective(g, seed)
            p2e = sorted(g.player2_edges())
            fair = p2e[: (seed % (len(p2e) + 1))] if p2e else []
            win, strat = assume_fair_win(g, obj, fair)
            for s in sorted(win):
                assert oracle_assume_fair(g, obj, fair, s)


class TestOracle:
    def test_guard(self):
        g = random_game(9, 0.3, 3, seed=0)
        with pytest.raises(GuardError, match="exceeds"):
            oracle_assume_fair(g, Objective.parity(dict(g.priority)), [], "s00")

    def test_unknown_state(self):
        g, obj = f_buchi_loop()
        with pytest.raises(ValidationError, match="unknown"):
            oracle_assume_fair(g, obj, [], "zz")

    def test_frozen(self):
        g, obj = f_buchi_loop()
        assert oracle_assume_fair(g, obj, [("b", "a")], "a")
        assert not oracle_assume_fair(g, obj, [("b", "b")], "a")
        assert not oracle_assume_fair(g, obj, [], "a")

    def test_agrees_with_reduction_everywhere(self):
        for seed in range(60):
            g = random_game(5, 0.35, 3, seed=seed)
            obj = parity_family_objective(g, seed)
            p2e = sorted(g.player2_edges())
            fair = p2e[: (seed % (len(p2e) + 1))] if p2e else []
            win, _ = assume_fair_win(g, obj, fair)
            for s in g.states:
                assert (s in win) == oracle_assume_fair(g, obj, fair, s), (
                    seed,
                    s,
                    fair,
                )


class TestIsLive:
    def test_fixtures(self):
        g, obj = f_buchi_loop()
        assert is_live(g, obj, "a") and is_live(g, obj, "b")
        g, obj = f_pipe()
        assert not is_live(g, obj, "a")
        assert not is_live(g, obj, "b")
        assert not is_live(g, obj, "c")

    def test_unknown_state(self):
        g, obj = f_buchi_loop()
        with pytest.raises(ValidationError, match="unknown"):
            is_live(g, obj, "zz")

    def test_live_states_stay_in_cooperative_region(self):
        for seed in range(30):
            g = random_game(5, 0.4, 3, seed=seed)
            obj = parity_family_objective(g, seed)
            region = cooperative_win(g, obj)
            live = {s for s in g.states if is_live(g, obj, s)}
            assert live <= region
            inner = solve(g, Objective.safe(region)).win1
            assert live == inner


class TestLocallyMinimalFair:
    def test_buchi_loop_frozen(self):
        g, obj = f_buchi_loop()
        fa = locally_minimal_fair(g, obj, "a")
        assert fa is not None
        assert fa.edges == frozenset({("b", "a")})
        assert fa.winning_from == frozenset({"a", "b"})

    def test_pipe_has_no_sufficient_fair_set(self):
        g, obj = f_pipe()
        assert locally_minimal_fair(g, obj, "a") is None

    def test_live_yet_unfixable(self):
        # liveness alone does not promise a fair assumption exists: here
        # player 2 moves infinitely often and even full fairness keeps the
        # minimal recurring priority odd
        g, obj = live_but_unfixable_game()
        assert all(is_live(g, obj, s) for s in g.states)
        assert cooperative_win(g, obj) == frozenset(g.states)
        win, _ = assume_fair_win(g, obj, g.player2_edges())
        assert win == frozenset()
        assert locally_minimal_fair(g, obj, "A2") is None

    def test_region_escape_defeats_fairness_for_buchi(self):
        # Fairness never forbids an edge.  When the only route to the
        # target runs through a player-2 state that can leave the
        # cooperative region once and for all, no fair set helps, even
        # though the start state is live (player 1 can idle in region).
        g = build_graph(
            states=["a", "t", "x"],
            owner={"a": "P1", "t": "P2", "x": "P2"},
            edges=[("a", "a"), ("a", "t"), ("t", "t"), ("t", "x"), ("x", "x")],
        )
        obj = Objective.buchi(["t"])
        assert is_live(g, obj, "a")
        win, _ = assume_fair_win(g, obj, g.player2_edges())
        assert win == frozenset()
        assert locally_minimal_fair(g, obj, "a") is None

    def test_safety_pruning_restores_fair_completeness(self):
        # Same game after forbidding the boundary edge: the escape now
        # gifts the win, and no fairness is even needed from "a".
        g = build_graph(
            states=["a", "t", "x"],
            owner={"a": "P1", "t": "P2", "x": "P2"},
            edges=[("a", "a"), ("a", "t"), ("t", "t"), ("t", "x"), ("x", "x")],
        )
        obj = Objective.buchi(["t"])
        sa = compute_safety_assumption(g, obj)
        assert sa.edges == frozenset({("t", "x")})
        tr = assume_safe_transform(g, obj, sa.edges)
        cands = sorted(set(tr.graph.player2_edges()) & set(g.edges))
        assert is_live(tr.graph, tr.objective, "a")
        fa = locally_minimal_fair(tr.graph, tr.objective, "a", candidates=cands)
        assert fa is not None and fa.edges == frozenset()

    def test_candidate_restriction(self):
        g, obj = f_buchi_loop()
        fa = locally_minimal_fair(g, obj, "a", candidates=[("b", "a")])
        assert fa is not None and fa.edges == frozenset({("b", "a")})
        assert locally_minimal_fair(g, obj, "a", candidates=[("b", "b")]) is None

    def test_unknown_state(self):
        g, obj = f_buchi_loop()
        with pytest.raises(ValidationError, match="unknown"):
            locally_minimal_fair(g, obj, "zz")

    def test_result_shape(self):
        for seed in range(30):
            g = random_game(5, 0.4, 3, seed=seed)
            obj = parity_family_objective(g, seed)
            s = g.initial
            fa = locally_minimal_fair(g, obj, s)
            if fa is None:
                # by monotonicity None must coincide with full fairness failing
                win, _ = assume_fair_win(g, obj, g.player2_edges())
                assert s not in win
                continue
            assert fa.edges <= set(g.player2_edges())
            assert s in fa.winning_from
            win, _ = assume_fair_win(g, obj, fa.edges)
            assert win == fa.winning_from

    def test_every_single_deletion_loses(self):
        checked = 0
        for seed in range(80):
            g = random_game(6, 0.4, 3, seed=seed)
            obj = parity_family_objective(g, seed)
            s = g.initial
            fa = locally_minimal_fair(g, obj, s)
            if fa is None or not fa.edges:
                continue
            for e in sorted(fa.edges):
                smaller = [x for x in fa.edges if x != e]
                win, _ = assume_fair_win(g, obj, smaller)
                assert s not in win, (seed, e)
                checked += 1
        assert checked >= 10

    def test_supersets_stay_sufficient(self):
        for seed in range(40):
            g = random_game(5, 0.4, 3, seed=seed)
            obj = parity_family_objective(g, seed)
            s = g.initial
            fa = locally_minimal_fair(g, obj, s)
            if fa is None:
                continue
            win, _ = assume_fair_win(g, obj, g.player2_edges())
            assert s in win

    def test_one_pass_matches_restart_scan(self):
        removals = 0
        for seed in range(60):
            g = random_game(5 + seed % 4, 0.4, 3, seed=1000 + seed)
            obj = parity_family_objective(g, seed)
            p2 = g.player2_edges()
            cands = None if seed % 3 else p2[::2]
            for s in g.states[:3]:
                fa = locally_minimal_fair(g, obj, s, candidates=cands)
                assert fa == reference_locally_minimal_fair(g, obj, s, candidates=cands), seed
                if fa is not None:
                    removals += len(cands if cands is not None else p2) - len(fa.edges)
        assert removals >= 50
