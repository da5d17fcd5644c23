"""Deterministic solving: attractors, the parity recursion, Reach/Safe,
strategies and the cooperative winning region."""

from __future__ import annotations

import pytest

from assumekit import (
    Objective,
    Owner,
    ValidationError,
    attractor,
    cooperative_win,
    random_game,
    solve,
)
from assumekit.fixtures import f_buchi_loop, f_coin, f_pipe, f_safety_escape
from helpers import (
    brute_partition,
    isolated_loops,
    seeded_objective,
    strategy_loses_everywhere,
    strategy_wins_everywhere,
)


class TestAttractor:
    def test_frozen_values(self):
        g, _ = f_safety_escape()
        # a joins the P2 attractor: its only successor is already inside
        assert attractor(g, Owner.P2, {"c"}) == frozenset({"a", "b", "c"})
        assert attractor(g, Owner.P1, {"a"}) == frozenset({"a"})
        assert attractor(g, Owner.P1, {"c"}) == frozenset({"c"})
        assert attractor(g, Owner.P1, {"b"}) == frozenset({"a", "b"})

    def test_contains_target_and_idempotent(self):
        for seed in range(40):
            g = random_game(5, 0.3, 3, seed=seed)
            target = set(list(g.states)[:2])
            for player in (Owner.P1, Owner.P2):
                area = attractor(g, player, target)
                assert target <= area
                assert attractor(g, player, area) == area

    def test_monotone_in_target(self):
        for seed in range(40):
            g = random_game(5, 0.3, 3, seed=seed)
            small = attractor(g, Owner.P1, {g.states[0]})
            big = attractor(g, Owner.P1, {g.states[0], g.states[1]})
            assert small <= big

    def test_input_validation(self):
        g, _ = f_buchi_loop()
        with pytest.raises(ValidationError, match="P1 or P2"):
            attractor(g, Owner.PROB, {"a"})
        with pytest.raises(ValidationError, match="unknown state"):
            attractor(g, Owner.P1, {"zz"})


class TestSolveFixtures:
    def test_buchi_loop(self):
        g, obj = f_buchi_loop()
        res = solve(g, obj)
        assert res.win1 == frozenset()
        assert res.win2 == frozenset({"a", "b"})
        # the environment's winning move is to starve the accepting state
        assert dict(res.strat2.choice) == {"b": "b"}

    def test_safety_escape(self):
        g, obj = f_safety_escape()
        res = solve(g, obj)
        assert res.win1 == frozenset()
        assert res.win2 == frozenset({"a", "b", "c"})

    def test_pipe(self):
        g, obj = f_pipe()
        res = solve(g, obj)
        assert res.win1 == frozenset()

    def test_reach_and_safe_solved_natively(self):
        g, _ = f_safety_escape()
        assert solve(g, Objective.reach(["c"])).win1 == frozenset({"c"})
        assert solve(g, Objective.safe(["a", "b"])).win1 == frozenset()

    def test_probabilistic_rejected(self):
        g, obj = f_coin()
        with pytest.raises(ValidationError, match="probabilistic"):
            solve(g, obj)


class TestSolveAgainstBruteForce:
    def test_sweep(self):
        mismatches = 0
        for seed in range(150):
            g = random_game(
                num_states=3 + seed % 4,
                edge_density=0.25 + 0.08 * (seed % 5),
                num_priorities=1 + seed % 4,
                seed=seed,
            )
            obj = seeded_objective(g, seed)
            res = solve(g, obj)
            b1, b2 = brute_partition(g, obj)
            assert b1 | b2 == frozenset(g.states)
            assert not (b1 & b2)
            if res.win1 != b1 or res.win2 != b2:
                mismatches += 1
        assert mismatches == 0

    def test_strategies_beat_all_memoryless_replies(self):
        for seed in range(60):
            g = random_game(4 + seed % 3, 0.35, 1 + seed % 4, seed=1000 + seed)
            obj = seeded_objective(g, seed)
            res = solve(g, obj)
            assert strategy_wins_everywhere(g, obj, dict(res.strat1.choice), res.win1)
            assert strategy_loses_everywhere(g, obj, dict(res.strat2.choice), res.win2)

    def test_determinism(self):
        g = random_game(6, 0.4, 3, seed=7)
        obj = seeded_objective(g, 4)
        first = solve(g, obj)
        for _ in range(3):
            again = solve(g, obj)
            assert again.win1 == first.win1
            assert dict(again.strat1.choice) == dict(first.strat1.choice)
            assert dict(again.strat2.choice) == dict(first.strat2.choice)


class TestDeepInputs:
    @pytest.mark.parametrize("n", [1200, 3000])
    def test_isolated_self_loops(self, n):
        # One Zielonka level per loop; runs under the default recursion limit.
        g, obj = isolated_loops(n)
        res = solve(g, obj)
        assert res.win1 == frozenset(g.states)
        assert dict(res.strat1.choice) == {s: s for s in g.states}


class TestCooperativeWin:
    def test_frozen_values(self):
        g, obj = f_buchi_loop()
        assert cooperative_win(g, obj) == frozenset({"a", "b"})
        g, obj = f_safety_escape()
        assert cooperative_win(g, obj) == frozenset({"a", "b"})
        g, obj = f_pipe()
        assert cooperative_win(g, obj) == frozenset({"a", "b"})

    def test_reach_and_safe_kinds(self):
        g, _ = f_safety_escape()
        assert cooperative_win(g, Objective.reach(["c"])) == frozenset({"a", "b", "c"})
        assert cooperative_win(g, Objective.safe(["a", "b"])) == frozenset({"a", "b"})

    def test_superset_of_win1(self):
        # whatever player 1 can force alone, both players together can reach
        for seed in range(80):
            g = random_game(5, 0.35, 3, seed=seed)
            obj = seeded_objective(g, seed)
            assert solve(g, obj).win1 <= cooperative_win(g, obj)

    def test_equals_win1_when_p2_absent(self):
        # with no P2 states, cooperation adds nothing
        found = 0
        for seed in range(200):
            g = random_game(4, 0.5, 3, seed=seed)
            if g.states_of(Owner.P2):
                continue
            found += 1
            obj = seeded_objective(g, seed)
            assert cooperative_win(g, obj) == solve(g, obj).win1
        assert found > 0
