"""Benchmark generators: DIMACS ingestion, the satisfiability-to-fairness
reduction, exhaustive subset search, and seeded random games."""

from __future__ import annotations

import hashlib
from fractions import Fraction
from itertools import combinations

import pytest

from assumekit import (
    Cnf,
    FormatError,
    GuardError,
    Objective,
    ObjectiveKind,
    Owner,
    ValidationError,
    assignment_from_assumption,
    assume_fair_win,
    assumption_from_assignment,
    build_graph,
    dump_game,
    gen_3sat_game,
    min_fair_subset_exhaustive,
    parse_dimacs,
    random_game,
    satisfiable,
)
from assumekit.fixtures import f_buchi_loop, f_pipe


class TestCnf:
    def test_validation(self):
        with pytest.raises(ValidationError, match="negative"):
            Cnf(num_vars=-1, clauses=())
        with pytest.raises(ValidationError, match="1 to 3"):
            Cnf(num_vars=1, clauses=((),))
        with pytest.raises(ValidationError, match="1 to 3"):
            Cnf(num_vars=2, clauses=((1, 2, -1, -2),))
        with pytest.raises(ValidationError, match="out of range"):
            Cnf(num_vars=1, clauses=((2,),))
        with pytest.raises(ValidationError, match="out of range"):
            Cnf(num_vars=1, clauses=((0,),))


class TestParseDimacs:
    def test_good_file(self):
        text = """c a comment
p cnf 3 2
1 -2 3 0
c interleaved comment
-1
2 0
"""
        f = parse_dimacs(text)
        assert f.num_vars == 3
        assert f.clauses == ((1, -2, 3), (-1, 2))

    def test_errors(self):
        with pytest.raises(FormatError, match="header"):
            parse_dimacs("p dnf 1 1\n1 0\n")
        with pytest.raises(FormatError, match="before header"):
            parse_dimacs("1 0\np cnf 1 1\n")
        with pytest.raises(FormatError, match="bad literal"):
            parse_dimacs("p cnf 1 1\nx 0\n")
        with pytest.raises(FormatError, match="not terminated"):
            parse_dimacs("p cnf 1 1\n1\n")
        with pytest.raises(FormatError, match="announces"):
            parse_dimacs("p cnf 1 2\n1 0\n")
        with pytest.raises(FormatError, match="missing"):
            parse_dimacs("c nothing here\n")
        with pytest.raises(FormatError, match="non-numeric"):
            parse_dimacs("p cnf one 1\n1 0\n")
        with pytest.raises(FormatError, match="out of range"):
            parse_dimacs("p cnf 1 1\n5 0\n")


class TestSatisfiable:
    def test_frozen(self):
        assert satisfiable(Cnf(num_vars=1, clauses=((1,),)))
        assert not satisfiable(Cnf(num_vars=1, clauses=((1,), (-1,))))
        assert satisfiable(Cnf(num_vars=2, clauses=((1, 2), (-1, -2))))
        assert not satisfiable(Cnf(
            num_vars=2,
            clauses=((1, 2), (1, -2), (-1, 2), (-1, -2)),
        ))

    def test_guard(self):
        with pytest.raises(GuardError, match="exceeds"):
            satisfiable(Cnf(num_vars=17, clauses=((1,),)))


class TestGen3SatGame:
    def test_single_positive_clause_frozen(self):
        inst = gen_3sat_game(Cnf(num_vars=1, clauses=((1,),)))
        g = inst.graph
        assert len(g.states) == 10 and len(g.edges) == 17
        assert inst.k == 1 and inst.initial == "11" and g.initial == "11"
        assert inst.objective.kind is ObjectiveKind.BUCHI
        assert inst.objective.target == frozenset({"B"})
        assert {s for s in g.states if g.priority[s] == 0} == {"B"}
        assert g.owner["v1"] is Owner.P1 and g.owner["c1"] is Owner.P1
        for s in ("11", "12", "21", "22", "B", "Bbar", "l1", "nl1"):
            assert g.owner[s] is Owner.P2
        assert list(g.succ("11")) == ["12", "21"]
        assert list(g.succ("12")) == ["22", "v1"]
        assert list(g.succ("22")) == ["c1"]
        assert list(g.succ("v1")) == ["l1", "nl1"]
        assert list(g.succ("l1")) == ["B", "Bbar"]
        assert list(g.succ("B")) == ["11"] and list(g.succ("Bbar")) == ["11"]
        # short clauses are padded up to three targets
        assert list(g.succ("c1")) == ["11", "Bbar", "l1"]

    def test_duplicate_literals_collapse(self):
        inst = gen_3sat_game(Cnf(num_vars=1, clauses=((1, 1, -1),)))
        assert list(inst.graph.succ("c1")) == ["Bbar", "l1", "nl1"]

    def test_count_formulas(self):
        cases = [(1, 1), (1, 2), (2, 2), (2, 3), (3, 4)]
        for n, c in cases:
            clauses = tuple(((m % n) + 1,) for m in range(c))
            inst = gen_3sat_game(Cnf(num_vars=n, clauses=clauses))
            j = n + c
            assert len(inst.graph.states) == 3 * n + c + (j + 1) * (j + 2) // 2
            assert len(inst.graph.edges) == 6 * n + 2 * c + (j + 1) ** 2
            assert inst.k == n

    def test_degenerate_rejected(self):
        with pytest.raises(ValidationError, match="at least one"):
            gen_3sat_game(Cnf(num_vars=0, clauses=()))


class TestAssignments:
    def test_round_trip(self):
        f = Cnf(num_vars=3, clauses=((1, -2, 3),))
        sigma = {1: True, 2: False, 3: True}
        edges = assumption_from_assignment(f, sigma)
        assert edges == frozenset({("l1", "B"), ("nl2", "B"), ("l3", "B")})
        assert assignment_from_assumption(f, edges) == sigma

    def test_missing_variable(self):
        f = Cnf(num_vars=2, clauses=((1,),))
        with pytest.raises(ValidationError, match="misses variable"):
            assumption_from_assignment(f, {1: True})

    def test_foreign_edges_are_not_an_assignment(self):
        f = Cnf(num_vars=1, clauses=((1,),))
        assert assignment_from_assumption(f, [("l1", "Bbar")]) is None
        assert assignment_from_assumption(f, [("11", "12")]) is None


class TestMinFairSubset:
    def test_guard(self):
        inst = gen_3sat_game(Cnf(num_vars=1, clauses=((1,), (-1,))))
        with pytest.raises(GuardError, match="exceeds"):
            min_fair_subset_exhaustive(
                inst.graph, inst.objective, inst.initial, inst.k)

    def test_spec_fixtures(self):
        g, obj = f_buchi_loop()
        assert min_fair_subset_exhaustive(g, obj, "a", 1) == frozenset({("b", "a")})
        g, obj = f_pipe()
        assert min_fair_subset_exhaustive(g, obj, "a", 3) is None

    def test_budget_zero_when_already_winning(self):
        g = build_graph(
            states=["a", "b"],
            owner={"a": Owner.P1, "b": Owner.P2},
            edges=[("a", "a"), ("a", "b"), ("b", "a")],
            priority={"a": 0, "b": 1},
            initial="a",
        )
        obj = Objective.parity({"a": 0, "b": 1})
        assert min_fair_subset_exhaustive(g, obj, "a", 0) == frozenset()

    def test_reduction_frozen(self):
        inst = gen_3sat_game(Cnf(num_vars=1, clauses=((1,),)))
        found = min_fair_subset_exhaustive(
            inst.graph, inst.objective, inst.initial, inst.k, max_edges=20)
        assert found == frozenset({("l1", "B")})

        inst = gen_3sat_game(Cnf(num_vars=1, clauses=((1,), (-1,))))
        assert min_fair_subset_exhaustive(
            inst.graph, inst.objective, inst.initial, inst.k, max_edges=24) is None

        inst = gen_3sat_game(Cnf(num_vars=2, clauses=((1, 2), (-1, -2))))
        found = min_fair_subset_exhaustive(
            inst.graph, inst.objective, inst.initial, inst.k, max_edges=40)
        assert found == frozenset({("l1", "B"), ("nl2", "B")})


class TestReductionSemantics:
    def sufficient_sets(self, inst, pool, k):
        out = []
        for size in range(k + 1):
            for combo in combinations(sorted(pool), size):
                win, _ = assume_fair_win(inst.graph, inst.objective, combo)
                if inst.initial in win:
                    out.append(frozenset(combo))
        return out

    def test_literal_sets_are_exactly_the_satisfying_assignments(self):
        cases = [
            Cnf(num_vars=1, clauses=((1,),)),
            Cnf(num_vars=2, clauses=((1, 2), (-1, -2))),
            Cnf(num_vars=2, clauses=((1,),)),
        ]
        for f in cases:
            inst = gen_3sat_game(f)
            literal_pool = [e for e in inst.graph.player2_edges()
                            if e[1] == "B" and e[0][0] in "ln"]
            found = set(self.sufficient_sets(inst, literal_pool, inst.k))
            expected = set()
            for bits in range(2 ** f.num_vars):
                sigma = {i + 1: bool(bits >> i & 1) for i in range(f.num_vars)}
                if all(any(sigma[abs(l)] == (l > 0) for l in cl) for cl in f.clauses):
                    expected.add(assumption_from_assignment(f, sigma))
            assert found == expected, f

    def test_full_pool_admits_grid_shortcuts(self):
        # with a redundant variable the correspondence is wider than the
        # assignments: a fair grid edge can funnel the environment into a
        # clause challenge the system answers through a fair bucket edge
        f = Cnf(num_vars=2, clauses=((1,),))
        inst = gen_3sat_game(f)
        win, _ = assume_fair_win(
            inst.graph, inst.objective, [("23", "33"), ("l1", "B")])
        assert inst.initial in win
        assert assignment_from_assumption(f, [("23", "33"), ("l1", "B")]) is None

    def test_rows_run_unbroken_to_their_exits(self):
        # a fair edge dropping the environment into row 2 must not strand
        # it there: the row still reaches its own exit, so the environment
        # can dodge every clause answered only by covered literals
        f = Cnf(num_vars=2, clauses=((1,), (-1,), (-1, 2)))
        inst = gen_3sat_game(f)
        assert sorted(inst.graph.succ("24")) == ["25", "34"]
        assert sorted(inst.graph.succ("25")) == ["35", "v2"]
        win, _ = assume_fair_win(
            inst.graph, inst.objective, [("11", "21"), ("nl1", "B")])
        assert inst.initial not in win

    def test_existence_matches_satisfiability_small(self):
        cases = [
            Cnf(num_vars=1, clauses=((1,),)),
            Cnf(num_vars=1, clauses=((-1,),)),
            Cnf(num_vars=1, clauses=((1,), (-1,))),
            Cnf(num_vars=2, clauses=((1, -2),)),
            Cnf(num_vars=2, clauses=((1,), (-1,))),
            Cnf(num_vars=2, clauses=((1, 2), (-1, -2))),
            Cnf(num_vars=2, clauses=((-1, -2), (-1, 2))),
        ]
        for f in cases:
            inst = gen_3sat_game(f)
            found = min_fair_subset_exhaustive(
                inst.graph, inst.objective, inst.initial, inst.k, max_edges=40)
            assert (found is not None) == satisfiable(f), f


class TestRandomGame:
    def test_deterministic_per_seed(self):
        a = dump_game(random_game(6, 0.3, 3, seed=7))
        b = dump_game(random_game(6, 0.3, 3, seed=7))
        c = dump_game(random_game(6, 0.3, 3, seed=8))
        assert a == b
        assert a != c

    def test_shape(self):
        g = random_game(6, 0.3, 3, seed=7)
        assert list(g.states) == [f"s{i:02d}" for i in range(6)]
        assert g.initial == "s00"
        assert all(0 <= g.priority[s] < 3 for s in g.states)

    def test_no_dead_ends_even_at_zero_density(self):
        g = random_game(4, 0.0, 3, seed=5)
        assert all(len(g.succ(s)) == 1 for s in g.states)

    def test_full_density_is_the_complete_graph(self):
        g = random_game(4, 1.0, 3, seed=5)
        assert len(g.edges) == 16

    def test_probabilistic_states_get_uniform_distributions(self):
        g = random_game(8, 0.5, 3, prob_fraction=0.7, seed=2)
        probs = [s for s in g.states if g.owner[s] is Owner.PROB]
        assert probs
        for s in probs:
            n = len(g.succ(s))
            assert all(w == Fraction(1, n) for w in g.dist[s].values())

    def test_validation(self):
        with pytest.raises(ValidationError, match="at least one"):
            random_game(0, 0.3, 3)
        for priorities in (0, -1):
            with pytest.raises(ValidationError, match="at least one priority"):
                random_game(4, 0.3, priorities)

    @pytest.mark.parametrize(
        "args, digest",
        [
            ((1, 0.3, 1, 0.0, 0), "8d7a910a4a1ef23907846a15e4450a60f133978ecd7808ade14bae59bbd1cfa4"),
            ((4, 0.0, 3, 0.0, 5), "9cea57b0deccf24ef3a68e7cf03c7a2f122f999131bd74fd4787e4c556479762"),
            ((6, 0.3, 3, 0.0, 7), "37ad2964488a980709331b3e98ea79049f95404f67bdeda6c34ba0495b38cf45"),
            ((8, 0.5, 3, 0.7, 2), "65dcf2eaee3aaef1d47157cbb79fc9d26cf0ebf53ee4ed002e9e9c1e33e6aa15"),
            ((12, 0.05, 4, 0.5, 11), "970673043b43072d0c8afbff5b51318c7a2bb74766646080af8ba38758b179e9"),
            ((30, 0.1, 5, 0.2, 3), "5bbda9ef1785a2eb404f29f0f3ce10826710eed7de56b04d4414d5a408830885"),
            ((120, 0.02, 6, 0.2, 9), "b5650fe172dcb55e683801ae921d47eafb4d698a3122a7b8b0de5bcdc575937b"),
        ],
    )
    def test_pinned_dumps(self, args, digest):
        # (states, density, priorities, prob_fraction, seed); zero-density
        # fallbacks, probabilistic states and ids past s99, which sort out
        # of index order.
        n, density, priorities, prob_fraction, seed = args
        g = random_game(n, density, priorities, prob_fraction=prob_fraction, seed=seed)
        assert hashlib.sha256(dump_game(g).encode()).hexdigest() == digest
