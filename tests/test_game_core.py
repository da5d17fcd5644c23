"""Structures, validation, serialization and the word/play machinery."""

from __future__ import annotations

from fractions import Fraction

import pytest

from assumekit import (
    FormatError,
    LassoPlay,
    LassoWord,
    MealyTransducer,
    MemorylessStrategy,
    MooreTransducer,
    Objective,
    ObjectiveKind,
    Owner,
    ValidationError,
    all_letters,
    build_graph,
    build_synthesis_game,
    compose_moore_mealy,
    dump_game,
    format_word,
    induced_structure,
    letter_successor,
    parse_game,
    parse_game_file,
    parse_word,
    random_game,
    strategy_to_moore,
    to_dot,
    word_of_play,
)
from assumekit.fixtures import f_buchi_loop, f_coin, f_rcg, f_safety_escape
from assumekit.game import check_strategy, letter_key, validate_play


def tiny_graph():
    return build_graph(
        states=["a", "b"],
        owner={"a": Owner.P1, "b": Owner.P2},
        edges=[("a", "b"), ("b", "a"), ("b", "b")],
        priority={"a": 0, "b": 1},
        initial="a",
    )


class TestBuildGraph:
    def test_states_sorted_and_succ_sorted(self):
        g = build_graph(
            states=["b", "a"],
            owner={"a": "P1", "b": "P2"},
            edges=[("b", "b"), ("b", "a"), ("a", "b")],
        )
        assert g.states == ("a", "b")
        assert g.succ("b") == ("a", "b")

    def test_no_states(self):
        with pytest.raises(ValidationError, match="no states"):
            build_graph(states=[], owner={}, edges=[])

    def test_missing_owner(self):
        with pytest.raises(ValidationError, match="no owner"):
            build_graph(states=["a"], owner={}, edges=[("a", "a")])

    def test_unknown_owner_key(self):
        with pytest.raises(ValidationError, match="unknown state"):
            build_graph(
                states=["a"], owner={"a": "P1", "z": "P1"}, edges=[("a", "a")]
            )

    def test_unknown_edge_endpoint(self):
        with pytest.raises(ValidationError, match="unknown target"):
            build_graph(states=["a"], owner={"a": "P1"}, edges=[("a", "z")])

    def test_dead_end(self):
        with pytest.raises(ValidationError, match="dead end"):
            build_graph(
                states=["a", "b"],
                owner={"a": "P1", "b": "P2"},
                edges=[("a", "b")],
            )

    def test_prob_needs_distribution(self):
        with pytest.raises(ValidationError, match="missing distribution"):
            build_graph(states=["a"], owner={"a": "PROB"}, edges=[("a", "a")])

    def test_dist_support_must_match_edges(self):
        with pytest.raises(ValidationError, match="support"):
            build_graph(
                states=["a", "b"],
                owner={"a": "PROB", "b": "P1"},
                edges=[("a", "a"), ("a", "b"), ("b", "b")],
                dist={"a": {"a": Fraction(1)}},
            )
        # Same size, different states.
        with pytest.raises(ValidationError) as exc:
            build_graph(
                states=["a", "b"],
                owner={"a": "PROB", "b": "P1"},
                edges=[("a", "b"), ("b", "b")],
                dist={"a": {"a": Fraction(1)}},
            )
        assert str(exc.value) == (
            "state 'a': distribution support ['a'] != outgoing edges ['b']"
        )

    def test_dist_must_sum_to_one(self):
        with pytest.raises(ValidationError, match="sum"):
            build_graph(
                states=["a", "b"],
                owner={"a": "PROB", "b": "P1"},
                edges=[("a", "a"), ("a", "b"), ("b", "b")],
                dist={"a": {"a": Fraction(1, 2), "b": Fraction(1, 4)}},
            )

    def test_dist_on_deterministic_state(self):
        with pytest.raises(ValidationError, match="non-PROB"):
            build_graph(
                states=["a"],
                owner={"a": "P1"},
                edges=[("a", "a")],
                dist={"a": {"a": Fraction(1)}},
            )

    def test_negative_priority(self):
        with pytest.raises(ValidationError, match="priority"):
            build_graph(
                states=["a"], owner={"a": "P1"}, edges=[("a", "a")], priority={"a": -1}
            )

    def test_unknown_initial(self):
        with pytest.raises(ValidationError, match="initial"):
            build_graph(states=["a"], owner={"a": "P1"}, edges=[("a", "a")], initial="z")

    def test_helpers(self):
        g = tiny_graph()
        assert g.deterministic
        assert g.states_of(Owner.P2) == ("b",)
        assert g.player2_edges() == (("b", "a"), ("b", "b"))


class TestObjective:
    def test_constructors_and_parity_class(self):
        assert Objective.reach(["a"]).kind is ObjectiveKind.REACH
        assert not Objective.reach(["a"]).parity_class
        assert not Objective.safe(["a"]).parity_class
        assert Objective.buchi(["a"]).parity_class
        assert Objective.cobuchi(["a"]).parity_class
        par = Objective.parity({"a": 0, "b": 3})
        assert par.parity_class and par.priority == {"a": 0, "b": 3}

    def test_negative_parity_rejected(self):
        with pytest.raises(ValidationError):
            Objective.parity({"a": -2})

    def test_validate_against(self):
        g = tiny_graph()
        with pytest.raises(ValidationError, match="unknown state"):
            Objective.reach(["z"]).validate_against(g)
        with pytest.raises(ValidationError, match="no priority"):
            Objective.parity({"a": 0}).validate_against(g)

    def test_as_parity_encodings(self):
        g = tiny_graph()
        bu = Objective.buchi(["a"]).as_parity(g)
        assert bu.priority == {"a": 0, "b": 1}
        co = Objective.cobuchi(["a"]).as_parity(g)
        assert co.priority == {"a": 2, "b": 1}
        with pytest.raises(ValidationError, match="natively"):
            Objective.reach(["a"]).as_parity(g)
        with pytest.raises(ValidationError, match="natively"):
            Objective.safe(["a"]).as_parity(g)

    def test_letters(self):
        letters = all_letters(["b", "a"])
        assert len(letters) == 4
        assert letters[0] == frozenset()
        assert letter_key(frozenset(["b", "a"])) == ("a", "b")
        # deterministic order: sorted by (size, sorted names)
        assert letters == sorted(letters, key=lambda l: (len(l), letter_key(l)))


class TestSynthesisGame:
    def test_rcg_shape(self):
        sg = f_rcg()
        assert len(sg.graph.states) == 28
        assert len(sg.graph.edges) == 72
        assert sg.inputs == ("cancel", "req")
        assert sg.outputs == ("grant",)
        assert sg.initial == "q_p0b0_in"
        assert len(sg.objective.target) == 10
        assert len(sg.letter_alphabet()) == 8

    def test_letter_successor(self):
        sg = f_rcg()
        t = letter_successor(sg, sg.initial, frozenset(["grant"]))
        assert sg.graph.label[t] == frozenset(["grant"])
        q = letter_successor(sg, t, frozenset(["req"]))
        assert sg.graph.owner[q] is Owner.P1

    def test_alternation_enforced(self):
        g = build_graph(
            states=["a", "b"],
            owner={"a": "P1", "b": "P1"},
            edges=[("a", "b"), ("b", "a")],
            initial="a",
        )
        with pytest.raises(ValidationError, match="alternation"):
            build_synthesis_game(g, [], [], Objective.buchi(["a"]))

    def test_completeness_enforced(self):
        # P1 state must offer every output letter; only {} is offered here.
        g = build_graph(
            states=["a", "b"],
            owner={"a": "P1", "b": "P2"},
            edges=[("a", "b"), ("b", "a")],
            label={"b": []},
            initial="a",
        )
        with pytest.raises(ValidationError, match="no successor labeled"):
            build_synthesis_game(g, [], ["o"], Objective.buchi(["a"]))

    def test_label_outside_alphabet(self):
        g = build_graph(
            states=["a", "b"],
            owner={"a": "P1", "b": "P2"},
            edges=[("a", "b"), ("b", "a")],
            label={"b": ["mystery"]},
            initial="a",
        )
        with pytest.raises(ValidationError, match="not among outputs"):
            build_synthesis_game(g, [], [], Objective.buchi(["a"]))

    def test_duplicate_successor_label(self):
        g = build_graph(
            states=["a", "b", "c"],
            owner={"a": "P1", "b": "P2", "c": "P2"},
            edges=[("a", "b"), ("a", "c"), ("b", "a"), ("c", "a")],
            initial="a",
        )
        with pytest.raises(ValidationError, match="share a label"):
            build_synthesis_game(g, [], ["o"], Objective.buchi(["a"]))

    def test_initial_must_be_p1(self):
        g = build_graph(
            states=["a", "b"],
            owner={"a": "P1", "b": "P2"},
            edges=[("a", "b"), ("b", "a")],
            initial="b",
        )
        with pytest.raises(ValidationError, match="P1-owned"):
            build_synthesis_game(g, [], [], Objective.buchi(["a"]))


class TestLassos:
    def test_play_shape(self):
        p = LassoPlay(stem=("a",), cycle=("b", "c"))
        assert p.first() == "a"
        assert p.transitions() == [("a", "b"), ("b", "c"), ("c", "b")]
        assert [p.state_at(i) for i in range(5)] == ["a", "b", "c", "b", "c"]
        with pytest.raises(ValidationError, match="empty cycle"):
            LassoPlay(stem=(), cycle=())

    def test_word_shape(self):
        w = LassoWord(stem=(frozenset(["a"]),), cycle=(frozenset(),))
        assert w.letter_at(0) == frozenset(["a"])
        assert w.letter_at(3) == frozenset()
        assert w.props() == frozenset(["a"])

    def test_validate_play(self):
        g = tiny_graph()
        validate_play(g, LassoPlay(stem=(), cycle=("a", "b")))
        with pytest.raises(ValidationError, match="unknown state"):
            validate_play(g, LassoPlay(stem=(), cycle=("z",)))
        with pytest.raises(ValidationError, match="missing edge"):
            validate_play(g, LassoPlay(stem=(), cycle=("a", "a")))

    def test_word_of_play_pairs_letters(self):
        sg = f_rcg()
        # request, grant, one blocked step, back to the initial state
        t_n = letter_successor(sg, sg.initial, frozenset())
        q_ir = letter_successor(sg, t_n, frozenset(["req"]))
        t_og = letter_successor(sg, q_ir, frozenset(["grant"]))
        q_b1 = letter_successor(sg, t_og, frozenset())
        t_b1 = letter_successor(sg, q_b1, frozenset())
        assert letter_successor(sg, t_b1, frozenset()) == sg.initial
        play = LassoPlay(stem=(), cycle=(sg.initial, t_n, q_ir, t_og, q_b1, t_b1))
        word = word_of_play(sg, play)
        assert word.stem == ()
        assert word.cycle == (
            frozenset(["req"]),
            frozenset(["grant"]),
            frozenset(),
        )

    def test_word_of_play_rejects_foreign_start(self):
        sg = f_rcg()
        t = letter_successor(sg, sg.initial, frozenset())
        with pytest.raises(ValidationError, match="expected initial"):
            word_of_play(sg, LassoPlay(stem=(), cycle=(t, sg.initial)))

    def test_word_text_round_trip(self):
        w = parse_word("{a,b},{}|{c}")
        assert w.stem == (frozenset(["a", "b"]), frozenset())
        assert w.cycle == (frozenset(["c"]),)
        assert parse_word(format_word(w)) == w
        assert format_word(parse_word("|{}")) == "|{}"

    def test_word_text_errors(self):
        with pytest.raises(FormatError, match="exactly one"):
            parse_word("{a}")
        with pytest.raises(FormatError, match="at least one letter"):
            parse_word("{a}|")
        with pytest.raises(FormatError, match="expected a"):
            parse_word("a|{b}")
        with pytest.raises(FormatError, match="trailing comma"):
            parse_word("{a},|{b}")
        with pytest.raises(FormatError, match="empty proposition"):
            parse_word("{a,,b}|{}")


class TestStrategies:
    def test_strategy_validation(self):
        from assumekit import StrategyError

        g = tiny_graph()
        strat = MemorylessStrategy(Owner.P2, {"b": "a"})
        check_strategy(g, strat)
        assert strat.move("b") == "a"
        with pytest.raises(StrategyError, match="missing edge"):
            check_strategy(g, MemorylessStrategy(Owner.P2, {"b": "z"}))
        with pytest.raises(StrategyError, match="foreign state"):
            check_strategy(g, MemorylessStrategy(Owner.P2, {"a": "b"}))
        with pytest.raises(StrategyError, match="undefined"):
            check_strategy(g, MemorylessStrategy(Owner.P2, {}))
        check_strategy(g, MemorylessStrategy(Owner.P2, {}), total=False)

    def test_induced_structure_prunes_choices(self):
        g = tiny_graph()
        # fixing beta alone: b keeps only the chosen edge
        fixed = induced_structure(g, None, MemorylessStrategy(Owner.P2, {"b": "a"}))
        assert fixed.succ("b") == ("a",)
        assert fixed.succ("a") == ("b",)

    def test_strategy_missing_move(self):
        from assumekit import StrategyError

        s = MemorylessStrategy(Owner.P1, {})
        with pytest.raises(StrategyError, match="no move"):
            s.move("a")


class TestTransducers:
    def test_totality_validation(self):
        with pytest.raises(ValidationError, match="no transition"):
            MooreTransducer(
                states=("m",),
                initial="m",
                input_props=("i",),
                output={"m": frozenset()},
                transition={("m", frozenset()): "m"},
            )
        with pytest.raises(ValidationError, match="no output"):
            MealyTransducer(
                states=("m",),
                initial="m",
                input_props=("i",),
                output={("m", frozenset()): frozenset()},
                transition={
                    ("m", frozenset()): "m",
                    ("m", frozenset(["i"])): "m",
                },
            )

    def test_strategy_to_moore_and_composition(self):
        from assumekit import combined_assumption, env_witness, lasso_member

        sg = f_rcg()
        comb = combined_assumption(sg)
        moore = strategy_to_moore(sg, comb.strategy)
        assert len(moore.states) == 20
        assert moore.initial == sg.initial
        ew = env_witness(comb.automaton)
        assert len(ew.transducer.states) == 3
        word = compose_moore_mealy(moore, ew.transducer)
        assert format_word(word) == "|{grant},{}"
        assert lasso_member(comb.automaton, word)


class TestSerialization:
    def test_round_trip_fixtures(self):
        for fx in (f_buchi_loop, f_safety_escape, f_coin):
            g, obj = fx()
            text = dump_game(g, obj)
            g2, obj2 = parse_game_file(text)
            assert g2 == g
            assert obj2 == obj
            assert dump_game(g2, obj2) == text

    def test_round_trip_synthesis(self):
        sg = f_rcg()
        text = dump_game(sg)
        sg2, obj2 = parse_game_file(text)
        assert sg2 == sg
        assert obj2 == sg.objective
        assert dump_game(sg2) == text

    def test_round_trip_seeded(self):
        for seed in range(12):
            g = random_game(5, 0.4, 3, prob_fraction=0.3, seed=seed)
            g2, _ = parse_game_file(dump_game(g))
            assert g2 == g

    def test_canonical_form(self):
        g, obj = f_buchi_loop()
        text = dump_game(g, obj)
        assert text.endswith("\n")
        assert text == dump_game(g, obj)
        # fractions serialize as num/den strings
        gc, _ = f_coin()
        assert '"1/2"' in dump_game(gc)

    def test_parse_game_requires_graph(self):
        g, obj = f_buchi_loop()
        got = parse_game(dump_game(g, obj))
        assert got == g

    def test_parse_errors(self):
        with pytest.raises(FormatError, match="line 1"):
            parse_game_file("{nope")
        with pytest.raises(FormatError, match="top level"):
            parse_game_file("[]")
        with pytest.raises(FormatError, match="states"):
            parse_game_file("{}")
        with pytest.raises(FormatError, match="owner must be"):
            parse_game_file('{"states": [{"id": "a", "owner": "zz"}], "edges": [["a","a"]]}')
        with pytest.raises(FormatError, match="duplicate state"):
            parse_game_file(
                '{"states": [{"id": "a", "owner": "P1"}, {"id": "a", "owner": "P1"}],'
                ' "edges": [["a","a"]]}'
            )
        with pytest.raises(FormatError, match="unknown kind"):
            parse_game_file(
                '{"states": [{"id": "a", "owner": "P1"}], "edges": [["a","a"]],'
                ' "objective": {"kind": "Weird", "target": []}}'
            )

    def test_parity_objective_falls_back_to_graph_priorities(self):
        text = (
            '{"states": [{"id": "a", "owner": "P1", "priority": 2}],'
            ' "edges": [["a","a"]], "objective": {"kind": "Parity"}}'
        )
        _, obj = parse_game_file(text)
        assert obj.priority == {"a": 2}

    def test_bad_fraction(self):
        with pytest.raises(FormatError, match="bad weight"):
            parse_game_file(
                '{"states": [{"id": "a", "owner": "PROB"}], "edges": [["a","a"]],'
                ' "dist": {"a": {"a": "one"}}}'
            )


class TestDot:
    def test_markers(self):
        g, obj = f_safety_escape()
        text = to_dot(g, obj, forbidden=[("b", "c")], fair=[("b", "a")])
        assert text.startswith("digraph game {")
        assert "__init" in text
        assert "shape=ellipse" in text
        assert "shape=box" in text
        assert "peripheries=2" in text
        assert "style=dashed" in text
        assert "style=bold" in text

    def test_prob_weights_and_diamond(self):
        g, _ = f_coin()
        text = to_dot(g)
        assert "shape=diamond" in text
        assert 'label="1/2"' in text
