"""End-to-end assumption computation: the combined pipeline, the resulting
omega automaton, membership, emptiness, witnesses, and interchange."""

from __future__ import annotations

from itertools import product

import pytest

import assumekit.pipeline as pipeline
from assumekit import (
    AssumptionAutomaton,
    FormatError,
    InternalInvariantError,
    MemorylessStrategy,
    NoFairAssumptionError,
    Objective,
    ObjectiveKind,
    Owner,
    UnsatisfiableError,
    ValidationError,
    WitnessError,
    automaton_dot,
    build_graph,
    build_synthesis_game,
    combined_assumption,
    compose_moore_mealy,
    compute_safety_assumption,
    dump_automaton,
    dump_game,
    env_witness,
    format_word,
    is_empty,
    lasso_member,
    letter_successor,
    parse_automaton,
    parse_word,
    random_game,
    solve,
    strategy_to_moore,
)
from assumekit.pipeline import _parity_form
from assumekit.safety import assume_safe_transform
from assumekit.fixtures import f_rcg, f_safety_escape
from helpers import (
    live_but_unfixable_game,
    live_but_unfixable_synthesis,
    unsatisfiable_synthesis,
)


def arbiter_assumption():
    return combined_assumption(f_rcg())


def witness_probe_base():
    """Six-state synthesis game used to corner the witness validations: the
    qBad side can be cut off by forbidding the four edges below it."""
    g = build_graph(
        states=["q0", "qBad", "tn", "tg", "tBadN", "tBadG"],
        owner={"q0": Owner.P1, "qBad": Owner.P1, "tn": Owner.P2,
               "tg": Owner.P2, "tBadN": Owner.P2, "tBadG": Owner.P2},
        edges=[("q0", "tn"), ("q0", "tg"), ("qBad", "tBadN"), ("qBad", "tBadG"),
               ("tn", "q0"), ("tn", "qBad"), ("tg", "q0"), ("tg", "qBad"),
               ("tBadN", "q0"), ("tBadN", "qBad"), ("tBadG", "q0"), ("tBadG", "qBad")],
        priority={s: 1 for s in ["q0", "qBad", "tn", "tg", "tBadN", "tBadG"]},
        label={"q0": frozenset(), "qBad": frozenset({"i"}),
               "tn": frozenset(), "tg": frozenset({"o"}),
               "tBadN": frozenset(), "tBadG": frozenset({"o"})},
        initial="q0",
    )
    return build_synthesis_game(g, inputs=["i"], outputs=["o"],
                                objective=Objective.buchi({"q0"}))


DEAD_SIDE = frozenset({("tBadN", "q0"), ("tBadN", "qBad"),
                       ("tBadG", "q0"), ("tBadG", "qBad")})


class TestAssumptionAutomaton:
    def test_arbiter_frozen(self):
        res = arbiter_assumption()
        a = res.automaton
        assert a.forbidden == frozenset()
        assert a.fair == frozenset({("t_p1b1_on", "q_p1b0_ir")})

    def test_validation(self):
        sg = live_but_unfixable_synthesis()
        with pytest.raises(ValidationError, match="is not an edge"):
            AssumptionAutomaton(base=sg, forbidden=frozenset({("A2", "C1")}),
                                fair=frozenset())
        with pytest.raises(ValidationError, match="player-2"):
            AssumptionAutomaton(base=sg, forbidden=frozenset(),
                                fair=frozenset({("A2", "B2")}))
        with pytest.raises(ValidationError, match="both forbidden and fair"):
            AssumptionAutomaton(base=sg, forbidden=frozenset({("B2", "A2")}),
                                fair=frozenset({("B2", "A2")}))


class TestLassoMember:
    def test_arbiter_words_frozen(self):
        a = arbiter_assumption().automaton
        accepted = [
            "|{}",
            "|{req},{grant}",
            "{req}|{cancel},{req}",
            "{req},{cancel}|{req},{cancel}",
            "|{req}",
            "{grant}|{}",
            "|{grant},{grant}",
            "|{grant},{}",
        ]
        for w in accepted:
            assert lasso_member(a, parse_word(w)), w
        # the strong-fairness discriminator: cancelling forever parks the
        # play on the fair source without ever taking its edge
        assert not lasso_member(a, parse_word("{req}|{cancel}"))

    def test_forbidden_edge_in_stem_rejects(self):
        sg = live_but_unfixable_synthesis()
        a = AssumptionAutomaton(base=sg, forbidden=frozenset({("B2", "C1")}),
                                fair=frozenset())
        assert lasso_member(a, parse_word("|{}"))
        assert not lasso_member(a, parse_word("{i}|{}"))

    def test_fair_edge_discipline(self):
        sg = live_but_unfixable_synthesis()
        a = AssumptionAutomaton(base=sg, forbidden=frozenset(),
                                fair=frozenset({("D1", "C1")}))
        assert not lasso_member(a, parse_word("|{o}"))
        assert lasso_member(a, parse_word("|{i,o},{o}"))

    def test_unknown_proposition(self):
        a = arbiter_assumption().automaton
        with pytest.raises(ValidationError, match="unknown proposition"):
            lasso_member(a, parse_word("|{zap}"))


class TestIsEmpty:
    def test_arbiter_not_empty(self):
        assert not is_empty(arbiter_assumption().automaton)

    def test_all_paths_forbidden(self):
        sg = unsatisfiable_synthesis()
        a = AssumptionAutomaton(
            base=sg,
            forbidden=frozenset({("tn", "q0"), ("tn", "q1"),
                                 ("tg", "q0"), ("tg", "q1")}),
            fair=frozenset(),
        )
        assert is_empty(a)

    def test_fair_escape_prunes_component(self):
        # one fair edge pointing at the cut-off side removes its source
        # from the loop candidates but the tg loop remains
        sg = witness_probe_base()
        a = AssumptionAutomaton(base=sg, forbidden=DEAD_SIDE,
                                fair=frozenset({("tn", "qBad")}))
        assert not is_empty(a)
        # once both loop gateways escape, nothing granted survives
        b = AssumptionAutomaton(base=sg, forbidden=DEAD_SIDE,
                                fair=frozenset({("tn", "qBad"), ("tg", "qBad")}))
        assert is_empty(b)

    def test_member_of_nonempty_is_consistent(self):
        # any automaton that grants our hand words is of course non-empty
        a = arbiter_assumption().automaton
        assert lasso_member(a, parse_word("|{}"))
        assert not is_empty(a)


class TestEnvWitness:
    def test_arbiter_frozen(self):
        res = arbiter_assumption()
        ew = env_witness(res.automaton)
        assert ew.transducer.states == ("m0", "m1", "m2")
        assert ew.state_map == {"m0": "q_p0b0_in", "m1": "q_p0b1_in", "m2": "dead_in"}

    def test_state_map_tracks_the_run(self):
        res = arbiter_assumption()
        sg = res.automaton.base
        ew = env_witness(res.automaton)
        tr = ew.transducer
        for (mem, letter), nxt_mem in sorted(tr.transition.items()):
            q = ew.state_map[mem]
            mid = letter_successor(sg, q, letter)
            t = letter_successor(sg, mid, tr.output[(mem, letter)])
            assert ew.state_map[nxt_mem] == t

    def test_empty_assumption_has_no_witness(self):
        sg = unsatisfiable_synthesis()
        a = AssumptionAutomaton(
            base=sg,
            forbidden=frozenset({("tn", "q0"), ("tn", "q1"),
                                 ("tg", "q0"), ("tg", "q1")}),
            fair=frozenset(),
        )
        with pytest.raises(WitnessError, match="no behavior"):
            env_witness(a)

    def test_unavoidable_forbidden_edges(self):
        sg = unsatisfiable_synthesis()
        a = AssumptionAutomaton(
            base=sg,
            forbidden=frozenset({("tn", "q0"), ("tn", "q1")}),
            fair=frozenset(),
        )
        assert not is_empty(a)
        with pytest.raises(WitnessError, match="cannot be avoided"):
            env_witness(a)

    def test_fair_edge_leaving_the_region(self):
        sg = witness_probe_base()
        a = AssumptionAutomaton(base=sg, forbidden=DEAD_SIDE,
                                fair=frozenset({("tn", "qBad")}))
        assert not is_empty(a)
        with pytest.raises(WitnessError, match="leaves the avoidable region"):
            env_witness(a)

    def test_every_system_run_is_granted(self):
        # the witness promises the assumption against every system; check
        # it against the full memoryless strategy space
        g, _ = live_but_unfixable_game()
        sg = live_but_unfixable_synthesis()
        a = AssumptionAutomaton(base=sg, forbidden=frozenset(),
                                fair=frozenset({("D1", "C1"), ("D1", "A2")}))
        ew = env_witness(a)
        p1 = [s for s in g.states if g.owner[s] is Owner.P1]
        for picks in product(*(g.succ(q) for q in p1)):
            alpha = MemorylessStrategy(Owner.P1, dict(zip(p1, picks)))
            word = compose_moore_mealy(strategy_to_moore(sg, alpha), ew.transducer)
            assert lasso_member(a, word), (dict(zip(p1, picks)), format_word(word))


class TestParityForm:
    def test_reach_targets_become_absorbing(self):
        g = build_graph(
            states=["a", "b", "c"],
            owner={"a": Owner.P1, "b": Owner.P2, "c": Owner.P1},
            edges=[("a", "b"), ("b", "a"), ("b", "c"), ("c", "c")],
            priority={"a": 0, "b": 0, "c": 1},
            initial="a",
        )
        tr = assume_safe_transform(g, Objective.reach({"c"}), [])
        h, hobj = _parity_form(tr)
        assert hobj.kind is ObjectiveKind.PARITY
        assert {s: h.priority[s] for s in sorted(h.states)} == {
            "_top": 0, "a": 1, "b": 1, "c": 0}
        assert sorted(t for u, t in h.edges if u == "c") == ["c"]

    def test_safe_escapes_drop_to_a_losing_sink(self):
        g, obj = f_safety_escape()
        tr = assume_safe_transform(g, obj, [])
        h, hobj = _parity_form(tr)
        assert {s: h.priority[s] for s in sorted(h.states)} == {
            "_bot": 1, "_top": 0, "a": 0, "b": 0, "c": 1}
        assert ("b", "_bot") in h.edges and ("b", "c") not in h.edges
        assert ("_bot", "_bot") in h.edges

    def test_parity_class_passes_through(self):
        g = random_game(5, 0.4, 3, seed=1)
        obj = Objective.buchi(list(g.states)[:2])
        tr = assume_safe_transform(g, obj, compute_safety_assumption(g, obj).edges)
        h, hobj = _parity_form(tr)
        assert h is tr.graph
        assert hobj.kind is ObjectiveKind.PARITY

    def test_faithful_on_the_relevant_region(self):
        # the surgery must preserve the winner: everywhere for Reach,
        # on the safe set itself for Safe
        for seed in range(40):
            g = random_game(5, 0.4, 3, seed=seed)
            ids = list(g.states)
            for obj in (Objective.reach(ids[: max(1, len(ids) // 2)]),
                        Objective.safe(ids[: max(1, 2 * len(ids) // 3)])):
                sa = compute_safety_assumption(g, obj)
                tr = assume_safe_transform(g, obj, sa.edges)
                h, hobj = _parity_form(tr)
                native = solve(tr.graph, tr.objective)
                par = solve(h, hobj)
                if obj.kind is ObjectiveKind.REACH:
                    domain = set(tr.graph.states)
                else:
                    domain = set(tr.objective.target)
                assert (native.win1 & domain) == (par.win1 & domain), (seed, obj.kind)


class TestCombinedAssumption:
    def test_arbiter_frozen(self):
        res = arbiter_assumption()
        assert res.safety.edges == frozenset()
        assert res.fairness.edges == frozenset({("t_p1b1_on", "q_p1b0_ir")})
        assert len(res.safety.safe_region) == 22
        dead = {s for s in f_rcg().graph.states if s.startswith("dead_")}
        assert set(res.safety.safe_region).isdisjoint(dead)
        assert len(res.transformed_graph.states) == 29

    def test_arbiter_strategy_grants_when_allowed(self):
        res = arbiter_assumption()
        choice = res.strategy.choice
        assert len(choice) == 20
        # pending request with granting allowed: grant now
        assert choice["q_p1b0_ir"] == "t_p1b0_og"
        assert choice["q_p0b0_in"] == "t_p0b0_og"
        # blocked step: stay quiet
        assert choice["q_p1b1_ir"] == "t_p1b1_on"
        assert choice["q_p0b1_ic"] == "t_p0b1_on"

    def test_strategy_edges_live_in_the_original_graph(self):
        res = arbiter_assumption()
        g = f_rcg().graph
        for q, t in res.strategy.choice.items():
            assert (q, t) in g.edges
            assert g.owner[q] is Owner.P1

    def test_realizable_game_needs_no_assumption(self):
        g, _ = live_but_unfixable_game()
        sg = build_synthesis_game(g, inputs=["i"], outputs=["o"],
                                  objective=Objective.buchi({"A2", "C1"}))
        res = combined_assumption(sg)
        assert res.safety.edges == frozenset()
        assert res.fairness.edges == frozenset()
        assert lasso_member(res.automaton, parse_word("|{}"))

    def test_unsatisfiable(self):
        with pytest.raises(UnsatisfiableError, match="outside the cooperative"):
            combined_assumption(unsatisfiable_synthesis())

    def test_live_but_no_fair_assumption(self):
        with pytest.raises(NoFairAssumptionError, match="no strong-fairness"):
            combined_assumption(live_but_unfixable_synthesis())

    def test_witness_checked_without_a_second_solve(self, monkeypatch):
        # Only the query that yields the strategy goes to the solver; the
        # re-check searches fair loops instead.
        calls = []
        real = pipeline.assume_fair_win

        def counting(*args):
            calls.append(args[2])
            return real(*args)

        monkeypatch.setattr(pipeline, "assume_fair_win", counting)
        res = arbiter_assumption()
        assert calls == [res.fairness.edges]

    def test_corrupted_witness_fails_re_verification(self, monkeypatch):
        real = pipeline.assume_fair_win

        def corrupted(*args):
            win, strat = real(*args)
            # Withhold a pending grant although granting is allowed.
            choice = {**strat.choice, "q_p1b0_ir": "t_p1b0_on"}
            return win, MemorylessStrategy(Owner.P1, choice)

        monkeypatch.setattr(pipeline, "assume_fair_win", corrupted)
        with pytest.raises(InternalInvariantError) as exc:
            arbiter_assumption()
        assert str(exc.value) == (
            "witness strategy failed re-verification: from 'q_p0b0_in', fair "
            "loops with an odd least priority pass through ['q_p1b0_ir', "
            "'q_p1b1_ic', 'q_p1b1_irc', 't_p1b0_on', 't_p1b1_on']"
        )


class TestInterchange:
    def test_dump_is_canonical(self):
        res = arbiter_assumption()
        txt = dump_automaton(res.automaton)
        assert txt == dump_automaton(res.automaton)
        assert txt.endswith("\n")
        assert len(txt.encode()) == 7054

    def test_round_trip(self):
        res = arbiter_assumption()
        txt = dump_automaton(res.automaton)
        a2 = parse_automaton(txt)
        assert a2.forbidden == res.automaton.forbidden
        assert a2.fair == res.automaton.fair
        assert a2.base.graph.states == res.automaton.base.graph.states
        assert a2.base.inputs == res.automaton.base.inputs
        assert a2.base.objective == res.automaton.base.objective

    def test_missing_assumption_keys_mean_empty(self):
        sg = live_but_unfixable_synthesis()
        a = parse_automaton(dump_game(sg))
        assert a.forbidden == frozenset() and a.fair == frozenset()

    def test_parse_errors(self):
        sg = live_but_unfixable_synthesis()
        g, obj = live_but_unfixable_game()
        plain = dump_game(g, obj)
        with pytest.raises(FormatError, match="missing inputs/outputs"):
            parse_automaton(plain)
        good = dump_automaton(AssumptionAutomaton(
            base=sg, forbidden=frozenset(), fair=frozenset()))
        with pytest.raises(FormatError, match="expected a list"):
            parse_automaton(good.replace('"forbidden": []', '"forbidden": 3'))
        with pytest.raises(FormatError, match="pair"):
            parse_automaton(good.replace('"forbidden": []', '"forbidden": [["x"]]'))
        with pytest.raises(FormatError, match="is not an edge"):
            parse_automaton(good.replace(
                '"forbidden": []', '"forbidden": [["A2", "C1"]]'))

    def test_dot_marks_the_assumption(self):
        res = arbiter_assumption()
        dot = automaton_dot(res.automaton)
        assert dot.startswith("digraph")
        assert "t_p1b1_on" in dot
