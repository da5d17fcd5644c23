"""Core data model.

Game graphs (deterministic and probabilistic), objectives, labeled synthesis
games, lasso plays and words, memoryless strategies, Moore/Mealy transducers,
and the JSON / DOT interchange formats.

Conventions used everywhere:
  - state ids are strings and every iteration over sets of states or edges is
    in lexicographic order, so all derived artifacts are deterministic;
  - probabilities are exact `Fraction`s, never floats;
  - letters are frozensets of proposition names;
  - parity objectives are min-parity: a play is winning when the least
    priority seen infinitely often is even.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping

from .errors import FormatError, StrategyError, ValidationError

Edge = tuple[str, str]
Letter = frozenset[str]


class Owner(str, Enum):
    P1 = "P1"
    P2 = "P2"
    PROB = "PROB"


def all_letters(props: Iterable[str]) -> list[Letter]:
    """All subsets of ``props`` in deterministic order (size, then lex)."""
    base = sorted(set(props))
    out: list[Letter] = []
    for n in range(len(base) + 1):
        for combo in combinations(base, n):
            out.append(frozenset(combo))
    return out


def letter_key(letter: Letter) -> tuple[str, ...]:
    return tuple(sorted(letter))


# Integer owners of an arena: a parity favours player ``priority % 2``.
_P1, _P2 = 0, 1
_SIDE = {Owner.P1: _P1, Owner.P2: _P2, Owner.PROB: 2}


@dataclass(frozen=True)
class _Arena:
    """A game as integer arrays for the kernels; index i is the i-th id of
    ``names``, the sorted states, so index order is lexicographic order."""

    names: tuple[str, ...]
    index: dict[str, int]
    succ: list[tuple[int, ...]]  # sorted
    pred: list[list[int]]  # sorted
    side: list[int]  # _P1, _P2, or 2 for probabilistic states


@dataclass(frozen=True)
class GameGraph:
    """Directed game graph with an ownership partition.

    The constructor checks nothing: ``states`` is sorted, ``owner`` maps
    each state to an :class:`Owner`, no state is a dead end, ``dist`` holds
    exactly the PROB states, each a row of positive ``Fraction`` weights
    summing to 1 over its successors, sorted by target, and ``priority``
    and ``label`` are total maps to naturals and frozensets.  :func:`build_graph`
    establishes this for data from outside; transforms of a valid graph
    build such fields themselves.  The successor tuples are derived on
    construction, the kernels' integer arena on first use, and both are
    cached with the graph.
    """

    states: tuple[str, ...]
    owner: Mapping[str, Owner]
    edges: frozenset[Edge]
    dist: Mapping[str, Mapping[str, Fraction]]
    priority: Mapping[str, int]
    label: Mapping[str, Letter]
    initial: str | None
    _succ: Mapping[str, tuple[str, ...]] = field(
        init=False, repr=False, compare=False, default=None
    )

    def __post_init__(self) -> None:
        succ: dict[str, list[str]] = {s: [] for s in self.states}
        for u, v in self.edges:
            succ[u].append(v)
        object.__setattr__(self, "_succ", {s: tuple(sorted(ts)) for s, ts in succ.items()})

    @cached_property
    def _arena(self) -> _Arena:
        names = self.states
        index = {s: i for i, s in enumerate(names)}
        at = index.__getitem__
        succ = [tuple(map(at, self._succ[s])) for s in names]
        pred: list[list[int]] = [[] for _ in names]
        for u, ts in enumerate(succ):
            for t in ts:
                pred[t].append(u)
        return _Arena(names, index, succ, pred, [_SIDE[self.owner[s]] for s in names])

    def succ(self, s: str) -> tuple[str, ...]:
        return self._succ[s]

    @property
    def deterministic(self) -> bool:
        return not self.dist

    def states_of(self, owner: Owner) -> tuple[str, ...]:
        return tuple(s for s in self.states if self.owner[s] is owner)

    def player2_edges(self) -> tuple[Edge, ...]:
        return tuple((s, t) for s in self.states_of(Owner.P2) for t in self._succ[s])


def _is_priority(p: object) -> bool:
    """The one rule for a priority, of a state or in an objective: an int
    that is not a bool and is at least 0."""
    return isinstance(p, int) and not isinstance(p, bool) and p >= 0


def build_graph(
    states: Iterable[str],
    owner: Mapping[str, Owner | str],
    edges: Iterable[Edge],
    dist: Mapping[str, Mapping[str, Fraction]] | None = None,
    priority: Mapping[str, int] | None = None,
    label: Mapping[str, Iterable[str]] | None = None,
    initial: str | None = None,
) -> GameGraph:
    """Validate, normalise and freeze a game graph given from outside.

    Parsers, generators, fixtures and user code build graphs here; it
    establishes every invariant :class:`GameGraph` assumes, defaulting
    priorities to 0 and labels to the empty letter.  Transforms of a valid
    graph call the constructor directly instead.
    """
    state_tuple = tuple(sorted(set(states)))
    if not state_tuple:
        raise ValidationError("graph has no states")
    state_set = set(state_tuple)

    owner_map: dict[str, Owner] = {}
    for s in state_tuple:
        if s not in owner:
            raise ValidationError(f"state {s!r}: no owner assigned")
        owner_map[s] = Owner(owner[s])
    for s in owner:
        if s not in state_set:
            raise ValidationError(f"owner map mentions unknown state {s!r}")

    edge_set: set[Edge] = set()
    for u, v in edges:
        if u not in state_set:
            raise ValidationError(f"edge ({u!r}, {v!r}): unknown source")
        if v not in state_set:
            raise ValidationError(f"edge ({u!r}, {v!r}): unknown target")
        edge_set.add((u, v))

    out_deg = {s: 0 for s in state_tuple}
    for u, _ in edge_set:
        out_deg[u] += 1
    for s in state_tuple:
        if out_deg[s] == 0:
            raise ValidationError(f"state {s!r}: dead end (no outgoing edge)")

    dist = dist or {}
    dist_map: dict[str, dict[str, Fraction]] = {}
    for s in state_tuple:
        if owner_map[s] is Owner.PROB:
            if s not in dist:
                raise ValidationError(f"probabilistic state {s!r}: missing distribution")
            row = {t: Fraction(w) for t, w in dist[s].items()}
            support = {t for t, w in row.items() if w > 0}
            if any(w < 0 for w in row.values()):
                raise ValidationError(f"state {s!r}: negative weight")
            if sum(row.values()) != 1:
                raise ValidationError(
                    f"state {s!r}: weights sum to {sum(row.values())}, expected 1"
                )
            # support == successors: a subset of the same size, no edge scan
            if len(support) != out_deg[s] or any((s, t) not in edge_set for t in support):
                succ = {v for u, v in edge_set if u == s}
                raise ValidationError(
                    f"state {s!r}: distribution support {sorted(support)} "
                    f"!= outgoing edges {sorted(succ)}"
                )
            dist_map[s] = {t: row[t] for t in sorted(support)}
        elif s in dist:
            raise ValidationError(f"state {s!r}: distribution on non-PROB state")

    priority = priority or {}
    prio_map: dict[str, int] = {}
    for s in state_tuple:
        p = priority.get(s, 0)
        if not _is_priority(p):
            raise ValidationError(f"state {s!r}: priority must be a natural number")
        prio_map[s] = p

    label = label or {}
    label_map: dict[str, Letter] = {}
    for s in state_tuple:
        label_map[s] = frozenset(label.get(s, ()))

    if initial is not None and initial not in state_set:
        raise ValidationError(f"initial state {initial!r} unknown")

    return GameGraph(
        states=state_tuple,
        owner=owner_map,
        edges=frozenset(edge_set),
        dist=dist_map,
        priority=prio_map,
        label=label_map,
        initial=initial,
    )


def check_priorities(g: GameGraph, priority: Mapping[str, int]) -> None:
    """Validate a caller's priority map over the states of ``g``."""
    for s in g.states:
        if s not in priority:
            raise ValidationError(f"state {s!r}: no priority assigned")
        if not _is_priority(priority[s]):
            raise ValidationError(f"state {s!r}: priority must be a natural number")


def check_state(g: GameGraph, s: str) -> None:
    """Validate a caller's state id against ``g``."""
    if s not in g.owner:
        raise ValidationError(f"unknown state {s!r}")


def check_p2_edges(g: GameGraph, edges: Iterable[Edge], what: str) -> list[Edge]:
    """Validate a set of player-2 edges of ``g``; returns it sorted.
    ``what`` names the set in error messages ("fair", "forbidden", ...)."""
    out = sorted(set(edges))
    for u, v in out:
        if (u, v) not in g.edges:
            raise ValidationError(f"{what} edge ({u!r}, {v!r}) is not an edge")
        if g.owner[u] is not Owner.P2:
            raise ValidationError(f"{what} edge ({u!r}, {v!r}) must leave a player-2 state")
    return out


# ---------------------------------------------------------------------------
# Objectives


class ObjectiveKind(str, Enum):
    REACH = "Reach"
    SAFE = "Safe"
    BUCHI = "Buchi"
    COBUCHI = "CoBuchi"
    PARITY = "Parity"


@dataclass(frozen=True)
class Objective:
    """Winning condition.  Reach/Safe/Buchi/CoBuchi carry a target set;
    Parity carries a total map from states to natural-number priorities.

    Reach and Safe are solved directly by the solvers, never through a
    parity encoding; Buchi and CoBuchi have canonical two-priority
    encodings (target = priority 0, resp. priority 2)."""

    kind: ObjectiveKind
    target: frozenset[str] = frozenset()
    priority: Mapping[str, int] | None = None

    @classmethod
    def reach(cls, target: Iterable[str]) -> "Objective":
        return cls(ObjectiveKind.REACH, frozenset(target))

    @classmethod
    def safe(cls, target: Iterable[str]) -> "Objective":
        return cls(ObjectiveKind.SAFE, frozenset(target))

    @classmethod
    def buchi(cls, target: Iterable[str]) -> "Objective":
        return cls(ObjectiveKind.BUCHI, frozenset(target))

    @classmethod
    def cobuchi(cls, target: Iterable[str]) -> "Objective":
        return cls(ObjectiveKind.COBUCHI, frozenset(target))

    @classmethod
    def parity(cls, priority: Mapping[str, int]) -> "Objective":
        prio = dict(priority)
        for p in prio.values():
            if not _is_priority(p):
                if type(p) is int:
                    raise ValidationError("parity objective: negative priority")
                raise ValidationError(f"invalid literal {p!r} for a priority")
        return cls(ObjectiveKind.PARITY, frozenset(), prio)

    def validate_against(self, g: GameGraph) -> None:
        if self.kind is ObjectiveKind.PARITY:
            if self.priority is None:
                raise ValidationError("parity objective without a priority map")
            missing = [s for s in g.states if s not in self.priority]
            if missing:
                raise ValidationError(f"parity objective: no priority for {missing[0]!r}")
        else:
            unknown = sorted(self.target - set(g.states))
            if unknown:
                raise ValidationError(f"objective target mentions unknown state {unknown[0]!r}")

    def as_parity(self, g: GameGraph) -> "Objective":
        """Parity form over the states of ``g``; Reach/Safe have no faithful
        state-priority encoding on an unmodified graph and are rejected."""
        self.validate_against(g)
        if self.kind is ObjectiveKind.PARITY:
            return Objective.parity({s: self.priority[s] for s in g.states})
        if self.kind is ObjectiveKind.BUCHI:
            return Objective.parity({s: 0 if s in self.target else 1 for s in g.states})
        if self.kind is ObjectiveKind.COBUCHI:
            return Objective.parity({s: 2 if s in self.target else 1 for s in g.states})
        raise ValidationError(f"{self.kind.value} objectives are solved natively, not as parity")

    @property
    def parity_class(self) -> bool:
        return self.kind in (ObjectiveKind.BUCHI, ObjectiveKind.COBUCHI, ObjectiveKind.PARITY)


# ---------------------------------------------------------------------------
# Synthesis games


@dataclass(frozen=True)
class SynthesisGame:
    """Bipartite labeled game between system (P1) and environment (P2).

    P1 states carry input letters (how the environment got there), P2 states
    carry output letters (what the system just emitted); each move into a
    state "plays" that state's label.  Validation enforces alternation,
    label containment, per-state label determinism among successors, and
    completeness: from a P1 state every output letter leads somewhere, from
    a P2 state every input letter does.
    """

    graph: GameGraph
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    objective: Objective

    @property
    def initial(self) -> str:
        return self.graph.initial

    def letter_alphabet(self) -> list[Letter]:
        return all_letters(self.inputs + self.outputs)


def build_synthesis_game(
    graph: GameGraph,
    inputs: Iterable[str],
    outputs: Iterable[str],
    objective: Objective,
) -> SynthesisGame:
    inputs_t = tuple(sorted(set(inputs)))
    outputs_t = tuple(sorted(set(outputs)))
    if set(inputs_t) & set(outputs_t):
        raise ValidationError("inputs and outputs must be disjoint")
    if not graph.deterministic:
        raise ValidationError("synthesis game over a probabilistic graph")
    if graph.initial is None:
        raise ValidationError("synthesis game needs an initial state")
    if graph.owner[graph.initial] is not Owner.P1:
        raise ValidationError(f"initial state {graph.initial!r} must be P1-owned")

    in_set, out_set = set(inputs_t), set(outputs_t)
    for u, v in sorted(graph.edges):
        if graph.owner[u] is graph.owner[v]:
            raise ValidationError(f"edge ({u!r}, {v!r}) breaks P1/P2 alternation")
    for s in graph.states:
        lab = graph.label[s]
        allowed = in_set if graph.owner[s] is Owner.P1 else out_set
        extra = sorted(lab - allowed)
        if extra:
            side = "inputs" if graph.owner[s] is Owner.P1 else "outputs"
            raise ValidationError(f"state {s!r}: label {extra[0]!r} not among {side}")

    for s in graph.states:
        seen: dict[Letter, str] = {}
        for t in graph.succ(s):
            lab = graph.label[t]
            if lab in seen:
                raise ValidationError(
                    f"state {s!r}: successors {seen[lab]!r} and {t!r} share a label"
                )
            seen[lab] = t
        expected = out_set if graph.owner[s] is Owner.P1 else in_set
        for letter in all_letters(expected):
            if letter not in seen:
                raise ValidationError(
                    f"state {s!r}: no successor labeled {{{','.join(sorted(letter))}}}"
                )

    objective.validate_against(graph)
    return SynthesisGame(graph=graph, inputs=inputs_t, outputs=outputs_t, objective=objective)


def letter_successor(sg: SynthesisGame, s: str, letter: Letter) -> str:
    """Unique successor of ``s`` carrying ``letter`` (exists by completeness)."""
    for t in sg.graph.succ(s):
        if sg.graph.label[t] == letter:
            return t
    raise ValidationError(f"state {s!r}: no successor labeled {sorted(letter)}")


# ---------------------------------------------------------------------------
# Lassos


@dataclass(frozen=True)
class LassoPlay:
    """Ultimately periodic play stem . cycle^omega, as state ids."""

    stem: tuple[str, ...]
    cycle: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.cycle:
            raise ValidationError("lasso play: empty cycle")

    def first(self) -> str:
        return self.stem[0] if self.stem else self.cycle[0]

    def transitions(self) -> list[Edge]:
        """Every consecutive pair, including stem->cycle joint and wrap."""
        seq = list(self.stem) + list(self.cycle)
        pairs = list(zip(seq, seq[1:]))
        pairs.append((self.cycle[-1], self.cycle[0]))
        return pairs

    def state_at(self, i: int) -> str:
        if i < len(self.stem):
            return self.stem[i]
        return self.cycle[(i - len(self.stem)) % len(self.cycle)]


@dataclass(frozen=True)
class LassoWord:
    """Ultimately periodic word stem . cycle^omega, as letters."""

    stem: tuple[Letter, ...]
    cycle: tuple[Letter, ...]

    def __post_init__(self) -> None:
        if not self.cycle:
            raise ValidationError("lasso word: empty cycle")

    def letter_at(self, i: int) -> Letter:
        if i < len(self.stem):
            return self.stem[i]
        return self.cycle[(i - len(self.stem)) % len(self.cycle)]

    def props(self) -> frozenset[str]:
        out: set[str] = set()
        for letter in self.stem + self.cycle:
            out |= letter
        return frozenset(out)


def validate_play(g: GameGraph, play: LassoPlay) -> None:
    for s in list(play.stem) + list(play.cycle):
        if s not in g.owner:
            raise ValidationError(f"play mentions unknown state {s!r}")
    for u, v in play.transitions():
        if (u, v) not in g.edges:
            raise ValidationError(f"play uses missing edge ({u!r}, {v!r})")


def word_of_play(sg: SynthesisGame, play: LassoPlay) -> LassoWord:
    """Letter i of the word joins the labels at play positions 2i+1 and 2i+2
    (the output the system emitted, then the input the environment chose);
    the initial state's label is ignored."""
    validate_play(sg.graph, play)
    if play.first() != sg.initial:
        raise ValidationError(
            f"play starts at {play.first()!r}, expected initial {sg.initial!r}"
        )
    g = sg.graph
    seq = list(play.stem) + list(play.cycle)
    for a, b in zip(seq, seq[1:] + [play.cycle[0]]):
        if g.owner[a] is g.owner[b]:
            raise ValidationError(f"play breaks alternation at ({a!r}, {b!r})")
    # Alternation makes every cycle even-length, so the word is periodic with
    # half the play period and no extra unrolling is ever needed.
    m, c = len(play.stem), len(play.cycle)
    if c % 2 != 0:
        raise ValidationError("alternating play cycle has odd length")
    stem_len = (m + 1) // 2
    cycle_len = c // 2
    letters = [
        g.label[play.state_at(2 * i + 1)] | g.label[play.state_at(2 * i + 2)]
        for i in range(stem_len + cycle_len)
    ]
    return LassoWord(stem=tuple(letters[:stem_len]), cycle=tuple(letters[stem_len:]))


# ---------------------------------------------------------------------------
# Strategies


@dataclass(frozen=True)
class MemorylessStrategy:
    player: Owner
    choice: Mapping[str, str]

    def __post_init__(self) -> None:
        if self.player not in (Owner.P1, Owner.P2):
            raise StrategyError("strategies belong to P1 or P2")

    def move(self, s: str) -> str:
        if s not in self.choice:
            raise StrategyError(f"strategy has no move at {s!r}")
        return self.choice[s]


def check_strategy(g: GameGraph, strat: MemorylessStrategy, total: bool = True) -> None:
    for s, t in strat.choice.items():
        if s not in g.owner:
            raise StrategyError(f"strategy maps unknown state {s!r}")
        if g.owner[s] is not strat.player:
            raise StrategyError(f"strategy for {strat.player.value} maps foreign state {s!r}")
        if (s, t) not in g.edges:
            raise StrategyError(f"strategy chooses missing edge ({s!r}, {t!r})")
    if total:
        for s in g.states_of(strat.player):
            if s not in strat.choice:
                raise StrategyError(f"strategy undefined on {s!r}")


def induced_structure(
    g: GameGraph,
    alpha: MemorylessStrategy | None,
    beta: MemorylessStrategy | None = None,
) -> GameGraph:
    """Subgraph where each fixed player keeps only the chosen edge.

    With both players fixed on a probabilistic graph this is a Markov chain;
    on a deterministic graph every state then has out-degree one.
    """
    fixed: dict[str, str] = {}
    for strat in (alpha, beta):
        if strat is None:
            continue
        check_strategy(g, strat, total=True)
        fixed.update(strat.choice)
    edges = frozenset((u, v) for u, v in g.edges if u not in fixed or fixed[u] == v)
    return GameGraph(g.states, g.owner, edges, g.dist, g.priority, g.label, g.initial)


# ---------------------------------------------------------------------------
# Transducers


@dataclass(frozen=True)
class MooreTransducer:
    """Finite-state machine emitting an output letter per state; the system
    side of a synthesis game (inputs 2^I, outputs 2^O)."""

    states: tuple[str, ...]
    initial: str
    input_props: tuple[str, ...]
    output: Mapping[str, Letter]
    transition: Mapping[tuple[str, Letter], str]

    def __post_init__(self) -> None:
        for q in self.states:
            if q not in self.output:
                raise ValidationError(f"transducer state {q!r}: no output")
            for letter in all_letters(self.input_props):
                if (q, letter) not in self.transition:
                    raise ValidationError(
                        f"transducer state {q!r}: no transition on {sorted(letter)}"
                    )
        if self.initial not in self.states:
            raise ValidationError("transducer initial state unknown")


@dataclass(frozen=True)
class MealyTransducer:
    """Finite-state machine emitting an output letter per transition; the
    environment side of a synthesis game (inputs 2^O, outputs 2^I)."""

    states: tuple[str, ...]
    initial: str
    input_props: tuple[str, ...]
    output: Mapping[tuple[str, Letter], Letter]
    transition: Mapping[tuple[str, Letter], str]

    def __post_init__(self) -> None:
        for q in self.states:
            for letter in all_letters(self.input_props):
                if (q, letter) not in self.transition:
                    raise ValidationError(
                        f"transducer state {q!r}: no transition on {sorted(letter)}"
                    )
                if (q, letter) not in self.output:
                    raise ValidationError(
                        f"transducer state {q!r}: no output on {sorted(letter)}"
                    )
        if self.initial not in self.states:
            raise ValidationError("transducer initial state unknown")


def strategy_to_moore(sg: SynthesisGame, alpha: MemorylessStrategy) -> MooreTransducer:
    """View a memoryless P1 strategy as a Moore machine over the P1 states:
    the output at q is the label of the chosen successor, and reading input
    letter l moves to the unique l-labeled successor of that choice."""
    if alpha.player is not Owner.P1:
        raise StrategyError("strategy_to_moore needs a P1 strategy")
    check_strategy(sg.graph, alpha, total=True)
    g = sg.graph
    p1 = g.states_of(Owner.P1)
    output: dict[str, Letter] = {}
    transition: dict[tuple[str, Letter], str] = {}
    for q in p1:
        mid = alpha.move(q)
        output[q] = g.label[mid]
        for letter in all_letters(sg.inputs):
            transition[(q, letter)] = letter_successor(sg, mid, letter)
    return MooreTransducer(
        states=p1,
        initial=sg.initial,
        input_props=sg.inputs,
        output=output,
        transition=transition,
    )


def compose_moore_mealy(system: MooreTransducer, env: MealyTransducer) -> LassoWord:
    """Run the closed loop system||environment and return the lasso word it
    spells.  Each step the system emits first, the environment answers."""
    q, m = system.initial, env.initial
    seen: dict[tuple[str, str], int] = {}
    letters: list[Letter] = []
    while (q, m) not in seen:
        seen[(q, m)] = len(letters)
        out = system.output[q]
        inp = env.output[(m, out)]
        letters.append(frozenset(out | inp))
        q = system.transition[(q, inp)]
        m = env.transition[(m, out)]
    start = seen[(q, m)]
    return LassoWord(stem=tuple(letters[:start]), cycle=tuple(letters[start:]))


# ---------------------------------------------------------------------------
# JSON interchange


def _fraction_to_str(w: Fraction) -> str:
    return f"{w.numerator}/{w.denominator}"


def _weight_from_json(raw: object, where: str) -> Fraction:
    try:
        return Fraction(raw)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise FormatError(f"{where}: bad weight {raw!r} ({exc})") from None


def _objective_to_json(obj: Objective) -> dict:
    if obj.kind is ObjectiveKind.PARITY:
        return {
            "kind": obj.kind.value,
            "priorities": {s: p for s, p in sorted(obj.priority.items())},
        }
    return {"kind": obj.kind.value, "target": sorted(obj.target)}


def _objective_from_json(raw: dict, g: GameGraph) -> Objective:
    if not isinstance(raw, dict) or "kind" not in raw:
        raise FormatError("objective: expected an object with a \"kind\" field")
    try:
        kind = ObjectiveKind(raw["kind"])
    except ValueError:
        raise FormatError(f"objective: unknown kind {raw['kind']!r}") from None
    if kind is ObjectiveKind.PARITY:
        prio = raw.get("priorities")
        if prio is None:
            # Fall back to the per-state priorities carried by the graph.
            prio = dict(g.priority)
        if not isinstance(prio, dict):
            raise FormatError("objective.priorities: expected an object")
        try:
            obj = Objective.parity(prio)
        except ValidationError as exc:
            raise FormatError(f"objective.priorities: {exc}") from None
    else:
        target = raw.get("target")
        if not isinstance(target, list) or not all(isinstance(s, str) for s in target):
            raise FormatError("objective.target: expected a list of state ids")
        obj = Objective(kind, frozenset(target))
    obj.validate_against(g)
    return obj


def dump_game(
    g: GameGraph | SynthesisGame,
    objective: Objective | None = None,
) -> str:
    """Canonical JSON text; identical structures serialize byte-identically."""
    if isinstance(g, SynthesisGame):
        if objective is not None:
            raise ValidationError("synthesis games carry their own objective")
        graph, objective = g.graph, g.objective
    else:
        graph = g
    doc: dict = {}
    doc["states"] = [
        {
            "id": s,
            "owner": graph.owner[s].value,
            "priority": graph.priority[s],
            **({"label": sorted(graph.label[s])} if graph.label[s] else {}),
        }
        for s in graph.states
    ]
    doc["edges"] = [[u, v] for u, v in sorted(graph.edges)]
    if graph.dist:
        doc["dist"] = {
            s: {t: _fraction_to_str(w) for t, w in sorted(graph.dist[s].items())}
            for s in sorted(graph.dist)
        }
    if graph.initial is not None:
        doc["initial"] = graph.initial
    if objective is not None:
        doc["objective"] = _objective_to_json(objective)
    if isinstance(g, SynthesisGame):
        doc["inputs"] = list(g.inputs)
        doc["outputs"] = list(g.outputs)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def parse_game_file(text: str) -> tuple[GameGraph | SynthesisGame, Objective | None]:
    """Parse game JSON; returns the structure plus the file's objective (the
    latter is redundant for synthesis games, and None when absent)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise FormatError("top level: nesting too deep") from None
    if not isinstance(doc, dict):
        raise FormatError("top level: expected an object")
    if doc.get("initial") is not None and not isinstance(doc["initial"], str):
        raise FormatError("initial: expected a state id")
    if "states" not in doc or not isinstance(doc["states"], list) or not doc["states"]:
        raise FormatError("states: expected a nonempty list")

    states: list[str] = []
    owner: dict[str, str] = {}
    priority: dict[str, int] = {}
    label: dict[str, list[str]] = {}
    for i, rec in enumerate(doc["states"]):
        where = f"states[{i}]"
        if not isinstance(rec, dict) or "id" not in rec or "owner" not in rec:
            raise FormatError(f"{where}: expected an object with id and owner")
        sid = rec["id"]
        if not isinstance(sid, str) or not sid:
            raise FormatError(f"{where}: id must be a nonempty string")
        if sid in owner:
            raise FormatError(f"{where}: duplicate state id {sid!r}")
        if rec["owner"] not in ("P1", "P2", "PROB"):
            raise FormatError(f"{where}: owner must be P1, P2 or PROB")
        states.append(sid)
        owner[sid] = rec["owner"]
        if "priority" in rec:
            if not _is_priority(rec["priority"]):
                raise FormatError(f"{where}: priority must be a natural number")
            priority[sid] = rec["priority"]
        if "label" in rec:
            if not isinstance(rec["label"], list) or not all(
                isinstance(p, str) for p in rec["label"]
            ):
                raise FormatError(f"{where}: label must be a list of proposition names")
            label[sid] = rec["label"]

    if "edges" not in doc or not isinstance(doc["edges"], list):
        raise FormatError("edges: expected a list")
    edges: list[Edge] = []
    for i, pair in enumerate(doc["edges"]):
        if not (isinstance(pair, list) and len(pair) == 2
                and isinstance(pair[0], str) and isinstance(pair[1], str)):
            raise FormatError(f"edges[{i}]: expected a [src, dst] pair")
        edges.append((pair[0], pair[1]))

    raw_dist = doc.get("dist") or {}
    if not isinstance(raw_dist, dict):
        raise FormatError("dist: expected an object")
    dist: dict[str, dict[str, Fraction]] = {}
    for s, row in raw_dist.items():
        if not isinstance(row, dict):
            raise FormatError(f"dist[{s!r}]: expected an object")
        dist[s] = {t: _weight_from_json(w, f"dist[{s!r}][{t!r}]") for t, w in row.items()}

    try:
        graph = build_graph(
            states=states,
            owner=owner,
            edges=edges,
            dist=dist,
            priority=priority,
            label=label,
            initial=doc.get("initial"),
        )
    except ValidationError as exc:
        raise FormatError(str(exc)) from None

    objective = None
    if "objective" in doc:
        objective = _objective_from_json(doc["objective"], graph)

    if "inputs" in doc or "outputs" in doc:
        if objective is None:
            raise FormatError("synthesis game: missing objective")
        for key in ("inputs", "outputs"):
            props = doc.get(key)
            if not isinstance(props, list) or not all(isinstance(p, str) for p in props):
                raise FormatError(f"{key}: expected a list of proposition names")
        try:
            sg = build_synthesis_game(graph, doc["inputs"], doc["outputs"], objective)
        except ValidationError as exc:
            raise FormatError(str(exc)) from None
        return sg, objective
    return graph, objective


def parse_game(text: str) -> GameGraph | SynthesisGame:
    return parse_game_file(text)[0]


# ---------------------------------------------------------------------------
# DOT export


_SHAPE = {Owner.P1: "ellipse", Owner.P2: "box", Owner.PROB: "diamond"}


def to_dot(
    g: GameGraph,
    objective: Objective | None = None,
    forbidden: Iterable[Edge] = (),
    fair: Iterable[Edge] = (),
) -> str:
    """GraphViz text: P1 ellipses, P2 boxes, PROB diamonds; forbidden edges
    dashed, fair edges bold; probabilistic edges annotated with weights."""
    forbidden = set(forbidden)
    fair = set(fair)
    lines = ["digraph game {"]
    if g.initial is not None:
        lines.append("  __init [shape=point, label=\"\"];")
    for s in g.states:
        bits = [f"shape={_SHAPE[g.owner[s]]}"]
        text = s + f"\\np={g.priority[s]}"
        if g.label[s]:
            text += "\\n{" + ",".join(sorted(g.label[s])) + "}"
        if objective is not None and objective.kind is not ObjectiveKind.PARITY:
            if s in objective.target:
                bits.append("peripheries=2")
        bits.append(f'label="{text}"')
        lines.append(f'  "{s}" [{", ".join(bits)}];')
    if g.initial is not None:
        lines.append(f'  __init -> "{g.initial}";')
    for u, v in sorted(g.edges):
        attrs = []
        if (u, v) in forbidden:
            attrs.append("style=dashed")
        if (u, v) in fair:
            attrs.append("style=bold")
        if u in g.dist:
            attrs.append(f'label="{_fraction_to_str(g.dist[u][v])}"')
        suffix = f' [{", ".join(attrs)}]' if attrs else ""
        lines.append(f'  "{u}" -> "{v}"{suffix};')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Lasso-word text syntax (CLI surface): letters as {p1,p2}, stem|cycle


_LETTER_RE = re.compile(r"\{([^{}]*)\}")


def _parse_letter_list(text: str, where: str) -> list[Letter]:
    letters: list[Letter] = []
    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _LETTER_RE.match(text, pos)
        if m is None:
            raise FormatError(f"{where}: expected a {{...}} letter at position {pos}")
        inner = m.group(1).strip()
        props = [p.strip() for p in inner.split(",")] if inner else []
        if any(not p for p in props):
            raise FormatError(f"{where}: empty proposition name in {m.group(0)!r}")
        letters.append(frozenset(props))
        pos = m.end()
        rest = text[pos:].lstrip()
        if rest.startswith(","):
            rest = rest[1:]
            if not rest.strip():
                raise FormatError(f"{where}: trailing comma")
            pos = len(text) - len(rest)
        elif rest:
            raise FormatError(f"{where}: unexpected text {rest[:10]!r}")
        else:
            pos = len(text)
    return letters


def parse_word(text: str) -> LassoWord:
    """Parse ``{a,b},{}|{c}`` style lasso words (stem before ``|``, cycle after)."""
    if text.count("|") != 1:
        raise FormatError("word: expected exactly one '|' separating stem and cycle")
    stem_text, cycle_text = text.split("|")
    stem = _parse_letter_list(stem_text, "word stem")
    cycle = _parse_letter_list(cycle_text, "word cycle")
    if not cycle:
        raise FormatError("word cycle: at least one letter required")
    return LassoWord(stem=tuple(stem), cycle=tuple(cycle))


def format_word(w: LassoWord) -> str:
    def fmt(letters: tuple[Letter, ...]) -> str:
        return ",".join("{" + ",".join(sorted(l)) + "}" for l in letters)

    return fmt(w.stem) + "|" + fmt(w.cycle)
