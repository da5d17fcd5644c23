"""End-to-end assumption computation and the resulting automaton.

Stages: carve out the minimal non-restrictive safety assumption, redirect
its forbidden edges to a winning sink, re-express the relaxed objective in
parity form, then shrink a strong-fairness assumption over the environment
edges until it is locally minimal.  The result is packaged as an omega
automaton over the synthesis alphabet (the base game structure plus the
forbidden and fair edge sets) together with a witness strategy for the
system and, on demand, a witness transducer for the environment.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Mapping

from .errors import (
    FormatError,
    InternalInvariantError,
    NoFairAssumptionError,
    UnsatisfiableError,
    ValidationError,
    WitnessError,
)
from .fairness import FairAssumption, assume_fair_win, is_live, locally_minimal_fair
from .game import (
    Edge,
    GameGraph,
    LassoWord,
    Letter,
    MealyTransducer,
    MemorylessStrategy,
    Objective,
    ObjectiveKind,
    Owner,
    SynthesisGame,
    all_letters,
    check_p2_edges,
    dump_game,
    induced_structure,
    letter_key,
    letter_successor,
    parse_game_file,
    to_dot,
)
from .graphs import fresh_id, good_components, reachable
from .safety import (
    SafetyAssumption,
    TransformResult,
    assume_safe_transform,
    avoid_region,
    compute_safety_assumption,
)


@dataclass(frozen=True)
class AssumptionAutomaton:
    """Omega automaton over the synthesis alphabet accepting exactly the
    environment behaviors the assumption grants: runs of the deterministic
    base game that never cross a forbidden edge and treat every fair edge
    strongly fairly (a source visited infinitely often has each of its fair
    edges taken infinitely often)."""

    base: SynthesisGame
    forbidden: frozenset[Edge]
    fair: frozenset[Edge]

    def __post_init__(self) -> None:
        check_p2_edges(self.base.graph, self.forbidden, "forbidden")
        check_p2_edges(self.base.graph, self.fair, "fair")
        overlap = self.forbidden & self.fair
        if overlap:
            u, v = min(overlap)
            raise ValidationError(f"edge ({u!r}, {v!r}) is both forbidden and fair")


def lasso_member(a: AssumptionAutomaton, w: LassoWord) -> bool:
    """Decide whether a lasso word is granted by the assumption.

    The deterministic base game is run on the word; the run must enter a
    loop within |stem| + |cycle| * |states| steps, found by repeat detection
    on (cycle phase, game state) pairs.
    """
    sg = a.base
    g = sg.graph
    in_set, out_set = set(sg.inputs), set(sg.outputs)
    unknown = sorted(w.props() - in_set - out_set)
    if unknown:
        raise ValidationError(f"word mentions unknown proposition {unknown[0]!r}")

    m, c = len(w.stem), len(w.cycle)
    bound = m + c * len(g.states) + 1
    state = sg.initial
    edge_hist: list[Edge] = []
    state_hist: list[str] = [state]
    seen: dict[tuple[int, str], int] = {}
    loop_at: int | None = None
    for i in range(bound):
        if i >= m:
            key = ((i - m) % c, state)
            if key in seen:
                loop_at = seen[key]
                break
            seen[key] = i
        letter = w.letter_at(i)
        mid = letter_successor(sg, state, frozenset(letter & out_set))
        nxt = letter_successor(sg, mid, frozenset(letter & in_set))
        edge_hist.append((state, mid))
        edge_hist.append((mid, nxt))
        state_hist.append(mid)
        state_hist.append(nxt)
        state = nxt
    if loop_at is None:
        raise InternalInvariantError("lasso run failed to close within its bound")

    if any(e in a.forbidden for e in edge_hist):
        return False
    loop_edges = set(edge_hist[2 * loop_at:])
    loop_states = set(state_hist[2 * loop_at:])
    return all(u not in loop_states or (u, t) in loop_edges for u, t in sorted(a.fair))


def is_empty(a: AssumptionAutomaton) -> bool:
    """No lasso word is granted.

    A granted word needs a reachable loop, in the graph pruned of forbidden
    edges, that contains every fair edge rooted at one of its states.  Such
    a loop lives inside a single strongly connected component, so SCC
    refinement deletes, per component, the states whose fair edges escape
    it, and the automaton is empty iff no component is left accepted.
    """
    g = a.base.graph
    succ = {
        s: tuple(t for t in g.succ(s) if (s, t) not in a.forbidden)
        for s in g.states
    }
    reach = reachable([a.base.initial], succ)
    fair_out: dict[str, list[str]] = {}
    for u, t in sorted(a.fair):
        fair_out.setdefault(u, []).append(t)

    def escaping(comp: list[str]) -> list[str]:
        comp_set = set(comp)
        return [u for u in comp if any(t not in comp_set for t in fair_out.get(u, ()))]

    return not good_components(sorted(reach), succ, escaping)


@dataclass(frozen=True)
class EnvWitness:
    """Environment-side witness: a Mealy machine whose runs against any
    system all satisfy the assumption, with the game state each memory
    tracks."""

    transducer: MealyTransducer
    state_map: Mapping[str, str]


def env_witness(a: AssumptionAutomaton) -> EnvWitness:
    """Environment strategy realizing the assumption against every system.

    The machine keeps the play inside the region where the forbidden edges
    are avoidable and serves the fair edges of each visited source
    round-robin, so any source visited infinitely often has all its fair
    edges taken infinitely often.
    """
    sg = a.base
    g = sg.graph
    if is_empty(a):
        raise WitnessError("the assumption grants no behavior at all")
    region = avoid_region(g, sorted(a.forbidden))
    if sg.initial not in region:
        raise WitnessError("the forbidden edges cannot be avoided from the initial state")

    fair_out: dict[str, list[str]] = {}
    for u, t in sorted(a.fair):
        fair_out.setdefault(u, []).append(t)
    sources = sorted(fair_out)
    for u in sources:
        fair_out[u].sort(key=lambda t: (letter_key(g.label[t]), t))
        if u in region and any(t not in region for t in fair_out[u]):
            raise WitnessError(f"a fair edge at {u!r} leaves the avoidable region")
    slot = {u: k for k, u in enumerate(sources)}

    def free_choice(mid: str) -> str:
        for t in sorted(g.succ(mid), key=lambda t: (letter_key(g.label[t]), t)):
            if (mid, t) not in a.forbidden and t in region:
                return t
        raise InternalInvariantError(f"no safe move out of {mid!r}")

    out_letters = all_letters(sg.outputs)
    start = (sg.initial, (0,) * len(sources))
    ids: dict[tuple[str, tuple[int, ...]], str] = {start: "m0"}
    state_map: dict[str, str] = {"m0": sg.initial}
    output: dict[tuple[str, Letter], Letter] = {}
    transition: dict[tuple[str, Letter], str] = {}
    queue = deque([start])
    while queue:
        mem = queue.popleft()
        q, counters = mem
        mem_id = ids[mem]
        for letter in out_letters:
            mid = letter_successor(sg, q, letter)
            if mid in fair_out:
                k = slot[mid]
                targets = fair_out[mid]
                t = targets[counters[k]]
                nxt_counters = list(counters)
                nxt_counters[k] = (counters[k] + 1) % len(targets)
                nxt = (t, tuple(nxt_counters))
            else:
                t = free_choice(mid)
                nxt = (t, counters)
            if nxt not in ids:
                ids[nxt] = f"m{len(ids)}"
                state_map[ids[nxt]] = t
                queue.append(nxt)
            output[(mem_id, letter)] = g.label[t]
            transition[(mem_id, letter)] = ids[nxt]

    transducer = MealyTransducer(
        states=tuple(ids.values()),
        initial="m0",
        input_props=sg.outputs,
        output=output,
        transition=transition,
    )
    return EnvWitness(transducer=transducer, state_map=state_map)


def _parity_form(tr: TransformResult) -> tuple[GameGraph, Objective]:
    """Re-express the relaxed objective as parity, faithfully for plays
    starting inside the relevant region: Reach targets become absorbing
    priority-0 states, Safe targets keep priority 0 while every escape is
    redirected to a losing sink."""
    g, obj = tr.graph, tr.objective
    if obj.parity_class:
        return g, Objective.parity(dict(obj.as_parity(g).priority))
    target = obj.target
    prio = {s: 0 if s in target else 1 for s in g.states}
    if obj.kind is ObjectiveKind.REACH:
        edges = {(u, v) for u, v in g.edges if u not in target}
        edges.update((t, t) for t in target)
        graph = GameGraph(
            g.states, g.owner, frozenset(edges), {}, prio, g.label, g.initial
        )
        return graph, Objective.parity(prio)
    used = set(g.states)
    bot = fresh_id("_bot", used)
    edges = set()
    for u, v in g.edges:
        edges.add((u, bot) if u in target and v not in target else (u, v))
    edges.add((bot, bot))
    prio[bot] = 1
    graph = GameGraph(
        states=tuple(sorted(used)),
        owner={**g.owner, bot: Owner.P1},
        edges=frozenset(edges),
        dist={},
        priority=prio,
        label={**g.label, bot: frozenset()},
        initial=g.initial,
    )
    return graph, Objective.parity(prio)


@dataclass(frozen=True)
class CombinedAssumption:
    """Pipeline output: the safety and fairness pieces, their packaging as
    an automaton, and a system strategy on the original graph that wins
    whenever the environment honors the assumption."""

    safety: SafetyAssumption
    fairness: FairAssumption
    automaton: AssumptionAutomaton
    strategy: MemorylessStrategy
    transformed_graph: GameGraph
    transformed_objective: Objective


def combined_assumption(sg: SynthesisGame) -> CombinedAssumption:
    """Compute the combined assumption for a synthesis game.

    Raises UnsatisfiableError when not even full environment cooperation
    rescues the initial state, and NoFairAssumptionError when safety plus
    strong fairness cannot make it winnable.
    """
    g = sg.graph
    objective = sg.objective
    s0 = sg.initial
    safety = compute_safety_assumption(g, objective)
    if s0 not in safety.safe_region:
        raise UnsatisfiableError(
            f"initial state {s0!r} is outside the cooperative winning region"
        )
    tr = assume_safe_transform(g, objective, safety.edges)
    h, h_obj = _parity_form(tr)
    if not is_live(h, h_obj, s0):
        raise InternalInvariantError("initial state lost liveness after the safety stage")

    candidates = sorted(e for e in h.player2_edges() if e in g.edges)
    fair = locally_minimal_fair(h, h_obj, s0, candidates)
    if fair is None:
        raise NoFairAssumptionError(
            "no strong-fairness assumption over the environment edges suffices"
        )
    win, strat = assume_fair_win(h, h_obj, fair.edges)
    if s0 not in win:
        raise InternalInvariantError("minimized fairness assumption failed re-verification")

    # Complete the strategy over the transformed game, then check it wins on
    # its own: fix player 1, leave the environment free, solve again.
    choice = dict(strat.choice)
    for q in h.states_of(Owner.P1):
        if q not in choice:
            choice[q] = h.succ(q)[0]
    fixed = induced_structure(h, MemorylessStrategy(Owner.P1, choice))
    win_fixed, _ = assume_fair_win(fixed, h_obj, fair.edges)
    if s0 not in win_fixed:
        raise InternalInvariantError("witness strategy failed re-verification")

    alpha: dict[str, str] = {}
    for q in g.states_of(Owner.P1):
        t = choice[q]
        if (q, t) not in g.edges:
            t = g.succ(q)[0]
        alpha[q] = t
    automaton = AssumptionAutomaton(base=sg, forbidden=safety.edges, fair=fair.edges)
    return CombinedAssumption(
        safety=safety,
        fairness=fair,
        automaton=automaton,
        strategy=MemorylessStrategy(Owner.P1, alpha),
        transformed_graph=h,
        transformed_objective=h_obj,
    )


# ---------------------------------------------------------------------------
# Interchange


def dump_automaton(a: AssumptionAutomaton) -> str:
    """Canonical JSON: the base synthesis game plus forbidden/fair arrays."""
    doc = json.loads(dump_game(a.base))
    doc["forbidden"] = [[u, v] for u, v in sorted(a.forbidden)]
    doc["fair"] = [[u, v] for u, v in sorted(a.fair)]
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _edge_array(doc: dict, key: str) -> frozenset[Edge]:
    raw = doc.get(key, [])
    if not isinstance(raw, list):
        raise FormatError(f"{key}: expected a list of [src, dst] pairs")
    out: set[Edge] = set()
    for i, pair in enumerate(raw):
        ok = isinstance(pair, list) and len(pair) == 2
        ok = ok and all(isinstance(x, str) for x in pair)
        if not ok:
            raise FormatError(f"{key}[{i}]: expected a [src, dst] pair")
        out.add((pair[0], pair[1]))
    return frozenset(out)


def parse_automaton(text: str) -> AssumptionAutomaton:
    base, _ = parse_game_file(text)
    if not isinstance(base, SynthesisGame):
        raise FormatError("assumption automaton: missing inputs/outputs")
    doc = json.loads(text)
    try:
        return AssumptionAutomaton(
            base=base,
            forbidden=_edge_array(doc, "forbidden"),
            fair=_edge_array(doc, "fair"),
        )
    except ValidationError as exc:
        raise FormatError(str(exc)) from None


def automaton_dot(a: AssumptionAutomaton) -> str:
    return to_dot(
        a.base.graph,
        a.base.objective,
        forbidden=sorted(a.forbidden),
        fair=sorted(a.fair),
    )
