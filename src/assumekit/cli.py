"""Command-line front door.

Every command prints one JSON report: the command echo, a digest of the
input, the result payload, the seed (generators only), and the elapsed
time.  Payloads are canonical, so identical inputs and flags reproduce
byte-identical payloads; only timing varies.  With --dot the commands that
produce a graph print GraphViz text instead of the report.

Exit codes: 0 success, 2 parse/validation problems, 3 internal invariant
breach or internal error, 4 unsatisfiable specification, 5 no sufficient
fair assumption.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from typing import Callable

from .benchgen import gen_3sat_game, parse_dimacs, random_game
from .errors import (
    AssumeKitError,
    FormatError,
    GuardError,
    InternalInvariantError,
    NoFairAssumptionError,
    StrategyError,
    UnsatisfiableError,
    ValidationError,
    WitnessError,
)
from .fairness import assume_fair_win, locally_minimal_fair
from .game import (
    Edge,
    GameGraph,
    Objective,
    ObjectiveKind,
    SynthesisGame,
    check_state,
    dump_game,
    parse_game_file,
    parse_word,
    to_dot,
)
from .pipeline import (
    automaton_dot,
    combined_assumption,
    dump_automaton,
    lasso_member,
    parse_automaton,
)
from .safety import compute_safety_assumption
from .solvers import solve
from .stochastic import almost_sure_parity

_EXIT_BY_ERROR = [
    (InternalInvariantError, 3),
    (UnsatisfiableError, 4),
    (NoFairAssumptionError, 5),
    ((FormatError, ValidationError, StrategyError, GuardError, WitnessError), 2),
]


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _read(path: str) -> tuple[str, str]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise FormatError(f"{path}: {exc.strerror or exc}") from None
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return text, _digest(raw)


def _parse_edges(text: str) -> list[Edge]:
    edges: list[Edge] = []
    if not text.strip():
        return edges
    for chunk in text.split(","):
        if ">" not in chunk:
            raise FormatError(f"edge {chunk!r}: expected \"src>dst\"")
        u, v = chunk.split(">", 1)
        u, v = u.strip(), v.strip()
        if not u or not v:
            raise FormatError(f"edge {chunk!r}: empty endpoint")
        edges.append((u, v))
    return edges


def _parse_objective_override(text: str, g: GameGraph) -> Objective:
    kind_text, _, target_text = text.partition(":")
    by_name = {k.value.lower(): k for k in ObjectiveKind}
    kind = by_name.get(kind_text.lower())
    if kind is None:
        raise FormatError(f"objective override: unknown kind {kind_text!r}") from None
    if kind is ObjectiveKind.PARITY:
        obj = Objective.parity(dict(g.priority))
    else:
        target = [s.strip() for s in target_text.split(",") if s.strip()]
        obj = Objective(kind, frozenset(target))
    obj.validate_against(g)
    return obj


def _load_game(path: str, override: str | None) -> tuple[GameGraph, Objective, str]:
    text, digest = _read(path)
    parsed, objective = parse_game_file(text)
    graph = parsed.graph if isinstance(parsed, SynthesisGame) else parsed
    if override is not None:
        objective = _parse_objective_override(override, graph)
    if objective is None:
        raise FormatError(f"{path}: no objective in file (use --objective-override)")
    return graph, objective, digest


def _strategy_json(choice) -> dict:
    return {s: t for s, t in sorted(choice.items())}


def _edges_json(edges) -> list[list[str]]:
    return [[u, v] for u, v in sorted(edges)]


def cmd_solve(args: argparse.Namespace) -> tuple[dict, str, int | None, str | None]:
    graph, objective, digest = _load_game(args.file, args.objective_override)
    dot = to_dot(graph, objective) if args.dot else None
    if graph.deterministic:
        res = solve(graph, objective)
        payload = {
            "win1": sorted(res.win1),
            "win2": sorted(res.win2),
            "strategy1": _strategy_json(res.strat1.choice),
            "strategy2": _strategy_json(res.strat2.choice),
        }
    else:
        if not objective.parity_class:
            raise ValidationError(
                "probabilistic games support parity-class objectives only"
            )
        prio = dict(objective.as_parity(graph).priority)
        win, strat = almost_sure_parity(graph, prio)
        payload = {
            "almost_sure": sorted(win),
            "strategy1": _strategy_json(strat.choice),
        }
    return payload, digest, None, dot


def cmd_assume(args: argparse.Namespace) -> tuple[dict, str, int | None, str | None]:
    text, digest = _read(args.file)
    parsed, objective = parse_game_file(text)

    if args.mode == "combined":
        if not isinstance(parsed, SynthesisGame):
            raise FormatError(f"{args.file}: combined mode needs a synthesis game")
        result = combined_assumption(parsed)
        doc = json.loads(dump_automaton(result.automaton))
        payload = {
            "forbidden": _edges_json(result.safety.edges),
            "fair": _edges_json(result.fairness.edges),
            "safe_region": sorted(result.safety.safe_region),
            "strategy": _strategy_json(result.strategy.choice),
            "automaton": doc,
        }
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(dump_automaton(result.automaton))
            payload["output"] = args.output
        dot = automaton_dot(result.automaton) if args.dot else None
        return payload, digest, None, dot

    graph = parsed.graph if isinstance(parsed, SynthesisGame) else parsed
    if args.objective_override is not None:
        objective = _parse_objective_override(args.objective_override, graph)
    if objective is None:
        raise FormatError(f"{args.file}: no objective in file (use --objective-override)")

    if args.mode == "safety":
        res = compute_safety_assumption(graph, objective)
        payload = {
            "edges": _edges_json(res.edges),
            "safe_region": sorted(res.safe_region),
        }
        dot = to_dot(graph, objective, forbidden=sorted(res.edges)) if args.dot else None
        return payload, digest, None, dot

    state = args.state if args.state is not None else graph.initial
    if state is None:
        raise FormatError("fair mode needs --state (file has no initial state)")
    fair = locally_minimal_fair(graph, objective, state)
    if fair is None:
        raise NoFairAssumptionError(
            f"no strong-fairness assumption makes {state!r} winning"
        )
    payload = {
        "edges": _edges_json(fair.edges),
        "winning_from": sorted(fair.winning_from),
    }
    dot = to_dot(graph, objective, fair=sorted(fair.edges)) if args.dot else None
    return payload, digest, None, dot


def cmd_check(args: argparse.Namespace) -> tuple[dict, str, int | None, str | None]:
    graph, objective, digest = _load_game(args.file, args.objective_override)
    check_state(graph, args.state)
    edges = _parse_edges(args.fair_edges)
    win, _ = assume_fair_win(graph, objective, edges)
    payload = {
        "state": args.state,
        "fair": _edges_json(edges),
        "sufficient": args.state in win,
    }
    return payload, digest, None, None


def cmd_gen(args: argparse.Namespace) -> tuple[dict, str, int | None, str | None]:
    seed: int | None = None
    if args.three_sat is not None:
        text, digest = _read(args.three_sat)
        cnf = parse_dimacs(text)
        inst = gen_3sat_game(cnf)
        graph, objective = inst.graph, inst.objective
        payload = {
            "k": inst.k,
            "initial": inst.initial,
            "states": len(graph.states),
            "edges": len(graph.edges),
        }
    else:
        seed = args.seed
        if seed is None:
            seed = int(os.environ.get("ASSUMEKIT_SEED", "0"))
        graph = random_game(
            num_states=args.states,
            edge_density=args.density,
            num_priorities=args.priorities,
            prob_fraction=args.prob_fraction,
            seed=seed,
        )
        objective = None
        key = (
            f"random:{args.states}:{args.density}:{args.priorities}"
            f":{args.prob_fraction}:{seed}"
        )
        digest = _digest(key.encode("utf-8"))
        payload = {
            "initial": graph.initial,
            "states": len(graph.states),
            "edges": len(graph.edges),
        }
    doc_text = dump_game(graph, objective)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(doc_text)
        payload["output"] = args.output
    else:
        payload["game"] = json.loads(doc_text)
    dot = to_dot(graph, objective) if args.dot else None
    return payload, digest, seed, dot


def cmd_member(args: argparse.Namespace) -> tuple[dict, str, int | None, str | None]:
    text, digest = _read(args.file)
    automaton = parse_automaton(text)
    word = parse_word(args.word)
    payload = {"word": args.word, "accept": lasso_member(automaton, word)}
    return payload, digest, None, None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="assumekit",
        description="Environment assumptions for unrealizable synthesis games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a game file")
    p.add_argument("file")
    p.add_argument("--objective-override", metavar="KIND[:s1,s2]")
    p.add_argument("--dot", action="store_true", help="print GraphViz instead of JSON")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("assume", help="compute an environment assumption")
    p.add_argument("file")
    p.add_argument("--mode", choices=["safety", "fair", "combined"], default="combined")
    p.add_argument("--state", help="state for fair mode (default: initial)")
    p.add_argument("--objective-override", metavar="KIND[:s1,s2]")
    p.add_argument("-o", "--output", help="write the automaton file here")
    p.add_argument("--dot", action="store_true")
    p.set_defaults(func=cmd_assume)

    p = sub.add_parser("check", help="is a fair-edge set sufficient for a state")
    p.add_argument("file")
    p.add_argument("--fair-edges", required=True, metavar="a>b,c>d")
    p.add_argument("--state", required=True)
    p.add_argument("--objective-override", metavar="KIND[:s1,s2]")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("gen", help="generate benchmark games")
    kind = p.add_mutually_exclusive_group(required=True)
    kind.add_argument("--three-sat", metavar="DIMACS")
    kind.add_argument("--random", action="store_true")
    p.add_argument("--states", type=int, default=6)
    p.add_argument("--density", type=float, default=0.3)
    p.add_argument("--priorities", type=int, default=3)
    p.add_argument("--prob-fraction", type=float, default=0.0)
    p.add_argument("--seed", type=int, help="default: ASSUMEKIT_SEED or 0")
    p.add_argument("-o", "--output", help="write the game file here")
    p.add_argument("--dot", action="store_true")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("member", help="lasso word membership in an assumption")
    p.add_argument("file", help="assumption automaton file")
    p.add_argument("--word", required=True, metavar="stem|cycle")
    p.set_defaults(func=cmd_member)

    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    args = parser.parse_args(argv)
    func: Callable = args.func
    start = time.perf_counter()
    try:
        payload, digest, seed, dot = func(args)
    except AssumeKitError as exc:
        for kinds, code in _EXIT_BY_ERROR:
            if isinstance(exc, kinds):
                print(f"assumekit: {exc}", file=sys.stderr)
                return code
        print(f"assumekit: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # Backstop for the exit-code contract: a failure outside the error
        # hierarchy is a bug, reported as an internal error, not a traceback.
        print(f"assumekit: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    elapsed_ms = round((time.perf_counter() - start) * 1000, 3)
    text = dot
    if text is None:
        report = {
            "command": " ".join(argv),
            "input_digest": digest,
            "payload": payload,
            "seed": seed,
            "timing_ms": elapsed_ms,
        }
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left early (``| head``): not an error.  Later flushes,
        # the interpreter's final one included, go to devnull.
        sys.stdout = open(os.devnull, "w")
    return 0


if __name__ == "__main__":
    sys.exit(main())
