"""Benchmark instances: a 3SAT reduction and seeded random games.

The reduction builds a Buchi game whose fairness question encodes
satisfiability: the environment walks a monotone grid and picks which
variable or clause to challenge, the system answers with a literal, and
the environment then decides between the accepting bucket state and its
rejecting twin.  A fair-edge budget of one edge per variable suffices
exactly for the satisfiable formulas; among the literal-to-bucket edges
the sufficient budget-respecting sets are exactly the satisfying
assignments (with redundant variables, budget sets mixing in grid edges
can also suffice, so the correspondence is scoped to literal edges).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from random import Random
from typing import Iterable, Mapping

from .errors import FormatError, GuardError, ValidationError
from .fairness import assume_fair_win
from .game import Edge, GameGraph, Objective, Owner, build_graph


@dataclass(frozen=True)
class Cnf:
    """Conjunctive normal form with at most three literals per clause;
    literal k > 0 is variable k, -k its negation."""

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.num_vars < 0:
            raise ValidationError("negative variable count")
        for i, clause in enumerate(self.clauses):
            if not 1 <= len(clause) <= 3:
                raise ValidationError(f"clause {i}: expected 1 to 3 literals")
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise ValidationError(f"clause {i}: literal {lit} out of range")


def parse_dimacs(text: str) -> Cnf:
    num_vars = num_clauses = None
    pending: list[int] = []
    clauses: list[tuple[int, ...]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise FormatError(f"line {lineno}: expected header \"p cnf <vars> <clauses>\"")
            try:
                num_vars, num_clauses = int(parts[2]), int(parts[3])
            except ValueError:
                raise FormatError(f"line {lineno}: non-numeric header") from None
            continue
        if num_vars is None:
            raise FormatError(f"line {lineno}: clause before header")
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise FormatError(f"line {lineno}: bad literal {tok!r}") from None
            if lit == 0:
                clauses.append(tuple(pending))
                pending = []
            else:
                pending.append(lit)
    if num_vars is None:
        raise FormatError("missing \"p cnf\" header")
    if pending:
        raise FormatError("last clause not terminated by 0")
    if num_clauses != len(clauses):
        raise FormatError(f"header announces {num_clauses} clauses, found {len(clauses)}")
    try:
        return Cnf(num_vars=num_vars, clauses=tuple(clauses))
    except ValidationError as exc:
        raise FormatError(str(exc)) from None


def satisfiable(f: Cnf, max_vars: int = 16) -> bool:
    if f.num_vars > max_vars:
        raise GuardError(f"satisfiable: {f.num_vars} variables exceeds {max_vars}")
    for bits in product((False, True), repeat=f.num_vars):
        sigma = {i + 1: bits[i] for i in range(f.num_vars)}
        if all(any(sigma[abs(l)] == (l > 0) for l in clause) for clause in f.clauses):
            return True
    return False


def _grid_id(row: int, col: int) -> str:
    return f"{row}{col}" if row <= 9 and col <= 9 else f"{row}.{col}"


@dataclass(frozen=True)
class ThreeSatGame:
    graph: GameGraph
    objective: Objective
    initial: str
    k: int


def gen_3sat_game(f: Cnf) -> ThreeSatGame:
    """Buchi game with 3n + c + (j+1)(j+2)/2 states and 6n + 2c + (j+1)^2
    edges for n variables and c clauses, j = n + c.  The formula is
    satisfiable iff some set of at most k = n fair environment edges makes
    the start corner winning."""
    n, c = f.num_vars, len(f.clauses)
    if n < 1 or c < 1:
        raise ValidationError("reduction needs at least one variable and one clause")
    j = n + c

    def height(col: int) -> int:
        return col + 1 if col < j else j

    states: list[str] = []
    owner: dict[str, Owner] = {}
    edges: list[Edge] = []

    for col in range(1, j + 1):
        for row in range(1, height(col) + 1):
            cell = _grid_id(row, col)
            states.append(cell)
            owner[cell] = Owner.P2
    # Every row runs unbroken to its exit; descent below the first clause
    # row happens before the last column.  Trimming those last-column drops
    # keeps the edge count exact without ever funnelling the environment:
    # from any cell it can still reach every exit at or below its row, which
    # is what makes undersized fair sets refutable when the formula is not
    # satisfiable.
    for col in range(1, j + 1):
        for row in range(1, height(col)):
            if col == j and row > n:
                continue
            edges.append((_grid_id(row, col), _grid_id(row + 1, col)))
    for col in range(1, j):
        for row in range(1, height(col) + 1):
            edges.append((_grid_id(row, col), _grid_id(row, col + 1)))

    exits = [f"v{i}" for i in range(1, n + 1)] + [f"c{m}" for m in range(1, c + 1)]
    for row in range(1, j + 1):
        edges.append((_grid_id(row, j), exits[row - 1]))

    states.extend(["B", "Bbar"])
    owner["B"] = owner["Bbar"] = Owner.P2
    edges.append(("B", _grid_id(1, 1)))
    edges.append(("Bbar", _grid_id(1, 1)))

    for i in range(1, n + 1):
        states.extend([f"v{i}", f"l{i}", f"nl{i}"])
        owner[f"v{i}"] = Owner.P1
        owner[f"l{i}"] = owner[f"nl{i}"] = Owner.P2
        edges.extend([(f"v{i}", f"l{i}"), (f"v{i}", f"nl{i}")])
        for lit in (f"l{i}", f"nl{i}"):
            edges.extend([(lit, "B"), (lit, "Bbar")])

    for m, clause in enumerate(f.clauses, start=1):
        states.append(f"c{m}")
        owner[f"c{m}"] = Owner.P1
        succ: list[str] = []
        for lit in clause:
            sid = f"l{lit}" if lit > 0 else f"nl{-lit}"
            if sid not in succ:
                succ.append(sid)
        for pad in ("Bbar", _grid_id(1, 1)):
            if len(succ) < 3:
                succ.append(pad)
        edges.extend((f"c{m}", t) for t in succ)

    graph = GameGraph(
        states=tuple(sorted(states)),
        owner=owner,
        edges=frozenset(edges),
        dist={},
        priority={s: 0 if s == "B" else 1 for s in states},
        label=dict.fromkeys(states, frozenset()),
        initial=_grid_id(1, 1),
    )
    return ThreeSatGame(
        graph=graph,
        objective=Objective.buchi({"B"}),
        initial=_grid_id(1, 1),
        k=n,
    )


def assumption_from_assignment(f: Cnf, assignment: Mapping[int, bool]) -> frozenset[Edge]:
    for i in range(1, f.num_vars + 1):
        if i not in assignment:
            raise ValidationError(f"assignment misses variable {i}")
    return frozenset(
        (f"l{i}" if assignment[i] else f"nl{i}", "B")
        for i in range(1, f.num_vars + 1)
    )


def assignment_from_assumption(f: Cnf, edges: Iterable[Edge]) -> dict[int, bool] | None:
    """Read a fair-edge set back as an assignment; None when some edge is
    not of the literal-to-bucket shape."""
    literal_edges = {(f"l{i}", "B") for i in range(1, f.num_vars + 1)}
    literal_edges |= {(f"nl{i}", "B") for i in range(1, f.num_vars + 1)}
    chosen = set(edges)
    if not chosen <= literal_edges:
        return None
    return {i: (f"l{i}", "B") in chosen for i in range(1, f.num_vars + 1)}


def min_fair_subset_exhaustive(
    g: GameGraph,
    objective: Objective,
    s: str,
    k: int,
    max_edges: int = 16,
) -> frozenset[Edge] | None:
    """Smallest sufficient fair-edge set of size at most k, by exhaustive
    sweep in cardinality order (ties broken lexicographically); None when
    no set within the budget makes ``s`` winning."""
    candidates = sorted(g.player2_edges())
    if len(candidates) > max_edges:
        raise GuardError(
            f"min_fair_subset_exhaustive: {len(candidates)} edges exceeds {max_edges}"
        )
    win, _ = assume_fair_win(g, objective, candidates)
    if s not in win:
        return None
    for size in range(0, k + 1):
        for combo in combinations(candidates, size):
            win, _ = assume_fair_win(g, objective, combo)
            if s in win:
                return frozenset(combo)
    return None


def random_game(
    num_states: int,
    edge_density: float,
    num_priorities: int,
    prob_fraction: float = 0.0,
    seed: int = 0,
) -> GameGraph:
    """Seeded random game; identical arguments always give the same graph.

    Every state gets at least one outgoing edge (a uniformly drawn fallback
    when the density pass leaves a dead end), probabilistic states get the
    uniform distribution over their successors.
    """
    if num_states < 1:
        raise ValidationError("random_game: need at least one state")
    rng = Random(seed)
    ids = [f"s{i:02d}" for i in range(num_states)]
    owner: dict[str, Owner] = {}
    for s in ids:
        if rng.random() < prob_fraction:
            owner[s] = Owner.PROB
        else:
            owner[s] = Owner.P1 if rng.random() < 0.5 else Owner.P2
    edges: set[Edge] = set()
    for u in ids:
        for v in ids:
            if rng.random() < edge_density:
                edges.add((u, v))
    for u in ids:
        if not any(x == u for x, _ in edges):
            edges.add((u, ids[rng.randrange(num_states)]))
    priority = {s: rng.randrange(num_priorities) for s in ids}
    dist: dict[str, dict[str, Fraction]] = {}
    for s in ids:
        if owner[s] is not Owner.PROB:
            continue
        succ = sorted(t for u, t in edges if u == s)
        dist[s] = {t: Fraction(1, len(succ)) for t in succ}
    return build_graph(
        states=ids,
        owner=owner,
        edges=sorted(edges),
        dist=dist,
        priority=priority,
        initial=ids[0],
    )
