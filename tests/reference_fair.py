"""Code the fairness layer replaced, kept as references for the tests.

``reference_locally_minimal_fair`` is the restart-scan minimisation that
the one-pass ``locally_minimal_fair`` replaced.  After each successful
removal it starts the lexicographic scan again from the first edge, and it
stops when a full scan removes nothing.  Winning under AssumeFair is
monotone in the fair set, so an edge that could not be dropped stays
undroppable once more edges are gone, and the one-pass scan must return the
same edge set and the same winning set.

``reference_witness_wins`` is the pipeline's old re-check of its witness
strategy: fix player 1 with ``induced_structure`` and solve the fairness
question again with ``assume_fair_win``.  The pipeline asked whether its
start state is in the returned set; the tests ask it of every state.
"""

from __future__ import annotations

from typing import Iterable

from assumekit import (
    Edge,
    FairAssumption,
    GameGraph,
    MemorylessStrategy,
    Objective,
    Owner,
    assume_fair_win,
    induced_structure,
)


def reference_locally_minimal_fair(
    g: GameGraph,
    objective: Objective,
    s: str,
    candidates: Iterable[Edge] | None = None,
) -> FairAssumption | None:
    if candidates is None:
        current = list(g.player2_edges())
    else:
        current = sorted(set(candidates))

    win, _ = assume_fair_win(g, objective, current)
    if s not in win:
        return None
    removed_one = True
    while removed_one:
        removed_one = False
        for e in list(current):
            trial = [x for x in current if x != e]
            win, _ = assume_fair_win(g, objective, trial)
            if s in win:
                current = trial
                removed_one = True
                break
    final_win, _ = assume_fair_win(g, objective, current)
    return FairAssumption(edges=frozenset(current), winning_from=final_win)


def reference_witness_wins(
    h: GameGraph,
    h_obj: Objective,
    fair: Iterable[Edge],
    choice: dict[str, str],
) -> frozenset[str]:
    fixed = induced_structure(h, MemorylessStrategy(Owner.P1, choice))
    win_fixed, _ = assume_fair_win(fixed, h_obj, fair)
    return win_fixed
