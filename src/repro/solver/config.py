"""Configuration of the string solvers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass
class SolverConfig:
    """Tunable limits of :class:`repro.solver.solver.PositionSolver`.

    The defaults are sized for the scaled-down benchmark suite; the paper's
    experiments used a 120 s timeout per instance.  The search itself has
    one configuration: the LIA layer is always the incremental
    branch-and-cut solver, and its internal limits are module constants.
    """

    #: wall-clock budget per ``check`` call (seconds); ``None`` = unlimited
    timeout: Optional[float] = 60.0
    #: cooperative step budget per ``check`` call: caps the total number of
    #: engine checkpoints (subset-construction expansions, product pairs,
    #: noodles, SAT iterations, ...) independently of the clock — a
    #: deterministic, machine-independent bound.  ``None`` = unlimited
    max_steps: Optional[int] = None
    #: answer pairwise-distinct groups (conjunctions of single-variable
    #: disequalities) by greedily picking distinct short words from the
    #: variables' automata — verified against the original problem by the
    #: semantics oracle — instead of encoding the n-predicate ``A^III``
    #: system; groups whose automata lack enough short words (or whose
    #: greedy model fails verification) fall through to the encoding.
    #: ``False`` always takes the encoding (the ``encoding`` strategy of
    #: ``repro.serve``, which cross-checks the shortcut)
    distinct_shortcut: bool = True
