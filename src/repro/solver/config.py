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
    #: decide pairwise-distinct groups (conjunctions of single-variable
    #: disequalities) by a backtracking search for distinct words of the
    #: variables' automata — a found model is verified against the original
    #: problem by the semantics oracle — instead of encoding the
    #: n-predicate ``A^III`` system.  An exhausted search refutes the group
    #: when every variable's candidate list is complete; otherwise (or when
    #: the model fails verification) the group falls through to the
    #: encoding.  ``False`` always takes the encoding (the ``encoding``
    #: configuration of the differential fuzzer, which cross-checks the
    #: shortcut)
    distinct_shortcut: bool = True
