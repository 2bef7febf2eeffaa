"""Configuration of the string solvers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..lia import LiaConfig


@dataclass
class SolverConfig:
    """Tunable limits of :class:`repro.solver.solver.PositionSolver`.

    The defaults are sized for the scaled-down benchmark suite; the paper's
    experiments used a 120 s timeout per instance.
    """

    #: wall-clock budget per ``check`` call (seconds); ``None`` = unlimited
    timeout: Optional[float] = 60.0
    #: cooperative step budget per ``check`` call: caps the total number of
    #: engine checkpoints (subset-construction expansions, product pairs,
    #: noodles, SAT iterations, ...) independently of the clock — a
    #: deterministic, machine-independent bound.  ``None`` = unlimited
    max_steps: Optional[int] = None
    #: solve the MBQI refinement loop on one incremental LIA assertion stack
    #: (push/add/check per lemma); ``False`` falls back to a from-scratch
    #: ``LiaSolver.check`` per round (the seed behaviour, kept for perf
    #: comparisons and differential testing)
    incremental_lia: bool = True
    #: configuration of the underlying LIA solver (``lia.cuts`` switches the
    #: cutting planes of the integer core)
    lia: LiaConfig = field(default_factory=LiaConfig)
    #: answer pairwise-distinct groups (conjunctions of single-variable
    #: disequalities) by greedily picking distinct short words from the
    #: variables' automata — verified against the original problem by the
    #: semantics oracle — instead of encoding the n-predicate ``A^III``
    #: system; groups whose automata lack enough short words (or whose
    #: greedy model fails verification) fall through to the encoding.
    #: ``False`` always takes the encoding (ablation / differential testing)
    distinct_shortcut: bool = True
