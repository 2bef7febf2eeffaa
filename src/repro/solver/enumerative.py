"""An enumerative (guess-and-check) solver.

This plays the role of the "guessing" strategy the paper attributes to
eager/value-based solvers: satisfiable instances with small models are found
quickly by enumerating candidate words from the regular constraints and
evaluating the constraint directly, but unsatisfiable instances over infinite
languages can never be refuted (the solver answers ``UNKNOWN``), and hard
combinatorial instances (the position-hard set) time out.  The enumeration
itself is :func:`repro.solver.bruteforce.brute_force_check`.
"""

from __future__ import annotations

from typing import Optional

from ..strings.ast import Problem
from .bruteforce import brute_force_check
from .config import SolverConfig
from .result import SolveResult


class EnumerativeSolver:
    """Bounded enumeration of candidate models (words up to length 6,
    integers in ``[-1, 8]``)."""

    def __init__(self, config: Optional[SolverConfig] = None) -> None:
        self.config = config or SolverConfig()

    def check(self, problem: Problem) -> SolveResult:
        return brute_force_check(
            problem, max_length=6, integer_bounds=(-1, 8), timeout=self.config.timeout
        )
