"""Bounded brute-force oracle.

The one enumeration core of the repository: the tests and the fuzzer use it
to cross-check the other solvers, and
:class:`repro.solver.enumerative.EnumerativeSolver` (one of the benchmark
baselines) is a thin wrapper over it.  It answers SAT or UNSAT only when the
answer is certain within the given bound (languages fully enumerated,
bounded integers).
"""

from __future__ import annotations

from itertools import product
from typing import Dict, List, Optional, Tuple

from ..automata.enumeration import has_word_longer_than, words_up_to
from ..automata.nfa import Nfa
from ..budget import Budget
from ..strings.ast import EXTENDED_ATOMS, Problem
from ..strings.normal_form import normalize
from ..strings.semantics import eval_problem
from .result import SolveResult, Status, StringModel


def brute_force_check(
    problem: Problem,
    max_length: int = 4,
    integer_bounds: Tuple[int, int] = (-1, 8),
    timeout: Optional[float] = None,
) -> SolveResult:
    """Exhaustively search for a model within the given bounds.

    Returns SAT with a model, UNSAT when the search space provably covers
    every candidate (no language has a word longer than ``max_length`` —
    an empty language included — and there are no integer variables), and
    UNKNOWN otherwise.
    """
    watch = Budget(timeout)
    # The normal form only exists for the conjunctive core; the extended
    # atoms (substr/indexof/replace) contribute no membership constraints
    # and are checked purely by evaluation below.
    core = Problem(
        atoms=[atom for atom in problem.atoms if not isinstance(atom, EXTENDED_ATOMS)],
        alphabet=problem.alphabet,
        name=problem.name,
    )
    normal_form = normalize(core)
    variables = list(problem.string_variables())
    integer_variables = list(problem.integer_variables())

    candidate_words: Dict[str, List[str]] = {}
    exhaustive = True
    alphabet = tuple(problem.alphabet)
    for name in variables:
        nfa = normal_form.automata.get(name)
        if nfa is None:
            # Only extended atoms mention the variable: every word over the
            # alphabet is a candidate (never an exhaustive enumeration).
            nfa = Nfa.universal(alphabet)
        candidate_words[name] = list(words_up_to(nfa, max_length))
        if has_word_longer_than(nfa, max_length):
            exhaustive = False

    low, high = integer_bounds
    integer_domain = list(range(low, high + 1))

    names = sorted(candidate_words)
    for choice in product(*(candidate_words[name] for name in names)):
        if watch.expired():
            return SolveResult(Status.TIMEOUT, elapsed=watch.elapsed())
        strings = dict(zip(names, choice))
        for values in product(integer_domain, repeat=len(integer_variables)):
            integers = dict(zip(integer_variables, values))
            if eval_problem(problem, strings, integers):
                return SolveResult(
                    Status.SAT,
                    model=StringModel(strings=strings, integers=integers),
                    elapsed=watch.elapsed(),
                )

    if exhaustive and not integer_variables:
        return SolveResult(Status.UNSAT, elapsed=watch.elapsed())
    return SolveResult(Status.UNKNOWN, elapsed=watch.elapsed(), reason="bounded search exhausted")
