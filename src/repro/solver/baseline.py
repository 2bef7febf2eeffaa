"""Baseline solver: eager reduction of position constraints to word equations.

This reproduces the strategy the paper improves upon (§1, §3): instead of the
dedicated position procedure, every position constraint is rewritten into
word equations plus length constraints *before* solving, and the resulting
(much harder) equation system is handed to the standard pipeline
(stabilization + Parikh/LIA without any position predicates).

The reduction enumerates the mismatching letter pair, e.g. for a disequality

    t ≠ t'   ⇝   len(t) ≠ len(t')
               ∨ ⋁_{a≠b} ∃ p s s' :  t = p·a·s  ∧  t' = p·b·s'

Negated ``str.at`` and ¬contains have no quantifier-free reduction of this
kind; on inputs containing them the baseline answers ``UNKNOWN`` (real
solvers resort to incomplete heuristics here, as discussed in §9).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import List, Optional, Tuple

from ..budget import Budget, checkpoint
from ..lia import ne as lia_ne
from ..lia import gt as lia_gt
from ..strings.ast import (
    Contains,
    LengthConstraint,
    PrefixOf,
    Problem,
    StrAtAtom,
    StringLiteral,
    StringTerm,
    StringVar,
    SuffixOf,
    WordEquation,
    str_len,
    term,
)
from .config import SolverConfig
from .result import SolveResult, Status
from .solver import PositionSolver


def _term_length(string_term: StringTerm):
    """LIA expression for the length of a string term."""
    total = None
    from ..lia import LinExpr

    total = LinExpr.constant(0)
    for element in string_term:
        if isinstance(element, StringVar):
            total = total + str_len(element.name)
        else:
            total = total + len(element.value)
    return total


class EagerReductionSolver:
    """The "reduce to equations first" baseline (original Z3-Noodler strategy)."""

    def __init__(self, config: Optional[SolverConfig] = None) -> None:
        self.config = config or SolverConfig()
        self._fresh = 0

    def _fresh_var(self) -> StringVar:
        self._fresh += 1
        return StringVar(f"_bl{self._fresh}")

    # ------------------------------------------------------------------
    def _mismatch_alternatives(
        self, lhs: StringTerm, rhs: StringTerm, alphabet, length_atom
    ) -> List[List]:
        """Alternatives for "lhs and rhs differ": length or a letter mismatch."""
        alternatives: List[List] = [[length_atom]]
        for a in alphabet:
            # |Σ|² alternatives: the baseline's blow-up must stay budgeted.
            checkpoint("solver.baseline", len(alphabet))
            for b in alphabet:
                if a == b:
                    continue
                prefix = self._fresh_var()
                left_rest = self._fresh_var()
                right_rest = self._fresh_var()
                alternatives.append(
                    [
                        WordEquation(lhs, (prefix, StringLiteral(a), left_rest)),
                        WordEquation(rhs, (prefix, StringLiteral(b), right_rest)),
                    ]
                )
        return alternatives

    def _reduce_atom(self, atom, alphabet) -> Optional[List[List]]:
        """Return a list of alternatives (each a list of atoms), or ``None``."""
        if isinstance(atom, WordEquation) and not atom.positive:
            length_atom = LengthConstraint(lia_ne(_term_length(atom.lhs), _term_length(atom.rhs)))
            return self._mismatch_alternatives(atom.lhs, atom.rhs, alphabet, length_atom)
        if isinstance(atom, PrefixOf) and not atom.positive:
            length_atom = LengthConstraint(lia_gt(_term_length(atom.lhs), _term_length(atom.rhs)))
            return self._mismatch_alternatives(atom.lhs, atom.rhs, alphabet, length_atom)
        if isinstance(atom, SuffixOf) and not atom.positive:
            # Mismatch counted from the end: reduce via reversed padding
            # t not a suffix of t'  <=>  len(t) > len(t')  ∨  ∃ s a b s1 s2:
            #     t = s1·a·s ∧ t' = s2·b·s ∧ a ≠ b   (same suffix s after the mismatch)
            alternatives: List[List] = [
                [LengthConstraint(lia_gt(_term_length(atom.lhs), _term_length(atom.rhs)))]
            ]
            for a in alphabet:
                checkpoint("solver.baseline", len(alphabet))
                for b in alphabet:
                    if a == b:
                        continue
                    shared = self._fresh_var()
                    left_head = self._fresh_var()
                    right_head = self._fresh_var()
                    alternatives.append(
                        [
                            WordEquation(atom.lhs, (left_head, StringLiteral(a), shared)),
                            WordEquation(atom.rhs, (right_head, StringLiteral(b), shared)),
                        ]
                    )
            return alternatives
        if isinstance(atom, StrAtAtom) and atom.positive:
            # target = str.at(h, i): either out of bounds and target = ε, or
            # h = p · target · s with len(p) = i and len(target) = 1.
            from ..lia import conj as lia_conj
            from ..lia import ge as lia_ge
            from ..lia import lt as lia_lt, eq as lia_eq, disj as lia_disj

            prefix, suffix = self._fresh_var(), self._fresh_var()
            target_term = (atom.target,)
            in_bounds = [
                WordEquation(atom.haystack, (prefix, atom.target, suffix)),
                LengthConstraint(lia_eq(str_len(prefix.name), atom.index)),
                LengthConstraint(lia_eq(_term_length(target_term), 1)),
            ]
            out_of_bounds = [
                WordEquation(target_term, (StringLiteral(""),)),
                LengthConstraint(
                    lia_disj([lia_lt(atom.index, 0), lia_ge(atom.index, _term_length(atom.haystack))])
                ),
            ]
            return [in_bounds, out_of_bounds]
        return None

    # ------------------------------------------------------------------
    def check(self, problem: Problem) -> SolveResult:
        """Decide satisfiability by eager reduction + the equation pipeline."""
        watch = Budget(self.config.timeout)
        base_atoms = []
        alternative_sets: List[List[List]] = []
        for atom in problem.atoms:
            if isinstance(atom, (WordEquation, PrefixOf, SuffixOf)) and not atom.positive:
                reduced = self._reduce_atom(atom, problem.alphabet)
                alternative_sets.append(reduced)
            elif isinstance(atom, StrAtAtom) and atom.positive:
                alternative_sets.append(self._reduce_atom(atom, problem.alphabet))
            elif isinstance(atom, (Contains, StrAtAtom)) and not atom.positive:
                return SolveResult(Status.UNKNOWN, elapsed=watch.elapsed(),
                                   reason="eager baseline cannot reduce this predicate")
            else:
                base_atoms.append(atom)

        # Cartesian product of alternatives, explored depth-first.
        # The outer stopwatch governs the budget.
        solver = PositionSolver(SolverConfig(timeout=None))

        saw_unknown = False
        explored = 0

        def explore(index: int, atoms: List) -> Optional[SolveResult]:
            nonlocal saw_unknown, explored
            if watch.expired():
                return SolveResult(Status.TIMEOUT, elapsed=watch.elapsed(), reason="timeout")
            if index == len(alternative_sets):
                explored += 1
                candidate = Problem(list(atoms), alphabet=problem.alphabet)
                remaining = None if watch.timeout is None else max(0.5, watch.timeout - watch.elapsed())
                solver.config.timeout = remaining
                result = solver.check(candidate)
                if result.status is Status.SAT:
                    return result
                if result.status in (Status.UNKNOWN, Status.TIMEOUT):
                    saw_unknown = True
                return None
            for alternative in alternative_sets[index]:
                result = explore(index + 1, atoms + alternative)
                if result is not None:
                    return result
            return None

        result = explore(0, list(base_atoms))
        if result is not None:
            result.branches_explored = explored
            return result
        if watch.expired():
            return SolveResult(Status.TIMEOUT, elapsed=watch.elapsed(), reason="timeout",
                               branches_explored=explored)
        if saw_unknown:
            return SolveResult(Status.UNKNOWN, elapsed=watch.elapsed(),
                               reason="some reduced system could not be decided",
                               branches_explored=explored)
        return SolveResult(Status.UNSAT, elapsed=watch.elapsed(), branches_explored=explored)
