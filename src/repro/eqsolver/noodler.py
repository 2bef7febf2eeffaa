"""A stabilization-style solver for word equations with regular constraints.

Z3-Noodler handles ``E ∧ R`` by the stabilization procedure of [24]: word
equations are eliminated by *noodlification* — aligning the automaton of one
side with the concatenation of automata of the other side and splitting it at
the variable boundaries — producing a disjunction of refined regular
constraints (a monadic decomposition) plus a substitution map.

This module implements the fragment of that procedure that the position
decision procedure (and our benchmark workloads) need:

* trivial equations (``x = y``, ``x = ε``, ground equations),
* *assignment-shaped* equations ``x = y₁ · … · y_k`` where ``x`` does not
  occur on the right-hand side (the common shape produced by symbolic
  execution), solved exactly by noodlification,
* *two-sided* concatenation equations ``x₁ … x_m = y₁ … y_n`` by Levi
  splits: the head variables either coincide or one is a prefix of the
  other (``x₁ = y₁ · f`` with a fresh ``f``), each branch reducing to an
  assignment-shaped equation plus a strictly shorter two-sided remainder.
  Splits are budgeted (repeated variables can make the rewriting grow), so
  the procedure stays terminating — the shape arises from the extended
  string functions, whose reductions put several structural splits on one
  haystack variable (``s = p·r·q ∧ s = a·x·t·y``),
* systems of such equations, processed to a fixpoint with a branch budget.

Anything outside this fragment makes the solver report "don't know", which
the string solver surfaces as ``UNKNOWN`` — mirroring how Z3-Noodler runs
out of resources on non-chain-free inputs (§8.2 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..automata import intersection, intersection_empty, remove_epsilon
from ..automata.minimization import minimize
from ..automata.nfa import EPSILON, Nfa
from ..budget import checkpoint

VarEquation = Tuple[Tuple[str, ...], Tuple[str, ...]]


class EquationTooHard(Exception):
    """Raised when an equation falls outside the supported fragment."""


@dataclass
class Branch:
    """One disjunct of the monadic decomposition.

    ``automata`` constrains the remaining variables; ``substitution`` maps
    every eliminated variable to the concatenation of remaining variables it
    was replaced by (used to reconstruct its value from a model).
    """

    automata: Dict[str, Nfa]
    substitution: Dict[str, Tuple[str, ...]] = field(default_factory=dict)

    def expand(self, variable: str, seen: Optional[Set[str]] = None) -> Tuple[str, ...]:
        """Fully expand a variable through the substitution map."""
        seen = seen or set()
        if variable in seen:
            raise ValueError(f"cyclic substitution through {variable}")
        if variable not in self.substitution:
            return (variable,)
        result: List[str] = []
        for part in self.substitution[variable]:
            result.extend(self.expand(part, seen | {variable}))
        return tuple(result)

    def expand_term(self, term: Sequence[str]) -> Tuple[str, ...]:
        result: List[str] = []
        for variable in term:
            result.extend(self.expand(variable))
        return tuple(result)


@dataclass
class DecompositionResult:
    """Outcome of the equation-elimination phase."""

    branches: List[Branch]
    complete: bool  # False when the budget was exhausted or the fragment was left


# ----------------------------------------------------------------------
# Noodlification of x = y1 ... yk
# ----------------------------------------------------------------------
def noodlify_assignment(
    target: Nfa, parts: Sequence[Tuple[str, Nfa]], max_noodles: int = 256
) -> List[Dict[str, Nfa]]:
    """Solve ``x = y1 … yk`` by splitting: refine each ``y_i`` against ``x``.

    Returns a list of "noodles": each maps the part variables to refined
    automata such that (i) each refined language is included in the original
    language of the part, and (ii) any combination of words from the refined
    languages concatenates to a word of ``L(x)``; together the noodles cover
    every solution of the equation.  Raises :class:`EquationTooHard` when the
    split budget is exceeded.
    """
    names = [name for name, _ in parts]
    if len(set(names)) != len(names):
        # A variable repeated inside the right-hand side needs the full
        # stabilization loop of [24]; we stay in the exactly-solved fragment.
        raise EquationTooHard("repeated variable on the right-hand side")
    target = remove_epsilon(target) if target.has_epsilon() else target
    part_automata = [remove_epsilon(nfa) if nfa.has_epsilon() else nfa for _, nfa in parts]

    if not parts:
        # x = ε: the equation is satisfiable iff ε ∈ L(x).
        return [{}] if target.accepts("") else []

    # The split points are assignments of target states to the k-1 internal
    # boundaries plus an initial and a final state of the target.
    def boundary_count(nfa: Nfa) -> int:
        total = 1
        for choice in [nfa.initial] + [nfa.states] * (len(parts) - 1) + [nfa.final]:
            total *= max(len(choice), 1)
        return total

    if boundary_count(target) > max_noodles:
        # The split count is exponential in the boundary choices; a
        # minimized target often collapses them (a Thompson-compiled
        # ``(a|b)+`` has 6 states where 2 suffice).  The subset
        # construction is capped — an adversarial target whose DFA
        # explodes must keep the instant too-hard bail-out below instead
        # of stalling past the solver's deadline.
        reduced = minimize(target, max_states=4 * len(target.states) + 16)
        if boundary_count(reduced) < boundary_count(target):
            target = reduced
    total = boundary_count(target)
    if total > max_noodles:
        raise EquationTooHard(f"too many noodles ({total} > {max_noodles})")
    target_states = sorted(target.states)
    initials = sorted(target.initial)
    finals = sorted(target.final)
    # Per-boundary segments are dense endpoint views: same rows (and cached
    # closures) as the target, only the initial/final masks differ — no
    # per-assignment copy of the whole target automaton.
    target_dense = target.dense()
    state_bit = {state: 1 << i for state, i in target_dense.index.items()}
    last = len(parts) - 1

    # A segment's refinement depends only on (part, start, end), so each is
    # computed once per call (``None`` marks an empty one) and its ``Nfa``
    # is shared by every noodle through that segment.
    segments: Dict[Tuple[int, int, int], Optional[Nfa]] = {}

    def refine(index: int, start: int, end: int) -> Optional[Nfa]:
        key = (index, start, end)
        if key in segments:
            return segments[key]
        segment = target_dense.with_endpoints(state_bit[start], state_bit[end])
        # When start == end and ε ∈ L(part), the initial-and-final pair
        # survives trimming, so an empty product means no common word.
        refined = intersection(part_automata[index], segment, trim=True)
        segments[key] = refined if refined.states else None
        return segments[key]

    # Boundary assignments in the lexicographic order of the product of
    # ``[initials] + [target_states] * (k - 1) + [finals]``, depth first:
    # an empty segment prunes every assignment that extends it.
    noodles: List[Dict[str, Nfa]] = []

    def extend(index: int, start: int, chosen: List[Nfa]) -> None:
        # One budget step per boundary prefix; each refinement computed
        # below charges its own product walk.
        checkpoint("eqsolver.noodlify")
        for end in finals if index == last else target_states:
            refined = refine(index, start, end)
            if refined is None:
                continue
            if index == last:
                noodles.append(dict(zip(names, chosen + [refined])))
            else:
                extend(index + 1, end, chosen + [refined])

    for start in initials:
        extend(0, start, [])
    return noodles


# ----------------------------------------------------------------------
# The decomposition driver
# ----------------------------------------------------------------------
def _orient(equation: VarEquation) -> Optional[Tuple[str, Tuple[str, ...]]]:
    """Orient an equation as ``x = t`` with ``x`` not occurring in ``t``."""
    lhs, rhs = equation
    if len(lhs) == 1 and lhs[0] not in rhs:
        return lhs[0], rhs
    if len(rhs) == 1 and rhs[0] not in lhs:
        return rhs[0], lhs
    return None


def _refuted_by_consequences(
    equations: Sequence[VarEquation], automata: Dict[str, Nfa]
) -> bool:
    """Cheap sound refutation: same-variable structural consequences.

    Two equations ``x = T₁`` and ``x = T₂`` imply ``T₁ = T₂``; after
    cancelling the common prefix and suffix *variables*, a remainder of the
    shape ``u = v`` with ``L(u) ∩ L(v) = ∅`` — or ``u = ε`` with
    ``ε ∉ L(u)`` — is unsatisfiable.  This catches the fixed-point patterns
    the extended-function reductions produce (``s = x·"a"·y ∧ s = x·"b"·y``
    from ``str.replace(s, "a", "b") = s``) without exploring the
    exponential alignment space of the splits.
    """
    by_var: Dict[str, List[Tuple[str, ...]]] = {}
    for lhs, rhs in equations:
        if len(lhs) == 1 and lhs[0] not in rhs:
            by_var.setdefault(lhs[0], []).append(rhs)
        if len(rhs) == 1 and rhs[0] not in lhs:
            by_var.setdefault(rhs[0], []).append(lhs)
    for sides in by_var.values():
        for i in range(len(sides)):
            for j in range(i + 1, len(sides)):
                left, right = list(sides[i]), list(sides[j])
                while left and right and left[0] == right[0]:
                    left.pop(0)
                    right.pop(0)
                while left and right and left[-1] == right[-1]:
                    left.pop()
                    right.pop()
                if not left and not right:
                    continue
                if not left or not right:
                    remainder = right or left
                    if any(
                        name in automata and not automata[name].accepts("")
                        for name in remainder
                    ):
                        return True
                    continue
                if len(left) == 1 and len(right) == 1:
                    one, other = automata.get(left[0]), automata.get(right[0])
                    if one is None or other is None:
                        continue
                    # Lazy consequence check: emptiness of the product is
                    # decided on the fly (first accepting pair), without
                    # materialising the intersection.
                    if intersection_empty(one, other):
                        return True
    return False


def decompose(
    equations: Sequence[VarEquation],
    automata: Dict[str, Nfa],
    max_branches: int = 128,
    max_noodles: int = 256,
    alphabet: Optional[Tuple[str, ...]] = None,
    max_levi_splits: int = 128,
) -> DecompositionResult:
    """Eliminate the given equations, producing a monadic decomposition.

    The result is a list of branches (disjuncts); an empty list with
    ``complete=True`` means the equations (with the regular constraints) are
    unsatisfiable.  ``complete=False`` signals that some equation was outside
    the supported fragment or a budget was exceeded.  ``alphabet`` supplies
    the language of the fresh variables Levi splits introduce (defaults to
    the union of the given automata's alphabets).
    """
    if alphabet is None:
        sigma: Tuple[str, ...] = tuple(
            sorted(set().union(*(nfa.alphabet for nfa in automata.values())))
        ) if automata else ()
    else:
        sigma = tuple(alphabet)
    universal = Nfa.universal(sigma)
    levi_fresh = 0
    levi_splits = 0

    if _refuted_by_consequences(equations, automata):
        return DecompositionResult(branches=[], complete=True)

    work: List[Tuple[List[VarEquation], Branch]] = [
        (list(equations), Branch(dict(automata)))
    ]
    finished: List[Branch] = []
    complete = True

    while work:
        checkpoint("eqsolver.decompose")
        pending, branch = work.pop()
        if not pending:
            finished.append(branch)
            continue
        equation = pending[0]
        rest = pending[1:]
        lhs = branch.expand_term(equation[0])
        rhs = branch.expand_term(equation[1])

        # Trivial simplifications.
        if lhs == rhs:
            work.append((rest, branch))
            continue
        if len(lhs) == 1 and len(rhs) == 1:
            x, y = lhs[0], rhs[0]
            refined = intersection(branch.automata[x], branch.automata[y], trim=True)
            if not refined.states:
                # ε in both languages would have kept the initial-and-final
                # pair: the languages share no word.
                continue  # this branch is unsatisfiable
            new_automata = dict(branch.automata)
            new_automata[x] = refined
            new_automata[y] = refined
            substitution = dict(branch.substitution)
            substitution[x] = (y,)
            work.append((rest, Branch(new_automata, substitution)))
            continue

        oriented = _orient((lhs, rhs))
        if oriented is None:
            # Two-sided concatenation (both sides longer than one variable,
            # or a side-with-occurrence): eliminate by a Levi split.
            if not lhs or not rhs:
                # ε = v₁ … v_n: every variable of the other side is ε.
                side = rhs if not lhs else lhs
                new_automata = dict(branch.automata)
                substitution = dict(branch.substitution)
                feasible = True
                for name in side:
                    if not branch.automata[name].accepts(""):
                        feasible = False
                        break
                    new_automata[name] = Nfa.epsilon_language()
                    substitution[name] = ()
                if feasible:
                    work.append((rest, Branch(new_automata, substitution)))
                continue
            head_l, head_r = lhs[0], rhs[0]
            if head_l == head_r:
                # The same variable heads both sides: cancel it.
                work.append(([(lhs[1:], rhs[1:])] + rest, branch))
                continue
            if levi_splits >= max_levi_splits or (
                len(finished) + len(work) + 2 > max_branches
            ):
                complete = False
                continue
            levi_splits += 1
            # Either |head_l| >= |head_r| (head_l = head_r · f) or the other
            # way around; both reduce to an assignment-shaped equation plus
            # a shorter two-sided remainder (they overlap at f = g = ε).
            for longer, shorter, l_tail, r_tail in (
                (head_l, head_r, lhs[1:], rhs[1:]),
                (head_r, head_l, rhs[1:], lhs[1:]),
            ):
                fresh = f"%levi{levi_fresh}"
                levi_fresh += 1
                new_automata = dict(branch.automata)
                new_automata[fresh] = universal
                split: List[VarEquation] = [
                    ((longer,), (shorter, fresh)),
                    ((fresh,) + tuple(l_tail), tuple(r_tail)),
                ]
                work.append((split + rest, Branch(new_automata, dict(branch.substitution))))
            continue
        x, parts = oriented
        if not parts:
            # x = ε
            if not branch.automata[x].accepts(""):
                continue
            new_automata = dict(branch.automata)
            new_automata[x] = Nfa.epsilon_language()
            substitution = dict(branch.substitution)
            substitution[x] = ()
            work.append((rest, Branch(new_automata, substitution)))
            continue

        try:
            noodles = noodlify_assignment(
                branch.automata[x], [(name, branch.automata[name]) for name in parts], max_noodles
            )
        except EquationTooHard:
            complete = False
            continue

        if len(finished) + len(work) + len(noodles) > max_branches:
            complete = False
            continue

        for noodle in noodles:
            new_automata = dict(branch.automata)
            for name, refined in noodle.items():
                new_automata[name] = refined
            substitution = dict(branch.substitution)
            substitution[x] = tuple(parts)
            work.append((rest, Branch(new_automata, substitution)))

    return DecompositionResult(branches=finished, complete=complete)
