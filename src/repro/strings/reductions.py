"""Reduction of the extended string functions to the conjunctive core.

The solver's conjunctive fragment (word equations, regular memberships,
LIA length constraints, position predicates) does not contain
``str.substr``, ``str.indexof`` or ``str.replace``.  This module compiles
the extended atoms of :mod:`repro.strings.ast` away *before* the pipeline
runs, following the classical definitional reductions:

* ``t = str.substr(s, i, n)`` introduces fresh variables ``p r q`` with
  ``s = p ++ r ++ q`` and links ``t`` to ``r``; a pure-LIA guard encodes
  the SMT-LIB 2.6 range analysis — inside the range ``|p| = i`` and
  ``|r| = min(n, |s| - i)`` (the ``min`` is a LIA disjunction), outside it
  ``|r| = 0``.  One case, because the equation ``s = p ++ r ++ q`` holds in
  every situation and only the lengths move.
* ``k = str.indexof(s, t, i)`` genuinely changes the *string* structure
  between its situations, which a single conjunction cannot express; the
  reduction therefore emits **alternative case conjunctions** whose
  semantic situations partition all models: needle empty and offset valid
  (``k = i``), first occurrence found (``s = a ++ x ++ t ++ y`` with
  ``|a| = i``, ``k = i + |x|`` and the first-occurrence side condition
  ``¬contains(t, x ++ u)`` where ``t = u ++ c``, ``|c| = 1``), no
  occurrence at or after a valid offset (``s = a ++ w``, ``|a| = i``,
  ``¬contains(t, w)``, ``k = -1``), and an out-of-range offset
  (``k = -1``).
* ``r = str.replace(s, t, t')`` composes the same ideas: needle empty
  (``r = t' ++ s``), first occurrence replaced (``s = x ++ t ++ y``,
  ``r = x ++ t' ++ y``, ``¬contains(t, x ++ u)``), or needle absent
  (``¬contains(t, s)``, ``r = s``).

Every case *forces* the defined value in any of its models (the reduction
is definitional), so occurrences under negative polarity are handled by
flipping only the linking atom.  For **literal** needles the
(non-)containment side conditions become regular constraints
(``window ∉ Σ*·t·Σ*``) — exact for any haystack language; variable
needles keep the ``¬contains`` predicate and inherit the MBQI procedure's
flat-language limit (beyond it the solver answers ``unknown``).  A
syntactically empty needle collapses the case split outright.  A problem with several extended atoms
expands into the product of their cases; :func:`reduce_problem` returns
one :class:`ReducedCase` per member of the product, each carrying the set
of fresh variables to strip from reported models.

The expansion is exact: the input problem is satisfiable iff at least one
case is, and every model of a case restricted to the input variables is a
model of the input problem (the pipeline still re-verifies reported models
against the original atoms through :mod:`repro.strings.semantics`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Set, Tuple

from ..automata.regex import escape as regex_escape
from ..budget import checkpoint
from ..lia import FALSE, BoolConst, conj, disj, eq, ge, gt, implies, le, lt, ne, neg
from .ast import (
    Atom,
    Contains,
    EXTENDED_ATOMS,
    IndexOfAtom,
    LengthConstraint,
    Problem,
    RegexMembership,
    ReplaceAtom,
    StringLiteral,
    StringTerm,
    StringVar,
    SubstrAtom,
    WordEquation,
    str_len,
    term_length,
)


#: cap on the case product (``str.substr`` expands into 1 case,
#: ``str.indexof`` into 4, ``str.replace`` into 3); the solver answers
#: ``unknown`` for a problem whose product exceeds it
_MAX_CASES = 64


class ReductionError(ValueError):
    """Raised when a problem's case expansion exceeds the case cap."""


@dataclass
class ReducedCase:
    """One case conjunction of the expansion, over core atoms only."""

    problem: Problem
    #: variables introduced by the reduction (strip them from models)
    fresh_variables: FrozenSet[str]


def needs_reduction(problem: Problem) -> bool:
    """Does the problem contain extended atoms the core cannot take?"""
    return any(isinstance(atom, EXTENDED_ATOMS) for atom in problem.atoms)


def _sv(name: str) -> Tuple[StringVar]:
    return (StringVar(name),)


def _literal_word(string_term: StringTerm) -> "str | None":
    """The constant word a variable-free term denotes, ``None`` otherwise."""
    parts: List[str] = []
    for element in string_term:
        if isinstance(element, StringVar):
            return None
        parts.append(element.value)
    return "".join(parts)


class _Reducer:
    def __init__(self, problem: Problem) -> None:
        self._used: Set[str] = set(problem.string_variables())
        self._used.update(problem.integer_variables())
        self._counter = 0
        self.fresh_names: Set[str] = set()

    def fresh(self, *roles: str) -> List[str]:
        """Fresh string variables for one occurrence (collision-checked)."""
        while True:
            names = [f".r{self._counter}.{role}" for role in roles]
            self._counter += 1
            if all(name not in self._used for name in names):
                break
        self._used.update(names)
        self.fresh_names.update(names)
        return names

    def not_containing(
        self,
        needle: StringTerm,
        needle_word: "str | None",
        haystack: StringTerm,
    ) -> List[Atom]:
        """Atoms asserting the needle does not occur in the haystack term.

        A *literal* needle ``w`` is encoded as the regular constraint
        ``haystack ∉ Σ*·w·Σ*`` (through a fresh variable when the haystack
        is a concatenation) — exact and MBQI-free for any haystack
        language.  A needle with variables falls back to the ``¬contains``
        position predicate, whose model-based instantiation procedure is
        exact on flat languages only (the pipeline answers ``unknown``
        rather than guessing beyond them).
        """
        if needle_word is None:
            return [Contains(needle, haystack, positive=False)]
        pattern = f".*{regex_escape(needle_word)}.*"
        if len(haystack) == 1 and isinstance(haystack[0], StringVar):
            return [RegexMembership(haystack[0].name, pattern, positive=False)]
        (z,) = self.fresh("z")
        return [
            WordEquation(_sv(z), haystack),
            RegexMembership(z, pattern, positive=False),
        ]

    # -- per-atom case alternatives ------------------------------------
    def alternatives(self, atom: Atom) -> List[List[Atom]]:
        """The case conjunctions (each a list of core atoms) of one atom."""
        if isinstance(atom, SubstrAtom):
            return [self._substr(atom)]
        if isinstance(atom, IndexOfAtom):
            return self._indexof(atom)
        if isinstance(atom, ReplaceAtom):
            return self._replace(atom)
        if isinstance(atom, Contains) and not atom.positive:
            # Reduced problems put their extraction variables in *universal*
            # languages, where the core's ¬contains instantiation procedure
            # is inexact (flat languages only).  A literal needle has the
            # exact regular encoding instead; rewriting it here keeps the
            # core path untouched for problems without extended atoms.
            word = _literal_word(atom.needle)
            if word == "":
                return [[LengthConstraint(FALSE)]]
            if word is not None:
                return [self.not_containing(atom.needle, word, atom.haystack)]
        return [[atom]]

    def _substr(self, atom: SubstrAtom) -> List[Atom]:
        p, r, q = self.fresh("p", "r", "q")
        haystack_len = term_length(atom.haystack)
        offset, length = atom.offset, atom.length
        in_range = conj([ge(offset, 0), lt(offset, haystack_len), ge(length, 1)])
        # |r| = min(length, |s| - offset) as a disjunction of the two arms
        taken = disj(
            [
                conj([eq(str_len(r), length), le(offset + length, haystack_len)]),
                conj([eq(str_len(r), haystack_len - offset), le(haystack_len, offset + length)]),
            ]
        )
        guard = conj(
            [
                implies(in_range, conj([eq(str_len(p), offset), taken])),
                implies(neg(in_range), eq(str_len(r), 0)),
            ]
        )
        return [
            WordEquation(atom.haystack, _sv(p) + _sv(r) + _sv(q)),
            LengthConstraint(guard),
            WordEquation(atom.target, _sv(r), positive=atom.positive),
        ]

    def _indexof(self, atom: IndexOfAtom) -> List[List[Atom]]:
        haystack_len = term_length(atom.haystack)
        needle_len = term_length(atom.needle)
        offset, result = atom.offset, atom.result

        def link(value) -> Atom:
            relation = eq if atom.positive else ne
            return LengthConstraint(relation(result, value))

        # Case 1 — empty needle, valid offset: the index is the offset.
        empty_found: List[Atom] = [
            LengthConstraint(
                conj([eq(needle_len, 0), ge(offset, 0), le(offset, haystack_len)])
            ),
            link(offset),
        ]

        # Case 4 — offset outside [0, |s|].
        out_of_range: List[Atom] = [
            LengthConstraint(disj([lt(offset, 0), gt(offset, haystack_len)])),
            link(-1),
        ]

        needle_word = _literal_word(atom.needle)
        if needle_word == "":
            # The occurrence cases below are infeasible for the empty word
            # (it occurs everywhere), so the case split collapses.
            return [empty_found, out_of_range]

        # Case 2 — non-empty needle, first occurrence at offset + |x|.
        # The first-occurrence side condition says the needle starts nowhere
        # in [offset, offset + |x|): every such occurrence lies inside the
        # window ``x ++ u`` where ``u`` drops the needle's last character.
        found: List[Atom]
        if needle_word is None:
            a, x, y, u, c = self.fresh("a", "x", "y", "u", "c")
            found = [
                WordEquation(atom.haystack, _sv(a) + _sv(x) + atom.needle + _sv(y)),
                WordEquation(atom.needle, _sv(u) + _sv(c)),
                Contains(atom.needle, _sv(x) + _sv(u), positive=False),
                LengthConstraint(
                    conj([ge(offset, 0), eq(str_len(a), offset), eq(str_len(c), 1)])
                ),
                link(offset + str_len(x)),
            ]
        else:
            a, x, y = self.fresh("a", "x", "y")
            dropped_last = needle_word[:-1]
            window = _sv(x) + ((StringLiteral(dropped_last),) if dropped_last else ())
            found = (
                [WordEquation(atom.haystack, _sv(a) + _sv(x) + atom.needle + _sv(y))]
                + self.not_containing(atom.needle, needle_word, window)
                + [
                    LengthConstraint(conj([ge(offset, 0), eq(str_len(a), offset)])),
                    link(offset + str_len(x)),
                ]
            )

        # Case 3 — valid offset but no occurrence at or after it.
        a2, w = self.fresh("a", "w")
        not_found: List[Atom] = (
            [WordEquation(atom.haystack, _sv(a2) + _sv(w))]
            + self.not_containing(atom.needle, needle_word, _sv(w))
            + [
                LengthConstraint(conj([ge(offset, 0), eq(str_len(a2), offset)])),
                link(-1),
            ]
        )
        return [empty_found, found, not_found, out_of_range]

    def _replace(self, atom: ReplaceAtom) -> List[List[Atom]]:
        # Case 1 — empty needle: prepend the replacement.
        empty_needle: List[Atom] = [
            LengthConstraint(eq(term_length(atom.needle), 0)),
            WordEquation(
                atom.target, atom.replacement + atom.haystack, positive=atom.positive
            ),
        ]
        needle_word = _literal_word(atom.needle)
        if needle_word == "":
            return [empty_needle]

        # Case 2 — the first occurrence is replaced.
        occurs: List[Atom]
        if needle_word is None:
            x, y, u, c = self.fresh("x", "y", "u", "c")
            occurs = [
                WordEquation(atom.haystack, _sv(x) + atom.needle + _sv(y)),
                WordEquation(atom.needle, _sv(u) + _sv(c)),
                Contains(atom.needle, _sv(x) + _sv(u), positive=False),
                LengthConstraint(eq(str_len(c), 1)),
                WordEquation(
                    atom.target,
                    _sv(x) + atom.replacement + _sv(y),
                    positive=atom.positive,
                ),
            ]
        else:
            x, y = self.fresh("x", "y")
            dropped_last = needle_word[:-1]
            window = _sv(x) + ((StringLiteral(dropped_last),) if dropped_last else ())
            occurs = (
                [WordEquation(atom.haystack, _sv(x) + atom.needle + _sv(y))]
                + self.not_containing(atom.needle, needle_word, window)
                + [
                    WordEquation(
                        atom.target,
                        _sv(x) + atom.replacement + _sv(y),
                        positive=atom.positive,
                    ),
                ]
            )

        # Case 3 — the needle does not occur: the haystack is unchanged.
        absent: List[Atom] = self.not_containing(
            atom.needle, needle_word, atom.haystack
        ) + [WordEquation(atom.target, atom.haystack, positive=atom.positive)]
        return [empty_needle, occurs, absent]


def _statically_false(atom: Atom) -> bool:
    """Did a case guard constant-fold to ``false``?  (Such a case is
    infeasible on its own and would otherwise still cost a decomposition —
    or even an ``unknown``, e.g. when its linking equation is periodic.)"""
    return (
        isinstance(atom, LengthConstraint)
        and isinstance(atom.formula, BoolConst)
        and not atom.formula.value
    )


def reduce_problem(problem: Problem, max_cases: int = _MAX_CASES) -> List[ReducedCase]:
    """Expand a problem with extended atoms into core-only case problems.

    Returns one :class:`ReducedCase` per member of the case product (a
    problem without extended atoms is returned as a single case unchanged).
    Raises :class:`ReductionError` when the product exceeds ``max_cases``.
    """
    reducer = _Reducer(problem)
    #: the atoms of each case built so far
    cases: List[List[Atom]] = [[]]
    for index, atom in enumerate(problem.atoms):
        alternatives = [
            alternative
            for alternative in reducer.alternatives(atom)
            if not any(_statically_false(entry) for entry in alternative)
        ]
        if not alternatives:
            # Every case of this atom is infeasible on its own (constant
            # guards folded to false): the whole problem is unsatisfiable
            # because of this one atom — collapse to a single false case.
            return [
                ReducedCase(
                    problem=Problem(
                        atoms=[LengthConstraint(FALSE)],
                        alphabet=problem.alphabet,
                        name=problem.name,
                    ),
                    fresh_variables=frozenset(reducer.fresh_names),
                )
            ]
        if len(alternatives) * len(cases) > max_cases:
            raise ReductionError(
                f"extended-atom case expansion exceeds {max_cases} cases "
                f"({len(cases)} cases before atom {index})"
            )
        if len(alternatives) == 1:
            for atoms in cases:
                atoms.extend(alternatives[0])
        else:
            expanded: List[List[Atom]] = []
            for atoms in cases:
                for alternative in alternatives:
                    checkpoint("reduce.cases")
                    expanded.append(atoms + alternative)
            cases = expanded
    fresh = frozenset(reducer.fresh_names)
    return [
        ReducedCase(
            problem=Problem(atoms=atoms, alphabet=problem.alphabet, name=problem.name),
            fresh_variables=fresh,
        )
        for atoms in cases
    ]
