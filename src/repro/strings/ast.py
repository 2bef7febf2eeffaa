"""Abstract syntax of string constraints (the input language of the solver).

The fragment follows §2 of the paper: string terms are concatenations of
variables and literals; atomic constraints are word equations, regular
memberships, integer (length) constraints and the predicates ``prefixof``,
``suffixof``, ``contains`` and ``str.at`` — each possibly negated.  A
*problem* is a conjunction of such atoms (the DPLL(T) integration of a full
Boolean structure is out of scope; the benchmark generators emit
conjunctions, as the paper's normal form does).

On top of the core sit the *extended* atoms for the SMT-LIB 2.6
extraction functions — :class:`SubstrAtom`, :class:`IndexOfAtom`,
:class:`ReplaceAtom` (see :data:`EXTENDED_ATOMS`).  They are definitional
(``target = f(args)``, possibly negated) and are compiled into the core
by :mod:`repro.strings.reductions` before solving.

Integer constraints are ordinary :mod:`repro.lia` formulae; the length of a
string variable ``x`` is referred to through the reserved LIA variable
returned by :func:`str_len`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..automata.nfa import Nfa
from ..lia import Formula as LiaFormula
from ..lia import LinExpr


# ----------------------------------------------------------------------
# String terms
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StringVar:
    """A string variable occurrence."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class StringLiteral:
    """A constant word."""

    value: str

    def __str__(self) -> str:
        return f'"{self.value}"'


TermElement = Union[StringVar, StringLiteral]
#: A string term is a concatenation of variables and literals.
StringTerm = Tuple[TermElement, ...]


def term(*elements: Union[str, TermElement]) -> StringTerm:
    """Build a string term; bare ``str`` arguments are variables."""
    result: List[TermElement] = []
    for element in elements:
        if isinstance(element, (StringVar, StringLiteral)):
            result.append(element)
        else:
            result.append(StringVar(element))
    return tuple(result)


def lit(value: str) -> StringLiteral:
    """A string literal element."""
    return StringLiteral(value)


def term_variables(string_term: StringTerm) -> Tuple[str, ...]:
    """The variables occurring in a term, in order, without duplicates."""
    seen: Dict[str, None] = {}
    for element in string_term:
        if isinstance(element, StringVar):
            seen.setdefault(element.name, None)
    return tuple(seen)


def term_to_str(string_term: StringTerm) -> str:
    return " . ".join(str(e) for e in string_term) if string_term else '""'


def _coerce_integers(atom: object, *fields: str) -> None:
    """Turn plain ``int`` fields of a frozen atom into constant ``LinExpr``."""
    for name in fields:
        value = getattr(atom, name)
        if not isinstance(value, LinExpr):
            object.__setattr__(atom, name, LinExpr.constant(int(value)))


def str_len(name: str) -> LinExpr:
    """The LIA expression standing for ``len(name)`` in integer constraints."""
    return LinExpr.var(length_variable(name))


#: prefix of the reserved LIA variables carrying string lengths
_LENGTH_PREFIX = "@len."


def length_variable(name: str) -> str:
    """The reserved LIA variable name carrying the length of string variable ``name``."""
    return _LENGTH_PREFIX + name


def string_of_length_variable(name: str) -> Optional[str]:
    """The string variable whose length the LIA variable ``name`` carries
    (the inverse of :func:`length_variable`), or ``None`` for any other
    LIA variable."""
    return name[len(_LENGTH_PREFIX) :] if name.startswith(_LENGTH_PREFIX) else None


# ----------------------------------------------------------------------
# Atoms
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WordEquation:
    """``lhs = rhs`` (or ``lhs ≠ rhs`` when ``positive`` is false)."""

    lhs: StringTerm
    rhs: StringTerm
    positive: bool = True

    def __str__(self) -> str:
        op = "=" if self.positive else "≠"
        return f"{term_to_str(self.lhs)} {op} {term_to_str(self.rhs)}"


@dataclass(frozen=True)
class RegexMembership:
    """``x ∈ L`` (or ``x ∉ L``); the language is given as a regex or an NFA."""

    var: str
    language: Union[str, Nfa]
    positive: bool = True

    def __str__(self) -> str:
        op = "∈" if self.positive else "∉"
        language = self.language if isinstance(self.language, str) else "<nfa>"
        return f"{self.var} {op} {language}"


@dataclass(frozen=True)
class PrefixOf:
    """``prefixof(lhs, rhs)`` (or its negation)."""

    lhs: StringTerm
    rhs: StringTerm
    positive: bool = True

    def __str__(self) -> str:
        sign = "" if self.positive else "¬"
        return f"{sign}prefixof({term_to_str(self.lhs)}, {term_to_str(self.rhs)})"


@dataclass(frozen=True)
class SuffixOf:
    """``suffixof(lhs, rhs)`` (or its negation)."""

    lhs: StringTerm
    rhs: StringTerm
    positive: bool = True

    def __str__(self) -> str:
        sign = "" if self.positive else "¬"
        return f"{sign}suffixof({term_to_str(self.lhs)}, {term_to_str(self.rhs)})"


@dataclass(frozen=True)
class Contains:
    """``contains(needle, haystack)`` (or its negation).

    Note the argument order follows the paper (Fig. 1): the first argument is
    the needle that occurs (or not) inside the second argument.  The SMT-LIB
    operator ``str.contains`` has the opposite order; the parser swaps it.
    """

    needle: StringTerm
    haystack: StringTerm
    positive: bool = True

    def __str__(self) -> str:
        sign = "" if self.positive else "¬"
        return f"{sign}contains({term_to_str(self.needle)}, {term_to_str(self.haystack)})"


@dataclass(frozen=True)
class StrAtAtom:
    """``target = str.at(haystack, index)`` (or its negation)."""

    target: TermElement
    haystack: StringTerm
    index: LinExpr
    positive: bool = True

    def __post_init__(self) -> None:
        # A plain ``int`` index is accepted, as by ``core.predicates.StrAt``.
        _coerce_integers(self, "index")

    def __str__(self) -> str:
        op = "=" if self.positive else "≠"
        return f"{self.target} {op} str.at({term_to_str(self.haystack)}, {self.index})"


@dataclass(frozen=True)
class SubstrAtom:
    """``target = str.substr(haystack, offset, length)`` (or its negation).

    Semantics follow SMT-LIB 2.6: when ``0 <= offset < |haystack|`` and
    ``length > 0`` the right-hand side is the word of length
    ``min(length, |haystack| - offset)`` starting at ``offset``; otherwise
    it is the empty word.  The atom is *extended* — the solver pipeline
    compiles it away via :mod:`repro.strings.reductions` before the
    conjunctive core ever sees it.
    """

    target: StringTerm
    haystack: StringTerm
    offset: LinExpr
    length: LinExpr
    positive: bool = True

    def __post_init__(self) -> None:
        _coerce_integers(self, "offset", "length")

    def __str__(self) -> str:
        op = "=" if self.positive else "≠"
        return (
            f"{term_to_str(self.target)} {op} "
            f"str.substr({term_to_str(self.haystack)}, {self.offset}, {self.length})"
        )


@dataclass(frozen=True)
class IndexOfAtom:
    """``result = str.indexof(haystack, needle, offset)`` (or its negation).

    Semantics follow SMT-LIB 2.6: when ``0 <= offset <= |haystack|`` and the
    needle occurs in the haystack at or after ``offset``, the right-hand
    side is the smallest such occurrence position (the empty needle occurs
    at every position, so its index is ``offset``); otherwise it is ``-1``.
    ``result`` is an arbitrary linear integer expression.  Extended atom —
    reduced away by :mod:`repro.strings.reductions`.
    """

    result: LinExpr
    haystack: StringTerm
    needle: StringTerm
    offset: LinExpr
    positive: bool = True

    def __post_init__(self) -> None:
        _coerce_integers(self, "result", "offset")

    def __str__(self) -> str:
        op = "=" if self.positive else "≠"
        return (
            f"{self.result} {op} str.indexof({term_to_str(self.haystack)}, "
            f"{term_to_str(self.needle)}, {self.offset})"
        )


@dataclass(frozen=True)
class ReplaceAtom:
    """``target = str.replace(haystack, needle, replacement)`` (or its negation).

    Semantics follow SMT-LIB 2.6: the first occurrence of the needle in the
    haystack is replaced by the replacement; if the needle does not occur
    the haystack is returned unchanged (the empty needle occurs at position
    0, so the result is then ``replacement ++ haystack``).  Extended atom —
    reduced away by :mod:`repro.strings.reductions`.
    """

    target: StringTerm
    haystack: StringTerm
    needle: StringTerm
    replacement: StringTerm
    positive: bool = True

    def __str__(self) -> str:
        op = "=" if self.positive else "≠"
        return (
            f"{term_to_str(self.target)} {op} str.replace({term_to_str(self.haystack)}, "
            f"{term_to_str(self.needle)}, {term_to_str(self.replacement)})"
        )


@dataclass(frozen=True)
class LengthConstraint:
    """An integer-arithmetic constraint (a :mod:`repro.lia` formula).

    Lengths of string variables are referred to via :func:`str_len`.
    """

    formula: LiaFormula

    def __str__(self) -> str:
        return f"lia[{self.formula!r}]"


Atom = Union[
    WordEquation,
    RegexMembership,
    PrefixOf,
    SuffixOf,
    Contains,
    StrAtAtom,
    SubstrAtom,
    IndexOfAtom,
    ReplaceAtom,
    LengthConstraint,
]

#: atoms outside the conjunctive core; :mod:`repro.strings.reductions`
#: compiles them into word equations, LIA guards and ¬contains side
#: conditions before the solver pipeline runs
EXTENDED_ATOMS = (SubstrAtom, IndexOfAtom, ReplaceAtom)


def term_length(string_term: StringTerm) -> LinExpr:
    """The length of a string term as a LIA expression (``@len`` variables
    for the variables, constants for the literals)."""
    total = LinExpr.constant(0)
    for element in string_term:
        if isinstance(element, StringVar):
            total = total + str_len(element.name)
        else:
            total = total + len(element.value)
    return total


# ----------------------------------------------------------------------
# Problems (conjunctions of atoms)
# ----------------------------------------------------------------------
@dataclass
class Problem:
    """A conjunction of string-constraint atoms together with its alphabet."""

    atoms: List[Atom] = field(default_factory=list)
    alphabet: Tuple[str, ...] = tuple("ab")
    name: str = ""

    def add(self, atom: Atom) -> "Problem":
        self.atoms.append(atom)
        return self

    def string_variables(self) -> Tuple[str, ...]:
        seen: Dict[str, None] = {}
        for atom in self.atoms:
            for name in atom_string_variables(atom):
                seen.setdefault(name, None)
        return tuple(seen)

    def integer_variables(self) -> Tuple[str, ...]:
        seen: Dict[str, None] = {}
        for atom in self.atoms:
            for name in atom_integer_variables(atom):
                seen.setdefault(name, None)
        return tuple(seen)

    def __str__(self) -> str:
        return " ∧ ".join(str(atom) for atom in self.atoms)


def length_referenced(expr: Union[LinExpr, LiaFormula]) -> Tuple[str, ...]:
    """String variables whose length variables ``expr`` mentions."""
    strings = map(string_of_length_variable, expr.variables())
    return tuple(name for name in strings if name is not None)


def _integer_only(names: Sequence[str]) -> Tuple[str, ...]:
    """``names`` without the length variables, each once, in order."""
    return tuple(dict.fromkeys(v for v in names if string_of_length_variable(v) is None))


def atom_string_variables(atom: Atom) -> Tuple[str, ...]:
    """String variables of one atom."""
    if isinstance(atom, WordEquation):
        return tuple(dict.fromkeys(term_variables(atom.lhs) + term_variables(atom.rhs)))
    if isinstance(atom, RegexMembership):
        return (atom.var,)
    if isinstance(atom, (PrefixOf, SuffixOf)):
        return tuple(dict.fromkeys(term_variables(atom.lhs) + term_variables(atom.rhs)))
    if isinstance(atom, Contains):
        return tuple(dict.fromkeys(term_variables(atom.needle) + term_variables(atom.haystack)))
    if isinstance(atom, StrAtAtom):
        target = (atom.target.name,) if isinstance(atom.target, StringVar) else ()
        return tuple(dict.fromkeys(target + term_variables(atom.haystack)))
    if isinstance(atom, SubstrAtom):
        names = term_variables(atom.target) + term_variables(atom.haystack)
        names += length_referenced(atom.offset) + length_referenced(atom.length)
        return tuple(dict.fromkeys(names))
    if isinstance(atom, IndexOfAtom):
        names = term_variables(atom.haystack) + term_variables(atom.needle)
        names += length_referenced(atom.result) + length_referenced(atom.offset)
        return tuple(dict.fromkeys(names))
    if isinstance(atom, ReplaceAtom):
        return tuple(
            dict.fromkeys(
                term_variables(atom.target)
                + term_variables(atom.haystack)
                + term_variables(atom.needle)
                + term_variables(atom.replacement)
            )
        )
    if isinstance(atom, LengthConstraint):
        return length_referenced(atom.formula)
    raise TypeError(f"unknown atom {atom!r}")


def atom_integer_variables(atom: Atom) -> Tuple[str, ...]:
    """Integer variables of one atom (excluding reserved length variables)."""
    if isinstance(atom, StrAtAtom):
        return atom.index.variables()
    if isinstance(atom, SubstrAtom):
        return _integer_only(atom.offset.variables() + atom.length.variables())
    if isinstance(atom, IndexOfAtom):
        return _integer_only(atom.result.variables() + atom.offset.variables())
    if isinstance(atom, LengthConstraint):
        return _integer_only(atom.formula.variables())
    return ()
