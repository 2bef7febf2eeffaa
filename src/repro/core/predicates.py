"""Internal representation of position constraints (the ``P`` part of §2).

The string-constraint frontend (:mod:`repro.strings`) lowers its AST into
these light-weight dataclasses; the encoders of :mod:`repro.core` consume
them.  Sides of predicates are tuples of *string-variable occurrences* (a
variable may repeat).  ``index`` arguments of ``str.at`` predicates are LIA
expressions over integer variables (so the frontend can pass e.g.
``i + 1`` or a constant).

Every predicate knows how to evaluate itself on a concrete assignment
(mapping string variables to words, integer variables to ints); this direct
semantics is the oracle used throughout the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Tuple, Union

from ..lia import LinExpr

IntLike = Union[int, LinExpr]


def _as_index_expr(value: IntLike) -> LinExpr:
    if isinstance(value, LinExpr):
        return value
    return LinExpr.constant(int(value))


def _concat(side: Tuple[str, ...], assignment: Mapping[str, str]) -> str:
    return "".join(assignment[name] for name in side)


def _eval_index(expr: LinExpr, assignment: Mapping[str, int]) -> int:
    return int(expr.evaluate({name: assignment.get(name, 0) for name in expr.variables()}))


@dataclass(frozen=True)
class Disequality:
    """``lhs ≠ rhs`` for concatenations of variables (§5)."""

    lhs: Tuple[str, ...]
    rhs: Tuple[str, ...]

    def string_variables(self) -> Tuple[str, ...]:
        return tuple(dict.fromkeys(self.lhs + self.rhs))

    def holds(self, strings: Mapping[str, str], integers: Mapping[str, int] = None) -> bool:
        return _concat(self.lhs, strings) != _concat(self.rhs, strings)


@dataclass(frozen=True)
class NotPrefixOf:
    """``¬prefixof(lhs, rhs)`` — ``lhs`` is not a prefix of ``rhs`` (§6.2)."""

    lhs: Tuple[str, ...]
    rhs: Tuple[str, ...]

    def string_variables(self) -> Tuple[str, ...]:
        return tuple(dict.fromkeys(self.lhs + self.rhs))

    def holds(self, strings: Mapping[str, str], integers: Mapping[str, int] = None) -> bool:
        return not _concat(self.rhs, strings).startswith(_concat(self.lhs, strings))


@dataclass(frozen=True)
class NotSuffixOf:
    """``¬suffixof(lhs, rhs)`` — ``lhs`` is not a suffix of ``rhs`` (§6.2)."""

    lhs: Tuple[str, ...]
    rhs: Tuple[str, ...]

    def string_variables(self) -> Tuple[str, ...]:
        return tuple(dict.fromkeys(self.lhs + self.rhs))

    def holds(self, strings: Mapping[str, str], integers: Mapping[str, int] = None) -> bool:
        return not _concat(self.rhs, strings).endswith(_concat(self.lhs, strings))


@dataclass(frozen=True)
class StrAt:
    """``target = str.at(haystack, index)`` or its negation (§6.3).

    Semantics follow Fig. 1 of the paper: when the index is within bounds the
    right-hand side is the one-character string at that position, otherwise
    it is the empty word.
    """

    target: str
    haystack: Tuple[str, ...]
    index: LinExpr
    negated: bool = False

    def __init__(self, target: str, haystack: Tuple[str, ...], index: IntLike, negated: bool = False):
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "haystack", tuple(haystack))
        object.__setattr__(self, "index", _as_index_expr(index))
        object.__setattr__(self, "negated", negated)

    def string_variables(self) -> Tuple[str, ...]:
        return tuple(dict.fromkeys((self.target,) + self.haystack))

    def integer_variables(self) -> Tuple[str, ...]:
        return self.index.variables()

    def holds(self, strings: Mapping[str, str], integers: Mapping[str, int] = None) -> bool:
        integers = integers or {}
        word = _concat(self.haystack, strings)
        position = _eval_index(self.index, integers)
        if 0 <= position < len(word):
            expected = word[position]
        else:
            expected = ""
        equal = strings[self.target] == expected
        return (not equal) if self.negated else equal


@dataclass(frozen=True)
class NotContains:
    """``¬contains(needle, haystack)`` — the needle does not occur in the haystack (§6.4)."""

    needle: Tuple[str, ...]
    haystack: Tuple[str, ...]

    def string_variables(self) -> Tuple[str, ...]:
        return tuple(dict.fromkeys(self.needle + self.haystack))

    def holds(self, strings: Mapping[str, str], integers: Mapping[str, int] = None) -> bool:
        return _concat(self.needle, strings) not in _concat(self.haystack, strings)


@dataclass(frozen=True)
class LengthEquality:
    """``x_i = len(y_1 ... y_m)`` linking an integer variable to string lengths (§6.1)."""

    int_var: str
    parts: Tuple[str, ...]

    def string_variables(self) -> Tuple[str, ...]:
        return tuple(dict.fromkeys(self.parts))

    def integer_variables(self) -> Tuple[str, ...]:
        return (self.int_var,)

    def holds(self, strings: Mapping[str, str], integers: Mapping[str, int] = None) -> bool:
        integers = integers or {}
        return integers.get(self.int_var, 0) == len(_concat(self.parts, strings))


#: Union type of all position predicates.
PositionPredicate = Union[Disequality, NotPrefixOf, NotSuffixOf, StrAt, NotContains, LengthEquality]

#: Predicates that require mismatch sampling in the tag automaton.
MISMATCH_PREDICATES = (Disequality, NotPrefixOf, NotSuffixOf, StrAt, NotContains)


def predicate_variables(predicates) -> Tuple[str, ...]:
    """All string variables occurring in a collection of predicates (stable order)."""
    seen: Dict[str, None] = {}
    for predicate in predicates:
        for name in predicate.string_variables():
            seen.setdefault(name, None)
    return tuple(seen)


def evaluate_all(predicates, strings: Mapping[str, str], integers: Mapping[str, int] = None) -> bool:
    """Evaluate a conjunction of predicates on a concrete assignment."""
    return all(predicate.holds(strings, integers) for predicate in predicates)
