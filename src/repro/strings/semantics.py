"""Direct evaluation of string-constraint atoms on concrete assignments.

Used as the ground-truth oracle: the brute-force solver enumerates
assignments and evaluates them here, and the main solver re-validates every
model it produces against the original problem before reporting SAT.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterable, Mapping, Optional

from ..automata.nfa import Nfa
from ..automata.regex import compile_regex
from ..lia import evaluate as lia_evaluate
from .ast import (
    Atom,
    Contains,
    IndexOfAtom,
    LengthConstraint,
    PrefixOf,
    Problem,
    RegexMembership,
    ReplaceAtom,
    StrAtAtom,
    StringLiteral,
    StringTerm,
    StringVar,
    SubstrAtom,
    SuffixOf,
    WordEquation,
    string_of_length_variable,
)


def _assignment(names: Iterable[str], integers: Mapping[str, int], strings: Mapping[str, str]):
    """Values of LIA variables: a length variable is its string's length,
    any other variable its integer (0 when unassigned)."""
    assignment: Dict[str, int] = {}
    for name in names:
        string = string_of_length_variable(name)
        assignment[name] = integers.get(name, 0) if string is None else len(strings[string])
    return assignment


def _eval_int(expr, integers: Mapping[str, int], strings: Mapping[str, str]) -> int:
    """Evaluate a LIA expression, resolving length variables through the strings."""
    return int(expr.evaluate(_assignment(expr.variables(), integers, strings)))


def str_substr(word: str, offset: int, length: int) -> str:
    """SMT-LIB 2.6 ``str.substr`` on concrete values."""
    if 0 <= offset < len(word) and length > 0:
        return word[offset : offset + length]
    return ""


def str_indexof(word: str, needle: str, offset: int) -> int:
    """SMT-LIB 2.6 ``str.indexof`` on concrete values."""
    if 0 <= offset <= len(word):
        return word.find(needle, offset)
    return -1


def str_replace(word: str, needle: str, replacement: str) -> str:
    """SMT-LIB 2.6 ``str.replace`` on concrete values (first occurrence;
    an empty needle prepends the replacement)."""
    return word.replace(needle, replacement, 1)


def eval_term(string_term: StringTerm, strings: Mapping[str, str]) -> str:
    """Concatenate the value of a string term under an assignment."""
    parts = []
    for element in string_term:
        if isinstance(element, StringVar):
            parts.append(strings[element.name])
        else:
            parts.append(element.value)
    return "".join(parts)


#: the oracle's own compilations of membership patterns, per (pattern,
#: alphabet) — no solver cache is involved
_compiled = lru_cache(maxsize=256)(compile_regex)


def _language_accepts(language, word: str, alphabet: Iterable[str]) -> bool:
    if isinstance(language, Nfa):
        return language.accepts(word)
    return _compiled(language, tuple(alphabet)).accepts(word)


def eval_atom(
    atom: Atom,
    strings: Mapping[str, str],
    integers: Optional[Mapping[str, int]] = None,
    alphabet: Iterable[str] = ("a", "b"),
) -> bool:
    """Evaluate one atom under a concrete assignment."""
    integers = integers or {}
    if isinstance(atom, WordEquation):
        result = eval_term(atom.lhs, strings) == eval_term(atom.rhs, strings)
        return result if atom.positive else not result
    if isinstance(atom, RegexMembership):
        result = _language_accepts(atom.language, strings[atom.var], alphabet)
        return result if atom.positive else not result
    if isinstance(atom, PrefixOf):
        result = eval_term(atom.rhs, strings).startswith(eval_term(atom.lhs, strings))
        return result if atom.positive else not result
    if isinstance(atom, SuffixOf):
        result = eval_term(atom.rhs, strings).endswith(eval_term(atom.lhs, strings))
        return result if atom.positive else not result
    if isinstance(atom, Contains):
        result = eval_term(atom.needle, strings) in eval_term(atom.haystack, strings)
        return result if atom.positive else not result
    if isinstance(atom, StrAtAtom):
        haystack = eval_term(atom.haystack, strings)
        index_value = int(
            atom.index.evaluate({name: integers.get(name, 0) for name in atom.index.variables()})
        )
        expected = haystack[index_value] if 0 <= index_value < len(haystack) else ""
        target = (
            strings[atom.target.name]
            if isinstance(atom.target, StringVar)
            else atom.target.value
        )
        result = target == expected
        return result if atom.positive else not result
    if isinstance(atom, SubstrAtom):
        value = str_substr(
            eval_term(atom.haystack, strings),
            _eval_int(atom.offset, integers, strings),
            _eval_int(atom.length, integers, strings),
        )
        result = eval_term(atom.target, strings) == value
        return result if atom.positive else not result
    if isinstance(atom, IndexOfAtom):
        value = str_indexof(
            eval_term(atom.haystack, strings),
            eval_term(atom.needle, strings),
            _eval_int(atom.offset, integers, strings),
        )
        result = _eval_int(atom.result, integers, strings) == value
        return result if atom.positive else not result
    if isinstance(atom, ReplaceAtom):
        value = str_replace(
            eval_term(atom.haystack, strings),
            eval_term(atom.needle, strings),
            eval_term(atom.replacement, strings),
        )
        result = eval_term(atom.target, strings) == value
        return result if atom.positive else not result
    if isinstance(atom, LengthConstraint):
        return lia_evaluate(atom.formula, _assignment(atom.formula.variables(), integers, strings))
    raise TypeError(f"unknown atom {atom!r}")


def eval_problem(
    problem: Problem,
    strings: Mapping[str, str],
    integers: Optional[Mapping[str, int]] = None,
) -> bool:
    """Evaluate a whole problem (conjunction of atoms)."""
    return all(eval_atom(atom, strings, integers, problem.alphabet) for atom in problem.atoms)
