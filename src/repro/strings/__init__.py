"""String-constraint frontend: AST, normal form, reductions, semantics.

SMT-LIB input and output live in :mod:`repro.smtlib` (lexer/parser,
printer and the ``python -m repro.smtlib`` runner).
"""

from .ast import (
    Atom,
    Contains,
    EXTENDED_ATOMS,
    IndexOfAtom,
    LengthConstraint,
    PrefixOf,
    Problem,
    RegexMembership,
    ReplaceAtom,
    StrAtAtom,
    StringLiteral,
    StringVar,
    SubstrAtom,
    SuffixOf,
    WordEquation,
    length_variable,
    lit,
    str_len,
    string_of_length_variable,
    term,
    term_length,
)
from .normal_form import NormalForm, NormalizationCache, normalize
from .reductions import ReducedCase, ReductionError, needs_reduction, reduce_problem
from .semantics import eval_atom, eval_problem, eval_term


__all__ = [
    "Problem",
    "Atom",
    "WordEquation",
    "RegexMembership",
    "PrefixOf",
    "SuffixOf",
    "Contains",
    "StrAtAtom",
    "LengthConstraint",
    "StringVar",
    "StringLiteral",
    "term",
    "lit",
    "str_len",
    "length_variable",
    "string_of_length_variable",
    "NormalForm",
    "NormalizationCache",
    "normalize",
    "eval_atom",
    "eval_problem",
    "eval_term",
]
