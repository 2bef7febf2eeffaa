"""Finite-automata substrate (the reproduction's analogue of the Mata library).

Public surface:

* :class:`~repro.automata.nfa.Nfa` — the NFA data structure,
* :mod:`~repro.automata.operations` — union/concat/star/intersection/complement/...,
* :func:`~repro.automata.regex.compile_regex` — regex → NFA compilation,
* :func:`~repro.automata.flatness.is_flat` — flatness check (§2 / §6.4),
* :mod:`~repro.automata.enumeration` — bounded language enumeration,
* :func:`~repro.automata.minimization.minimize` — Hopcroft minimisation.
"""

from .nfa import EPSILON, Nfa
from .dense import DenseNfa, as_dense, as_nfa, intern_nfa
from .operations import (
    ProductWalk,
    complement,
    concat,
    determinize,
    intersection,
    intersection_empty,
    is_subset,
    optional,
    remove_epsilon,
    repeat,
    star,
    union,
)
from .regex import DEFAULT_ALPHABET, RegexError, compile_regex, parse
from .flatness import is_flat, strongly_connected_components
from .enumeration import count_words_of_length, is_finite, shortest_word, words_up_to
from .minimization import minimize

__all__ = [
    "EPSILON",
    "Nfa",
    "DenseNfa",
    "as_dense",
    "as_nfa",
    "intern_nfa",
    "intersection_empty",
    "union",
    "concat",
    "star",
    "optional",
    "repeat",
    "remove_epsilon",
    "determinize",
    "complement",
    "intersection",
    "ProductWalk",
    "is_subset",
    "compile_regex",
    "parse",
    "RegexError",
    "DEFAULT_ALPHABET",
    "is_flat",
    "strongly_connected_components",
    "shortest_word",
    "words_up_to",
    "count_words_of_length",
    "is_finite",
    "minimize",
]
