"""The paper's decision procedure for position constraints.

Layout (section numbers refer to the paper):

* :mod:`repro.core.tags`, :mod:`repro.core.tag_automaton`,
  :mod:`repro.core.parikh` — tag automata and Parikh (tag) formulae (§4),
* :mod:`repro.core.predicates` — the position-constraint representation,
* :mod:`repro.core.single` — single-predicate encodings (§5.1–5.2, §6.2–6.3),
* :mod:`repro.core.system` — systems of predicates (§5.3, §6.5, App. C),
* :mod:`repro.core.notcontains` — the ¬contains procedure for flat
  languages (§6.4),
* :mod:`repro.core.witness` — model reconstruction from Parikh images,
* :mod:`repro.core.lengths` — length sets of automata, for variables no
  predicate mentions (a lasso formula and a word of a given length),
* :mod:`repro.core.one_counter` — the PTime procedure for a single
  disequality (§7, App. B).
"""

from .predicates import (
    Disequality,
    LengthEquality,
    NotContains,
    NotPrefixOf,
    NotSuffixOf,
    PositionPredicate,
    StrAt,
    evaluate_all,
    predicate_variables,
)
from .single import SingleEncoding, encode_single
from .system import SystemEncoding, encode_system
from .notcontains import NotContainsEncoder, find_failing_offset
from .witness import extract_assignment

__all__ = [
    "Disequality",
    "NotPrefixOf",
    "NotSuffixOf",
    "StrAt",
    "NotContains",
    "LengthEquality",
    "PositionPredicate",
    "predicate_variables",
    "evaluate_all",
    "SingleEncoding",
    "encode_single",
    "SystemEncoding",
    "encode_system",
    "NotContainsEncoder",
    "find_failing_offset",
    "extract_assignment",
]
