"""The paper's decision procedure for position constraints.

Layout (section numbers refer to the paper):

* :mod:`repro.core.tags`, :mod:`repro.core.tag_automaton`,
  :mod:`repro.core.parikh` — tag automata and Parikh (tag) formulae (§4),
* :mod:`repro.core.predicates` — the position-constraint representation,
* :mod:`repro.core.single` — the mismatch conditions (§5.2, §6.2–6.3), written
  once and shared, and the single-predicate encoding over ``A^II``,
* :mod:`repro.core.system` — systems of predicates over ``A^III`` (§5.3,
  §6.5, App. C), reading the same conditions,
* :mod:`repro.core.notcontains` — the ¬contains procedure for flat
  languages (§6.4),
* :mod:`repro.core.witness` — model reconstruction from Parikh images,
* :mod:`repro.core.lengths` — length sets of automata, for variables no
  predicate mentions (a lasso formula and a word of a given length).
"""

from .predicates import (
    Disequality,
    NotContains,
    NotPrefixOf,
    NotSuffixOf,
    PositionPredicate,
    StrAt,
    evaluate_all,
    predicate_variables,
)
from .single import TagEncoding, encode_single
from .system import encode_system
from .notcontains import NotContainsEncoder, find_failing_offset
from .witness import extract_assignment

__all__ = [
    "Disequality",
    "NotPrefixOf",
    "NotSuffixOf",
    "StrAt",
    "NotContains",
    "PositionPredicate",
    "predicate_variables",
    "evaluate_all",
    "TagEncoding",
    "encode_single",
    "encode_system",
    "NotContainsEncoder",
    "find_failing_offset",
    "extract_assignment",
]
