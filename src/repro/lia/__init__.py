"""Linear integer arithmetic substrate.

Public surface:

* :mod:`repro.lia.terms` — :class:`LinExpr`, formula constructors
  (``le``, ``lt``, ``eq``, ``ne``, ``conj``, ``disj``, ``implies``, ...),
* :class:`repro.lia.solver.LiaSolver` — quantifier-free satisfiability with
  integer models,
* :mod:`repro.lia.simplex` / :mod:`repro.lia.intsolver` — the arithmetic core
  (exact simplex, branch and bound),
* :class:`repro.lia.intsolver.ResourceLimit` — the budget-exhausted signal.
"""

from .terms import (
    FALSE,
    TRUE,
    And,
    BoolConst,
    Eq,
    Formula,
    Implies,
    Le,
    LinExpr,
    Not,
    Or,
    conj,
    const,
    disj,
    eq,
    evaluate,
    formula_size,
    ge,
    gt,
    implies,
    le,
    lt,
    ne,
    neg,
    substitute,
    var,
)
from .solver import LiaModel, LiaResult, LiaSolver, LiaStatus, check_model
from .intsolver import ResourceLimit

__all__ = [
    "LinExpr",
    "Formula",
    "BoolConst",
    "Le",
    "Eq",
    "And",
    "Or",
    "Not",
    "Implies",
    "TRUE",
    "FALSE",
    "var",
    "const",
    "le",
    "lt",
    "ge",
    "gt",
    "eq",
    "ne",
    "conj",
    "disj",
    "neg",
    "implies",
    "evaluate",
    "substitute",
    "formula_size",
    "LiaSolver",
    "LiaModel",
    "LiaResult",
    "LiaStatus",
    "check_model",
    "ResourceLimit",
]
