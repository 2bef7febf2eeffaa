"""Negation normal form for quantifier-free LIA formulae.

Negations are pushed to the leaves and then *eliminated*: over the integers
``¬(e <= 0)`` becomes ``-e + 1 <= 0`` and ``¬(e = 0)`` becomes
``(e + 1 <= 0) ∨ (-e + 1 <= 0)``.  The result therefore only contains
``And`` / ``Or`` over positive :class:`~repro.lia.terms.Le` /
:class:`~repro.lia.terms.Eq` atoms, which makes the formula *monotone* in its
atoms — a property the lazy SMT loop exploits (only atoms assigned true need
to be sent to the arithmetic core).
"""

from __future__ import annotations

from .terms import (
    FALSE,
    TRUE,
    And,
    BoolConst,
    Eq,
    Formula,
    Implies,
    Le,
    Not,
    Or,
    conj,
    disj,
)


def to_nnf(formula: Formula, negate: bool = False) -> Formula:
    """Return an equivalent formula in negation normal form.

    ``negate=True`` computes the NNF of the negation of ``formula``.
    """
    if isinstance(formula, BoolConst):
        value = formula.value != negate
        return TRUE if value else FALSE

    if isinstance(formula, Le):
        if not negate:
            return formula
        # not (e <= 0)  <=>  e >= 1  <=>  -e + 1 <= 0
        return Le((-formula.expr) + 1)

    if isinstance(formula, Eq):
        if not negate:
            return formula
        # not (e = 0)  <=>  e <= -1  or  e >= 1
        return disj([Le(formula.expr + 1), Le((-formula.expr) + 1)])

    if isinstance(formula, Not):
        return to_nnf(formula.arg, not negate)

    if isinstance(formula, And):
        parts = [to_nnf(arg, negate) for arg in formula.args]
        return disj(parts) if negate else conj(parts)

    if isinstance(formula, Or):
        parts = [to_nnf(arg, negate) for arg in formula.args]
        return conj(parts) if negate else disj(parts)

    if isinstance(formula, Implies):
        rewritten = disj([to_nnf(formula.antecedent, True), to_nnf(formula.consequent, False)])
        return to_nnf(rewritten, negate) if negate else rewritten

    raise TypeError(f"unsupported formula {formula!r}")
