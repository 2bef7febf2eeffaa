"""Preprocessing of LIA formulae before the DPLL(T) search.

Parikh (tag) formulae are dominated by *defining equalities*: tag counters
are sums of transition counters, most ``γ`` variables are fixed to 0, and
Kirchhoff constraints chain counters together.  Eliminating such equalities
by substitution shrinks the formula dramatically (fewer atoms, fewer
variables) and is the single most important performance lever of the solver.

The elimination is satisfiability- and model-preserving: each eliminated
variable has a definition ``v = expr`` with unit coefficient, recorded in
order so that :func:`complete_model` can recover its value from a model of
the reduced formula.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..budget import checkpoint
from .terms import And, BoolConst, Eq, Formula, LinExpr, conj, substitute

#: Maximum number of variables in a defining expression used for elimination;
#: larger definitions cause too much fill-in to be worth substituting.
_MAX_DEFINITION_SIZE = 24


def _isolate(expr: LinExpr, exclude: set) -> Optional[Tuple[str, LinExpr]]:
    """Find a variable with coefficient ±1 in ``expr = 0`` and solve for it."""
    for name, coeff in expr.coeffs.items():
        if name in exclude:
            continue
        if coeff in (1, -1):
            rest_coeffs = {other: c for other, c in expr.coeffs.items() if other != name}
            rest = LinExpr(rest_coeffs, expr.const)
            definition = rest * (-1) if coeff == 1 else rest
            if len(definition.coeffs) <= _MAX_DEFINITION_SIZE:
                return name, definition
    return None


def eliminate_equalities(
    formula: Formula, protected: Optional[set] = None
) -> Tuple[Formula, List[Tuple[str, LinExpr]]]:
    """Eliminate top-level defining equalities by substitution.

    ``protected`` variables are never eliminated (useful when the caller needs
    their values to appear directly in the reduced model, e.g. user-visible
    length variables).  Returns the reduced formula and the elimination order.
    """
    protected = set(protected or ())
    eliminated: List[Tuple[str, LinExpr]] = []

    if not isinstance(formula, And):
        return formula, eliminated

    # Conjuncts keep their slot for the whole pass (``None`` = dropped), so
    # the eliminating equality is always the lowest-position ``Eq`` that
    # isolates — the one a rescan from the front would find.  Only the
    # conjuncts that mention the eliminated variable are rewritten, and
    # only rewritten ones re-enter the candidate heap: one that failed to
    # isolate fails again until its expression changes.
    conjuncts: List[Optional[Formula]] = list(formula.args)
    candidates = [position for position, c in enumerate(conjuncts) if isinstance(c, Eq)]
    queued = set(candidates)
    #: variable -> slots whose conjunct may mention it (a superset: a slot
    #: stays listed after its variable cancels out or the slot is dropped)
    occurrences: Optional[Dict[str, Set[int]]] = None
    while candidates:
        index = heappop(candidates)
        queued.discard(index)
        checkpoint("lia.presolve")
        conjunct = conjuncts[index]
        if not isinstance(conjunct, Eq):
            continue
        isolated = _isolate(conjunct.expr, protected)
        if isolated is None:
            continue
        name, definition = isolated
        mapping = {name: definition}
        conjuncts[index] = None
        if occurrences is None:
            # The first elimination rewrites every conjunct once, which also
            # folds constant atoms and nested connectives; from then on a
            # conjunct that does not mention a variable is a fixpoint of
            # substituting it.
            occurrences = {}
            targets: Iterable[int] = range(len(conjuncts))
        else:
            targets = sorted(occurrences.pop(name, ()))
        for position in targets:
            other = conjuncts[position]
            if other is None:
                continue
            checkpoint("lia.presolve")
            replaced = substitute(other, mapping)
            if isinstance(replaced, BoolConst) and replaced.value:
                conjuncts[position] = None
                continue
            conjuncts[position] = replaced
            for other_name in replaced.variables():
                occurrences.setdefault(other_name, set()).add(position)
            if isinstance(replaced, Eq) and position not in queued:
                queued.add(position)
                heappush(candidates, position)
        eliminated.append((name, definition))

    reduced = conj([c for c in conjuncts if c is not None])
    return reduced, eliminated


def complete_model(model: Dict[str, int], eliminated: List[Tuple[str, LinExpr]]) -> Dict[str, int]:
    """Extend a model of the reduced formula with the eliminated variables.

    Definitions are evaluated in reverse elimination order: a definition
    only mentions variables still present when it was created, so every
    variable it reads is either in ``model`` or defined by a later
    elimination, which the reverse walk has already evaluated.
    """
    completed = dict(model)
    for name, definition in reversed(eliminated):
        value = definition.const
        for other, coeff in definition.coeffs.items():
            value += coeff * completed.get(other, 0)
        completed[name] = int(value)
    return completed
