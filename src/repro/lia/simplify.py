"""Equality elimination over the integers.

Parikh (tag) formulae are dominated by *defining equalities*: tag counters
are sums of transition counters, most ``γ`` variables are fixed to 0, and
Kirchhoff constraints chain counters together.  Eliminating such equalities
by substitution shrinks the formula dramatically (fewer atoms, fewer
variables) and is the single most important performance lever of the solver.

One loop, :func:`eliminate`, serves both callers: the presolve
(:func:`eliminate_equalities`, on the top-level conjuncts of each asserted
batch) and the final integer check (:mod:`repro.lia.intsolver`, on the
atoms of a complete boolean assignment, with provenance tags).

The elimination is satisfiability- and model-preserving over ℤ: each
equality is first divided by the gcd of its coefficients (with provenance
tags, a constant the gcd does not divide refutes it), and each eliminated
variable has a definition ``v = expr`` with unit coefficient, recorded in
order so that :func:`complete_model` can recover its value from a model of
the reduced formula.
"""

from __future__ import annotations

from collections import defaultdict
from heapq import heappop, heappush
from math import gcd
from typing import Collection, DefaultDict, Dict, Iterable, List, Optional, Set, Tuple

from ..budget import checkpoint
from .terms import FALSE, And, BoolConst, Eq, Formula, Le, LinExpr, conj, substitute

#: Maximum number of variables in a defining expression used for elimination
#: by the presolve; larger definitions cause too much fill-in to be worth
#: substituting into a formula that is encoded once and searched many times.
_MAX_DEFINITION_SIZE = 24


def _gcd(values: Iterable) -> int:
    """gcd of the magnitudes of ``values``; 1 when one is not integral."""
    result = 0
    for value in values:
        if value.denominator != 1:
            return 1
        result = gcd(result, abs(int(value)))
    return result


def _isolate(
    expr: LinExpr, exclude: Collection[str], max_size: Optional[int] = _MAX_DEFINITION_SIZE
) -> Optional[Tuple[str, LinExpr]]:
    """Find a variable with coefficient ±1 in ``expr = 0`` and solve for it."""
    for name, coeff in expr.coeffs.items():
        if name in exclude:
            continue
        if coeff in (1, -1):
            rest_coeffs = {other: c for other, c in expr.coeffs.items() if other != name}
            rest = LinExpr(rest_coeffs, expr.const)
            definition = rest * (-1) if coeff == 1 else rest
            if max_size is None or len(definition.coeffs) <= max_size:
                return name, definition
    return None


def _names(formula: Formula) -> Iterable[str]:
    """The variables of ``formula``, unsorted for an atom."""
    return formula.expr.coeffs if isinstance(formula, (Le, Eq)) else formula.variables()


def eliminate(
    conjuncts: List[Optional[Formula]],
    tags: Optional[List[frozenset]] = None,
    protected: Collection[str] = (),
    max_size: Optional[int] = None,
    site: str = "lia.eliminate",
) -> Tuple[List[Tuple[str, LinExpr]], Optional[frozenset]]:
    """Eliminate the defining equalities of a conjunction, in place.

    ``conjuncts`` keep their slot for the whole pass (``None`` = dropped),
    so the eliminating equality is always the lowest-position ``Eq`` that
    isolates — the one a rescan from the front would find.  Each candidate
    equality is first divided by the gcd of its coefficients.  Only the
    conjuncts that mention the eliminated variable are rewritten, and only
    rewritten ones re-enter the candidate heap: one that failed to isolate
    fails again until its expression changes.

    ``protected`` variables are never eliminated and definitions longer than
    ``max_size`` are not used.  ``tags`` (one frozenset per conjunct) track
    provenance: a conjunct rewritten with the definition from equality
    ``E`` takes ``E``'s tags too, so a conflict on a descendant names every
    constraint that produced it — reporting only its own tag would yield an
    unsound conflict core (and, one level up, an over-strong learned theory
    clause).  Each candidate and each rewrite checkpoints ``site``.

    Returns ``(eliminated definitions, conflict)``.  ``conflict`` is
    ``None``, or the tags of the refuted conjunct when a rewrite folds to
    ``false`` (empty without ``tags``) or, with ``tags``, when an equality
    fails the gcd test; the pass stops there, leaving ``conjuncts`` partly
    rewritten.  Without ``tags`` an equality failing the gcd test is kept
    as it is.
    """
    eliminated: List[Tuple[str, LinExpr]] = []
    candidates = [position for position, c in enumerate(conjuncts) if isinstance(c, Eq)]
    queued = set(candidates)
    #: variable -> slots whose conjunct may mention it (a superset: a slot
    #: stays listed after its variable cancels out or the slot is dropped)
    occurrences: Optional[DefaultDict[str, Set[int]]] = None
    while candidates:
        index = heappop(candidates)
        queued.discard(index)
        checkpoint(site)
        conjunct = conjuncts[index]
        if not isinstance(conjunct, Eq):
            continue
        expr = conjunct.expr
        divisor = _gcd(expr.coeffs.values())
        if divisor > 1:
            if expr.const % divisor:
                if tags is not None:
                    return eliminated, tags[index]
                # Without tags the refutation could not be traced back to
                # the caller's formulas; the equality stays for the theory,
                # whose conflicts name their atoms.
                continue
            expr = LinExpr(
                {name: coeff // divisor for name, coeff in expr.coeffs.items()},
                expr.const // divisor,
            )
            conjuncts[index] = Eq(expr)
        isolated = _isolate(expr, protected, max_size)
        if isolated is None:
            continue
        name, definition = isolated
        eliminated.append((name, definition))
        mapping = {name: definition}
        source = None if tags is None else tags[index]
        conjuncts[index] = None
        sweep = occurrences is None
        if sweep:
            # The first elimination rewrites every conjunct once, which also
            # folds constant atoms and nested connectives, and indexes every
            # variable; from then on a conjunct that does not mention a
            # variable is a fixpoint of substituting it, and a rewrite can
            # only add the definition's variables.
            occurrences = defaultdict(set)
            targets: Iterable[int] = range(len(conjuncts))
        else:
            targets = sorted(occurrences.pop(name, ()))
        for position in targets:
            other = conjuncts[position]
            if other is None:
                continue
            names = _names(other)
            if names and name not in names and isinstance(other, (Le, Eq)):
                # A non-constant atom without ``name`` is a fixpoint.
                if sweep:
                    for other_name in names:
                        occurrences[other_name].add(position)
                continue
            checkpoint(site)
            replaced = substitute(other, mapping)
            if source is not None and name in names:
                tags[position] |= source
            if isinstance(replaced, BoolConst):
                if not replaced.value:
                    return eliminated, frozenset() if tags is None else tags[position]
                conjuncts[position] = None
                continue
            conjuncts[position] = replaced
            for other_name in _names(replaced) if sweep else definition.coeffs:
                occurrences[other_name].add(position)
            if isinstance(replaced, Eq) and position not in queued:
                queued.add(position)
                heappush(candidates, position)
    return eliminated, None


def eliminate_equalities(
    formula: Formula, protected: Optional[set] = None
) -> Tuple[Formula, List[Tuple[str, LinExpr]]]:
    """The presolve: eliminate top-level defining equalities by substitution.

    ``protected`` variables are never eliminated (useful when the caller needs
    their values to appear directly in the reduced model, e.g. user-visible
    length variables).  Returns the reduced formula — ``false`` when a
    rewrite folds a conjunct to ``false`` — and the elimination order.
    """
    if not isinstance(formula, And):
        return formula, []
    conjuncts: List[Optional[Formula]] = list(formula.args)
    eliminated, conflict = eliminate(
        conjuncts,
        protected=protected or (),
        max_size=_MAX_DEFINITION_SIZE,
        site="lia.presolve",
    )
    if conflict is not None:
        return FALSE, eliminated
    return conj([c for c in conjuncts if c is not None]), eliminated


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
