"""Integer feasibility of conjunctions of linear constraints.

The rational relaxation is decided by :mod:`repro.lia.simplex`; integrality
is then enforced by a genuine **branch-and-cut** search, mirroring Z3's
"Simplex extended with a branch-and-cut strategy" mentioned in §8 of the
paper.  The pipeline per :func:`check_integer_feasibility` call:

1. **Presolve** (:func:`_reduce_over_z`): equality elimination over ℤ by
   the presolve's own loop (:func:`repro.lia.simplify.eliminate`: gcd
   normalisation, unit pivots, provenance tags), gcd tightening of the
   inequalities and equalities implied by bound pairs, to a fixpoint.
   Divisibility conflicts surfaced here are refuted without touching the
   simplex.
2. **Branch-and-cut**: branch-and-bound on fractional variables, where each
   node first spends up to ``_CUT_ROUNDS`` rounds of Gomory mixed-integer
   cuts (:meth:`repro.lia.simplex.Simplex.gomory_cuts`) derived from
   fractional basic rows of the feasible tableau.  Cuts are what refute
   pure-inequality mod-k conflicts — e.g. the ``(abc)*``
   commuting-disequality instances — that plain branch-and-bound diverges
   on.  Cuts added at the root are globally valid; cuts derived below a
   branch live in that branch's scope and are retracted on backtracking
   (their derivation may use branch bounds).

Budgets: ``max_nodes`` (default 4000; the LIA solver's theory hook keeps
the default) bounds branch-and-bound nodes, and ``_CUT_ROUNDS`` /
``_MAX_CUTS`` bound the cuts per node and per check.  The search raises
:class:`ResourceLimit` when a node or depth budget is exhausted — callers
then report ``UNKNOWN`` rather than an unsound verdict.

Every derived fact carries provenance: cut tags are frozenset unions of the
tags of the bounds used in their derivation, and substitution descendants
union their source equality's tags — so a conflict core reported from any
layer names exactly the original caller constraints that produced it (see
:func:`repro.lia.simplify.eliminate` for why anything less is unsound).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..budget import Budget
from .simplex import Constraint, Simplex, SimplexResult
from .simplify import _gcd, complete_model, eliminate
from .terms import Eq, Formula, Le, LinExpr


#: Gomory cut rounds per branch-and-bound node, and cuts per check
_CUT_ROUNDS = 10
_MAX_CUTS = 200


class ResourceLimit(Exception):
    """Raised when a solving budget (nodes, pivots, wall clock) is exhausted."""


@dataclass
class IntResult:
    """Outcome of an integer feasibility check."""

    feasible: bool
    model: Optional[Dict[str, int]] = None
    conflict: Optional[Set[object]] = None
    #: simplex pivots spent on this check (benchmark statistic)
    pivots: int = 0


def _tagset(tag) -> frozenset:
    """A constraint's tag as a frozenset of original caller tags."""
    if isinstance(tag, frozenset):
        return tag
    return frozenset() if tag is None else frozenset((tag,))


def _flatten_tags(tags) -> Set[object]:
    """Expand frozenset provenance tags back into the original caller tags."""
    out: Set[object] = set()
    for tag in tags or ():
        if isinstance(tag, frozenset):
            out |= tag
        elif tag is not None:
            out.add(tag)
    return out


def _implied_equalities(constraints: Sequence[Constraint]) -> Tuple[Optional[List[Constraint]], Set[object]]:
    """Derive equalities implied by pairs of inequalities.

    Two sources are recognised: a variable whose lower and upper bounds
    coincide, and a pair ``e ≤ 0`` / ``−e ≤ 0``.  Such hidden equalities are
    what makes divisibility conflicts visible to the elimination (e.g. a
    γ-variable forced to 1 by two inequalities, turning
    ``3x − 3y + 2γ = 0`` into a mod-3 conflict).  Returns ``None`` when the
    bounds themselves are contradictory.
    """
    lower: Dict[str, Tuple[int, frozenset]] = {}
    upper: Dict[str, Tuple[int, frozenset]] = {}
    seen_forms: Dict[Tuple, Constraint] = {}
    implied: List[Constraint] = []

    for constraint in constraints:
        if constraint.relation == "==":
            continue
        expr = constraint.expr if constraint.relation == "<=" else constraint.expr * -1
        key = tuple(sorted(expr.coeffs.items())) + (expr.const,)
        seen_forms.setdefault(key, constraint)
        if len(expr.coeffs) == 1:
            ((name, coeff),) = expr.coeffs.items()
            if coeff > 0:
                # coeff·name + const <= 0  =>  name <= floor(-const / coeff)
                bound = (-expr.const) // coeff
                current = upper.get(name)
                if current is None or bound < current[0]:
                    upper[name] = (bound, constraint.tag)
            else:
                # -m·name + const <= 0  =>  name >= ceil(const / m)
                magnitude = -coeff
                bound = -((-expr.const) // magnitude)
                current = lower.get(name)
                if current is None or bound > current[0]:
                    lower[name] = (bound, constraint.tag)

    for name in sorted(set(lower) & set(upper)):
        low, low_tags = lower[name]
        high, high_tags = upper[name]
        if low > high:
            return None, low_tags | high_tags
        if low == high:
            # The implied equality relies on *both* bounds.
            implied.append(Constraint(LinExpr({name: 1}, -low), "==", low_tags | high_tags))

    for key, constraint in seen_forms.items():
        expr = constraint.expr if constraint.relation == "<=" else constraint.expr * -1
        if len(expr.coeffs) <= 1:
            continue
        negated = expr * -1
        negated_key = tuple(sorted(negated.coeffs.items())) + (negated.const,)
        if negated_key in seen_forms and repr(key) < repr(negated_key):
            other = seen_forms[negated_key]
            implied.append(Constraint(expr, "==", constraint.tag | other.tag))

    return implied, set()


def _reduce_over_z(
    constraints: Sequence[Constraint],
) -> Tuple[Optional[List[Constraint]], List[Tuple[str, LinExpr]], frozenset]:
    """Fixpoint of equality elimination, gcd tightening and implied equalities.

    Each round runs :func:`repro.lia.simplify.eliminate` with provenance
    tags (frozensets of original caller tags; callers flatten conflict sets
    with :func:`_flatten_tags`), decides constant rows and *tightens*
    inequalities by gcd rounding: over the integers ``Σ c_i x_i ≤ b`` is
    equivalent to ``Σ (c_i/g) x_i ≤ ⌊b/g⌋``.  This rounding is what lets
    the rational simplex refute parity conflicts such as
    ``2x − 2y ≤ −1 ∧ 2y − 2x ≤ 0`` that branch-and-bound diverges on.  The
    equalities :func:`_implied_equalities` finds feed the next round.

    Returns ``(reduced constraints or None, eliminated definitions,
    conflict tags)``; the reduced system lists inequalities (as ``<=``)
    before the equalities that kept no unit coefficient.
    """
    current = list(constraints)
    eliminated_all: List[Tuple[str, LinExpr]] = []
    for _round in range(6):
        rows: List[Optional[Formula]] = [
            Eq(c.expr) if c.relation == "==" else Le(c.expr if c.relation == "<=" else c.expr * -1)
            for c in current
        ]
        tags = [_tagset(c.tag) for c in current]
        eliminated, conflict = eliminate(rows, tags)
        eliminated_all.extend(eliminated)
        if conflict is not None:
            return None, eliminated_all, conflict
        reduced: List[Constraint] = []
        equalities: List[Constraint] = []
        for row, tag in zip(rows, tags):
            if row is None:
                continue
            expr = row.expr
            if not expr.coeffs:
                holds = expr.const == 0 if isinstance(row, Eq) else expr.const <= 0
                if not holds:
                    return None, eliminated_all, tag
                continue
            if isinstance(row, Eq):
                equalities.append(Constraint(expr, "==", tag))
                continue
            coeffs, const = _tighten(expr.coeffs, expr.const)
            if coeffs is not expr.coeffs:
                expr = LinExpr(coeffs, const)
            reduced.append(Constraint(expr, "<=", tag))
        reduced += equalities
        implied, bound_conflict = _implied_equalities(reduced)
        if implied is None:
            return None, eliminated_all, bound_conflict
        present = {c.expr for c in equalities}
        new_equalities = [c for c in implied if c.expr not in present]
        if not new_equalities:
            break
        current = reduced + new_equalities
    return reduced, eliminated_all, frozenset()


def _tighten(coeffs: Dict[str, int], const: int) -> Tuple[Dict[str, int], int]:
    """gcd-tighten ``Σ c_i x_i + const ≤ 0`` over the integers.

    Dividing by ``g = gcd(c_i)`` and flooring the bound is divisibility
    reasoning: ``Σ c_i x_i ≤ b`` iff ``Σ (c_i/g) x_i ≤ ⌊b/g⌋`` for integer
    solutions.
    """
    g = _gcd(coeffs.values())
    if g <= 1:
        return coeffs, const
    bound = (-const) // g
    return {name: coeff // g for name, coeff in coeffs.items()}, -bound


def _fractional_variable(model: Dict[str, Fraction]) -> Optional[str]:
    """Return a variable that must be integral but currently is not."""
    best_name = None
    best_distance = None
    for name, value in model.items():
        if name.startswith("__s"):
            continue
        if value.denominator == 1:
            continue
        fractional_part = value - value.__floor__()
        distance = abs(Fraction(1, 2) - fractional_part)
        if best_distance is None or distance < best_distance:
            best_distance = distance
            best_name = name
    return best_name


def check_integer_feasibility(
    constraints: Sequence[Constraint],
    max_nodes: int = 4000,
    budget: Optional[Budget] = None,
) -> IntResult:
    """Decide whether ``constraints`` have an integer solution.

    The branch-and-cut search spends at most ``_CUT_ROUNDS`` Gomory cut
    rounds per node and ``_MAX_CUTS`` cuts per call (see the module
    docstring).  The function either returns a definitive
    :class:`IntResult` or raises :class:`ResourceLimit` on the node/depth
    budgets.  Wall-clock bounding goes through ``budget`` (one
    checkpoint per branch-and-bound node and cut round, plus the simplex's
    per-pivot checkpoints against the ambient budget), raising
    :class:`repro.budget.BudgetExceeded` — deliberately distinct from
    ``ResourceLimit``, which callers treat as a recoverable per-assignment
    event.
    """
    reduced, eliminated, conflict_tags = _reduce_over_z(constraints)
    if reduced is None:
        tags = _flatten_tags(conflict_tags)
        if not tags:
            tags = {c.tag for c in constraints if c.tag is not None}
        return IntResult(False, conflict=tags)
    constraints = reduced

    nodes_used = 0
    cuts_used = 0
    max_depth = 120

    # One tableau for the whole search: the base constraints are loaded once
    # and every branch constraint is a retractable single-variable bound
    # (push/pop), so no node ever rebuilds rows and every relaxation check
    # starts from the previous (warm) basis.
    simplex = Simplex()
    for constraint in constraints:
        simplex.add_constraint(constraint)

    def solve(depth: int = 0) -> IntResult:
        nonlocal nodes_used, cuts_used
        nodes_used += 1
        if nodes_used > max_nodes:
            raise ResourceLimit(f"branch-and-bound exceeded {max_nodes} nodes")
        if depth > max_depth:
            raise ResourceLimit(f"branch-and-bound exceeded depth {max_depth}")
        if budget is not None:
            budget.checkpoint("lia.intsolver")

        relaxation: SimplexResult = simplex.check()
        if not relaxation.feasible:
            return IntResult(False, conflict=relaxation.conflict)

        # Gomory cut rounds: tighten the relaxation before branching.  Cuts
        # added at the root (no enclosing scope) persist for the whole
        # search; cuts below a branch live in the branch's scope and are
        # retracted with it (their derivation may use branch bounds).
        rounds = 0
        branch_var = _fractional_variable(relaxation.model)
        while branch_var is not None and rounds < _CUT_ROUNDS and cuts_used < _MAX_CUTS:
            round_cuts = simplex.gomory_cuts(max_cuts=min(8, _MAX_CUTS - cuts_used))
            if not round_cuts:
                break
            rounds += 1
            cuts_used += len(round_cuts)
            for cut in round_cuts:
                simplex.add_constraint(cut)
            relaxation = simplex.check()
            if not relaxation.feasible:
                return IntResult(False, conflict=relaxation.conflict)
            branch_var = _fractional_variable(relaxation.model)
            if budget is not None:
                budget.checkpoint("lia.intsolver")

        if branch_var is None:
            model = {
                name: int(value)
                for name, value in relaxation.model.items()
                if not name.startswith("__s")
            }
            return IntResult(True, model=complete_model(model, eliminated))

        value = relaxation.model[branch_var]
        floor_value = value.__floor__()
        below = Constraint(LinExpr({branch_var: 1}, -floor_value), "<=", tag=None)
        above = Constraint(LinExpr({branch_var: 1}, -(floor_value + 1)), ">=", tag=None)

        simplex.push()
        simplex.add_constraint(below)
        left = solve(depth + 1)
        simplex.pop()
        if left.feasible:
            return left
        simplex.push()
        simplex.add_constraint(above)
        right = solve(depth + 1)
        simplex.pop()
        if right.feasible:
            return right
        # Neither branch is integer feasible.  The union of the two branch
        # cores over-approximates a minimal explanation but is still a sound
        # core (the branch constraints themselves carry no tag and drop out):
        # reporting it lets the caller learn a clause that actually prunes,
        # where an empty core would force blocking the entire assignment.
        return IntResult(
            False, conflict=(left.conflict or set()) | (right.conflict or set())
        )

    result = solve()
    result.pivots = simplex.pivots
    if not result.feasible:
        result.conflict = _flatten_tags(result.conflict)
    return result


def check_rational_feasibility(
    constraints: Sequence[Constraint], simplex: Optional[Simplex] = None
) -> SimplexResult:
    """Check the rational relaxation only (used for fast pruning in DPLL(T)).

    ``simplex`` is an optional scratch tableau: the check runs inside a
    push/pop scope on it, so a caller testing many subsets of one
    constraint pool prepares each row once and keeps the basis warm.
    """
    if simplex is None:
        simplex = Simplex()
    simplex.push()
    try:
        for constraint in constraints:
            simplex.add_constraint(constraint)
        return simplex.check()
    finally:
        simplex.pop()
