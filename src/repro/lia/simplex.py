"""An exact-rational general simplex for conjunctions of linear constraints.

This is the theory core of the reproduction's LIA solver and follows the
general simplex of Dutertre and de Moura ("A Fast Linear-Arithmetic Solver
for DPLL(T)", CAV 2006): every input constraint ``Σ c_i·x_i ⋈ b`` is turned
into a *slack variable* ``s = Σ c_i·x_i`` with a bound on ``s``; the tableau
keeps basic variables expressed as linear combinations of non-basic ones and
the ``check`` procedure repairs bound violations by pivoting (Bland's rule
guarantees termination).

The solver is *incremental* in the DPLL(T) discipline of the paper: bound
assertions are backtrackable via :meth:`Simplex.push` / :meth:`Simplex.pop`
while the tableau rows, the slack-variable cache and the current (last
feasible) basis survive — asserting and retracting bounds never rebuilds the
tableau, and a re-``check`` after small bound changes starts from the warm
basis.  :meth:`Simplex.prepare` registers a constraint's linear form (row
creation only) and returns a bound handle that can be asserted cheaply with
:meth:`Simplex.assert_bound` on every theory check.  :meth:`Simplex.check`
works on deltas too: it keeps the variables whose bound tightened and the
basic variables whose value moved since the last check, and scans only
those for violations, so a check after one new bound costs little more
than that bound's repair.

All arithmetic is exact.  The tableau is fraction-free: each row holds
:class:`int` numerators over one positive :class:`int` row denominator
(``_den``), kept primitive, so pivoting and row substitution never touch
:class:`fractions.Fraction` (an ``int`` multiply-add is tens of times
cheaper).  A positive denominator leaves every coefficient's sign as it is,
so Bland's choices and the pivot sequence are those of a rational tableau.
Bounds and assignments are kept as plain ``int`` for as long as every
division is exact and are promoted to ``Fraction`` only on the first
non-integral one (see :func:`_div`); the assignment updates divide by the
row denominator there.  ``int`` and ``Fraction`` mix freely in comparisons
and arithmetic, so bounds and assignments may hold either.

:meth:`Simplex.gomory_cuts` derives Gomory mixed-integer cutting planes from
the fractional basic rows of a feasible tableau (the "branch-and-cut"
extension of §8); see :mod:`repro.lia.intsolver` for how they are used.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..budget import checkpoint
from .terms import LinExpr


def _norm(value):
    """Collapse an integral :class:`Fraction` back to ``int`` (fast path)."""
    if isinstance(value, int):
        return value
    if value.denominator == 1:
        return value.numerator
    return value


def _div(a, b):
    """Exact ``a / b``: ``int`` when the division is exact, else ``Fraction``.

    This is the single promotion point of the dual int/Fraction tableau —
    every other operation (addition, multiplication, comparison) keeps
    ``int`` operands ``int``.
    """
    if isinstance(a, int) and isinstance(b, int):
        quotient, remainder = divmod(a, b)
        if not remainder:
            return quotient
        return Fraction(a, b)
    return _norm(Fraction(a) / Fraction(b))


def _integer_row(coeffs) -> Tuple[Dict[str, int], int]:
    """Rational ``(name, coefficient)`` pairs as ``int`` numerators over their
    least common denominator (primitive: no prime divides all of them)."""
    den = 1
    for _name, coeff in coeffs:
        if not isinstance(coeff, int):
            den = den * coeff.denominator // gcd(den, coeff.denominator)
    if den == 1:
        return dict(coeffs), 1
    return {name: int(coeff * den) for name, coeff in coeffs}, den


def _frac(value) -> Fraction:
    """The fractional part ``value - floor(value)`` (0 for every ``int``)."""
    if isinstance(value, int):
        return Fraction(0)
    return value - (value.numerator // value.denominator)


@dataclass
class Constraint:
    """A linear constraint ``expr ⋈ 0`` with ``⋈`` in ``{"<=", ">=", "=="}``.

    ``tag`` is an opaque label used to report which constraints participate
    in an infeasibility (the conflict "core").
    """

    expr: LinExpr
    relation: str
    tag: object = None

    def __post_init__(self) -> None:
        if self.relation not in ("<=", ">=", "=="):
            raise ValueError(f"unsupported relation {self.relation!r}")


class SimplexResult:
    """Outcome of a feasibility check."""

    def __init__(self, feasible: bool, model: Optional[Dict[str, Fraction]] = None,
                 conflict: Optional[Set[object]] = None) -> None:
        self.feasible = feasible
        self.model = model or {}
        self.conflict = conflict or set()

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.feasible


_NEG_INF = None  # represented by None in lower bounds
_POS_INF = None  # represented by None in upper bounds


class Simplex:
    """Feasibility checker for a conjunction of linear constraints over Q.

    Usage::

        simplex = Simplex()
        simplex.add_constraint(Constraint(expr, "<=", tag))
        result = simplex.check()
    """

    def __init__(self) -> None:
        # Variable bookkeeping.  Variables are identified by strings; slack
        # variables get fresh names "__s<k>".
        self._order: Dict[str, int] = {}
        self._lower: Dict[str, Optional[Fraction]] = {}
        self._upper: Dict[str, Optional[Fraction]] = {}
        self._lower_tag: Dict[str, object] = {}
        self._upper_tag: Dict[str, object] = {}
        self._assignment: Dict[str, Fraction] = {}
        # Tableau: basic variable -> {nonbasic variable -> numerator}; the
        # coefficient is the numerator over the row's denominator.
        self._rows: Dict[str, Dict[str, int]] = {}
        #: basic variable -> positive row denominator (the row is primitive)
        self._den: Dict[str, int] = {}
        self._basic: Set[str] = set()
        #: column index: non-basic variable -> basic rows whose row mentions
        #: it (keeps pivoting and assignment updates proportional to the
        #: column size instead of the whole tableau)
        self._cols: Dict[str, Set[str]] = {}
        self._slack_index = 0
        # Reuse slack variables for syntactically identical linear forms.
        self._slack_cache: Dict[Tuple, str] = {}
        #: slack variable -> its defining linear form over original variables
        #: (needed to translate Gomory cuts back into constraint space)
        self._slack_def: Dict[str, Tuple] = {}
        #: id(constraint) -> (constraint, handle) of every prepared
        #: constraint (the constraint is kept so that its id stays unique)
        self._handles: Dict[int, Tuple[Constraint, Tuple[str, str, Fraction]]] = {}
        #: check candidates: variables whose bound tightened, and basic
        #: variables whose value moved, since the last check settled them —
        #: every bound violation is among them (see :meth:`check`)
        self._tightened: Set[str] = set()
        self._moved: Set[str] = set()
        # Backtracking: scope markers into the bound-restoration trail.
        self._scopes: List[int] = []
        self._undo: List[Tuple[str, str, Optional[Fraction], object]] = []
        #: number of pivot operations performed (benchmark statistic)
        self.pivots = 0
        #: non-zero tableau entries (fill-in tracking; see _maybe_reset_basis)
        self._nnz = 0
        #: non-zeros right after the last basis reset (the "fresh" density)
        self._nnz_fresh = 0

    # ------------------------------------------------------------------
    # Backtrackable scopes
    # ------------------------------------------------------------------
    def push(self) -> None:
        """Open a scope; bounds asserted after this call are retractable."""
        self._scopes.append(len(self._undo))

    def pop(self) -> None:
        """Retract every bound asserted since the matching :meth:`push`.

        Tableau rows, the slack cache and the current assignment (the warm
        basis) are deliberately kept — a row without bounds is unconstrained,
        so retracting the bounds alone restores the pre-push constraint set.
        """
        mark = self._scopes.pop()
        while len(self._undo) > mark:
            name, which, value, tag = self._undo.pop()
            if which == "lower":
                self._lower[name] = value
                self._lower_tag[name] = tag
            else:
                self._upper[name] = value
                self._upper_tag[name] = tag

    def pop_all(self) -> None:
        """Pop every open scope (back to the unscoped bounds)."""
        while self._scopes:
            self.pop()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _ensure_var(self, name: str) -> None:
        if name not in self._order:
            self._order[name] = len(self._order)
            self._lower[name] = None
            self._upper[name] = None
            self._assignment[name] = 0

    def _fresh_slack(self) -> str:
        name = f"__s{self._slack_index}"
        self._slack_index += 1
        return name

    def prepare(self, constraint: Constraint) -> Tuple[str, str, Fraction]:
        """Register the linear form of ``constraint`` without asserting it.

        Creates (at most once per distinct linear form, via the slack cache)
        the tableau row and returns a handle ``(variable, relation, value)``
        that can be asserted later — and repeatedly — with
        :meth:`assert_bound`.  This is the row-registration half of the
        DPLL(T) simplex discipline: the theory solver registers every atom
        once and then only toggles bounds per SAT-search state.  Handles are
        remembered per constraint object, so preparing it again is a lookup.
        """
        known = self._handles.get(id(constraint))
        if known is not None and known[0] is constraint:
            return known[1]
        handle = self._register(constraint)
        self._handles[id(constraint)] = (constraint, handle)
        return handle

    def _register(self, constraint: Constraint) -> Tuple[str, str, Fraction]:
        expr = constraint.expr
        linear = LinExpr(expr.coeffs, 0)
        bound = _norm(-expr.const)

        for name in linear.coeffs:
            self._ensure_var(name)

        if len(linear.coeffs) == 1:
            # Simple bound on a single variable: avoid creating a slack.
            ((name, coeff),) = linear.coeffs.items()
            coeff = _norm(coeff)
            value = _div(bound, coeff)
            relation = constraint.relation
            if coeff < 0 and relation in ("<=", ">="):
                relation = ">=" if relation == "<=" else "<="
            return name, relation, value

        key = tuple(sorted((name, _norm(coeff)) for name, coeff in linear.coeffs.items()))
        slack = self._slack_cache.get(key)
        if slack is None:
            slack = self._fresh_slack()
            self._slack_cache[key] = slack
            self._slack_def[slack] = key
            self._ensure_var(slack)
            row, den = _integer_row(key)
            # Express the slack in terms of current *non-basic* variables,
            # over the common denominator den·L of the basic rows it uses.
            rows, dens = self._rows, self._den
            scale = 1
            for name in row:
                if name in self._basic:
                    scale = scale * dens[name] // gcd(scale, dens[name])
            resolved: Dict[str, int] = {}
            for name, coeff in row.items():
                if name in self._basic:
                    factor = coeff * (scale // dens[name])
                    for inner_name, inner_coeff in rows[name].items():
                        resolved[inner_name] = resolved.get(inner_name, 0) + factor * inner_coeff
                else:
                    resolved[name] = resolved.get(name, 0) + coeff * scale
            resolved = {name: coeff for name, coeff in resolved.items() if coeff != 0}
            den *= scale
            common = gcd(den, *resolved.values())
            if common != 1:
                resolved = {name: coeff // common for name, coeff in resolved.items()}
                den //= common
            rows[slack], dens[slack] = resolved, den
            for name in resolved:
                self._cols.setdefault(name, set()).add(slack)
            self._basic.add(slack)
            self._nnz += len(resolved)
            self._nnz_fresh += len(key)
            self._assignment[slack] = _div(
                sum(
                    coeff * self._assignment[name]
                    for name, coeff in resolved.items()
                    if self._assignment[name]
                ),
                den,
            )
        return slack, constraint.relation, bound

    def add_constraint(self, constraint: Constraint) -> None:
        """Register a constraint and assert its bound; then call :meth:`check`."""
        name, relation, value = self.prepare(constraint)
        self.assert_bound(name, relation, value, constraint.tag)

    def assert_bound(self, name: str, relation: str, value: Fraction, tag: object) -> None:
        """Assert a (prepared) bound; retractable when inside a scope."""
        self._assert_bound(name, relation, value, tag)

    def _assert_bound(self, name: str, relation: str, value: Fraction, tag: object) -> None:
        value = _norm(value)
        record = bool(self._scopes)
        if relation in ("<=", "=="):
            current = self._upper[name]
            if current is None or value < current:
                if record:
                    self._undo.append((name, "upper", current, self._upper_tag.get(name)))
                self._upper[name] = value
                self._upper_tag[name] = tag
                self._tightened.add(name)
        if relation in (">=", "=="):
            current = self._lower[name]
            if current is None or value > current:
                if record:
                    self._undo.append((name, "lower", current, self._lower_tag.get(name)))
                self._lower[name] = value
                self._lower_tag[name] = tag
                self._tightened.add(name)

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def _violates_lower(self, name: str) -> bool:
        low = self._lower[name]
        return low is not None and self._assignment[name] < low

    def _violates_upper(self, name: str) -> bool:
        up = self._upper[name]
        return up is not None and self._assignment[name] > up

    def _update_nonbasic(self, name: str, value: Fraction) -> None:
        delta = value - self._assignment[name]
        if delta == 0:
            return
        assignment, rows, dens = self._assignment, self._rows, self._den
        assignment[name] = value
        column = self._cols.get(name, ())
        for basic in column:
            den = dens[basic]
            if den == 1:
                assignment[basic] += rows[basic][name] * delta
            else:
                assignment[basic] += _div(rows[basic][name] * delta, den)
        self._moved.update(column)

    def _pivot(self, basic: str, nonbasic: str) -> None:
        self.pivots += 1
        rows, dens, cols = self._rows, self._den, self._cols
        row = rows.pop(basic)
        den = dens.pop(basic)
        self._nnz -= len(row)
        for name in row:
            cols[name].discard(basic)
        self._basic.discard(basic)
        coeff = row[nonbasic]
        # coeff·nonbasic = den·basic − Σ_{k ≠ nonbasic} a_k x_k; the new row is
        # primitive because the old one (den included) was.
        sign = 1 if coeff > 0 else -1
        new_row: Dict[str, int] = {basic: sign * den}
        for name, a in row.items():
            if name != nonbasic:
                new_row[name] = -sign * a
        new_den = sign * coeff
        rows[nonbasic], dens[nonbasic] = new_row, new_den
        self._nnz += len(new_row)
        for name in new_row:
            cols.setdefault(name, set()).add(nonbasic)
        self._basic.add(nonbasic)
        # Substitute into the remaining rows that mention ``nonbasic``: each
        # is rewritten as a fresh primitive row stored with its denominator.
        for other in list(cols.get(nonbasic, ())):
            other_row = rows[other]
            a = other_row[nonbasic]
            updated = {name: b * new_den for name, b in other_row.items() if name != nonbasic}
            other_den = dens[other] * new_den
            for name, b in new_row.items():
                value = updated.get(name, 0) + a * b
                if value:
                    updated[name] = value
                else:
                    del updated[name]
            if other_den != 1:
                common = gcd(other_den, *updated.values())
                if common != 1:
                    updated = {name: b // common for name, b in updated.items()}
                    other_den //= common
            rows[other], dens[other] = updated, other_den
            for name in updated:
                if name not in other_row:
                    cols.setdefault(name, set()).add(other)
            for name in other_row:
                if name not in updated:
                    cols[name].discard(other)
            self._nnz += len(updated) - len(other_row)

    def _pivot_and_update(self, basic: str, nonbasic: str, target: Fraction) -> None:
        assignment, rows, dens = self._assignment, self._rows, self._den
        theta = _div((target - assignment[basic]) * dens[basic], rows[basic][nonbasic])
        assignment[basic] = target
        assignment[nonbasic] += theta
        column = self._cols.get(nonbasic, ())
        for other in column:
            if other != basic:
                den = dens[other]
                if den == 1:
                    assignment[other] += rows[other][nonbasic] * theta
                else:
                    assignment[other] += _div(rows[other][nonbasic] * theta, den)
        self._moved.update(column)
        self._moved.add(nonbasic)
        self._pivot(basic, nonbasic)

    def _maybe_reset_basis(self) -> None:
        """Rebuild the tableau from the original slack definitions on fill-in.

        A long-lived basis accumulates dense rows (every pivot substitutes
        one row into many); once the tableau holds several times the
        non-zeros of the original constraint rows, pivoting costs more than
        the warm basis saves.  Resetting makes every slack basic again with
        its original (sparse) defining row — the constraint system is
        unchanged, only the feasible-point search restarts from zero.
        """
        if self._nnz <= max(2000, 4 * self._nnz_fresh):
            return
        self._rows = {}
        self._den = {}
        self._cols = {}
        self._basic = set()
        for name in self._assignment:
            self._assignment[name] = 0
        for key, slack in self._slack_cache.items():
            row, den = _integer_row(key)
            self._rows[slack], self._den[slack] = row, den
            for name in row:
                self._cols.setdefault(name, set()).add(slack)
            self._basic.add(slack)
        self._nnz = sum(len(row) for row in self._rows.values())
        self._nnz_fresh = self._nnz
        # Every assignment moved to zero: every variable is a candidate (the
        # repair step hands the basic ones on to Bland's scan).
        self._tightened = set(self._order)

    def _check_fixed_bounds(self) -> Optional[SimplexResult]:
        """Detect immediately contradictory bounds ``lower > upper``.

        Only a tightened bound can cross its partner, so the scan covers the
        tightened variables; the first in variable order is reported.
        """
        worst: Optional[str] = None
        for name in self._tightened:
            low, up = self._lower[name], self._upper[name]
            if low is not None and up is not None and low > up:
                if worst is None or self._order[name] < self._order[worst]:
                    worst = name
        if worst is None:
            return None
        conflict = {self._lower_tag.get(worst), self._upper_tag.get(worst)}
        return SimplexResult(False, conflict={tag for tag in conflict if tag is not None})

    def check(self, max_pivots: int = 100000, want_model: bool = True) -> SimplexResult:
        """Decide feasibility over the rationals.

        Returns a :class:`SimplexResult`; when infeasible, ``conflict``
        contains the tags of the constraints in the conflict: a crossed
        bound pair, or a row explanation (see :meth:`_conflict_for`); both
        are irreducible when every bound is tagged.  ``want_model=False``
        skips building the model dictionary — callers that only need the
        verdict (the DPLL(T) partial checks) save a full pass over the
        variables.

        The check works on deltas.  A violation needs a tightened bound or a
        moved basic value, so the fixed-bound test, the non-basic repair and
        Bland's choice scan only the two candidate sets (``_tightened``,
        ``_moved``).  They are supersets of the violations, so the minimum
        index over them is the global one and the pivots are those of a full
        scan.  An entry leaves its set only once its work is done, so a check
        interrupted halfway loses no violation.
        """
        self._maybe_reset_basis()
        contradiction = self._check_fixed_bounds()
        if contradiction is not None:
            return contradiction

        # Repair non-basic variables that violate their own bounds; a basic
        # one with a new bound becomes a Bland candidate.
        moved = self._moved
        for name in self._tightened:
            if name in self._basic:
                moved.add(name)
                continue
            low, up = self._lower[name], self._upper[name]
            value = self._assignment[name]
            if low is not None and value < low:
                self._update_nonbasic(name, low)
            elif up is not None and value > up:
                self._update_nonbasic(name, up)
        self._tightened.clear()

        def var_index(name: str) -> int:
            return self._order[name]

        for _ in range(max_pivots):
            # Bland's rule: repair the violating basic variable of smallest
            # index (a single min-scan over the candidates; the settled ones
            # leave the set).
            violating: Optional[str] = None
            violating_index = -1
            settled: List[str] = []
            for name in moved:
                if name in self._basic and (
                    self._violates_lower(name) or self._violates_upper(name)
                ):
                    index = self._order[name]
                    if violating is None or index < violating_index:
                        violating = name
                        violating_index = index
                else:
                    settled.append(name)
            moved.difference_update(settled)
            if violating is None:
                if not want_model:
                    return SimplexResult(True)
                model = {name: self._assignment[name] for name in self._order}
                return SimplexResult(True, model=model)

            row = self._rows[violating]
            lower = self._violates_lower(violating)
            if lower:
                target = self._lower[violating]
                candidates = [
                    name
                    for name, coeff in row.items()
                    if (coeff > 0 and (self._upper[name] is None or self._assignment[name] < self._upper[name]))
                    or (coeff < 0 and (self._lower[name] is None or self._assignment[name] > self._lower[name]))
                ]
            else:
                target = self._upper[violating]
                candidates = [
                    name
                    for name, coeff in row.items()
                    if (coeff < 0 and (self._upper[name] is None or self._assignment[name] < self._upper[name]))
                    or (coeff > 0 and (self._lower[name] is None or self._assignment[name] > self._lower[name]))
                ]
            if not candidates:
                return SimplexResult(False, conflict=self._conflict_for(violating, lower=lower))
            pivot_var = min(candidates, key=var_index)
            # One step for the pivot plus one per other row it rewrites (the
            # pivot column holds ``violating`` and those rows): a pivot on a
            # dense tableau can cost milliseconds.
            checkpoint("lia.simplex", len(self._cols[pivot_var]))
            self._pivot_and_update(violating, pivot_var, target)
        raise RuntimeError("simplex exceeded the pivot limit")

    def _conflict_for(self, basic: str, lower: bool) -> Set[object]:
        """Collect constraint tags explaining why ``basic`` cannot be repaired.

        The explanation is ``basic``'s violated bound plus the blocking bound
        of each non-basic in its row.  Without any one of them the rest is
        feasible: the non-basic variables are independent coordinates, so
        the freed one could move to repair the row.
        """
        tags: Set[object] = set()
        own_tag = self._lower_tag.get(basic) if lower else self._upper_tag.get(basic)
        if own_tag is not None:
            tags.add(own_tag)
        for name, coeff in self._rows[basic].items():
            if lower:
                tag = self._upper_tag.get(name) if coeff > 0 else self._lower_tag.get(name)
            else:
                tag = self._lower_tag.get(name) if coeff > 0 else self._upper_tag.get(name)
            if tag is not None:
                tags.add(tag)
        return tags

    # ------------------------------------------------------------------
    # Cutting planes
    # ------------------------------------------------------------------
    def _is_integer_var(self, name: str) -> bool:
        """Is ``name`` forced integral?  Every original variable is; a slack
        is when its definition has integral coefficients."""
        definition = self._slack_def.get(name)
        return definition is None or not any(_frac(coeff) for _var, coeff in definition)

    def gomory_cuts(
        self, max_cuts: int = 8, max_coefficient: int = 10**12
    ) -> List[Constraint]:
        """Derive Gomory mixed-integer cuts from fractional basic rows.

        Must be called directly after a *feasible* :meth:`check` (the cuts
        are read off the current assignment/basis).  Each returned constraint
        is expressed over the original (non-slack) variables with integer
        coefficients and relation ``>=``; it is violated by the current
        fractional vertex but satisfied by **every** integer solution of the
        asserted bounds, so adding it and re-checking makes progress without
        cutting off any integer point.

        Derivation per fractional basic variable ``x_i`` (standard GMI, cf.
        the branch-and-cut strategy of §8): the tableau row gives the
        identity ``x_i = β + Σ_L a_j (x_j − l_j) − Σ_U a_j (u_j − x_j)`` over
        the non-basic variables sitting at their lower/upper bounds.  Terms
        with integral coefficient, integral bound and integer variable drop
        out modulo 1; the remaining slack distances ``w_j ≥ 0`` satisfy
        ``Σ f(c_j) w_j ≡ −f0 (mod 1)`` with ``f0 = frac(β) > 0``, which
        yields the rounded cut ``Σ α_j w_j ≥ 1``.  Rows mentioning a
        fractional-coefficient variable *not* at a bound are skipped.

        The ``tag`` of a cut is the frozenset union of the tags of every
        bound actually used in the derivation — the provenance needed for
        sound conflict cores: any later conflict involving the cut reports
        exactly the original constraints the cut descended from.
        """
        cuts: List[Constraint] = []
        for basic in sorted(self._basic, key=self._order.__getitem__):
            if len(cuts) >= max_cuts:
                break
            if not self._is_integer_var(basic):
                continue
            f0 = _frac(self._assignment[basic])
            if not f0:
                continue
            terms: List[Tuple[str, Fraction, bool, Fraction]] = []
            tags: Set[object] = set()
            usable = True
            den = self._den[basic]
            for name, num in self._rows[basic].items():
                a = _div(num, den)
                value = self._assignment[name]
                is_int = self._is_integer_var(name)
                if not _frac(a) and is_int and not _frac(value):
                    # integral coefficient × integral integer variable:
                    # contributes an integer regardless of bounds — drop.
                    continue
                low, up = self._lower[name], self._upper[name]
                if low is not None and value == low:
                    at_lower, bound, tag = True, low, self._lower_tag.get(name)
                elif up is not None and value == up:
                    at_lower, bound, tag = False, up, self._upper_tag.get(name)
                else:
                    usable = False
                    break
                # coefficient of the distance w = (x−l) resp. (u−x), w ≥ 0.
                # The distances satisfy t = Σ c_k w_k with t + f0 ∈ ℤ, i.e.
                # frac(t) = 1 − f0, which is the "f0" of the textbook GMI
                # formula — hence the 1−f0 thresholds below.
                c = a if at_lower else -a
                if is_int and not _frac(bound):
                    g = _frac(c)
                    alpha = g / (1 - f0) if g <= 1 - f0 else (1 - g) / f0
                else:
                    # continuous (or fractionally-bounded) term of the GMI cut
                    alpha = Fraction(c) / (1 - f0) if c > 0 else Fraction(-c) / f0
                terms.append((name, alpha, at_lower, bound))
                if tag is not None:
                    tags.add(tag)
            if not usable or not terms:
                continue
            # Σ α_j w_j ≥ 1, expanded to "expr >= 0" over the tableau vars...
            coeffs: Dict[str, Fraction] = {}
            const: Fraction = Fraction(-1)
            for name, alpha, at_lower, bound in terms:
                sign = 1 if at_lower else -1
                coeffs[name] = coeffs.get(name, 0) + sign * alpha
                const -= sign * alpha * bound
            # ... then over the original variables (slacks are definitional,
            # so expanding them adds no provenance).
            expanded: Dict[str, Fraction] = {}
            for name, coeff in coeffs.items():
                definition = self._slack_def.get(name)
                if definition is None:
                    expanded[name] = expanded.get(name, 0) + coeff
                else:
                    for inner, inner_coeff in definition:
                        expanded[inner] = expanded.get(inner, 0) + coeff * inner_coeff
            expanded = {name: coeff for name, coeff in expanded.items() if coeff}
            if not expanded:
                continue
            denominator = 1
            for value in list(expanded.values()) + [const]:
                d = value.denominator if isinstance(value, Fraction) else 1
                denominator = denominator * d // gcd(denominator, d)
            scaled = {name: _norm(coeff * denominator) for name, coeff in expanded.items()}
            if max(abs(coeff) for coeff in scaled.values()) > max_coefficient:
                continue
            flat: Set[object] = set()
            for tag in tags:
                if isinstance(tag, frozenset):
                    flat |= tag
                else:
                    flat.add(tag)
            cuts.append(
                Constraint(LinExpr(scaled, _norm(const * denominator)), ">=", frozenset(flat))
            )
        return cuts


def check_constraints(constraints: Sequence[Constraint]) -> SimplexResult:
    """Convenience wrapper: check feasibility of ``constraints`` over Q."""
    simplex = Simplex()
    for constraint in constraints:
        simplex.add_constraint(constraint)
    return simplex.check()
