"""An exact-rational general simplex for conjunctions of linear constraints.

This is the theory core of the reproduction's LIA solver and follows the
general simplex of Dutertre and de Moura ("A Fast Linear-Arithmetic Solver
for DPLL(T)", CAV 2006): every input constraint ``Σ c_i·x_i ⋈ b`` is turned
into a *slack variable* ``s = Σ c_i·x_i`` with a bound on ``s``.  There is
one slack per linear form up to an integer scale and sign (see
:func:`normal_form`): ``x − y ≤ −1`` and ``y − x ≤ −1`` are the bounds
``s ≤ −1`` and ``s ≥ 1`` on one ``s = x − y``, and ``2x + 2y ≤ 3`` is
``x + y ≤ 3/2``.  So the two sides of a disequality are two bounds on one
variable, and the DPLL(T) layer states that they cross as a bound axiom
(:mod:`repro.lia.solver`).  The tableau keeps basic variables expressed
as linear combinations of non-basic ones and the ``check`` procedure
repairs bound violations by pivoting.  The leaving variable is Bland's
(the violating basic variable of smallest index); the entering one is the
candidate with the fewest column entries, since a pivot rewrites every row
of the entering column and the tag-counter sums of the Parikh encodings
make some columns wide.  After ``_SPARSE_PIVOTS`` pivots in
one check the entering choice falls back to Bland's smallest index too, so
the check ends by Bland's termination argument.

The solver is *incremental* in the DPLL(T) discipline of the paper: bound
assertions are backtrackable via :meth:`Simplex.push` / :meth:`Simplex.pop`
while the tableau rows, the slack-variable cache and the current (last
feasible) basis survive — nothing ever rebuilds the tableau, so a
re-``check`` after small bound changes starts from the warm basis however
many pivots came before.  :meth:`Simplex.prepare` registers a constraint's
linear form (row creation only) and returns a bound handle that can be
asserted cheaply with :meth:`Simplex.assert_bound` on every theory check;
preparing a constraint again finds its slack in the slack cache.
:meth:`Simplex.check` works on deltas too: it keeps the variables whose
bound tightened and the basic variables whose value moved since the last
check, and scans only those for violations, so a check after one new bound
costs little more than that bound's repair.

All arithmetic is exact.  The tableau is fraction-free: each row holds
:class:`int` numerators over one positive :class:`int` row denominator
(``_den``), kept primitive, so pivoting and row substitution never touch
:class:`fractions.Fraction` (an ``int`` multiply-add is tens of times
cheaper).  A positive denominator leaves every coefficient's sign as it is,
so the pivot choices and the pivot sequence are those of a rational tableau.
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

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Dict, List, Optional, Set, Tuple

from ..budget import checkpoint
from .terms import LinExpr


#: pivots per check that take the sparsest entering column before the
#: entering choice falls back to Bland's rule (which guarantees termination)
_SPARSE_PIVOTS = 200
#: pivots per check before :meth:`Simplex.check` gives up (a guard: Bland's
#: rule terminates, and the ambient budget bounds the work far earlier)
_MAX_PIVOTS = 100000
#: Gomory cuts with a larger integer coefficient are dropped
_MAX_CUT_COEFFICIENT = 10**12


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


def _flatten_tags(tags) -> Set[object]:
    """Expand frozenset provenance tags back into the original caller tags."""
    out: Set[object] = set()
    for tag in tags or ():
        if isinstance(tag, frozenset):
            out |= tag
        elif tag is not None:
            out.add(tag)
    return out


def _frac(value) -> Fraction:
    """The fractional part ``value - floor(value)`` (0 for every ``int``)."""
    if isinstance(value, int):
        return Fraction(0)
    return value - (value.numerator // value.denominator)


@dataclass(frozen=True)
class Constraint:
    """A linear constraint ``expr ⋈ 0`` with ``⋈`` in ``{"<=", ">=", "=="}``.

    ``tag`` is an opaque label used to report which constraints participate
    in an infeasibility (the conflict "core").  A constraint is frozen: it
    carries its :func:`normal_form` once computed, which every simplex it
    is registered with (the DPLL(T) tableau, the final check's root) reads.
    """

    expr: LinExpr
    relation: str
    tag: object = None
    _normal: Optional[Tuple[Tuple, str, Fraction]] = field(
        default=None, init=False, repr=False, compare=False
    )

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


def normal_form(constraint: Constraint) -> Tuple[Tuple, str, Fraction]:
    """``(key, relation, bound)`` with ``Σ key ⋈ bound`` equivalent to
    ``constraint``: the registration form that :meth:`Simplex.prepare` keys
    its slack variables on.  It is computed once per constraint object
    (:func:`_normal_form`) and kept on it.
    """
    normal = constraint._normal
    if normal is None:
        normal = _normal_form(constraint)
        object.__setattr__(constraint, "_normal", normal)
    return normal


def _normal_form(constraint: Constraint) -> Tuple[Tuple, str, Fraction]:
    """Compute :func:`normal_form`.

    ``key`` is the sorted ``(name, coefficient)`` tuple of the linear form
    divided by a scale: the coefficient itself for one variable, else the
    gcd of integer coefficients, negated when the first coefficient is
    negative, so that ``x − y``, ``2y − 2x`` and ``−x + y`` share one
    slack.  The bound is divided exactly (a :class:`Fraction` when the
    division is inexact: no rounding, the simplex works over Q) and a
    negative scale flips ``<=``/``>=``.  A multi-variable form with a
    non-integral coefficient keeps its coefficients.
    """
    expr = constraint.expr
    key = tuple(sorted((name, _norm(coeff)) for name, coeff in expr.coeffs.items()))
    bound = _norm(-expr.const)
    relation = constraint.relation
    if len(key) == 1:
        scale = key[0][1]
    elif key and all(isinstance(coeff, int) for _name, coeff in key):
        scale = gcd(*(coeff for _name, coeff in key))
        if key[0][1] < 0:
            scale = -scale
    else:
        scale = 1
    if scale != 1:
        key = tuple((name, _div(coeff, scale)) for name, coeff in key)
        bound = _div(bound, scale)
        if scale < 0 and relation != "==":
            relation = ">=" if relation == "<=" else "<="
    return key, relation, bound


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
        once and then only toggles bounds per SAT-search state.
        """
        return self._register(constraint)

    def _register(self, constraint: Constraint) -> Tuple[str, str, Fraction]:
        key, relation, bound = normal_form(constraint)
        for name in constraint.expr.coeffs:
            self._ensure_var(name)
        if len(key) == 1:
            # Simple bound on a single variable: avoid creating a slack.
            return key[0][0], relation, bound

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
            self._assignment[slack] = _div(
                sum(
                    coeff * self._assignment[name]
                    for name, coeff in resolved.items()
                    if self._assignment[name]
                ),
                den,
            )
        return slack, relation, bound

    def add_constraint(self, constraint: Constraint) -> None:
        """Register a constraint and assert its bound; then call :meth:`check`."""
        name, relation, value = self.prepare(constraint)
        self.assert_bound(name, relation, value, constraint.tag)

    def assert_bound(self, name: str, relation: str, value: Fraction, tag: object) -> None:
        """Assert a (prepared) bound; retractable when inside a scope."""
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
        for name in new_row:
            cols.setdefault(name, set()).add(nonbasic)
        self._basic.add(nonbasic)
        # Substitute into the remaining rows that mention ``nonbasic``: each
        # is rewritten as a fresh primitive row stored with its denominator.
        # repro: allow(checkpoint-coverage): hot pivot row loop: Simplex.check charges lia.simplex one step per row this pivot rewrites before it pivots
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

    def check(self, want_model: bool = True) -> SimplexResult:
        """Decide feasibility over the rationals.

        Returns a :class:`SimplexResult`; when infeasible, ``conflict``
        contains the tags of the constraints in the conflict: a crossed
        bound pair, or a row explanation (see :meth:`_conflict_for`); both
        are irreducible when every bound is tagged.  A model names the
        original variables only.  ``want_model=False`` skips building it —
        callers that only need the verdict (the DPLL(T) partial checks)
        save a full pass over the variables.

        The check works on deltas.  A violation needs a tightened bound or a
        moved basic value, so the fixed-bound test, the non-basic repair and
        the choice of the leaving variable scan only the two candidate sets
        (``_tightened``, ``_moved``).  They are supersets of the violations,
        so the minimum index over them is the global one and the pivots are
        those of a full scan.  An entry leaves its set only once its work is done, so a check
        interrupted halfway loses no violation.

        The entering variable is the candidate of fewest column entries
        (ties by index) for the first ``_SPARSE_PIVOTS`` pivots of the check,
        then the candidate of smallest index (Bland).  A check that reaches
        ``_MAX_PIVOTS`` pivots raises :class:`RuntimeError`.
        """
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

        order, cols = self._order, self._cols

        def sparsest(name: str) -> Tuple[int, int]:
            return len(cols[name]), order[name]

        for step in range(_MAX_PIVOTS):
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
                model = {n: self._assignment[n] for n in self._order if n not in self._slack_def}
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
            pivot_var = min(candidates, key=sparsest if step < _SPARSE_PIVOTS else order.__getitem__)
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

    def gomory_cuts(self, max_cuts: int = 8) -> List[Constraint]:
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
        exactly the original constraints the cut descended from.  A cut with
        a coefficient above ``_MAX_CUT_COEFFICIENT`` is dropped.
        """
        cuts: List[Constraint] = []
        # repro: allow(checkpoint-coverage): one pass over the tableau rows per cut round, and the branch-and-cut loop checkpoints lia.intsolver every round
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
            if max(abs(coeff) for coeff in scaled.values()) > _MAX_CUT_COEFFICIENT:
                continue
            tag = frozenset(_flatten_tags(tags))
            cuts.append(Constraint(LinExpr(scaled, _norm(const * denominator)), ">=", tag))
        return cuts
