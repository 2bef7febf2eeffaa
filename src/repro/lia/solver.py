"""Satisfiability of quantifier-free LIA formulae (lazy SMT / DPLL(T)).

This is the reproduction's analogue of "Z3's internal LIA solver based on the
Simplex method extended with a branch-and-cut strategy" used by Z3-Noodler
(§8) — rebuilt around an **incremental assertion-stack API** because the
solver's dominant workload is the solve–refine loop of model-based quantifier
instantiation (§6.4): the same large formula is re-checked dozens of times
with one small lemma added per round.

Incremental architecture (what survives between :meth:`LiaSolver.check`
calls on the same assertion stack):

* the atom ↔ boolean-variable map and the Tseitin clause database
  (:class:`repro.lia.cnf.CnfBuilder` — structural caching means a new lemma
  only emits its genuinely new clauses),
* the SAT engine (:class:`repro.lia.sat.DpllSolver` — watched literals,
  variable activities and *learned theory clauses* are retained; a new
  check restarts the search, it does not restart the learning),
* the theory state: one persistent :class:`repro.lia.simplex.Simplex` whose
  rows are registered once per atom and whose bounds follow the SAT trail
  (the Dutertre–de Moura DPLL(T) discipline): a partial check asserts only
  the atoms the trail gained since the last one, in a scope that a backjump
  pops again (see ``LiaSolver._sync_theory``),
* the *bound axioms* (Dutertre–de Moura): when an atom is registered, every
  earlier atom on the same simplex variable whose bound crosses its own
  (``t ≤ 0`` and ``t ≥ 1``, or the two sides of a disequality, which share
  one slack) gets the permanent clause ``¬a ∨ ¬b``, so unit propagation,
  not a theory conflict, keeps the search off such a pair,
* the presolve substitution: defining equalities are eliminated when first
  asserted and the substitution chain is applied to every later assertion,
  so lemmas mentioning eliminated variables are rewritten instead of
  re-introducing them.

``push()`` / ``pop()`` manage assertion-stack levels: ``pop`` retracts the
root-level unit assertions, the substitutions and the trivial-verdict flag
of the popped level while keeping atom definitions and learned theory
clauses.  A theory clause is the negation of a conflict core of the atoms
as given, so it is a fact of LIA alone, true on every level: nothing else
needs retracting.

``check(formula)`` is the one-shot form: it checks ``formula`` together with
the current stack inside an implicit ``push``/``pop``.  A check is bounded
only by the caller's :class:`repro.budget.Budget`; one that runs out raises
:class:`repro.budget.BudgetExceeded`, and without a budget a check runs
unbounded.

Pipeline per assertion: :func:`repro.lia.simplify.eliminate_equalities`
(presolve) → :func:`repro.lia.nnf.to_nnf` → :class:`CnfBuilder` →
:class:`DpllSolver` with the rational-simplex / branch-and-bound theory hook
(:mod:`repro.lia.intsolver`).  The presolve and the final integer check
eliminate equalities with one loop, :func:`repro.lia.simplify.eliminate`.
Theory conflict cores go into learned clauses as they come: partial-check
cores are irreducible simplex explanations, and a final-check core is a
(possibly non-minimal) refutation.  Neither drops the atoms that the
current level's units force at the root: a clause so strengthened would
hold only while those units do.  All variables are interpreted over the
integers.  Results are reported as :class:`LiaStatus` (``SAT`` / ``UNSAT`` /
``UNKNOWN``); the model accompanying a ``SAT`` verdict assigns an integer to
every free variable of the asserted formulae.  An ``UNSAT`` verdict names no
core: conflict cores only feed learned clauses, and the string-level
:meth:`repro.Session.unsat_core` finds cores by deletion over re-checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Set, Tuple

from ..budget import Budget, checkpoint
from .cnf import CnfBuilder
from .intsolver import (
    ResourceLimit,
    check_integer_feasibility,
    # Unused here since conflict cores are no longer minimised; kept as the
    # target of the ``lia.core_min`` probe of ``perfbench/layers.py``.
    check_rational_feasibility,
)
from .nnf import to_nnf
from .sat import DpllSolver
from .simplify import complete_model, eliminate_equalities
from .simplex import Constraint, Simplex
from .terms import BoolConst, Formula, Le, LinExpr, conj, evaluate, substitute


def _crossed(upper_relation: str, upper, lower_relation: str, lower) -> bool:
    """Do an upper bound ``<= upper`` and a lower bound ``>= lower`` on one
    variable exclude each other (each ``==`` gives both)?"""
    return upper_relation != ">=" and lower_relation != "<=" and lower > upper


class LiaStatus(Enum):
    """Verdict of a satisfiability check."""

    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


@dataclass
class LiaModel:
    """An integer model; unknown variables default to 0."""

    values: Dict[str, int] = field(default_factory=dict)

    def __getitem__(self, name: str) -> int:
        return self.values.get(name, 0)

    def get(self, name: str, default: int = 0) -> int:
        return self.values.get(name, default)


@dataclass
class LiaResult:
    """Status plus (for SAT) a model and basic statistics."""

    status: LiaStatus
    model: Optional[LiaModel] = None
    reason: str = ""
    #: per-check performance counters (decisions, theory checks, pivots, ...)
    stats: Dict[str, int] = field(default_factory=dict)

    @property
    def is_sat(self) -> bool:
        return self.status is LiaStatus.SAT

    @property
    def is_unsat(self) -> bool:
        return self.status is LiaStatus.UNSAT


@dataclass
class _Level:
    """One assertion-stack frame of a :class:`LiaSolver`."""

    units: List[int] = field(default_factory=list)
    eliminated_mark: int = 0
    var_mark: int = 0
    false: bool = False


class LiaSolver:
    """Decides quantifier-free LIA formulae over integer variables.

    ``add_assertion`` / ``push`` / ``pop`` maintain an assertion stack, and
    ``check()`` decides the conjunction of every active assertion while
    keeping the encoder, SAT engine and theory state warm across calls
    (see the module docstring).  ``check(formula)`` decides ``formula``
    together with the stack inside an implicit ``push``/``pop``.
    """

    def __init__(self) -> None:
        self.cnf = CnfBuilder()
        self.theory_atoms: Set[int] = set()
        self.sat = DpllSolver(num_vars=0, clauses=(), theory_atoms=self.theory_atoms)
        self.theory = Simplex()
        #: trail start of each open theory scope, bottom first; together the
        #: scopes hold the true atoms of ``sat.trail[:_synced_end]``
        self._theory_scopes: List[int] = []
        self._synced_end = 0
        #: atom boolean variable -> (simplex variable, relation, bound)
        self._atom_handle: Dict[int, Tuple[str, str, object]] = {}
        #: atom boolean variable -> reusable Constraint (for integer checks)
        self._atom_constraint: Dict[int, Constraint] = {}
        #: simplex variable -> the atoms whose handles bound it
        self._atoms_on: Dict[str, List[int]] = {}
        self._clause_watermark = 0

        self.levels: List[_Level] = [_Level()]
        self.pending: List[Formula] = []
        self.eliminated: List[Tuple[str, LinExpr]] = []
        self._encoded_vars: Set[str] = set()
        self._var_list: List[str] = []
        self._var_set: Set[str] = set()

        self._gave_up = False
        #: branch-and-bound give-ups (``ResourceLimit`` on a complete
        #: assignment) over the solver's lifetime
        self._give_ups = 0
        self._last_model: Dict[str, int] = {}
        self._int_pivots = 0

    # ------------------------------------------------------------------
    # Assertion stack
    # ------------------------------------------------------------------
    def push(self) -> None:
        """Open a new assertion-stack level."""
        self._flush()
        self.levels.append(
            _Level(eliminated_mark=len(self.eliminated), var_mark=len(self._var_list))
        )

    def pop(self) -> None:
        """Drop the most recent assertion-stack level."""
        if len(self.levels) == 1:
            raise IndexError("pop from the base assertion level")
        level = self.levels.pop()
        self.pending.clear()
        for literal in level.units:
            self.sat.remove_unit(literal)
        del self.eliminated[level.eliminated_mark :]
        for name in self._var_list[level.var_mark :]:
            self._var_set.discard(name)
        del self._var_list[level.var_mark :]

    def add_assertion(self, formula: Formula) -> None:
        """Assert ``formula`` at the current level (encoded lazily on check)."""
        self.pending.append(formula)

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def _apply_subst(self, formula: Formula) -> Formula:
        """Rewrite eliminated variables away (in elimination order)."""
        if not self.eliminated:
            return formula
        names = set(formula.variables())
        for name, definition in self.eliminated:
            if name in names:
                formula = substitute(formula, {name: definition})
                names.discard(name)
                names.update(definition.coeffs)
        return formula

    def _flush(self) -> None:
        """Encode the pending assertions of the current level.

        The presolve checkpoints against the ambient budget and the encoding
        may be interrupted, so nothing of the level changes until both are
        behind us: an aborted flush leaves the level as if it never ran.
        The clauses and atoms the encoder made by then are only definitions
        of unasserted literals.
        """
        if not self.pending:
            return
        level = self.levels[-1]
        batch_vars: Dict[str, None] = {}
        for formula in self.pending:
            batch_vars.update(dict.fromkeys(formula.variables()))
        combined = conj([self._apply_subst(formula) for formula in self.pending])
        eliminated: List[Tuple[str, LinExpr]] = []
        if not isinstance(combined, BoolConst):
            combined, eliminated = eliminate_equalities(
                combined, protected=self._encoded_vars
            )
        nnf, root = to_nnf(combined), None
        if not isinstance(nnf, BoolConst):
            root = self.cnf.add_formula(nnf)
            self._sync_sat()

        self.pending.clear()
        self.eliminated.extend(eliminated)
        for name in batch_vars:
            if name not in self._var_set:
                self._var_set.add(name)
                self._var_list.append(name)
        if isinstance(nnf, BoolConst):
            if not nnf.value:
                level.false = True
        else:
            self._encoded_vars.update(combined.variables())
            if root is not None and self.sat.add_clause((root,)):
                level.units.append(root)

    def _sync_sat(self) -> None:
        """Hand new clauses and atoms over to the SAT engine and the theory.

        Each new atom also gets its bound axioms (see
        :meth:`_add_bound_axioms`).
        """
        self.sat.ensure_vars(self.cnf.num_vars)
        clauses = self.cnf.clauses
        # repro: allow(checkpoint-coverage): hands over the clauses the flush's CNF encoding just made, one pass linear in them; the flush's presolve checkpoints per rewritten row
        while self._clause_watermark < len(clauses):
            self.sat.add_clause(clauses[self._clause_watermark])
            self._clause_watermark += 1
        for var, atom in self.cnf.atom_of_var.items():
            if var in self._atom_handle:
                continue
            relation = "<=" if isinstance(atom, Le) else "=="
            constraint = Constraint(atom.expr, relation, tag=var)
            self._atom_constraint[var] = constraint
            self._atom_handle[var] = handle = self.theory.prepare(constraint)
            self.theory_atoms.add(var)
            self._add_bound_axioms(var, handle)

    def _add_bound_axioms(self, atom: int, handle: Tuple[str, str, object]) -> None:
        """Add ``¬atom ∨ ¬other`` for every earlier atom ``other`` on the same
        simplex variable whose bound crosses ``atom``'s (``==`` counts as
        both bounds).

        Such a pair, like the support literals ``#t ≤ 0`` / ``#t ≥ 1`` or
        the two sides ``e ≤ −1`` / ``−e ≤ −1`` of a disequality (one slack,
        see :func:`repro.lia.simplex.normal_form`), is refuted by the bounds
        alone; the clause lets unit propagation keep the search from
        asserting it instead of a theory check, a conflict and a backjump
        per visit.  These are the bound axioms of Dutertre and de Moura: a
        theory tautology, so the clause is permanent and ``pop`` never
        retracts it.
        """
        name, relation, value = handle
        others = self._atoms_on.setdefault(name, [])
        for other in others:
            _name, other_relation, other_value = self._atom_handle[other]
            if _crossed(relation, value, other_relation, other_value) or _crossed(
                other_relation, other_value, relation, value
            ):
                self.sat.add_clause((-other, -atom))
        others.append(atom)

    # ------------------------------------------------------------------
    # Theory hook
    # ------------------------------------------------------------------
    def _sync_theory(self) -> None:
        """Bring the theory's bounds in step with the SAT trail.

        The literals the trail gained since the last sync are asserted in one
        new simplex scope that records its trail start.  A backjump or
        restart lowers ``sat.theory_mark``: the scopes that start at or
        above it are popped, and a scope that straddles it is re-opened on
        its surviving prefix.  The bounds then equal those of the true atoms
        asserted in trail order (on equal bounds the first-asserted tag
        stays), at a cost proportional to the change.
        """
        sat, theory, scopes = self.sat, self.theory, self._theory_scopes
        trail = sat.trail
        start = self._synced_end
        if sat.theory_mark < start:
            start = sat.theory_mark
            end = self._synced_end
            while scopes and scopes[-1] >= start:
                end = scopes.pop()
                theory.pop()
            if scopes and end > start:
                start = scopes.pop()
                theory.pop()
        if start < len(trail):
            theory.push()
            scopes.append(start)
            atoms, handles = self.theory_atoms, self._atom_handle
            for position in range(start, len(trail)):
                literal = trail[position]
                if literal > 0 and literal in atoms:
                    name, relation, value = handles[literal]
                    theory.assert_bound(name, relation, value, literal)
        self._synced_end = sat.theory_mark = len(trail)

    def _reset_theory(self) -> None:
        """Retract every trail bound (a new search starts from the root)."""
        self.theory.pop_all()
        self._theory_scopes.clear()
        self._synced_end = 0

    def _theory_callback(self, true_atoms: Set[int], final: bool):
        checkpoint("lia.theory")
        if not final:
            if not true_atoms:
                return None
            self._sync_theory()
            result = self.theory.check(want_model=False)
            if result.feasible:
                return None
            # A simplex conflict is irreducible: a row explanation becomes
            # feasible without any one of its bounds.
            conflict_atoms = {tag for tag in result.conflict if isinstance(tag, int)}
            if not conflict_atoms:
                conflict_atoms = set(true_atoms)
            return tuple(-var for var in sorted(conflict_atoms))

        constraints = [self._atom_constraint[var] for var in sorted(true_atoms)]
        try:
            outcome = check_integer_feasibility(constraints)
        except ResourceLimit:
            # Branch-and-bound could not decide this boolean assignment.
            # Block it and remember that an UNSAT verdict is no longer
            # trustworthy (results become UNKNOWN from here on).
            self._gave_up = True
            self._give_ups += 1
            if not true_atoms:
                return tuple()
            return tuple(-var for var in sorted(true_atoms))
        self._int_pivots += outcome.pivots
        if outcome.feasible:
            self._last_model = outcome.model or {}
            return None
        if not self.sat.negative_atom_phase:
            # The complete assignment passed every rational check yet is
            # integer-infeasible: flip the SAT decision phase so future
            # complete assignments assert as few atoms as possible.
            self.sat.negative_atom_phase = True
            # Restarting (with all learned clauses kept) lets the new phase
            # take effect from the root instead of only below the current
            # decision prefix.
            self.sat.request_restart = True
        conflict_atoms = {tag for tag in (outcome.conflict or set()) if isinstance(tag, int)}
        if not conflict_atoms:
            conflict_atoms = set(true_atoms)
        if not conflict_atoms:
            # No true atoms at all yet the theory failed — cannot happen,
            # but guard against an empty (always-false) clause.
            return tuple()
        # The core goes into the learned clause as it comes: a superset of a
        # refutation still refutes.
        return tuple(-var for var in sorted(conflict_atoms))

    # ------------------------------------------------------------------
    # Checking
    # ------------------------------------------------------------------
    def _stats_snapshot(self) -> Dict[str, int]:
        sat = self.sat.stats
        return {
            "decisions": sat.decisions,
            "propagations": sat.propagations,
            "conflicts": sat.conflicts,
            "theory_checks": sat.theory_checks,
            "learned_clauses": sat.learned_clauses,
            "restarts": sat.restarts,
            "backjump_levels": sat.backjump_levels,
            "minimized_literals": sat.minimized_literals,
            "pivots": self.theory.pivots + self._int_pivots,
            "bb_give_ups": self._give_ups,
            "cache_hits": self.cnf.cache_hits,
            "duplicate_clauses": sat.duplicate_clauses + self.cnf.duplicate_clauses,
        }

    def check(
        self, formula: Optional[Formula] = None, budget: Optional[Budget] = None
    ) -> LiaResult:
        """Decide satisfiability of the assertion stack (plus ``formula``).

        ``budget`` bounds the whole check and is shared with its caller:
        running out raises :class:`repro.budget.BudgetExceeded`, and the
        budget's owner reports the verdict.  Without one the check runs
        unbounded.
        """
        if budget is None:
            budget = Budget()
        if formula is None:
            return self._check(budget)
        self.push()
        self.add_assertion(formula)
        try:
            return self._check(budget)
        finally:
            self.pop()

    def _check(self, budget: Budget) -> LiaResult:
        before = self._stats_snapshot()

        def result(
            status: LiaStatus,
            model: Optional[LiaModel] = None,
            reason: str = "",
        ) -> LiaResult:
            after = self._stats_snapshot()
            stats = {key: after[key] - before[key] for key in after}
            return LiaResult(status, model=model, reason=reason, stats=stats)

        # The callback is bound for the check only: kept on the SAT engine,
        # the bound method would make the solver and the engine a reference
        # cycle, and a dropped solver (clauses, simplex, constraints) would
        # wait for the cyclic collector.
        self.sat.theory_callback = self._theory_callback
        # A check cut short (budget, interrupt) may have stopped mid-sync;
        # the search restarts from the root anyway.
        self._reset_theory()
        try:
            # The budget reaches the check only as the ambient one: the
            # presolve in ``_flush``, the SAT search, the theory callback,
            # the simplex and branch-and-cut all checkpoint against it.
            with budget.activate():
                return self._search(result)
        finally:
            self.sat.theory_callback = None

    def _search(self, result) -> LiaResult:
        self._flush()
        if any(level.false for level in self.levels):
            return result(LiaStatus.UNSAT)

        try:
            verdict, _boolean_model = self.sat.solve()
        except ResourceLimit as error:
            return result(LiaStatus.UNKNOWN, reason=str(error))

        if verdict == "unsat":
            if self._gave_up:
                return result(
                    LiaStatus.UNKNOWN,
                    reason="branch-and-bound budget exhausted on some boolean assignment",
                )
            return result(LiaStatus.UNSAT)

        model = LiaModel(dict(self._last_model))
        model.values = complete_model(model.values, self.eliminated)
        for name in self._var_set:
            model.values.setdefault(name, 0)
        return result(LiaStatus.SAT, model=model)


def check_model(formula: Formula, model: LiaModel) -> bool:
    """Evaluate ``formula`` under ``model`` (missing variables default to 0)."""
    assignment = {name: model.get(name, 0) for name in formula.variables()}
    return evaluate(formula, assignment)
