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
  pops again (see ``_Context._sync_theory``),
* the presolve substitution: defining equalities are eliminated when first
  asserted and the substitution chain is applied to every later assertion,
  so lemmas mentioning eliminated variables are rewritten instead of
  re-introducing them.

``push()`` / ``pop()`` manage assertion-stack levels: ``pop`` retracts the
root-level unit assertions, the substitutions and the trivial-verdict flags
of the popped level while keeping atom definitions and learned theory
clauses (which are level-independent consequences of the atom semantics).

The classic one-shot ``check(formula)`` entry point is preserved and runs a
fresh context per call, so existing callers keep their exact semantics.

Pipeline per assertion: :func:`repro.lia.simplify.eliminate_equalities`
(presolve) → :func:`repro.lia.nnf.to_nnf` → :class:`CnfBuilder` →
:class:`DpllSolver` with the rational-simplex / branch-and-bound theory hook
(:mod:`repro.lia.intsolver`).  The presolve and the final integer check
eliminate equalities with one loop, :func:`repro.lia.simplify.eliminate`.
Theory conflict cores go into learned clauses as they come: partial-check
cores are irreducible simplex explanations, and a final-check core is a
(possibly non-minimal) refutation.  All variables are interpreted over the
integers.  Results are reported as :class:`LiaStatus` (``SAT`` / ``UNSAT`` /
``UNKNOWN``); the model accompanying a ``SAT`` verdict assigns an integer to
every free variable of the asserted formulae.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..budget import Budget, BudgetExceeded
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
    decisions: int = 0
    theory_checks: int = 0
    reason: str = ""
    #: per-check performance counters (propagations, pivots, cache hits, ...)
    stats: Dict[str, int] = field(default_factory=dict)
    #: variables of atoms that participated in theory conflicts during the
    #: check (mapped back through the presolve elimination chain).  For an
    #: ``UNSAT`` verdict this over-approximates the variables a refutation
    #: touched; string-solver callers use it to narrow unsat cores.  Empty
    #: when no theory conflict was recorded (e.g. a purely boolean
    #: refutation), in which case callers must fall back to the full
    #: assertion set.
    conflict_vars: FrozenSet[str] = frozenset()
    #: labels of the ``check(assumptions=…)`` entries that final-conflict
    #: analysis blamed for an ``UNSAT`` verdict.  Unlike ``conflict_vars``
    #: this is *exact*: an assumption outside the set is guaranteed not to
    #: be needed for the refutation.  Empty when the asserted stack is
    #: unsatisfiable on its own (no assumption required), and meaningless
    #: for non-UNSAT verdicts.
    core_labels: Tuple = ()

    @property
    def is_sat(self) -> bool:
        return self.status is LiaStatus.SAT

    @property
    def is_unsat(self) -> bool:
        return self.status is LiaStatus.UNSAT


@dataclass
class _Level:
    """One assertion-stack frame of the incremental context."""

    units: List[int] = field(default_factory=list)
    eliminated_mark: int = 0
    var_mark: int = 0
    false: bool = False
    #: variables of the assertion batch that collapsed to ``false`` (the
    #: presolve cannot attribute the collapse to one formula of the batch,
    #: so this over-approximates at batch granularity)
    false_vars: FrozenSet[str] = frozenset()
    unsupported: str = ""
    #: canonical keys of theory clauses strengthened with root-forced atoms
    #: of this level (retracted on pop — see ``_Context._strengthen_core``)
    strengthened: List[Tuple[int, ...]] = field(default_factory=list)


class _Context:
    """The persistent state behind one assertion stack."""

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
        self._clause_watermark = 0

        self.levels: List[_Level] = [_Level()]
        self.pending: List[Formula] = []
        self.eliminated: List[Tuple[str, LinExpr]] = []
        self._encoded_vars: Set[str] = set()
        self._var_list: List[str] = []
        self._var_set: Set[str] = set()

        self._gave_up = False
        #: branch-and-bound give-ups (``ResourceLimit`` on a complete
        #: assignment) over the context's lifetime
        self._give_ups = 0
        #: active resource budget for the current ``check`` (shared with the
        #: SAT search and the integer core; ``None`` outside a check)
        self._budget: Optional[Budget] = None
        self._last_model: Dict[str, int] = {}
        self._int_pivots = 0
        #: boolean atom variables that appeared in theory conflict cores of
        #: the current ``check`` (reset per check, surfaced as
        #: ``LiaResult.conflict_vars``)
        self._conflict_participants: Set[int] = set()

    # ------------------------------------------------------------------
    # Assertion stack
    # ------------------------------------------------------------------
    def push(self) -> None:
        self._flush()
        self.levels.append(
            _Level(eliminated_mark=len(self.eliminated), var_mark=len(self._var_list))
        )

    def pop(self) -> None:
        if len(self.levels) == 1:
            raise IndexError("pop from the base assertion level")
        level = self.levels.pop()
        self.pending.clear()
        for literal in level.units:
            self.sat.remove_unit(literal)
        for key in level.strengthened:
            self.sat.retract_clause_key(key)
        del self.eliminated[level.eliminated_mark :]
        for name in self._var_list[level.var_mark :]:
            self._var_set.discard(name)
        del self._var_list[level.var_mark :]

    def add_assertion(self, formula: Formula) -> None:
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
        nnf, unsupported, root = combined, "", None
        if not isinstance(combined, BoolConst):
            try:
                nnf = to_nnf(combined)
            except TypeError as error:
                unsupported = f"unsupported formula: {error}"
        if not unsupported and not isinstance(nnf, BoolConst):
            root = self.cnf.add_formula(nnf)
            self._sync_sat()

        self.pending.clear()
        self.eliminated.extend(eliminated)
        for name in batch_vars:
            if name not in self._var_set:
                self._var_set.add(name)
                self._var_list.append(name)
        if unsupported:
            level.unsupported = unsupported
        elif isinstance(nnf, BoolConst):
            if not nnf.value:
                level.false = True
                level.false_vars = level.false_vars | frozenset(batch_vars)
        else:
            self._encoded_vars.update(combined.variables())
            if root is not None and self.sat.add_clause((root,)):
                level.units.append(root)

    def _sync_sat(self) -> None:
        """Hand new clauses and atoms over to the SAT engine and the theory."""
        self.sat.ensure_vars(self.cnf.num_vars)
        clauses = self.cnf.clauses
        while self._clause_watermark < len(clauses):
            self.sat.add_clause(clauses[self._clause_watermark])
            self._clause_watermark += 1
        for var, atom in self.cnf.atom_of_var.items():
            if var in self._atom_handle:
                continue
            relation = "<=" if isinstance(atom, Le) else "=="
            constraint = Constraint(atom.expr, relation, tag=var)
            self._atom_constraint[var] = constraint
            self._atom_handle[var] = self.theory.prepare(constraint)
            self.theory_atoms.add(var)

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
        if self._budget is not None:
            self._budget.checkpoint("lia.theory")
        if not final:
            if not true_atoms:
                return None
            self._sync_theory()
            result = self.theory.check(want_model=False)
            if result.feasible:
                return None
            # A simplex conflict is irreducible: a row explanation becomes
            # feasible without any one of its bounds.
            conflict_vars = {tag for tag in result.conflict if isinstance(tag, int)}
            if not conflict_vars:
                conflict_vars = set(true_atoms)
            self._conflict_participants |= conflict_vars
            self.sat.pending_conflict_participants = frozenset(conflict_vars)
            conflict_vars = self._strengthen_core(conflict_vars)
            return tuple(-var for var in sorted(conflict_vars))

        constraints = [self._atom_constraint[var] for var in sorted(true_atoms)]
        try:
            outcome = check_integer_feasibility(constraints, budget=self._budget)
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
        conflict_vars = {tag for tag in (outcome.conflict or set()) if isinstance(tag, int)}
        if not conflict_vars:
            conflict_vars = set(true_atoms)
        if not conflict_vars:
            # No true atoms at all yet the theory failed — cannot happen,
            # but guard against an empty (always-false) clause.
            return tuple()
        # The core goes into the learned clause as it comes: a superset of a
        # refutation still refutes.
        self._conflict_participants |= conflict_vars
        self.sat.pending_conflict_participants = frozenset(conflict_vars)
        conflict_vars = self._strengthen_core(conflict_vars)
        return tuple(-var for var in sorted(conflict_vars))

    def _strengthen_core(self, core: Set[int]) -> Set[int]:
        """Drop atoms from a conflict core that are forced true at the root.

        Tag-automaton encodings force a large share of their atoms (Kirchhoff
        flow equalities, fixed counters) through unit propagation alone, and
        such atoms bloat every theory conflict: a learned clause
        ``¬a ∨ ¬b`` with ``a`` root-forced is equivalent to ``¬b`` under the
        current assertions, but prunes exponentially less of the boolean
        search space.  The strengthened clause is only valid while the units
        that force those atoms are asserted, so when the current level is not
        the base level its canonical key is recorded for retraction on
        ``pop``.  An empty result means the root-forced atoms themselves are
        theory-inconsistent: the callback then returns the empty clause and
        the check correctly reports UNSAT for the current stack.
        """
        if not core:
            return core
        forced: Set[int] = set()
        for literal in self.sat.root_literals():
            if literal > 0 and literal in core:
                forced.add(literal)
        if not forced:
            return core
        strengthened = core - forced
        if len(self.levels) > 1:
            key = tuple(sorted(-var for var in strengthened))
            self.levels[-1].strengthened.append(key)
        return strengthened

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
            "deleted_clauses": sat.deleted_clauses,
            "minimized_literals": sat.minimized_literals,
            "pivots": self.theory.pivots + self._int_pivots,
            "bb_give_ups": self._give_ups,
            "cache_hits": self.cnf.cache_hits,
            "duplicate_clauses": sat.duplicate_clauses + self.cnf.duplicate_clauses,
        }

    def _participant_names(self) -> FrozenSet[str]:
        """Variable names touched by this check's refutation.

        Prefers the SAT engine's proof-tracked support (the theory atoms
        the *final* conflict derivation transitively used) and falls back
        to the per-check accumulation of every theory conflict when the
        tracking overflowed.  The conflict atoms live in the substituted
        (post-presolve) variable space; the elimination chain is walked
        backwards so that an original assertion mentioning an eliminated
        variable is reconnected to the conflicts its definition
        participated in.
        """
        participants = self.sat.final_participants
        if participants is None:
            participants = self._conflict_participants
        names: Set[str] = set()
        for var in participants:
            atom = self.cnf.atom_of_var.get(var)
            if atom is not None:
                names.update(atom.expr.coeffs)
        for name, definition in reversed(self.eliminated):
            if name in names or names.intersection(definition.coeffs):
                names.add(name)
                names.update(definition.coeffs)
        return frozenset(names)

    def _encode_assumptions(
        self, assumptions: Sequence[Tuple[object, Formula]]
    ) -> Tuple[List[int], Dict[int, List[object]], Optional[object], str]:
        """Encode labelled assumption formulae as SAT assumption literals.

        Assumption formulae are rewritten through the current elimination
        chain but are *not* presolved (an elimination justified by a mere
        assumption would leak into later checks).  Each formula's root
        literal doubles as its assumption literal — asserting the root is
        asserting the formula under Plaisted–Greenbaum — so no guard
        variables are needed and failed-assumption analysis maps straight
        back to the labels.  Returns ``(literals, labels-per-literal,
        trivially-false-label, unsupported-reason)``.
        """
        literals: List[int] = []
        label_of: Dict[int, List[object]] = {}
        for label, formula in assumptions:
            rewritten = self._apply_subst(formula)
            try:
                nnf = to_nnf(rewritten)
            except TypeError as error:
                # Silently ignoring the assumption would answer as if it
                # were absent — a wrong SAT; report UNKNOWN like the
                # assertion path does.
                return [], {}, None, f"unsupported assumption formula: {error}"
            if isinstance(nnf, BoolConst):
                if nnf.value:
                    continue
                return [], {}, label, ""
            root = self.cnf.add_formula(nnf)
            self._sync_sat()
            if root is None:
                continue
            if root not in label_of:
                literals.append(root)
            label_of.setdefault(root, []).append(label)
        return literals, label_of, None, ""

    def check(
        self,
        assumptions: Sequence[Tuple[object, Formula]] = (),
        budget: Optional[Budget] = None,
        timeout: Optional[float] = None,
    ) -> LiaResult:
        # A caller-passed budget is *shared*: exceeding it must propagate as
        # BudgetExceeded so the owner (e.g. the string pipeline) sees one
        # consistent verdict.  An owned budget (built here from ``timeout``)
        # keeps the historical contract: running out of time is an UNKNOWN
        # result, not an exception.
        owned = budget is None
        if owned:
            budget = Budget(timeout)
        before = self._stats_snapshot()

        def result(
            status: LiaStatus,
            model: Optional[LiaModel] = None,
            reason: str = "",
            conflict_vars: FrozenSet[str] = frozenset(),
            core_labels: Tuple = (),
        ) -> LiaResult:
            after = self._stats_snapshot()
            stats = {key: after[key] - before[key] for key in after}
            return LiaResult(
                status,
                model=model,
                decisions=stats["decisions"],
                theory_checks=stats["theory_checks"],
                reason=reason,
                stats=stats,
                conflict_vars=conflict_vars,
                core_labels=core_labels,
            )

        # The budget governs the whole check — including the presolve in
        # ``_flush``, whose substitution loop checkpoints against the
        # *ambient* budget, hence the ``activate()``.  An owned budget maps
        # exhaustion anywhere in the body to an UNKNOWN result.
        self._budget = budget
        self._conflict_participants = set()
        # The callback is bound for the check only: kept on the SAT engine,
        # the bound method would make the context and the engine a reference
        # cycle, and a finished one-shot context (clauses, simplex,
        # constraints) would wait for the cyclic collector.
        self.sat.theory_callback = self._theory_callback
        # A check cut short (budget, interrupt) may have stopped mid-sync;
        # the search restarts from the root anyway.
        self._reset_theory()
        try:
            with budget.activate():
                return self._check_budgeted(budget, assumptions, result)
        except BudgetExceeded as limit:
            if not owned:
                raise
            return result(LiaStatus.UNKNOWN, reason=str(limit.reason))
        finally:
            self._budget = None
            self.sat.theory_callback = None

    def _check_budgeted(self, budget: Budget, assumptions, result) -> LiaResult:
        self._flush()
        false_vars: Set[str] = set()
        for level in self.levels:
            if level.false:
                false_vars.update(level.false_vars)
        if false_vars or any(level.false for level in self.levels):
            return result(LiaStatus.UNSAT, conflict_vars=frozenset(false_vars))
        for level in self.levels:
            if level.unsupported:
                return result(LiaStatus.UNKNOWN, reason=level.unsupported)

        assumption_lits, label_of, false_label, unsupported = self._encode_assumptions(
            assumptions
        )
        if unsupported:
            return result(LiaStatus.UNKNOWN, reason=unsupported)
        if false_label is not None:
            return result(LiaStatus.UNSAT, core_labels=(false_label,))

        try:
            verdict, _boolean_model = self.sat.solve(
                budget=budget, assumptions=assumption_lits
            )
        except ResourceLimit as error:
            return result(LiaStatus.UNKNOWN, reason=str(error))

        if verdict == "unsat":
            if self._gave_up:
                return result(
                    LiaStatus.UNKNOWN,
                    reason="branch-and-bound budget exhausted on some boolean assignment",
                )
            failed = self.sat.failed_assumptions
            core_labels = tuple(
                label
                for literal in assumption_lits
                if literal in failed
                for label in label_of[literal]
            )
            return result(
                LiaStatus.UNSAT,
                conflict_vars=self._participant_names(),
                core_labels=core_labels,
            )

        model = LiaModel(dict(self._last_model))
        model.values = complete_model(model.values, self.eliminated)
        for name in self._var_set:
            model.values.setdefault(name, 0)
        return result(LiaStatus.SAT, model=model)


class LiaSolver:
    """Facade deciding quantifier-free LIA formulae over integer variables.

    Two usage styles are supported:

    * **one-shot** — ``LiaSolver().check(formula)`` decides a single formula
      (a fresh context per call, the historical behaviour), and
    * **incremental** — ``add_assertion`` / ``push`` / ``pop`` maintain an
      assertion stack; ``check()`` decides the conjunction of every active
      assertion while keeping the encoder, SAT engine and theory state warm
      across calls (see the module docstring).

    ``check(formula)`` on a solver that already holds assertions is a scoped
    convenience: the formula is checked together with the current stack
    inside an implicit ``push``/``pop``.
    """

    def __init__(self, timeout: Optional[float] = None) -> None:
        #: wall-clock limit in seconds of each check without a caller budget
        self.timeout = timeout
        self._ctx: Optional[_Context] = None

    # ------------------------------------------------------------------
    def _context(self) -> _Context:
        if self._ctx is None:
            self._ctx = _Context()
        return self._ctx

    def push(self) -> None:
        """Open a new assertion-stack level."""
        self._context().push()

    def pop(self) -> None:
        """Drop the most recent assertion-stack level."""
        self._context().pop()

    def add_assertion(self, formula: Formula) -> None:
        """Assert ``formula`` at the current level (encoded lazily on check)."""
        self._context().add_assertion(formula)

    def reset(self) -> None:
        """Drop the whole assertion stack and every cached solver state."""
        self._ctx = None

    # ------------------------------------------------------------------
    def check(
        self,
        formula: Optional[Formula] = None,
        assumptions: Sequence[Tuple[object, Formula]] = (),
        budget: Optional[Budget] = None,
    ) -> LiaResult:
        """Decide satisfiability of the assertion stack (plus ``formula``).

        A caller-passed ``budget`` supersedes ``timeout``, and exceeding it
        raises :class:`repro.budget.BudgetExceeded` instead of answering
        ``UNKNOWN`` (the budget's owner reports the verdict).
        ``assumptions`` is a sequence of ``(label, formula)`` pairs that
        hold for *this check only*: on an ``UNSAT`` answer,
        :attr:`LiaResult.core_labels` names exactly the assumptions the
        refutation needed (final-conflict analysis over their assumption
        literals — no deletion-test re-solving).
        """
        if formula is not None:
            if self._ctx is None and not assumptions:
                context = _Context()
                context.add_assertion(formula)
                return context.check(budget=budget, timeout=self.timeout)
            context = self._context()
            context.push()
            context.add_assertion(formula)
            try:
                return context.check(assumptions, budget, self.timeout)
            finally:
                context.pop()
        return self._context().check(assumptions, budget, self.timeout)


def is_satisfiable(formula: Formula, timeout: Optional[float] = None) -> bool:
    """Convenience helper: ``True`` iff ``formula`` is satisfiable.

    Raises :class:`RuntimeError` when the solver cannot decide the formula
    within its budget (so callers never mistake ``UNKNOWN`` for a verdict).
    """
    result = LiaSolver(timeout).check(formula)
    if result.status is LiaStatus.UNKNOWN:
        raise RuntimeError(f"LIA solver returned unknown: {result.reason}")
    return result.is_sat


def check_model(formula: Formula, model: LiaModel) -> bool:
    """Evaluate ``formula`` under ``model`` (missing variables default to 0)."""
    assignment = {name: model.get(name, 0) for name in formula.variables()}
    return evaluate(formula, assignment)
