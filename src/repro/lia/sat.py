"""An incremental CDCL SAT engine with a theory hook (the "DPLL(T)" loop).

The propositional engine works on the clause set produced by
:mod:`repro.lia.cnf` and is built for the *solve–refine* workloads of lazy
SMT: the clause database, watch lists, variable activities and learned
clauses (both theory lemmas and conflict clauses) all survive across
:meth:`DpllSolver.solve` calls, so a caller that adds a handful of clauses
between checks (an MBQI instantiation lemma, a new assertion-stack frame)
restarts the boolean search with everything it learned before.

Architecture (conflict-driven clause learning, replacing the chronological
flip search of earlier revisions):

* **Two-watched-literal propagation** — every clause with ≥ 2 literals
  watches two of them; unit propagation only touches the watch lists of the
  newly falsified literal (Moskewicz et al., "Chaff", DAC 2001).  Root-level
  unit clauses are kept in a separate set and asserted at the start of every
  solve.
* **Implication graph + 1UIP learning** — every propagated literal records
  its reason clause; a conflict is analysed by resolving backwards along the
  trail until exactly one literal of the current decision level remains (the
  first unique implication point).  The learned clause is minimized by
  self-subsuming resolution (literals whose reason clause is already covered
  by the learned clause are recursively dropped) before it is stored.
* **Non-chronological backjumping with a chronological model-search
  regime** — in the conflict-heavy regime the search jumps straight back
  to the second-highest decision level of the learned clause and asserts
  the UIP literal there, skipping every level the conflict did not depend
  on (outsized jumps are capped chronologically — Möhle & Biere, "Backing
  Backtracking", SAT'19).  While conflicts are sparse (model search on
  satisfiable encodings, where every unwound level costs a re-decision and
  a theory partial check) conflicts backtrack exactly one level; the
  learned clause prunes the dead region either way.  Learned *units*
  always commit at the root.
* **DLIS → VSIDS decisions with phase saving** — conflict-sparse solves
  pick the unassigned variable occurring most often in currently
  unsatisfied clauses (decisions aim at clauses that still need work, so
  model search is propagation-dense), re-using the variable the last
  chronological backtrack displaced.  The counts are kept on deltas: a
  true-literal count per clause and a per-variable occurrence count in
  unsatisfied clauses, updated as literals are assigned and unassigned
  and as clauses are added or dropped, so a decision scans the variables
  instead of the clause DB.  Conflict-heavy solves switch to the highest
  exponentially-decaying activity (bumped for every variable resolved in
  a conflict) and stop keeping the counts.  Both regimes re-use the
  polarity a variable last held (initially positive, which drives model
  search); the theory layer forces theory atoms negative via
  :attr:`negative_atom_phase` on integer-sensitive refutation workloads,
  which keeps the asserted-atom sets small.
* **Luby restarts in the conflict-heavy regime** — once a solve has left
  the model-search regime it restarts (keeping all clauses, phases and
  activities) on the classic Luby sequence, counting from the regime
  switch; sparse solves never restart, where a restart would merely replay
  the deterministic DLIS trail at full re-decision cost.
* **Incremental clause database** — :meth:`add_clause` (deduplicating) may
  be called between solves; :meth:`remove_unit` retracts a root-level unit
  assertion, which is how the assertion stack of
  :class:`repro.lia.solver.LiaSolver` implements ``pop`` (Tseitin
  definitions are implications and stay).  Theory lemmas are permanent:
  they are facts of the theory the SAT engine cannot re-derive.  Conflict
  clauses are not: a retraction drops them all before the next solve
  (:meth:`_purge_derived`).  The learned set needs no other bound: a
  conflict learns at most one clause and a solve stops after
  :data:`_MAX_CONFLICTS` conflicts.

The theory callback receives the set of atom variables currently assigned
*true* and returns either ``None`` (consistent as far as it can tell) or a
conflict clause (a tuple of literals, all currently false) that is added to
the clause database and then resolved by the regular 1UIP analysis: a
boolean and a theory conflict are learned by the one routine
:meth:`DpllSolver._learn`, and every clause of two or more literals enters
the database through :meth:`DpllSolver._attach`.  The search reaches the
caller's budget only as the ambient one (:func:`repro.budget.checkpoint`,
stage ``lia.sat``).  A theory layer that keeps its state in step with the
trail reads :attr:`DpllSolver.theory_mark`: the lowest trail length since
it last synced, so only the trail from there on is new to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..budget import checkpoint
from .intsolver import ResourceLimit

Clause = Tuple[int, ...]
TheoryCallback = Callable[[Set[int], bool], Optional[Clause]]

#: conflicts per :meth:`DpllSolver.solve` call before it gives up with
#: :class:`ResourceLimit`
_MAX_CONFLICTS = 100000
#: multiplicative activity decay applied after every conflict
_ACTIVITY_DECAY = 0.95
#: rescale threshold guarding against float overflow
_ACTIVITY_RESCALE = 1e100
#: conflicts per solve after which decisions switch from DLIS to pure VSIDS
#: activity ordering: model search on satisfiable encodings is
#: propagation-dense and conflict-sparse (DLIS aims decisions at still-
#: unsatisfied clauses, so most variables arrive by propagation), while a
#: conflict-heavy refutation makes the activity signal strong, and keeping
#: the DLIS counts in step with a fast-churning trail would cost more than
#: it steers
_DLIS_CONFLICT_LIMIT = 500
#: backjumps farther than this many levels backtrack chronologically
#: instead (the learned clause still asserts its UIP one level down)
_CHRONO_JUMP_LIMIT = 64


def _chrono_target(before: int, backjump_level: int, sparse: bool) -> int:
    """Backtrack target of a conflict at level ``before``.

    Conflict-sparse solves (model search on satisfiable encodings) always
    backtrack chronologically: every level unwound costs a re-decision
    *and* a theory partial check, and the learned clause prunes the dead
    region either way.  Conflict-heavy solves take the 1UIP assertion
    level — non-chronological backjumping proper — capped by
    :data:`_CHRONO_JUMP_LIMIT` (Möhle & Biere, "Backing Backtracking",
    SAT'19).
    """
    if sparse or before - backjump_level > _CHRONO_JUMP_LIMIT:
        return max(backjump_level, before - 1)
    return backjump_level
#: conflicts per Luby restart unit (restarts only fire in the
#: conflict-heavy regime, counting from the regime switch)
_LUBY_UNIT = 512
#: node budget of one recursive clause-minimization check
_MINIMIZE_BUDGET = 80


def _luby(index: int) -> int:
    """The ``index``-th (0-based) element of the Luby sequence (1,1,2,1,1,2,4,…)."""
    size, seq = 1, 0
    while size < index + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != index:
        size = (size - 1) // 2
        seq -= 1
        index = index % size
    return 1 << seq


@dataclass
class SatStats:
    """Counters describing one SAT search (useful in tests and benchmarks)."""

    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    theory_checks: int = 0
    learned_clauses: int = 0
    restarts: int = 0
    duplicate_clauses: int = 0
    #: total decision levels skipped by non-chronological backjumps (the
    #: chronological baseline would undo exactly one level per conflict)
    backjump_levels: int = 0
    #: literals removed from learned clauses by self-subsuming minimization
    minimized_literals: int = 0


class DpllSolver:
    """Incremental CDCL with watched-literal propagation and a theory hook.

    The class keeps its historical name: it still implements the DPLL(T)
    loop, the search regime inside is conflict-driven clause learning.
    """

    def __init__(
        self,
        num_vars: int = 0,
        clauses: Sequence[Clause] = (),
        theory_atoms: Optional[Set[int]] = None,
        theory_callback: Optional[TheoryCallback] = None,
    ) -> None:
        self.num_vars = 0
        #: the caller may keep mutating this set between solves (new atoms)
        self.theory_atoms = theory_atoms if theory_atoms is not None else set()
        self.theory_callback = theory_callback
        #: decision phase for theory atoms: ``False`` (the default) decides
        #: atoms positively, which drives model search on satisfiable
        #: encodings; the theory layer switches this to ``True`` on
        #: integer-sensitive refutation workloads, where deciding atoms
        #: negatively keeps the asserted-atom sets (and hence the theory
        #: conflicts) small
        self.negative_atom_phase = False
        #: set by the theory layer to restart the search at the next
        #: opportunity (keeping all clauses and activities); used when a
        #: mid-search heuristic change makes the current partial assignment
        #: worth abandoning
        self.request_restart = False
        self.stats = SatStats()
        #: the lowest trail length since the theory layer last synced with
        #: the trail: :meth:`_backjump` and :meth:`_restart` lower it, the
        #: theory layer raises it to ``len(trail)`` after each sync
        self.theory_mark = 0

        self.clauses: List[List[int]] = []
        #: literal -> indices of clauses currently watching it
        self._watches: Dict[int, List[int]] = {}
        #: canonical (sorted) clause keys for deduplication (units map to -1)
        self._clause_keys: Dict[Clause, int] = {}
        #: root-level unit assertions (asserted at the start of every solve)
        self._units: Set[int] = set()
        #: indices of the clauses learned by conflict analysis; permanent
        #: clauses (problem clauses and theory lemmas) never appear here
        self._learnt: Set[int] = set()
        #: unit literals learned by conflict analysis (as opposed to
        #: asserted or theory units) — see :meth:`_purge_derived`
        self._derived_units: Set[int] = set()
        #: a root unit was retracted: every analysis-derived clause may
        #: have resolved through it and must be dropped before the next
        #: solve
        self._derived_dirty = False

        # Search state (index 0 unused; variables are 1-based).
        self._value_of: List[Optional[bool]] = [None]
        self._level_of: List[int] = [0]
        #: reason clause index of a propagated literal (None for decisions
        #: and root units)
        self._reason_of: List[Optional[int]] = [None]
        #: last polarity each variable held: the saved phase
        #: :meth:`_decision_literal` reads in both regimes (initially
        #: positive)
        self._phase: List[bool] = [True]
        #: assignment trail: just the literals, in assignment order
        self.trail: List[int] = []
        #: trail length at the start of each decision level
        self._trail_lim: List[int] = []
        self._prop_head = 0
        self._true_atoms: Set[int] = set()
        #: conflict count when the current solve began (drives the DLIS →
        #: activity decision switch-over, see :meth:`_decide_var`, and the
        #: :data:`_MAX_CONFLICTS` limit)
        self._conflicts_at_solve_start = 0
        #: decision variable displaced by a chronological backtrack; the
        #: next decision re-picks it without a DLIS rescan (the old flip
        #: search kept it assigned — re-deciding it first preserves both
        #: the search order and the scan budget)
        self._redecide: int = 0

        # DLIS counts, kept on deltas while the solve is conflict-sparse
        # (rebuilt by :meth:`_dlis_reset`, dropped at the switch to VSIDS).
        self._dlis_live = False
        #: literal -> indices of the clauses containing it (a dropped
        #: clause stays listed: its emptied slot is inert)
        self._occurs: Dict[int, List[int]] = {}
        #: clause index -> number of its literals currently true
        self._true_count: List[int] = []
        #: variable -> its literal occurrences in clauses with no true
        #: literal (for an unassigned variable, exactly the DLIS count)
        self._unsat_occ: List[int] = [0]

        # Activity / decision order.
        self._activity: List[float] = [0.0]
        self._var_inc = 1.0
        #: lazy max-heap of (-activity, var); stale entries are skipped
        self._order: List[Tuple[float, int]] = []

        self.ensure_vars(num_vars)
        for clause in clauses:
            self.add_clause(clause)

    # ------------------------------------------------------------------
    # Clause database
    # ------------------------------------------------------------------
    def ensure_vars(self, num_vars: int) -> None:
        """Grow the variable range to ``1..num_vars``."""
        while self.num_vars < num_vars:
            self.num_vars += 1
            self._value_of.append(None)
            self._level_of.append(0)
            self._reason_of.append(None)
            self._phase.append(True)
            self._activity.append(0.0)
            self._unsat_occ.append(0)
            heappush(self._order, (0.0, self.num_vars))

    def add_clause(self, clause: Sequence[int]) -> bool:
        """Add a clause (deduplicating); returns ``False`` for duplicates.

        Safe to call between solves; clauses arriving from the theory
        callback during the search take the conflict path inside
        :meth:`solve` instead.
        """
        literals = list(dict.fromkeys(clause))
        key = tuple(sorted(literals))
        existing = self._clause_keys.get(key)
        if existing is not None:
            # Promote a colliding *derived* clause to permanent: the caller
            # is asserting it, so it must survive a purge of the derived
            # set (see :meth:`_purge_derived`).
            if existing == -1:  # unit slot: key is the 1-tuple itself
                self._derived_units.discard(key[0])
            else:
                self._learnt.discard(existing)
            self.stats.duplicate_clauses += 1
            return False
        for literal in literals:
            self.ensure_vars(abs(literal))
        if len(literals) == 1:
            self._clause_keys[key] = -1
            self._units.add(literals[0])
        else:
            self._attach(literals, key)
        return True

    def _attach(self, literals: List[int], key: Clause) -> int:
        """Append a clause of two or more literals under ``key``, watching
        its first two literals; returns its index."""
        index = len(self.clauses)
        self._clause_keys[key] = index
        self.clauses.append(literals)
        self._watches.setdefault(literals[0], []).append(index)
        self._watches.setdefault(literals[1], []).append(index)
        self._dlis_attach(index)
        return index

    def remove_unit(self, literal: int) -> None:
        """Retract a root-level unit assertion added via :meth:`add_clause`."""
        self._units.discard(literal)
        self._clause_keys.pop((literal,), None)
        self._derived_dirty = True

    def _drop_clause(self, index: int) -> None:
        """Empty one clause slot and detach its watches (an empty slot is
        inert for propagation, so the other indices stay stable)."""
        lits = self.clauses[index]
        for literal in set(lits[:2]):
            watch_list = self._watches.get(literal)
            if watch_list and index in watch_list:
                watch_list.remove(index)
        if self._dlis_live and not self._true_count[index]:
            unsat = self._unsat_occ
            for literal in lits:
                unsat[abs(literal)] -= 1
        self.clauses[index] = []
        self._learnt.discard(index)

    # ------------------------------------------------------------------
    # Assignment primitives
    # ------------------------------------------------------------------
    def _value(self, literal: int) -> Optional[bool]:
        value = self._value_of[abs(literal)]
        if value is None:
            return None
        return value if literal > 0 else not value

    def _decision_level(self) -> int:
        return len(self._trail_lim)

    def _assign(self, literal: int, reason: Optional[int]) -> None:
        var = abs(literal)
        self._value_of[var] = literal > 0
        self._level_of[var] = len(self._trail_lim)
        self._reason_of[var] = reason
        self.trail.append(literal)
        if literal > 0 and var in self.theory_atoms:
            self._true_atoms.add(var)
        if self._dlis_live:
            true_count = self._true_count
            unsat = self._unsat_occ
            clauses = self.clauses
            for index in self._occurs.get(literal, ()):
                count = true_count[index]
                true_count[index] = count + 1
                if not count:
                    for q in clauses[index]:
                        unsat[abs(q)] -= 1

    def _new_level(self) -> None:
        self._trail_lim.append(len(self.trail))

    def _backjump(self, level: int) -> None:
        """Undo the trail down to (and keeping) decision level ``level``."""
        if len(self._trail_lim) <= level:
            return
        self._unassign(self._trail_lim[level])
        del self._trail_lim[level:]

    def _unassign(self, mark: int) -> None:
        """Unassign the trail from position ``mark`` on, saving phases."""
        order = self._order
        activity = self._activity
        live = self._dlis_live
        occurs = self._occurs
        true_count = self._true_count
        unsat = self._unsat_occ
        clauses = self.clauses
        for position in range(len(self.trail) - 1, mark - 1, -1):
            literal = self.trail[position]
            var = abs(literal)
            self._phase[var] = literal > 0
            self._value_of[var] = None
            self._reason_of[var] = None
            self._true_atoms.discard(var)
            heappush(order, (-activity[var], var))
            if live:
                for index in occurs.get(literal, ()):
                    count = true_count[index] - 1
                    true_count[index] = count
                    if not count:
                        for q in clauses[index]:
                            unsat[abs(q)] += 1
        del self.trail[mark:]
        self._prop_head = len(self.trail)
        if mark < self.theory_mark:
            self.theory_mark = mark

    # Compatibility view used by tests and debugging tools.
    @property
    def assignment(self) -> Dict[int, bool]:
        return {
            var: value
            for var, value in enumerate(self._value_of)
            if var and value is not None
        }

    # ------------------------------------------------------------------
    # Activity
    # ------------------------------------------------------------------
    def _bump_var(self, var: int) -> None:
        self._activity[var] += self._var_inc
        if self._activity[var] > _ACTIVITY_RESCALE:
            self._rescale_activity()
        if self._value_of[var] is None:
            heappush(self._order, (-self._activity[var], var))

    def _rescale_activity(self) -> None:
        for var in range(1, self.num_vars + 1):
            self._activity[var] *= 1e-100
        self._var_inc *= 1e-100

    def _decay_activities(self) -> None:
        self._var_inc /= _ACTIVITY_DECAY

    def _sparse(self) -> bool:
        """Still in the conflict-sparse (model search) regime of this solve?"""
        return (
            self.stats.conflicts - self._conflicts_at_solve_start
            <= _DLIS_CONFLICT_LIMIT
        )

    def _note_redecide(self, target: int) -> None:
        """Remember the decision a one-level backtrack is about to displace."""
        if target != self._decision_level() - 1 or target == 0:
            return
        mark = self._trail_lim[target]
        if mark < len(self.trail):
            self._redecide = abs(self.trail[mark])

    def _decision_literal(self, branch_var: int) -> int:
        """Polarity of a fresh decision on ``branch_var``.

        Variables re-use their saved phase (initially positive, which
        drives model search) — saved phases are what make restarts and
        chronological re-decisions cheap replays.  The theory layer forces
        theory atoms negative on integer-sensitive refutation workloads,
        which keeps the asserted-atom sets (and theory conflicts) small.
        """
        if self.negative_atom_phase and branch_var in self.theory_atoms:
            return -branch_var
        return branch_var if self._phase[branch_var] else -branch_var

    def _dlis_reset(self) -> None:
        """Recount the DLIS occurrences over the clause DB (empty trail).

        Called by :meth:`_restart`.  In the conflict-heavy regime the counts
        are not kept at all; the next solve starts sparse and recounts.
        """
        self._dlis_live = self._sparse()
        self._occurs = {}
        self._true_count = []
        self._unsat_occ = [0] * (self.num_vars + 1)
        if not self._dlis_live:
            return
        occurs = self._occurs
        unsat = self._unsat_occ
        for index, lits in enumerate(self.clauses):
            for literal in lits:
                occurs.setdefault(literal, []).append(index)
                unsat[abs(literal)] += 1
        self._true_count = [0] * len(self.clauses)

    def _dlis_attach(self, index: int) -> None:
        """Count a clause just appended to the DB under the current trail."""
        if not self._dlis_live:
            return
        lits = self.clauses[index]
        value_of = self._value_of
        true = 0
        for literal in lits:
            self._occurs.setdefault(literal, []).append(index)
            if value_of[abs(literal)] == (literal > 0):
                true += 1
        self._true_count.append(true)
        if not true:
            unsat = self._unsat_occ
            for literal in lits:
                unsat[abs(literal)] += 1

    def _decide_var(self) -> Optional[int]:
        """DLIS while conflicts are sparse, VSIDS once the signal is strong.

        DLIS picks the unassigned variable with the most literal
        occurrences in currently-unsatisfied clauses (decisions then aim at
        clauses that still need work, and most other variables arrive
        through propagation — the fast regime for model search, where
        non-chronological backjumps would otherwise force thousands of
        re-decisions); ties go to the higher activity, then the lower
        variable.  The counts are kept on deltas by :meth:`_assign`,
        :meth:`_backjump` and the clause add/drop paths, so a decision
        scans the variables, not the clause DB.  Past
        :data:`_DLIS_CONFLICT_LIMIT` conflicts in the current solve the
        activity heap takes over and the counts are dropped.
        """
        value_of = self._value_of
        if self._redecide:
            var = self._redecide
            self._redecide = 0
            if value_of[var] is None:
                return var
        if self._sparse():
            counts = self._unsat_occ
            activity = self._activity
            best_var = 0
            best_count = 0
            best_activity = 0.0
            for var in range(1, self.num_vars + 1):
                count = counts[var]
                if count < best_count or not count or value_of[var] is not None:
                    continue
                if count > best_count or activity[var] > best_activity:
                    best_var, best_count, best_activity = var, count, activity[var]
            if best_var:
                return best_var
        elif self._dlis_live:
            self._dlis_live = False
            self._occurs = {}
            self._true_count = []
        order = self._order
        while order:
            _, var = heappop(order)
            if value_of[var] is None:
                return var
        for var in range(1, self.num_vars + 1):
            if value_of[var] is None:
                return var
        return None

    # ------------------------------------------------------------------
    # Watched-literal propagation
    # ------------------------------------------------------------------
    def _propagate(self) -> Optional[int]:
        """Unit propagation; returns the index of a falsified clause."""
        while self._prop_head < len(self.trail):
            literal = self.trail[self._prop_head]
            self._prop_head += 1
            false_literal = -literal
            watch_list = self._watches.get(false_literal)
            if not watch_list:
                continue
            kept: List[int] = []
            position = 0
            while position < len(watch_list):
                index = watch_list[position]
                position += 1
                lits = self.clauses[index]
                if not lits:  # purged slot
                    continue
                # Normalise: the falsified watch sits at position 1.
                if lits[0] == false_literal:
                    lits[0], lits[1] = lits[1], lits[0]
                other = lits[0]
                if self._value(other) is True:
                    kept.append(index)
                    continue
                moved = False
                for k in range(2, len(lits)):
                    if self._value(lits[k]) is not False:
                        lits[1], lits[k] = lits[k], lits[1]
                        self._watches.setdefault(lits[1], []).append(index)
                        moved = True
                        break
                if moved:
                    continue
                kept.append(index)
                other_value = self._value(other)
                if other_value is False:
                    kept.extend(watch_list[position:])
                    watch_list[:] = kept
                    return index
                self._assign(other, reason=index)
                self.stats.propagations += 1
            watch_list[:] = kept
        return None

    # ------------------------------------------------------------------
    # Conflict analysis (1UIP)
    # ------------------------------------------------------------------
    def _analyze(self, conflict_index: int) -> Tuple[List[int], int]:
        """Resolve a falsified clause to the first UIP.

        Returns ``(learned, backjump_level)`` where ``learned[0]`` is
        the asserting (UIP) literal.  The caller guarantees the conflict
        involves at least one literal of the current decision level.
        """
        current = self._decision_level()
        seen: Dict[int, bool] = {}
        learned: List[int] = [0]
        counter = 0
        p: Optional[int] = None
        index = len(self.trail)
        reason_lits: Sequence[int] = self.clauses[conflict_index]
        # repro: allow(checkpoint-coverage): resolution walks the trail at most once per conflict, and the search loop checkpoints lia.sat on every conflict
        while True:
            for q in reason_lits:
                if p is not None and q == p:
                    continue
                var = abs(q)
                if seen.get(var):
                    continue
                if self._level_of[var] > 0:
                    seen[var] = True
                    self._bump_var(var)
                    if self._level_of[var] >= current:
                        counter += 1
                    else:
                        learned.append(q)
            while True:
                index -= 1
                p = self.trail[index]
                if seen.get(abs(p)) and self._level_of[abs(p)] > 0:
                    break
            counter -= 1
            if counter == 0:
                break
            reason_lits = self.clauses[self._reason_of[abs(p)]]
        learned[0] = -p

        # Self-subsuming minimization: drop literals whose reason clause is
        # already covered by the learned clause (recursively).
        kept = [learned[0]]
        for literal in learned[1:]:
            if self._reason_of[abs(literal)] is None or not self._redundant(literal, seen):
                kept.append(literal)
            else:
                self.stats.minimized_literals += 1
        learned = kept

        if len(learned) == 1:
            backjump_level = 0
        else:
            # The second watch must sit on the backjump level.
            best = 1
            for position in range(2, len(learned)):
                if self._level_of[abs(learned[position])] > self._level_of[abs(learned[best])]:
                    best = position
            learned[1], learned[best] = learned[best], learned[1]
            backjump_level = self._level_of[abs(learned[1])]
        return learned, backjump_level

    def _redundant(self, literal: int, seen: Dict[int, bool]) -> bool:
        """Recursive check that ``literal`` is implied by the learned clause."""
        stack = [literal]
        marked: List[int] = []
        budget = _MINIMIZE_BUDGET
        # repro: allow(checkpoint-coverage): self-bounded by the _MINIMIZE_BUDGET node counter, which bails out before the loop can run long
        while stack:
            top = stack.pop()
            reason_index = self._reason_of[abs(top)]
            for q in self.clauses[reason_index]:
                var = abs(q)
                if var == abs(top) or seen.get(var) or self._level_of[var] == 0:
                    continue
                budget -= 1
                if self._reason_of[var] is None or budget <= 0:
                    for mark in marked:
                        seen.pop(mark, None)
                    return False
                seen[var] = True
                marked.append(var)
                stack.append(q)
        return True

    def _learn(self, index: int, deepest: int) -> None:
        """Learn from the falsified clause ``clauses[index]``, whose deepest
        literal sits on level ``deepest``.

        After a chronological backtrack the clause may live entirely below
        the current decision level (its asserting literal was re-propagated
        out of order); 1UIP analysis needs the conflict at the top, so the
        search first drops to the clause's own level.  A learned unit
        always commits at the root: asserting it reason-less any higher
        would plant a pseudo-decision later analyses cannot resolve
        through.
        """
        before = self._decision_level()
        self._backjump(deepest)
        learned, backjump_level = self._analyze(index)
        if len(learned) == 1:
            target = 0
        else:
            target = _chrono_target(deepest, backjump_level, self._sparse())
        self._note_redecide(target)
        self.stats.backjump_levels += before - target
        self._backjump(target)
        self._install_learned(learned)

    def _install_learned(self, learned: List[int]) -> None:
        """Store a learned clause and assert its UIP literal."""
        self.stats.learned_clauses += 1
        if len(learned) == 1:
            literal = learned[0]
            key = (literal,)
            if key not in self._clause_keys:
                self._clause_keys[key] = -1
                self._units.add(literal)
                self._derived_units.add(literal)
            if self._value(literal) is None:
                self._assign(literal, reason=None)
                self.stats.propagations += 1
            return
        key = tuple(sorted(learned))
        existing = self._clause_keys.get(key)
        if existing is not None and existing >= 0 and self.clauses[existing]:
            # Re-learned a clause the DB already holds: reuse it as the
            # reason.
            self.stats.duplicate_clauses += 1
            self._rewatch(existing, learned[0], learned[1])
            index = existing
        else:
            index = self._attach(learned, key)
            self._learnt.add(index)
        if self._value(learned[0]) is None:
            self._assign(learned[0], reason=index)
            self.stats.propagations += 1

    def _rewatch(self, index: int, first: int, second: int) -> None:
        """Force the watches of ``clauses[index]`` onto two given literals."""
        lits = self.clauses[index]
        for literal in set(lits[:2]):
            watch_list = self._watches.get(literal)
            if watch_list and index in watch_list:
                watch_list.remove(index)
        rest = [l for l in lits if l not in (first, second)]
        self.clauses[index] = [first, second] + rest
        self._watches.setdefault(first, []).append(index)
        self._watches.setdefault(second, []).append(index)

    # ------------------------------------------------------------------
    # Theory conflicts
    # ------------------------------------------------------------------
    def _handle_theory_conflict(self, clause: Clause) -> bool:
        """Install a theory conflict clause and recover from it.

        Returns ``False`` when the clause set became unsatisfiable.  Theory
        clauses are permanent (see the module docstring); the recovery is
        :meth:`_learn` on the clause.
        """
        literals = list(dict.fromkeys(clause))
        if not literals:
            return False
        # A clause with a true or unassigned literal is no conflict: attach
        # it (it is still a sound lemma) and resume the search.
        falsified = all(self._value(literal) is False for literal in literals)

        key = tuple(sorted(literals))
        index = self._clause_keys.get(key)
        if index is None:
            if len(literals) == 1:
                self._clause_keys[key] = -1
                self._units.add(literals[0])
            else:
                index = self._attach(literals, key)
            self.stats.learned_clauses += 1
        else:
            self.stats.duplicate_clauses += 1
        for literal in literals:
            self._bump_var(abs(literal))
        self._decay_activities()

        if len(literals) == 1:
            literal = literals[0]
            self._backjump(0)
            value = self._value(literal)
            if value is False:
                return False
            if value is None:
                self._assign(literal, reason=None)
                self.stats.propagations += 1
            return True

        # Keep the watch invariant: watch two non-false literals, or the
        # most recently falsified ones.
        if not falsified:
            free = [l for l in literals if self._value(l) is not False]
            if len(free) >= 2:
                self._rewatch(index, free[0], free[1])
            elif len(free) == 1:
                others = [l for l in literals if l != free[0]]
                others.sort(key=lambda l: -self._level_of[abs(l)])
                self._rewatch(index, free[0], others[0])
                if self._value(free[0]) is None:
                    self._assign(free[0], reason=index)
                    self.stats.propagations += 1
            return True

        deepest = max(self._level_of[abs(literal)] for literal in literals)
        if deepest == 0:
            return False
        ordered = sorted(literals, key=lambda l: -self._level_of[abs(l)])
        self._rewatch(index, ordered[0], ordered[1])
        self._learn(index, deepest)
        return True

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def _assert_units(self) -> bool:
        """Assert every root unit; ``False`` on an immediate contradiction."""
        for literal in sorted(self._units, key=abs):
            value = self._value(literal)
            if value is False:
                return False
            if value is None:
                self._assign(literal, reason=None)
        return True

    def _purge_derived(self) -> None:
        """Drop every analysis-derived clause and unit.

        A 1UIP resolvent implicitly resolves through the root units whose
        literals it dropped at level 0, so it is only implied while those
        units stay asserted.  Rather than tracking the exact dependencies,
        a retraction invalidates the whole derived set — theory lemmas are
        consequences of the atom semantics alone and survive.
        """
        self._derived_dirty = False
        for index in list(self._learnt):
            lits = self.clauses[index]
            if not lits:
                continue
            key = tuple(sorted(dict.fromkeys(lits)))
            if self._clause_keys.get(key) == index:
                del self._clause_keys[key]
            self._drop_clause(index)
        for literal in self._derived_units:
            if self._clause_keys.get((literal,)) == -1:
                del self._clause_keys[(literal,)]
            self._units.discard(literal)
        self._derived_units.clear()

    def _restart(self) -> None:
        """Clear the whole search state; clauses and activities stay.

        The DLIS counts are recounted from scratch afterwards, so the trail
        is unassigned without keeping them in step.
        """
        self._dlis_live = False
        self._unassign(0)
        del self._trail_lim[:]
        self._dlis_reset()

    def _count_conflict(self) -> None:
        """Count a conflict; past :data:`_MAX_CONFLICTS` in this solve,
        give up with :class:`ResourceLimit`."""
        self.stats.conflicts += 1
        if self.stats.conflicts - self._conflicts_at_solve_start > _MAX_CONFLICTS:
            raise ResourceLimit("SAT search exceeded the conflict budget")

    def solve(self) -> Tuple[str, Optional[Dict[int, bool]]]:
        """Run the search; returns ``("sat", model)`` or ``("unsat", None)``.

        The search restarts from the root but keeps all clauses (including
        the ones learned in earlier calls), phases and activities.  Raises
        :class:`ResourceLimit` after ``_MAX_CONFLICTS`` conflicts.  Every
        search iteration checkpoints stage ``lia.sat`` against the ambient
        budget (:func:`repro.budget.checkpoint`), which raises
        :class:`repro.budget.BudgetExceeded` when it runs out.
        """
        self._conflicts_at_solve_start = self.stats.conflicts
        self.stats.restarts += 1
        self._restart()
        if self._derived_dirty:
            self._purge_derived()
        if not self._assert_units():
            return "unsat", None

        restart_index = 0
        restart_limit = _LUBY_UNIT * _luby(restart_index)
        conflicts_at_restart = self.stats.conflicts
        heavy_since_conflicts = False

        def theory_conflict(final: bool) -> Optional[bool]:
            """One partial or final theory check of the true atoms:
            ``None`` when they are consistent, else whether the search
            survives the conflict clause."""
            self.stats.theory_checks += 1
            clause = self.theory_callback(set(self._true_atoms), final)
            if clause is None:
                return None
            self._count_conflict()
            return self._handle_theory_conflict(clause)

        while True:
            checkpoint("lia.sat")

            if self.request_restart:
                self.request_restart = False
                self.stats.restarts += 1
                self._restart()
                if not self._assert_units():
                    return "unsat", None
                conflicts_at_restart = self.stats.conflicts

            conflict = self._propagate()
            if conflict is not None:
                self._count_conflict()
                deepest = max(self._level_of[abs(q)] for q in self.clauses[conflict])
                if deepest == 0:
                    return "unsat", None
                self._learn(conflict, deepest)
                self._decay_activities()
                continue

            # Luby restarts pair with VSIDS + saved phases: activity
            # reordering makes the replay productive and phases make it
            # cheap.  The conflict-sparse regime decides by the
            # (deterministic) DLIS scan, where a restart merely replays the
            # same trail at full re-decision cost — so restarts only fire
            # once the solve has left it, counting from the switch.
            if not self._sparse() and not heavy_since_conflicts:
                heavy_since_conflicts = True
                conflicts_at_restart = self.stats.conflicts
            if (
                heavy_since_conflicts
                and self.stats.conflicts - conflicts_at_restart >= restart_limit
                and self._decision_level() > 0
            ):
                restart_index += 1
                restart_limit = _LUBY_UNIT * _luby(restart_index)
                conflicts_at_restart = self.stats.conflicts
                self.stats.restarts += 1
                self._backjump(0)
                continue

            # Theory consistency of the currently-true atoms (cheap check).
            if self.theory_callback is not None and self.theory_atoms:
                resumed = theory_conflict(False)
                if resumed is False:
                    return "unsat", None
                if resumed:
                    continue

            branch_var = self._decide_var()
            if branch_var is None:
                # Complete assignment: run the full (integer) theory check.
                if self.theory_callback is not None:
                    resumed = theory_conflict(True)
                    if resumed is False:
                        return "unsat", None
                    if resumed:
                        continue
                return "sat", dict(self.assignment)

            self.stats.decisions += 1
            self._new_level()
            self._assign(self._decision_literal(branch_var), reason=None)
