"""CDCL invariants of the rebuilt SAT core (:mod:`repro.lia.sat`).

Three invariant families, each checked against brute-force ground truth on
small instances:

* **learning soundness** — every clause the engine adds to its database
  (1UIP conflict clauses, minimized or not, and learned units) is a logical
  consequence of the original clause set;
* **search correctness** — verdicts and models agree with exhaustive
  enumeration across randomized incremental scripts (which exercises
  non-chronological backjumping, restarts and DB reduction end to end: an
  unsound backjump level or a deleted reason clause shows up as a wrong
  verdict);
* **assumption semantics** — ``solve(assumptions=…)`` agrees with solving
  the clauses plus assumption units, the failed-assumption set is a subset
  of the assumptions, and re-solving under only the failed assumptions is
  still unsatisfiable (the core really is a core).

A fourth family pins the decision heuristic: the DLIS counts the engine
keeps on deltas must pick, at every conflict-sparse decision, the variable
a full rescan of the clause DB picks.
"""

import itertools
import random

import pytest

from repro.lia import LiaSolver, LiaStatus, conj, ge, le, ne, var
from repro.lia.sat import DpllSolver


# ----------------------------------------------------------------------
# Brute-force oracles
# ----------------------------------------------------------------------
def _assignments(num_vars):
    for bits in itertools.product((False, True), repeat=num_vars):
        yield {v: bits[v - 1] for v in range(1, num_vars + 1)}


def _satisfies(assignment, clause):
    return any(assignment[abs(lit)] == (lit > 0) for lit in clause)


def _brute_force(num_vars, clauses):
    for assignment in _assignments(num_vars):
        if all(_satisfies(assignment, c) for c in clauses):
            return assignment
    return None


def _implied(num_vars, clauses, candidate):
    """Is ``candidate`` a logical consequence of ``clauses``?"""
    for assignment in _assignments(num_vars):
        if all(_satisfies(assignment, c) for c in clauses):
            if not _satisfies(assignment, candidate):
                return False
    return True


def _random_instance(rng, num_vars, num_clauses):
    clauses = []
    for _ in range(num_clauses):
        width = rng.randint(1, 3)
        chosen = rng.sample(range(1, num_vars + 1), width)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in chosen))
    return clauses


# ----------------------------------------------------------------------
# Learned clauses are implied by the input
# ----------------------------------------------------------------------
def test_learned_clauses_are_implied_by_the_input():
    rng = random.Random(7)
    checked_learned = 0
    for round_index in range(60):
        num_vars = rng.randint(4, 8)
        clauses = _random_instance(rng, num_vars, rng.randint(6, 22))
        solver = DpllSolver(num_vars=num_vars, clauses=clauses)
        original_units = set(solver._units)
        original_count = len(solver.clauses)
        verdict, model = solver.solve()

        expected = _brute_force(num_vars, clauses)
        assert (verdict == "sat") == (expected is not None), (
            f"round {round_index}: verdict {verdict} vs brute force {expected}"
        )
        if verdict == "sat":
            assert all(_satisfies(model, c) for c in clauses)

        for index in range(original_count, len(solver.clauses)):
            learned = solver.clauses[index]
            if not learned:
                continue  # reduced away
            checked_learned += 1
            assert _implied(num_vars, clauses, tuple(learned)), (
                f"round {round_index}: learned clause {learned} is not implied"
            )
        for literal in solver._units - original_units:
            checked_learned += 1
            assert _implied(num_vars, clauses, (literal,)), (
                f"round {round_index}: learned unit {literal} is not implied"
            )
    assert checked_learned > 0, "no conflict clause was ever learned"


# ----------------------------------------------------------------------
# Non-chronological backjumping
# ----------------------------------------------------------------------
def test_backjump_skips_independent_decision_levels(monkeypatch):
    # Variables 2..6 are free decisions between the culprit (1) and the
    # conflict on 7/8: the learned clause depends only on variable 1, so
    # in the conflict-heavy regime (forced here by zeroing the sparse
    # threshold) recovery must jump over the independent levels — a
    # chronological engine would undo exactly one level per conflict.
    import repro.lia.sat as sat_module

    monkeypatch.setattr(sat_module, "_DLIS_CONFLICT_LIMIT", -1)
    clauses = [(-1, 7, 8), (-1, 7, -8), (-1, -7, 8), (-1, -7, -8)]
    solver = DpllSolver(num_vars=8, clauses=clauses)
    verdict, model = solver.solve()
    assert verdict == "sat"
    assert model[1] is False  # the only way to satisfy the quad
    assert solver.stats.backjump_levels > solver.stats.conflicts, (
        "conflicts never skipped a level: backjumping is chronological"
    )


def test_sparse_regime_backtracks_chronologically():
    # Model search (conflict-sparse) keeps the trail: every conflict
    # undoes exactly one level, the learned clause prunes the dead region.
    clauses = [(-1, 7, 8), (-1, 7, -8), (-1, -7, 8), (-1, -7, -8)]
    solver = DpllSolver(num_vars=8, clauses=clauses)
    verdict, model = solver.solve()
    assert verdict == "sat"
    assert model[1] is False
    assert solver.stats.backjump_levels == solver.stats.conflicts


def test_backjump_level_yields_asserting_clauses():
    # After every conflict the engine must be able to continue and still
    # terminate with the right verdict — pigeonhole instances make every
    # wrong backjump level explode or misreport.
    def pigeonhole(pigeons, holes):
        def v(p, h):
            return p * holes + h + 1

        clauses = [tuple(v(p, h) for h in range(holes)) for p in range(pigeons)]
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    clauses.append((-v(p1, h), -v(p2, h)))
        return pigeons * holes, clauses

    num_vars, clauses = pigeonhole(4, 3)
    solver = DpllSolver(num_vars=num_vars, clauses=clauses)
    assert solver.solve()[0] == "unsat"
    assert solver.stats.conflicts > 0
    num_vars, clauses = pigeonhole(3, 3)
    solver = DpllSolver(num_vars=num_vars, clauses=clauses)
    verdict, model = solver.solve()
    assert verdict == "sat"
    assert all(_satisfies(model, c) for c in clauses)


def test_learned_db_reduction_keeps_the_verdict():
    rng = random.Random(21)
    for _ in range(10):
        num_vars = rng.randint(6, 9)
        clauses = _random_instance(rng, num_vars, rng.randint(18, 30))
        solver = DpllSolver(num_vars=num_vars, clauses=clauses)
        solver._max_learnts = 2  # force aggressive LBD reduction
        verdict, model = solver.solve()
        expected = _brute_force(num_vars, clauses)
        assert (verdict == "sat") == (expected is not None)
        if verdict == "sat":
            assert all(_satisfies(model, c) for c in clauses)


def test_luby_restarts_fire_and_keep_clauses(monkeypatch):
    import repro.lia.sat as sat_module

    monkeypatch.setattr(sat_module, "_LUBY_UNIT", 2)
    num_vars, clauses = 12, []
    rng = random.Random(3)
    clauses = _random_instance(rng, num_vars, 40)
    solver = DpllSolver(num_vars=num_vars, clauses=clauses)
    verdict, model = solver.solve()
    expected = _brute_force(num_vars, clauses)
    assert (verdict == "sat") == (expected is not None)
    if solver.stats.conflicts >= 4:
        assert solver.stats.restarts > 1, "Luby restarts never fired"


# ----------------------------------------------------------------------
# Assumptions
# ----------------------------------------------------------------------
def test_assumptions_agree_with_assumption_units():
    rng = random.Random(11)
    saw_unsat_with_core = 0
    for round_index in range(60):
        num_vars = rng.randint(4, 7)
        clauses = _random_instance(rng, num_vars, rng.randint(5, 16))
        count = rng.randint(1, 3)
        assumptions = tuple(
            v if rng.random() < 0.5 else -v
            for v in rng.sample(range(1, num_vars + 1), count)
        )
        solver = DpllSolver(num_vars=num_vars, clauses=clauses)
        verdict, model = solver.solve(assumptions=assumptions)

        expected = _brute_force(
            num_vars, list(clauses) + [(a,) for a in assumptions]
        )
        assert (verdict == "sat") == (expected is not None), (
            f"round {round_index}: {verdict} under {assumptions}"
        )
        if verdict == "sat":
            for assumption in assumptions:
                assert model[abs(assumption)] == (assumption > 0)
            assert all(_satisfies(model, c) for c in clauses)
            assert solver.failed_assumptions == frozenset()
        else:
            failed = solver.failed_assumptions
            assert failed <= set(assumptions), (failed, assumptions)
            # The failed set is a genuine core: clauses + failed alone
            # are still unsatisfiable.
            assert _brute_force(
                num_vars, list(clauses) + [(a,) for a in sorted(failed)]
            ) is None
            if failed:
                saw_unsat_with_core += 1
            # And solving under only the failed assumptions reproduces
            # the verdict on the engine itself.
            assert solver.solve(assumptions=sorted(failed))[0] == "unsat"
    assert saw_unsat_with_core > 0, "assumption cores were never exercised"


def test_failed_assumptions_empty_when_unsat_without_them():
    solver = DpllSolver(num_vars=2, clauses=[(1,), (-1,)])
    verdict, _ = solver.solve(assumptions=(2,))
    assert verdict == "unsat"
    assert solver.failed_assumptions == frozenset()


def test_single_false_assumption_is_its_own_core():
    solver = DpllSolver(num_vars=2, clauses=[(1,)])
    verdict, _ = solver.solve(assumptions=(-1,))
    assert verdict == "unsat"
    assert solver.failed_assumptions == frozenset({-1})


def test_retracting_a_unit_purges_dependent_learned_clauses():
    # 1UIP analysis drops level-0 literals, so a clause learned while the
    # root unit (1,) is asserted may only be implied *together with* that
    # unit.  Retracting the unit must purge the derived clauses — keeping
    # them once made this satisfiable instance answer unsat.
    solver = DpllSolver(num_vars=3, clauses=[(1,), (-1, -2, 3), (-1, -2, -3)])
    assert solver.solve()[0] == "sat"
    solver.remove_unit(1)
    solver.add_clause((2,))
    verdict, model = solver.solve()
    assert verdict == "sat"  # 1=False, 2=True satisfies everything
    assert model[2] is True and model[1] is False


def test_asserting_a_derived_unit_makes_it_permanent():
    # If the engine first *learns* a unit and the caller later asserts the
    # same unit, a purge of the derived set must not drop the assertion.
    solver = DpllSolver(num_vars=3, clauses=[(1,), (-1, -2, 3), (-1, -2, -3)])
    assert solver.solve()[0] == "sat"  # learns the unit (-2,)
    solver.add_clause((-2,))  # now also asserted
    solver.remove_unit(1)  # triggers a purge of derived clauses
    assert solver.solve()[0] == "sat"
    assert solver.has_unit(-2)
    solver.add_clause((2,))
    assert solver.solve()[0] == "unsat"  # (-2,) must still be in force


def test_unsupported_assumption_reports_unknown():
    from repro.lia import const, exists, ge, le, var as lvar

    solver = LiaSolver()
    solver.add_assertion(ge(lvar("x"), 0))
    quantified = exists(("z",), le(const(1), 0))
    result = solver.check(assumptions=[("q", quantified)])
    assert result.status is LiaStatus.UNKNOWN
    assert "assumption" in result.reason


def test_assumptions_do_not_persist_between_solves():
    solver = DpllSolver(num_vars=2, clauses=[(1, 2)])
    assert solver.solve(assumptions=(-1, -2))[0] == "unsat"
    assert solver.solve()[0] == "sat"


# ----------------------------------------------------------------------
# LiaSolver-level assumption cores
# ----------------------------------------------------------------------
def test_lia_assumption_cores_are_rechecked_unsat():
    x, y = var("x"), var("y")
    solver = LiaSolver()
    solver.add_assertion(ge(x, 0))
    labelled = [
        ("ub", le(x, 5)),
        ("noise", ge(y, 3)),
        ("lb", ge(x, 10)),
    ]
    result = solver.check(assumptions=labelled)
    assert result.status is LiaStatus.UNSAT
    assert set(result.core_labels) <= {"ub", "noise", "lb"}
    assert "noise" not in result.core_labels
    # Re-check under only the core assumptions: still unsat.
    core = [pair for pair in labelled if pair[0] in result.core_labels]
    assert solver.check(assumptions=core).status is LiaStatus.UNSAT
    # And the stack alone is satisfiable again.
    assert solver.check().status is LiaStatus.SAT


def test_lia_core_labels_empty_when_stack_is_unsat():
    x = var("x")
    solver = LiaSolver()
    solver.add_assertion(conj([ge(x, 1), le(x, 0)]))
    result = solver.check(assumptions=[("a", ge(var("y"), 0))])
    assert result.status is LiaStatus.UNSAT
    assert result.core_labels == ()


def test_lia_trivially_false_assumption_is_the_core():
    x, y = var("x"), var("y")
    solver = LiaSolver()
    solver.add_assertion(ge(x, 0))
    result = solver.check(
        assumptions=[("fine", ge(y, 0)), ("impossible", conj([ge(y, 1), le(y, 0)]))]
    )
    assert result.status is LiaStatus.UNSAT
    assert result.core_labels == ("impossible",)


def test_lia_assumption_cores_with_disjunctions():
    x = var("x")
    solver = LiaSolver()
    solver.add_assertion(conj([ge(x, 0), le(x, 10)]))
    result = solver.check(
        assumptions=[
            ("split", ne(x, 0) | ge(x, 4)),
            ("cap", le(x, 3)),
            ("pin", conj([ge(x, 0), le(x, 0)])),
        ]
    )
    assert result.status is LiaStatus.UNSAT
    # split + pin alone conflict (x = 0 falsifies both disjuncts);
    # whichever core comes back must re-check unsat.
    core = [("split", ne(x, 0) | ge(x, 4)), ("cap", le(x, 3)),
            ("pin", conj([ge(x, 0), le(x, 0)]))]
    core = [pair for pair in core if pair[0] in result.core_labels]
    assert core, "empty core for an assumption-driven conflict"
    assert solver.check(assumptions=core).status is LiaStatus.UNSAT


def test_stats_expose_cdcl_counters():
    x = var("x")
    solver = LiaSolver()
    solver.add_assertion(conj([ge(x, 0), le(x, 8), ne(x, 0), ne(x, 1), ne(x, 2)]))
    result = solver.check()
    assert result.status is LiaStatus.SAT
    for key in ("backjump_levels", "deleted_clauses", "minimized_literals",
                "conflicts", "learned_clauses", "restarts"):
        assert key in result.stats


# ----------------------------------------------------------------------
# DLIS counts kept on deltas pick what a full rescan picks
# ----------------------------------------------------------------------
def _rescan_counts(solver):
    """Per variable, its literal occurrences in clauses with no true literal."""
    value_of = solver._value_of
    counts = [0] * (solver.num_vars + 1)
    for lits in solver.clauses:
        if any(value_of[abs(q)] == (q > 0) for q in lits):
            continue
        for q in lits:
            counts[abs(q)] += 1
    return counts


def _rescan_choice(solver):
    """The DLIS decision as a scan over the whole clause DB computes it."""
    counts = _rescan_counts(solver)
    free = [
        v for v in range(1, solver.num_vars + 1)
        if counts[v] and solver._value_of[v] is None
    ]
    if not free:
        return None
    return max(free, key=lambda v: (counts[v], solver._activity[v], -v))


class _CheckedDlis(DpllSolver):
    """Checks every sparse DLIS decision against a full rescan."""

    checked = 0

    def _decide_var(self):
        expected = None
        redecide = self._redecide
        if self._sparse() and not (redecide and self._value_of[redecide] is None):
            assert self._dlis_live
            assert self._unsat_occ == _rescan_counts(self)
            expected = _rescan_choice(self)
        chosen = super()._decide_var()
        if expected is not None:
            assert chosen == expected
            type(self).checked += 1
        return chosen


def _pair_theory(rng, holder, atoms):
    """A toy theory: some pairs (and, at final checks, triples) of atoms clash."""
    pairs = [tuple(rng.sample(atoms, 2)) for _ in range(len(atoms))]
    triples = [tuple(rng.sample(atoms, 3)) for _ in range(len(atoms) // 2)]
    calls = [0]

    def callback(true_atoms, final):
        calls[0] += 1
        if calls[0] == 7:
            holder[0].request_restart = True
        for group in pairs + (triples if final else []):
            if all(atom in true_atoms for atom in group):
                return tuple(-atom for atom in group)
        return None

    return callback


@pytest.mark.parametrize("sparse_limit", [500, 1])
def test_dlis_counts_pick_the_rescan_choice(monkeypatch, sparse_limit):
    # A small sparse limit makes solves cross into the VSIDS regime (where
    # the counts are dropped) and re-enter DLIS at the next solve.
    import repro.lia.sat as sat_module

    monkeypatch.setattr(sat_module, "_DLIS_CONFLICT_LIMIT", sparse_limit)
    monkeypatch.setattr(_CheckedDlis, "checked", 0)
    rng = random.Random(5)
    for _ in range(40):
        num_vars = rng.randint(8, 24)
        clauses = []
        for _ in range(rng.randint(2 * num_vars, 9 * num_vars // 2)):
            width = rng.choice((2, 3, 3, 4))
            chosen = rng.sample(range(1, num_vars + 1), width)
            clauses.append(tuple(v if rng.random() < 0.5 else -v for v in chosen))
        atoms = rng.sample(range(1, num_vars + 1), num_vars // 2)
        holder = [None]
        solver = _CheckedDlis(
            num_vars=num_vars,
            clauses=clauses,
            theory_atoms=set(atoms),
            theory_callback=_pair_theory(rng, holder, atoms),
        )
        holder[0] = solver
        solver._max_learnts = 3  # force learned-clause DB reduction
        for _ in range(6):
            solver.solve(assumptions=tuple(rng.sample(range(-num_vars, 0), 1)))
            roll = rng.random()
            live = [lits for lits in solver.clauses if lits]
            if roll < 0.3 and live:
                solver.retract_clause_key(tuple(sorted(rng.choice(live))))
            elif roll < 0.6:
                unit = rng.choice((1, -1)) * rng.randint(1, num_vars)
                solver.add_clause((unit,))
                solver.solve()
                solver.remove_unit(unit)
            else:
                solver.add_clause(tuple(rng.sample(range(1, num_vars + 1), 3)))
    assert _CheckedDlis.checked > 300


def test_dlis_counts_through_push_pop(monkeypatch):
    # The LIA assertion stack drives the engine through its real theory
    # hook: pop retracts units and strengthened theory clauses.
    import repro.lia.solver as solver_module

    monkeypatch.setattr(solver_module, "DpllSolver", _CheckedDlis)
    monkeypatch.setattr(_CheckedDlis, "checked", 0)
    rng = random.Random(9)
    names = ["x", "y", "z"]
    for _ in range(12):
        solver = LiaSolver()
        solver.add_assertion(conj([ge(var(n), 0) for n in names] + [le(var(n), 6) for n in names]))
        for _ in range(8):
            if rng.random() < 0.3:
                solver.push()
            elif rng.random() < 0.3:
                try:
                    solver.pop()
                except IndexError:
                    pass
            a, b = rng.sample(names, 2)
            solver.add_assertion(
                ne(var(a) + var(b), rng.randint(0, 8))
                | le(var(a), rng.randint(0, 6))
            )
            solver.add_assertion(ne(var(a), rng.randint(0, 6)))
            assert solver.check().status in (LiaStatus.SAT, LiaStatus.UNSAT)
    assert _CheckedDlis.checked > 50
