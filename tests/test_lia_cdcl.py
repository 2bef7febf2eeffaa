"""CDCL invariants of the rebuilt SAT core (:mod:`repro.lia.sat`).

Two invariant families, each checked against brute-force ground truth on
small instances:

* **learning soundness** — every clause the engine adds to its database
  (1UIP conflict clauses, minimized or not, and learned units) is a logical
  consequence of the original clause set;
* **search correctness** — verdicts and models agree with exhaustive
  enumeration across randomized incremental scripts (which exercises
  non-chronological backjumping, restarts and DB reduction end to end: an
  unsound backjump level or a deleted reason clause shows up as a wrong
  verdict).

A third family pins the decision heuristic: the DLIS counts the engine
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
# Unit retraction
# ----------------------------------------------------------------------
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
    solver.add_clause((2,))
    assert solver.solve()[0] == "unsat"  # (-2,) must still be in force


# ----------------------------------------------------------------------
# LiaSolver-level counters
# ----------------------------------------------------------------------
def test_stats_expose_cdcl_counters():
    x = var("x")
    solver = LiaSolver()
    solver.add_assertion(conj([ge(x, 0), le(x, 8), ne(x, 0), ne(x, 1), ne(x, 2)]))
    result = solver.check()
    assert result.status is LiaStatus.SAT
    for key in ("backjump_levels", "minimized_literals",
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
        for _ in range(6):
            (literal,) = rng.sample(range(-num_vars, 0), 1)
            solver.add_clause((literal,))
            solver.solve()
            solver.remove_unit(literal)
            if rng.random() < 0.5:
                unit = rng.choice((1, -1)) * rng.randint(1, num_vars)
                solver.add_clause((unit,))
                solver.solve()
                solver.remove_unit(unit)
            else:
                solver.add_clause(tuple(rng.sample(range(1, num_vars + 1), 3)))
    assert _CheckedDlis.checked > 300


def test_dlis_counts_through_push_pop(monkeypatch):
    # The LIA assertion stack drives the engine through its real theory
    # hook: pop retracts units, which purges the learned clauses.
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
