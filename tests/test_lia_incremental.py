"""Tests for the incremental DPLL(T) core (push/pop, watched literals).

The key property: any ``push`` / ``add_assertion`` / ``check`` / ``pop``
sequence must report exactly the verdicts a from-scratch ``LiaSolver.check``
gives on the conjunction of the assertions active at that moment.
"""

from fractions import Fraction

import pytest

from hypothesis import given, settings, strategies as st

from repro.lia import (
    LiaSolver,
    LiaStatus,
    check_model,
    conj,
    disj,
    eq,
    ge,
    le,
    ne,
    var,
)
from repro.lia.sat import DpllSolver
from repro.lia.cnf import CnfBuilder
from repro.lia.simplex import Constraint, Simplex
from repro.lia.terms import LinExpr


# ----------------------------------------------------------------------
# Incremental vs. from-scratch equivalence
# ----------------------------------------------------------------------
def _atom(spec):
    a, b, c, rel = spec
    lhs = a * var("x") + b * var("y")
    if rel == "<=":
        return le(lhs, c)
    if rel == ">=":
        return ge(lhs, c)
    if rel == "==":
        return eq(lhs, c)
    return ne(lhs, c)


_atom_spec = st.tuples(
    st.integers(min_value=-2, max_value=2),
    st.integers(min_value=-2, max_value=2),
    st.integers(min_value=-4, max_value=4),
    st.sampled_from(["<=", ">=", "==", "!="]),
)

#: a script step: push, pop, or assert a small formula
_step = st.one_of(
    st.just(("push",)),
    st.just(("pop",)),
    st.tuples(st.just("assert"), st.lists(_atom_spec, min_size=1, max_size=3)),
)


@settings(max_examples=40, deadline=None)
@given(st.lists(_step, min_size=1, max_size=8))
def test_push_pop_check_matches_from_scratch(steps):
    """Incremental verdicts equal one-shot verdicts on the active stack."""
    bounds = [ge(var("x"), -3), le(var("x"), 3), ge(var("y"), -3), le(var("y"), 3)]
    solver = LiaSolver()
    solver.add_assertion(conj(bounds))
    stack = [[conj(bounds)]]

    for step in steps:
        if step[0] == "push":
            solver.push()
            stack.append([])
        elif step[0] == "pop":
            if len(stack) == 1:
                continue
            solver.pop()
            stack.pop()
        else:
            formula = conj([_atom(spec) for spec in step[1]])
            solver.add_assertion(formula)
            stack[-1].append(formula)

        incremental = solver.check()
        active = conj([f for frame in stack for f in frame])
        reference = LiaSolver().check(active)
        assert incremental.status == reference.status, (
            f"incremental {incremental.status} != scratch {reference.status} "
            f"for {active!r}"
        )
        if incremental.status is LiaStatus.SAT:
            assert check_model(active, incremental.model)


def test_incremental_lemma_loop_keeps_state():
    """MBQI-style usage: assert once, add lemmas, re-check repeatedly."""
    x, y = var("x"), var("y")
    solver = LiaSolver()
    solver.add_assertion(conj([ge(x, 0), le(x, 10), ge(y, 0), le(y, 10)]))
    seen = set()
    for _round in range(12):
        result = solver.check()
        if result.status is not LiaStatus.SAT:
            break
        point = (result.model["x"], result.model["y"])
        assert point not in seen, "blocking lemma was not retained"
        seen.add(point)
        solver.add_assertion(ne(x, point[0]) | ne(y, point[1]))
    else:
        return  # still SAT after 12 rounds: fine, 121 points exist
    assert len(seen) >= 1


def test_pop_restores_satisfiability():
    x = var("x")
    solver = LiaSolver()
    solver.add_assertion(ge(x, 5))
    assert solver.check().status is LiaStatus.SAT
    solver.push()
    solver.add_assertion(le(x, 4))
    assert solver.check().status is LiaStatus.UNSAT
    solver.pop()
    result = solver.check()
    assert result.status is LiaStatus.SAT
    assert result.model["x"] >= 5


def test_scoped_check_formula_with_assertions():
    x = var("x")
    solver = LiaSolver()
    solver.add_assertion(ge(x, 0))
    assert solver.check(le(x, -1)).status is LiaStatus.UNSAT
    # the scoped formula must not leak into the stack
    assert solver.check().status is LiaStatus.SAT


def test_trivially_false_assertion_level():
    x = var("x")
    solver = LiaSolver()
    solver.add_assertion(ge(x, 0))
    solver.push()
    solver.add_assertion(conj([ge(x, 1), le(x, 0)]))
    assert solver.check().status is LiaStatus.UNSAT
    solver.pop()
    assert solver.check().status is LiaStatus.SAT


# ----------------------------------------------------------------------
# Watched-literal SAT engine
# ----------------------------------------------------------------------
def test_dpll_incremental_clause_addition():
    solver = DpllSolver(num_vars=3, clauses=[(1, 2), (-1, 3)])
    verdict, model = solver.solve()
    assert verdict == "sat"
    solver.add_clause((-2,))
    verdict, model = solver.solve()
    assert verdict == "sat"
    assert model[1] and not model[2] and model[3]
    solver.add_clause((-3,))
    verdict, _ = solver.solve()
    assert verdict == "unsat"


def test_dpll_remove_unit_restores_sat():
    solver = DpllSolver(num_vars=2, clauses=[(1, 2)])
    solver.add_clause((-1,))
    solver.add_clause((-2,))
    assert solver.solve()[0] == "unsat"
    solver.remove_unit(-2)
    verdict, model = solver.solve()
    assert verdict == "sat"
    assert model[2] and not model[1]


def test_dpll_learned_clauses_survive_restarts():
    calls = []

    def theory(true_atoms, final):
        if final and frozenset(true_atoms) == frozenset({1, 2}):
            calls.append(set(true_atoms))
            return (-1, -2)
        return None

    solver = DpllSolver(
        num_vars=2,
        clauses=[(1,), (2, -2)],
        theory_atoms={1, 2},
        theory_callback=theory,
    )
    assert solver.solve()[0] == "sat"
    first = len(calls)
    assert solver.solve()[0] == "sat"
    # the blocking clause was retained: the theory is not asked again
    assert len(calls) == first


# ----------------------------------------------------------------------
# Simplex push/pop
# ----------------------------------------------------------------------
def test_simplex_push_pop_bounds():
    simplex = Simplex()
    simplex.add_constraint(Constraint(LinExpr({"x": 1}, -10), "<=", tag="ub"))
    assert simplex.check().feasible
    simplex.push()
    simplex.add_constraint(Constraint(LinExpr({"x": 1}, -20), ">=", tag="lb"))
    assert not simplex.check().feasible
    simplex.pop()
    assert simplex.check().feasible
    # rows and the slack cache survive pops; bounds do not
    simplex.push()
    simplex.add_constraint(Constraint(LinExpr({"x": 1, "y": 1}, -5), ">=", tag="sum"))
    assert simplex.check().feasible
    simplex.pop()
    model = simplex.check().model
    assert model["x"] <= Fraction(10)


def test_simplex_prepare_assert_bound_roundtrip():
    simplex = Simplex()
    handle = simplex.prepare(Constraint(LinExpr({"x": 2, "y": 3}, -12), "<=", tag="c"))
    name, relation, value = handle
    simplex.push()
    simplex.assert_bound(name, relation, value, "c")
    assert simplex.check().feasible
    simplex.pop()
    # the same handle can be asserted again after a pop
    simplex.push()
    simplex.assert_bound(name, relation, value, "c")
    assert simplex.check().feasible
    simplex.pop()


def test_linear_forms_share_one_slack_up_to_scale_and_sign():
    simplex = Simplex()
    below = simplex.prepare(Constraint(LinExpr({"x": 1, "y": -1}, 1), "<=", tag="a"))
    above = simplex.prepare(Constraint(LinExpr({"x": -1, "y": 1}, 1), "<=", tag="b"))
    # x − y ≤ −1 and y − x ≤ −1, i.e. x − y ≥ 1: one slack, two sides
    assert below[0] == above[0] and below[1:] == ("<=", -1) and above[1:] == (">=", 1)
    doubled = simplex.prepare(Constraint(LinExpr({"x": -2, "y": 2}, 0), "==", tag="c"))
    assert doubled == (below[0], "==", 0)
    simplex.assert_bound(*below, "a")
    simplex.assert_bound(*above, "b")
    assert simplex.check().conflict == {"a", "b"}


def test_scaled_form_registers_its_primitive_row_with_an_exact_bound():
    simplex = Simplex()
    name, relation, value = simplex.prepare(
        Constraint(LinExpr({"x": 2, "y": 2}, -3), "<=", tag="c")
    )
    # 2x + 2y ≤ 3 is x + y ≤ 3/2: divided, not rounded
    assert (relation, value) == ("<=", Fraction(3, 2))
    assert simplex._slack_def[name] == (("x", 1), ("y", 1))
    assert simplex.prepare(Constraint(LinExpr({"x": 1, "y": 1}, -1), ">=", tag="d"))[0] == name
    # a non-integral coefficient keeps its form
    half = simplex.prepare(Constraint(LinExpr({"x": Fraction(1, 2), "y": 1}, 0), "<=", tag="e"))
    assert half[0] != name and half[1:] == ("<=", 0)


def _bound_axioms(solver):
    """The clauses of two negated theory atoms: before any check only the
    bound axioms have that shape (a Tseitin clause has a positive
    literal)."""
    atoms = solver.theory_atoms
    return {
        tuple(sorted(clause))
        for clause in solver.sat.clauses
        if len(clause) == 2 and all(lit < 0 and -lit in atoms for lit in clause)
    }


@pytest.mark.parametrize(
    "first,second,crossed",
    [
        (le(var("t"), 0), ge(var("t"), 1), True),
        (le(var("t"), 5), ge(var("t"), 1), False),
        (le(var("x") - var("y"), -1), le(var("y") - var("x"), -1), True),
        (le(var("x") - var("y"), -1), le(var("y") - var("x"), 1), False),
        (eq(var("x") + var("y"), 3), le(2 * var("x") + 2 * var("y"), 5), True),
        (eq(var("x") + var("y"), 3), ge(var("x") + var("y"), 3), False),
    ],
)
def test_crossing_bound_pair_gets_one_permanent_axiom(first, second, crossed):
    from repro.lia.nnf import to_nnf

    solver = LiaSolver()
    solver.add_assertion(disj([first, second]))
    solver.push()
    a, b = (solver.cnf.atom_var(to_nnf(atom)) for atom in (first, second))
    expected = {tuple(sorted((-a, -b)))} if crossed else set()
    assert _bound_axioms(solver) == expected
    # the axiom is a theory tautology: a pushed level's pop keeps it
    solver.add_assertion(le(var("t") + var("x"), 7))
    assert solver.check().status is LiaStatus.SAT
    solver.pop()
    assert expected <= {tuple(sorted(c)) for c in solver.sat.clauses}
    assert solver.check().status is LiaStatus.SAT


def test_support_pairs_reach_no_crossed_bound_conflict(monkeypatch):
    # Support literals ``#t ≤ 0 ∨ #t ≥ 1`` over a flow: the bound axioms
    # keep the search from asserting both sides of one pair, so the
    # theory never refutes a crossed pair on its own variable.
    ts = [var(f"t{i}") for i in range(8)]
    solver = LiaSolver()
    solver.add_assertion(
        conj(
            [disj([le(t, 0), ge(t, 1)]) for t in ts]
            + [ge(t, 0) for t in ts]
            + [eq(ts[i] - ts[i + 1] - ts[i + 2], 0) for i in range(0, 6, 2)]
            + [ge(sum(ts[1:], ts[0]), 3), le(ts[0] + ts[7], 2)]
        )
    )
    crossed = []
    real = Simplex._check_fixed_bounds

    def check_fixed_bounds(self):
        outcome = real(self)
        if self is solver.theory and outcome is not None:
            crossed.append(outcome.conflict)
        return outcome

    monkeypatch.setattr(Simplex, "_check_fixed_bounds", check_fixed_bounds)
    result = solver.check()
    assert result.status is LiaStatus.SAT
    assert solver.sat.stats.theory_checks > 0
    assert crossed == []


# ----------------------------------------------------------------------
# CNF builder caching
# ----------------------------------------------------------------------
def test_cnf_builder_caches_repeated_subformulae():
    x = var("x")
    shared = disj([le(x, 1), eq(x, 5)])
    builder = CnfBuilder()
    builder.add_formula(conj([shared, le(x, 7)]))
    clauses_before = len(builder.clauses)
    atoms_before = len(builder.atom_of_var)
    # encoding a formula containing the same sub-formula reuses its aux var
    builder.add_formula(conj([shared, le(x, 9)]))
    assert len(builder.atom_of_var) == atoms_before + 1  # only (x <= 9) is new
    assert builder.cache_hits > 0
    new_clauses = builder.clauses[clauses_before:]
    assert len(new_clauses) <= 3


def test_cnf_duplicate_clauses_are_dropped():
    x = var("x")
    atom = le(x, 3)
    formula = conj([disj([atom, eq(x, 9)]), disj([atom, eq(x, 9)])])
    builder = CnfBuilder()
    builder.add_formula(formula)
    assert len(builder.atom_of_var) == 2
    keys = {tuple(sorted(clause)) for clause in builder.clauses}
    assert len(keys) == len(builder.clauses)


# ----------------------------------------------------------------------
# Statistics plumbing
# ----------------------------------------------------------------------
def test_check_reports_per_check_stats():
    x = var("x")
    solver = LiaSolver()
    solver.add_assertion(conj([disj([eq(x, 1), eq(x, 5)]), ge(x, 2)]))
    first = solver.check()
    assert first.status is LiaStatus.SAT
    assert first.stats["theory_checks"] >= 1
    solver.add_assertion(ne(x, 5))
    second = solver.check()
    assert second.status is LiaStatus.UNSAT
    # stats are per-check deltas, not cumulative totals
    assert second.stats["restarts"] == 1


# ----------------------------------------------------------------------
# Theory bounds follow the SAT trail
# ----------------------------------------------------------------------
class _SyncAudit:
    """Checks the trail-synced theory state at every partial check.

    Wraps a solver's theory callback.  After each partial check, the
    persistent simplex must hold exactly the bound values of a fresh
    ``Simplex`` asserted with the current true atoms, its verdict must be
    that of ``check_rational_feasibility`` over them, and every conflict
    returned must be the simplex's own, rationally infeasible on a fresh
    simplex, and irreducible (partial checks are rational only).
    """

    def __init__(self, solver):
        self.solver = solver
        self.partial_checks = 0
        self.conflicts = 0
        #: partial checks after an integer-infeasible complete assignment
        #: flipped the decision phase
        self.negative_phase_checks = 0
        self.last = None
        callback, theory_check = solver._theory_callback, solver.theory.check

        def recording_check(*args, **kwargs):
            self.last = theory_check(*args, **kwargs)
            return self.last

        def audited(true_atoms, final):
            self.last = None
            atoms = set(true_atoms)
            clause = callback(true_atoms, final)
            if not final and atoms:
                self._audit(atoms, clause)
            return clause

        solver.theory.check = recording_check
        solver._theory_callback = audited

    def _audit(self, atoms, clause):
        from repro.lia.intsolver import check_rational_feasibility

        solver, theory = self.solver, self.solver.theory
        self.partial_checks += 1
        self.negative_phase_checks += solver.sat.negative_atom_phase
        fresh = Simplex()
        fresh_name = {}
        for atom in sorted(atoms):
            constraint = solver._atom_constraint[atom]
            fresh.add_constraint(constraint)
            fresh_name[solver._atom_handle[atom][0]] = fresh.prepare(constraint)[0]
        for name in theory._order:
            got = (theory._lower[name], theory._upper[name])
            if name in fresh_name:
                other = fresh_name[name]
                assert got == (fresh._lower[other], fresh._upper[other]), name
            else:
                assert got == (None, None), name
        constraints = [solver._atom_constraint[atom] for atom in sorted(atoms)]
        assert self.last.feasible == check_rational_feasibility(constraints).feasible
        if clause is None:
            return
        self.conflicts += 1
        core = self.last.conflict
        core_constraints = [solver._atom_constraint[atom] for atom in sorted(core)]
        # The simplex conflict is the clause, and it is irreducible:
        # infeasible, yet feasible without any one atom.
        assert not self.last.feasible
        assert {-lit for lit in clause} == set(core)
        assert not check_rational_feasibility(core_constraints).feasible
        for dropped in core:
            rest = [solver._atom_constraint[atom] for atom in sorted(core) if atom != dropped]
            assert check_rational_feasibility(rest).feasible, (sorted(core), dropped)


def _random_formula(rng, names, clauses):
    def atom():
        chosen = rng.sample(names, rng.randint(1, 3))
        lhs = sum((rng.choice([-3, -2, -1, 1, 2, 3]) * var(name) for name in chosen), LinExpr({}, 0))
        return rng.choice([le, ge, eq, ne])(lhs, rng.randint(-6, 6))

    bounds = [ge(var(name), -5) for name in names] + [le(var(name), 5) for name in names]
    return conj(bounds + [disj([atom() for _ in range(rng.randint(1, 3))]) for _ in range(clauses)])


def _audited(solver):
    return _SyncAudit(solver)


def test_trail_sync_matches_fresh_theory_one_shot():
    import random

    audits = []
    for seed in range(12):
        rng = random.Random(seed)
        formula = _random_formula(rng, ["x", "y", "z", "w"], clauses=8)
        solver = LiaSolver()
        solver.add_assertion(formula)
        audits.append(_audited(solver))
        assert solver.check().status == LiaSolver().check(formula).status
    assert sum(audit.partial_checks for audit in audits) > 0
    assert sum(audit.conflicts for audit in audits) > 0


def test_trail_sync_matches_fresh_theory_push_pop():
    import random

    audits = []
    for seed in range(8):
        rng = random.Random(100 + seed)
        names = ["x", "y", "z"]
        solver = LiaSolver()
        audits.append(_audited(solver))
        stack = [[]]
        for _ in range(10):
            step = rng.choice(["push", "pop", "assert", "assert"])
            if step == "push":
                solver.push()
                stack.append([])
            elif step == "pop" and len(stack) > 1:
                solver.pop()
                stack.pop()
            else:
                formula = _random_formula(rng, names, clauses=3)
                solver.add_assertion(formula)
                stack[-1].append(formula)
            result = solver.check()
            active = conj([formula for frame in stack for formula in frame])
            assert result.status == LiaSolver().check(active).status
    assert sum(audit.partial_checks for audit in audits) > 0
    assert sum(audit.conflicts for audit in audits) > 0


def test_trail_sync_matches_fresh_theory_under_assumptions():
    # Each round's extra formulas live in a pushed level that the round
    # pops again, so every check sees the base plus that round only.
    import random

    audits = []
    for seed in range(8):
        rng = random.Random(200 + seed)
        names = ["x", "y", "z"]
        base = _random_formula(rng, names, clauses=4)
        solver = LiaSolver()
        solver.add_assertion(base)
        audits.append(_audited(solver))
        for _round in range(4):
            extra = [_random_formula(rng, names, clauses=1) for _ in range(3)]
            solver.push()
            for formula in extra:
                solver.add_assertion(formula)
            result = solver.check()
            solver.pop()
            reference = LiaSolver().check(conj([base] + extra))
            assert result.status == reference.status
    assert sum(audit.partial_checks for audit in audits) > 0
    assert sum(audit.conflicts for audit in audits) > 0


def test_trail_sync_on_integer_sensitive_core():
    # The mod-3 core is rationally feasible and integer infeasible: the
    # first complete assignment fails the final integer check and flips the
    # decision phase (with a restart); the trail-synced partial checks must
    # stay exact through both.
    from test_lia_cuts import _COMM_MOD3_CORE
    from repro.lia.terms import Eq, Le

    atoms = [
        (Le if relation == "<=" else Eq)(LinExpr(coeffs, const))
        for coeffs, const, relation in _COMM_MOD3_CORE
    ]
    # Each choice keeps the core intact; the disjunctions only give the
    # search decisions to make after the phase flips.
    choices = [disj([atom, ge(var(f"c{k}"), 1)]) for k, atom in enumerate(atoms)]
    choices += [disj([le(var(f"c{k}"), 0), ge(var(f"c{k}"), 3)]) for k in range(len(atoms))]
    solver = LiaSolver()
    solver.add_assertion(conj(choices))
    audit = _audited(solver)
    solver.push()
    solver.add_assertion(conj(atoms))
    assert solver.check().status is LiaStatus.UNSAT
    solver.pop()
    assert solver.check().status is LiaStatus.SAT
    assert audit.negative_phase_checks > 0


# ----------------------------------------------------------------------
# Every theory clause is a fact of LIA
# ----------------------------------------------------------------------
class _ClauseAudit:
    """Checks each clause the theory callback returns on its own.

    A theory clause must hold whatever the assertion stack: the atoms it
    negates have no common integer solution.  A branch-and-bound give-up
    clause only blocks an assignment the integer check could not decide,
    so it is skipped.
    """

    def __init__(self, solver):
        self.checked = 0
        callback = solver._theory_callback

        def audited(true_atoms, final):
            give_ups = solver._give_ups
            clause = callback(true_atoms, final)
            if clause is not None and solver._give_ups == give_ups:
                from repro.lia.intsolver import check_integer_feasibility

                atoms = [solver._atom_constraint[-literal] for literal in clause]
                assert not check_integer_feasibility(atoms).feasible, clause
                self.checked += 1
            return clause

        solver._theory_callback = audited


def test_every_theory_clause_is_a_theory_fact():
    # Top-level atoms become root units, so the search forces them at the
    # root; a conflict core that left them out would hold only while their
    # level stays on the stack.
    import random

    audits = []
    for seed in range(8):
        rng = random.Random(300 + seed)
        names = ["x", "y", "z"]
        solver = LiaSolver()
        audits.append(_ClauseAudit(solver))
        stack = [[]]
        for _ in range(10):
            step = rng.choice(["push", "pop", "unit", "unit", "assert"])
            if step == "push":
                solver.push()
                stack.append([])
            elif step == "pop":
                if len(stack) > 1:
                    solver.pop()
                    stack.pop()
            else:
                if step == "unit":
                    a, b = rng.sample(names, 2)
                    lhs = rng.choice([-2, -1, 1, 2]) * var(a) + rng.choice([-1, 1]) * var(b)
                    formula = rng.choice([le, ge])(lhs, rng.randint(-4, 4))
                else:
                    formula = _random_formula(rng, names, clauses=3)
                solver.add_assertion(formula)
                stack[-1].append(formula)
            result = solver.check()
            active = conj([formula for frame in stack for formula in frame])
            assert result.status == LiaSolver().check(active).status
    assert sum(audit.checked for audit in audits) > 20
