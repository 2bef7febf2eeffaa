"""Tests for the DPLL(T) LIA solver facade."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.budget import Budget, BudgetExceeded, UnknownKind
from repro.lia import (
    LinExpr,
    LiaSolver,
    LiaStatus,
    check_model,
    conj,
    disj,
    eq,
    evaluate,
    ge,
    gt,
    implies,
    le,
    lt,
    ne,
    neg,
    var,
)
from repro.lia.cnf import CnfBuilder
from repro.lia.intsolver import check_integer_feasibility
from repro.lia.nnf import to_nnf
from repro.lia.sat import DpllSolver
from repro.lia.simplex import Constraint


def solve(formula):
    return LiaSolver().check(formula)


def test_simple_sat_conjunction():
    x, y = var("x"), var("y")
    result = solve(conj([le(x + y, 10), ge(x, 3), ge(y, 4)]))
    assert result.status is LiaStatus.SAT
    model = result.model
    assert model["x"] >= 3 and model["y"] >= 4 and model["x"] + model["y"] <= 10


def test_simple_unsat_conjunction():
    x = var("x")
    result = solve(conj([ge(x, 5), le(x, 4)]))
    assert result.status is LiaStatus.UNSAT


def test_disjunction_requires_search():
    x, y = var("x"), var("y")
    formula = conj(
        [
            disj([eq(x, 1), eq(x, 5)]),
            disj([eq(y, 2), eq(y, 7)]),
            eq(x + y, 12),
        ]
    )
    result = solve(formula)
    assert result.status is LiaStatus.SAT
    assert (result.model["x"], result.model["y"]) == (5, 7)


def test_unsat_disjunction():
    x = var("x")
    formula = conj([disj([eq(x, 1), eq(x, 2)]), ge(x, 3)])
    assert solve(formula).status is LiaStatus.UNSAT


def test_negation_and_implication():
    x, y = var("x"), var("y")
    formula = conj([implies(gt(x, 0), gt(y, 10)), eq(x, 3), le(y, 20)])
    result = solve(formula)
    assert result.status is LiaStatus.SAT
    assert result.model["y"] > 10


def test_not_equal_atoms():
    x, y = var("x"), var("y")
    formula = conj([ne(x, y), ge(x, 0), le(x, 1), ge(y, 0), le(y, 1)])
    result = solve(formula)
    assert result.status is LiaStatus.SAT
    assert result.model["x"] != result.model["y"]


def test_integrality_makes_formula_unsat():
    x = var("x")
    # 2x = 7 has a rational but no integer solution.
    assert solve(eq(2 * x, 7)).status is LiaStatus.UNSAT


def test_models_are_checked_against_formula():
    x, y, z = var("x"), var("y"), var("z")
    formula = conj(
        [
            disj([lt(x, y), lt(y, x)]),
            eq(x + y + z, 7),
            ge(z, 2),
            neg(eq(z, 3)),
        ]
    )
    result = solve(formula)
    assert result.status is LiaStatus.SAT
    assert check_model(formula, result.model)


def test_nnf_eliminates_negations():
    x = var("x")
    formula = neg(conj([le(x, 3), neg(eq(x, 1))]))
    nnf = to_nnf(formula)
    # NNF must not contain Not nodes.
    from repro.lia import Not

    def has_not(node):
        if isinstance(node, Not):
            return True
        args = getattr(node, "args", ())
        return any(has_not(a) for a in args)

    assert not has_not(nnf)
    # Equivalence spot-check on a few points.
    for value in (-1, 0, 1, 2, 3, 4, 5):
        assert evaluate(formula, {"x": value}) == evaluate(nnf, {"x": value})


def test_cnf_counts_atoms_once():
    x = var("x")
    atom = le(x, 3)
    builder = CnfBuilder()
    builder.add_formula(conj([disj([atom, eq(x, 9)]), atom]))
    assert len(builder.atom_of_var) == 2


def test_timeout_returns_unknown_or_finishes(tmp_path):
    x = var("x")
    clauses = [disj([eq(x, i), ne(x, i)]) for i in range(5)]
    result = LiaSolver().check(conj(clauses), budget=Budget(10.0))
    assert result.status in (LiaStatus.SAT, LiaStatus.UNKNOWN)


def test_an_exhausted_one_shot_check_raises_and_pops():
    # check(formula) scopes the formula in an implicit push/pop: a caller's
    # budget that runs out raises, and the pop still restores the stack.
    x, y = var("x"), var("y")
    formula = conj([disj([eq(x + y, i), eq(x - y, i)]) for i in range(6)])
    solver = LiaSolver()
    solver.add_assertion(ge(x, 0))
    with pytest.raises(BudgetExceeded) as caught:
        solver.check(formula, budget=Budget(None, max_steps=1))
    assert caught.value.reason.kind is UnknownKind.STEP_LIMIT
    assert solver.check().is_sat
    assert solver.check(formula).is_unsat


def test_the_ambient_budget_reaches_the_sat_search():
    # No budget is handed to the search: it checkpoints the ambient one.
    chain = DpllSolver(num_vars=30, clauses=[(i, i + 1) for i in range(1, 30)])
    with pytest.raises(BudgetExceeded) as caught:
        with Budget(None, max_steps=3).activate():
            chain.solve()
    assert caught.value.reason.stage == "lia.sat"


def test_the_ambient_budget_reaches_branch_and_cut():
    # 1 <= 2x <= 5: the root vertex x = 1/2 is fractional, and the
    # presolve finds no equality, so the first checkpoint is the search's.
    constraints = [
        Constraint(LinExpr({"x": 2}, -1), ">="),
        Constraint(LinExpr({"x": 2}, -5), "<="),
    ]
    assert check_integer_feasibility(constraints).feasible
    with pytest.raises(BudgetExceeded) as caught:
        with Budget(None, max_steps=0).activate():
            check_integer_feasibility(constraints)
    assert caught.value.reason.stage in ("lia.intsolver", "lia.simplex")


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=-2, max_value=2),
            st.integers(min_value=-2, max_value=2),
            st.integers(min_value=-4, max_value=4),
            st.sampled_from(["<=", ">=", "==", "!="]),
        ),
        min_size=1,
        max_size=4,
    )
)
def test_solver_agrees_with_grid_oracle(rows):
    """Property: the DPLL(T) verdict matches brute force over a small grid."""
    x, y = var("x"), var("y")
    atoms = []
    for a, b, c, rel in rows:
        lhs = a * x + b * y
        if rel == "<=":
            atoms.append(le(lhs, c))
        elif rel == ">=":
            atoms.append(ge(lhs, c))
        elif rel == "==":
            atoms.append(eq(lhs, c))
        else:
            atoms.append(ne(lhs, c))
    # Bound the search space so the grid oracle is exact.
    atoms.extend([ge(x, -3), le(x, 3), ge(y, -3), le(y, 3)])
    formula = conj(atoms)
    result = solve(formula)

    def holds(vx, vy):
        return evaluate(formula, {"x": vx, "y": vy})

    oracle = any(holds(vx, vy) for vx in range(-3, 4) for vy in range(-3, 4))
    assert result.status is not LiaStatus.UNKNOWN
    assert result.is_sat == oracle
    if result.is_sat:
        assert check_model(formula, result.model)


def test_finished_check_frees_its_lia_context(monkeypatch):
    # A dropped LIA solver (clauses, simplex, constraints) must be freed by
    # reference counting, not left for the cyclic collector: the SAT engine
    # holds the theory callback only while the solver is checking.
    import gc
    import weakref

    from repro import Contains, LengthConstraint, PositionSolver, RegexMembership, Status
    from repro import str_len, term
    from repro.lia import solver as solver_module
    from repro.strings.ast import Problem

    contexts = []
    original_init = solver_module.LiaSolver.__init__

    def recording_init(self):
        original_init(self)
        contexts.append(weakref.ref(self))

    monkeypatch.setattr(solver_module.LiaSolver, "__init__", recording_init)
    problem = Problem(alphabet=("a", "b", "c"))
    for name in ("x0", "x1", "x2"):
        problem.add(RegexMembership(name, "a*"))
    problem.add(Contains(term("x1"), term("x0"), positive=False))
    problem.add(Contains(term("x2"), term("x1"), positive=False))
    problem.add(LengthConstraint(ge(str_len("x0"), 2)))
    gc.collect()
    gc.disable()
    try:
        result = PositionSolver().check(problem)
        assert result.status is Status.SAT
        assert contexts, "the check never reached the LIA layer"
        assert all(ref() is None for ref in contexts)
        assert LiaSolver().check(conj([ge(var("x"), 1), le(var("x"), 3)])).is_sat
        assert all(ref() is None for ref in contexts)
    finally:
        gc.enable()
