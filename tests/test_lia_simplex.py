"""Tests for the exact rational simplex and the integer layer."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.lia import LinExpr
from repro.lia.intsolver import ResourceLimit, check_integer_feasibility
from repro.lia.simplex import Constraint, Simplex, SimplexResult, check_constraints


def expr(coeffs, const=0):
    return LinExpr(coeffs, const)


def test_simple_feasible_system():
    # x + y <= 4, x >= 1, y >= 2
    result = check_constraints(
        [
            Constraint(expr({"x": 1, "y": 1}, -4), "<="),
            Constraint(expr({"x": 1}, -1), ">="),
            Constraint(expr({"y": 1}, -2), ">="),
        ]
    )
    assert result.feasible
    model = result.model
    assert model["x"] + model["y"] <= 4
    assert model["x"] >= 1
    assert model["y"] >= 2


def test_simple_infeasible_system():
    # x >= 3 and x <= 1
    result = check_constraints(
        [
            Constraint(expr({"x": 1}, -3), ">=", tag="lo"),
            Constraint(expr({"x": 1}, -1), "<=", tag="hi"),
        ]
    )
    assert not result.feasible
    assert result.conflict == {"lo", "hi"}


def test_equalities():
    # x + y == 5, x - y == 1 -> x=3, y=2
    result = check_constraints(
        [
            Constraint(expr({"x": 1, "y": 1}, -5), "=="),
            Constraint(expr({"x": 1, "y": -1}, -1), "=="),
        ]
    )
    assert result.feasible
    assert result.model["x"] == Fraction(3)
    assert result.model["y"] == Fraction(2)


def test_infeasible_combination_of_rows():
    # x + y <= 1, x >= 1, y >= 1 is infeasible
    result = check_constraints(
        [
            Constraint(expr({"x": 1, "y": 1}, -1), "<=", tag=1),
            Constraint(expr({"x": 1}, -1), ">=", tag=2),
            Constraint(expr({"y": 1}, -1), ">=", tag=3),
        ]
    )
    assert not result.feasible
    assert result.conflict  # some explanation is produced


def test_negative_values_allowed():
    result = check_constraints([Constraint(expr({"x": 1}, 5), "<=")])  # x <= -5
    assert result.feasible
    assert result.model["x"] <= -5


def test_rational_vertex():
    # 2x <= 1, 2x >= 1 -> x = 1/2 over Q
    result = check_constraints(
        [
            Constraint(expr({"x": 2}, -1), "<="),
            Constraint(expr({"x": 2}, -1), ">="),
        ]
    )
    assert result.feasible
    assert result.model["x"] == Fraction(1, 2)


def test_integer_layer_rejects_fractional_only_solutions():
    # 2x == 1 has no integer solution
    outcome = check_integer_feasibility([Constraint(expr({"x": 2}, -1), "==")])
    assert not outcome.feasible


def test_integer_layer_finds_integral_point():
    # x + y == 4, x >= 1, y >= 1
    outcome = check_integer_feasibility(
        [
            Constraint(expr({"x": 1, "y": 1}, -4), "=="),
            Constraint(expr({"x": 1}, -1), ">="),
            Constraint(expr({"y": 1}, -1), ">="),
        ]
    )
    assert outcome.feasible
    assert outcome.model["x"] + outcome.model["y"] == 4


def test_integer_branching():
    # 2x + 2y == 6 and x >= y and y >= 1 -> x=2,y=1 (after branching on x=y=1.5)
    outcome = check_integer_feasibility(
        [
            Constraint(expr({"x": 2, "y": 2}, -6), "=="),
            Constraint(expr({"x": 1, "y": -1}), ">="),
            Constraint(expr({"y": 1}, -1), ">="),
        ]
    )
    assert outcome.feasible
    assert outcome.model["x"] + outcome.model["y"] == 3
    assert outcome.model["x"] >= outcome.model["y"] >= 1


def test_divisibility_conflicts_need_no_branching():
    # 2x = 1 is refuted by the gcd preprocessing even with a zero node budget.
    constraints = [Constraint(expr({"x": 2}, -1), "==")]
    outcome = check_integer_feasibility(constraints, max_nodes=0)
    assert not outcome.feasible


def test_node_limit_raises():
    # The Omega pre-pass decides this trivial system outright, so it is
    # disabled here to expose the branch-and-bound node budget.
    constraints = [Constraint(expr({"x": 1, "y": 1}, -1), ">=")]
    with pytest.raises(ResourceLimit):
        check_integer_feasibility(constraints, max_nodes=0, omega=False)


def test_gcd_tightening_of_inequalities():
    # 2x - 2y <= -1 and 2y - 2x <= 0 have rational but no integer solutions.
    outcome = check_integer_feasibility(
        [
            Constraint(expr({"x": 2, "y": -2}, 1), "<="),
            Constraint(expr({"x": -2, "y": 2}), "<="),
        ]
    )
    assert not outcome.feasible


def test_bound_implied_equality_enables_gcd_conflict():
    # g is forced to 1 by two inequalities; then 3x - 3y + 2g = 0 is a mod-3 conflict.
    outcome = check_integer_feasibility(
        [
            Constraint(expr({"g": 1}, -1), "<="),
            Constraint(expr({"g": 1}, -1), ">="),
            Constraint(expr({"x": 3, "y": -3, "g": 2}), "=="),
        ]
    )
    assert not outcome.feasible


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=-3, max_value=3),
            st.integers(min_value=-3, max_value=3),
            st.integers(min_value=-5, max_value=5),
            st.sampled_from(["<=", ">=", "=="]),
        ),
        min_size=1,
        max_size=5,
    )
)
def test_simplex_agrees_with_small_grid_search(rows):
    """The simplex verdict must agree with brute force over a small integer grid
    whenever brute force finds a solution (soundness of UNSAT over Q ⊇ Z)."""
    constraints = [
        Constraint(expr({"x": a, "y": b}, -c), rel)
        for a, b, c, rel in rows
        if a != 0 or b != 0
    ]
    if not constraints:
        return
    result = check_constraints(constraints)

    def holds(x, y):
        for a, b, c, rel in rows:
            if a == 0 and b == 0:
                continue
            value = a * x + b * y - c
            if rel == "<=" and not value <= 0:
                return False
            if rel == ">=" and not value >= 0:
                return False
            if rel == "==" and value != 0:
                return False
        return True

    grid_solution = any(holds(x, y) for x in range(-8, 9) for y in range(-8, 9))
    if grid_solution:
        assert result.feasible
    if result.feasible:
        # The rational model must satisfy every constraint exactly.
        model = result.model
        for a, b, c, rel in rows:
            if a == 0 and b == 0:
                continue
            value = a * model.get("x", 0) + b * model.get("y", 0) - c
            if rel == "<=":
                assert value <= 0
            elif rel == ">=":
                assert value >= 0
            else:
                assert value == 0


# ----------------------------------------------------------------------
# The delta check against the full scan it replaced
# ----------------------------------------------------------------------
class _FullScanSimplex(Simplex):
    """``Simplex`` with the full-scan ``check`` (the reference).

    Every check scans all variables for fixed-bound conflicts and non-basic
    repairs, and all basic variables on each Bland round; the candidate
    sets the real ``check`` keeps are ignored.
    """

    def check(self, max_pivots=100000, want_model=True):
        self._maybe_reset_basis()
        for name in self._order:
            low, up = self._lower[name], self._upper[name]
            if low is not None and up is not None and low > up:
                conflict = {self._lower_tag.get(name), self._upper_tag.get(name)}
                return SimplexResult(False, conflict={t for t in conflict if t is not None})
        for name in self._order:
            if name in self._basic:
                continue
            low, up = self._lower[name], self._upper[name]
            value = self._assignment[name]
            if low is not None and value < low:
                self._update_nonbasic(name, low)
            elif up is not None and value > up:
                self._update_nonbasic(name, up)
        for _ in range(max_pivots):
            violating = None
            for name in self._basic:
                if self._violates_lower(name) or self._violates_upper(name):
                    if violating is None or self._order[name] < self._order[violating]:
                        violating = name
            if violating is None:
                if not want_model:
                    return SimplexResult(True)
                return SimplexResult(True, model={n: self._assignment[n] for n in self._order})
            row = self._rows[violating]
            lower = self._violates_lower(violating)
            target = self._lower[violating] if lower else self._upper[violating]
            sign = 1 if lower else -1
            candidates = [
                name
                for name, coeff in row.items()
                if (sign * coeff > 0 and (self._upper[name] is None or self._assignment[name] < self._upper[name]))
                or (sign * coeff < 0 and (self._lower[name] is None or self._assignment[name] > self._lower[name]))
            ]
            if not candidates:
                return SimplexResult(False, conflict=self._conflict_for(violating, lower=lower))
            self._pivot_and_update(violating, min(candidates, key=self._order.__getitem__), target)
        raise RuntimeError("simplex exceeded the pivot limit")


class _Recorded:
    """Logs every pivot (leaving, entering, target) and every basis reset;
    raises ``KeyboardInterrupt`` at an armed pivot, before it happens."""

    def __init__(self, simplex):
        self.simplex = simplex
        self.pivots = []
        self.resets = 0
        self.interrupt_at = None
        pivot, reset = simplex._pivot_and_update, simplex._maybe_reset_basis

        def pivot_and_update(basic, nonbasic, target):
            if self.interrupt_at is not None and len(self.pivots) == self.interrupt_at:
                self.interrupt_at = None
                raise KeyboardInterrupt("armed pivot")
            self.pivots.append((basic, nonbasic, target))
            pivot(basic, nonbasic, target)

        def maybe_reset_basis():
            if simplex._nnz > max(2000, 4 * simplex._nnz_fresh):
                self.resets += 1
            reset()

        simplex._pivot_and_update = pivot_and_update
        simplex._maybe_reset_basis = maybe_reset_basis


def _random_pool(rng, num_vars, size, max_terms):
    names = [f"v{i}" for i in range(num_vars)]
    pool = []
    for index in range(size):
        chosen = rng.sample(names, rng.randint(1, max_terms))
        coeffs = {name: rng.choice([-3, -2, -1, 1, 2, 3]) for name in chosen}
        relation = rng.choice(["<=", ">=", "=="]) if len(chosen) > 1 else rng.choice(["<=", ">="])
        pool.append(Constraint(expr(coeffs, rng.randint(-6, 6)), relation, tag=index))
    return pool


def _replay_against_full_scan(seed, num_vars, size, max_terms, steps, interrupts=False):
    """Apply one seeded op sequence to both simplexes and compare every check.

    Returns the number of basis resets the sequence triggered."""
    import random

    rng = random.Random(seed)
    pool = _random_pool(rng, num_vars, size, max_terms)
    delta, full = _Recorded(Simplex()), _Recorded(_FullScanSimplex())
    handles = []
    depth = 0
    for _ in range(steps):
        op = rng.choices(
            ["add", "prepare", "assert", "push", "pop", "check"], weights=[4, 1, 3, 2, 2, 3]
        )[0]
        if op == "add":
            constraint = rng.choice(pool)
            for side in (delta, full):
                side.simplex.add_constraint(constraint)
        elif op == "prepare":
            constraint = rng.choice(pool)
            handle = delta.simplex.prepare(constraint)
            assert full.simplex.prepare(constraint) == handle
            handles.append((handle, constraint.tag))
        elif op == "assert" and handles:
            (name, relation, value), tag = rng.choice(handles)
            for side in (delta, full):
                side.simplex.assert_bound(name, relation, value, tag)
        elif op == "push":
            depth += 1
            for side in (delta, full):
                side.simplex.push()
        elif op == "pop" and depth:
            depth -= 1
            for side in (delta, full):
                side.simplex.pop()
        elif op == "check":
            want_model = rng.random() < 0.5
            if interrupts and rng.random() < 0.7:
                at = len(delta.pivots) + rng.randint(0, 1)
                delta.interrupt_at = full.interrupt_at = at
            outcomes = []
            for side in (delta, full):
                try:
                    outcomes.append(side.simplex.check(want_model=want_model))
                except KeyboardInterrupt:
                    outcomes.append("interrupted")
                side.interrupt_at = None
            got, expected = outcomes
            assert delta.pivots == full.pivots
            assert delta.simplex.pivots == full.simplex.pivots
            if expected == "interrupted":
                assert got == "interrupted"
                continue
            assert got.feasible == expected.feasible
            assert got.conflict == expected.conflict
            assert got.model == expected.model
    assert delta.resets == full.resets
    return delta.resets


@pytest.mark.parametrize("seed", range(40))
def test_delta_check_matches_full_scan(seed):
    _replay_against_full_scan(seed, num_vars=6, size=14, max_terms=3, steps=120)


@pytest.mark.parametrize("seed", range(10))
def test_delta_check_matches_full_scan_across_interrupts(seed):
    # A check interrupted before some pivot resumes on the next check with
    # every violation still known: the pivots stay the full scan's.
    _replay_against_full_scan(seed, num_vars=8, size=20, max_terms=4, steps=150, interrupts=True)


def test_delta_check_matches_full_scan_across_basis_resets():
    # Dense rows over many variables fill the tableau in until the basis
    # resets; the reset makes every variable a candidate again.
    resets = _replay_against_full_scan(2, num_vars=40, size=100, max_terms=15, steps=300)
    assert resets > 0


def test_fixed_bound_contradiction_survives_into_next_check():
    simplex, full = Simplex(), _FullScanSimplex()
    for side in (simplex, full):
        side.add_constraint(Constraint(expr({"x": 1, "y": 1}, -4), "<=", tag="sum"))
        assert side.check().feasible
        side.push()
        side.add_constraint(Constraint(expr({"y": 1}, -5), ">=", tag="y-lo"))
        side.add_constraint(Constraint(expr({"y": 1}, -3), "<=", tag="y-hi"))
    # The contradiction is reported again by a check that sees no new
    # bound, then gone once its scope is popped.
    for _ in range(2):
        got, expected = simplex.check(), full.check()
        assert not got.feasible and got.conflict == expected.conflict == {"y-lo", "y-hi"}
    simplex.pop()
    full.pop()
    got, expected = simplex.check(), full.check()
    assert got.feasible and expected.feasible and got.model == expected.model
