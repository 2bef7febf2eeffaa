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
    # The elimination over Z leaves this system to branch-and-cut, whose
    # node budget trips before the first relaxation.
    constraints = [Constraint(expr({"x": 1, "y": 1}, -1), ">=")]
    with pytest.raises(ResourceLimit):
        check_integer_feasibility(constraints, max_nodes=0)


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


# ----------------------------------------------------------------------
# Simplex conflicts are irreducible
# ----------------------------------------------------------------------
def _assert_irreducible(conflict, constraint_of):
    """The tagged constraints of ``conflict`` are infeasible on a fresh
    simplex, and feasible with any one of them left out."""
    tags = sorted(conflict)
    assert tags, "an infeasible check must name its constraints"
    assert not check_constraints([constraint_of[tag] for tag in tags]).feasible
    for dropped in tags:
        rest = [constraint_of[tag] for tag in tags if tag != dropped]
        assert check_constraints(rest).feasible, (tags, dropped)


def _irreducibility_replay(seed):
    """Checks every conflict of one seeded op sequence; returns the sizes
    of the conflicts seen."""
    import random

    rng = random.Random(seed)
    pool = _random_pool(rng, num_vars=6, size=16, max_terms=4)
    constraint_of = {constraint.tag: constraint for constraint in pool}
    simplex = Simplex()
    handles = []
    depth = 0
    sizes = []
    for _ in range(150):
        op = rng.choices(["prepare", "assert", "push", "pop", "check"], weights=[2, 5, 2, 2, 3])[0]
        if op == "prepare":
            constraint = rng.choice(pool)
            handles.append((simplex.prepare(constraint), constraint.tag))
        elif op == "assert" and handles:
            (name, relation, value), tag = rng.choice(handles)
            simplex.assert_bound(name, relation, value, tag)
        elif op == "push":
            depth += 1
            simplex.push()
        elif op == "pop" and depth:
            depth -= 1
            simplex.pop()
        elif op == "check":
            result = simplex.check(want_model=False)
            if not result.feasible:
                _assert_irreducible(result.conflict, constraint_of)
                sizes.append(len(result.conflict))
    return sizes


@pytest.mark.parametrize("seeds", [range(0, 20), range(20, 40)])
def test_simplex_conflicts_are_irreducible(seeds):
    sizes = [size for seed in seeds for size in _irreducibility_replay(seed)]
    # Row explanations (more than a crossed pair) are among them.
    assert max(sizes) > 2


# ----------------------------------------------------------------------
# The integer tableau against the rational rows it replaced
# ----------------------------------------------------------------------
class _RationalRowSimplex(Simplex):
    """``Simplex`` with rational tableau rows (the reference).

    Rows hold the coefficients themselves (``int`` or ``Fraction``) and
    every row denominator is 1, so the shared assignment updates divide by
    nothing and pivoting runs on ``Fraction`` arithmetic.
    """

    def _register(self, constraint):
        from repro.lia.simplex import _div, _norm

        expr = constraint.expr
        bound = _norm(-expr.const)
        for name in expr.coeffs:
            self._ensure_var(name)
        if len(expr.coeffs) == 1:
            ((name, coeff),) = expr.coeffs.items()
            coeff = _norm(coeff)
            relation = constraint.relation
            if coeff < 0 and relation in ("<=", ">="):
                relation = ">=" if relation == "<=" else "<="
            return name, relation, _div(bound, coeff)
        key = tuple(sorted((name, _norm(coeff)) for name, coeff in expr.coeffs.items()))
        slack = self._slack_cache.get(key)
        if slack is None:
            slack = self._fresh_slack()
            self._slack_cache[key] = slack
            self._slack_def[slack] = key
            self._ensure_var(slack)
            resolved = {}
            for name, coeff in key:
                if name in self._basic:
                    for inner_name, inner_coeff in self._rows[name].items():
                        resolved[inner_name] = resolved.get(inner_name, 0) + coeff * inner_coeff
                else:
                    resolved[name] = resolved.get(name, 0) + coeff
            resolved = {name: coeff for name, coeff in resolved.items() if coeff != 0}
            self._rows[slack], self._den[slack] = resolved, 1
            for name in resolved:
                self._cols.setdefault(name, set()).add(slack)
            self._basic.add(slack)
            self._nnz += len(resolved)
            self._nnz_fresh += len(key)
            self._assignment[slack] = sum(
                coeff * self._assignment[name] for name, coeff in resolved.items()
            )
        return slack, constraint.relation, bound

    def _pivot(self, basic, nonbasic):
        from repro.lia.simplex import _div

        self.pivots += 1
        row = self._rows.pop(basic)
        del self._den[basic]
        self._nnz -= len(row)
        for name in row:
            self._cols[name].discard(basic)
        self._basic.discard(basic)
        coeff = row[nonbasic]
        new_row = {basic: _div(1, coeff)}
        for name, a in row.items():
            if name != nonbasic:
                new_row[name] = _div(-a, coeff)
        self._rows[nonbasic], self._den[nonbasic] = new_row, 1
        self._nnz += len(new_row)
        for name in new_row:
            self._cols.setdefault(name, set()).add(nonbasic)
        self._basic.add(nonbasic)
        for other in list(self._cols.get(nonbasic, ())):
            other_row = self._rows[other]
            a = other_row.pop(nonbasic)
            self._cols[nonbasic].discard(other)
            self._nnz -= 1
            for name, b in new_row.items():
                updated = other_row.get(name, 0) + a * b
                if updated:
                    if name not in other_row:
                        self._cols.setdefault(name, set()).add(other)
                        self._nnz += 1
                    other_row[name] = updated
                elif name in other_row:
                    del other_row[name]
                    self._cols[name].discard(other)
                    self._nnz -= 1

    def _maybe_reset_basis(self):
        if self._nnz <= max(2000, 4 * self._nnz_fresh):
            return
        self._rows, self._den, self._cols, self._basic = {}, {}, {}, set()
        for name in self._assignment:
            self._assignment[name] = 0
        for key, slack in self._slack_cache.items():
            self._rows[slack], self._den[slack] = dict(key), 1
            for name, _coeff in key:
                self._cols.setdefault(name, set()).add(slack)
            self._basic.add(slack)
        self._nnz = self._nnz_fresh = sum(len(row) for row in self._rows.values())
        self._tightened = set(self._order)


class _PivotLog:
    """Logs the ``(basic, nonbasic)`` pair of every pivot and each reset."""

    def __init__(self, simplex):
        self.simplex = simplex
        self.pivots = []
        self.resets = 0
        pivot, reset = simplex._pivot, simplex._maybe_reset_basis

        def logged_pivot(basic, nonbasic):
            self.pivots.append((basic, nonbasic))
            pivot(basic, nonbasic)

        def logged_reset():
            self.resets += simplex._nnz > max(2000, 4 * simplex._nnz_fresh)
            reset()

        simplex._pivot, simplex._maybe_reset_basis = logged_pivot, logged_reset


def _assert_same_tableau(got, reference):
    from math import gcd

    assert got._basic == reference._basic
    assert got._rows.keys() == reference._rows.keys()
    for basic, row in got._rows.items():
        den = got._den[basic]
        assert den > 0 and gcd(den, *row.values()) == 1, (basic, row, den)
        assert all(isinstance(num, int) for num in row.values())
        assert {name: Fraction(num, den) for name, num in row.items()} == reference._rows[basic]
    assert {n: c for n, c in got._cols.items() if c} == {
        n: c for n, c in reference._cols.items() if c
    }
    assert got._nnz == reference._nnz
    assert got._assignment == reference._assignment


def _cut_keys(cuts):
    return [(cut.expr, cut.relation, cut.tag) for cut in cuts]


class _ReferencePair:
    """One op sequence applied to the integer tableau and the reference."""

    def __init__(self):
        self.got, self.reference = _PivotLog(Simplex()), _PivotLog(_RationalRowSimplex())
        self.cuts = 0

    def apply(self, method, *args):
        outcomes = [getattr(side.simplex, method)(*args) for side in (self.got, self.reference)]
        return outcomes[0]

    def check(self, want_model=True, cuts=False):
        got = self.got.simplex.check(want_model=want_model)
        expected = self.reference.simplex.check(want_model=want_model)
        assert self.got.pivots == self.reference.pivots
        assert got.feasible == expected.feasible
        assert got.conflict == expected.conflict
        assert got.model == expected.model
        _assert_same_tableau(self.got.simplex, self.reference.simplex)
        if cuts and got.feasible:
            got_cuts = self.got.simplex.gomory_cuts()
            assert _cut_keys(got_cuts) == _cut_keys(self.reference.simplex.gomory_cuts())
            self.cuts += len(got_cuts)
        return got


def _replay_against_rational_rows(seed, num_vars, size, max_terms, steps):
    import random

    rng = random.Random(seed)
    pool = _random_pool(rng, num_vars, size, max_terms)
    # Fractional coefficients give rows a denominator from the start.
    for constraint in pool[::3]:
        name = next(iter(constraint.expr.coeffs))
        coeffs = dict(constraint.expr.coeffs, **{name: Fraction(rng.choice([-3, -1, 1, 5]), 2)})
        constraint.expr = expr(coeffs, Fraction(rng.randint(-6, 6), 3))
    pair = _ReferencePair()
    handles = []
    depth = 0
    for _ in range(steps):
        op = rng.choices(
            ["add", "prepare", "assert", "push", "pop", "check"], weights=[4, 1, 3, 2, 2, 3]
        )[0]
        if op == "add":
            pair.apply("add_constraint", rng.choice(pool))
        elif op == "prepare":
            constraint = rng.choice(pool)
            handle = pair.apply("prepare", constraint)
            assert pair.reference.simplex.prepare(constraint) == handle
            handles.append((handle, constraint.tag))
        elif op == "assert" and handles:
            (name, relation, value), tag = rng.choice(handles)
            pair.apply("assert_bound", name, relation, value, tag)
        elif op == "push":
            depth += 1
            pair.apply("push")
        elif op == "pop" and depth:
            depth -= 1
            pair.apply("pop")
        elif op == "check":
            pair.check(want_model=rng.random() < 0.5, cuts=True)
    return pair


@pytest.mark.parametrize("seed", range(25))
def test_integer_tableau_matches_rational_rows(seed):
    pair = _replay_against_rational_rows(seed, num_vars=6, size=14, max_terms=3, steps=120)
    assert pair.got.pivots


def test_integer_tableau_matches_rational_rows_across_gomory_cuts():
    cuts = sum(
        _replay_against_rational_rows(seed, num_vars=5, size=12, max_terms=3, steps=100).cuts
        for seed in range(100, 110)
    )
    assert cuts > 0


def test_integer_tableau_matches_rational_rows_across_basis_resets():
    pair = _replay_against_rational_rows(2, num_vars=40, size=100, max_terms=15, steps=300)
    assert pair.got.resets == pair.reference.resets > 0


def test_integer_tableau_matches_rational_rows_on_surviving_crossed_bounds():
    pair = _ReferencePair()
    pair.apply("add_constraint", Constraint(expr({"x": 2, "y": 3}, -7), "<=", tag="sum"))
    pair.apply("add_constraint", Constraint(expr({"x": 1, "y": -2}, -1), ">=", tag="diff"))
    assert pair.check(cuts=True).feasible
    pair.apply("push")
    pair.apply("add_constraint", Constraint(expr({"y": 3}, -5), ">=", tag="y-lo"))
    pair.apply("add_constraint", Constraint(expr({"y": 2}, -1), "<=", tag="y-hi"))
    for _ in range(2):
        assert pair.check().conflict == {"y-lo", "y-hi"}
    pair.apply("pop")
    assert pair.check(cuts=True).feasible
    assert pair.got.pivots
