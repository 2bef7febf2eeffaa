"""Tests for the cutting-plane layer and the final integer check.

Two properties are load-bearing for soundness and are checked here against
brute-force integer enumeration:

* **validity** — a Gomory cut never excludes an integer point that
  satisfies the source constraints, and :func:`check_integer_feasibility`
  agrees with enumeration on random bounded systems, and
* **provenance** — conflict cores built from cuts, eliminations and gcd
  tightening name only the original constraints that actually contributed
  to the refutation.
"""

import itertools
import random

from repro.lia import LinExpr
from repro.lia.intsolver import (
    ResourceLimit,
    _fractional_variable,
    _implied_equalities,
    _presolve_and_search,
    check_integer_feasibility,
    check_rational_feasibility,
)
from repro.lia.simplex import Constraint, Simplex


def expr(coeffs, const=0):
    return LinExpr(coeffs, const)


def _holds(constraint, point):
    value = constraint.expr.const + sum(
        coeff * point[name] for name, coeff in constraint.expr.coeffs.items()
    )
    if constraint.relation == "<=":
        return value <= 0
    if constraint.relation == ">=":
        return value >= 0
    return value == 0


def _integer_points(variables, radius):
    for values in itertools.product(range(-radius, radius + 1), repeat=len(variables)):
        yield dict(zip(variables, values))


def _random_system(rng, num_vars=3, num_constraints=5, radius=3, eq_share=None):
    """A random bounded system: box bounds plus random inequalities.

    ``eq_share`` (default: one row in three) is the share of ``==`` rows;
    when given, each equality is also scaled by 1, 2 or 3, so both unit
    pivots and gcd tests occur.
    """
    variables = [f"x{i}" for i in range(num_vars)]
    constraints = []
    for index, name in enumerate(variables):
        constraints.append(Constraint(expr({name: 1}, -radius), "<=", tag=f"box-hi-{index}"))
        constraints.append(Constraint(expr({name: 1}, radius), ">=", tag=f"box-lo-{index}"))
    for index in range(num_constraints):
        coeffs = {name: rng.randint(-3, 3) for name in rng.sample(variables, rng.randint(1, num_vars))}
        coeffs = {name: coeff for name, coeff in coeffs.items() if coeff}
        if not coeffs:
            continue
        if eq_share is None:
            relation = rng.choice(["<=", ">=", "=="])
        elif rng.random() < eq_share:
            relation = "=="
            scale = rng.choice((1, 2, 3))
            coeffs = {name: coeff * scale for name, coeff in coeffs.items()}
        else:
            relation = rng.choice(["<=", ">="])
        constraints.append(
            Constraint(expr(coeffs, rng.randint(-4, 4)), relation, tag=f"c{index}")
        )
    return variables, constraints


# ----------------------------------------------------------------------
# Gomory cut validity
# ----------------------------------------------------------------------
def test_gomory_cuts_never_cut_off_integer_points():
    rng = random.Random(20250729)
    radius = 3
    checked_cuts = 0
    for _ in range(60):
        variables, constraints = _random_system(rng, radius=radius)
        simplex = Simplex()
        for constraint in constraints:
            simplex.add_constraint(constraint)
        result = simplex.check()
        if not result.feasible:
            continue
        cuts = simplex.gomory_cuts()
        if not cuts:
            continue
        solutions = [
            point
            for point in _integer_points(variables, radius)
            if all(_holds(c, point) for c in constraints)
        ]
        for cut in cuts:
            checked_cuts += 1
            for point in solutions:
                assert _holds(cut, point), (
                    f"cut {cut.expr} >= 0 excludes integer solution {point}"
                )
    assert checked_cuts >= 5, "the random systems produced too few cuts to be meaningful"


def test_gomory_cut_is_violated_by_the_fractional_vertex():
    # x + 2y >= 1, x + 2y <= 1 with x, y >= 0: the vertex has y = 1/2.
    simplex = Simplex()
    for constraint in (
        Constraint(expr({"x": 1, "y": 2}, -1), "==", tag="eq"),
        Constraint(expr({"x": 3, "y": 2}, -2), "==", tag="eq2"),
    ):
        simplex.add_constraint(constraint)
    result = simplex.check()
    assert result.feasible
    cuts = simplex.gomory_cuts()
    assert cuts, "a fractional basic variable must produce a cut"
    for cut in cuts:
        value = cut.expr.const + sum(
            coeff * result.model[name] for name, coeff in cut.expr.coeffs.items()
        )
        assert value < 0, "a Gomory cut must cut off the current fractional vertex"


def test_gomory_cut_tags_are_subsets_of_source_tags():
    rng = random.Random(7)
    for _ in range(40):
        _variables, constraints = _random_system(rng)
        source_tags = {c.tag for c in constraints}
        simplex = Simplex()
        for constraint in constraints:
            simplex.add_constraint(constraint)
        if not simplex.check().feasible:
            continue
        for cut in simplex.gomory_cuts():
            assert isinstance(cut.tag, frozenset)
            assert cut.tag <= source_tags


def test_gomory_cuts_ignore_unrelated_constraints():
    # z's bounds never appear in a fractional row over x/y, so no cut may
    # carry the unrelated tag (that would poison later conflict cores).
    simplex = Simplex()
    for constraint in (
        Constraint(expr({"x": 1, "y": 2}, -1), "==", tag="eq"),
        Constraint(expr({"x": 3, "y": 2}, -2), "==", tag="eq2"),
        Constraint(expr({"z": 1}, -5), ">=", tag="unrelated"),
    ):
        simplex.add_constraint(constraint)
    assert simplex.check().feasible
    cuts = simplex.gomory_cuts()
    assert cuts
    for cut in cuts:
        assert "unrelated" not in cut.tag


def test_divisibility_refutation_tags_name_contributors_only():
    # 2x >= 1 and 2x <= 1: gcd tightening turns the pair into x >= 1 and
    # x <= 0 — a pure-inequality divisibility conflict with no equalities
    # for the elimination to work with.
    constraints = [
        Constraint(expr({"x": 2}, -1), ">=", tag="lo"),
        Constraint(expr({"x": 2}, -1), "<=", tag="hi"),
        Constraint(expr({"z": 1}, -7), "<=", tag="unrelated"),
    ]
    outcome = check_integer_feasibility(constraints)
    assert not outcome.feasible
    assert outcome.conflict == {"lo", "hi"}


# ----------------------------------------------------------------------
# The commuting-disequality mod-3 core (the PR's headline regression)
# ----------------------------------------------------------------------
#: minimal unsatisfiable core extracted from ``position-hard-comm-0``: a
#: pure-inequality/equality mod-3 conflict whose rational relaxation is
#: feasible and on which plain branch-and-bound diverges
_COMM_MOD3_CORE = [
    ({"v0": -1, "v1": -1, "v2": -1, "v3": 1, "v4": -1, "v5": -1}, 0, "<="),
    ({"v0": 1, "v4": 1, "v5": 1, "v1": 1, "v6": 1, "v2": 1}, -1, "<="),
    ({"v7": 1, "v8": -1, "v9": 1, "v10": 1, "v6": -1, "v2": -1, "v11": -1}, 0, "<="),
    ({"v8": 1, "v11": 1, "v12": 1, "v10": -1, "v13": -1, "v14": 1, "v5": -1, "v1": -1, "v15": -1}, 0, "<="),
    ({"v16": -1}, 0, "<="),
    ({"v17": 1, "v3": -1, "v18": -1}, 0, "<="),
    ({"v18": 1, "v1": 1, "v2": 1, "v19": -1}, 0, "<="),
    ({"v1": -1}, 0, "<="),
    ({"v0": -1, "v20": 1, "v21": 1, "v1": -1, "v2": -1, "v19": 1, "v22": -1, "v17": -1, "v3": 1}, 0, "=="),
    ({"v0": 1}, 0, "=="),
    ({"v20": 1, "v23": -1, "v21": 1, "v18": -1, "v1": -1, "v2": -1, "v19": 1}, 0, "=="),
    ({"v20": 1}, 0, "=="),
    ({"v24": -1, "v5": -1, "v1": -1, "v6": -1, "v2": -1}, 1, "=="),
    ({"v24": 1}, 0, "=="),
    ({"v15": 1, "v16": 1, "v12": -1, "v14": -1, "v7": -1, "v13": 1, "v9": -1}, 1, "<="),
    ({"v19": 1, "v17": -1}, 1, "<="),
    ({"v10": -1, "v6": 1, "v2": 1}, 0, "=="),
    ({"v10": 1}, 0, "=="),
    ({"v25": 3, "v7": -1, "v8": -1, "v12": -2, "v14": -2, "v13": 2, "v9": -1, "v10": 1, "v5": 2, "v1": 3, "v6": 1, "v2": 2, "v11": -1, "v15": 2, "v22": -1, "v23": -1, "v3": -1, "v21": -1}, 0, "=="),
]


def _comm_core_constraints(extra=()):
    constraints = [
        Constraint(expr(coeffs, const), relation, tag=f"core-{index}")
        for index, (coeffs, const, relation) in enumerate(_COMM_MOD3_CORE)
    ]
    constraints.extend(extra)
    return constraints


def test_commuting_mod3_core_is_refuted_by_cuts():
    outcome = check_integer_feasibility(_comm_core_constraints(), max_nodes=200)
    assert not outcome.feasible


def test_cut_conflict_core_names_only_contributing_assertions():
    extra = [
        Constraint(expr({"w0": 1}, -9), "<=", tag="bystander-0"),
        Constraint(expr({"w1": 1, "w0": 1}, 3), ">=", tag="bystander-1"),
    ]
    outcome = check_integer_feasibility(_comm_core_constraints(extra), max_nodes=200)
    assert not outcome.feasible
    assert outcome.conflict
    assert all(isinstance(tag, str) and tag.startswith("core-") for tag in outcome.conflict)


def _bruteforce_input_sets():
    """``(radius, systems)`` pairs for the brute-force comparison.

    The first set is mostly equalities, so the elimination's provenance
    tags carry many of the conflict cores; the second is the default draw
    (one row in three an equality) over a wider box, where branch-and-cut
    decides more of the systems.
    """
    rng = random.Random(99)
    yield 2, [
        _random_system(rng, num_vars=3, num_constraints=4, radius=2, eq_share=0.6)
        for _ in range(40)
    ]
    rng = random.Random(42)
    yield 3, [_random_system(rng, radius=3) for _ in range(120)]


def _assert_answer(outcome, constraints, points):
    """A sat model satisfies ``constraints``; an unsat core has no point."""
    if outcome.feasible:
        assert all(_holds(c, outcome.model) for c in constraints)
        return
    core = [c for c in constraints if c.tag in outcome.conflict]
    assert not any(all(_holds(c, point) for c in core) for point in points), (
        f"core {sorted(outcome.conflict)} is satisfiable"
    )


def test_integer_feasibility_matches_bruteforce_on_random_systems():
    # Every sat model must satisfy the input, and every unsat core must
    # itself be infeasible.
    for radius, systems in _bruteforce_input_sets():
        sat = unsat = 0
        for variables, constraints in systems:
            try:
                outcome = check_integer_feasibility(constraints, max_nodes=2000)
            except ResourceLimit:
                continue
            points = list(_integer_points(variables, radius))
            has_solution = any(all(_holds(c, point) for c in constraints) for point in points)
            assert outcome.feasible == has_solution
            _assert_answer(outcome, constraints, points)
            sat += outcome.feasible
            unsat += not outcome.feasible
        assert unsat >= 10 and sat >= 3, (radius, sat, unsat)


def test_integral_root_agrees_with_presolve_path_and_bruteforce():
    # Whether the root vertex answers a system (integral or infeasible) or
    # hands it on (fractional), the verdict is that of the presolve and
    # search alone and of enumeration.
    root_answers = handed_on = 0
    for radius, systems in _bruteforce_input_sets():
        for variables, constraints in systems:
            try:
                outcome = check_integer_feasibility(constraints, max_nodes=2000)
                reference = _presolve_and_search(constraints, 2000)
            except ResourceLimit:
                continue
            points = list(_integer_points(variables, radius))
            has_solution = any(all(_holds(c, point) for c in constraints) for point in points)
            assert outcome.feasible == reference.feasible == has_solution
            _assert_answer(outcome, constraints, points)
            root = check_rational_feasibility(constraints)
            if not root.feasible or _fractional_variable(root.model) is None:
                root_answers += 1
            else:
                handed_on += 1
    assert root_answers >= 20 and handed_on >= 20, (root_answers, handed_on)


def test_implied_equalities_union_int_tags_as_sets():
    # Raw int tags: 1 | 2 would be the unrelated tag 3, 4 | 8 would be 12.
    constraints = [
        Constraint(expr({"x": 1, "y": 1}, -3), "<=", tag=1),
        Constraint(expr({"x": -1, "y": -1}, 3), "<=", tag=2),
        Constraint(expr({"z": 1}, -2), "<=", tag=4),
        Constraint(expr({"z": -1}, 2), "<=", tag=8),
    ]
    implied, conflict = _implied_equalities(constraints)
    assert not conflict
    assert sorted(sorted(c.tag) for c in implied) == [[1, 2], [4, 8]]
    assert all(c.relation == "==" for c in implied)
    crossed = [
        Constraint(expr({"z": 1}, -1), "<=", tag=1),
        Constraint(expr({"z": -1}, 2), "<=", tag=2),
    ]
    implied, conflict = _implied_equalities(crossed)
    assert implied is None and conflict == {1, 2}
