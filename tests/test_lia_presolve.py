"""Differential test of the occurrence-indexed presolve (:mod:`repro.lia.simplify`).

:func:`eliminate_equalities` substitutes only into the conjuncts that mention
the eliminated variable and re-queues only rewritten equalities.  It must
make exactly the choices of the straightforward algorithm kept below as the
reference — rescan from the first conjunct after every elimination and
rewrite every conjunct — down to each ``LinExpr``'s coefficient order, which
``_isolate`` and the later encoding stages read.  Both divide each equality
by its coefficients' gcd before isolating (one the gcd test refutes is kept
as it is, for the theory to refute), and both stop with ``false`` at a
rewrite that folds to ``false``.
"""

import math
import random

from repro.lia.simplify import _isolate, complete_model, eliminate_equalities
from repro.lia.terms import (
    And,
    BoolConst,
    Eq,
    Le,
    LinExpr,
    Not,
    Or,
    conj,
    evaluate,
    substitute,
)


def _normalised(expr):
    """``expr = 0`` divided by its coefficients' gcd; ``None`` when the gcd
    does not divide the constant (no integer solution)."""
    divisor = math.gcd(*expr.coeffs.values())
    if divisor <= 1:
        return expr
    if expr.const % divisor:
        return None
    return LinExpr({name: c // divisor for name, c in expr.coeffs.items()}, expr.const // divisor)


def _reference_eliminate(formula, protected=None):
    """The quadratic restart-from-zero elimination loop."""
    protected = set(protected or ())
    eliminated = []
    if not isinstance(formula, And):
        return formula, eliminated
    conjuncts = list(formula.args)
    changed = True
    while changed:
        changed = False
        for index, conjunct in enumerate(conjuncts):
            if not isinstance(conjunct, Eq):
                continue
            expr = _normalised(conjunct.expr)
            if expr is None:
                continue
            if expr is not conjunct.expr:
                conjuncts[index] = Eq(expr)
            isolated = _isolate(expr, protected)
            if isolated is None:
                continue
            name, definition = isolated
            mapping = {name: definition}
            eliminated.append((name, definition))
            new_conjuncts = []
            for position, other in enumerate(conjuncts):
                if position == index:
                    continue
                replaced = substitute(other, mapping)
                if isinstance(replaced, BoolConst):
                    if not replaced.value:
                        return replaced, eliminated
                    continue
                new_conjuncts.append(replaced)
            conjuncts = new_conjuncts
            changed = True
            break
    return conj(conjuncts), eliminated


def _shape(node):
    """A structural key that keeps coefficient order (``==`` on LinExpr does not)."""
    if isinstance(node, LinExpr):
        return ("lin", tuple(node.coeffs.items()), node.const)
    if isinstance(node, (Le, Eq)):
        return (type(node).__name__, _shape(node.expr))
    if isinstance(node, (And, Or)):
        return (type(node).__name__, tuple(_shape(arg) for arg in node.args))
    if isinstance(node, Not):
        return ("Not", _shape(node.arg))
    if isinstance(node, BoolConst):
        return ("const", node.value)
    raise TypeError(node)


def _assert_same(formula, protected=None):
    expected, expected_defs = _reference_eliminate(formula, protected)
    reduced, defs = eliminate_equalities(formula, protected)
    assert _shape(reduced) == _shape(expected)
    assert [(name, _shape(d)) for name, d in defs] == [
        (name, _shape(d)) for name, d in expected_defs
    ]
    return reduced, defs


def _random_expr(rng, names, allow_constant=False):
    size = rng.randint(0 if allow_constant else 1, 4)
    coeffs = {}
    for name in rng.sample(names, min(size, len(names))):
        coeffs[name] = rng.choice((1, 1, -1, -1, 2, -3))
    return LinExpr(coeffs, rng.randint(-3, 3))


def _random_atom(rng, names):
    expr = _random_expr(rng, names, allow_constant=rng.random() < 0.05)
    return Eq(expr) if rng.random() < 0.6 else Le(expr)


def _random_conjunct(rng, names):
    roll = rng.random()
    if roll < 0.75:
        return _random_atom(rng, names)
    if roll < 0.88:
        return Or(tuple(_random_atom(rng, names) for _ in range(rng.randint(2, 3))))
    if roll < 0.94:
        # Nested connectives fold on the first rewrite: a double negation
        # becomes a plain atom, a nested conjunction stays one conjunct.
        return Not(Not(_random_atom(rng, names)))
    return And(tuple(_random_atom(rng, names) for _ in range(2)))


def test_random_conjunctions_match_the_reference():
    rng = random.Random(12)
    eliminations = 0
    for _ in range(400):
        names = [f"v{i}" for i in range(rng.randint(2, 12))]
        formula = And(
            tuple(_random_conjunct(rng, names) for _ in range(rng.randint(2, 14)))
        )
        protected = set(rng.sample(names, rng.randint(0, len(names) // 2)))
        reduced, defs = _assert_same(formula, protected)
        eliminations += len(defs)
        assert not protected.intersection(name for name, _ in defs)
        # Every model of the reduced formula extends to one of the input.
        assignment = {name: rng.randint(-4, 4) for name in names}
        model = complete_model(assignment, defs)
        if evaluate(reduced, {n: model.get(n, 0) for n in names}):
            assert evaluate(formula, {n: model.get(n, 0) for n in names})
    assert eliminations > 400


def test_defining_chain_matches_the_reference():
    # The chain that made the old loop quadratic: x_i = x_{i+1} + 1, listed
    # back to front, so every elimination rewrites the whole remaining chain
    # in the reference and only one neighbour here.
    n = 150
    conjuncts = [
        Eq(LinExpr({f"x{i}": 1, f"x{i + 1}": -1}, -1)) for i in reversed(range(n))
    ]
    conjuncts.append(Le(LinExpr({"x0": 1}, -10 * n)))
    conjuncts.append(Le(LinExpr({f"x{n}": -1}, 0)))
    formula = And(tuple(conjuncts))
    reduced, defs = _assert_same(formula)
    assert len(defs) == n
    _assert_same(formula, protected={f"x{n // 2}"})


def test_no_elimination_leaves_the_formula_untouched():
    # Without an elimination nothing is rewritten — not even a constant atom.
    formula = And((Le(LinExpr({"x": 2, "y": 2}, 1)), Eq(LinExpr({}, 0))))
    reduced, defs = _assert_same(formula)
    assert defs == [] and reduced == formula


def test_constant_atoms_fold_at_the_first_elimination():
    formula = And(
        (
            Eq(LinExpr({}, 0)),
            Le(LinExpr({"y": 1}, -2)),
            Eq(LinExpr({"x": 1, "y": -1}, 0)),
            Eq(LinExpr({}, 1)),
        )
    )
    reduced, _defs = _assert_same(formula)
    assert reduced == BoolConst(False)


def test_equalities_are_divided_by_their_gcd():
    # 2x + 4y - 6 = 0 is x + 2y - 3 = 0 over Z, so x is eliminated;
    # 2z + 4y - 1 = 0 has no integer solution and stays for the theory.
    formula = And(
        (
            Eq(LinExpr({"x": 2, "y": 4}, -6)),
            Eq(LinExpr({"z": 2, "y": 4}, -1)),
            Le(LinExpr({"x": 1}, -5)),
        )
    )
    reduced, defs = _assert_same(formula)
    assert [(name, _shape(d)) for name, d in defs] == [
        ("x", _shape(LinExpr({"y": -2}, 3)))
    ]
    assert _shape(reduced) == _shape(
        And((Eq(LinExpr({"z": 2, "y": 4}, -1)), Le(LinExpr({"y": -2}, -2))))
    )
