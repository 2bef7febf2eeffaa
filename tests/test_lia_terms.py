"""Unit tests for LIA terms and formula constructors."""

from fractions import Fraction

from repro.lia import (
    FALSE,
    TRUE,
    LinExpr,
    conj,
    disj,
    eq,
    evaluate,
    formula_size,
    ge,
    gt,
    implies,
    le,
    lt,
    ne,
    neg,
    substitute,
    var,
)


def test_linexpr_arithmetic():
    x, y = var("x"), var("y")
    expr = 2 * x + y - 3
    assert expr.coeffs == {"x": 2, "y": 1}
    assert expr.const == -3
    assert (expr - expr).is_constant()
    assert (-expr).coeffs == {"x": -2, "y": -1}


def test_linexpr_evaluate_and_substitute():
    x, y = var("x"), var("y")
    expr = 3 * x - y + 1
    assert expr.evaluate({"x": 2, "y": 4}) == 3
    substituted = expr.substitute({"x": y + 1})
    assert substituted.evaluate({"y": 5}) == 3 * 6 - 5 + 1


def test_zero_coefficients_are_dropped():
    x = var("x")
    expr = x - x
    assert expr.is_constant()
    assert expr.variables() == ()


def test_atoms_fold_constants():
    assert le(1, 2) is TRUE
    assert le(3, 2) is FALSE
    assert eq(5, 5) is TRUE
    assert ne(5, 5) is FALSE
    assert ne(4, 5) is TRUE


def test_connective_folding():
    x = var("x")
    atom = le(x, 3)
    assert conj([TRUE, atom]) == atom
    assert conj([FALSE, atom]) is FALSE
    assert disj([FALSE, atom]) == atom
    assert disj([TRUE, atom]) is TRUE
    assert neg(neg(atom)) == atom
    assert implies(TRUE, atom) == atom
    assert implies(atom, TRUE) is TRUE


def test_evaluate_formula():
    x, y = var("x"), var("y")
    formula = conj([le(x, y), ne(x, 0)])
    assert evaluate(formula, {"x": 1, "y": 2})
    assert not evaluate(formula, {"x": 0, "y": 2})
    assert not evaluate(formula, {"x": 3, "y": 2})


def test_strict_inequalities_over_integers():
    x = var("x")
    assert evaluate(lt(x, 2), {"x": 1})
    assert not evaluate(lt(x, 2), {"x": 2})
    assert evaluate(gt(x, 2), {"x": 3})
    assert evaluate(ge(x, 2), {"x": 2})


def test_substitute_formula():
    x, y = var("x"), var("y")
    formula = le(x, 5)
    substituted = substitute(formula, {"x": y + 10})
    assert evaluate(substituted, {"y": -5})
    assert not evaluate(substituted, {"y": 0})


def test_formula_size_counts_nodes():
    x = var("x")
    formula = conj([le(x, 1), disj([eq(x, 0), eq(x, 1)])])
    assert formula_size(formula) == 5


def _chained_sum(exprs):
    total = LinExpr()
    for expr in exprs:
        total = total + expr
    return total


def _order(expr):
    """Coefficients in insertion order (``==`` on LinExpr ignores it)."""
    return list(expr.coeffs.items()), expr.const


def test_sum_of_matches_the_chained_sum_in_coefficient_order():
    x, y, z = var("x"), var("y"), var("z")
    cases = [
        [],
        [x],
        [x, y, x * -1, x],  # x + y - x + x: x cancels, comes back last
        [2 * x + y, 3, z - y, y * 4, -2 * x],
        [x + y + z, -(x + y + z)],
        [LinExpr({"x": Fraction(1, 2)}), LinExpr({"x": Fraction(1, 2)}, Fraction(1, 3)), y],
    ]
    for terms in cases:
        summed = LinExpr.sum_of(terms)
        assert _order(summed) == _order(_chained_sum(terms))
        assert summed == _chained_sum(terms)
    assert _order(LinExpr.sum_of([x, y, x * -1, x])) == ([("y", 1), ("x", 1)], 0)


def test_subtraction_matches_adding_the_negation_in_coefficient_order():
    x, y, z = var("x"), var("y"), var("z")
    pairs = [
        (x + y, x),
        (x + y - x + x, y),
        (2 * x + y + 3, z - 2 * x),
        (x, x + y + z),
        (LinExpr({"x": Fraction(3, 2)}, Fraction(1, 2)), LinExpr({"x": Fraction(1, 2), "y": 1})),
    ]
    for left, right in pairs:
        assert _order(left - right) == _order(left + right * -1)
        assert _order(left - 2) == _order(left + LinExpr.constant(-2))
    assert _order(x + y - x + x) == ([("y", 1), ("x", 1)], 0)
