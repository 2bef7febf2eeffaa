"""Linear integer arithmetic (LIA) terms and formulae.

The decision procedure of the paper reduces position constraints to
quantifier-free LIA formulae over Parikh variables (the ∀κ of ¬contains,
§6.4, is instantiated lazily by the MBQI loop and never built).  This module
provides the formula representation consumed by :mod:`repro.lia.solver`:

* :class:`LinExpr` — a linear expression ``c0 + c1*x1 + ... + cn*xn`` with
  integer coefficients, represented as a mapping from variable names to
  coefficients plus a constant,
* atoms — ``expr <= 0`` (:class:`Le`) and ``expr = 0`` (:class:`Eq`),
* boolean structure — :class:`And`, :class:`Or`, :class:`Not`,
  :class:`Implies`, :class:`BoolConst`.

Construction helpers (``le``, ``lt``, ``eq_expr``, ``ne``, ``conj``, ...) are
provided at the bottom of the module; they perform light-weight
normalisation so that trivially true/false subformulae collapse early.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

Number = Union[int, Fraction]


# ----------------------------------------------------------------------
# Linear expressions
# ----------------------------------------------------------------------
class LinExpr:
    """An immutable linear expression with integer (or rational) coefficients."""

    __slots__ = ("coeffs", "const", "_key")

    def __init__(self, coeffs: Optional[Mapping[str, Number]] = None, const: Number = 0) -> None:
        cleaned: Dict[str, Number] = {}
        if coeffs:
            for name, coeff in coeffs.items():
                if coeff != 0:
                    cleaned[name] = coeff
        self.coeffs: Dict[str, Number] = cleaned
        self.const: Number = const
        self._key: Optional[Tuple] = None

    # -- constructors ---------------------------------------------------
    @staticmethod
    def var(name: str) -> "LinExpr":
        """Return the expression consisting of a single variable."""
        return LinExpr({name: 1}, 0)

    @staticmethod
    def constant(value: Number) -> "LinExpr":
        """Return a constant expression."""
        return LinExpr({}, value)

    @staticmethod
    def sum_of(exprs: Iterable[Union["LinExpr", Number]]) -> "LinExpr":
        """Return the sum of the given expressions.

        One dict accumulates every term.  A coefficient is deleted when it
        reaches 0, so a name that cancels and comes back moves to the end,
        as in the chained ``e1 + e2 + ...`` (coefficient order is part of
        the result: :func:`repro.lia.simplify._isolate` reads it).
        """
        coeffs: Dict[str, Number] = {}
        const: Number = 0
        for expr in exprs:
            if not isinstance(expr, LinExpr):
                const = const + expr
                continue
            for name, coeff in expr.coeffs.items():
                total = coeffs.get(name, 0) + coeff
                if total == 0:
                    del coeffs[name]
                else:
                    coeffs[name] = total
            const = const + expr.const
        return LinExpr._owning(coeffs, const)

    @staticmethod
    def _owning(coeffs: Dict[str, Number], const: Number) -> "LinExpr":
        """An expression that takes ``coeffs`` (no zero coefficient) as its own."""
        expr = LinExpr.__new__(LinExpr)
        expr.coeffs = coeffs
        expr.const = const
        expr._key = None
        return expr

    # -- arithmetic -----------------------------------------------------
    def _coerce(self, other: Union["LinExpr", Number]) -> "LinExpr":
        if isinstance(other, LinExpr):
            return other
        return LinExpr.constant(other)

    def __add__(self, other: Union["LinExpr", Number]) -> "LinExpr":
        other = self._coerce(other)
        coeffs = dict(self.coeffs)
        for name, coeff in other.coeffs.items():
            coeffs[name] = coeffs.get(name, 0) + coeff
        return LinExpr(coeffs, self.const + other.const)

    __radd__ = __add__

    def __sub__(self, other: Union["LinExpr", Number]) -> "LinExpr":
        other = self._coerce(other)
        coeffs = dict(self.coeffs)
        for name, coeff in other.coeffs.items():
            coeffs[name] = coeffs.get(name, 0) - coeff
        return LinExpr(coeffs, self.const - other.const)

    def __rsub__(self, other: Union["LinExpr", Number]) -> "LinExpr":
        return self._coerce(other) - self

    def __mul__(self, scalar: Number) -> "LinExpr":
        if isinstance(scalar, LinExpr):
            raise TypeError("LinExpr supports only multiplication by constants")
        return LinExpr({name: coeff * scalar for name, coeff in self.coeffs.items()}, self.const * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "LinExpr":
        return self * -1

    # -- queries ---------------------------------------------------------
    def variables(self) -> Tuple[str, ...]:
        """Return the variables occurring with a non-zero coefficient."""
        return tuple(sorted(self.coeffs))

    def is_constant(self) -> bool:
        return not self.coeffs

    def evaluate(self, assignment: Mapping[str, Number]) -> Number:
        """Evaluate the expression under a (total) variable assignment."""
        value: Number = self.const
        for name, coeff in self.coeffs.items():
            value += coeff * assignment[name]
        return value

    def substitute(self, mapping: Mapping[str, "LinExpr"]) -> "LinExpr":
        """Substitute variables by expressions.

        Single-pass dict merge: this is the inner loop of the equality
        elimination passes (thousands of calls per theory check), where the
        naive ``result + term`` chain allocates one intermediate expression
        per variable.
        """
        coeffs: Dict[str, Number] = {}
        const = self.const
        for name, coeff in self.coeffs.items():
            replacement = mapping.get(name)
            if replacement is None:
                coeffs[name] = coeffs.get(name, 0) + coeff
            else:
                const += replacement.const * coeff
                for inner, inner_coeff in replacement.coeffs.items():
                    coeffs[inner] = coeffs.get(inner, 0) + inner_coeff * coeff
        return LinExpr(coeffs, const)

    # -- misc -------------------------------------------------------------
    def key(self) -> Tuple:
        """A hashable canonical key (used for atom deduplication).

        The key is computed once and cached: atom deduplication in the
        incremental CNF builder and slack-row reuse in the simplex hash the
        same expressions over and over.
        """
        if self._key is None:
            self._key = (tuple(sorted(self.coeffs.items())), self.const)
        return self._key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LinExpr) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        parts: List[str] = []
        for name in sorted(self.coeffs):
            coeff = self.coeffs[name]
            parts.append(f"{coeff}*{name}" if coeff != 1 else name)
        if self.const or not parts:
            parts.append(str(self.const))
        return " + ".join(parts)


# ----------------------------------------------------------------------
# Formulae
# ----------------------------------------------------------------------
class Formula:
    """Base class of LIA formulae."""

    def variables(self) -> Tuple[str, ...]:  # pragma: no cover - overridden
        raise NotImplementedError

    def __and__(self, other: "Formula") -> "Formula":
        return conj([self, other])

    def __or__(self, other: "Formula") -> "Formula":
        return disj([self, other])

    def __invert__(self) -> "Formula":
        return neg(self)


@dataclass(frozen=True)
class BoolConst(Formula):
    """The constants ``true`` / ``false``."""

    value: bool

    def variables(self) -> Tuple[str, ...]:
        return ()

    def __repr__(self) -> str:
        return "true" if self.value else "false"


TRUE = BoolConst(True)
FALSE = BoolConst(False)


@dataclass(frozen=True)
class Le(Formula):
    """The atom ``expr <= 0``."""

    expr: LinExpr

    def variables(self) -> Tuple[str, ...]:
        return self.expr.variables()

    def __repr__(self) -> str:
        return f"({self.expr} <= 0)"


@dataclass(frozen=True)
class Eq(Formula):
    """The atom ``expr = 0``."""

    expr: LinExpr

    def variables(self) -> Tuple[str, ...]:
        return self.expr.variables()

    def __repr__(self) -> str:
        return f"({self.expr} = 0)"


@dataclass(frozen=True)
class And(Formula):
    """Conjunction."""

    args: Tuple[Formula, ...]

    def variables(self) -> Tuple[str, ...]:
        seen = set()
        for arg in self.args:
            seen.update(arg.variables())
        return tuple(sorted(seen))

    def __repr__(self) -> str:
        return "(and " + " ".join(map(repr, self.args)) + ")"


@dataclass(frozen=True)
class Or(Formula):
    """Disjunction."""

    args: Tuple[Formula, ...]

    def variables(self) -> Tuple[str, ...]:
        seen = set()
        for arg in self.args:
            seen.update(arg.variables())
        return tuple(sorted(seen))

    def __repr__(self) -> str:
        return "(or " + " ".join(map(repr, self.args)) + ")"


@dataclass(frozen=True)
class Not(Formula):
    """Negation."""

    arg: Formula

    def variables(self) -> Tuple[str, ...]:
        return self.arg.variables()

    def __repr__(self) -> str:
        return f"(not {self.arg!r})"


@dataclass(frozen=True)
class Implies(Formula):
    """Implication ``antecedent -> consequent``."""

    antecedent: Formula
    consequent: Formula

    def variables(self) -> Tuple[str, ...]:
        return tuple(sorted(set(self.antecedent.variables()) | set(self.consequent.variables())))

    def __repr__(self) -> str:
        return f"(=> {self.antecedent!r} {self.consequent!r})"


# ----------------------------------------------------------------------
# Construction helpers
# ----------------------------------------------------------------------
def _as_expr(value: Union[LinExpr, Number, str]) -> LinExpr:
    if isinstance(value, LinExpr):
        return value
    if isinstance(value, str):
        return LinExpr.var(value)
    return LinExpr.constant(value)


def var(name: str) -> LinExpr:
    """Return the linear expression for the integer variable ``name``."""
    return LinExpr.var(name)


def const(value: Number) -> LinExpr:
    """Return a constant linear expression."""
    return LinExpr.constant(value)


def le(left: Union[LinExpr, Number, str], right: Union[LinExpr, Number, str]) -> Formula:
    """The atom ``left <= right``."""
    expr = _as_expr(left) - _as_expr(right)
    if expr.is_constant():
        return TRUE if expr.const <= 0 else FALSE
    return Le(expr)


def ge(left: Union[LinExpr, Number, str], right: Union[LinExpr, Number, str]) -> Formula:
    """The atom ``left >= right``."""
    return le(right, left)


def lt(left: Union[LinExpr, Number, str], right: Union[LinExpr, Number, str]) -> Formula:
    """The atom ``left < right`` (over the integers: ``left <= right - 1``)."""
    return le(_as_expr(left) + 1, right)


def gt(left: Union[LinExpr, Number, str], right: Union[LinExpr, Number, str]) -> Formula:
    """The atom ``left > right``."""
    return lt(right, left)


def eq(left: Union[LinExpr, Number, str], right: Union[LinExpr, Number, str]) -> Formula:
    """The atom ``left = right``."""
    expr = _as_expr(left) - _as_expr(right)
    if expr.is_constant():
        return TRUE if expr.const == 0 else FALSE
    return Eq(expr)


def ne(left: Union[LinExpr, Number, str], right: Union[LinExpr, Number, str]) -> Formula:
    """The formula ``left != right`` (expanded to a disjunction of strict inequalities)."""
    expr = _as_expr(left) - _as_expr(right)
    if expr.is_constant():
        return TRUE if expr.const != 0 else FALSE
    return disj([lt(expr, 0), gt(expr, 0)])


def conj(args: Sequence[Formula]) -> Formula:
    """N-ary conjunction with constant folding and flattening."""
    flattened: List[Formula] = []
    for arg in args:
        if isinstance(arg, BoolConst):
            if not arg.value:
                return FALSE
            continue
        if isinstance(arg, And):
            flattened.extend(arg.args)
        else:
            flattened.append(arg)
    if not flattened:
        return TRUE
    if len(flattened) == 1:
        return flattened[0]
    return And(tuple(flattened))


def disj(args: Sequence[Formula]) -> Formula:
    """N-ary disjunction with constant folding and flattening."""
    flattened: List[Formula] = []
    for arg in args:
        if isinstance(arg, BoolConst):
            if arg.value:
                return TRUE
            continue
        if isinstance(arg, Or):
            flattened.extend(arg.args)
        else:
            flattened.append(arg)
    if not flattened:
        return FALSE
    if len(flattened) == 1:
        return flattened[0]
    return Or(tuple(flattened))


def neg(arg: Formula) -> Formula:
    """Negation with constant folding and double-negation elimination."""
    if isinstance(arg, BoolConst):
        return FALSE if arg.value else TRUE
    if isinstance(arg, Not):
        return arg.arg
    return Not(arg)


def implies(antecedent: Formula, consequent: Formula) -> Formula:
    """Implication with constant folding."""
    if isinstance(antecedent, BoolConst):
        return consequent if antecedent.value else TRUE
    if isinstance(consequent, BoolConst):
        return TRUE if consequent.value else neg(antecedent)
    return Implies(antecedent, consequent)


def evaluate(formula: Formula, assignment: Mapping[str, Number]) -> bool:
    """Evaluate a formula under a total assignment."""
    if isinstance(formula, BoolConst):
        return formula.value
    if isinstance(formula, Le):
        return formula.expr.evaluate(assignment) <= 0
    if isinstance(formula, Eq):
        return formula.expr.evaluate(assignment) == 0
    if isinstance(formula, And):
        return all(evaluate(arg, assignment) for arg in formula.args)
    if isinstance(formula, Or):
        return any(evaluate(arg, assignment) for arg in formula.args)
    if isinstance(formula, Not):
        return not evaluate(formula.arg, assignment)
    if isinstance(formula, Implies):
        return (not evaluate(formula.antecedent, assignment)) or evaluate(formula.consequent, assignment)
    raise TypeError(f"unsupported formula {formula!r}")


def substitute(formula: Formula, mapping: Mapping[str, LinExpr]) -> Formula:
    """Substitute variables by linear expressions throughout a formula.

    The result is the one the construction helpers (``conj``, ``disj``,
    ``neg``, ``implies``) would build from the rewritten parts:
    constant atoms fold, nested conjunctions and disjunctions flatten and
    double negations cancel.  Only the path to an atom that mentions a
    mapped variable is rebuilt: a subformula in which nothing changes is
    returned itself when it is already in that form — a non-constant atom,
    an ``And``/``Or`` of two or more arguments none of which is a constant
    or a connective of its own kind, a ``Not`` or ``Implies``
    without a constant operand and not a double negation — and rebuilt as
    the helpers do otherwise.  So the result is structurally
    the same as rebuilding everything, down to each ``LinExpr``'s
    coefficient order, but an untouched subformula costs no allocation.
    """
    if isinstance(formula, (Le, Eq)):
        expr = formula.expr
        if expr.coeffs and mapping.keys().isdisjoint(expr.coeffs):
            return formula
        expr = expr.substitute(mapping)
        if isinstance(formula, Le):
            if expr.is_constant():
                return TRUE if expr.const <= 0 else FALSE
            return Le(expr)
        if expr.is_constant():
            return TRUE if expr.const == 0 else FALSE
        return Eq(expr)
    if isinstance(formula, BoolConst):
        return formula
    if isinstance(formula, And):
        args = _substitute_args(formula.args, mapping)
        if args is None:
            if _flat(formula.args, And):
                return formula
            args = formula.args
        return conj(args)
    if isinstance(formula, Or):
        args = _substitute_args(formula.args, mapping)
        if args is None:
            if _flat(formula.args, Or):
                return formula
            args = formula.args
        return disj(args)
    if isinstance(formula, Not):
        arg = substitute(formula.arg, mapping)
        if arg is formula.arg and not isinstance(arg, (Not, BoolConst)):
            return formula
        return neg(arg)
    if isinstance(formula, Implies):
        antecedent = substitute(formula.antecedent, mapping)
        consequent = substitute(formula.consequent, mapping)
        if (
            antecedent is formula.antecedent
            and consequent is formula.consequent
            and not isinstance(antecedent, BoolConst)
            and not isinstance(consequent, BoolConst)
        ):
            return formula
        return implies(antecedent, consequent)
    raise TypeError(f"unsupported formula {formula!r}")


def _substitute_args(args: Sequence[Formula], mapping: Mapping[str, LinExpr]) -> Optional[List[Formula]]:
    """``args`` rewritten by :func:`substitute`; ``None`` when each one is
    its own rewrite (no list is built until the first change)."""
    rewritten: Optional[List[Formula]] = None
    for index, arg in enumerate(args):
        new = substitute(arg, mapping)
        if rewritten is None:
            if new is arg:
                continue
            rewritten = list(args[:index])
        rewritten.append(new)
    return rewritten


def _flat(args: Sequence[Formula], kind: type) -> bool:
    """Whether ``conj``/``disj`` would keep ``args`` of a ``kind`` node as
    they are: two or more, no constant, none of the same kind."""
    return len(args) >= 2 and not any(isinstance(arg, (BoolConst, kind)) for arg in args)


def formula_size(formula: Formula) -> int:
    """Return the number of AST nodes (used for the size claims in tests)."""
    if isinstance(formula, (BoolConst, Le, Eq)):
        return 1
    if isinstance(formula, And) or isinstance(formula, Or):
        return 1 + sum(formula_size(arg) for arg in formula.args)
    if isinstance(formula, Not):
        return 1 + formula_size(formula.arg)
    if isinstance(formula, Implies):
        return 1 + formula_size(formula.antecedent) + formula_size(formula.consequent)
    raise TypeError(f"unsupported formula {formula!r}")
