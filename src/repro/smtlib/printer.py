""":mod:`repro.strings` AST → SMT-LIB 2.6 printing (the round-trip half).

:func:`problem_to_smtlib` renders a :class:`~repro.strings.ast.Problem` as
a self-contained script (declarations, named asserts, ``check-sat``) that
:func:`repro.smtlib.parser.parse_problem` reads back.  The printer is a
fixpoint partner of the parser: printing, re-parsing and printing again
yields the same text, which is what the round-trip tests check.

Regular expressions are printed from the pattern syntax of
:mod:`repro.automata.regex`; memberships whose language is a raw ``Nfa``
have no concrete syntax and are rejected with a clear error.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..automata.nfa import Nfa
from ..automata.regex import (
    Alternation,
    AnyChar,
    CharClass,
    Complement,
    Concat,
    Empty,
    Intersection,
    Literal,
    RegexNode,
    Repeat,
    parse as parse_pattern,
)
from ..lia import And, BoolConst, Eq, Formula, Implies, Le, LinExpr, Not, Or
from ..strings.ast import (
    Atom,
    Contains,
    IndexOfAtom,
    LengthConstraint,
    PrefixOf,
    Problem,
    RegexMembership,
    ReplaceAtom,
    StrAtAtom,
    StringTerm,
    StringVar,
    SubstrAtom,
    SuffixOf,
    WordEquation,
    string_of_length_variable,
)


class PrintError(ValueError):
    """Raised when an AST object has no SMT-LIB rendering."""


def _string_literal(value: str) -> str:
    return '"' + value.replace('"', '""') + '"'


def _int_literal(value: int) -> str:
    return str(value) if value >= 0 else f"(- {-value})"


# ----------------------------------------------------------------------
# String terms
# ----------------------------------------------------------------------
def term_to_sexpr(term: StringTerm) -> str:
    parts: List[str] = []
    for element in term:
        if isinstance(element, StringVar):
            parts.append(element.name)
        else:
            parts.append(_string_literal(element.value))
    if not parts:
        return '""'
    if len(parts) == 1:
        return parts[0]
    return "(str.++ " + " ".join(parts) + ")"


# ----------------------------------------------------------------------
# Integer expressions and LIA formulae
# ----------------------------------------------------------------------
def linexpr_to_sexpr(expr: LinExpr) -> str:
    terms: List[str] = []
    for name in sorted(expr.coeffs):
        coeff = expr.coeffs[name]
        string = string_of_length_variable(name)
        rendered = name if string is None else f"(str.len {string})"
        if coeff != 1:
            rendered = f"(* {_int_literal(coeff)} {rendered})"
        terms.append(rendered)
    if expr.const or not terms:
        terms.append(_int_literal(expr.const))
    if len(terms) == 1:
        return terms[0]
    return "(+ " + " ".join(terms) + ")"


def formula_to_sexpr(formula: Formula) -> str:
    if isinstance(formula, BoolConst):
        return "true" if formula.value else "false"
    if isinstance(formula, Le):
        return f"(<= {linexpr_to_sexpr(formula.expr)} 0)"
    if isinstance(formula, Eq):
        return f"(= {linexpr_to_sexpr(formula.expr)} 0)"
    if isinstance(formula, And):
        return "(and " + " ".join(formula_to_sexpr(arg) for arg in formula.args) + ")"
    if isinstance(formula, Or):
        return "(or " + " ".join(formula_to_sexpr(arg) for arg in formula.args) + ")"
    if isinstance(formula, Not):
        return f"(not {formula_to_sexpr(formula.arg)})"
    if isinstance(formula, Implies):
        return f"(=> {formula_to_sexpr(formula.antecedent)} {formula_to_sexpr(formula.consequent)})"
    raise PrintError(f"formula {formula!r} has no SMT-LIB rendering")


# ----------------------------------------------------------------------
# Regular expressions
# ----------------------------------------------------------------------
def _contiguous(chars: Sequence[str]) -> bool:
    codes = [ord(c) for c in chars]
    return len(codes) >= 3 and codes == list(range(codes[0], codes[0] + len(codes)))


def regex_node_to_sexpr(node: RegexNode) -> str:
    if isinstance(node, Empty):
        return '(str.to_re "")'
    if isinstance(node, Literal):
        return f"(str.to_re {_string_literal(node.char)})"
    if isinstance(node, AnyChar):
        return "re.allchar"
    if isinstance(node, CharClass):
        ordered = sorted(node.chars)
        if node.negated:
            raise PrintError("negated character classes have no portable rendering")
        if _contiguous(ordered):
            return f"(re.range {_string_literal(ordered[0])} {_string_literal(ordered[-1])})"
        if len(ordered) == 1:
            return f"(str.to_re {_string_literal(ordered[0])})"
        return "(re.union " + " ".join(f"(str.to_re {_string_literal(c)})" for c in ordered) + ")"
    if isinstance(node, Concat):
        return "(re.++ " + " ".join(regex_node_to_sexpr(part) for part in node.parts) + ")"
    if isinstance(node, Alternation):
        return "(re.union " + " ".join(regex_node_to_sexpr(option) for option in node.options) + ")"
    if isinstance(node, Intersection):
        return "(re.inter " + " ".join(regex_node_to_sexpr(part) for part in node.parts) + ")"
    if isinstance(node, Complement):
        return f"(re.comp {regex_node_to_sexpr(node.inner)})"
    if isinstance(node, Repeat):
        inner = regex_node_to_sexpr(node.inner)
        if node.low == 0 and node.high is None:
            return f"(re.* {inner})"
        if node.low == 1 and node.high is None:
            return f"(re.+ {inner})"
        if node.low == 0 and node.high == 1:
            return f"(re.opt {inner})"
        if node.high is None:
            return f"(re.++ ((_ re.loop {node.low} {node.low}) {inner}) (re.* {inner}))"
        return f"((_ re.loop {node.low} {node.high}) {inner})"
    raise PrintError(f"regex node {node!r} has no SMT-LIB rendering")


def pattern_to_sexpr(pattern: str) -> str:
    return regex_node_to_sexpr(parse_pattern(pattern))


# ----------------------------------------------------------------------
# Atoms
# ----------------------------------------------------------------------
def atom_to_sexpr(atom: Atom) -> str:
    if isinstance(atom, WordEquation):
        body = f"(= {term_to_sexpr(atom.lhs)} {term_to_sexpr(atom.rhs)})"
        return body if atom.positive else f"(not {body})"
    if isinstance(atom, RegexMembership):
        if isinstance(atom.language, Nfa):
            raise PrintError(
                "membership in a raw Nfa has no SMT-LIB rendering "
                "(only regex-pattern languages round-trip)"
            )
        body = f"(str.in_re {atom.var} {pattern_to_sexpr(atom.language)})"
        return body if atom.positive else f"(not {body})"
    if isinstance(atom, PrefixOf):
        body = f"(str.prefixof {term_to_sexpr(atom.lhs)} {term_to_sexpr(atom.rhs)})"
        return body if atom.positive else f"(not {body})"
    if isinstance(atom, SuffixOf):
        body = f"(str.suffixof {term_to_sexpr(atom.lhs)} {term_to_sexpr(atom.rhs)})"
        return body if atom.positive else f"(not {body})"
    if isinstance(atom, Contains):
        # The AST is needle-first; SMT-LIB's str.contains is haystack-first.
        body = f"(str.contains {term_to_sexpr(atom.haystack)} {term_to_sexpr(atom.needle)})"
        return body if atom.positive else f"(not {body})"
    if isinstance(atom, StrAtAtom):
        target = (
            atom.target.name
            if isinstance(atom.target, StringVar)
            else _string_literal(atom.target.value)
        )
        index = atom.index if isinstance(atom.index, LinExpr) else LinExpr.constant(int(atom.index))
        body = f"(= {target} (str.at {term_to_sexpr(atom.haystack)} {linexpr_to_sexpr(index)}))"
        return body if atom.positive else f"(not {body})"
    if isinstance(atom, SubstrAtom):
        body = (
            f"(= {term_to_sexpr(atom.target)} (str.substr {term_to_sexpr(atom.haystack)} "
            f"{linexpr_to_sexpr(atom.offset)} {linexpr_to_sexpr(atom.length)}))"
        )
        return body if atom.positive else f"(not {body})"
    if isinstance(atom, IndexOfAtom):
        body = (
            f"(= {linexpr_to_sexpr(atom.result)} (str.indexof {term_to_sexpr(atom.haystack)} "
            f"{term_to_sexpr(atom.needle)} {linexpr_to_sexpr(atom.offset)}))"
        )
        return body if atom.positive else f"(not {body})"
    if isinstance(atom, ReplaceAtom):
        body = (
            f"(= {term_to_sexpr(atom.target)} (str.replace {term_to_sexpr(atom.haystack)} "
            f"{term_to_sexpr(atom.needle)} {term_to_sexpr(atom.replacement)}))"
        )
        return body if atom.positive else f"(not {body})"
    if isinstance(atom, LengthConstraint):
        return formula_to_sexpr(atom.formula)
    raise PrintError(f"atom {atom!r} has no SMT-LIB rendering")


# ----------------------------------------------------------------------
# Whole problems
# ----------------------------------------------------------------------
def problem_to_smtlib(problem: Problem, status: Optional[str] = None) -> str:
    """Render a problem as a self-contained SMT-LIB script.

    ``status`` becomes ``(set-info :status …)``; the logic is ``QF_SLIA``
    when integer constraints occur and ``QF_S`` otherwise.  Every assert is
    annotated ``(! … :named aN)`` so that ``get-unsat-core`` output is
    meaningful.
    """
    has_ints = any(
        isinstance(atom, (LengthConstraint, StrAtAtom, SubstrAtom, IndexOfAtom))
        for atom in problem.atoms
    )
    logic = "QF_SLIA" if has_ints else "QF_S"
    lines: List[str] = [f"(set-logic {logic})"]
    if problem.name:
        lines.append(f"(set-info :source {_string_literal(problem.name)})")
    if status:
        lines.append(f"(set-info :status {status})")
    lines.append(f"(set-info :alphabet {_string_literal(''.join(problem.alphabet))})")

    integer_vars = problem.integer_variables()
    for name in problem.string_variables():
        lines.append(f"(declare-const {name} String)")
    for name in integer_vars:
        lines.append(f"(declare-const {name} Int)")

    for index, atom in enumerate(problem.atoms):
        lines.append(f"(assert (! {atom_to_sexpr(atom)} :named a{index}))")
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"
