"""Tests for the single-predicate encodings (§5.1, §5.2, §6.2, §6.3).

Every SAT verdict is validated by reconstructing a witness and evaluating
the predicate directly; every UNSAT verdict is cross-checked against bounded
brute-force enumeration of the variable languages.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.automata import Nfa, compile_regex
from repro.core.predicates import Disequality, NotPrefixOf, NotSuffixOf, StrAt
from repro.core.single import encode_single
from repro.core.witness import extract_assignment
from repro.lia import LinExpr, conj, eq

from helpers import brute_force_predicates, solve_parikh


def check_single(predicate, automata, extra=None, integer_ranges=None, max_length=4):
    """Encode, solve, and cross-check a single predicate against brute force."""
    encoding = encode_single(predicate, automata)
    formula = encoding.formula if extra is None else conj([encoding.formula] + extra)
    result = solve_parikh(formula, [encoding.parikh], timeout=60.0)
    oracle = brute_force_predicates([predicate], automata, max_length=max_length,
                                    integer_ranges=integer_ranges)
    if result.is_sat:
        strings = extract_assignment(encoding.parikh, result.model, list(automata))
        assert strings is not None, "could not reconstruct a witness from the Parikh model"
        for name, nfa in automata.items():
            assert nfa.accepts(strings[name]), f"witness violates the regular constraint of {name}"
        integers = {name: result.model.get(name, 0) for name in getattr(predicate, "integer_variables", tuple)()} \
            if hasattr(predicate, "integer_variables") else {}
        assert predicate.holds(strings, integers), f"witness {strings} does not satisfy {predicate}"
    else:
        assert oracle is None, f"encoding says UNSAT but brute force found {oracle}"
    return result


# ----------------------------------------------------------------------
# §5.1: a single disequality of two variables
# ----------------------------------------------------------------------
def test_diseq_two_vars_sat_different_languages():
    automata = {"x": compile_regex("(ab)*", alphabet="abc"), "y": compile_regex("(ac)*", alphabet="abc")}
    result = check_single(Disequality(("x",), ("y",)), automata)
    assert result.is_sat


def test_diseq_two_vars_unsat_singleton_languages():
    automata = {"x": compile_regex("ab", alphabet="ab"), "y": compile_regex("ab", alphabet="ab")}
    result = check_single(Disequality(("x",), ("y",)), automata)
    assert result.is_unsat


def test_diseq_two_vars_sat_by_length():
    automata = {"x": compile_regex("aa", alphabet="ab"), "y": compile_regex("aaa", alphabet="ab")}
    result = check_single(Disequality(("x",), ("y",)), automata)
    assert result.is_sat


def test_diseq_same_variable_both_sides_unsat():
    automata = {"x": compile_regex("(a|b){1,2}", alphabet="ab")}
    result = check_single(Disequality(("x",), ("x",)), automata)
    assert result.is_unsat


# ----------------------------------------------------------------------
# §5.2: unrestricted disequalities (concatenations, repeated variables)
# ----------------------------------------------------------------------
def test_diseq_concatenation_sat():
    automata = {
        "x": compile_regex("a*", alphabet="ab"),
        "y": compile_regex("b*", alphabet="ab"),
        "z": compile_regex("(a|b)*", alphabet="ab"),
    }
    result = check_single(Disequality(("x", "y"), ("z",)), automata)
    assert result.is_sat


def test_diseq_xy_vs_yx_commuting_unsat():
    # x in a*, y in a*: xy = yx always, so xy != yx is unsatisfiable.
    automata = {"x": compile_regex("a*", alphabet="ab"), "y": compile_regex("a*", alphabet="ab")}
    result = check_single(Disequality(("x", "y"), ("y", "x")), automata)
    assert result.is_unsat


def test_diseq_xy_vs_yx_sat_with_two_letters():
    automata = {"x": compile_regex("a*", alphabet="ab"), "y": compile_regex("b*", alphabet="ab")}
    result = check_single(Disequality(("x", "y"), ("y", "x")), automata)
    assert result.is_sat


def test_diseq_repeated_variable_fixed_point_unsat():
    # x constrained to a single word: xx != xx is unsatisfiable.
    automata = {"x": compile_regex("ab", alphabet="ab")}
    result = check_single(Disequality(("x", "x"), ("x", "x")), automata)
    assert result.is_unsat


def test_diseq_paper_example_xyx_vs_yxy():
    automata = {
        "x": compile_regex("a", alphabet="ab"),
        "y": compile_regex("a|b", alphabet="ab"),
    }
    result = check_single(Disequality(("x", "y", "x"), ("y", "x", "y")), automata)
    assert result.is_sat


def test_diseq_against_literal_encoded_as_variable():
    automata = {
        "x": compile_regex("(a|b){2}", alphabet="ab"),
        "lit": compile_regex("ab", alphabet="ab"),
    }
    result = check_single(Disequality(("x",), ("lit",)), automata)
    assert result.is_sat


def test_diseq_empty_language_is_unsat():
    automata = {"x": Nfa.empty_language(), "y": compile_regex("a", alphabet="a")}
    result = check_single(Disequality(("x",), ("y",)), automata)
    assert result.is_unsat


# ----------------------------------------------------------------------
# §6.2: ¬prefixof / ¬suffixof
# ----------------------------------------------------------------------
def test_not_prefixof_sat():
    automata = {"x": compile_regex("a(a|b)", alphabet="ab"), "y": compile_regex("ab(a|b)*", alphabet="ab")}
    result = check_single(NotPrefixOf(("x",), ("y",)), automata)
    assert result.is_sat


def test_not_prefixof_unsat_when_always_prefix():
    automata = {"x": compile_regex("a", alphabet="ab"), "y": compile_regex("a(a|b)*", alphabet="ab")}
    result = check_single(NotPrefixOf(("x",), ("y",)), automata)
    assert result.is_unsat


def test_not_prefixof_sat_by_length_overflow():
    automata = {"x": compile_regex("aaa", alphabet="ab"), "y": compile_regex("a{0,2}", alphabet="ab")}
    result = check_single(NotPrefixOf(("x",), ("y",)), automata)
    assert result.is_sat


def test_not_suffixof_sat():
    automata = {"x": compile_regex("ba", alphabet="ab"), "y": compile_regex("(a|b)*a", alphabet="ab")}
    result = check_single(NotSuffixOf(("x",), ("y",)), automata, max_length=3)
    assert result.is_sat


def test_not_suffixof_unsat_when_always_suffix():
    automata = {"x": compile_regex("a", alphabet="ab"), "y": compile_regex("(a|b)*a", alphabet="ab")}
    result = check_single(NotSuffixOf(("x",), ("y",)), automata, max_length=3)
    assert result.is_unsat


def test_not_suffixof_concatenation():
    automata = {
        "x": compile_regex("b", alphabet="ab"),
        "y": compile_regex("a*", alphabet="ab"),
        "z": compile_regex("b", alphabet="ab"),
    }
    # yz always ends with b = x, so ¬suffixof(x, yz) is unsatisfiable.
    result = check_single(NotSuffixOf(("x",), ("y", "z")), automata)
    assert result.is_unsat


# ----------------------------------------------------------------------
# §6.3: str.at / ¬str.at
# ----------------------------------------------------------------------
def test_str_at_positive_sat():
    automata = {"c": compile_regex("a|b", alphabet="ab"), "y": compile_regex("ab", alphabet="ab")}
    predicate = StrAt("c", ("y",), LinExpr.var("i"))
    encoding_result = check_single(predicate, automata, integer_ranges={"i": (-1, 3)})
    assert encoding_result.is_sat


def test_str_at_positive_fixed_index():
    automata = {"c": compile_regex("b", alphabet="ab"), "y": compile_regex("ab", alphabet="ab")}
    # y[1] = 'b' so c = str.at(y, 1) is satisfiable with c = b.
    predicate = StrAt("c", ("y",), 1)
    result = check_single(predicate, automata)
    assert result.is_sat


def test_str_at_positive_fixed_index_unsat():
    automata = {"c": compile_regex("a", alphabet="ab"), "y": compile_regex("ab", alphabet="ab")}
    # y[1] = 'b' but c is forced to 'a'.
    predicate = StrAt("c", ("y",), 1)
    result = check_single(predicate, automata)
    assert result.is_unsat


def test_str_at_out_of_bounds_requires_empty_target():
    automata = {"c": compile_regex("a?", alphabet="ab"), "y": compile_regex("ab", alphabet="ab")}
    predicate = StrAt("c", ("y",), 5)
    result = check_single(predicate, automata)
    assert result.is_sat  # c = ε works


def test_str_at_out_of_bounds_unsat_when_target_nonempty():
    automata = {"c": compile_regex("a", alphabet="ab"), "y": compile_regex("ab", alphabet="ab")}
    predicate = StrAt("c", ("y",), 5)
    result = check_single(predicate, automata)
    assert result.is_unsat


def test_not_str_at_sat():
    automata = {"c": compile_regex("a", alphabet="ab"), "y": compile_regex("ab", alphabet="ab")}
    predicate = StrAt("c", ("y",), 1, negated=True)
    result = check_single(predicate, automata)
    assert result.is_sat  # y[1] = b != a


def test_not_str_at_unsat():
    automata = {"c": compile_regex("a", alphabet="ab"), "y": compile_regex("ab", alphabet="ab")}
    predicate = StrAt("c", ("y",), 0, negated=True)
    result = check_single(predicate, automata)
    assert result.is_unsat  # y[0] = a = c always


def test_not_str_at_empty_target_in_bounds_is_sat():
    # Deviation test: ε != y[0], so the negated predicate holds with c = ε.
    automata = {"c": compile_regex("", alphabet="ab"), "y": compile_regex("ab", alphabet="ab")}
    predicate = StrAt("c", ("y",), 0, negated=True)
    result = check_single(predicate, automata)
    assert result.is_sat


# ----------------------------------------------------------------------
# Property-based: random small regular languages, disequality vs. brute force
# ----------------------------------------------------------------------
_regexes = st.sampled_from(
    ["a", "b", "ab", "a*", "b*", "(ab)*", "(a|b)", "(a|b)*", "a|b|ab", "a{0,2}", "(ba)*", "ab|ba"]
)


@settings(max_examples=25, deadline=None)
@given(_regexes, _regexes)
def test_random_disequality_agrees_with_bruteforce(rx, ry):
    automata = {"x": compile_regex(rx, alphabet="ab"), "y": compile_regex(ry, alphabet="ab")}
    predicate = Disequality(("x",), ("y",))
    encoding = encode_single(predicate, automata)
    result = solve_parikh(encoding.formula, [encoding.parikh], timeout=60.0)
    oracle = brute_force_predicates([predicate], automata, max_length=4)
    if oracle is not None:
        assert result.is_sat
    if result.is_sat:
        strings = extract_assignment(encoding.parikh, result.model, ["x", "y"])
        assert predicate.holds(strings)
        assert automata["x"].accepts(strings["x"])
        assert automata["y"].accepts(strings["y"])
    else:
        assert oracle is None
