"""End-to-end tests of the three solvers on whole problems."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    Contains,
    EagerReductionSolver,
    EnumerativeSolver,
    LengthConstraint,
    PositionSolver,
    PrefixOf,
    Problem,
    RegexMembership,
    SolverConfig,
    Status,
    StrAtAtom,
    StringVar,
    SuffixOf,
    WordEquation,
    brute_force_check,
    lit,
    str_len,
    term,
)
from repro.lia import LinExpr, eq as lia_eq, ge as lia_ge, le as lia_le
from repro.strings.semantics import eval_problem


def solve(problem, timeout=60.0):
    return PositionSolver(SolverConfig(timeout=timeout)).check(problem)


def assert_verified_sat(problem, result):
    assert result.status is Status.SAT
    assert eval_problem(problem, result.model.strings, result.model.integers)


def test_disequality_with_memberships_sat():
    problem = Problem(alphabet=tuple("ab"))
    problem.add(RegexMembership("x", "(ab)*"))
    problem.add(RegexMembership("y", "(a|b)*b"))
    problem.add(WordEquation(term("x"), term("y"), positive=False))
    result = solve(problem)
    assert_verified_sat(problem, result)


def test_disequality_against_forced_literal_unsat():
    problem = Problem(alphabet=tuple("ab"))
    problem.add(RegexMembership("x", "ab"))
    problem.add(WordEquation(term("x"), term(lit("ab")), positive=False))
    assert solve(problem).status is Status.UNSAT


def test_equation_feeds_position_procedure():
    problem = Problem(alphabet=tuple("ab"))
    problem.add(RegexMembership("x", "(a|b)*"))
    problem.add(RegexMembership("y", "a*"))
    problem.add(WordEquation(term("x"), term("y", lit("b"))))
    problem.add(WordEquation(term("x"), term(lit("aab")), positive=False))
    result = solve(problem)
    assert_verified_sat(problem, result)


def test_position_hard_commuting_unsat():
    problem = Problem(alphabet=tuple("ab"))
    problem.add(RegexMembership("x", "(ab)*"))
    problem.add(RegexMembership("y", "(ab)*"))
    problem.add(WordEquation(term("x", "y"), term("y", "x"), positive=False))
    assert solve(problem, timeout=90).status is Status.UNSAT


def test_not_contains_flat_sat_with_length():
    problem = Problem(alphabet=tuple("ab"))
    problem.add(RegexMembership("x", "a*"))
    problem.add(RegexMembership("y", "(ab)*"))
    problem.add(Contains(term("x"), term("y"), positive=False))
    problem.add(LengthConstraint(lia_ge(str_len("x"), 1)))
    result = solve(problem)
    assert_verified_sat(problem, result)


def test_not_contains_unsat():
    problem = Problem(alphabet=tuple("ab"))
    problem.add(RegexMembership("x", "a"))
    problem.add(RegexMembership("y", "aa*"))
    problem.add(Contains(term("x"), term("y"), positive=False))
    assert solve(problem).status is Status.UNSAT


def test_not_contains_self_concatenation_unsat():
    problem = Problem(alphabet=tuple("ab"))
    problem.add(RegexMembership("x", "(ab)*"))
    problem.add(Contains(term("x"), term("x", "x"), positive=False))
    assert solve(problem).status is Status.UNSAT


def test_not_prefix_and_suffix_on_disjoint_variables():
    # Two position predicates over disjoint variables: the solver splits them
    # into independent components, each using the cheap A^II construction.
    problem = Problem(alphabet=tuple("ab"))
    problem.add(RegexMembership("x", "(a|b)(a|b)"))
    problem.add(RegexMembership("y", "ab(a|b)*"))
    problem.add(RegexMembership("u", "(a|b)(a|b)"))
    problem.add(PrefixOf(term("x"), term("y"), positive=False))
    problem.add(SuffixOf(term(lit("a")), term("u"), positive=False))
    result = solve(problem)
    assert_verified_sat(problem, result)
    assert not result.model.strings["u"].endswith("a")


def test_str_at_with_index_constraint():
    problem = Problem(alphabet=tuple("ab"))
    problem.add(RegexMembership("c", "a|b"))
    problem.add(RegexMembership("y", "ab"))
    problem.add(StrAtAtom(StringVar("c"), term("y"), LinExpr.var("i")))
    problem.add(LengthConstraint(lia_eq(LinExpr.var("i"), 1)))
    result = solve(problem)
    assert_verified_sat(problem, result)
    assert result.model.strings["c"] == "b"
    assert result.model.integers["i"] == 1


def test_independent_predicates_are_split_into_components():
    problem = Problem(alphabet=tuple("ab"))
    for name, regex in [("x", "(ab)*"), ("y", "(ab)*"), ("u", "a*"), ("v", "b*")]:
        problem.add(RegexMembership(name, regex))
    problem.add(WordEquation(term("x"), term("y"), positive=False))
    problem.add(WordEquation(term("u"), term("v"), positive=False))
    result = solve(problem)
    assert_verified_sat(problem, result)


def test_length_constraints_restrict_models():
    problem = Problem(alphabet=tuple("ab"))
    problem.add(RegexMembership("x", "(ab)*"))
    problem.add(WordEquation(term("x"), term(lit("")), positive=False))
    problem.add(LengthConstraint(lia_le(str_len("x"), 2)))
    result = solve(problem)
    assert_verified_sat(problem, result)
    assert result.model.strings["x"] == "ab"


def test_unsat_length_and_membership():
    problem = Problem(alphabet=tuple("ab"))
    problem.add(RegexMembership("x", "(ab)*"))
    problem.add(LengthConstraint(lia_eq(str_len("x"), 3)))
    assert solve(problem).status is Status.UNSAT


def test_empty_language_membership_is_unsat():
    problem = Problem(alphabet=tuple("ab"))
    problem.add(RegexMembership("x", "a"))
    problem.add(RegexMembership("x", "b"))
    problem.add(WordEquation(term("x"), term(lit("c")), positive=False))
    assert solve(problem).status is Status.UNSAT


# ----------------------------------------------------------------------
# Baselines
# ----------------------------------------------------------------------
def test_eager_baseline_on_simple_disequality():
    problem = Problem(alphabet=tuple("ab"))
    problem.add(RegexMembership("x", "(ab)*"))
    problem.add(RegexMembership("y", "(a|b)*b"))
    problem.add(WordEquation(term("x"), term("y"), positive=False))
    result = EagerReductionSolver(SolverConfig(timeout=30)).check(problem)
    assert result.status in (Status.SAT, Status.UNKNOWN, Status.TIMEOUT)
    if result.status is Status.SAT:
        assert eval_problem(problem, result.model.strings, result.model.integers)


def test_eager_baseline_gives_up_on_not_contains():
    problem = Problem(alphabet=tuple("ab"))
    problem.add(RegexMembership("x", "a*"))
    problem.add(RegexMembership("y", "(ab)*"))
    problem.add(Contains(term("x"), term("y"), positive=False))
    assert EagerReductionSolver(SolverConfig(timeout=10)).check(problem).status is Status.UNKNOWN


def test_enumerative_finds_easy_models_but_cannot_refute():
    problem = Problem(alphabet=tuple("ab"))
    problem.add(RegexMembership("x", "(ab)*"))
    problem.add(RegexMembership("y", "(ab)*"))
    problem.add(WordEquation(term("x"), term("y"), positive=False))
    assert EnumerativeSolver(SolverConfig(timeout=10)).check(problem).status is Status.SAT

    unsat = Problem(alphabet=tuple("ab"))
    unsat.add(RegexMembership("x", "(ab)*"))
    unsat.add(RegexMembership("y", "(ab)*"))
    unsat.add(WordEquation(term("x", "y"), term("y", "x"), positive=False))
    result = EnumerativeSolver(SolverConfig(timeout=5)).check(unsat)
    assert result.status in (Status.UNKNOWN, Status.TIMEOUT)


def test_enumerative_does_not_refute_a_language_beyond_its_bound():
    # sat, but the only word is longer than the enumeration bound of 6
    problem = Problem(alphabet=tuple("ab"))
    problem.add(RegexMembership("x", "aaaaaaa"))
    assert EnumerativeSolver(SolverConfig(timeout=5)).check(problem).status is Status.UNKNOWN


def test_brute_force_unsat_needs_every_word_within_the_bound():
    problem = Problem(alphabet=tuple("ab"))
    problem.add(RegexMembership("x", "aaaaa"))
    assert brute_force_check(problem, max_length=4).status is Status.UNKNOWN
    assert brute_force_check(problem, max_length=5).status is Status.SAT
    # an empty language is fully enumerated by any bound
    empty = Problem(alphabet=tuple("ab"))
    empty.add(RegexMembership("x", "a"))
    empty.add(RegexMembership("x", "b"))
    assert brute_force_check(empty, max_length=0).status is Status.UNSAT


def test_brute_force_oracle_agrees_on_finite_instance():
    problem = Problem(alphabet=tuple("ab"))
    problem.add(RegexMembership("x", "a|b"))
    problem.add(RegexMembership("y", "a|b"))
    problem.add(WordEquation(term("x"), term("y"), positive=False))
    oracle = brute_force_check(problem, max_length=2)
    ours = solve(problem)
    assert oracle.status is Status.SAT
    assert ours.status is Status.SAT


# ----------------------------------------------------------------------
# Property-based: random problems, main solver vs. brute force oracle
# ----------------------------------------------------------------------
_regex_pool = ["a", "ab", "a*", "(ab)*", "a|b", "(a|b){0,2}", "b(a|b)?"]


@settings(max_examples=12, deadline=None)
@given(
    st.sampled_from(_regex_pool),
    st.sampled_from(_regex_pool),
    st.sampled_from(["diseq", "notprefix", "notsuffix"]),
)
def test_random_problem_agrees_with_oracle(rx, ry, kind):
    problem = Problem(alphabet=tuple("ab"))
    problem.add(RegexMembership("x", rx))
    problem.add(RegexMembership("y", ry))
    if kind == "diseq":
        problem.add(WordEquation(term("x"), term("y"), positive=False))
    elif kind == "notprefix":
        problem.add(PrefixOf(term("x"), term("y"), positive=False))
    else:
        problem.add(SuffixOf(term("x"), term("y"), positive=False))
    result = solve(problem)
    oracle = brute_force_check(problem, max_length=4)
    assert result.status in (Status.SAT, Status.UNSAT)
    if oracle.status is Status.SAT:
        assert result.status is Status.SAT
    if result.status is Status.SAT:
        assert eval_problem(problem, result.model.strings, result.model.integers)
    if oracle.status is Status.UNSAT:
        assert result.status is Status.UNSAT
