"""End-to-end tests of the three solvers on whole problems."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    Contains,
    EagerReductionSolver,
    EnumerativeSolver,
    IndexOfAtom,
    LengthConstraint,
    PositionSolver,
    PrefixOf,
    Problem,
    RegexMembership,
    SolverConfig,
    Status,
    StrAtAtom,
    StringVar,
    SubstrAtom,
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


@pytest.mark.parametrize("positive, expected", [(True, "b"), (False, "a")])
def test_str_at_with_a_plain_int_index(positive, expected):
    problem = Problem(alphabet=tuple("ab"))
    problem.add(RegexMembership("y", "ab"))
    problem.add(RegexMembership("x", "a|b"))
    problem.add(StrAtAtom(StringVar("x"), term("y"), 1, positive=positive))
    result = solve(problem)
    assert_verified_sat(problem, result)
    assert result.model.strings["x"] == expected


@pytest.mark.parametrize("positive, expected", [(True, "b"), (False, "a")])
def test_substr_with_plain_int_offset_and_length(positive, expected):
    problem = Problem(alphabet=tuple("ab"))
    problem.add(RegexMembership("y", "ab"))
    problem.add(RegexMembership("x", "a|b"))
    problem.add(SubstrAtom(term("x"), term("y"), 1, 1, positive=positive))
    result = solve(problem)
    assert_verified_sat(problem, result)
    assert result.model.strings["x"] == expected


@pytest.mark.parametrize(
    "result_expr, status",
    [(LinExpr.var("i"), Status.SAT), (1, Status.SAT), (0, Status.UNSAT)],
)
def test_indexof_with_plain_int_result_and_offset(result_expr, status):
    problem = Problem(alphabet=tuple("ab"))
    problem.add(RegexMembership("y", "ab"))
    problem.add(IndexOfAtom(result_expr, term("y"), term(lit("b")), 0))
    result = solve(problem)
    assert result.status is status
    if status is Status.SAT:
        assert_verified_sat(problem, result)


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


def test_baseline_unknowns_carry_typed_reasons(monkeypatch):
    from repro.budget import UnknownKind, UnknownReason
    from repro.solver.result import SolveResult

    def assert_typed(result, kind):
        timeout = kind is UnknownKind.TIMEOUT
        assert result.status is (Status.TIMEOUT if timeout else Status.UNKNOWN)
        assert isinstance(result.reason, UnknownReason), result.reason
        assert result.reason.kind is kind and result.reason.stage, result.reason

    commuting = Problem(alphabet=tuple("ab"))
    commuting.add(RegexMembership("x", "(ab)*"))
    commuting.add(RegexMembership("y", "(ab)*"))
    commuting.add(WordEquation(term("x", "y"), term("y", "x"), positive=False))
    assert_typed(EnumerativeSolver(SolverConfig(timeout=30)).check(commuting), UnknownKind.INCOMPLETE)
    assert_typed(brute_force_check(commuting, timeout=1e-9), UnknownKind.TIMEOUT)

    not_contains = Problem(alphabet=tuple("ab"))
    not_contains.add(RegexMembership("x", "a*"))
    not_contains.add(Contains(term("x"), term("y"), positive=False))
    eager = EagerReductionSolver(SolverConfig(timeout=30))
    assert_typed(eager.check(not_contains), UnknownKind.FRAGMENT)
    assert_typed(EagerReductionSolver(SolverConfig(timeout=1e-9)).check(commuting), UnknownKind.TIMEOUT)
    undecided = SolveResult(Status.UNKNOWN, reason=UnknownReason(UnknownKind.INCOMPLETE, "mbqi"))
    monkeypatch.setattr(PositionSolver, "check", lambda self, problem: undecided)
    assert_typed(eager.check(commuting), UnknownKind.INCOMPLETE)


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


# ----------------------------------------------------------------------
# Names the solver makes up never capture a user variable
# ----------------------------------------------------------------------
def test_user_variable_named_like_a_literal_variable():
    """Normalisation names literal variables ``_lit<n>``; a user variable of
    that name keeps its own constraints (it used to share ``"a"``'s)."""
    from repro.smtlib import run_script

    script = """
        (declare-const x String)
        (declare-const {name} String)
        (assert (str.in_re {name} (re.+ (str.to_re "b"))))
        (assert (= x (str.++ "a" {name})))
        (check-sat)
        (get-model)
    """
    for name in ("_lit0", "y"):
        outputs = run_script(script.format(name=name), config=SolverConfig(timeout=30.0))
        assert outputs[0] == "sat", name
        assert '(define-fun x () String "ab")' in outputs[1]


@pytest.mark.parametrize("index", [1, 2, 3])
def test_user_variable_named_like_an_empty_str_at_target(index):
    """An empty ``str.at`` target becomes a fresh ``_eps<n>`` variable; a
    user variable of that name is skipped, not overwritten with ε."""
    name = f"_eps{index}"
    problem = Problem(alphabet=tuple("ab"))
    problem.add(WordEquation(term("x"), ()))
    problem.add(RegexMembership(name, "b+"))
    problem.add(StrAtAtom(StringVar("x"), term(name), LinExpr.constant(0), positive=False))
    assert_verified_sat(problem, solve(problem))


def test_model_lists_exactly_the_problem_variables():
    problem = Problem(alphabet=tuple("ab"))
    problem.add(WordEquation(term("x"), term(lit("a"), "y")))
    problem.add(PrefixOf(term(lit("b")), term("z"), positive=True))
    result = solve(problem)
    assert_verified_sat(problem, result)
    assert set(result.model.strings) == set(problem.string_variables()) == {"x", "y", "z"}
