"""Tests for the extended string functions (substr/indexof/replace).

Three layers:

* the concrete SMT-LIB 2.6 semantics helpers (``str_substr`` & co.) against
  the edge-case table of the spec,
* per-function unit tests of the reduction through the full solver
  (in-range / out-of-range / empty-needle cases, both polarities, unsat
  cores over the input atoms),
* randomized differential checks of the solver against the brute-force
  oracle, which evaluates the extended atoms directly via
  :mod:`repro.strings.semantics` (no reduction involved).
"""

import random

import pytest

from repro import (
    IndexOfAtom,
    LengthConstraint,
    Problem,
    PositionSolver,
    RegexMembership,
    ReplaceAtom,
    Session,
    SolverConfig,
    Status,
    SubstrAtom,
    WordEquation,
    lit,
    str_len,
    term,
)
from repro.lia import LinExpr, eq, ge, le, ne
from repro.solver import brute_force_check
from repro.strings.reductions import (
    ReductionError,
    needs_reduction,
    reduce_problem,
)
from repro.strings.semantics import (
    eval_problem,
    str_indexof,
    str_replace,
    str_substr,
)

CONFIG = SolverConfig(timeout=30.0)


def check(problem):
    return PositionSolver(CONFIG).check(problem)


def const(value):
    return LinExpr.constant(value)


# ----------------------------------------------------------------------
# Concrete semantics (the SMT-LIB 2.6 edge-case table)
# ----------------------------------------------------------------------
def test_substr_semantics_table():
    assert str_substr("abcde", 1, 2) == "bc"
    assert str_substr("abcde", 0, 5) == "abcde"
    assert str_substr("abcde", 3, 10) == "de"  # length clamps to the end
    assert str_substr("abcde", 5, 1) == ""  # offset == |s| is out of range
    assert str_substr("abcde", -1, 2) == ""  # negative offset
    assert str_substr("abcde", 2, 0) == ""  # non-positive length
    assert str_substr("abcde", 2, -3) == ""
    assert str_substr("", 0, 1) == ""


def test_indexof_semantics_table():
    assert str_indexof("abab", "ab", 0) == 0
    assert str_indexof("abab", "ab", 1) == 2
    assert str_indexof("abab", "ba", 0) == 1
    assert str_indexof("abab", "bb", 0) == -1
    assert str_indexof("abab", "", 2) == 2  # empty needle: the offset
    assert str_indexof("abab", "", 4) == 4  # ... up to |s| inclusive
    assert str_indexof("abab", "ab", -1) == -1  # invalid offsets
    assert str_indexof("abab", "ab", 5) == -1
    assert str_indexof("abab", "", 5) == -1


def test_replace_semantics_table():
    assert str_replace("abab", "ab", "c") == "cab"  # first occurrence only
    assert str_replace("abab", "bb", "c") == "abab"  # absent: unchanged
    assert str_replace("abab", "", "c") == "cabab"  # empty needle: prepend
    assert str_replace("", "", "c") == "c"
    assert str_replace("abab", "abab", "") == ""


# ----------------------------------------------------------------------
# str.substr through the solver
# ----------------------------------------------------------------------
def test_substr_constant_in_range():
    problem = Problem(alphabet=tuple("ab"))
    problem.add(SubstrAtom(term("t"), term(lit("abab")), const(1), const(2)))
    result = check(problem)
    assert result.status is Status.SAT
    assert result.model.strings["t"] == "ba"


def test_substr_length_clamps_to_the_end():
    problem = Problem(alphabet=tuple("ab"))
    problem.add(SubstrAtom(term("t"), term(lit("abab")), const(2), const(10)))
    result = check(problem)
    assert result.status is Status.SAT
    assert result.model.strings["t"] == "ab"


@pytest.mark.parametrize("offset,length", [(5, 1), (-1, 2), (0, 0), (0, -2), (4, 1)])
def test_substr_out_of_range_is_empty(offset, length):
    problem = Problem(alphabet=tuple("ab"))
    problem.add(SubstrAtom(term("t"), term(lit("abab")), const(offset), const(length)))
    problem.add(LengthConstraint(ge(str_len("t"), 1)))
    assert check(problem).status is Status.UNSAT


def test_substr_symbolic_haystack():
    problem = Problem(alphabet=tuple("ab"))
    problem.add(RegexMembership("x", "(ab)*"))
    problem.add(LengthConstraint(ge(str_len("x"), 4)))
    problem.add(SubstrAtom(term("t"), term("x"), const(1), const(2)))
    result = check(problem)
    assert result.status is Status.SAT
    model = result.model.strings
    assert model["t"] == str_substr(model["x"], 1, 2) == "ba"


def test_substr_symbolic_offset():
    problem = Problem(alphabet=tuple("ab"))
    problem.add(RegexMembership("x", "aab*"))
    problem.add(SubstrAtom(term("t"), term("x"), LinExpr.var("i"), const(1)))
    problem.add(WordEquation(term("t"), term(lit("b"))))
    result = check(problem)
    assert result.status is Status.SAT
    model = result.model
    assert str_substr(model.strings["x"], model.integers["i"], 1) == "b"


def test_substr_negative_polarity():
    problem = Problem(alphabet=tuple("ab"))
    problem.add(RegexMembership("t", "a"))
    problem.add(
        SubstrAtom(term("t"), term(lit("ab")), const(0), const(1), positive=False)
    )
    assert check(problem).status is Status.UNSAT


# ----------------------------------------------------------------------
# str.indexof through the solver
# ----------------------------------------------------------------------
def test_indexof_first_occurrence():
    problem = Problem(alphabet=tuple("ab"))
    problem.add(IndexOfAtom(LinExpr.var("k"), term(lit("abab")), term(lit("ba")), const(0)))
    problem.add(LengthConstraint(eq(LinExpr.var("k"), 1)))
    assert check(problem).status is Status.SAT
    # ... and any other position is refuted: the index is *the first*.
    problem = Problem(alphabet=tuple("ab"))
    problem.add(IndexOfAtom(LinExpr.var("k"), term(lit("abab")), term(lit("ba")), const(0)))
    problem.add(LengthConstraint(eq(LinExpr.var("k"), 3)))
    assert check(problem).status is Status.UNSAT


def test_indexof_not_found_is_minus_one():
    problem = Problem(alphabet=tuple("ab"))
    problem.add(IndexOfAtom(LinExpr.var("k"), term(lit("aaa")), term(lit("b")), const(0)))
    problem.add(LengthConstraint(eq(LinExpr.var("k"), -1)))
    assert check(problem).status is Status.SAT
    problem = Problem(alphabet=tuple("ab"))
    problem.add(IndexOfAtom(LinExpr.var("k"), term(lit("aaa")), term(lit("b")), const(0)))
    problem.add(LengthConstraint(ge(LinExpr.var("k"), 0)))
    assert check(problem).status is Status.UNSAT


def test_indexof_empty_needle_returns_the_offset():
    problem = Problem(alphabet=tuple("ab"))
    problem.add(IndexOfAtom(LinExpr.var("k"), term(lit("ab")), (), const(1)))
    problem.add(LengthConstraint(eq(LinExpr.var("k"), 1)))
    assert check(problem).status is Status.SAT
    problem = Problem(alphabet=tuple("ab"))
    problem.add(IndexOfAtom(LinExpr.var("k"), term(lit("ab")), (), const(1)))
    problem.add(LengthConstraint(ne(LinExpr.var("k"), 1)))
    assert check(problem).status is Status.UNSAT


def test_indexof_out_of_range_offset():
    for offset in (-1, 5):
        problem = Problem(alphabet=tuple("ab"))
        problem.add(
            IndexOfAtom(LinExpr.var("k"), term(lit("ab")), term(lit("a")), const(offset))
        )
        problem.add(LengthConstraint(eq(LinExpr.var("k"), -1)))
        assert check(problem).status is Status.SAT


def test_indexof_symbolic_haystack_forces_structure():
    problem = Problem(alphabet=tuple("ab"))
    problem.add(RegexMembership("x", "(a|b)*"))
    problem.add(IndexOfAtom(LinExpr.var("k"), term("x"), term(lit("b")), const(0)))
    problem.add(LengthConstraint(eq(LinExpr.var("k"), 2)))
    result = check(problem)
    assert result.status is Status.SAT
    assert str_indexof(result.model.strings["x"], "b", 0) == 2


def test_indexof_variable_needle_flat_languages():
    # A variable needle leaves the regular encoding and exercises the
    # ¬contains MBQI side condition (flat languages, so it stays exact).
    problem = Problem(alphabet=tuple("ab"))
    problem.add(RegexMembership("x", "(ab)*"))
    problem.add(RegexMembership("n", "a*"))
    problem.add(LengthConstraint(eq(str_len("n"), 1)))
    problem.add(IndexOfAtom(LinExpr.var("k"), term("x"), term("n"), const(0)))
    problem.add(LengthConstraint(eq(LinExpr.var("k"), 0)))
    problem.add(LengthConstraint(ge(str_len("x"), 2)))
    result = check(problem)
    assert result.status is Status.SAT
    model = result.model
    assert str_indexof(model.strings["x"], model.strings["n"], 0) == 0


# ----------------------------------------------------------------------
# str.replace through the solver
# ----------------------------------------------------------------------
def test_replace_first_occurrence_only():
    problem = Problem(alphabet=tuple("ab"))
    problem.add(ReplaceAtom(term("t"), term(lit("abab")), term(lit("ab")), term(lit("b"))))
    result = check(problem)
    assert result.status is Status.SAT
    assert result.model.strings["t"] == "bab"


def test_replace_absent_needle_keeps_haystack():
    problem = Problem(alphabet=tuple("ab"))
    problem.add(ReplaceAtom(term("t"), term(lit("aa")), term(lit("b")), term(lit("a"))))
    problem.add(WordEquation(term("t"), term(lit("aa"))))
    assert check(problem).status is Status.SAT


def test_replace_empty_needle_prepends():
    problem = Problem(alphabet=tuple("ab"))
    problem.add(ReplaceAtom(term("t"), term(lit("aa")), (), term(lit("b"))))
    problem.add(WordEquation(term("t"), term(lit("baa"))))
    assert check(problem).status is Status.SAT
    problem = Problem(alphabet=tuple("ab"))
    problem.add(ReplaceAtom(term("t"), term(lit("aa")), (), term(lit("b"))))
    problem.add(WordEquation(term("t"), term(lit("aa"))))
    assert check(problem).status is Status.UNSAT


def test_replace_fixed_point_means_needle_absent():
    # t = replace(x, "a", "b") with t = x forces "a" not to occur in x:
    # replacing a first occurrence would change the character.
    problem = Problem(alphabet=tuple("ab"))
    problem.add(RegexMembership("x", "(a|b)*"))
    problem.add(ReplaceAtom(term("x"), term("x"), term(lit("a")), term(lit("b"))))
    problem.add(LengthConstraint(ge(str_len("x"), 2)))
    result = check(problem)
    assert result.status is Status.SAT
    assert "a" not in result.model.strings["x"]


def test_replace_symbolic_round_trip():
    problem = Problem(alphabet=tuple("ab"))
    problem.add(RegexMembership("x", "(ab)+"))
    problem.add(ReplaceAtom(term("t"), term("x"), term(lit("ab")), term(lit("b"))))
    problem.add(LengthConstraint(ge(str_len("x"), 4)))
    result = check(problem)
    assert result.status is Status.SAT
    model = result.model.strings
    assert model["t"] == str_replace(model["x"], "ab", "b")


# ----------------------------------------------------------------------
# Reduction mechanics: expansion, model hygiene
# ----------------------------------------------------------------------
def test_needs_reduction():
    plain = Problem(alphabet=tuple("ab"))
    plain.add(WordEquation(term("x"), term(lit("a"))))
    assert not needs_reduction(plain)
    extended = Problem(alphabet=tuple("ab"))
    extended.add(SubstrAtom(term("t"), term("x"), const(0), const(1)))
    assert needs_reduction(extended)


def test_reduce_problem_case_counts():
    problem = Problem(alphabet=tuple("ab"))
    problem.add(SubstrAtom(term("t"), term("x"), const(0), const(1)))
    assert len(reduce_problem(problem)) == 1
    problem.add(IndexOfAtom(LinExpr.var("k"), term("x"), term("n"), const(0)))
    assert len(reduce_problem(problem)) == 4
    problem.add(ReplaceAtom(term("r"), term("x"), term("n"), term(lit("b"))))
    assert len(reduce_problem(problem)) == 12
    with pytest.raises(ReductionError):
        reduce_problem(problem, max_cases=8)


def test_case_cap_is_the_reduction_default():
    # Four str.indexof atoms expand into 4^4 = 256 cases, over the 64-case
    # cap: the bare reduction refuses, and the solver answers unknown at
    # the reduce stage.
    problem = Problem(alphabet=tuple("ab"))
    for index in range(4):
        problem.add(IndexOfAtom(LinExpr.var(f"k{index}"), term("x"), term(f"n{index}"), const(0)))
    with pytest.raises(ReductionError):
        reduce_problem(problem)
    session = Session(config=CONFIG, alphabet=tuple("ab"))
    for atom in problem.atoms:
        session.add(atom)
    result = session.check()
    assert result.status is Status.UNKNOWN
    assert result.reason.stage == "reduce"


def test_models_do_not_leak_reduction_variables():
    problem = Problem(alphabet=tuple("ab"))
    problem.add(RegexMembership("x", "(ab)*"))
    problem.add(LengthConstraint(ge(str_len("x"), 2)))
    problem.add(SubstrAtom(term("t"), term("x"), const(0), const(1)))
    result = check(problem)
    assert result.status is Status.SAT
    assert not any(name.startswith(".r") for name in result.model.strings)


def test_unsat_core_maps_back_to_input_atoms():
    session = Session(config=CONFIG, alphabet=tuple("ab"))
    session.add(RegexMembership("bystander", "(ab)*"), name="bystander")
    session.add(RegexMembership("x", "(ab)*"), name="mx")
    session.add(SubstrAtom(term("t"), term("x"), const(0), const(1)), name="def-t")
    session.add(LengthConstraint(ge(str_len("x"), 2)), name="xlong")
    session.add(WordEquation(term("t"), term(lit("b"))), name="t-is-b")
    result = session.check()
    assert result.status is Status.UNSAT
    core = session.unsat_core()
    # x ∈ (ab)* starts with "a" unless empty, and an empty x makes t empty:
    # |x| >= 2 is droppable.
    assert set(core) == {"mx", "def-t", "t-is-b"}


def test_extended_atoms_in_session_push_pop():
    session = Session(config=CONFIG, alphabet=tuple("ab"))
    session.add(RegexMembership("x", "(ab)*"))
    session.add(SubstrAtom(term("t"), term("x"), const(0), const(2)))
    session.add(LengthConstraint(ge(str_len("x"), 2)))
    assert session.check().status is Status.SAT
    session.push()
    session.add(WordEquation(term("t"), term(lit("ba"))))
    assert session.check().status is Status.UNSAT
    session.pop()
    assert session.check().status is Status.SAT


# ----------------------------------------------------------------------
# Differential testing vs the brute-force oracle
# ----------------------------------------------------------------------
def _random_term(rng, variables):
    elements = []
    for _ in range(rng.randint(1, 2)):
        if rng.random() < 0.5:
            elements.append(variables[rng.randrange(len(variables))])
        else:
            word = "".join(rng.choice("ab") for _ in range(rng.randint(0, 2)))
            elements.append(lit(word))
    return term(*elements)


def _random_extended_problem(rng):
    problem = Problem(alphabet=tuple("ab"))
    variables = ["x", "y"]
    # keep the search space finite so the oracle can enumerate it
    problem.add(RegexMembership("x", "(a|b){0,3}"))
    problem.add(RegexMembership("y", "(a|b){0,2}"))
    kind = rng.randrange(3)
    if kind == 0:
        problem.add(
            SubstrAtom(
                term("y"),
                _random_term(rng, variables),
                const(rng.randint(-1, 3)),
                const(rng.randint(-1, 3)),
                positive=rng.random() < 0.8,
            )
        )
    elif kind == 1:
        problem.add(
            IndexOfAtom(
                LinExpr.var("k"),
                _random_term(rng, variables),
                term(lit("".join(rng.choice("ab") for _ in range(rng.randint(0, 2))))),
                const(rng.randint(-1, 3)),
            )
        )
        problem.add(LengthConstraint(eq(LinExpr.var("k"), rng.randint(-1, 3))))
    else:
        problem.add(
            ReplaceAtom(
                term("y"),
                _random_term(rng, ["x"]),
                term(lit("".join(rng.choice("ab") for _ in range(rng.randint(0, 2))))),
                term(lit(rng.choice(["", "a", "b"]))),
                positive=rng.random() < 0.8,
            )
        )
    return problem


@pytest.mark.parametrize("seed", range(40))
def test_differential_vs_brute_force(seed):
    rng = random.Random(seed)
    problem = _random_extended_problem(rng)
    oracle = brute_force_check(problem, max_length=4, integer_bounds=(-2, 5))
    verdict = check(problem)
    if oracle.status is Status.SAT:
        assert verdict.status in (Status.SAT, Status.UNKNOWN, Status.TIMEOUT), (
            f"solver {verdict.status} but oracle found {oracle.model.strings}"
        )
        if verdict.status is Status.SAT:
            assert eval_problem(
                problem, verdict.model.strings, verdict.model.integers
            )
    elif oracle.status is Status.UNSAT:
        assert verdict.status in (Status.UNSAT, Status.UNKNOWN, Status.TIMEOUT)
    if verdict.status is Status.SAT:
        # any SAT must be a real model regardless of the oracle's verdict
        assert eval_problem(problem, verdict.model.strings, verdict.model.integers)
