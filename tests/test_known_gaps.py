"""Regression pins for the two known ``unknown`` gaps (ROADMAP carry-overs).

The pipeline workload generates these shapes at scale, so they get pinned
here as exact instances:

* ``gap-levi-3split`` — three structural splits of one haystack with
  shared variables: after substituting the haystack, ``x·ab·y = y·ba·x``
  still repeats ``x`` and ``y`` on both sides, and the stabilization loop
  for repeated variables does not converge on it (the decomposition gives
  up with reason ``repeated variable``);
* ``gap-var-needle-*`` — variable-needle ``indexof``/``replace`` over
  non-flat haystack languages: past the MBQI flatness limit.

The contract under test: the solver answers a *structured* unknown
(typed :class:`~repro.budget.UnknownReason`) — never a wrong verdict,
never an untyped excuse, never an internal error.  The strict-xfail
twins assert the *correct* decision: when a future PR closes a gap, its
xfail flips to XPASS and fails the suite, forcing the pin (and the
generator's curation rules) to be updated deliberately.
"""

import pytest

from repro.benchgen.pipelines import gap_problems
from repro.budget import UnknownKind, UnknownReason
from repro.solver import PositionSolver, SolverConfig
from repro.solver.result import Status
from repro.strings.semantics import eval_problem

GAPS = {name: (problem, expected) for name, problem, expected in gap_problems()}


def _check(name):
    problem, expected = GAPS[name]
    result = PositionSolver(SolverConfig(timeout=10.0)).check(problem)
    return problem, expected, result


@pytest.mark.parametrize("name", sorted(GAPS))
def test_gap_answers_structured_unknown_never_wrong(name):
    problem, expected, result = _check(name)
    # Never a wrong verdict: a definite answer must match the ground truth
    # (these instances are small enough to decide by hand/enumeration) and
    # a sat must carry a verified model.
    if result.status in (Status.SAT, Status.UNSAT):
        assert result.status.value == expected, (name, result.status, expected)
        if result.status is Status.SAT:
            model = result.model
            assert model is not None
            assert eval_problem(problem, model.strings, model.integers)
        pytest.fail(
            f"{name} now decides ({result.status.value}) — the gap closed: "
            "flip the strict xfail below and update the generator curation"
        )
    # The pinned behaviour: structured unknown, no internal errors.
    assert result.status is Status.UNKNOWN, (name, result.status)
    assert isinstance(result.reason, UnknownReason), (name, result.reason)
    assert result.reason.kind in (
        UnknownKind.INCOMPLETE,
        UnknownKind.FRAGMENT,
        UnknownKind.TIMEOUT,
        UnknownKind.STEP_LIMIT,
    ), (name, result.reason)
    assert result.reason.stage, name
    assert int(result.stats.get("internal_errors", 0)) == 0, result.stats


@pytest.mark.parametrize("name", sorted(GAPS))
@pytest.mark.xfail(strict=True, reason="known gap: decided verdicts flip this to XPASS")
def test_gap_decides_correctly_once_fixed(name):
    problem, expected, result = _check(name)
    assert result.status in (Status.SAT, Status.UNSAT), result.reason
    assert result.status.value == expected


def test_levi_3split_gives_up_on_a_repeated_variable():
    problem, _ = GAPS["gap-levi-3split"]
    result = PositionSolver(SolverConfig(timeout=10.0)).check(problem)
    assert result.status is Status.UNKNOWN
    assert (result.reason.kind, result.reason.stage) == (UnknownKind.INCOMPLETE, "decompose")
    assert result.reason.detail == "decomposition incomplete: repeated variable"


def test_lengths_refute_a_repeated_variable_give_up():
    # x·y = y·x·ab repeats both variables, so its decomposition gives up;
    # |x|+|y| = |y|+|x|+2 has no solution, so the case is unsat anyway.
    # gap-levi-3split (above) has consistent lengths and still gives up.
    from repro import Session, WordEquation, lit, term

    session = Session(config=SolverConfig(timeout=10.0), alphabet=("a", "b"))
    session.add(WordEquation(term("x", "y"), term("y", "x", lit("ab"))))
    assert session.check().status is Status.UNSAT
    # Refuted before the walk that gives up is ever started.
    assert session.statistics()["decomposition_misses"] == 0


def test_lengths_refute_keeps_a_one_length_variable_the_integer_part_reads():
    # |x| = 2 is the only length of x ∈ ab, which enters x = y·z as the
    # constant 2; |x| ≥ 3 reads it, so its constraint stays and refutes.
    from repro import LengthConstraint, RegexMembership, Session, WordEquation, term
    from repro.lia import ge
    from repro.strings.ast import str_len

    session = Session(config=SolverConfig(timeout=10.0), alphabet=("a", "b"))
    session.add(RegexMembership("x", "ab"))
    session.add(WordEquation(term("x"), term("y", "z")))
    session.add(LengthConstraint(ge(str_len("x"), 3)))
    assert session.check().status is Status.UNSAT
    statistics = session.statistics()
    assert statistics["length_refutations"] == 1
    assert statistics["decomposition_misses"] == 0


def test_levi_3split_ground_truth_by_enumeration():
    """Independent evidence for the recorded ground truth: exhaustively
    refute `s = x·ab·y ∧ s = y·ba·x ∧ s = z·aa·z` for every |s| ≤ 8."""
    from itertools import product

    problem, expected = GAPS["gap-levi-3split"]
    assert expected == "unsat"
    witnesses = 0
    for n in range(9):
        for s in ("".join(w) for w in product("ab", repeat=n)):
            for i in range(n - 1):
                if s[i : i + 2] != "ab":
                    continue
                x, y = s[:i], s[i + 2 :]
                if y + "ba" + x != s:
                    continue
                for j in range(n - 1):
                    if s[j : j + 2] == "aa" and s[:j] == s[j + 2 :]:
                        witnesses += 1
    assert witnesses == 0


def test_var_needle_ground_truths_by_enumeration():
    """The sat pins really are sat: check the hand-picked witnesses."""
    from repro.strings.semantics import str_indexof, str_replace

    # gap-var-needle-absent: s = "ba" ∈ (ab|ba)*, n = "aa", indexof = -1
    assert str_indexof("ba", "aa", 0) == -1
    # gap-var-needle-fixpoint: replace("ba", "aa", "bb") is the identity
    assert str_replace("ba", "aa", "bb") == "ba"
