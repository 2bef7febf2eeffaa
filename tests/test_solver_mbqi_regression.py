"""Regression: the incremental MBQI loop decides the ¬contains families.

The ¬contains refinement loop runs on one incremental LIA assertion stack
per branch, one lemma per round.  Each instance must get its expected
verdict, and SAT models must verify.  ``test_incremental_matches_scratch``
keeps its established test id; the expected verdicts are the reference.
"""

import pytest

from repro.benchgen import position_hard
from repro.lia import ge
from repro.solver import PositionSolver, SolverConfig
from repro.solver.result import Status
from repro.strings.ast import (
    Contains,
    LengthConstraint,
    Problem,
    RegexMembership,
    str_len,
    term,
)
from repro.strings.semantics import eval_problem


def _chain(k, lang="a*", min_len=2):
    """k chained ¬contains predicates: forces one MBQI lemma per predicate."""
    problem = Problem(alphabet=tuple("abc"), name=f"nc-chain-{k}")
    names = [f"x{i}" for i in range(k + 1)]
    for name in names:
        problem.add(RegexMembership(name, lang))
    for i in range(k):
        problem.add(Contains(term(names[i + 1]), term(names[i]), positive=False))
    problem.add(LengthConstraint(ge(str_len(names[0]), min_len)))
    return problem


def _mbqi_instances():
    instances = [("chain-2", _chain(2), "sat")]
    for name, problem, expected in position_hard.primitive_not_contains(2, seed=13):
        instances.append((name, problem, expected))
    return instances


@pytest.mark.parametrize(
    "name,problem,expected",
    _mbqi_instances(),
    ids=[name for name, _p, _e in _mbqi_instances()],
)
def test_incremental_matches_scratch(name, problem, expected):
    result = PositionSolver(SolverConfig(timeout=30.0)).check(problem)
    assert result.status.value == expected
    if result.status is Status.SAT:
        assert eval_problem(problem, result.model.strings, result.model.integers)


def test_incremental_uses_multiple_rounds_on_chains():
    """The chain family genuinely exercises the solve–refine loop."""
    result = PositionSolver(SolverConfig(timeout=30.0)).check(_chain(3))
    assert result.status is Status.SAT
    assert result.lia_queries >= 4
    assert result.stats.get("restarts", 0) >= result.lia_queries - 1
