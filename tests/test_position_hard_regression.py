"""Regressions on the position-hard commuting/repetition disequalities.

* ``position-hard-comm-0`` / ``position-hard-comm-3`` are the ``(abc)*`` and
  ``a*`` commuting disequalities whose refutation needs genuine cutting
  planes: sound branch-and-bound alone diverges on their pure-inequality
  mod-k conflicts (they regressed to ``unknown`` when the unsound conflict
  cores of the seed were fixed).  They must report ``unsat`` — and do so
  well inside the configured timeout.
* ``position-hard-rep-1`` is the soundness case of the substitution-
  provenance fix: the seed answered ``unsat`` although the instance is
  satisfiable.  It must stay SAT with a verifying model.

All three must get there without a branch-and-bound give-up
(``bb_give_ups`` in the result stats).
"""

import pytest

from repro.benchgen import position_hard
from repro.solver import PositionSolver, SolverConfig
from repro.solver.result import Status
from repro.strings.semantics import eval_problem

_COMM = {name: (problem, expected)
         for name, problem, expected in position_hard.commuting_disequalities(4, seed=11)}
_REP = {name: (problem, expected)
        for name, problem, expected in position_hard.repetition_disequalities(2, seed=12)}


@pytest.mark.parametrize("name", ["position-hard-comm-0", "position-hard-comm-3"])
def test_commuting_disequalities_are_refuted(name):
    problem, expected = _COMM[name]
    assert expected == "unsat"
    result = PositionSolver(SolverConfig(timeout=25.0)).check(problem)
    assert result.status is Status.UNSAT, (
        f"{name} must be refuted by the cutting-plane integer core, "
        f"got {result.status} ({result.reason})"
    )
    # No branch-and-bound give-up on the way: without the Parikh cycle-
    # support literals the final integer checks dive into mod-3 polyhedra
    # until ResourceLimit.
    assert result.stats["bb_give_ups"] == 0


def test_repetition_disequality_rep1_stays_sound():
    problem, _expected = _REP["position-hard-rep-1"]
    result = PositionSolver(SolverConfig(timeout=25.0)).check(problem)
    assert result.status is Status.SAT
    assert eval_problem(problem, result.model.strings, result.model.integers)
    assert result.stats["bb_give_ups"] == 0


def test_satisfiable_commuting_disequalities_still_sat():
    for name in ("position-hard-comm-1", "position-hard-comm-2"):
        problem, expected = _COMM[name]
        assert expected == "sat"
        result = PositionSolver(SolverConfig(timeout=25.0)).check(problem)
        assert result.status is Status.SAT
        assert eval_problem(problem, result.model.strings, result.model.integers)
