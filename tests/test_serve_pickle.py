"""Picklability audit: everything that crosses the worker-process boundary.

The serve layer ships :class:`~repro.serve.protocol.JobSpec` objects into
``ProcessPoolExecutor`` workers and :class:`~repro.serve.protocol.JobOutcome`
objects back; the solver-side values they summarise (``SolveResult``,
``StringModel``, ``UnknownReason``, parsed problems) must survive a
pickle round-trip unchanged, or a future refactor could silently break
the fleet (e.g. a closure or lock smuggled onto a result object).
"""

import pickle

import pytest

from repro import (
    Session,
    SolverConfig,
    Status,
    UnknownKind,
    UnknownReason,
    WordEquation,
    lit,
    term,
)
from repro.serve.protocol import JobOutcome, JobSpec, pad_outcome
from repro.smtlib import parse_problem

SAT_SCRIPT = '(set-logic QF_S)(declare-const x String)(assert (= x "ab"))(check-sat)'
UNSAT_SCRIPT = (
    '(set-logic QF_S)(declare-const x String)'
    '(assert (= x "a"))(assert (= x "b"))(check-sat)'
)


def _roundtrip(value):
    return pickle.loads(pickle.dumps(value))


def test_unknown_reason_roundtrip():
    reason = UnknownReason(UnknownKind.TIMEOUT, stage="solve", detail="budget gave out")
    back = _roundtrip(reason)
    assert back.kind == reason.kind
    assert back.stage == reason.stage
    assert back.detail == reason.detail
    assert str(back) == str(reason)


def test_sat_result_and_model_roundtrip():
    session = Session(config=SolverConfig(timeout=30.0))
    session.add(WordEquation(term("x"), term(lit("ab"))))
    result = session.check()
    assert result.status is Status.SAT
    back = _roundtrip(result)
    assert back.status is Status.SAT
    assert back.model is not None
    assert back.model.strings == result.model.strings
    assert back.model.integers == result.model.integers
    assert back.stats == result.stats
    # The model alone must also travel (responses may strip the result).
    model = _roundtrip(result.model)
    assert model.to_smtlib() == result.model.to_smtlib()


def test_unsat_result_roundtrip():
    session = Session(config=SolverConfig(timeout=30.0))
    session.add(WordEquation(term("x"), term(lit("a"))))
    session.add(WordEquation(term("x"), term(lit("b"))))
    result = session.check()
    assert result.status is Status.UNSAT
    back = _roundtrip(result)
    assert back.status is Status.UNSAT
    assert back.model is None


def test_unknown_result_roundtrip():
    session = Session(config=SolverConfig(timeout=30.0))
    session.add(WordEquation(term("x"), term(lit("ab"))))
    result = session.check(timeout=0.0)
    assert result.status in (Status.TIMEOUT, Status.UNKNOWN)
    back = _roundtrip(result)
    assert back.status is result.status
    assert isinstance(back.reason, UnknownReason)
    assert back.reason.kind == result.reason.kind
    assert str(back.reason) == str(result.reason)


@pytest.mark.parametrize("script", [SAT_SCRIPT, UNSAT_SCRIPT])
def test_parsed_problem_roundtrip(script):
    problem = parse_problem(script)
    back = _roundtrip(problem)
    # Problems print canonically; equality of the canonical form is the
    # round-trip check the dedup layer itself relies on.
    from repro.smtlib import problem_to_smtlib

    assert problem_to_smtlib(back) == problem_to_smtlib(problem)


def test_job_spec_roundtrip():
    spec = JobSpec(
        script=SAT_SCRIPT,
        name="audit",
        deadline=123.5,
        max_steps=1000,
        attempt=1,
        inject=({"stage": "enter:solve", "at": 1, "action": "raise"},),
    )
    back = _roundtrip(spec)
    assert back == spec


def test_job_outcome_roundtrip():
    outcome = pad_outcome(JobOutcome(), 2, "worker died mid-job")
    outcome.stats["serve_warm_seeded"] = 5
    back = _roundtrip(outcome)
    assert back.verdicts == outcome.verdicts
    assert back.reasons == outcome.reasons
    assert back.stats == outcome.stats


def test_outcome_from_live_run_roundtrip():
    """A real worker-side outcome (the actual boundary payload) pickles."""
    from repro.serve.workers import run_job

    spec = JobSpec(script=UNSAT_SCRIPT, name="live")
    outcome = run_job(spec)
    assert outcome.verdicts == ["unsat"]
    back = _roundtrip(outcome)
    assert back.verdicts == ["unsat"]
    assert back.output == outcome.output
    assert back.stats == outcome.stats
