"""Bounded-time solving: the budget layer's user-visible contract.

Three properties carry the robustness story:

* **promptness** — an adversarial instance checked under timeout ``t``
  returns within ``2·t`` (cooperative checkpoints reach every exploding
  loop: subset construction, noodlification, the reduction case product,
  the CDCL search, the LIA presolve);
* **truthful reasons** — an undecided result carries a structured
  :class:`repro.UnknownReason` whose kind and stage name where the budget
  actually gave out (no bare ``"unknown"`` strings);
* **interrupt-safe sessions** — a session that timed out or was
  interrupted mid-check stays usable, and a follow-up check with a larger
  budget answers exactly what a fresh solver would.

Deterministic variants (step limits, injectable clocks) complement the
wall-clock tests so the suite does not hinge on machine speed.
"""

import time

import pytest

from repro import (
    Budget,
    BudgetExceeded,
    LengthConstraint,
    PositionSolver,
    RegexMembership,
    Session,
    SolverConfig,
    Status,
    UnknownKind,
    UnknownReason,
    WordEquation,
    lit,
    str_len,
    term,
)
from repro.lia import ge
from repro.strings.ast import IndexOfAtom, Problem
from repro.lia.terms import LinExpr
from repro.testing import FaultInjector, FaultSpec, InjectedFault


#: generous slack over the contractual 2·t for CI machines under load
def _within(elapsed: float, t: float) -> bool:
    return elapsed <= max(2 * t, t + 1.0)


# ----------------------------------------------------------------------
# The adversarial mini-corpus: each instance explodes in a different stage
# ----------------------------------------------------------------------
def _blowup_automata_atoms():
    # Determinizing (a|b)*a(a|b)^n needs 2^n subsets; the negative
    # membership forces the complement, i.e. full subset construction.
    pattern = "(a|b)*a" + "(a|b)" * 18
    return [
        RegexMembership("x", pattern, positive=False),
        RegexMembership("x", "(ab)*", positive=True),
        LengthConstraint(ge(str_len("x"), 40)),
    ]


def _noodle_chain_atoms():
    # Overlapping Levi alignments: each equation aligns against the others
    # through shared variables, and the length bound forces deep splits.
    atoms = [
        WordEquation(term("x", "y", "x"), term("y", "x", "y")),
        WordEquation(term("y", "z", "y"), term("z", "y", "z")),
        WordEquation(term("z", "w", "z"), term("w", "z", "w")),
        LengthConstraint(ge(str_len("x"), 24)),
    ]
    atoms.append(RegexMembership("w", "(a|b)(a|b)*", positive=True))
    return atoms


def _reduction_product_atoms():
    # Each indexof contributes up to 4 reduction cases; eight of them max
    # out the case product while staying within max_reduction_cases.
    atoms = [
        RegexMembership("h", "(a|b)*", positive=True),
        LengthConstraint(ge(str_len("h"), 12)),
    ]
    for i in range(8):
        atoms.append(
            IndexOfAtom(
                result=LinExpr.var(f"i{i}"),
                haystack=term("h"),
                needle=term(lit("ab")),
                offset=LinExpr.constant(i),
            )
        )
    return atoms


_ADVERSARIAL = [
    ("automata-blowup", _blowup_automata_atoms),
    ("noodle-chain", _noodle_chain_atoms),
    ("reduction-product", _reduction_product_atoms),
]


@pytest.mark.parametrize("name,build", _ADVERSARIAL, ids=[n for n, _ in _ADVERSARIAL])
def test_adversarial_instances_return_within_twice_the_budget(name, build):
    t = 0.1
    solver = PositionSolver(SolverConfig(timeout=t))
    problem = Problem(atoms=build(), alphabet=("a", "b"))
    started = time.monotonic()
    result = solver.check(problem)
    elapsed = time.monotonic() - started
    assert _within(elapsed, t), f"{name}: {elapsed:.2f}s blows the 2·{t}s bound"
    if result.status in (Status.UNKNOWN, Status.TIMEOUT):
        reason = result.reason
        assert isinstance(reason, UnknownReason), f"{name}: untyped reason {reason!r}"
        assert reason.stage, f"{name}: reason lacks a stage: {reason}"
        if result.status is Status.TIMEOUT:
            assert reason.kind is UnknownKind.TIMEOUT
            assert reason.elapsed is not None
        # the rendering is the machine-readable form users grep for
        assert str(reason).startswith(reason.kind.value + "@")


def test_dense_simplex_pivots_return_within_twice_the_budget():
    # Three pairwise-distinct variables without the distinct shortcut: the
    # ``A^III`` tableaux are dense enough that one pivot costs
    # milliseconds, so the pivot loop must checkpoint.
    t = 1.0
    problem = Problem(alphabet=("a", "b"), name="distinct-3")
    for a, b in (("x", "y"), ("x", "z"), ("y", "z")):
        problem.add(WordEquation(term(a), term(b), positive=False))
    solver = PositionSolver(SolverConfig(distinct_shortcut=False, timeout=t))
    started = time.monotonic()
    result = solver.check(problem)
    elapsed = time.monotonic() - started
    assert _within(elapsed, t), f"distinct-3: {elapsed:.2f}s blows the 2·{t}s bound"
    assert result.status in (Status.SAT, Status.TIMEOUT), result.status


def test_timeout_result_reports_stage_stats():
    solver = PositionSolver(SolverConfig(timeout=0.05))
    problem = Problem(atoms=_blowup_automata_atoms(), alphabet=("a", "b"))
    result = solver.check(problem)
    assert result.stats.get("budget_steps", 0) > 0
    assert any(key.startswith("steps.") for key in result.stats)


# ----------------------------------------------------------------------
# Deterministic budgets: step limits and injected clocks
# ----------------------------------------------------------------------
def test_step_limit_is_deterministic_and_machine_independent():
    problem = Problem(atoms=_blowup_automata_atoms(), alphabet=("a", "b"))
    results = [
        PositionSolver(SolverConfig(timeout=None, max_steps=2000)).check(problem)
        for _ in range(2)
    ]
    for result in results:
        assert result.status is Status.UNKNOWN
        assert isinstance(result.reason, UnknownReason)
        assert result.reason.kind is UnknownKind.STEP_LIMIT
    # same step budget -> same cut-off point (elapsed wall time may differ)
    first, second = (r.reason for r in results)
    assert (first.stage, first.steps) == (second.stage, second.steps)


def test_injected_clock_times_out_without_waiting():
    ticks = iter(range(10_000))

    def clock():
        return float(next(ticks))  # one "second" per consultation

    budget = Budget(5.0, clock=clock, check_interval=1)
    with pytest.raises(BudgetExceeded) as caught:
        while True:
            budget.checkpoint("synthetic")
    assert caught.value.reason.kind is UnknownKind.TIMEOUT
    assert caught.value.reason.stage == "synthetic"


def test_budget_timeout_surface():
    # the baseline solvers and the brute-force oracle time themselves with
    # a plain Budget(timeout)
    watch = Budget(30.0)
    assert watch.timeout == 30.0
    assert not watch.expired()
    assert watch.elapsed() >= 0.0
    assert not Budget(None).expired()
    ticks = iter([0.0, 1.0, 6.0])
    late = Budget(5.0, clock=lambda: next(ticks))
    assert not late.expired()
    assert late.expired()


# ----------------------------------------------------------------------
# Sessions survive running out of budget mid-check
# ----------------------------------------------------------------------
def _sat_atoms():
    return [
        RegexMembership("x", "(ab)*", positive=True),
        LengthConstraint(ge(str_len("x"), 4)),
    ]


def _unsat_atoms():
    # words of (ab)* never contain "aa"
    return [
        RegexMembership("x", "(ab)*", positive=True),
        RegexMembership("x", "(a|b)*aa(a|b)*", positive=True),
    ]


def test_session_usable_after_timeout_on_pushed_adversarial_frame():
    session = Session(config=SolverConfig(timeout=30.0), alphabet=("a", "b"))
    for atom in _sat_atoms():
        session.add(atom)
    session.push()
    for atom in _blowup_automata_atoms():
        session.add(atom)
    first = session.check(timeout=0.05)
    assert first.status in (Status.TIMEOUT, Status.UNKNOWN)
    assert isinstance(first.reason, UnknownReason)
    # pop the blowup frame: the same session must now decide the base
    # assertions exactly like a fresh solver would
    session.pop()
    assert session.check().status is Status.SAT
    fresh = Session(config=SolverConfig(timeout=30.0), alphabet=("a", "b"))
    for atom in _sat_atoms():
        fresh.add(atom)
    assert fresh.check().status is Status.SAT


def test_timeout_then_larger_budget_answers_correctly():
    # same session, same problem: tiny budget -> timeout; real budget -> the
    # right answer, identical to a fresh solver's
    for atoms, expected in ((_sat_atoms(), Status.SAT), (_unsat_atoms(), Status.UNSAT)):
        session = Session(config=SolverConfig(timeout=30.0), alphabet=("a", "b"))
        for atom in atoms:
            session.add(atom)
        first = session.check(budget=Budget(timeout=None, max_steps=5))
        assert first.status is Status.UNKNOWN
        assert first.reason.kind is UnknownKind.STEP_LIMIT
        second = session.check()
        assert second.status is expected
        fresh = Session(config=SolverConfig(timeout=30.0), alphabet=("a", "b"))
        for atom in atoms:
            fresh.add(atom)
        assert fresh.check().status is expected


def test_session_survives_keyboard_interrupt_mid_check():
    session = Session(config=SolverConfig(timeout=30.0), alphabet=("a", "b"))
    for atom in _unsat_atoms():
        session.add(atom)
    injector = FaultInjector([FaultSpec("*", at=3, action="interrupt")])
    with pytest.raises(KeyboardInterrupt):
        session.check(budget=Budget(30.0, hook=injector))
    # the interrupt unwound through every engine layer; the session must
    # still answer — and answer correctly
    result = session.check()
    assert result.status is Status.UNSAT


def test_injected_failure_mid_check_yields_internal_error_not_wrong_verdict():
    session = Session(config=SolverConfig(timeout=30.0), alphabet=("a", "b"))
    for atom in _sat_atoms():
        session.add(atom)
    injector = FaultInjector([FaultSpec("*", at=5, action="raise")])
    result = session.check(budget=Budget(30.0, hook=injector))
    assert result.status is Status.UNKNOWN
    assert isinstance(result.reason, UnknownReason)
    assert result.reason.kind is UnknownKind.INTERNAL_ERROR
    assert "InjectedFault" in result.reason.detail
    assert result.stats.get("internal_errors", 0) >= 1
    # recovery: the very next check decides the instance
    assert session.check().status is Status.SAT


def test_per_check_timeout_overrides_config():
    session = Session(config=SolverConfig(timeout=None), alphabet=("a", "b"))
    for atom in _blowup_automata_atoms():
        session.add(atom)
    t = 0.05
    started = time.monotonic()
    result = session.check(timeout=t)
    elapsed = time.monotonic() - started
    assert _within(elapsed, t)
    assert result.status in (Status.TIMEOUT, Status.UNKNOWN)
