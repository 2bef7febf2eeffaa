"""The differential fuzzer: clean sweeps, failure classification, the
shrink loop, and the injected-fault drill (``src/repro/testing/fuzz.py``).

The drill is the subsystem's acceptance test: a deterministic fault
injected into the engine via :mod:`repro.testing.faults` must be *caught*
by the fuzzer (classified ``crash``), *shrunk* to a locally-minimal
scenario, and emitted as a replayable SMT-LIB repro file — proving the
loop detects real bugs rather than merely re-confirming good verdicts.
"""

import os

import pytest

from repro.budget import UnknownReason
from repro.solver.config import SolverConfig
from repro.solver.result import SolveResult, Status, StringModel
from repro.testing import FaultInjector, FaultSpec
from repro.testing.fuzz import (
    CORE_BYSTANDER,
    CRASH,
    UNKNOWN_MISMATCH,
    UNVERIFIED_MODEL,
    WRONG_VERDICT,
    DifferentialFuzzer,
    default_configs,
    main,
)


def test_default_configs_mirror_the_portfolio():
    configs = default_configs(timeout=1.0)
    assert set(configs) == {"witness", "encoding"}
    assert configs["witness"].distinct_shortcut
    assert not configs["encoding"].distinct_shortcut


def test_clean_sweep_has_no_failures(tmp_path):
    fuzzer = DifferentialFuzzer(repro_dir=str(tmp_path))
    report = fuzzer.run(range(6), budget=0.5)
    assert report.instances == 6
    assert report.checks == 12  # witness and encoding per instance
    assert report.ok, report.summary()
    assert not os.listdir(tmp_path)  # no failures => no repro artifacts
    assert "no disagreements" in report.summary()


def test_unknowns_in_clean_sweeps_are_structured():
    """Gap-bearing scenarios may answer unknown — the sweep counts them
    instead of failing, because every unknown passed the typed-reason
    check (an untyped one would have been a structured-unknown-mismatch)."""
    fuzzer = DifferentialFuzzer()
    report = fuzzer.run(range(10, 16), budget=0.3)
    assert report.ok, report.summary()
    assert report.verdicts.get("unknown", 0) == report.unknowns


# ----------------------------------------------------------------------
# Classification (via result forgery at the _solve seam)
# ----------------------------------------------------------------------
class _ForgingFuzzer(DifferentialFuzzer):
    """Overrides the engine call to return a forged result — the
    classification and shrink logic downstream is the code under test."""

    def __init__(self, forged_result, **kwargs):
        super().__init__(**kwargs)
        self.forged_result = forged_result

    def _solve(self, problem, config, budget):
        self._last_session = None
        return self.forged_result


def _sat_seed():
    # seed 1 is an inversion scenario with ground truth sat
    from repro.benchgen.pipelines import scenario_from_seed

    seed = next(
        s for s in range(20) if scenario_from_seed(s).ground_truth() == "sat"
    )
    return seed


def test_wrong_verdict_is_caught_and_shrunk(tmp_path):
    seed = _sat_seed()
    forged = SolveResult(status=Status.UNSAT)
    fuzzer = _ForgingFuzzer(
        forged, configs={"witness": SolverConfig(timeout=1.0)}, repro_dir=str(tmp_path)
    )
    report = fuzzer.run([seed], budget=0.2)
    kinds = {f.kind for f in report.failures}
    assert WRONG_VERDICT in kinds, report.summary()
    failure = next(f for f in report.failures if f.kind == WRONG_VERDICT)
    # Shrunk to a local minimum: the forged unsat makes every scenario
    # with a sat ground truth fail, so no strictly-smaller candidate may
    # still carry a sat ground truth.
    for candidate in failure.scenario.shrink_candidates():
        if candidate.size() < failure.scenario.size():
            assert candidate.ground_truth() == "unsat", (failure.scenario, candidate)
    assert failure.repro_path is not None and os.path.exists(failure.repro_path)


def test_unverified_model_is_caught():
    seed = _sat_seed()
    forged = SolveResult(status=Status.SAT, model=StringModel(strings={}, integers={}))
    fuzzer = _ForgingFuzzer(forged, configs={"witness": SolverConfig(timeout=1.0)})
    report = fuzzer.run([seed], budget=0.2)
    assert any(f.kind == UNVERIFIED_MODEL for f in report.failures), report.summary()


def test_untyped_unknown_is_a_structured_unknown_mismatch():
    forged = SolveResult(status=Status.UNKNOWN, reason="gave up")
    fuzzer = _ForgingFuzzer(forged, configs={"witness": SolverConfig(timeout=1.0)})
    report = fuzzer.run([0], budget=0.2)
    assert any(f.kind == UNKNOWN_MISMATCH for f in report.failures), report.summary()


def test_typed_unknown_is_clean():
    from repro.budget import UnknownKind

    forged = SolveResult(
        status=Status.UNKNOWN,
        reason=UnknownReason(UnknownKind.INCOMPLETE, "decompose", "budget"),
    )
    fuzzer = _ForgingFuzzer(forged, configs={"witness": SolverConfig(timeout=1.0)})
    report = fuzzer.run([0], budget=0.2)
    assert report.ok, report.summary()
    assert report.unknowns == 1


def test_internal_error_counter_classifies_as_crash():
    forged = SolveResult(status=Status.UNKNOWN, stats={"internal_errors": 1})
    fuzzer = _ForgingFuzzer(forged, configs={"witness": SolverConfig(timeout=1.0)})
    report = fuzzer.run([0], budget=0.2)
    assert any(f.kind == CRASH for f in report.failures), report.summary()


# ----------------------------------------------------------------------
# The injected-fault drill (real engine, real fault, real shrink)
# ----------------------------------------------------------------------
def test_injected_fault_is_caught_shrunk_and_reproduced(tmp_path):
    # repeat=1 with the fuzzer's per-check injector.reset(): the fault
    # re-fires on every check, including every shrink re-run
    injector = FaultInjector([FaultSpec("enter:solve", at=1, action="raise")])
    fuzzer = DifferentialFuzzer(
        configs={"witness": SolverConfig(timeout=2.0)},
        repro_dir=str(tmp_path),
        injector=injector,
    )
    report = fuzzer.run([1], budget=0.5)
    crashes = [f for f in report.failures if f.kind == CRASH]
    assert crashes, report.summary()
    failure = crashes[0]
    assert "internal_errors" in failure.detail
    from repro.benchgen.pipelines import scenario_from_seed

    scenario = scenario_from_seed(1)
    # demonstrably shrunk: strictly smaller than the generated scenario
    assert failure.scenario.size() < scenario.size()
    assert failure.shrink_steps > 0
    # ... and minimal: the fault fires on every check, so the shrink loop
    # must have descended until no strictly-smaller candidate exists
    assert all(
        candidate.size() >= failure.scenario.size()
        for candidate in failure.scenario.shrink_candidates()
    ), failure.scenario
    # the repro artifact replays through the SMT-LIB frontend
    assert failure.repro_path is not None and os.path.exists(failure.repro_path)
    with open(failure.repro_path) as handle:
        text = handle.read()
    assert text.startswith("; fuzz repro: seed=1 kind=crash")
    from repro.smtlib.parser import parse_script

    assert parse_script(text) is not None


def test_injected_exhaustion_becomes_a_structured_unknown():
    injector = FaultInjector([FaultSpec("*", at=3, action="exhaust")])
    fuzzer = DifferentialFuzzer(
        configs={"witness": SolverConfig(timeout=2.0)}, injector=injector
    )
    report = fuzzer.run([0, 1], budget=0.5)
    assert report.ok, report.summary()
    assert report.unknowns == report.checks


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_exit_codes(tmp_path, capsys):
    assert main(["--seeds", "2", "--budget", "0.3", "--repro-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "instances=2" in out
