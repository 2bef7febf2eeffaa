"""Seeded differential fuzzing over the pipeline workload.

:class:`DifferentialFuzzer` closes the loop the benchgen pipeline model
opens: every :mod:`repro.benchgen.pipelines` scenario carries an exact
ground truth (exhaustive concrete execution of the pipe program), so each
seed becomes a *differential* test case — the instance is solved by the
engine under one :class:`~repro.solver.config.SolverConfig` (the default
solver on a step budget unless the caller passes another) and by the
brute-force oracle, and every disagreement is classified:

* ``wrong-verdict`` — a definite ``sat``/``unsat`` contradicting the
  ground truth;
* ``unverified-model`` — a ``sat`` whose model is missing or fails the
  semantics oracle (:func:`repro.strings.semantics.eval_problem`);
* ``core-bystander`` — an ``unsat`` whose named core, re-solved as a
  standalone problem, turns out satisfiable (the core blamed bystander
  assertions) or is empty;
* ``structured-unknown-mismatch`` — an undecided result whose ``reason``
  is not a typed :class:`~repro.budget.UnknownReason` (the budget-layer
  contract: unknowns always say which stage and budget gave out);
* ``crash`` — an engine exception or an ``internal_errors`` counter
  ticking (fault-injection runs land here by design: the chaos tests
  prove an injected fault is *caught* and shrunk, not silently absorbed).

Failing scenarios are **shrunk** before reporting: the fuzzer walks
:meth:`PipelineScenario.shrink_candidates` (stage deletion first, then
constant narrowing — each candidate strictly smaller), re-runs only the
failing source (the engine or the brute-force oracle), and greedily
descends while the failure kind reproduces, for at most
:data:`MAX_SHRINK_CHECKS` re-checks.  The minimal scenario is emitted as a
replayable SMT-LIB repro file whose header records the seed, source and
classification — ``python -m repro.smtlib <repro>`` replays it.

Determinism: the scenarios are driven by ``random.Random(seed)`` inside
the generator, and this module reads no clocks and no global randomness
(the static analyzer's determinism rule holds it to that), so a seed list
always yields the same instances.  Every engine check, each core re-check
included, runs under its own step budget of :data:`CHECK_STEPS` checkpoint
steps and no wall-clock limit (the default configuration), so a seed's
statuses do not move with the speed of the machine.  Every sweep includes
the generator's gap shapes (``scenario_from_seed``'s default).  Only the
brute-force oracle runs on the wall clock (:data:`BRUTE_TIMEOUT`): just its
definite answers take part in the differential, and one that runs out of
time is left out.

Run the CI sweep locally::

    PYTHONPATH=src python -m repro.testing.fuzz --seeds 40
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..benchgen.pipelines import PipelineScenario, scenario_from_seed
from ..budget import Budget, BudgetExceeded, UnknownKind, UnknownReason
from ..smtlib.printer import problem_to_smtlib
from ..solver.bruteforce import brute_force_check
from ..solver.config import SolverConfig
from ..solver.result import SolveResult, Status
from ..solver.session import Session
from ..strings.ast import Problem
from ..strings.semantics import eval_problem

# Failure kinds (the classification lattice, worst first)
WRONG_VERDICT = "wrong-verdict"
CRASH = "crash"
UNVERIFIED_MODEL = "unverified-model"
CORE_BYSTANDER = "core-bystander"
UNKNOWN_MISMATCH = "structured-unknown-mismatch"

#: the brute-force oracle's bounds: the pipeline problems carry one string
#: variable per stage, so enumeration must stay very shallow — only its
#: *definite* answers participate in the differential
BRUTE_MAX_LENGTH = 3
BRUTE_TIMEOUT = 0.25

#: checkpoint steps per engine check.  Measured on seeds 0–39 under the
#: default configuration: every check that decides needs at most 32016
#: steps, and no seed left undecided decides within 38000
CHECK_STEPS = 35_000

#: re-checks one failure's shrink may spend
MAX_SHRINK_CHECKS = 200

#: the two sources a failure can come from
ENGINE = "engine"
BRUTE = "brute"


def _model_ok(problem: Problem, model) -> bool:
    """Semantics-oracle verification; a model missing an assignment for
    some problem variable counts as unverified, not as an error."""
    try:
        return eval_problem(problem, model.strings, model.integers)
    except KeyError:
        return False


@dataclass
class FuzzFailure:
    """One classified disagreement, after shrinking."""

    seed: int
    name: str
    #: :data:`ENGINE` or :data:`BRUTE`
    source: str
    kind: str
    detail: str
    expected: str
    scenario: PipelineScenario
    shrink_steps: int = 0
    repro_path: Optional[str] = None


@dataclass
class FuzzReport:
    """The outcome of one :meth:`DifferentialFuzzer.run` sweep."""

    instances: int = 0
    checks: int = 0
    verdicts: Dict[str, int] = field(default_factory=dict)
    unknowns: int = 0
    brute_confirmations: int = 0
    failures: List[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        lines = [
            f"instances={self.instances} checks={self.checks} "
            f"verdicts={dict(sorted(self.verdicts.items()))} "
            f"unknowns={self.unknowns} brute-confirmations={self.brute_confirmations}",
        ]
        for failure in self.failures:
            lines.append(
                f"FAIL {failure.kind} seed={failure.seed} name={failure.name} "
                f"source={failure.source} shrink_steps={failure.shrink_steps} "
                f"repro={failure.repro_path or '-'} :: {failure.detail}"
            )
        if not self.failures:
            lines.append("no disagreements")
        return "\n".join(lines)


@dataclass
class _Outcome:
    """The classification of one engine check of a scenario."""

    status: str  # "sat" | "unsat" | "unknown"
    kind: Optional[str] = None  # failure kind, None when clean
    detail: str = ""


class DifferentialFuzzer:
    """Generate → solve → cross-check → shrink.

    ``config`` is the engine's one configuration; by default the default
    solver with :data:`CHECK_STEPS` checkpoint steps per check and no time
    limit.  (The distinct shortcut never fires on the pipeline scenarios,
    so a ``distinct_shortcut=False`` twin would repeat the same
    computation; ``tests/test_distinct_regression.py`` cross-checks the
    shortcut against the encoding.)

    ``injector`` (a :class:`repro.testing.faults.FaultInjector`) rides on
    a caller-owned :class:`Budget` hook, firing deterministic faults at
    engine stage coordinates; the fuzzer then *expects* to catch the
    resulting crash/exhaustion as a classified failure — that path is how
    the chaos tests prove the loop actually detects and shrinks bugs.
    """

    def __init__(
        self,
        config: Optional[SolverConfig] = None,
        repro_dir: Optional[str] = None,
        injector=None,
    ) -> None:
        if config is None:
            config = SolverConfig(timeout=None, max_steps=CHECK_STEPS)
        self.config = config
        self.repro_dir = repro_dir
        self.injector = injector

    # -- one check ------------------------------------------------------
    def _solve(self, problem: Problem, config: SolverConfig) -> SolveResult:
        """One engine check under ``config``'s limits; injector faults
        surface as results, and injected budget exhaustion / interrupts
        become structured unknowns (that is the session contract the chaos
        suite pins)."""
        session = Session(config=config, alphabet=problem.alphabet, name=problem.name)
        for index, atom in enumerate(problem.atoms):
            session.add(atom, name=f"a{index}")
        if self.injector is None:
            result = session.check()
        else:
            self.injector.reset()
            owned = Budget(config.timeout, max_steps=config.max_steps, hook=self.injector)
            try:
                result = session.check(budget=owned)
            except BudgetExceeded:
                reason = UnknownReason(UnknownKind.STEP_LIMIT, "fuzz.injected", "injected exhaustion")
                return SolveResult(status=Status.UNKNOWN, reason=reason)
            except KeyboardInterrupt:
                reason = UnknownReason(UnknownKind.INTERRUPTED, "fuzz.injected", "injected interrupt")
                return SolveResult(status=Status.UNKNOWN, reason=reason)
        self._last_session = session
        return result

    def _classify(self, scenario: PipelineScenario, expected: str) -> _Outcome:
        problem = scenario.problem()
        self._last_session = None
        try:
            result = self._solve(problem, self.config)
        except Exception as error:  # engine exceptions are fuzz findings
            return _Outcome("unknown", CRASH, f"engine raised {type(error).__name__}: {error}")
        internal = int(result.stats.get("internal_errors", 0)) if result.stats else 0
        if internal:
            return _Outcome(
                "unknown", CRASH, f"internal_errors={internal} (reason {result.reason})"
            )
        if result.status is Status.SAT:
            model = result.model
            if model is None:
                return _Outcome("sat", UNVERIFIED_MODEL, "sat without a model")
            if not _model_ok(problem, model):
                return _Outcome("sat", UNVERIFIED_MODEL, f"model fails semantics: {model.strings}")
            if expected == "unsat":
                return _Outcome(
                    "sat", WRONG_VERDICT, "sat (verified model!) but ground truth is unsat"
                )
            return _Outcome("sat")
        if result.status is Status.UNSAT:
            if expected == "sat":
                return _Outcome("unsat", WRONG_VERDICT, "unsat but ground truth is sat")
            return self._check_core(problem, self.config)
        # UNKNOWN / TIMEOUT: the reason must be a typed UnknownReason
        if not isinstance(result.reason, UnknownReason):
            return _Outcome(
                "unknown", UNKNOWN_MISMATCH, f"untyped unknown reason: {result.reason!r}"
            )
        return _Outcome("unknown")

    def _check_core(self, problem: Problem, config: SolverConfig) -> _Outcome:
        """Re-solve the named unsat core as a standalone problem: a core
        whose sub-problem is satisfiable blamed bystander assertions.  The
        core's re-checks and the re-solve each run under ``config``'s
        limits."""
        session = self._last_session
        if session is None:  # injector path: core auditing is skipped
            return _Outcome("unsat")
        core = session.unsat_core()
        if not core:
            return _Outcome("unsat", CORE_BYSTANDER, "empty unsat core")
        wanted = {name for name in core}
        sub = Problem(alphabet=problem.alphabet, name=f"{problem.name}-core")
        for index, atom in enumerate(problem.atoms):
            if f"a{index}" in wanted:
                sub.add(atom)
        try:
            check = Session(config=config, alphabet=problem.alphabet)
            for atom in sub.atoms:
                check.add(atom)
            sub_result = check.check()
        except Exception as error:
            return _Outcome("unsat", CRASH, f"core re-solve raised {type(error).__name__}: {error}")
        if sub_result.status is Status.SAT:
            model = sub_result.model
            if model is not None and _model_ok(sub, model):
                return _Outcome(
                    "unsat",
                    CORE_BYSTANDER,
                    f"core {sorted(wanted)} is satisfiable on its own",
                )
        return _Outcome("unsat")

    # -- the sweep ------------------------------------------------------
    def run(self, seeds: Sequence[int]) -> FuzzReport:
        """Solve every seeded scenario by the engine and the brute oracle;
        classify, shrink and report."""
        report = FuzzReport()
        for seed in seeds:
            scenario = scenario_from_seed(seed)
            expected = scenario.ground_truth()
            report.instances += 1
            outcome = self._classify(scenario, expected)
            report.checks += 1
            if outcome.status == "unknown" and outcome.kind is None:
                report.unknowns += 1
            report.verdicts[outcome.status] = report.verdicts.get(outcome.status, 0) + 1
            if outcome.kind is not None:
                report.failures.append(self._shrink(seed, scenario, ENGINE, expected, outcome))
            # brute-force oracle: definite answers must agree with the
            # enumerated ground truth (this cross-checks the *generator*)
            brute = brute_force_check(
                scenario.problem(), max_length=BRUTE_MAX_LENGTH, timeout=BRUTE_TIMEOUT
            )
            if brute.status in (Status.SAT, Status.UNSAT):
                verdict = "sat" if brute.status is Status.SAT else "unsat"
                if verdict == expected:
                    report.brute_confirmations += 1
                else:
                    outcome = _Outcome(
                        verdict,
                        WRONG_VERDICT,
                        f"brute-force says {verdict}, ground truth {expected}",
                    )
                    report.failures.append(
                        self._shrink(seed, scenario, BRUTE, expected, outcome)
                    )
        return report

    # -- shrinking ------------------------------------------------------
    def _reproduces(self, scenario: PipelineScenario, source: str, kind: str) -> bool:
        expected = scenario.ground_truth()
        if source == BRUTE:
            brute = brute_force_check(
                scenario.problem(), max_length=BRUTE_MAX_LENGTH, timeout=BRUTE_TIMEOUT
            )
            if brute.status not in (Status.SAT, Status.UNSAT):
                return False
            verdict = "sat" if brute.status is Status.SAT else "unsat"
            return verdict != expected
        outcome = self._classify(scenario, expected)
        return outcome.kind == kind

    def _shrink(
        self,
        seed: int,
        scenario: PipelineScenario,
        source: str,
        expected: str,
        outcome: _Outcome,
    ) -> FuzzFailure:
        """Greedy descent through strictly-smaller scenarios that keep the
        failure kind alive; deterministic order, bounded re-checks."""
        kind = outcome.kind or WRONG_VERDICT
        steps = 0
        checks = 0
        current = scenario
        improved = True
        while improved and checks < MAX_SHRINK_CHECKS:
            improved = False
            for candidate in current.shrink_candidates():
                if candidate.size() >= current.size():
                    continue
                checks += 1
                if checks >= MAX_SHRINK_CHECKS:
                    break
                if self._reproduces(candidate, source, kind):
                    current = candidate
                    steps += 1
                    improved = True
                    break
        failure = FuzzFailure(
            seed=seed,
            name=scenario.name,
            source=source,
            kind=kind,
            detail=outcome.detail,
            expected=expected,
            scenario=current,
            shrink_steps=steps,
        )
        failure.repro_path = self._emit_repro(failure)
        return failure

    def _emit_repro(self, failure: FuzzFailure) -> Optional[str]:
        if self.repro_dir is None:
            return None
        os.makedirs(self.repro_dir, exist_ok=True)
        scenario = failure.scenario
        expected = scenario.ground_truth()
        script = problem_to_smtlib(scenario.problem(), status=expected)
        header = (
            f"; fuzz repro: seed={failure.seed} kind={failure.kind}\n"
            f"; source={failure.source} shrink_steps={failure.shrink_steps}\n"
            f"; detail: {failure.detail}\n"
            f"; replay: PYTHONPATH=src python -m repro.smtlib <this file>\n"
        )
        path = os.path.join(
            self.repro_dir, f"fuzz__{failure.seed}__{failure.source}__{failure.kind}.smt2"
        )
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(header + script)
        return path


def main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.testing.fuzz",
        description="Seeded differential fuzz sweep over the pipeline workload.",
    )
    parser.add_argument("--seeds", type=int, default=40, help="number of seeds (0..N-1)")
    parser.add_argument("--start", type=int, default=0, help="first seed")
    parser.add_argument(
        "--repro-dir", default=None, help="directory for shrunk repro .smt2 files"
    )
    options = parser.parse_args(argv)
    fuzzer = DifferentialFuzzer(repro_dir=options.repro_dir)
    report = fuzzer.run(range(options.start, options.start + options.seeds))
    print(report.summary())
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised by the CI fuzz job
    raise SystemExit(main())
