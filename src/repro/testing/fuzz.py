"""Seeded differential fuzzing over the pipeline workload.

:class:`DifferentialFuzzer` closes the loop the benchgen pipeline model
opens: every :mod:`repro.benchgen.pipelines` scenario carries an exact
ground truth (exhaustive concrete execution of the pipe program), so each
seed becomes a *differential* test case — the instance is solved under
2–3 :class:`~repro.solver.config.SolverConfig` ablations plus the
brute-force oracle, and every disagreement is classified:

* ``wrong-verdict`` — a definite ``sat``/``unsat`` contradicting the
  ground truth (or one ablation contradicting another);
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
failing configuration, and greedily descends while the failure kind
reproduces.  The minimal scenario is emitted as a replayable SMT-LIB
repro file whose header records the seed, configuration and
classification — ``python -m repro.smtlib <repro>`` replays it.

Determinism: everything is driven by ``random.Random(seed)`` inside the
generator and by the solver's own step budgets here — this module reads
no clocks and no global randomness, so a seed list reproduces bit-for-bit
(the static analyzer's determinism rule holds it to that).

Run the CI sweep locally::

    PYTHONPATH=src python -m repro.testing.fuzz --seeds 40 --budget 0.5
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace as dc_replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..benchgen.pipelines import PipelineScenario, scenario_from_seed
from ..budget import Budget, BudgetExceeded, UnknownKind, UnknownReason
from ..serve.portfolio import STRATEGIES
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


def _model_ok(problem: Problem, model) -> bool:
    """Semantics-oracle verification; a model missing an assignment for
    some problem variable counts as unverified, not as an error."""
    try:
        return eval_problem(problem, model.strings, model.integers)
    except KeyError:
        return False


def default_configs(timeout: Optional[float] = None) -> Dict[str, SolverConfig]:
    """The ablations the fuzzer races: the server portfolio's strategies
    (``witness`` / ``encoding``), so a disagreement here is a
    disagreement the portfolio could serve to a client."""
    return {name: factory(timeout=timeout) for name, factory in STRATEGIES.items()}


@dataclass
class FuzzFailure:
    """One classified disagreement, after shrinking."""

    seed: int
    name: str
    config: str
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
                f"config={failure.config} shrink_steps={failure.shrink_steps} "
                f"repro={failure.repro_path or '-'} :: {failure.detail}"
            )
        if not self.failures:
            lines.append("no disagreements")
        return "\n".join(lines)


@dataclass
class _Outcome:
    """The classification of one (scenario, config) check."""

    status: str  # "sat" | "unsat" | "unknown"
    kind: Optional[str] = None  # failure kind, None when clean
    detail: str = ""


class DifferentialFuzzer:
    """Generate → solve under ablations → cross-check → shrink.

    ``injector`` (a :class:`repro.testing.faults.FaultInjector`) rides on
    a caller-owned :class:`Budget` hook, firing deterministic faults at
    engine stage coordinates; the fuzzer then *expects* to catch the
    resulting crash/exhaustion as a classified failure — that path is how
    the chaos tests prove the loop actually detects and shrinks bugs.
    """

    def __init__(
        self,
        configs: Optional[Dict[str, SolverConfig]] = None,
        brute_max_length: int = BRUTE_MAX_LENGTH,
        repro_dir: Optional[str] = None,
        injector=None,
        max_shrink_checks: int = 200,
        include_gaps: bool = True,
    ) -> None:
        self.configs = configs if configs is not None else default_configs()
        self.brute_max_length = brute_max_length
        self.repro_dir = repro_dir
        self.injector = injector
        self.max_shrink_checks = max_shrink_checks
        self.include_gaps = include_gaps

    # -- one check ------------------------------------------------------
    def _solve(self, problem: Problem, config: SolverConfig, budget: float) -> SolveResult:
        """One engine check; injector faults surface as results, and
        injected budget exhaustion / interrupts become structured unknowns
        (that is the session contract the chaos suite pins)."""
        session = Session(config=config, alphabet=problem.alphabet, name=problem.name)
        for index, atom in enumerate(problem.atoms):
            session.add(atom, name=f"a{index}")
        if self.injector is None:
            result = session.check(timeout=budget)
        else:
            self.injector.reset()
            owned = Budget(budget, hook=self.injector)
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

    def _classify(
        self, scenario: PipelineScenario, config_name: str, expected: str, budget: float
    ) -> _Outcome:
        problem = scenario.problem()
        config = self.configs[config_name]
        self._last_session = None
        try:
            result = self._solve(problem, config, budget)
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
            return self._check_core(problem, config, budget)
        # UNKNOWN / TIMEOUT: the reason must be a typed UnknownReason
        if not isinstance(result.reason, UnknownReason):
            return _Outcome(
                "unknown", UNKNOWN_MISMATCH, f"untyped unknown reason: {result.reason!r}"
            )
        return _Outcome("unknown")

    def _check_core(self, problem: Problem, config: SolverConfig, budget: float) -> _Outcome:
        """Re-solve the named unsat core as a standalone problem: a core
        whose sub-problem is satisfiable blamed bystander assertions."""
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
            sub_result = check.check(timeout=budget)
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
    def run(self, seeds: Sequence[int], budget: float = 0.5) -> FuzzReport:
        """Solve every seeded scenario under all ablations + the brute
        oracle; classify, shrink and report."""
        report = FuzzReport()
        for seed in seeds:
            scenario = scenario_from_seed(seed, include_gaps=self.include_gaps)
            expected = scenario.ground_truth()
            report.instances += 1
            statuses: Dict[str, str] = {}
            for config_name in self.configs:
                outcome = self._classify(scenario, config_name, expected, budget)
                report.checks += 1
                statuses[config_name] = outcome.status
                if outcome.status == "unknown" and outcome.kind is None:
                    report.unknowns += 1
                report.verdicts[outcome.status] = report.verdicts.get(outcome.status, 0) + 1
                if outcome.kind is not None:
                    report.failures.append(
                        self._shrink(seed, scenario, config_name, expected, outcome, budget)
                    )
            # cross-ablation differential (belt to the ground-truth braces)
            if "sat" in statuses.values() and "unsat" in statuses.values():
                detail = f"ablation disagreement: {statuses}"
                outcome = _Outcome("unknown", WRONG_VERDICT, detail)
                sat_config = sorted(k for k, v in statuses.items() if v == "sat")[0]
                report.failures.append(
                    self._shrink(seed, scenario, sat_config, expected, outcome, budget)
                )
            # brute-force oracle: definite answers must agree with the
            # enumerated ground truth (this cross-checks the *generator*)
            brute = brute_force_check(
                scenario.problem(), max_length=self.brute_max_length, timeout=BRUTE_TIMEOUT
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
                        self._shrink(seed, scenario, "brute", expected, outcome, budget)
                    )
        return report

    # -- shrinking ------------------------------------------------------
    def _reproduces(
        self, scenario: PipelineScenario, config_name: str, budget: float, kind: str
    ) -> bool:
        expected = scenario.ground_truth()
        if config_name == "brute":
            brute = brute_force_check(
                scenario.problem(), max_length=self.brute_max_length, timeout=BRUTE_TIMEOUT
            )
            if brute.status not in (Status.SAT, Status.UNSAT):
                return False
            verdict = "sat" if brute.status is Status.SAT else "unsat"
            return verdict != expected
        outcome = self._classify(scenario, config_name, expected, budget)
        return outcome.kind == kind

    def _shrink(
        self,
        seed: int,
        scenario: PipelineScenario,
        config_name: str,
        expected: str,
        outcome: _Outcome,
        budget: float,
    ) -> FuzzFailure:
        """Greedy descent through strictly-smaller scenarios that keep the
        failure kind alive; deterministic order, bounded re-checks."""
        kind = outcome.kind or WRONG_VERDICT
        steps = 0
        checks = 0
        current = scenario
        improved = True
        while improved and checks < self.max_shrink_checks:
            improved = False
            for candidate in current.shrink_candidates():
                if candidate.size() >= current.size():
                    continue
                checks += 1
                if checks >= self.max_shrink_checks:
                    break
                if self._reproduces(candidate, config_name, budget, kind):
                    current = candidate
                    steps += 1
                    improved = True
                    break
        failure = FuzzFailure(
            seed=seed,
            name=scenario.name,
            config=config_name,
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
            f"; config={failure.config} shrink_steps={failure.shrink_steps}\n"
            f"; detail: {failure.detail}\n"
            f"; replay: PYTHONPATH=src python -m repro.smtlib <this file>\n"
        )
        path = os.path.join(
            self.repro_dir, f"fuzz__{failure.seed}__{failure.config}__{failure.kind}.smt2"
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
    parser.add_argument("--budget", type=float, default=0.5, help="seconds per check")
    parser.add_argument(
        "--repro-dir", default=None, help="directory for shrunk repro .smt2 files"
    )
    parser.add_argument(
        "--no-gaps",
        action="store_true",
        help="generate only curated (decidable-biased) scenarios",
    )
    options = parser.parse_args(argv)
    fuzzer = DifferentialFuzzer(
        repro_dir=options.repro_dir, include_gaps=not options.no_gaps
    )
    report = fuzzer.run(range(options.start, options.start + options.seeds), budget=options.budget)
    print(report.summary())
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised by the CI fuzz job
    raise SystemExit(main())
