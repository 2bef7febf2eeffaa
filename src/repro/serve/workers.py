"""The process worker fleet: per-process warm caches and job execution.

The solver is pure-Python and CPU-bound, so concurrency means *processes*
(the GIL rules threads out).  The server owns a
:class:`concurrent.futures.ProcessPoolExecutor` whose workers are
initialised once through :func:`initializer` and then run one
:class:`~repro.serve.protocol.JobSpec` per :func:`run_job` call.

Worker startup does two things:

* **Warm-cache seeding** — the parent hands every worker the texts of the
  ``--warm`` scripts.  The worker parses each one and normalises every
  reduction case of it, as the solver's pipeline does for a check, into
  :data:`NORMALIZATION_CACHE`, the one cache all its jobs share.  Before
  each job :func:`run_job` marks the cache's entries warm, so the job's
  ``normalization_warm_hits`` (in ``SolveResult.stats`` and
  ``Session.statistics()``) counts the compiled regexes, word automata and
  membership intersections it took from the warm-up or from earlier jobs
  instead of rebuilding them.

* **The stop flag** — every job runs under one
  :class:`~repro.budget.Budget` whose deadline is the spec's
  ``deadline``; that budget is the only limit on the job.  Its ``hook``
  also polls one fleet-wide shared flag, inherited through the pool's
  ``initargs``, which the server sets at shutdown: the next engine
  checkpoint then raises :class:`~repro.budget.BudgetExceeded` with an
  ``interrupted`` reason, and the run unwinds like any other exhausted
  budget (transactional caches, no corruption).

Fault injection (chaos tests) rides the same hook: a spec's ``inject``
triggers build a :class:`repro.testing.faults.FaultInjector` chained in
front of the stop-flag poll, including the ``kill`` action
(``os._exit``) that simulates a worker dying mid-job.
"""

from __future__ import annotations

import os
import time
from typing import Sequence

from ..budget import Budget, BudgetExceeded, UnknownKind, UnknownReason
from ..strings.normal_form import NormalizationCache, normalize
from ..strings.reductions import reduce_problem
from .protocol import JobOutcome, JobSpec

#: the fleet-wide stop flag (a shared ``multiprocessing`` byte), installed
#: by :func:`initializer` in every worker; non-zero once the server shuts down
_STOP = None

#: number of ``--warm`` scripts this worker normalised at startup
_WARM_SEEDED = 0

#: the worker's one normalisation cache, filled by the warm-up and shared
#: by every job it runs
NORMALIZATION_CACHE = NormalizationCache()

#: how often (in budget checkpoints) the stop flag is polled; the flag is
#: one shared-memory read, so a small interval keeps the stop latency at
#: "a few engine checkpoints" for negligible cost
_STOP_POLL_INTERVAL = 4


def initializer(stop, warm_scripts: Sequence[str]) -> None:
    """Pool initializer: install the stop flag, normalise the warm
    scripts into :data:`NORMALIZATION_CACHE`.

    Warm-up is best-effort: a script that fails is skipped and left out of
    ``serve_warm_seeded``.  The catch is broad on purpose, since an
    initializer that raises breaks the whole pool and every later job.
    """
    global _STOP, _WARM_SEEDED
    _STOP = stop
    from ..smtlib import parse_problem

    for text in warm_scripts:
        try:
            for case in reduce_problem(parse_problem(text)):
                normalize(case.problem, cache=NORMALIZATION_CACHE)
        except Exception:
            continue
        _WARM_SEEDED += 1


def _build_hook(spec: JobSpec):
    """The budget hook of one run: fault triggers + stop-flag polling."""
    injector = None
    if spec.inject:
        from ..testing.faults import FaultInjector, FaultSpec

        specs = []
        for trigger in spec.inject:
            if spec.attempt >= trigger.get("attempts", 1 << 30):
                continue
            specs.append(
                FaultSpec(
                    stage=str(trigger.get("stage", "enter:solve")),
                    at=int(trigger.get("at", 1)),
                    action=str(trigger.get("action", "raise")),
                    delay=float(trigger.get("delay", 0.0)),
                    repeat=int(trigger.get("repeat", 1)),
                )
            )
        if specs:
            injector = FaultInjector(specs)

    stop = _STOP
    poll_in = [_STOP_POLL_INTERVAL]

    def hook(stage: str, count: int) -> None:
        if injector is not None:
            injector(stage, count)
        if stop is None:
            return
        poll_in[0] -= 1
        if poll_in[0] > 0:
            return
        poll_in[0] = _STOP_POLL_INTERVAL
        if stop.value:
            raise BudgetExceeded(
                UnknownReason(
                    UnknownKind.INTERRUPTED, stage=stage, detail="cancelled by server"
                )
            )

    return hook


def run_job(spec: JobSpec) -> JobOutcome:
    """Execute one job inside a worker process.

    Always returns a :class:`JobOutcome` — parse errors, budget
    exhaustion, shutdown and injected interrupts all land in structured
    fields; the only ways no outcome comes back are a dead worker (the
    server detects the broken pool and retries) and a hard hang (the
    server answers for the job at its deadline plus grace, and the run
    stops at its budget's deadline if it ever reaches a checkpoint).
    """
    from ..smtlib import ScriptRunner, SmtLibError
    from ..solver import SolverConfig

    NORMALIZATION_CACHE.mark_all_warm()

    started = time.time()
    outcome = JobOutcome(worker_pid=os.getpid())
    if spec.deadline is None:
        remaining = None
    else:
        # A spec that aged out in the executor queue still runs — with an
        # epsilon budget, so every check answers a structured timeout
        # immediately and the response shape stays uniform.
        remaining = max(spec.deadline - started, 0.002)
    budget = Budget(remaining, max_steps=spec.max_steps, hook=_build_hook(spec))
    config = SolverConfig(timeout=remaining, max_steps=spec.max_steps)
    # Collect output through the runner's callback: lines survive even when
    # an injected interrupt aborts the script halfway through.
    output_lines = []
    runner = ScriptRunner(
        config=config,
        out=output_lines.append,
        normalization_cache=NORMALIZATION_CACHE,
    )
    try:
        runner.run(spec.script, name=spec.name, budget=budget)
    except SmtLibError as error:
        outcome.error = f"smtlib error: {error}"
    except BudgetExceeded:
        # Outside-a-check exhaustion (the pipeline converts in-check
        # exhaustion into verdicts); the answered prefix stands.
        outcome.stats["serve_budget_aborted"] = 1
    except KeyboardInterrupt:
        # Injected interrupt mid-run: the session unwound safely (PR-6
        # contract); report what was answered before the interrupt.
        outcome.stats["serve_interrupted"] = 1
    outcome.output = output_lines
    outcome.verdicts = list(runner.verdicts)
    outcome.reasons = list(runner.reasons)
    outcome.internal_errors = runner.internal_errors
    if runner.session is not None:
        stats = runner.session.statistics()
        for key, value in stats.items():
            if isinstance(value, int):
                outcome.stats[key] = outcome.stats.get(key, 0) + value
    outcome.stats["serve_warm_seeded"] = _WARM_SEEDED
    outcome.elapsed = time.time() - started
    return outcome
