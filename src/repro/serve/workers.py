"""The process worker fleet: per-process warm caches and job execution.

The solver is pure-Python and CPU-bound, so concurrency means *processes*
(the GIL rules threads out).  The server owns a
:class:`concurrent.futures.ProcessPoolExecutor` whose workers are
initialised once through :func:`initializer` and then run one
:class:`~repro.serve.protocol.JobSpec` per :func:`run_job` call.

Worker startup does two things:

* **Warm-cache seeding** — the parent serialises its hot interned automata
  (:func:`repro.automata.serialization.intern_snapshot`, the dense wire
  format of PR 7) and every worker re-interns the payload on start
  (:func:`~repro.automata.serialization.intern_restore`).  From then on
  the normalisation layer's ``intern_nfa`` calls *hit* the shared
  canonical automata instead of rebuilding them; the
  ``automata_interning_warm_hits`` counter that flows through
  ``SolveResult.stats`` into ``Session.statistics()`` proves it per job.

* **Cancellation wiring** — the fleet shares one lock-free
  ``multiprocessing.Array`` of per-slot generation flags, inherited
  through the pool's ``initargs``.  Every job's budget ``hook`` polls its
  slot: the moment the parent writes the job's generation number there,
  the next engine checkpoint raises
  :class:`~repro.budget.BudgetExceeded` with an ``interrupted`` reason and
  the run unwinds through the PR-6 machinery (transactional caches, no
  corruption) within one checkpoint interval.  This is how portfolio
  losers are cancelled across the process boundary: no signals, no pipes
  — one shared-memory write, observed at the next cooperative checkpoint.

Fault injection (chaos tests) rides the same hook: a spec's ``inject``
triggers build a :class:`repro.testing.faults.FaultInjector` chained in
front of the cancellation poll, including the ``kill`` action
(``os._exit``) that simulates a worker dying mid-job.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, Optional, Sequence

from ..budget import Budget, BudgetExceeded, UnknownKind, UnknownReason
from .protocol import JobOutcome, JobSpec

#: the shared cancellation flags (``multiprocessing.Array('l', slots)``),
#: installed by :func:`initializer` in every worker
_FLAGS = None

#: number of automata the warm payload seeded into this worker's interner
_WARM_SEEDED = 0

#: one NormalizationCache per worker process, shared by every job it runs:
#: the second job solving a related script hits the first job's compiled
#: regexes, word automata and membership intersections instead of
#: rebuilding them.  ``run_job`` marks all entries warm before each job,
#: so cross-job reuse surfaces as ``normalization_warm_hits`` in the job's
#: statistics (the same pattern as ``automata_interning_warm_hits``).
_NORMALIZATION_CACHE = None

#: how often (in budget checkpoints) the cancellation flag is polled; the
#: flag is one shared-memory integer read, so a small interval keeps the
#: cancel latency at "a few engine checkpoints" for negligible cost (a
#: trivial script produces only ~20 checkpoints end to end, so the
#: interval must stay well below that for losers of short races to
#: observe their flag at all)
_CANCEL_POLL_INTERVAL = 4


def initializer(flags, warm_payload: Sequence[Dict[str, Any]]) -> None:
    """Pool initializer: install the cancel flags, seed the warm caches."""
    global _FLAGS, _WARM_SEEDED
    _FLAGS = flags
    from ..automata.serialization import intern_restore

    _WARM_SEEDED = intern_restore(list(warm_payload))


def _build_hook(spec: JobSpec, state: Dict[str, bool]):
    """The budget hook of one run: fault triggers + cancellation polling."""
    injector = None
    if spec.inject:
        from ..testing.faults import FaultInjector, FaultSpec

        specs = []
        for trigger in spec.inject:
            if trigger.get("strategy") not in (None, spec.strategy):
                continue
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

    flags, slot, generation = _FLAGS, spec.slot, spec.generation
    poll_in = [_CANCEL_POLL_INTERVAL]

    def hook(stage: str, count: int) -> None:
        if injector is not None:
            injector(stage, count)
        if flags is None or slot < 0:
            return
        poll_in[0] -= 1
        if poll_in[0] > 0:
            return
        poll_in[0] = _CANCEL_POLL_INTERVAL
        value = flags[slot]
        if value == generation or value == -1:  # -1: server-wide shutdown
            state["cancelled"] = True
            raise BudgetExceeded(
                UnknownReason(
                    UnknownKind.INTERRUPTED,
                    stage=stage,
                    detail="cancelled by portfolio",
                )
            )

    return hook


def run_job(spec: JobSpec) -> JobOutcome:
    """Execute one strategy run of one job inside a worker process.

    Always returns a :class:`JobOutcome` — parse errors, budget
    exhaustion, cancellation and injected interrupts all land in
    structured fields; the only ways no outcome comes back are a dead
    worker (the server detects the broken pool and retries) and a hard
    hang (the server answers for the job at its deadline).
    """
    from ..smtlib import ScriptRunner, SmtLibError
    from ..strings.normal_form import NormalizationCache
    from .portfolio import config_for

    global _NORMALIZATION_CACHE
    if _NORMALIZATION_CACHE is None:
        _NORMALIZATION_CACHE = NormalizationCache()
    else:
        # Everything cached by earlier jobs is "warm" for this one; hits on
        # those entries flow through Session.statistics() as
        # normalization_warm_hits.
        _NORMALIZATION_CACHE.mark_all_warm()

    started = time.time()
    outcome = JobOutcome(strategy=spec.strategy, worker_pid=os.getpid())
    if spec.deadline is None:
        remaining = None
    else:
        # A spec that aged out in the executor queue still runs — with an
        # epsilon budget, so every check answers a structured timeout
        # immediately and the response shape stays uniform.
        remaining = max(spec.deadline - started, 0.002)
    state = {"cancelled": False}
    budget = Budget(remaining, max_steps=spec.max_steps, hook=_build_hook(spec, state))
    config = config_for(spec.strategy, timeout=remaining, max_steps=spec.max_steps)
    # Collect output through the runner's callback: lines survive even when
    # an injected interrupt aborts the script halfway through.
    output_lines = []
    runner = ScriptRunner(
        config=config,
        out=output_lines.append,
        normalization_cache=_NORMALIZATION_CACHE,
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
    outcome.cancelled = state["cancelled"]
    if runner.session is not None:
        stats = runner.session.statistics()
        for key, value in stats.items():
            if isinstance(value, int):
                outcome.stats[key] = outcome.stats.get(key, 0) + value
    outcome.stats["serve_warm_seeded"] = _WARM_SEEDED
    outcome.elapsed = time.time() - started
    return outcome
