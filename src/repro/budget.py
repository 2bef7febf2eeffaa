"""Cooperative resource governance: budgets, checkpoints, structured reasons.

The paper's experiments run every instance under a hard 120 s timeout; this
module is the substrate that makes that operating mode possible across the
whole engine.  A :class:`Budget` bundles **one** wall-clock deadline with
step/expansion counters and per-stage accounting, and every potentially
exploding loop in the pipeline — subset construction, automata products,
noodlification, the reduction case product, the CDCL search — calls
:meth:`Budget.checkpoint` from inside its hot loop.  Exceeding the budget
raises :class:`BudgetExceeded`, which carries a typed
:class:`UnknownReason` (kind + stage + counter snapshot) that the solver
pipeline converts into a structured ``unknown``/``timeout`` verdict.

Threading the budget explicitly through nine layers would contaminate every
signature, so the *active* budget travels in a :mod:`contextvars` context
variable: :func:`repro.solver.solver.IncrementalPipeline.check` activates
its budget for the duration of the check and deep engine loops consult it
through the module-level :func:`checkpoint` helper (a no-op when no budget
is active, so library users of e.g. :func:`repro.automata.determinize` pay
one context-variable read per loop iteration and nothing else).

Checkpoints are designed to be cheap: the clock is only consulted every
``check_interval`` accumulated steps.  Tests inject a fake ``clock`` for
deterministic timeout behaviour, and the fault-injection harness
(:mod:`repro.testing.faults`) attaches a ``hook`` observing every
checkpoint and stage entry — the deterministic "Nth entry into stage S"
coordinates that chaos tests schedule faults on.

This module has no intra-package dependencies; every layer may import it.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, Optional


class UnknownKind(Enum):
    """Why a check could not produce a ``sat``/``unsat`` verdict."""

    #: the wall-clock deadline passed
    TIMEOUT = "timeout"
    #: the cooperative step/expansion counter cap was reached
    STEP_LIMIT = "step_limit"
    #: a completeness budget (branches, noodles, cases, MBQI rounds, SAT
    #: conflicts, branch-and-bound nodes) was exhausted — more resources
    #: might decide the instance
    INCOMPLETE = "incomplete"
    #: the instance falls outside the decidable fragment the engine
    #: implements — more resources would not help
    FRAGMENT = "fragment"
    #: an engine stage raised an unexpected exception (soundness is
    #: preserved by answering unknown; the error is counted, not swallowed)
    INTERNAL_ERROR = "internal_error"
    #: the check was interrupted (``KeyboardInterrupt`` / client cancel)
    INTERRUPTED = "interrupted"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class UnknownReason:
    """A typed, stage-accurate explanation of a non-verdict.

    Renders as e.g. ``timeout@automata.determinize after 1900000 steps
    (1.95s)`` — machine-readable fields first, human string on demand.
    """

    kind: UnknownKind
    #: engine stage that hit the limit (``automata.determinize``,
    #: ``eqsolver.noodlify``, ``lia.sat``, ``reduce.cases``, ...)
    stage: str = ""
    #: free-text elaboration (exception text, which cap, ...)
    detail: str = ""
    #: checkpoint-step counter at the moment the limit hit
    steps: Optional[int] = None
    #: wall-clock seconds into the check at the moment the limit hit
    elapsed: Optional[float] = None

    def __str__(self) -> str:
        head = self.kind.value + (f"@{self.stage}" if self.stage else "")
        bits = []
        if self.steps is not None:
            bits.append(f"after {self.steps} steps")
        if self.elapsed is not None:
            bits.append(f"({self.elapsed:.2f}s)")
        if self.detail:
            bits.append(f"[{self.detail}]")
        return " ".join([head] + bits)


class BudgetExceeded(Exception):
    """Raised by :meth:`Budget.checkpoint` when a limit is hit.

    Deliberately *not* a subclass of the LIA layer's ``ResourceLimit``:
    completeness-budget exhaustion there is a recoverable per-assignment
    event, while a ``BudgetExceeded`` must unwind the whole check.
    """

    def __init__(self, reason: UnknownReason) -> None:
        super().__init__(str(reason))
        self.reason = reason


class Budget:
    """Wall-clock deadline plus cooperative step counters for one check.

    The first positional argument is a relative ``timeout`` in seconds
    (``None`` = unlimited).  ``max_steps`` caps the total checkpoint
    steps — a deterministic, machine-independent way to bound work (useful
    for reproducible tests and differential runs).  ``clock`` is injectable for deterministic timeout tests, and
    ``hook(stage, count)`` observes every checkpoint/stage entry (the
    fault-injection attachment point; exceptions raised by the hook
    propagate to the caller on purpose).
    """

    __slots__ = (
        "start", "timeout", "max_steps", "steps", "check_interval", "hook",
        "current_stage", "_deadline", "_clock", "_until_check",
        "_stage_steps", "_stage_entries", "_stage_ms",
    )

    def __init__(
        self,
        timeout: Optional[float] = None,
        *,
        max_steps: Optional[int] = None,
        clock: Callable[[], float] = time.monotonic,
        check_interval: int = 64,
        hook: Optional[Callable[[str, int], None]] = None,
    ) -> None:
        self._clock = clock
        self.start = clock()
        self.timeout = timeout
        self.max_steps = max_steps
        self.steps = 0
        self.check_interval = check_interval
        self.hook = hook
        self.current_stage = ""
        self._until_check = check_interval
        self._stage_steps: Dict[str, int] = {}
        self._stage_entries: Dict[str, int] = {}
        self._stage_ms: Dict[str, int] = {}
        self._deadline = None if timeout is None else self.start + timeout

    # ------------------------------------------------------------------
    # Deadline
    # ------------------------------------------------------------------
    def elapsed(self) -> float:
        return self._clock() - self.start

    def expired(self) -> bool:
        return self._deadline is not None and self._clock() > self._deadline

    # ------------------------------------------------------------------
    # Cooperative cancellation
    # ------------------------------------------------------------------
    def _exceeded(self, kind: UnknownKind, stage: str) -> BudgetExceeded:
        return BudgetExceeded(
            UnknownReason(
                kind, stage=stage, steps=self.steps, elapsed=self.elapsed()
            )
        )

    def checkpoint(self, stage: str, cost: int = 1) -> None:
        """Account ``cost`` steps against ``stage``; raise when over budget.

        The wall clock is consulted only every ``check_interval``
        accumulated steps, so calling this from a hot loop costs a few
        dict/int operations per iteration.
        """
        self.steps += cost
        counts = self._stage_steps
        counts[stage] = counts.get(stage, 0) + cost
        if self.hook is not None:
            self.hook(stage, counts[stage])
        if self.max_steps is not None and self.steps > self.max_steps:
            raise self._exceeded(UnknownKind.STEP_LIMIT, stage)
        self._until_check -= cost
        if self._until_check <= 0:
            self._until_check = self.check_interval
            if self._deadline is not None and self._clock() > self._deadline:
                raise self._exceeded(UnknownKind.TIMEOUT, stage)

    def check_now(self, stage: str) -> None:
        """An interval-free checkpoint: consult the clock unconditionally.

        Used at coarse boundaries (per reduction case, per branch) where an
        immediate, accurate cut-off matters more than per-call cost.
        """
        self.steps += 1
        counts = self._stage_steps
        counts[stage] = counts.get(stage, 0) + 1
        if self.hook is not None:
            self.hook(stage, counts[stage])
        if self.max_steps is not None and self.steps > self.max_steps:
            raise self._exceeded(UnknownKind.STEP_LIMIT, stage)
        if self._deadline is not None and self._clock() > self._deadline:
            raise self._exceeded(UnknownKind.TIMEOUT, stage)

    @contextmanager
    def stage(self, name: str):
        """Scope a coarse pipeline stage: entry hook + elapsed accounting.

        The enclosing stage is restored only on a normal exit: an exception
        escaping the body leaves ``current_stage`` naming the innermost
        stage it escaped from, for the handler that reports it.
        """
        previous = self.current_stage
        self.current_stage = name
        self._stage_entries[name] = self._stage_entries.get(name, 0) + 1
        if self.hook is not None:
            self.hook(f"enter:{name}", self._stage_entries[name])
        begun = self._clock()
        try:
            yield self
        finally:
            self._stage_ms[name] = self._stage_ms.get(name, 0) + int(
                1000 * (self._clock() - begun)
            )
        self.current_stage = previous

    def stats_snapshot(self) -> Dict[str, int]:
        """Per-stage counters for ``SolveResult.stats`` (all-int values)."""
        stats: Dict[str, int] = {"budget_steps": self.steps}
        for name, steps in self._stage_steps.items():
            stats[f"steps.{name}"] = steps
        for name, ms in self._stage_ms.items():
            stats[f"ms.{name}"] = ms
        return stats

    # ------------------------------------------------------------------
    # Context activation
    # ------------------------------------------------------------------
    @contextmanager
    def activate(self):
        """Make this budget the ambient one for the enclosed work."""
        token = _ACTIVE.set(self)
        try:
            yield self
        finally:
            _ACTIVE.reset(token)


#: the ambient budget deep engine loops consult (None = unbudgeted)
_ACTIVE: ContextVar[Optional[Budget]] = ContextVar("repro_budget", default=None)


def checkpoint(stage: str, cost: int = 1) -> None:
    """Checkpoint against the ambient budget (no-op when none is active).

    This is the one-liner engine loops call; see the module docstring.
    """
    budget = _ACTIVE.get()
    if budget is not None:
        budget.checkpoint(stage, cost)
