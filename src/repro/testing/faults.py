"""Deterministic fault injection riding the budget layer's hook.

Every :class:`~repro.budget.Budget` accepts a ``hook(stage, count)``
observer that fires on each checkpoint (``stage`` is the checkpoint's
stage name, ``count`` the per-stage step counter) and on each coarse stage
entry (``stage`` is ``"enter:<name>"``, ``count`` the entry ordinal).
Those ``(stage, count)`` pairs are *deterministic coordinates* — for a
fixed input they do not depend on wall-clock speed — which makes them the
natural place to schedule chaos: "raise on the 3rd entry into
``solve``", "exhaust the budget at the 500th determinization expansion".

A :class:`FaultInjector` is a list of :class:`FaultSpec` triggers plus the
hook callable to install::

    injector = FaultInjector([FaultSpec("enter:solve", at=2)])
    budget = Budget(10.0, hook=injector)
    result = session.check(budget=budget)   # 2nd branch solve blows up

The chaos suite (``tests/test_faults.py``) drives seeded schedules from
:func:`seeded_faults` and asserts the two robustness invariants: a fault
never turns into a wrong ``sat``/``unsat`` verdict, and the session
survives — a follow-up check without faults answers exactly what a fresh
solver would.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import List, Sequence

from ..budget import BudgetExceeded, UnknownKind, UnknownReason


class InjectedFault(RuntimeError):
    """The exception raised by ``action="raise"`` faults.

    A dedicated type so chaos tests can tell an injected explosion from a
    genuine engine bug surfacing during the run.
    """


@dataclass
class FaultSpec:
    """One scheduled fault: *what* happens *where* and *when*.

    ``stage`` is an :func:`fnmatch.fnmatchcase` pattern over the hook's
    stage coordinate — checkpoint stages (``"automata.*"``, ``"lia.sat"``)
    or entry events (``"enter:solve"``).  The fault fires when a matching
    event's per-stage counter reaches ``at`` (the Nth occurrence), at most
    ``repeat`` times.
    """

    stage: str
    #: fire on the Nth matching event (1-based)
    at: int = 1
    #: ``"raise"`` (InjectedFault), ``"exhaust"`` (BudgetExceeded, as if the
    #: budget ran out here), ``"interrupt"`` (KeyboardInterrupt, as if the
    #: user hit Ctrl-C mid-stage), ``"delay"`` (sleep ``delay`` seconds —
    #: stretches a stage past a real deadline without raising) or
    #: ``"kill"`` (``os._exit`` — the process dies on the spot, no cleanup;
    #: the worker-death chaos of the server fleet tests.  Never schedule it
    #: in-process: the test run itself would die)
    action: str = "raise"
    #: seconds slept by ``action="delay"``
    delay: float = 0.0
    #: how many matching events may trigger this spec
    repeat: int = 1
    fired: int = field(default=0, compare=False)

    def trigger(self, stage: str) -> None:
        self.fired += 1
        if self.action == "raise":
            raise InjectedFault(f"injected fault at {stage} (#{self.at})")
        if self.action == "exhaust":
            raise BudgetExceeded(
                UnknownReason(
                    UnknownKind.TIMEOUT,
                    stage=stage,
                    detail=f"injected budget exhaustion (#{self.at})",
                )
            )
        if self.action == "interrupt":
            raise KeyboardInterrupt(f"injected interrupt at {stage}")
        if self.action == "delay":
            time.sleep(self.delay)
            return
        if self.action == "kill":
            # Simulated hard crash (OOM-kill, segfault): bypass every
            # finally/except on the way out.  86 is arbitrary but
            # recognisable in worker-death logs.
            os._exit(86)
        raise ValueError(f"unknown fault action {self.action!r}")


class FaultInjector:
    """A ``Budget.hook`` that fires :class:`FaultSpec` triggers.

    The injector is stateless across budgets except for the per-spec fired
    counters; pass a fresh injector (or call :meth:`reset`) per check when
    replaying a schedule.
    """

    def __init__(self, specs: Sequence[FaultSpec] = ()) -> None:
        self.specs: List[FaultSpec] = list(specs)
        #: every (stage, count) event seen — the observation trace chaos
        #: tests use to discover valid coordinates for the next round
        self.trace_enabled = False
        self.trace: List[tuple] = []

    def reset(self) -> None:
        for spec in self.specs:
            spec.fired = 0
        self.trace.clear()

    def __call__(self, stage: str, count: int) -> None:
        if self.trace_enabled:
            self.trace.append((stage, count))
        for spec in self.specs:
            if spec.fired >= spec.repeat:
                continue
            if count == spec.at and fnmatchcase(stage, spec.stage):
                spec.trigger(stage)


#: stage patterns a seeded schedule draws from — one per engine layer the
#: budget reaches, so chaos coverage spans the whole pipeline
_FAULT_SITES = (
    "enter:normalize",
    "enter:decompose",
    "enter:solve",
    "enter:encode",
    "enter:reduce",
    "normalize",
    "automata.*",
    "eqsolver.*",
    "reduce.cases",
    "solve.branch",
    "mbqi.round",
    "parikh.connect",
    "lia.*",
)

_ACTIONS = ("raise", "raise", "exhaust", "interrupt")


def seeded_faults(seed: int, count: int = 1) -> FaultInjector:
    """A reproducible random fault schedule: same seed → same chaos.

    Draws ``count`` specs over the fault sites with trigger ordinals in
    ``[1, 50]``.  Actions are sampled with replacement (plain raises weigh
    double, as unexpected exceptions are the richest source of cleanup
    bugs).
    """
    rng = random.Random(seed)
    specs = [
        FaultSpec(
            stage=rng.choice(_FAULT_SITES),
            at=rng.randint(1, 50),
            action=rng.choice(_ACTIONS),
        )
        for _ in range(count)
    ]
    return FaultInjector(specs)
