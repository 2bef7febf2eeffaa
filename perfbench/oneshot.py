"""``oneshot`` and ``pipelines``: one ``PositionSolver.check`` per input."""

from __future__ import annotations

import time
from typing import Optional

from base import PassResult, Workload, check_span
from repro.solver import PositionSolver, SolverConfig
from workloads import Item, chain_problem


def solve(item: Item):
    """One check; an exception becomes a ``crash`` answer, not an abort."""
    try:
        result = PositionSolver(SolverConfig(timeout=item.timeout)).check(item.problem)
    except Exception as error:  # noqa: BLE001 - judged and reported as a crash
        return None, f"{type(error).__name__}: {error}"
    return result, None


def judge_result(judge, item: Item, result, error: Optional[str]) -> None:
    if result is None:
        judge.judge(item.name, item.problem, "crash", item.expected, reason=error)
        return
    model = result.model
    judge.judge(
        item.name, item.problem, result.status.value, item.expected,
        strings=model.strings if model else None,
        integers=model.integers if model else None,
        reason=result.reason,
    )


class OneShotWorkload(Workload):
    def __init__(self, name: str, seed: int) -> None:
        super().__init__(seed)
        self.name = name

    def setup(self) -> None:
        super().setup()
        # Warm-up: lazy imports and first-use initialisation of every layer.
        solve(Item("warm-up", chain_problem(2), "sat", 20.0))

    def run_pass(self, judge, tracer=None) -> PassResult:
        result = PassResult()
        answers = []
        for item in self.items:
            with check_span(tracer, item.name):
                begin = time.perf_counter()
                answer, error = solve(item)
                elapsed = time.perf_counter() - begin
            result.add(item.name, elapsed)
            answers.append((item, answer, error))
        for item, answer, error in answers:
            judge_result(judge, item, answer, error)
        return result
