"""Evaluation harness: runs solvers over benchmark sets and aggregates results.

The harness reproduces the accounting of §8:

* **OOR** — the solver ran out of resources (timeout in this reproduction),
* **Unknown** — the solver answered ``unknown``,
* **Time** — total time on finished (sat/unsat) instances,
* **TimeAll** — total time counting every OOR/Unknown instance at the full
  per-instance timeout (the paper uses the same convention).

It also produces the per-instance records needed for the scatter plots of
Fig. 6 and the cactus plot of Fig. 7.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..strings.ast import Problem
from ..solver.result import SolveResult, Status

Instance = Tuple[str, Problem, Optional[str]]
SolverFactory = Callable[[], object]


#: solver counters reported in the per-instance CSV (when the solver
#: exposes them through ``SolveResult.stats``; ``cache_hits`` counts the
#: CNF encoder's structural cache hits only)
STAT_COLUMNS = (
    "decisions",
    "propagations",
    "conflicts",
    "theory_checks",
    "learned_clauses",
    "restarts",
    "pivots",
    "cache_hits",
)


@dataclass
class RunRecord:
    """Result of one solver on one instance."""

    benchmark: str
    instance: str
    solver: str
    status: Status
    time: float
    expected: Optional[str] = None
    stats: Dict[str, int] = field(default_factory=dict)

    @property
    def solved(self) -> bool:
        return self.status in (Status.SAT, Status.UNSAT)

    @property
    def agrees_with_expectation(self) -> bool:
        if self.expected is None or not self.solved:
            return True
        return self.status.value == self.expected


@dataclass
class TableRow:
    """One (solver, benchmark set) aggregate in the style of Table 1."""

    solver: str
    benchmark: str
    instances: int
    oor: int
    unknown: int
    wrong: int
    time_finished: float
    time_all: float


@dataclass
class Campaign:
    """All per-instance records of one evaluation run."""

    records: List[RunRecord] = field(default_factory=list)
    timeout: float = 10.0

    # ------------------------------------------------------------------
    def add(self, record: RunRecord) -> None:
        self.records.append(record)

    def solvers(self) -> List[str]:
        return sorted({record.solver for record in self.records})

    def benchmarks(self) -> List[str]:
        seen: Dict[str, None] = {}
        for record in self.records:
            seen.setdefault(record.benchmark, None)
        return list(seen)

    # ------------------------------------------------------------------
    def table_rows(self) -> List[TableRow]:
        """Aggregate the records into Table-1-style rows (plus an "all" row)."""
        rows: List[TableRow] = []
        benchmarks = self.benchmarks() + ["all"]
        for solver in self.solvers():
            for benchmark in benchmarks:
                selected = [
                    r
                    for r in self.records
                    if r.solver == solver and (benchmark == "all" or r.benchmark == benchmark)
                ]
                if not selected:
                    continue
                oor = sum(1 for r in selected if r.status is Status.TIMEOUT)
                unknown = sum(1 for r in selected if r.status is Status.UNKNOWN)
                wrong = sum(1 for r in selected if not r.agrees_with_expectation)
                finished = [r for r in selected if r.solved]
                time_finished = sum(r.time for r in finished)
                time_all = time_finished + self.timeout * (oor + unknown)
                rows.append(
                    TableRow(
                        solver=solver,
                        benchmark=benchmark,
                        instances=len(selected),
                        oor=oor,
                        unknown=unknown,
                        wrong=wrong,
                        time_finished=time_finished,
                        time_all=time_all,
                    )
                )
        return rows

    def format_table(self) -> str:
        """Render the aggregate table as aligned text (the Table 1 analogue)."""
        header = f"{'solver':<22} {'benchmark':<18} {'N':>5} {'OOR':>5} {'Unk':>5} {'Wrong':>6} {'Time':>9} {'TimeAll':>9}"
        lines = [header, "-" * len(header)]
        for row in self.table_rows():
            lines.append(
                f"{row.solver:<22} {row.benchmark:<18} {row.instances:>5} {row.oor:>5} "
                f"{row.unknown:>5} {row.wrong:>6} {row.time_finished:>9.2f} {row.time_all:>9.2f}"
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def scatter_points(self, solver_x: str, solver_y: str) -> List[Tuple[str, float, float]]:
        """Per-instance (time_x, time_y) pairs for a Fig. 6 style scatter plot.

        Unsolved instances are reported at the timeout value, as in the paper.
        """
        by_key: Dict[Tuple[str, str], Dict[str, RunRecord]] = {}
        for record in self.records:
            by_key.setdefault((record.benchmark, record.instance), {})[record.solver] = record
        points = []
        for (benchmark, instance), entries in by_key.items():
            if solver_x in entries and solver_y in entries:
                x = entries[solver_x].time if entries[solver_x].solved else self.timeout
                y = entries[solver_y].time if entries[solver_y].solved else self.timeout
                points.append((f"{benchmark}/{instance}", x, y))
        return points

    def cactus_series(self) -> Dict[str, List[float]]:
        """Sorted runtimes of solved instances per solver (Fig. 7 analogue)."""
        series: Dict[str, List[float]] = {}
        for solver in self.solvers():
            times = sorted(r.time for r in self.records if r.solver == solver and r.solved)
            series[solver] = times
        return series

    def format_cactus(self) -> str:
        """Render the cactus data as a small text table (solved count at
        each tenth of the timeout)."""
        series = self.cactus_series()
        budgets = [self.timeout * (i + 1) / 10 for i in range(10)]
        lines = ["instances solved within a per-instance budget (cactus plot data):"]
        header = "budget[s]".ljust(12) + "".join(s.ljust(22) for s in series)
        lines.append(header)
        for budget in budgets:
            row = f"{budget:<12.2f}"
            for solver, times in series.items():
                solved = sum(1 for t in times if t <= budget)
                row += str(solved).ljust(22)
            lines.append(row)
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def to_csv(self) -> str:
        """Dump the per-instance records as CSV (for external plotting)."""
        output = io.StringIO()
        writer = csv.writer(output)
        writer.writerow(
            ["benchmark", "instance", "solver", "status", "time", "expected"]
            + list(STAT_COLUMNS)
        )
        for record in self.records:
            writer.writerow(
                [record.benchmark, record.instance, record.solver, record.status.value,
                 f"{record.time:.4f}", record.expected or ""]
                + [record.stats.get(column, "") for column in STAT_COLUMNS]
            )
        return output.getvalue()


def run_campaign(
    benchmark_sets: Mapping[str, Sequence[Instance]],
    solver_factories: Mapping[str, SolverFactory],
    timeout: float = 10.0,
) -> Campaign:
    """Run every solver on every instance of every benchmark set.

    ``solver_factories`` maps a solver name to a zero-argument callable
    returning a fresh solver object with a ``check(problem)`` method; a fresh
    solver is created per instance so no state leaks between runs.
    """
    campaign = Campaign(timeout=timeout)
    for benchmark, instances in benchmark_sets.items():
        for instance_name, problem, expected in instances:
            for solver_name, factory in solver_factories.items():
                solver = factory()
                result: SolveResult = solver.check(problem)
                status = result.status
                elapsed = min(result.elapsed, timeout)
                if result.elapsed >= timeout and not result.solved:
                    status = Status.TIMEOUT
                campaign.add(
                    RunRecord(
                        benchmark=benchmark,
                        instance=instance_name,
                        solver=solver_name,
                        status=status,
                        time=elapsed,
                        expected=expected,
                        stats=dict(getattr(result, "stats", None) or {}),
                    )
                )
    return campaign
