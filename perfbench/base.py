"""What every workload provides to the runner."""

from __future__ import annotations

import bisect
import os
import resource
from contextlib import nullcontext
import statistics
import time
from typing import Callable, Dict, List

import repro.smtlib.parser as smt_parser
from workloads import Item, fingerprint, items_for, printed_inputs

#: the ``serve.*`` per-layer metrics of a workload that does not serve
NO_SERVE = {
    "serve.queue_wait_ms.p50": 0.0,
    "serve.portfolio.cancelled_ratio": 0.0,
    "serve.dedup.hit_ratio": 0.0,
    "serve.worker_restarts": 0,
}
#: reference samples this long before and after a check normalise it
#: (over ~5 s the solver/loop time ratio held within 1.3 %)
REFERENCE_WINDOW_S = 2.5


def reference_ms() -> float:
    """Wall time of a fixed pure-Python loop (~3 ms): the host's speed now.

    The box's CPU speed drifts by up to 2x within minutes; solver time and
    this loop's time move together (measured correlation 0.78 per adjacent
    pair, ratio within 1.3 % over 5 s blocks), so costs are reported in
    units of this loop's time, taken next to the work they normalise.
    """
    begin = time.perf_counter()
    table: Dict[int, int] = {}
    total = 0
    for i in range(12_000):
        table[i % 97] = table.get(i % 97, 0) + i
        total += len(str(i))
    return (time.perf_counter() - begin) * 1000.0


def reference_all_cpus_ms() -> float:
    """The reference loop once on each CPU this process may use, averaged.

    Work that runs in other processes (the serve workers, one per CPU)
    sees every CPU, while this process sits on one; the CPUs of the box
    drift apart in speed (one loop read 4.5 ms on CPU 0 and 2.7 ms on
    CPU 1 at the same time).
    """
    cpus = os.sched_getaffinity(0)
    samples = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            samples.append(reference_ms())
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.mean(samples)


class PassResult:
    """One pass: per-check latencies, reference-loop samples, check time."""

    def __init__(self, reference: Callable[[], float] = reference_ms) -> None:
        self.reference = reference
        self.latencies_ms: List[float] = []
        self.names: List[str] = []
        #: reference-loop samples (one before the first check, one after
        #: each) and when each was taken
        self.reference_ms: List[float] = [reference()]
        self.sampled_at: List[float] = [time.perf_counter()]
        self.solve_s = 0.0

    def add(self, name: str, seconds: float) -> None:
        """Record one check, then sample the reference loop."""
        self.names.append(name)
        self.latencies_ms.append(seconds * 1000.0)
        self.solve_s += seconds
        self.reference_ms.append(self.reference())
        self.sampled_at.append(time.perf_counter())

    def costs(self) -> List[float]:
        """Each check's latency in reference-loop units: divided by the
        median of the samples from REFERENCE_WINDOW_S before the check to
        REFERENCE_WINDOW_S after it (at least the two around it)."""
        at = self.sampled_at
        costs = []
        for i, ms in enumerate(self.latencies_ms):
            low = bisect.bisect_left(at, at[i] - REFERENCE_WINDOW_S, 0, i)
            high = bisect.bisect_right(at, at[i + 1] + REFERENCE_WINDOW_S, i + 2)
            costs.append(ms / statistics.median(self.reference_ms[low:high]))
        return costs


class Workload:
    """Seeded inputs, set-up, and one pass over them."""

    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.items: List[Item] = []
        self.printed: List = []
        self.fingerprint: Dict[str, object] = {}

    def setup(self) -> None:
        """Generate the inputs and fingerprint them (repeatable)."""
        self.items = items_for(self.name, self.seed)
        self.printed = printed_inputs(self.items)
        self.fingerprint = fingerprint(self.seed, self.printed)

    def run_pass(self, judge, tracer=None) -> PassResult:
        raise NotImplementedError

    def parse_inputs(self) -> None:
        """Parse every printed input back (the ``smtlib`` layer's work)."""
        for _name, text in self.printed:
            smt_parser.parse_script(text)

    def traced_subject(self) -> "Workload":
        """The workload whose passes the traced run wraps (this one)."""
        return self

    def serve_metrics(self, judge) -> Dict[str, float]:
        return dict(NO_SERVE)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        pass


def check_span(tracer, name: str):
    """The benchmark's own root span around one check (no-op untraced)."""
    return tracer.span("check", instance=name) if tracer is not None else nullcontext()
