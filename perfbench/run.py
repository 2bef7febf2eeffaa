"""Seeded, layer-traced benchmark of the position-constraint string solver.

Usage (from the repository root)::

    python3 perfbench/run.py --workload oneshot --seed 1 --seconds 20 --trace 0

Workloads: ``oneshot``, ``pipelines``, ``serve-replay`` (see ``README.md``
for why each exists).  One process runs the workload
closed-loop: after one untimed warm-up pass, whole passes over the inputs
repeat for about ``--seconds`` and at least MIN_CHECKS checks.  Every answer is checked (see
``checks.py``) outside the timed region.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs a warm-up,
an untraced and two traced passes and prints the per-layer metrics, tracing
overhead, leaf-span coverage and which work counts repeat exactly.  The
last stdout line is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  Detailed reports and the Chrome trace go to
``.perfbench/`` in the repository root.  The exit code is 1 when any
verdict is wrong, 2 when the program under test is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

import layers
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("oneshot", "pipelines", "serve-replay")
#: set-up (and, in a fresh interpreter, the imports) is repeated this often
#: per run; ``setup_s`` is the sum of the two medians
SETUP_REPEATS = 3
#: the fewest checks a timed run may report (p75 keeps >= 10 beyond it)
MIN_CHECKS = 40

#: (name, unit) of every end-to-end metric, in report order; ``ref`` is the
#: time of the reference loop (``base.reference_ms``) on the same host
END_TO_END = (
    ("solve_cost", "ref"),
    ("checks_per_kref", "1/kref"),
    ("check_cost.p50", "ref"),
    ("check_cost.p75", "ref"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def percentile(values: List[float], fraction: float) -> float:
    """Harrell–Davis estimate of a quantile.

    A Beta((n+1)p, (n+1)(1-p))-weighted average of all order statistics.
    Check costs spread over orders of magnitude, so neighbouring order
    statistics differ by 20-30 %; a single one (the sample median) jumps
    between them from run to run, the weighted average does not.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = fraction * (n + 1), (1.0 - fraction) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(t: float) -> float:
        if t <= 0.0 or t >= 1.0:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log(1 - t))

    weights = []
    steps = 16  # Simpson's rule on each 1/n slice
    for index in range(n):
        low, width = index / n, 1.0 / (n * steps)
        inner = sum((4 if k % 2 else 2) * density(low + k * width) for k in range(1, steps))
        weights.append((density(low) + inner + density(low + steps * width)) * width / 3)
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def timed_passes(workload, judge, seconds: float) -> List:
    """One untimed warm-up pass, then a closed loop over whole passes, so
    every input gets the same number of samples.

    The warm-up pass fills what only checks fill (the automata intern
    table, each serve worker's normalization cache), so no timed sample
    runs cold however many passes the host's speed allows; its answers are
    judged too.  Timed passes go on until MIN_CHECKS are done and one more
    pass would end more than half a pass past ``seconds``."""
    workload.run_pass(judge)
    begin = time.perf_counter()
    passes: List = []
    while True:
        started = time.perf_counter()
        passes.append(workload.run_pass(judge))
        now = time.perf_counter()
        checks = sum(len(p.latencies_ms) for p in passes)
        if checks >= MIN_CHECKS and now - begin + (now - started) / 2 >= seconds:
            return passes


def end_to_end(passes: List, setup_s: float, rss_mb: float) -> Dict[str, float]:
    """The gated metrics (host-speed-normalised) and their wall-clock twins."""
    latencies = [ms for p in passes for ms in p.latencies_ms]
    costs = [c for p in passes for c in p.costs()]
    busy = sum(p.solve_s for p in passes)
    return {
        "solve_cost": statistics.median(sum(p.costs()) for p in passes),
        "checks_per_kref": 1000.0 * len(costs) / sum(costs),
        "check_cost.p50": percentile(costs, 0.50),
        "check_cost.p75": percentile(costs, 0.75),
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
        "solve_s": statistics.median(p.solve_s for p in passes),
        "checks_per_s": len(latencies) / busy,
        "check_ms.p50": percentile(latencies, 0.50),
        "check_ms.p75": percentile(latencies, 0.75),
        "reference_ms": statistics.median(r for p in passes for r in p.reference_ms),
    }


def _write(name: str, payload) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, name)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path


def traced_run(workload, judge, tag: str):
    """Warm-up, untraced, then two traced passes: the per-layer metrics.

    Returns the metrics and the names of the work counts that read the
    same in both traced passes.
    """
    subject = workload.traced_subject()
    subject.run_pass(judge)
    untraced = subject.run_pass(judge)
    metrics: Dict[str, float] = {}
    snapshots = []
    traced_solve = []
    for index in range(2):
        with Tracer(layers.PROBES) as tracer:
            subject.parse_inputs()
            traced_solve.append(sum(subject.run_pass(judge, tracer=tracer).costs()))
        snapshots.append(layers.layer_metrics(tracer))
        if index == 0:
            metrics.update(snapshots[0])
            metrics.update(layers.coverage_metrics(tracer))
            path = _write(f"trace-{tag}.json", tracer.chrome_trace())
            print(f"[trace] {len(tracer.spans)} spans -> {path}")
    repeatable = layers.repeatable_counts(snapshots[0], snapshots[1])
    changed = [name for name in layers.COUNT_METRICS if name not in repeatable]
    print(f"[trace] counts repeating exactly: {', '.join(repeatable) or '-'}")
    print(f"[trace] counts that changed between passes: {', '.join(changed) or '-'}")
    metrics["trace.repeatable_counts"] = len(repeatable)
    metrics["trace.overhead_ratio"] = statistics.median(traced_solve) / sum(untraced.costs())
    metrics.update(workload.serve_metrics(judge))
    return metrics, repeatable


def import_seconds(workload_name: str) -> float:
    """Median wall time of a fresh interpreter importing the workload."""
    module = "serve_replay" if workload_name == "serve-replay" else "oneshot"
    code = f"import sys; sys.path[:0] = [{SRC!r}, {HERE!r}]; import checks, {module}"
    samples = []
    for _ in range(SETUP_REPEATS):
        begin = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        samples.append(time.perf_counter() - begin)
    return statistics.median(samples)


def make_workload(name: str, seed: int):
    if name == "serve-replay":
        from serve_replay import ServeWorkload

        return ServeWorkload(seed, SRC, OUT_DIR)
    from oneshot import OneShotWorkload

    return OneShotWorkload(name, seed)


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    sys.path.insert(0, SRC)
    from checks import Judge

    workload = make_workload(workload_name, seed)
    import_s = import_seconds(workload_name)
    setups = []
    try:
        for _ in range(SETUP_REPEATS):
            begin = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - begin)
        setup_s = import_s + statistics.median(setups)
        fingerprint = workload.fingerprint
        print(f"[{workload_name}] seed {seed}: {fingerprint['inputs']} inputs, "
              f"sha256 {fingerprint['sha256'][:16]}, setup {setup_s:.3f}s")

        judge = Judge()
        tag = f"{workload_name}-seed{seed}-trace{int(trace)}"
        if trace:
            metrics, repeatable = traced_run(workload, judge, tag)
            extra = {"repeatable_counts": repeatable}
            units = {name: unit for name, unit, _ in layers.PER_LAYER}
        else:
            passes = timed_passes(workload, judge, seconds)
            metrics = end_to_end(passes, setup_s, workload.peak_rss_mb())
            samples = sum(len(p.latencies_ms) for p in passes)
            print(f"[{workload_name}] {samples} checks in {len(passes)} passes; "
                  f"p75 has {samples - int(0.75 * samples)} samples beyond it")
            print(f"[{workload_name}] wall clock: solve_s {metrics['solve_s']:.3f}, "
                  f"checks_per_s {metrics['checks_per_s']:.3f}, check_ms p50 "
                  f"{metrics['check_ms.p50']:.1f} p75 {metrics['check_ms.p75']:.1f}; "
                  f"reference loop {metrics['reference_ms']:.3f} ms")
            per_input: Dict[str, List[float]] = {}
            for p in passes:
                for name, ms in zip(p.names, p.latencies_ms):
                    per_input.setdefault(name, []).append(ms)
            extra = {
                "passes": len(passes),
                "checks": samples,
                "check_ms_by_input": per_input,
            }
            units = dict(END_TO_END)
    finally:
        workload.close()

    attempted = sum(judge.counts.values())
    failed_frac = judge.failed / attempted if attempted else 0.0
    print(f"[{workload_name}] outcomes {judge.counts}; wrong={judge.wrong}, "
          f"failed_frac={failed_frac:.4f}")
    for line in judge.failures:
        print(f"[{workload_name}]   {line}")
    report = {
        "workload": workload_name,
        "trace": trace,
        "fingerprint": fingerprint,
        "outcomes": judge.counts,
        "failures": judge.failures,
        "wrong": judge.wrong,
        "failed_frac": failed_frac,
        "import_s": import_s,
        "setup_runs_s": setups,
        "metrics": metrics,
        **extra,
    }
    print(f"[{workload_name}] report -> {_write(f'report-{tag}.json', report)}")
    result = {
        "correct": judge.wrong == 0,
        "attempted": attempted,
        "failed": judge.failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0 if judge.wrong == 0 else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: the program under test is missing ({SRC}/repro)", file=sys.stderr)
        return 2
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
