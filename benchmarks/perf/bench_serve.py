"""Latency-under-load benchmark + verdict-identity gate for ``repro.serve``.

Two phases against one real server subprocess (spawned workers, each
warming its normalisation cache on the corpus scripts):

* **identity** — every corpus script is solved in-process (the
  ``python -m repro.smtlib`` path, same timeout) and through the server at
  concurrency :data:`IDENTITY_CONCURRENCY` (low enough that a small box
  keeps the slowest corpus file inside the shared timeout).  Gates:
  **0 wrong verdicts** (a decided server verdict may not contradict a
  decided in-process verdict, nor the corpus's ``(set-info :status …)``
  ground truth), **0 dropped answers** (one answer per ``check-sat``,
  every request responded to) and **every unknown structured** (a
  ``; unknown: <reason>`` line per undecided check).  Decidedness itself
  may differ — scheduling noise can cost a borderline instance — so those
  are *reported* (``server_only_decided`` / ``local_only_decided``), not
  failed.

* **load** — a traffic replay of the corpus's fast slice (in-process time
  under :data:`FAST_SLICE_SECONDS`) at several client concurrency levels,
  measuring per-request wall latency from the client side.  Reported per
  level: p50/p99/mean latency and throughput.  Each job occupies one
  worker, so throughput plateaus once every worker is busy and p99 grows
  with concurrency — the point of the bench is to put numbers on exactly
  that.

The report lands in ``BENCH_serve.json`` next to this file (``--output``
to redirect), including the server's own counters (dedup, abandoned jobs,
restarts) and the shutdown exit code — the run fails unless the server
exits 0 with every worker reaped.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_serve.py [--quick] [--output P]
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

_HERE = os.path.dirname(os.path.abspath(__file__))
_REPO = os.path.dirname(os.path.dirname(_HERE))
_SRC = os.path.join(_REPO, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

DEFAULT_OUTPUT_PATH = os.path.join(_HERE, "BENCH_serve.json")
CORPUS_DIR = os.path.join(_REPO, "benchmarks", "smtlib")

#: per-job wall budget, both in-process and on the server
TIMEOUT = 30.0
#: corpus files at most this slow in-process form the load-phase slice
FAST_SLICE_SECONDS = 0.35
#: client concurrency of the verdict-identity phase
IDENTITY_CONCURRENCY = 2
#: client concurrency levels of the load phase
CONCURRENCY_LEVELS = (1, 2, 4, 8)
#: requests per concurrency level (full / quick)
QUERIES_PER_LEVEL = 300
QUERIES_PER_LEVEL_QUICK = 30
#: corpus slice of the quick identity phase (files, sorted order)
QUICK_IDENTITY_SLICE = 12


class _ServerProc:
    """The benchmarked ``python -m repro.serve`` subprocess."""

    def __init__(self, workers: int) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [_SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.serve",
                "--port", "0",
                "--workers", str(workers),
                "--timeout", str(TIMEOUT),
                "--warm", os.path.join(CORPUS_DIR, "*.smt2"),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            cwd=_REPO,
            text=True,
        )
        ready = self.proc.stdout.readline()
        match = re.search(r"listening on ([\d.]+):(\d+)", ready)
        if not match:
            self.proc.kill()
            raise RuntimeError(f"server did not start: {ready!r}\n{self.proc.stderr.read()}")
        self.host, self.port = match.group(1), int(match.group(2))

    def client(self):
        from repro.serve import ServeClient

        return ServeClient(self.host, self.port, timeout=TIMEOUT * 4)

    def stop(self) -> int:
        from repro.serve import ServeError

        try:
            with self.client() as client:
                client.shutdown()
        except ServeError:
            pass
        try:
            return self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            return -1


def _solve_in_process(path: str) -> Dict:
    from repro.smtlib import ScriptRunner, parse_script
    from repro.solver import SolverConfig

    with open(path) as handle:
        text = handle.read()
    script = parse_script(text)
    runner = ScriptRunner(config=SolverConfig(timeout=TIMEOUT))
    started = time.monotonic()
    runner.run_script(script, name=os.path.basename(path))
    return {
        "text": text,
        "expected": script.expected_status,
        "verdicts": list(runner.verdicts),
        "seconds": time.monotonic() - started,
    }


def _structured_unknowns_ok(response: Dict) -> bool:
    """Every unknown verdict has a ``; unknown: <reason>`` output line."""
    unknowns = sum(1 for verdict in response["verdicts"] if verdict == "unknown")
    reasons = sum(
        1 for line in response["output"] if line.startswith("; unknown:")
    )
    return reasons >= unknowns


def _run_identity(server: _ServerProc, baselines: Dict[str, Dict]) -> Dict:
    names = sorted(baselines)
    failures: List[str] = []
    server_only: List[str] = []
    local_only: List[str] = []
    unstructured: List[str] = []
    dropped: List[str] = []
    lock = threading.Lock()
    queue = list(names)

    def worker() -> None:
        with server.client() as client:
            while True:
                with lock:
                    if not queue:
                        return
                    name = queue.pop()
                base = baselines[name]
                try:
                    response = client.solve(base["text"], name=name, timeout=TIMEOUT)
                except Exception as error:  # noqa: BLE001 - a drop, report it
                    with lock:
                        dropped.append(f"{name}: {error}")
                    continue
                with lock:
                    if not response.get("ok"):
                        dropped.append(f"{name}: {response.get('error')}")
                        continue
                    got = response["verdicts"]
                    want = base["verdicts"]
                    if len(got) != len(want):
                        dropped.append(f"{name}: {len(got)} answers for {len(want)} checks")
                        continue
                    if not _structured_unknowns_ok(response):
                        unstructured.append(name)
                    expected = base["expected"]
                    for index, (local, remote) in enumerate(zip(want, got)):
                        both = {local, remote}
                        if both == {"sat", "unsat"}:
                            failures.append(
                                f"{name}#{index}: server {remote} vs local {local}"
                            )
                        elif remote in ("sat", "unsat") and expected in ("sat", "unsat") \
                                and remote != expected:
                            failures.append(
                                f"{name}#{index}: server {remote} vs status {expected}"
                            )
                        elif remote in ("sat", "unsat") and local == "unknown":
                            server_only.append(f"{name}#{index}")
                        elif local in ("sat", "unsat") and remote == "unknown":
                            local_only.append(f"{name}#{index}")

    threads = [threading.Thread(target=worker) for _ in range(IDENTITY_CONCURRENCY)]
    started = time.monotonic()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return {
        "files": len(names),
        "seconds": round(time.monotonic() - started, 3),
        "wrong_verdicts": len(failures),
        "wrong": failures,
        "dropped_responses": len(dropped),
        "dropped": dropped,
        "unstructured_unknowns": len(unstructured),
        "unstructured": unstructured,
        "server_only_decided": server_only,
        "local_only_decided": local_only,
    }


def _run_load(
    server: _ServerProc, slice_texts: List[str], levels, queries: int
) -> List[Dict]:
    results = []
    for concurrency in levels:
        latencies: List[float] = []
        errors: List[str] = []
        lock = threading.Lock()
        counter = iter(range(queries))

        def worker() -> None:
            with server.client() as client:
                while True:
                    with lock:
                        index = next(counter, None)
                    if index is None:
                        return
                    text = slice_texts[index % len(slice_texts)]
                    started = time.monotonic()
                    try:
                        response = client.solve(text, name=f"load-{index}", timeout=TIMEOUT)
                        elapsed = time.monotonic() - started
                        if not response.get("ok") or not response.get("verdicts"):
                            raise RuntimeError(response.get("error", "empty response"))
                    except Exception as error:  # noqa: BLE001
                        with lock:
                            errors.append(f"query {index}: {error}")
                        continue
                    with lock:
                        latencies.append(elapsed)

        threads = [threading.Thread(target=worker) for _ in range(concurrency)]
        phase_start = time.monotonic()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.monotonic() - phase_start
        latencies.sort()

        def _pct(fraction: float) -> float:
            if not latencies:
                return 0.0
            index = min(len(latencies) - 1, int(fraction * len(latencies)))
            return latencies[index]

        results.append({
            "concurrency": concurrency,
            "queries": queries,
            "answered": len(latencies),
            "dropped": len(errors),
            "errors": errors[:10],
            "wall_seconds": round(wall, 3),
            "throughput_qps": round(len(latencies) / wall, 2) if wall else 0.0,
            "p50_ms": round(_pct(0.50) * 1000, 1),
            "p99_ms": round(_pct(0.99) * 1000, 1),
            "mean_ms": round(statistics.fmean(latencies) * 1000, 1) if latencies else 0.0,
        })
        level = results[-1]
        print(
            f"  concurrency {concurrency:>2}: p50 {level['p50_ms']}ms  "
            f"p99 {level['p99_ms']}ms  {level['throughput_qps']} q/s  "
            f"({level['answered']}/{queries} answered)",
            flush=True,
        )
    return results


def run(quick: bool = False, output: Optional[str] = None, workers: int = 2) -> Dict:
    paths = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.smt2")))
    if not paths:
        raise SystemExit("no corpus files — run benchmarks/smtlib/generate.py first")
    if quick:
        # Stride-sample so the quick slice spans every corpus family (the
        # alphabetical prefix is the slowest family; a diverse slice keeps
        # the smoke fast and gives the load phase more than one fast file).
        stride = max(1, len(paths) // QUICK_IDENTITY_SLICE)
        identity_paths = paths[::stride][:QUICK_IDENTITY_SLICE]
    else:
        identity_paths = paths

    print(f"in-process baseline over {len(identity_paths)} corpus files…", flush=True)
    baselines: Dict[str, Dict] = {}
    for path in identity_paths:
        baselines[os.path.basename(path)] = _solve_in_process(path)
    baseline_seconds = sum(base["seconds"] for base in baselines.values())
    print(f"  {baseline_seconds:.1f}s in-process", flush=True)

    # The fast slice for the load replay is chosen from measured in-process
    # times, so the latency numbers are queueing + serve overhead, not a
    # handful of hard instances dominating every percentile.
    slice_texts = [
        base["text"]
        for base in baselines.values()
        if base["seconds"] <= FAST_SLICE_SECONDS and base["verdicts"]
    ]
    if not slice_texts:
        raise SystemExit("no corpus file fits the fast slice — corpus changed?")

    server = _ServerProc(workers=workers)
    print(
        f"server up on {server.host}:{server.port} (workers={workers})", flush=True
    )
    try:
        print(f"identity phase (concurrency {IDENTITY_CONCURRENCY})…", flush=True)
        identity = _run_identity(server, baselines)
        print(
            f"  wrong={identity['wrong_verdicts']} dropped={identity['dropped_responses']} "
            f"unstructured={identity['unstructured_unknowns']}",
            flush=True,
        )

        queries = QUERIES_PER_LEVEL_QUICK if quick else QUERIES_PER_LEVEL
        levels = CONCURRENCY_LEVELS
        print(
            f"load phase: {queries} queries × {len(levels)} levels over a "
            f"{len(slice_texts)}-file fast slice…",
            flush=True,
        )
        load = _run_load(server, slice_texts, levels, queries)

        with server.client() as client:
            server_stats = client.stats()["stats"]
    finally:
        exit_code = server.stop()
    print(f"server shutdown exit code: {exit_code}", flush=True)

    report = {
        "quick": quick,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "workers": workers,
        "timeout": TIMEOUT,
        "corpus_files": len(identity_paths),
        "fast_slice_files": len(slice_texts),
        "fast_slice_cutoff_seconds": FAST_SLICE_SECONDS,
        "baseline_seconds": round(baseline_seconds, 1),
        "identity": identity,
        "load": load,
        "server_stats": server_stats,
        "shutdown_exit_code": exit_code,
    }

    gates = {
        "wrong_verdicts": identity["wrong_verdicts"] == 0,
        "dropped_responses": identity["dropped_responses"] == 0
        and all(level["dropped"] == 0 for level in load),
        "structured_unknowns": identity["unstructured_unknowns"] == 0,
        "clean_shutdown": exit_code == 0,
    }
    report["gates"] = gates
    report["passed"] = all(gates.values())

    path = output or DEFAULT_OUTPUT_PATH
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"report written to {path}", flush=True)
    if not report["passed"]:
        failed = [name for name, ok in gates.items() if not ok]
        print(f"GATES FAILED: {', '.join(failed)}", file=sys.stderr, flush=True)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI smoke subset")
    parser.add_argument("--output", default=None, help="report path")
    parser.add_argument("--workers", type=int, default=2, help="server worker fleet size")
    args = parser.parse_args(argv)
    report = run(quick=args.quick, output=args.output, workers=args.workers)
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
