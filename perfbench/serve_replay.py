"""``serve-replay``: the pipelines and oneshot inputs through ``repro.serve``.

The inputs are printed with ``problem_to_smtlib`` (plus ``(get-model)`` so
sat answers can be verified) and sent over one closed-loop connection to
``python -m repro.serve`` with :data:`WORKERS` workers and the default
portfolio.  With two connections a request's latency depended mostly on
which request happened to run beside it (the portfolio races two
strategies, so two jobs share two workers): the median latency spread by
47-69 % between runs.  Set-up boots the server, warmed with the same
scripts, and sends one warm-up job.  The traced run cannot see inside the
server's worker processes, so it traces the same inputs solved in-process
and takes the ``serve.*`` metrics from one server pass plus the ``stats``
verb.
"""

from __future__ import annotations

import glob
import os
import re
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

from base import PassResult, Workload, reference_all_cpus_ms
from oneshot import OneShotWorkload
from repro.serve import ServeClient, ServeError
from repro.smtlib.printer import problem_to_smtlib
from workloads import Item, chain_problem

WORKERS = 2
#: appended to every printed input, so sat answers carry their model
GET_MODEL = "(get-model)\n"
#: seconds the server may take to print its ready line
BOOT_TIMEOUT = 60.0
#: the solver's outermost budget stages; ``encode`` runs inside ``solve``,
#: so summing every ``ms.*`` stat would count it twice
TOP_LEVEL_STAGES = ("reduce", "normalize", "decompose", "solve")

_READY = re.compile(r"listening on ([\d.]+):(\d+)")
_STRING = re.compile(r'\(define-fun (\S+) \(\) String "((?:[^"]|"")*)"\)')
_INT = re.compile(r"\(define-fun (\S+) \(\) Int (\(- \d+\)|\d+)\)")


def parse_model(lines: List[str]):
    """The ``get-model`` answer of a response as (strings, integers)."""
    text = "\n".join(lines)
    strings = {name: value.replace('""', '"') for name, value in _STRING.findall(text)}
    integers = {}
    for name, value in _INT.findall(text):
        integers[name] = -int(value[3:-1]) if value.startswith("(-") else int(value)
    return strings, integers


def _tree_pids(pid: int) -> List[int]:
    """``pid`` and all its descendants."""
    pids = [pid]
    index = 0
    while index < len(pids):
        for children in glob.glob(f"/proc/{pids[index]}/task/*/children"):
            try:
                with open(children) as handle:
                    pids.extend(int(child) for child in handle.read().split())
            except OSError:
                continue  # the task ended while we looked
        index += 1
    return pids


def _peak_rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class _Server:
    """One ``python -m repro.serve`` subprocess on an ephemeral port."""

    def __init__(self, src: str, warm_glob: str, log_path: str) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = src
        self.log = open(log_path, "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--port", "0", "--workers", str(WORKERS),
             "--timeout", "30", "--warm", warm_glob],
            stdout=self.log, stderr=subprocess.STDOUT, env=env, cwd=os.path.dirname(src),
        )
        deadline = time.monotonic() + BOOT_TIMEOUT
        while True:
            with open(log_path) as handle:
                match = _READY.search(handle.read())
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                return
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.proc.kill()
                self.proc.wait(timeout=30)
                self.log.close()
                raise RuntimeError(f"repro.serve did not start (see {log_path})")
            time.sleep(0.02)

    def client(self) -> ServeClient:
        return ServeClient(self.host, self.port, timeout=120.0)

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                with self.client() as client:
                    client.shutdown()
            except ServeError:
                self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.log.close()


class ServeWorkload(Workload):
    name = "serve-replay"

    def __init__(self, seed: int, src: str, out_dir: str) -> None:
        super().__init__(seed)
        self.src = src
        self.out_dir = out_dir
        self.scripts: List[str] = []
        self.server: Optional[_Server] = None
        self.queue_wait_ms: List[float] = []

    def setup(self) -> None:
        super().setup()
        self.scripts = [text + GET_MODEL for _name, text in self.printed]
        warm_dir = os.path.join(self.out_dir, f"warm-seed{self.seed}")
        os.makedirs(warm_dir, exist_ok=True)
        for index, script in enumerate(self.scripts):
            with open(os.path.join(warm_dir, f"{index:03d}.smt2"), "w") as handle:
                handle.write(script)
        if self.server is not None:
            self.server.stop()
            self.server = None
        self.server = _Server(self.src, os.path.join(warm_dir, "*.smt2"),
                              os.path.join(self.out_dir, f"serve-seed{self.seed}.log"))
        with self.server.client() as client:
            client.solve(problem_to_smtlib(chain_problem(2)) + GET_MODEL)

    def run_pass(self, judge, tracer=None) -> PassResult:
        result = PassResult(reference_all_cpus_ms)
        answers = []
        with self.server.client() as client:
            for item, script in zip(self.items, self.scripts):
                begin = time.perf_counter()
                try:
                    response = client.solve(script, name=item.name, timeout=item.timeout)
                except ServeError as error:
                    response = {"ok": False, "error": str(error)}
                elapsed = time.perf_counter() - begin
                result.add(item.name, elapsed)
                answers.append((item, response, elapsed))
        for item, response, elapsed in answers:
            self._judge(judge, item, response, elapsed)
        return result

    def _judge(self, judge, item: Item, response, elapsed: float) -> None:
        if not response.get("ok") or not response.get("verdicts"):
            judge.judge(item.name, item.problem, "crash", item.expected,
                        reason=response.get("error", "no verdict"))
            return
        stats = response.get("stats", {})
        solve_ms = sum(stats.get(f"ms.{stage}", 0) for stage in TOP_LEVEL_STAGES)
        self.queue_wait_ms.append(max(elapsed * 1000.0 - solve_ms, 0.0))
        strings, integers = parse_model(response.get("output", []))
        reasons = response.get("reasons") or [""]
        judge.judge(item.name, item.problem, response["verdicts"][0], item.expected,
                    strings=strings, integers=integers, reason=reasons[0])

    def traced_subject(self) -> Workload:
        subject = OneShotWorkload("serve-replay", self.seed)
        subject.items = self.items
        subject.printed = self.printed
        return subject

    def serve_metrics(self, judge) -> Dict[str, float]:
        self.queue_wait_ms = []
        self.run_pass(judge)
        with self.server.client() as client:
            stats = client.stats()["stats"]
        runs = stats.get("portfolio_runs", 0)
        jobs = stats.get("jobs_total", 0)
        return {
            "serve.queue_wait_ms.p50": statistics.median(self.queue_wait_ms),
            "serve.portfolio.cancelled_ratio": stats.get("portfolio_cancelled", 0) / runs if runs else 0.0,
            "serve.dedup.hit_ratio": stats.get("jobs_deduped", 0) / jobs if jobs else 0.0,
            "serve.worker_restarts": stats.get("worker_restarts", 0),
        }

    def peak_rss_mb(self) -> float:
        if self.server is None:
            return 0.0
        return sum(_peak_rss_kb(pid) for pid in _tree_pids(self.server.proc.pid)) / 1024.0

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
