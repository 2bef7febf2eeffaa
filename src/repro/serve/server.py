"""The asyncio front door: connections, dedup, portfolio racing, retries.

One :class:`SolverServer` owns

* an ``asyncio`` TCP server speaking the JSON-lines protocol (plus the raw
  SMT-LIB fallback) of :mod:`repro.serve.protocol`,
* a ``ProcessPoolExecutor`` worker fleet (:mod:`repro.serve.workers`),
  warm-seeded from the parent's interned automata and wired to the shared
  cancellation-flag array,
* the in-flight table that dedups structurally identical jobs, and
* the per-job portfolio coordinator: race the configured strategies,
  answer with the first fully *decided* outcome, cancel the rest.

Job lifecycle (the ``solve`` op)::

    request line ──parse/validate──▶ dedup table ──hit──▶ share the
         │                              │                 in-flight future
         │ miss                         ▼
         ▼                        race strategies: one JobSpec per
    slot + generation per          strategy → executor; first decided
    strategy (backpressure:        outcome wins → write the losers'
    bounded slot pool)             cancel flags → respond; losers unwind
                                   at their next checkpoint and free
                                   their workers

Fault tolerance: a worker death breaks the whole pool
(``BrokenProcessPool``), so the server rebuilds the executor — warm
payload and flags are re-used — and retries the affected runs
(``retries`` per spec, solving is pure so a retry is safe); a run that
keeps dying answers a structured ``unknown``.  A *hung* worker (no
checkpoints, so no cancellation point) is abandoned at the job deadline
plus grace: the job answers structured ``unknown(timeout)`` verdicts and
the slot is reclaimed only when the worker eventually returns — the fleet
degrades instead of wedging, and the response is never dropped.
"""

from __future__ import annotations

import asyncio
import glob as globlib
import itertools
import math
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .portfolio import DEFAULT_PORTFOLIO, strategy_names
from .protocol import (
    JobOutcome,
    JobSpec,
    MAX_LINE_BYTES,
    conflicting_verdicts,
    count_check_sats,
    dedup_key,
    decode_line,
    encode_line,
    outcome_to_response,
    pad_outcome,
    synthetic_outcome,
)
from .workers import initializer, run_job

#: extra wall seconds past a job's deadline before the server stops
#: waiting for its workers and synthesises the response
DEADLINE_GRACE = 5.0


def _ensure_child_import_path() -> None:
    """Make ``repro`` importable in spawn children via ``PYTHONPATH``.

    The pool's spawn children import :mod:`repro.serve.workers` while
    unpickling the initializer; when the parent found ``repro`` through a
    ``sys.path`` edit (pytest's conftest, a script header) rather than an
    install, the child would not.  Exporting the package's parent
    directory through the environment closes the gap for every child the
    server ever spawns.
    """
    src = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    existing = os.environ.get("PYTHONPATH", "")
    parts = existing.split(os.pathsep) if existing else []
    if src not in parts:
        os.environ["PYTHONPATH"] = os.pathsep.join([src] + parts)


def build_warm_payload(
    paths: Sequence[str], limit: int = 1024
) -> Tuple[List[Dict[str, Any]], int]:
    """Normalise warmup scripts in-process and snapshot the intern table.

    Every readable ``.smt2`` file in ``paths`` (globs allowed) is parsed
    and run through the *normalisation* layer only — no solving — which
    interns exactly the automata (word/regex/intersection forms) the
    workers would otherwise rebuild per job.  Returns the serialised
    payload and the number of scripts that contributed.
    """
    from ..smtlib import parse_problem
    from ..strings.normal_form import normalize
    from ..automata.serialization import intern_snapshot

    contributed = 0
    for pattern in paths:
        matches = sorted(globlib.glob(pattern)) or [pattern]
        for path in matches:
            try:
                with open(path) as handle:
                    text = handle.read()
                normalize(parse_problem(text))
                contributed += 1
            except Exception:
                continue  # warmup is best-effort; a bad file costs nothing
    return intern_snapshot(limit=limit), contributed


@dataclass
class _Race:
    """Book-keeping of one in-flight job's strategy race."""

    tasks: List[asyncio.Task] = field(default_factory=list)
    slots: Dict[asyncio.Task, Tuple[int, int]] = field(default_factory=dict)
    strategies: Dict[asyncio.Task, str] = field(default_factory=dict)


class SolverServer:
    """Async portfolio solver server over a process worker fleet."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        portfolio: Sequence[str] = DEFAULT_PORTFOLIO,
        default_timeout: float = 30.0,
        max_steps: Optional[int] = None,
        warm_paths: Sequence[str] = (),
        warm_limit: int = 1024,
        slots: Optional[int] = None,
        retries: int = 1,
        enable_fault_injection: bool = False,
        mp_method: str = "spawn",
    ) -> None:
        self.host = host
        self.port = port
        self.workers = max(1, workers)
        self.portfolio = strategy_names(list(portfolio))
        self.default_timeout = default_timeout
        self.max_steps = max_steps
        self.warm_paths = tuple(warm_paths)
        self.warm_limit = warm_limit
        self.retries = max(0, retries)
        self.enable_fault_injection = enable_fault_injection
        self.mp_method = mp_method
        self.n_slots = slots or max(4 * self.workers, 8)

        self.stats: Dict[str, int] = {
            "jobs_total": 0,
            "jobs_deduped": 0,
            "jobs_raw": 0,
            "portfolio_runs": 0,
            "portfolio_cancelled": 0,
            "portfolio_abandoned": 0,
            "verdict_conflicts": 0,
            "worker_restarts": 0,
            "job_retries": 0,
            "responses": 0,
            "errors": 0,
        }
        #: per-strategy win counters (first decided outcome)
        self.wins: Dict[str, int] = {}
        self.warm_payload: List[Dict[str, Any]] = []
        self.warm_scripts = 0

        self._ctx = multiprocessing.get_context(self.mp_method)
        self._flags = None
        self._executor: Optional[ProcessPoolExecutor] = None
        self._executor_gen = 0
        self._slot_pool: Optional[asyncio.Queue] = None
        self._generation = itertools.count(1)
        self._inflight: Dict[str, asyncio.Task] = {}
        self._jobs: set = set()
        self._server: Optional[asyncio.base_events.Server] = None
        self._closing = asyncio.Event()
        self._started = time.time()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        _ensure_child_import_path()
        if self.warm_paths:
            self.warm_payload, self.warm_scripts = await asyncio.to_thread(
                build_warm_payload, self.warm_paths, self.warm_limit
            )
        self._flags = self._ctx.Array("l", self.n_slots, lock=False)
        self._slot_pool = asyncio.Queue()
        for slot in range(self.n_slots):
            self._slot_pool.put_nowait(slot)
        self._build_executor()
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port, limit=MAX_LINE_BYTES
        )
        self.port = self._server.sockets[0].getsockname()[1]

    def _build_executor(self) -> None:
        self._executor_gen += 1
        self._executor = ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=self._ctx,
            initializer=initializer,
            initargs=(self._flags, self.warm_payload),
        )

    async def wait_closed(self) -> None:
        await self._closing.wait()

    def request_shutdown(self) -> None:
        """Signal-safe shutdown trigger (SIGINT/SIGTERM handler)."""
        if not self._closing.is_set():
            asyncio.get_running_loop().create_task(self.shutdown())

    async def shutdown(self) -> None:
        """Stop accepting, drain in-flight jobs, reap the fleet."""
        if self._closing.is_set():
            return
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Cancel whatever is still racing so the drain is quick: -1 is the
        # universal cancel value every worker hook honours regardless of
        # its generation.
        if self._flags is not None:
            for slot in range(self.n_slots):
                self._flags[slot] = -1
        pending = [task for task in self._jobs if not task.done()]
        if pending:
            await asyncio.wait(pending, timeout=DEADLINE_GRACE + 1.0)
        # Then join every worker process (a clean reap: shutdown(wait=True)
        # joins the children; a broken pool already reaped its own).
        if self._executor is not None:
            await asyncio.to_thread(self._executor.shutdown, True)
        self._closing.set()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        write_lock = asyncio.Lock()
        tasks: List[asyncio.Task] = []
        try:
            first = await reader.readline()
            if not first:
                return
            if not first.lstrip().startswith(b"{"):
                await self._handle_raw(first, reader, writer)
                return
            line = first
            while line:
                stripped = line.strip()
                if stripped:
                    task = asyncio.create_task(
                        self._handle_request_line(stripped, writer, write_lock)
                    )
                    tasks.append(task)
                    self._jobs.add(task)
                    task.add_done_callback(self._jobs.discard)
                line = await reader.readline()
            if tasks:
                await asyncio.wait(tasks)
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.LimitOverrunError,
            ValueError,  # StreamReader raises it for overlong lines
        ):
            pass
        finally:
            for task in tasks:
                if not task.done():
                    task.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _handle_raw(
        self,
        first: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Raw mode: the whole connection is one SMT-LIB script."""
        self.stats["jobs_raw"] += 1
        rest = await reader.read()
        script = (first + rest).decode("utf-8", errors="replace")
        response = await self._solve(
            {"op": "solve", "script": script, "timeout": self.default_timeout}
        )
        for line in response.get("output", []):
            writer.write((line + "\n").encode("utf-8"))
        if not response.get("ok", False):
            writer.write(
                f"(error \"{response.get('error', 'internal error')}\")\n".encode()
            )
        await writer.drain()

    async def _handle_request_line(
        self, line: bytes, writer: asyncio.StreamWriter, write_lock: asyncio.Lock
    ) -> None:
        request_id: Any = None
        try:
            request = decode_line(line)
            request_id = request.get("id")
            response = await self._dispatch(request)
        except asyncio.CancelledError:
            raise
        except Exception as error:  # malformed request, internal dispatch bug
            self.stats["errors"] += 1
            response = {"ok": False, "error": f"{type(error).__name__}: {error}"}
        if request_id is not None:
            response.setdefault("id", request_id)
        self.stats["responses"] += 1
        async with write_lock:
            try:
                writer.write(encode_line(response))
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                pass  # client went away; the job result is simply dropped

    async def _dispatch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        op = request.get("op", "solve")
        if op == "ping":
            return {"ok": True, "pong": True, "uptime": time.time() - self._started}
        if op == "stats":
            return {"ok": True, "stats": self.server_stats()}
        if op == "shutdown":
            asyncio.get_running_loop().create_task(self.shutdown())
            return {"ok": True, "shutting_down": True}
        if op == "solve":
            return await self._solve(request)
        return {"ok": False, "error": f"unknown op {op!r}"}

    def server_stats(self) -> Dict[str, Any]:
        snapshot: Dict[str, Any] = dict(self.stats)
        snapshot["wins"] = dict(self.wins)
        snapshot["workers"] = self.workers
        snapshot["slots"] = self.n_slots
        snapshot["portfolio"] = list(self.portfolio)
        snapshot["warm_payload"] = len(self.warm_payload)
        snapshot["warm_scripts"] = self.warm_scripts
        snapshot["executor_generation"] = self._executor_gen
        snapshot["uptime"] = time.time() - self._started
        return snapshot

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    async def _solve(self, request: Dict[str, Any]) -> Dict[str, Any]:
        script = request.get("script")
        if not isinstance(script, str) or not script.strip():
            return {"ok": False, "error": "solve needs a non-empty 'script' string"}
        timeout = request.get("timeout", self.default_timeout)
        if timeout is not None:
            # ``json.loads`` accepts ``NaN`` and ``Infinity``, and ``NaN``
            # slips through any ``<=`` test.
            try:
                timeout = float(timeout)
            except (TypeError, ValueError):
                timeout = math.nan
            if not math.isfinite(timeout) or timeout <= 0:
                return {"ok": False, "error": "timeout must be a finite positive number"}
        try:
            strategies = strategy_names(request.get("portfolio"))
        except ValueError as error:
            return {"ok": False, "error": str(error)}
        if request.get("portfolio") is None:
            strategies = self.portfolio
        inject = request.get("inject") or ()
        if inject and not self.enable_fault_injection:
            return {
                "ok": False,
                "error": "fault injection is disabled (start the server with "
                "--enable-fault-injection)",
            }
        self.stats["jobs_total"] += 1

        key = dedup_key(script, timeout) if not inject else None
        if key is not None:
            running = self._inflight.get(key)
            if running is not None:
                self.stats["jobs_deduped"] += 1
                response = dict(await asyncio.shield(running))
                response["deduped"] = True
                return response
            job = asyncio.create_task(
                self._race(script, request.get("name", ""), timeout, strategies, inject)
            )
            self._inflight[key] = job
            job.add_done_callback(
                lambda _task, key=key: self._inflight.pop(key, None)
            )
            response = dict(await asyncio.shield(job))
            response["deduped"] = False
            return response
        response = await self._race(
            script, request.get("name", ""), timeout, strategies, inject
        )
        response["deduped"] = False
        return response

    async def _race(
        self,
        script: str,
        name: str,
        timeout: Optional[float],
        strategies: Sequence[str],
        inject: Sequence[Dict[str, Any]],
    ) -> Dict[str, Any]:
        """Race the portfolio for one job; first decided outcome wins."""
        started = time.time()
        deadline = None if timeout is None else started + timeout
        self.stats["portfolio_runs"] += 1
        race = _Race()
        for strategy in strategies:
            slot = await self._slot_pool.get()
            generation = next(self._generation)
            spec = JobSpec(
                script=script,
                name=name,
                strategy=strategy,
                slot=slot,
                generation=generation,
                deadline=deadline,
                max_steps=self.max_steps,
                inject=tuple(dict(trigger) for trigger in inject),
            )
            task = asyncio.create_task(self._run_one(spec))
            race.tasks.append(task)
            race.slots[task] = (slot, generation)
            race.strategies[task] = strategy

        completed: List[JobOutcome] = []
        winner: Optional[JobOutcome] = None
        cancelled_runs = 0
        pending = set(race.tasks)
        abandoned = 0
        while pending and winner is None:
            wait_budget = None
            if deadline is not None:
                wait_budget = max(deadline + DEADLINE_GRACE - time.time(), 0.05)
            done, pending = await asyncio.wait(
                pending, timeout=wait_budget, return_when=asyncio.FIRST_COMPLETED
            )
            if not done:
                # Past deadline + grace with workers still silent: hung
                # fleet.  Cancel, abandon, answer for the job ourselves.
                abandoned = len(pending)
                break
            for task in done:
                outcome = task.result()
                self._release(race, task, outcome)
                completed.append(outcome)
                if outcome.cancelled:
                    cancelled_runs += 1
                    self.stats["portfolio_cancelled"] += 1
                if winner is None and outcome.decided:
                    winner = outcome

        # Cancel every still-running sibling (winner found, or give-up).
        # Each loser lands whenever its next checkpoint observes the flag;
        # the done callback reclaims its slot then and counts the
        # cancellation in the server stats even when it arrives after the
        # response below has gone out.
        def _late(finished: asyncio.Task, race: _Race = race) -> None:
            try:
                outcome = finished.result()
            except Exception:
                self._release(race, finished, None)
                return
            self._release(race, finished, outcome)
            if outcome.cancelled:
                self.stats["portfolio_cancelled"] += 1

        for task in pending:
            slot, generation = race.slots[task]
            self._flags[slot] = generation
            task.add_done_callback(_late)
        if pending and winner is not None:
            # Collect quick-cancelling losers so their cancel flag shows in
            # the response's portfolio field; don't wait past a short grace
            # — a loser deep in a long checkpoint interval frees its slot
            # (and is counted) via the done callback whenever it lands.
            done, still = await asyncio.wait(pending, timeout=0.5)
            for task in done:
                try:
                    outcome = task.result()
                except Exception:
                    continue
                completed.append(outcome)
                if outcome.cancelled:
                    cancelled_runs += 1
            pending = still
        if abandoned:
            self.stats["portfolio_abandoned"] += abandoned

        conflict = conflicting_verdicts(completed)
        if conflict is not None:
            index, a, b = conflict
            self.stats["verdict_conflicts"] += 1
            reason = (
                f"internal_error@serve.portfolio [strategies disagree on "
                f"check {index}: {a} vs {b}]"
            )
            outcome = synthetic_outcome("portfolio", count_check_sats(script), reason)
            return outcome_to_response(
                outcome,
                elapsed=time.time() - started,
                portfolio=self._portfolio_field(strategies, cancelled_runs, completed),
            )

        if winner is None:
            from .portfolio import pick_winner

            winner = pick_winner(completed)
        if winner is None:
            reason = (
                f"timeout@serve.fleet after {time.time() - started:.2f}s "
                f"[no worker outcome within deadline+grace]"
            )
            winner = synthetic_outcome(
                "none", count_check_sats(script), reason
            )
        else:
            self.wins[winner.strategy] = self.wins.get(winner.strategy, 0) + 1
            # A winner that unwound mid-script (interrupt, out-of-check
            # abort) answered only a prefix; the client still gets one
            # structured answer per check-sat.
            if winner.stats.get("serve_interrupted"):
                tail_reason = "interrupted@serve.worker [run aborted mid-script]"
            else:
                tail_reason = "timeout@serve.worker [run aborted before this check]"
            winner = pad_outcome(winner, count_check_sats(script), tail_reason)
        return outcome_to_response(
            winner,
            elapsed=time.time() - started,
            portfolio=self._portfolio_field(strategies, cancelled_runs, completed),
        )

    def _portfolio_field(
        self,
        strategies: Sequence[str],
        cancelled_runs: int,
        completed: Sequence[JobOutcome],
    ) -> Dict[str, Any]:
        return {
            "strategies": list(strategies),
            "cancelled": cancelled_runs,
            "completed": len(completed),
        }

    def _release(self, race: _Race, task: asyncio.Task, outcome: JobOutcome) -> None:
        entry = race.slots.pop(task, None)
        if entry is not None:
            self._slot_pool.put_nowait(entry[0])

    async def _run_one(self, spec: JobSpec) -> JobOutcome:
        """Run one spec with broken-pool detection and bounded retries."""
        attempt = 0
        while True:
            executor = self._executor
            generation = self._executor_gen
            try:
                future = executor.submit(
                    run_job,
                    JobSpec(
                        script=spec.script,
                        name=spec.name,
                        strategy=spec.strategy,
                        slot=spec.slot,
                        generation=spec.generation,
                        deadline=spec.deadline,
                        max_steps=spec.max_steps,
                        attempt=attempt,
                        inject=spec.inject,
                    ),
                )
                return await asyncio.wrap_future(future)
            except (BrokenProcessPool, RuntimeError) as error:
                # A worker died (taking the pool with it) or the pool was
                # torn down under us.  Rebuild once per generation, retry
                # the run while the budget allows.
                if isinstance(error, RuntimeError) and not isinstance(
                    error, BrokenProcessPool
                ):
                    if "shutdown" not in str(error):
                        raise
                if self._executor_gen == generation:
                    self.stats["worker_restarts"] += 1
                    try:
                        executor.shutdown(wait=False)
                    except Exception:
                        pass
                    self._build_executor()
                attempt += 1
                expired = (
                    spec.deadline is not None and time.time() >= spec.deadline
                )
                if attempt > self.retries or expired:
                    reason = (
                        f"internal_error@serve.worker [worker died "
                        f"({attempt - 1} retr{'y' if attempt == 2 else 'ies'} "
                        f"used)]"
                    )
                    if expired:
                        reason = (
                            "timeout@serve.worker [worker died and the "
                            "deadline passed before a retry]"
                        )
                    outcome = synthetic_outcome(
                        spec.strategy, count_check_sats(spec.script), reason
                    )
                    outcome.stats["serve_worker_died"] = 1
                    return outcome
                self.stats["job_retries"] += 1


async def run_server(server: SolverServer, ready_line: bool = True) -> int:
    """Start ``server``, print the ready line, block until shutdown."""
    await server.start()
    # The handlers go in before the ready line: a SIGTERM sent as soon as
    # the line is read must drain and reap like a later one.
    loop = asyncio.get_event_loop()
    try:
        import signal

        loop.add_signal_handler(signal.SIGINT, server.request_shutdown)
        loop.add_signal_handler(signal.SIGTERM, server.request_shutdown)
    except (NotImplementedError, RuntimeError):  # pragma: no cover - non-POSIX
        pass
    if ready_line:
        print(
            f"repro.serve listening on {server.host}:{server.port} "
            f"(workers={server.workers}, portfolio={','.join(server.portfolio)}, "
            f"warm={len(server.warm_payload)})",
            flush=True,
        )
    await server.wait_closed()
    return 0
