"""The asyncio front door: connections, dedup, job deadlines, retries.

One :class:`SolverServer` owns

* an ``asyncio`` TCP server speaking the JSON-lines protocol (plus the raw
  SMT-LIB fallback) of :mod:`repro.serve.protocol`,
* a ``ProcessPoolExecutor`` worker fleet (:mod:`repro.serve.workers`),
  handed the texts of the ``--warm`` scripts (each worker normalises them
  into its own cache) and the fleet-wide stop flag, and
* the in-flight table that dedups structurally identical jobs.

Job lifecycle (the ``solve`` op)::

    request line ──parse/validate──▶ dedup table ──hit──▶ share the
                                        │ miss            in-flight future
                                        ▼
                                  one JobSpec → executor; wait until
                                  the deadline plus grace → respond

A job's one limit is the :class:`~repro.budget.Budget` its worker builds
from ``JobSpec.deadline``.  Shutdown sets the fleet-wide stop flag, which
every running job's budget hook polls.

Fault tolerance: a worker death breaks the whole pool
(``BrokenProcessPool``), so the server rebuilds the executor — warm
scripts and the stop flag are re-used — and retries the affected job
(``retries`` per job, solving is pure so a retry is safe); a job that
keeps dying answers a structured ``unknown``.  A *hung* worker (no
checkpoints) is abandoned at the job deadline plus grace: the job answers
structured ``unknown(timeout)`` verdicts, and the run stops at its
budget's deadline if it ever reaches a checkpoint — the fleet degrades
instead of wedging, and the response is never dropped.
"""

from __future__ import annotations

import asyncio
import glob as globlib
import math
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence

from .protocol import (
    JobOutcome,
    JobSpec,
    MAX_LINE_BYTES,
    decode_line,
    encode_line,
    outcome_to_response,
    pad_outcome,
    script_shape,
)
from .workers import initializer, run_job

#: extra wall seconds past a job's deadline before the server stops
#: waiting for its workers and synthesises the response; also how long
#: shutdown waits for a terminated child before killing it
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


def _retrieve_exception(task: asyncio.Task) -> None:
    if not task.cancelled():
        task.exception()


def _end_children() -> None:
    """Terminate every live child process and join it (killed when a
    terminated child does not exit within :data:`DEADLINE_GRACE` seconds)."""
    children = multiprocessing.active_children()
    for child in children:
        child.terminate()
    for child in children:
        child.join(DEADLINE_GRACE)
        if child.is_alive():
            child.kill()
            child.join()


def _read_warm_scripts(paths: Sequence[str]) -> List[str]:
    """The texts of the warm-up scripts in ``paths`` (globs allowed).

    A path that matches nothing is tried as a file name; one that cannot
    be read is skipped (warm-up is best-effort).
    """
    texts = []
    for pattern in paths:
        for path in sorted(globlib.glob(pattern)) or [pattern]:
            try:
                with open(path) as handle:
                    texts.append(handle.read())
            except OSError:
                continue
    return texts


class SolverServer:
    """Async solver server over a process worker fleet."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        default_timeout: float = 30.0,
        max_steps: Optional[int] = None,
        warm_paths: Sequence[str] = (),
        retries: int = 1,
        enable_fault_injection: bool = False,
    ) -> None:
        self.host = host
        self.port = port
        self.workers = max(1, workers)
        self.default_timeout = default_timeout
        self.max_steps = max_steps
        self.warm_paths = tuple(warm_paths)
        self.retries = max(0, retries)
        self.enable_fault_injection = enable_fault_injection

        self.stats: Dict[str, int] = {
            "jobs_total": 0,
            "jobs_deduped": 0,
            "jobs_raw": 0,
            "jobs_abandoned": 0,
            "worker_restarts": 0,
            "job_retries": 0,
            "responses": 0,
            "errors": 0,
        }
        self.warm_texts: List[str] = []

        self._ctx = multiprocessing.get_context("spawn")
        #: the fleet-wide stop flag every job's budget hook polls
        self._stop = None
        self._executor: Optional[ProcessPoolExecutor] = None
        self._executor_gen = 0
        self._inflight: Dict[str, asyncio.Task] = {}
        self._jobs: set = set()
        #: connection handler task -> its writer, while the client is open
        self._clients: Dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._server: Optional[asyncio.base_events.Server] = None
        self._closing = asyncio.Event()
        self._started = time.time()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        _ensure_child_import_path()
        self.warm_texts = await asyncio.to_thread(_read_warm_scripts, self.warm_paths)
        self._stop = self._ctx.Value("b", 0, lock=False)
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
            initargs=(self._stop, self.warm_texts),
        )

    async def wait_closed(self) -> None:
        await self._closing.wait()

    def request_shutdown(self) -> None:
        """Signal-safe shutdown trigger (SIGINT/SIGTERM handler)."""
        if not self._closing.is_set():
            asyncio.get_running_loop().create_task(self.shutdown())

    async def shutdown(self) -> None:
        """Stop accepting, drain in-flight jobs, reap the fleet.

        Bounded: every child process of this process that is still alive
        after the drain and the fleet's join (each waited on for at most
        the grace) is terminated and joined.
        """
        if self._closing.is_set():
            return
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Stop whatever is still running so the drain is quick.
        if self._stop is not None:
            self._stop.value = 1
        pending = [task for task in self._jobs if not task.done()]
        if pending:
            await asyncio.wait(pending, timeout=DEADLINE_GRACE + 1.0)
        # Then join every worker process: shutdown(wait=True) joins the
        # children, and a worker still busy after the grace is terminated.
        # A pool abandoned as broken can leave a worker that it never
        # terminated, blocked on the pool's call queue; the pool's manager
        # thread joins that worker and interpreter exit joins the thread, so
        # every child still alive is terminated too.
        joins = []
        if self._executor is not None:
            join = asyncio.to_thread(self._executor.shutdown, True)
            joins.append(asyncio.ensure_future(join))
            await asyncio.wait(joins, timeout=DEADLINE_GRACE)
        await asyncio.to_thread(_end_children)
        await asyncio.gather(*joins)
        # Close the connections clients left open: each handler reads EOF
        # and ends here, not cancelled mid-read when the loop is torn down.
        handlers = list(self._clients)
        for writer in self._clients.values():
            writer.close()
        if handlers:
            await asyncio.wait(handlers, timeout=DEADLINE_GRACE + 1.0)
        self._closing.set()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        write_lock = asyncio.Lock()
        tasks: List[asyncio.Task] = []
        handler = asyncio.current_task()
        self._clients[handler] = writer
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
            del self._clients[handler]
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
        """Raw mode: the whole connection is one SMT-LIB script.

        The script is read up to :data:`MAX_LINE_BYTES`, the same guard a
        JSON request line gets; a longer stream is answered with an
        ``(error ...)`` line and never solved.
        """
        self.stats["jobs_raw"] += 1
        data = bytearray(first)
        while len(data) <= MAX_LINE_BYTES:
            chunk = await reader.read(MAX_LINE_BYTES + 1 - len(data))
            if not chunk:
                break
            data += chunk
        if len(data) > MAX_LINE_BYTES:
            self.stats["errors"] += 1
            writer.write(
                f"(error \"script over the {MAX_LINE_BYTES} byte limit\")\n".encode()
            )
            await writer.drain()
            return
        script = data.decode("utf-8", errors="replace")
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
        snapshot["workers"] = self.workers
        snapshot["warm_scripts"] = len(self.warm_texts)
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
        # An explicit ``null`` would leave the job without a deadline, and
        # ``json.loads`` accepts ``NaN`` and ``Infinity``; ``NaN`` slips
        # through any ``<=`` test.
        try:
            timeout = float(request.get("timeout", self.default_timeout))
        except (TypeError, ValueError):
            timeout = math.nan
        if not math.isfinite(timeout) or timeout <= 0:
            return {"ok": False, "error": "timeout must be a finite positive number"}
        inject = request.get("inject") or ()
        if inject and not self.enable_fault_injection:
            return {
                "ok": False,
                "error": "fault injection is disabled (start the server with "
                "--enable-fault-injection)",
            }
        self.stats["jobs_total"] += 1
        n_checks, key = script_shape(script, timeout)
        if inject:
            key = None
        if key is None:
            response = await self._job(
                script, request.get("name", ""), timeout, inject, n_checks
            )
            response["deduped"] = False
            return response
        running = self._inflight.get(key)
        if running is not None:
            self.stats["jobs_deduped"] += 1
            response = dict(await asyncio.shield(running))
            response["deduped"] = True
            return response
        job = asyncio.create_task(
            self._job(script, request.get("name", ""), timeout, inject, n_checks)
        )
        self._inflight[key] = job
        job.add_done_callback(lambda _task, key=key: self._inflight.pop(key, None))
        response = dict(await asyncio.shield(job))
        response["deduped"] = False
        return response

    async def _job(
        self,
        script: str,
        name: str,
        timeout: float,
        inject: Sequence[Dict[str, Any]],
        n_checks: int,
    ) -> Dict[str, Any]:
        """Run one job on one worker; answer by the deadline plus grace.

        ``n_checks`` is the script's ``check-sat`` count: the job answers
        every one of them, with ``unknown`` where no worker did.
        """
        started = time.time()
        deadline = started + timeout
        spec = JobSpec(
            script=script,
            name=name,
            deadline=deadline,
            max_steps=self.max_steps,
            inject=tuple(dict(trigger) for trigger in inject),
        )
        run = asyncio.create_task(self._run_one(spec, n_checks))
        # Nobody reads an abandoned run's result; its exception is
        # retrieved when the worker returns.
        run.add_done_callback(_retrieve_exception)
        done, _ = await asyncio.wait(
            {run}, timeout=max(deadline + DEADLINE_GRACE - time.time(), 0.05)
        )
        if not done:
            # Past deadline + grace with the worker still silent: hung
            # fleet.  The run stops at its budget's deadline if it ever
            # reaches a checkpoint; answer for the job ourselves.
            self.stats["jobs_abandoned"] += 1
            reason = (
                f"timeout@serve.fleet after {time.time() - started:.2f}s "
                f"[no worker outcome within deadline+grace]"
            )
            outcome = pad_outcome(JobOutcome(), n_checks, reason)
        else:
            # A run that unwound mid-script (interrupt, out-of-check
            # abort) answered only a prefix; the client still gets one
            # structured answer per check-sat.
            outcome = run.result()
            if outcome.stats.get("serve_interrupted"):
                tail_reason = "interrupted@serve.worker [run aborted mid-script]"
            else:
                tail_reason = "timeout@serve.worker [run aborted before this check]"
            outcome = pad_outcome(outcome, n_checks, tail_reason)
        return outcome_to_response(outcome, elapsed=time.time() - started)

    async def _run_one(self, spec: JobSpec, n_checks: int) -> JobOutcome:
        """Run one spec with broken-pool detection and bounded retries."""
        attempt = 0
        while True:
            executor = self._executor
            generation = self._executor_gen
            try:
                future = executor.submit(run_job, replace(spec, attempt=attempt))
                return await asyncio.wrap_future(future)
            except (BrokenProcessPool, RuntimeError) as error:
                # A worker died (taking the pool with it) or the pool was
                # torn down under us.  Rebuild once per generation, retry
                # the job while the budget allows.
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
                expired = time.time() >= spec.deadline
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
                    outcome = pad_outcome(JobOutcome(), n_checks, reason)
                    outcome.stats["serve_worker_died"] = 1
                    return outcome
                self.stats["job_retries"] += 1


async def run_server(server: SolverServer) -> int:
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
    print(
        f"repro.serve listening on {server.host}:{server.port} "
        f"(workers={server.workers}, warm={len(server.warm_texts)})",
        flush=True,
    )
    await server.wait_closed()
    return 0
