"""``repro.serve`` — the async solver server.

The one-request-one-session architecture of :class:`repro.Session` scales
to concurrent traffic here: an asyncio front door accepts SMT-LIB jobs
over a JSON-lines TCP protocol (or as raw scripts), runs each job under
one :class:`repro.SolverConfig` on one worker of a process fleet with warm
per-worker automata caches, answers every job by its deadline (each job
runs under one budget built from that deadline, and a hung worker is
abandoned at the deadline plus grace) and dedups structurally identical
in-flight jobs.

Entry points:

* ``python -m repro.serve`` — run a server,
* ``python -m repro.smtlib --server HOST:PORT`` — submit scripts to one,
* :class:`~repro.serve.client.ServeClient` — programmatic access,
* ``benchmarks/perf/bench_serve.py`` — the latency-under-load benchmark.
"""

from .client import ServeClient, ServeError, parse_host_port
from .protocol import JobOutcome, JobSpec, script_shape
from .server import SolverServer, run_server

__all__ = [
    "ServeClient",
    "ServeError",
    "parse_host_port",
    "JobOutcome",
    "JobSpec",
    "script_shape",
    "SolverServer",
    "run_server",
]
