"""Run a solver server: ``python -m repro.serve [options]``.

Boots the asyncio front door plus the process worker fleet and blocks
until a clean shutdown (SIGINT/SIGTERM or a client ``shutdown`` op), then
exits 0 with every worker reaped.  The ready line::

    repro.serve listening on 127.0.0.1:7411 (workers=4, warm=81)

is printed (and flushed) once the socket is bound — drivers that need the
ephemeral port of ``--port 0`` parse it from there.  ``warm`` is the number
of ``--warm`` scripts read; each worker normalises them when it starts.
"""

from __future__ import annotations

import argparse
import asyncio
import os
from typing import List, Optional

from .protocol import DEFAULT_PORT
from .server import SolverServer, run_server


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve the repro string solver over TCP (JSON-lines protocol "
        "or raw SMT-LIB scripts), one job per worker of a process fleet.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=DEFAULT_PORT,
        help="TCP port (0 picks an ephemeral port, reported on the ready line)",
    )
    parser.add_argument(
        "--workers", type=int, default=max(2, (os.cpu_count() or 2) // 2),
        help="worker processes in the fleet (default: half the cores, min 2)",
    )
    parser.add_argument(
        "--timeout", type=float, default=30.0,
        help="default per-job wall-clock budget in seconds (default 30)",
    )
    parser.add_argument(
        "--max-steps", type=int, default=None,
        help="deterministic per-job step cap (default: none)",
    )
    parser.add_argument(
        "--warm", nargs="*", default=(), metavar="PATH",
        help=".smt2 files/globs each worker normalises when it starts, "
        "filling the normalisation cache its jobs share",
    )
    parser.add_argument(
        "--retries", type=int, default=1,
        help="re-submissions of a job whose worker died (default 1)",
    )
    parser.add_argument(
        "--enable-fault-injection", action="store_true",
        help="accept 'inject' fault triggers in solve requests (chaos tests; "
        "never enable on a shared server)",
    )
    args = parser.parse_args(argv)

    server = SolverServer(
        host=args.host,
        port=args.port,
        workers=args.workers,
        default_timeout=args.timeout,
        max_steps=args.max_steps,
        warm_paths=args.warm,
        retries=args.retries,
        enable_fault_injection=args.enable_fault_injection,
    )
    return asyncio.run(run_server(server))


if __name__ == "__main__":
    raise SystemExit(main())
