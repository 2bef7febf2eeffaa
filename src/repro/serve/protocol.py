"""Wire protocol of the solver server: requests, responses, job payloads.

Two layers of "wire" meet here:

* **client ↔ server** — JSON lines over TCP.  One request object per line,
  one response object per answering line; responses carry the client's
  ``id`` so a pipelining client can match them up (the server answers in
  completion order, not submission order).  A connection whose first byte
  is not ``{`` falls back to *raw mode*: the whole stream until EOF is one
  SMT-LIB script, answered with the solver's plain output lines — so
  ``cat file.smt2 | nc host port`` works without any framing.

* **server ↔ worker** — pickled :class:`JobSpec` / :class:`JobOutcome`
  dataclasses across the :class:`concurrent.futures.ProcessPoolExecutor`
  boundary.  Everything in them is plain data (strings, numbers, tuples),
  so the pickle stream stays version-stable; ``tests/test_serve_pickle.py``
  audits the round trip of every type that crosses this boundary.

Request objects::

    {"op": "solve", "id": 7, "script": "(assert ...)\\n(check-sat)",
     "timeout": 10.0}
    {"op": "ping"} | {"op": "stats"} | {"op": "shutdown"}

Solve responses::

    {"id": 7, "ok": true, "verdicts": ["sat"], "reasons": [""],
     "output": ["sat"], "deduped": false, "stats": {...}, "elapsed": 0.042}

Errors: ``{"id": 7, "ok": false, "error": "..."}``.  Every request gets
exactly one response — the server never drops a job on the floor; a job it
cannot decide (deadline, dead workers) answers with structured ``unknown``
verdicts instead.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

#: requests/responses above this many bytes are rejected (a line-based
#: protocol needs a framing guard against a client streaming garbage)
MAX_LINE_BYTES = 8 * 1024 * 1024

#: ops a server understands (anything else is an error response)
OPS = ("solve", "ping", "stats", "shutdown")

#: the TCP port of ``python -m repro.serve`` and of a client told no port
DEFAULT_PORT = 7411


def encode_line(payload: Dict[str, Any]) -> bytes:
    """One protocol object as one newline-terminated JSON line."""
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode("utf-8")


def decode_line(line: bytes) -> Dict[str, Any]:
    """Parse one protocol line; raises ``ValueError`` on malformed input."""
    if len(line) > MAX_LINE_BYTES:
        raise ValueError(f"request over the {MAX_LINE_BYTES} byte line limit")
    payload = json.loads(line.decode("utf-8"))
    if not isinstance(payload, dict):
        raise ValueError("request must be a JSON object")
    return payload


# ----------------------------------------------------------------------
# Server → worker
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class JobSpec:
    """One job, pickled to a worker process.

    ``deadline`` is absolute wall time (``time.time()``) and becomes the
    deadline of the job's one :class:`~repro.budget.Budget`, so a spec that
    sat in the executor queue past its deadline answers immediately.
    ``inject`` carries fault-injection triggers (test/chaos mode only; see
    :mod:`repro.serve.workers`).
    """

    script: str
    name: str = ""
    deadline: Optional[float] = None
    max_steps: Optional[int] = None
    attempt: int = 0
    inject: Tuple[Dict[str, Any], ...] = ()


@dataclass
class JobOutcome:
    """What one job run reports back across the worker boundary."""

    #: every output line the script produced (verdicts, models, cores, echo)
    output: List[str] = field(default_factory=list)
    #: the check-sat answers, in order (``sat``/``unsat``/``unknown``)
    verdicts: List[str] = field(default_factory=list)
    #: per check-sat: displayable structured reason ("" when decided)
    reasons: List[str] = field(default_factory=list)
    #: cumulative session statistics (plus worker-side serve counters)
    stats: Dict[str, int] = field(default_factory=dict)
    #: engine-internal errors observed by the runner
    internal_errors: int = 0
    #: non-empty on a parse/protocol failure (the job never solved)
    error: str = ""
    #: worker-side wall seconds spent on this run
    elapsed: float = 0.0
    #: pid of the worker that ran the job (diagnostics)
    worker_pid: int = 0


def outcome_to_response(outcome: JobOutcome, **extra: Any) -> Dict[str, Any]:
    """Project a worker outcome onto the client-facing response object."""
    payload: Dict[str, Any] = {
        "ok": not outcome.error,
        "verdicts": list(outcome.verdicts),
        "reasons": list(outcome.reasons),
        "output": list(outcome.output),
        "stats": dict(outcome.stats),
        "internal_errors": outcome.internal_errors,
    }
    if outcome.error:
        payload["error"] = outcome.error
    payload.update(extra)
    return payload


# ----------------------------------------------------------------------
# Structural dedup keys
# ----------------------------------------------------------------------
def script_shape(script_text: str, timeout: Optional[float]) -> Tuple[int, Optional[str]]:
    """``(check-sat count, dedup key)`` of a job's script, from one parse.

    The count lets the server synthesise a full set of structured
    ``unknown`` answers when no worker outcome survives (hung fleet past
    the deadline) — every ``check-sat`` still gets its answer line; a job
    is never dropped.  A script that does not parse has no ``check-sat``
    and no key: the worker reports the parse error.

    The key is a structural identity for batch dedup, or ``None`` if the
    job is exempt.  Two in-flight jobs with the same key are the *same
    subproblem*: the server solves once and fans the response out.  The
    key is the printer fixpoint of the parsed problem — parse → print
    canonicalises naming, literal syntax and atom order the same way the
    dense canonical forms of the automata layer canonicalise automata (the
    printer is the problem-level counterpart; its regex/atom structure is
    what the normalisation layer interns by canonical dense key
    downstream).  Only
    single-``check-sat`` scripts without push/pop or model/core/echo output
    are eligible — for anything richer the observable output depends on
    more than the problem, so the responses cannot be shared.  The timeout
    participates in the key: jobs running under very different budgets
    should not alias.
    """
    from ..smtlib import parse_script, problem_to_smtlib
    from ..smtlib.parser import AssertCommand, CheckSat, DeclareConst
    from ..smtlib.parser import SetInfo, SetLogic, SetOption
    from ..strings.ast import Problem

    try:
        script = parse_script(script_text)
    except Exception:
        return 0, None
    checks = sum(1 for command in script.commands if isinstance(command, CheckSat))
    shareable = (AssertCommand, CheckSat, DeclareConst, SetInfo, SetLogic, SetOption)
    if checks != 1 or not all(isinstance(command, shareable) for command in script.commands):
        return checks, None
    # Without push/pop the problem is every assertion of the script.
    problem = Problem(alphabet=script.alphabet, name=str(script.info.get(":source", "") or ""))
    for command in script.commands:
        if isinstance(command, AssertCommand):
            for atom in command.atoms:
                problem.add(atom)
    try:
        printed = problem_to_smtlib(problem)
    except Exception:
        return checks, None
    bucket = "inf" if timeout is None else f"{timeout:.3f}"
    return checks, f"{bucket}\n{printed}"


def pad_outcome(outcome: JobOutcome, expected: int, reason: str) -> JobOutcome:
    """Complete an aborted run's answers up to ``expected`` check-sats.

    A run that unwound mid-script (injected interrupt, budget abort
    outside a check) answered only a prefix of its ``check-sat``s; the
    serve layer still owes the client one structured answer per check.
    Appends ``unknown`` verdicts carrying ``reason`` for the missing
    tail.  No-op when the run answered everything or failed to parse
    (``outcome.error`` — the whole response is an error then).  Padding an
    empty ``JobOutcome()`` is the all-unknown answer the server gives for a
    job no worker answered.
    """
    if outcome.error or expected <= len(outcome.verdicts):
        return outcome
    for _ in range(expected - len(outcome.verdicts)):
        outcome.output.append("unknown")
        outcome.output.append(f"; unknown: {reason}")
        outcome.verdicts.append("unknown")
        outcome.reasons.append(reason)
    return outcome
