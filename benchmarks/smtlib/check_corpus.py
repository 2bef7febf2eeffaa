"""CI smoke over the SMT-LIB corpus: every file answers, 0 wrong verdicts.

Runs the ``repro.smtlib`` frontend (the same path as
``python -m repro.smtlib``) over every ``.smt2`` file next to this script
and checks that

* the script parses and executes,
* it **round-trips**: parse → print → parse → print reaches a printer
  fixpoint,
* every ``check-sat`` produces an answer,
* no answer contradicts the recorded ``(set-info :status …)`` ground truth
  (``unknown`` statuses only require *an* answer), and
* for a file whose last answer is ``unsat``, the session's unsat core
  re-checks ``unsat`` in a fresh session (deciding mode only).

``--allow-unknown`` relaxes the "must decide" requirement into the
robustness contract of the budget layer: an ``unknown`` answer is accepted
as long as it is *clean* — a structured reason that names the stage
which gave out (``kind@stage``), no internal errors, no traceback.  The
CI tiny-timeout sweep runs this mode with ``--timeout 0.05`` over the
whole corpus: with essentially no budget every file must still answer
promptly, truthfully and without corruption.

Exit status 0 on success, 1 with a per-file failure list otherwise::

    PYTHONPATH=src python benchmarks/smtlib/check_corpus.py [--timeout S] [--allow-unknown]
"""

from __future__ import annotations

import argparse
import glob
import os
import sys
import time
from typing import List, Tuple

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(os.path.dirname(_HERE)), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)


def _core_recheck(session, timeout: float) -> Tuple[str, str]:
    """Compute the session's unsat core and re-check it in a fresh session.

    Returns ``(summary, failure)``; ``failure`` is empty when the core
    alone answers ``unsat``.
    """
    from repro import Session
    from repro.solver import SolverConfig

    core = session.unsat_core()
    active = dict(session.assertions())
    summary = f"core {len(core)}/{len(active)}"
    missing = [name for name in core if name not in active]
    if missing:
        return summary, f"unsat core names popped assertions {missing}"
    fresh = Session(config=SolverConfig(timeout=timeout), alphabet=session.alphabet)
    for name in core:
        fresh.add(active[name], name=name)
    verdict = fresh.check().status.value
    if verdict != "unsat":
        return summary, f"unsat core {list(core)} re-checks {verdict}"
    return summary, ""


def check_corpus(
    timeout: float = 30.0, directory: str = _HERE, allow_unknown: bool = False
) -> List[str]:
    from repro.smtlib import ScriptRunner, parse_problem, parse_script, problem_to_smtlib
    from repro.solver import SolverConfig

    failures: List[str] = []
    paths = sorted(glob.glob(os.path.join(directory, "*.smt2")))
    if not paths:
        return ["no .smt2 files found — run benchmarks/smtlib/generate.py first"]
    for path in paths:
        name = os.path.basename(path)
        with open(path) as handle:
            text = handle.read()
        started = time.monotonic()
        try:
            script = parse_script(text)
            printed = problem_to_smtlib(parse_problem(text), status=script.expected_status)
            reprinted = problem_to_smtlib(parse_problem(printed), status=script.expected_status)
            if printed != reprinted:
                failures.append(f"{name}: printer is not a round-trip fixpoint")
                continue
            runner = ScriptRunner(config=SolverConfig(timeout=timeout))
            runner.run_script(script, name=name)
        except Exception as error:  # noqa: BLE001 - report, keep checking
            failures.append(f"{name}: {type(error).__name__}: {error}")
            continue
        elapsed = time.monotonic() - started
        if not runner.verdicts:
            failures.append(f"{name}: no check-sat answer")
            continue
        verdict = runner.verdicts[-1]
        expected = script.expected_status
        if expected in ("sat", "unsat") and verdict in ("sat", "unsat") and verdict != expected:
            failures.append(f"{name}: WRONG verdict {verdict} (expected {expected})")
            continue
        if runner.internal_errors:
            reason = runner.reasons[-1] if runner.reasons else ""
            failures.append(f"{name}: internal error ({reason})")
            continue
        if verdict not in ("sat", "unsat"):
            if not allow_unknown:
                failures.append(f"{name}: no verdict ({verdict}) within {timeout:.0f}s")
                continue
            reason = runner.reasons[-1] if runner.reasons else ""
            if not reason:
                failures.append(f"{name}: unknown without a structured reason")
                continue
            if not reason.split()[0].partition("@")[2]:
                failures.append(f"{name}: unknown reason names no stage ({reason})")
                continue
            if elapsed > max(2 * timeout, timeout + 1.0):
                failures.append(
                    f"{name}: answered in {elapsed:.2f}s, over twice the {timeout:.2f}s budget"
                )
                continue
            print(f"[corpus] {name}: {verdict} in {elapsed:.2f}s ({reason})")
            continue
        if verdict == "unsat" and not allow_unknown:
            started = time.monotonic()
            summary, failure = _core_recheck(runner.session, timeout)
            if failure:
                failures.append(f"{name}: {failure}")
                continue
            core_s = time.monotonic() - started
            print(f"[corpus] {name}: unsat in {elapsed:.2f}s ({summary} in {core_s:.2f}s)")
            continue
        print(f"[corpus] {name}: {verdict} in {elapsed:.2f}s")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--timeout", type=float, default=30.0,
                        help="per-file wall-clock budget in seconds (default 30)")
    parser.add_argument("--allow-unknown", action="store_true",
                        help="accept clean unknown answers (tiny-timeout robustness sweep)")
    args = parser.parse_args()
    failures = check_corpus(timeout=args.timeout, allow_unknown=args.allow_unknown)
    if failures:
        print(f"[corpus] {len(failures)} failure(s):", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("[corpus] all files parsed, round-tripped and answered with 0 wrong verdicts")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
