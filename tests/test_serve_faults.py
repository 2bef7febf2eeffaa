"""Fleet chaos: dying and hanging workers never cost a verdict or a response.

These tests drive a real server whose jobs carry fault triggers
(:mod:`repro.testing.faults` riding the worker budget hook, including the
``kill`` action — ``os._exit`` mid-job, the closest a test gets to an
OOM-kill).  The serve layer's two promises under chaos mirror the PR-6
in-process ones:

1. **never a wrong verdict** — a faulted job answers the true verdict
   (after a retry) or a structured ``unknown``, never the opposite verdict;
2. **never a dropped response** — every request is answered, even when the
   whole fleet is down or hung past the deadline.
"""

import time

import pytest

from helpers import ServeServerProc
from repro.serve.protocol import JobOutcome, pad_outcome

SAT_SCRIPT = '(set-logic QF_S)(declare-const x String)(assert (= x "ab"))(check-sat)'
UNSAT_SCRIPT = (
    '(set-logic QF_S)(declare-const x String)'
    '(assert (= x "a"))(assert (= x "b"))(check-sat)'
)

KILL = {"stage": "enter:normalize", "at": 1, "action": "kill"}


@pytest.fixture(scope="module")
def server():
    proc = ServeServerProc(
        "--workers", "2",
        "--retries", "2",
        "--enable-fault-injection",
        "--timeout", "30",
    )
    yield proc
    proc.kill()


def _stats(server):
    with server.client() as client:
        return client.stats()["stats"]


def test_injection_requires_opt_in():
    plain = ServeServerProc("--workers", "1")
    try:
        with plain.client() as client:
            response = client.solve(SAT_SCRIPT, inject=[KILL])
            assert response["ok"] is False
            assert "fault injection is disabled" in response["error"]
    finally:
        plain.kill()


def test_worker_killed_mid_job_is_retried(server):
    # The kill fires on attempt 0 only ("attempts": 1): the pool breaks,
    # the server rebuilds it and the retry answers the true verdict.
    before = _stats(server)
    with server.client() as client:
        response = client.solve(
            UNSAT_SCRIPT,
            name="kill-once",
            inject=[dict(KILL, attempts=1)],
        )
    assert response["ok"]
    assert response["verdicts"] == ["unsat"]
    after = _stats(server)
    assert after["worker_restarts"] > before["worker_restarts"]
    assert after["job_retries"] > before["job_retries"]


def test_worker_kept_dying_answers_structured_unknown(server):
    # The kill fires on every attempt: retries exhaust and the job answers
    # a structured unknown naming the worker death — never a wrong verdict,
    # never silence.
    with server.client() as client:
        response = client.solve(
            UNSAT_SCRIPT,
            name="kill-always",
            inject=[KILL],
        )
    assert response["ok"]
    assert response["verdicts"] == ["unknown"]
    reasons = [line for line in response["output"] if line.startswith("; unknown:")]
    assert len(reasons) == 1
    assert "worker died" in reasons[0] or "timeout" in reasons[0]


def test_hung_fleet_is_abandoned_at_deadline(server):
    # The job's worker sleeps far past deadline + grace inside an
    # uncancellable section (the delay action never polls): the server
    # stops waiting and synthesises structured timeout verdicts.
    before = _stats(server)
    hang = {"stage": "enter:normalize", "at": 1, "action": "delay", "delay": 12.0}
    started = time.time()
    with server.client() as client:
        response = client.solve(
            UNSAT_SCRIPT,
            name="hang",
            timeout=1.0,
            inject=[hang],
        )
    elapsed = time.time() - started
    assert response["ok"]
    assert response["verdicts"] == ["unknown"]
    assert any("timeout" in line for line in response["output"])
    assert elapsed < 11.0, "server waited for the hung workers instead of answering"
    after = _stats(server)
    assert after["jobs_abandoned"] > before["jobs_abandoned"]
    # Let the sleeper wake, observe its (long-set) cancel flag and
    # release its slot before the next test needs the workers.
    time.sleep(max(0.0, started + 14.0 - time.time()))


def test_injected_interrupt_never_flips_verdict(server):
    # A KeyboardInterrupt mid-run unwinds the job; it answers the true
    # verdict or a structured interrupted unknown, never the opposite.
    with server.client() as client:
        response = client.solve(
            SAT_SCRIPT,
            name="interrupt",
            inject=[{"stage": "enter:normalize", "at": 1, "action": "interrupt"}],
        )
    assert response["ok"]
    assert response["verdicts"] in (["sat"], ["unknown"])
    if response["verdicts"] == ["unknown"]:
        assert response["reasons"][0].startswith("interrupted@"), response["reasons"]


@pytest.mark.parametrize("seed", [11, 23, 47])
def test_fault_sweep_never_wrong_verdict(server, seed):
    # Random single faults (raise/exhaust/interrupt) at early coordinates:
    # the answer is the true verdict or a lawful structured unknown — the
    # full sweep logic of tests/test_faults.py, across the process boundary.
    import random

    rng = random.Random(seed)
    sites = ("enter:normalize", "enter:decompose", "normalize", "automata.*")
    cases = [(SAT_SCRIPT, "sat"), (UNSAT_SCRIPT, "unsat")]
    with server.client() as client:
        for script, truth in cases:
            trigger = {
                "stage": rng.choice(sites),
                "at": rng.randint(1, 6),
                "action": rng.choice(["raise", "exhaust", "interrupt"]),
            }
            response = client.solve(script, name=f"sweep-{seed}", inject=[trigger])
            assert response["ok"], response
            assert len(response["verdicts"]) == 1
            verdict = response["verdicts"][0]
            assert verdict in (truth, "unknown"), (
                f"wrong verdict under fault {trigger}: {verdict} != {truth}"
            )
            if verdict == "unknown":
                assert any(
                    line.startswith("; unknown:") for line in response["output"]
                ), "unknown without a structured reason"


def test_responses_never_dropped_under_chaos(server):
    # Every request in a burst mixing clean and faulted jobs is answered.
    import threading

    responses = {}

    def submit(tag, inject):
        with server.client() as client:
            responses[tag] = client.solve(
                SAT_SCRIPT if tag % 2 else UNSAT_SCRIPT,
                name=f"burst-{tag}",
                timeout=20,
                inject=inject,
            )

    plans = [
        (0, []),
        (1, []),
        (2, [dict(KILL, attempts=1)]),
        (3, [{"stage": "enter:normalize", "at": 1, "action": "raise"}]),
        (4, []),
    ]
    threads = [
        threading.Thread(target=submit, args=(tag, inject)) for tag, inject in plans
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert sorted(responses) == [0, 1, 2, 3, 4]
    for tag, inject in plans:
        response = responses[tag]
        assert response["ok"], (tag, response)
        truth = "sat" if tag % 2 else "unsat"
        assert response["verdicts"][0] in (truth, "unknown"), (tag, response)


def test_synthetic_outcomes_are_structured():
    outcome = pad_outcome(JobOutcome(), 3, "internal_error@serve.worker [died]")
    assert outcome.verdicts == ["unknown"] * 3
    assert all("internal_error" in reason for reason in outcome.reasons)


def test_shutdown_ends_a_worker_an_abandoned_pool_never_terminated():
    # A broken pool's manager thread terminates its workers, then joins
    # them: a worker started after that terminate pass is joined but never
    # terminated, waits on the pool's call queue for good, and interpreter
    # exit joins the manager thread, so the server never exits.  The stray
    # child and the joining thread here stand in for that worker and that
    # thread: shutdown must end the child, which frees the thread.
    import asyncio
    import threading

    from repro.serve.server import SolverServer

    async def serve_and_shut_down():
        server = SolverServer(workers=1)
        await server.start()
        stray = server._ctx.Process(target=time.sleep, args=(120.0,))
        stray.start()
        joiner = threading.Thread(target=stray.join, daemon=True)
        joiner.start()
        await asyncio.wait_for(server.shutdown(), timeout=60.0)
        return stray, joiner

    stray, joiner = asyncio.run(serve_and_shut_down())
    try:
        joiner.join(timeout=10.0)
        assert not joiner.is_alive(), "shutdown left a server child running"
    finally:
        if stray.is_alive():
            stray.kill()
            stray.join(timeout=10.0)
