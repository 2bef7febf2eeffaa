"""End-to-end tests of the portfolio solver server (:mod:`repro.serve`).

One real server subprocess (spawned workers, warm caches, fault injection
enabled) is shared by the module; each test drives it through the public
surface — the JSON-lines protocol, the raw-script mode, the ``ServeClient``
and the ``python -m repro.smtlib --server`` CLI — and checks the promises
the serve layer makes: verdicts identical to in-process solving, structured
unknowns, dedup of identical in-flight jobs, cancelled portfolio losers,
warm-cache hits, and a clean shutdown with every worker reaped.
"""

import glob
import json
import os
import socket
import subprocess
import sys
import threading
import time

import pytest

from helpers import ServeServerProc, process_descendants, surviving
from repro.serve import ServeClient, ServeError, parse_host_port, strategy_names
from repro.serve.portfolio import STRATEGIES, config_for, pick_winner
from repro.serve.protocol import (
    JobOutcome,
    count_check_sats,
    dedup_key,
    synthetic_outcome,
)

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS = sorted(glob.glob(os.path.join(REPO, "benchmarks", "smtlib", "*.smt2")))

SAT_SCRIPT = '(set-logic QF_S)(declare-const x String)(assert (= x "ab"))(check-sat)'
UNSAT_SCRIPT = (
    '(set-logic QF_S)(declare-const x String)'
    '(assert (= x "a"))(assert (= x "b"))(check-sat)'
)
SLOW_SCRIPT = (
    "(set-logic QF_S)"
    "(declare-const x String)(declare-const y String)"
    '(assert (= (str.++ x y) (str.++ y x "ab")))'
    "(check-sat)"
)


@pytest.fixture(scope="module")
def server():
    proc = ServeServerProc(
        "--workers", "2",
        "--warm", os.path.join(REPO, "benchmarks", "smtlib", "*.smt2"),
        "--warm-limit", "256",
        "--enable-fault-injection",
        "--timeout", "30",
    )
    yield proc
    proc.kill()


# ----------------------------------------------------------------------
# Protocol units (no server needed)
# ----------------------------------------------------------------------
def test_parse_host_port():
    assert parse_host_port("127.0.0.1:7000") == ("127.0.0.1", 7000)
    assert parse_host_port("localhost") == ("localhost", 7411)
    assert parse_host_port(":9000") == ("127.0.0.1", 9000)
    with pytest.raises(ServeError):
        parse_host_port("host:notaport")


def test_strategy_names_validation():
    assert strategy_names(None) == ("witness", "encoding")
    assert strategy_names(["encoding"]) == ("encoding",)
    with pytest.raises(ValueError):
        strategy_names(["nope"])
    with pytest.raises(ValueError, match="unknown strategy 'frugal'"):
        strategy_names(["frugal"])
    with pytest.raises(ValueError):
        strategy_names(3)
    with pytest.raises(ValueError):
        strategy_names("witness")
    with pytest.raises(ValueError):
        strategy_names(["witness", "witness"])


def test_strategies_are_distinct_configs():
    configs = {
        name: config_for(name, timeout=10.0, max_steps=None) for name in STRATEGIES
    }
    # The portfolio only makes sense if the racers explore different paths.
    assert configs["witness"].distinct_shortcut != configs["encoding"].distinct_shortcut


def test_dedup_key_semantics():
    key = dedup_key(SAT_SCRIPT, 30.0)
    assert key is not None
    # Whitespace/comment differences collapse to the same canonical key.
    spaced = SAT_SCRIPT.replace(")(", ")\n ; noise\n(")
    assert dedup_key(spaced, 30.0) == key
    # A different timeout is a different job.
    assert dedup_key(SAT_SCRIPT, 5.0) != key
    # Model-producing and multi-check scripts never share responses.
    assert dedup_key(SAT_SCRIPT + "(get-model)", 30.0) is None
    assert dedup_key(SAT_SCRIPT + "(check-sat)", 30.0) is None
    assert dedup_key("(push 1)" + SAT_SCRIPT, 30.0) is None


def test_pick_winner_ranking():
    undecided = synthetic_outcome("witness", 1, "timeout@solve")
    decided = JobOutcome(strategy="encoding", verdicts=["sat"], output=["sat"])
    errored = JobOutcome(strategy="encoding", error="boom")
    assert pick_winner([undecided, decided, errored]) is decided
    assert pick_winner([errored, undecided]) is undecided
    assert pick_winner([]) is None
    assert count_check_sats(SAT_SCRIPT + "(check-sat)") == 2


# ----------------------------------------------------------------------
# The live server
# ----------------------------------------------------------------------
def test_ping_and_stats_shape(server):
    with server.client() as client:
        pong = client.ping()
        assert pong["ok"] and pong["pong"]
        stats = client.stats()["stats"]
        assert stats["workers"] == 2
        assert stats["warm_payload"] > 0
        for key in ("jobs_total", "portfolio_cancelled", "worker_restarts"):
            assert key in stats


def test_solve_sat_and_unsat(server):
    with server.client() as client:
        sat = client.solve(SAT_SCRIPT, name="sat")
        assert sat["ok"] and sat["verdicts"] == ["sat"]
        assert sat["output"] == ["sat"]
        assert sat["strategy"] in STRATEGIES
        unsat = client.solve(UNSAT_SCRIPT, name="unsat")
        assert unsat["ok"] and unsat["verdicts"] == ["unsat"]


def test_structured_unknown_on_tiny_timeout(server):
    with server.client() as client:
        response = client.solve(SLOW_SCRIPT, name="tiny", timeout=0.05)
        assert response["ok"]
        assert response["verdicts"] == ["unknown"]
        # The reason line names a structured kind, not a bare "unknown".
        reasons = [line for line in response["output"] if line.startswith("; unknown:")]
        assert len(reasons) == 1
        assert "timeout@" in reasons[0] or "interrupted@" in reasons[0]


def test_get_model_round_trip(server):
    with server.client() as client:
        response = client.solve(SAT_SCRIPT + "(get-model)", name="model")
        assert response["verdicts"] == ["sat"]
        body = "\n".join(response["output"])
        assert "define-fun" in body and '"ab"' in body


def test_bad_requests_are_answered(server):
    with server.client() as client:
        assert client.request({"op": "nope"})["ok"] is False
        assert client.solve("")["ok"] is False
        assert client.solve(SAT_SCRIPT, timeout=-1)["ok"] is False
        bad = client.request({"op": "solve", "script": SAT_SCRIPT, "portfolio": ["zzz"]})
        assert bad["ok"] is False and "zzz" in bad["error"]
        bad = client.request({"op": "solve", "script": SAT_SCRIPT, "portfolio": ["frugal"]})
        assert bad["ok"] is False and "unknown strategy 'frugal'" in bad["error"]
        before = client.request({"op": "stats"})["stats"]
        # A timeout must be finite and positive: NaN passes a ``<= 0`` test,
        # and ``asyncio.wait(timeout=nan)`` returns at once.
        for timeout in ("nan", float("nan"), float("inf"), "soon"):
            bad = client.request({"op": "solve", "script": SAT_SCRIPT, "timeout": timeout})
            assert bad["ok"] is False and "timeout" in bad["error"], timeout
        # A portfolio is a bool, null or a list of names.
        for portfolio in (3, "witness", [1]):
            bad = client.request({"op": "solve", "script": SAT_SCRIPT, "portfolio": portfolio})
            assert bad["ok"] is False and "portfolio" in bad["error"], portfolio
        after = client.request({"op": "stats"})["stats"]
        for counter in ("errors", "portfolio_abandoned", "jobs_total"):
            assert after[counter] == before[counter], counter
        # Malformed JSON still yields a structured error response.
        server_sock = socket.create_connection((server.host, server.port), timeout=30)
        server_sock.sendall(b'{"op": "solve", "script": \n')
        line = server_sock.makefile("rb").readline()
        server_sock.close()
        assert json.loads(line)["ok"] is False


def test_raw_mode_socket(server):
    raw = socket.create_connection((server.host, server.port), timeout=120)
    raw.sendall(UNSAT_SCRIPT.encode())
    raw.shutdown(socket.SHUT_WR)
    data = b""
    while True:
        chunk = raw.recv(65536)
        if not chunk:
            break
        data += chunk
    raw.close()
    assert data.decode().strip() == "unsat"


def test_corpus_file_verdicts_and_warm_hits(server):
    with open(CORPUS[0]) as handle:
        text = handle.read()
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    local = subprocess.run(
        [sys.executable, "-m", "repro.smtlib", CORPUS[0]],
        capture_output=True, text=True, env=env, cwd=REPO,
    )
    with server.client() as client:
        response = client.solve(text, name=CORPUS[0])
    assert response["ok"]
    assert response["output"] == local.stdout.splitlines()
    # The warm payload seeded this worker: normalisation re-used interned
    # automata instead of rebuilding them.
    assert response["stats"]["serve_warm_seeded"] > 0
    assert response["stats"]["automata_interning_warm_hits"] > 0


def test_dedup_of_identical_inflight_jobs(server):
    with open(CORPUS[0]) as handle:
        text = handle.read()
    with server.client() as client:
        before = client.stats()["stats"]["jobs_deduped"]
    results = {}

    def submit(tag):
        with server.client() as client:
            results[tag] = client.solve(text, name=f"dup-{tag}", timeout=25)

    threads = [threading.Thread(target=submit, args=(i,)) for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    verdicts = {tuple(results[i]["verdicts"]) for i in range(4)}
    assert len(verdicts) == 1  # every caller got the shared answer
    with server.client() as client:
        after = client.stats()["stats"]["jobs_deduped"]
    assert after > before
    assert any(results[i].get("deduped") for i in range(4))


def test_portfolio_cancels_losers(server):
    # Deterministically slow down one strategy: 'witness' sleeps 1.5s at its
    # first normalize entry while 'encoding' answers normally.  The winner's
    # response comes back immediately; the loser wakes with the cancel flag
    # already set, observes it at its next poll, and lands as a cancelled
    # run in the server stats.
    with server.client() as client:
        before = client.stats()["stats"]["portfolio_cancelled"]
        response = client.solve(
            UNSAT_SCRIPT,
            name="race",
            timeout=25,
            inject=[{
                "strategy": "witness",
                "stage": "enter:normalize",
                "at": 1,
                "action": "delay",
                "delay": 1.5,
            }],
        )
        assert response["ok"] and response["verdicts"] == ["unsat"]
        assert response["strategy"] == "encoding"
        deadline = time.time() + 15
        after = before
        while time.time() < deadline:
            after = client.stats()["stats"]["portfolio_cancelled"]
            if after > before:
                break
            time.sleep(0.2)
    assert after > before, "the delayed witness run never reported its cancellation"


def test_single_strategy_portfolio_override(server):
    with server.client() as client:
        response = client.solve(SAT_SCRIPT, name="solo", portfolio=["encoding"])
        assert response["ok"] and response["verdicts"] == ["sat"]
        assert response["strategy"] == "encoding"
        assert response["portfolio"]["strategies"] == ["encoding"]


def test_smtlib_cli_server_mode_matches_local(server):
    sample = CORPUS[:3]
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    local = subprocess.run(
        [sys.executable, "-m", "repro.smtlib", *sample],
        capture_output=True, text=True, env=env, cwd=REPO,
    )
    remote = subprocess.run(
        [sys.executable, "-m", "repro.smtlib",
         "--server", f"{server.host}:{server.port}", *sample],
        capture_output=True, text=True, env=env, cwd=REPO,
    )
    assert remote.returncode == local.returncode
    assert remote.stdout == local.stdout


def test_smtlib_cli_server_mode_connection_refused():
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    result = subprocess.run(
        [sys.executable, "-m", "repro.smtlib", "--server", "127.0.0.1:1", CORPUS[0]],
        capture_output=True, text=True, env=env, cwd=REPO,
    )
    assert result.returncode == 1
    assert "cannot connect" in result.stderr


def test_normalization_cache_shared_across_jobs():
    # A single worker so consecutive jobs land in the same process: the
    # second job must hit the first job's NormalizationCache entries (the
    # per-process cache is shared across jobs and warm-marked between
    # them), which surfaces as normalization_warm_hits in the stats.
    script = (
        "(set-logic QF_S)(declare-const x String)"
        '(assert (str.in_re x (re.++ (str.to_re "ab") (re.* (str.to_re "c")))))'
        "(assert (= (str.len x) 4))(check-sat)"
    )
    # One strategy: with a portfolio, job 1's second strategy run would
    # already score warm hits and blur the cross-job signal.
    proc = ServeServerProc("--workers", "1", "--portfolio", "encoding")
    try:
        with proc.client() as client:
            first = client.solve(script, name="warmup")
            # A distinct name defeats the server's result dedup cache, so
            # the second run really executes in the worker.
            second = client.solve(script + "(check-sat)", name="rerun")
        assert first["ok"] and second["ok"]
        assert first["stats"].get("normalization_warm_hits", 0) == 0
        assert second["stats"]["normalization_warm_hits"] > 0
    finally:
        proc.kill()


def test_clean_shutdown_reaps_workers():
    # A dedicated short-lived server: shutdown must exit 0 with no
    # leftover children (ProcessPoolExecutor.shutdown(wait=True) joins
    # them before the loop exits).
    proc = ServeServerProc("--workers", "2")
    with proc.client() as client:
        assert client.solve(SAT_SCRIPT)["verdicts"] == ["sat"]
    code = proc.stop()
    assert code == 0


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads children from /proc")
def test_signal_teardown_reaps_workers_and_trackers():
    # SIGTERM drains and joins the fleet: no worker or resource tracker
    # is left behind, reparented to init.
    proc = ServeServerProc("--workers", "2")
    with proc.client() as client:
        assert client.solve(SAT_SCRIPT)["verdicts"] == ["sat"]
    children = process_descendants(proc.proc.pid)
    assert len(children) >= 2, children
    proc.kill()
    assert proc.proc.returncode == 0
    assert surviving(children, timeout=0) == []
