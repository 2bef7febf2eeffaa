"""End-to-end tests of the solver server (:mod:`repro.serve`).

One real server subprocess (spawned workers, warm caches, fault injection
enabled) is shared by the module; each test drives it through the public
surface — the JSON-lines protocol, the raw-script mode, the ``ServeClient``
and the ``python -m repro.smtlib --server`` CLI — and checks the promises
the serve layer makes: verdicts identical to in-process solving, structured
unknowns, dedup of identical in-flight jobs, warm-cache hits, running jobs
interrupted by a shutdown, and a clean shutdown with every worker reaped.
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
from repro.serve import ServeError, parse_host_port
from repro.serve.protocol import MAX_LINE_BYTES, script_shape

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS = sorted(glob.glob(os.path.join(REPO, "benchmarks", "smtlib", "*.smt2")))

SAT_SCRIPT = '(set-logic QF_S)(declare-const x String)(assert (= x "ab"))(check-sat)'
UNSAT_SCRIPT = (
    '(set-logic QF_S)(declare-const x String)'
    '(assert (= x "a"))(assert (= x "b"))(check-sat)'
)
#: an equivalence query of two concat/substr pipelines (``pipe-20`` of
#: ``pipelines.generate(36, seed=12)``) that runs into the solver's deadline
SLOW_SCRIPT = (
    '(set-logic QF_SLIA)(set-info :alphabet "ab")'
    "(declare-const l0 String)(declare-const l1 String)(declare-const l2 String)"
    "(declare-const l3 String)(declare-const r1 String)(declare-const r2 String)"
    '(assert (str.in_re l0 (re.++ (str.to_re "a") (re.* (re.union (str.to_re "a") (str.to_re "b"))))))'
    "(assert (<= (str.len l0) 3))"
    '(assert (= l1 (str.++ l0 "aa")))(assert (= l2 (str.substr l1 0 1)))'
    '(assert (= l3 (str.replace l2 "b" "a")))(assert (not (str.contains l3 "b")))'
    '(assert (= r1 (str.++ l0 "aa")))(assert (= r2 (str.substr r1 0 1)))'
    "(assert (not (= l3 r2)))"
    "(check-sat)"
)


@pytest.fixture(scope="module")
def server():
    proc = ServeServerProc(
        "--workers", "2",
        "--warm", os.path.join(REPO, "benchmarks", "smtlib", "*.smt2"),
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


def test_dedup_key_semantics():
    checks, key = script_shape(SAT_SCRIPT, 30.0)
    assert checks == 1 and key is not None
    # Whitespace/comment differences collapse to the same canonical key.
    spaced = SAT_SCRIPT.replace(")(", ")\n ; noise\n(")
    assert script_shape(spaced, 30.0) == (1, key)
    # A different timeout is a different job.
    assert script_shape(SAT_SCRIPT, 5.0)[1] != key
    # Model-producing, multi-check and push/pop scripts never share
    # responses; their check-sats are still counted.
    assert script_shape(SAT_SCRIPT + "(get-model)", 30.0) == (1, None)
    assert script_shape(SAT_SCRIPT + "(check-sat)", 30.0) == (2, None)
    assert script_shape("(push 1)" + SAT_SCRIPT, 30.0) == (1, None)
    # A script that does not parse: no check-sat, no key.
    assert script_shape("(check-sat", 30.0) == (0, None)
    # The key prints the problem parse_problem reads.
    from repro.smtlib import parse_problem, problem_to_smtlib

    assert key == "30.000\n" + problem_to_smtlib(parse_problem(SAT_SCRIPT))


# ----------------------------------------------------------------------
# The live server
# ----------------------------------------------------------------------
def test_ping_and_stats_shape(server):
    with server.client() as client:
        pong = client.ping()
        assert pong["ok"] and pong["pong"]
        stats = client.stats()["stats"]
        assert stats["workers"] == 2
        assert stats["warm_scripts"] == len(CORPUS)
        for key in ("jobs_total", "jobs_abandoned", "worker_restarts"):
            assert key in stats


def test_solve_sat_and_unsat(server):
    with server.client() as client:
        sat = client.solve(SAT_SCRIPT, name="sat")
        assert sat["ok"] and sat["verdicts"] == ["sat"]
        assert sat["output"] == ["sat"]
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
        before = client.request({"op": "stats"})["stats"]
        # A timeout must be finite and positive: NaN passes a ``<= 0`` test,
        # and ``asyncio.wait(timeout=nan)`` returns at once; ``null`` would
        # leave the job without a deadline.
        for timeout in ("nan", float("nan"), float("inf"), "soon", None):
            bad = client.request({"op": "solve", "script": SAT_SCRIPT, "timeout": timeout})
            assert bad["ok"] is False and "timeout" in bad["error"], timeout
        after = client.request({"op": "stats"})["stats"]
        for counter in ("errors", "jobs_abandoned", "jobs_total"):
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


def test_raw_mode_script_over_the_size_cap(server):
    # Raw mode reads to EOF, so it gets the same size guard as a JSON line:
    # one byte over the cap is answered with an error line, never solved.
    line = b"; " + b"x" * 1021 + b"\n"
    payload = line * (MAX_LINE_BYTES // len(line)) + b" "
    assert len(payload) == MAX_LINE_BYTES + 1
    raw = socket.create_connection((server.host, server.port), timeout=120)
    raw.sendall(payload)
    raw.shutdown(socket.SHUT_WR)
    data = b""
    while True:
        chunk = raw.recv(65536)
        if not chunk:
            break
        data += chunk
    raw.close()
    assert data.decode().strip() == f'(error "script over the {MAX_LINE_BYTES} byte limit")'
    with server.client() as client:
        assert client.ping()["pong"]


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
    # The worker normalised the corpus when it started: this job re-used
    # those automata instead of rebuilding them.
    assert response["stats"]["serve_warm_seeded"] == len(CORPUS)
    assert response["stats"]["normalization_warm_hits"] > 0


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
    proc = ServeServerProc("--workers", "1")
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


def test_warm_scripts_with_extended_atoms_warm_the_first_job(tmp_path):
    # str.substr and str.replace are reduced before normalisation, so a
    # warm script using them fills the worker's cache like any other.
    script = (
        '(set-logic QF_SLIA)(set-info :alphabet "abc")'
        "(declare-const x String)(declare-const y String)(declare-const z String)"
        '(assert (str.in_re x (re.+ (re.union (str.to_re "ab") (str.to_re "c")))))'
        "(assert (= y (str.substr x 1 2)))"
        '(assert (= z (str.replace y "b" "cc")))'
        '(assert (str.in_re z (re.* (str.to_re "c"))))(check-sat)'
    )
    warm = tmp_path / "extended.smt2"
    warm.write_text(script)
    proc = ServeServerProc("--workers", "1", "--warm", str(warm))
    try:
        with proc.client() as client:
            assert client.stats()["stats"]["warm_scripts"] == 1
            first = client.solve(script, name="extended")
        assert first["ok"] and first["verdicts"] == ["sat"]
        assert first["stats"]["serve_warm_seeded"] == 1
        assert first["stats"]["normalization_warm_hits"] > 0
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


def test_shutdown_over_a_connection_left_open_exits_cleanly():
    # The client sends the shutdown and keeps its connection open: the
    # server closes it (the client reads EOF) instead of leaving its
    # handler to be cancelled at loop teardown, which logged a
    # CancelledError traceback.
    proc = ServeServerProc("--workers", "2")
    with proc.client() as client:
        assert client.solve(SAT_SCRIPT)["verdicts"] == ["sat"]
    children = process_descendants(proc.proc.pid)
    with socket.create_connection((proc.host, proc.port), timeout=30) as sock:
        sock.sendall(b'{"op": "shutdown", "id": 1}\n')
        stream = sock.makefile("rb")
        assert json.loads(stream.readline())["shutting_down"]
        _, stderr = proc.proc.communicate(timeout=30)
        assert stream.readline() == b""
    code = proc.proc.returncode
    assert code == 0, stderr
    assert "CancelledError" not in stderr and "Exception in callback" not in stderr, stderr
    assert surviving(children, timeout=5) == []


def test_shutdown_interrupts_a_running_job():
    # Each of the job's first 40 decomposition checkpoints sleeps 0.25 s,
    # so when the shutdown arrives the job is still running and polls its
    # cancel flag between the sleeps.  The shutdown's flag write stops it:
    # the job answers a structured interrupted unknown, and the server
    # still exits 0.
    proc = ServeServerProc("--workers", "1", "--enable-fault-injection")
    stall = [
        {"stage": "eqsolver.decompose", "at": at, "action": "delay", "delay": 0.25}
        for at in range(1, 41)
    ]
    answers = {}

    def submit():
        with proc.client() as client:
            answers["job"] = client.solve(SLOW_SCRIPT, name="stalled", inject=stall)

    thread = threading.Thread(target=submit)
    thread.start()
    time.sleep(3.0)
    started = time.time()
    code = proc.stop()
    thread.join(timeout=30)
    assert code == 0
    assert time.time() - started < 10.0, "shutdown waited for the stalled job"
    response = answers["job"]
    assert response["ok"] and response["verdicts"] == ["unknown"]
    assert response["reasons"][0].startswith("interrupted@"), response["reasons"]
    assert "cancelled by server" in response["reasons"][0]


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
