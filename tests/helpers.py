"""Shared test helpers: brute-force oracles and encoding checkers."""

from __future__ import annotations

from itertools import product
from typing import Dict, Iterable, List, Optional, Tuple

from repro.automata import Nfa, words_up_to
from repro.core.parikh import connectivity_cuts, run_from_model
from repro.core.predicates import evaluate_all
from repro.lia import LiaSolver, LiaStatus


def enumerate_assignments(automata: Dict[str, Nfa], max_length: int) -> Iterable[Dict[str, str]]:
    """Yield every assignment of variables to words of length <= max_length."""
    names = sorted(automata)
    candidate_words = [list(words_up_to(automata[name], max_length)) for name in names]
    for choice in product(*candidate_words):
        yield dict(zip(names, choice))


def brute_force_predicates(
    predicates,
    automata: Dict[str, Nfa],
    max_length: int = 4,
    integers: Optional[Dict[str, int]] = None,
    integer_ranges: Optional[Dict[str, Tuple[int, int]]] = None,
) -> Optional[Dict[str, str]]:
    """Search for an assignment satisfying all predicates (bounded).

    ``integer_ranges`` allows a small search over integer variables (e.g.
    str.at indices); returns a satisfying string assignment or ``None``.
    """
    integer_ranges = integer_ranges or {}
    int_names = sorted(integer_ranges)
    int_domains = [range(integer_ranges[name][0], integer_ranges[name][1] + 1) for name in int_names]
    for strings in enumerate_assignments(automata, max_length):
        if int_names:
            for values in product(*int_domains):
                ints = dict(zip(int_names, values))
                ints.update(integers or {})
                if evaluate_all(predicates, strings, ints):
                    return strings
        else:
            if evaluate_all(predicates, strings, integers or {}):
                return strings
    return None


def solve_parikh(formula, encodings, timeout: float = 30.0, lemmas: Optional[list] = None):
    """Solve a formula over Parikh encodings the way the string solver does.

    Every sat model is cut (``connectivity_cuts``) until each encoding in
    ``encodings`` encodes a connected run, so a sat answer always carries
    real runs; fails the test on UNKNOWN.  The cuts are appended to
    ``lemmas`` when given.
    """
    solver = LiaSolver(timeout=timeout)
    solver.add_assertion(formula)
    while True:
        result = solver.check()
        assert result.status is not LiaStatus.UNKNOWN, f"LIA solver gave up: {result.reason}"
        if not result.is_sat:
            return result
        cuts = [cut for enc in encodings for cut in connectivity_cuts(enc, result.model)]
        if not cuts:
            for enc in encodings:
                assert run_from_model(enc, result.model) is not None
            return result
        for cut in cuts:
            solver.add_assertion(cut)
        if lemmas is not None:
            lemmas.extend(cuts)


def _proc_stat(pid: int) -> Optional[Tuple[str, int, int]]:
    """``(state, parent pid, start time)`` of ``pid`` from ``/proc``, or
    ``None`` once the process is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            stat = fh.read()
    except OSError:
        return None
    # The command name is parenthesised and may hold spaces: split after it.
    fields = stat[stat.rindex(")") + 2 :].split()
    return fields[0], int(fields[1]), int(fields[19])


def process_descendants(pid: int) -> List[Tuple[int, int]]:
    """``(pid, start time)`` of every live descendant of ``pid``, read from
    ``/proc`` (empty where there is no ``/proc``)."""
    import os

    if not os.path.isdir("/proc"):
        return []
    children: Dict[int, List[Tuple[int, int]]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            stat = _proc_stat(int(entry))
            if stat is not None and stat[0] != "Z":
                children.setdefault(stat[1], []).append((int(entry), stat[2]))
    found: List[Tuple[int, int]] = []
    stack = [pid]
    while stack:
        for child in children.get(stack.pop(), ()):
            found.append(child)
            stack.append(child[0])
    return found


def surviving(processes: List[Tuple[int, int]], timeout: float = 10.0) -> List[int]:
    """The pids of ``processes`` still running after up to ``timeout``
    seconds (a zombie, or a pid reused by a newer process, counts as
    gone)."""
    import time

    deadline = time.monotonic() + timeout
    while True:
        alive = []
        for pid, started in processes:
            stat = _proc_stat(pid)
            if stat is not None and stat[0] != "Z" and stat[2] == started:
                alive.append(pid)
        if not alive or time.monotonic() >= deadline:
            return alive
        time.sleep(0.05)


class ServeServerProc:
    """A ``python -m repro.serve`` subprocess for server tests.

    Boots on an ephemeral port, parses the ready line, and exposes
    ``host``/``port`` plus :meth:`stop` (graceful shutdown via the
    protocol, asserting a clean exit 0 with every worker reaped) and
    :meth:`kill` (teardown by signal).  Both check that every process the
    server had spawned — workers, resource trackers — is gone afterwards.
    """

    def __init__(self, *extra_args: str, timeout: float = 60.0):
        import os
        import re
        import subprocess
        import sys

        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        src = os.path.join(repo, "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--port", "0", *extra_args],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            cwd=repo,
            text=True,
        )
        ready = self.proc.stdout.readline()
        match = re.search(r"listening on ([\d.]+):(\d+)", ready)
        if not match:
            self.proc.kill()
            err = self.proc.stderr.read()
            raise RuntimeError(f"server did not come up: {ready!r}\n{err}")
        self.host = match.group(1)
        self.port = int(match.group(2))

    def client(self, **kwargs):
        from repro.serve import ServeClient

        return ServeClient(self.host, self.port, **kwargs)

    def stop(self, expect_clean: bool = True) -> int:
        from repro.serve import ServeError

        children = process_descendants(self.proc.pid)
        try:
            with self.client(timeout=30.0) as client:
                client.shutdown()
        except ServeError:
            pass  # already shutting down / gone; the wait below decides
        try:
            code = self.proc.wait(timeout=30)
        except Exception:
            self.kill()
            raise
        if expect_clean:
            assert code == 0, (code, self.proc.stderr.read())
        self._assert_reaped(children)
        return code

    def kill(self) -> None:
        """SIGTERM the server, whose handler drains the jobs and joins the
        worker fleet; SIGKILL it only if that times out."""
        import subprocess

        if self.proc.poll() is not None:
            return
        children = process_descendants(self.proc.pid)
        self.proc.terminate()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=10)
        self._assert_reaped(children)

    @staticmethod
    def _assert_reaped(children: List[Tuple[int, int]]) -> None:
        import os
        import signal

        leaked = surviving(children)
        for pid in leaked:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        assert not leaked, f"server children outlived it: {leaked}"
