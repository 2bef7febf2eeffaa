"""Self-tests for the repo-invariant analyzer (``repro.analysis``).

Two layers:

* **fixtures** — every rule gets at least one positive (a seeded violation
  the rule must flag) and one negative (idiomatic code it must stay silent
  on), analyzed as in-memory modules with engine-layer relpaths;
* **the repo gate** — the analyzer run on this repository itself must exit
  clean, every suppression must carry a reason, and the two incident
  regressions (the PR-6 un-checkpointed presolve loop, a direct
  ``Nfa._states`` write) must re-trip it when deliberately re-introduced.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.analysis import analyze, analyze_paths, load_modules, repo_root
from repro.analysis.callgraph import CallGraph
from repro.analysis.framework import select_rules
from repro.analysis.loader import parse_module

REPO = repo_root()
ENGINE = "src/repro/solver/fixture.py"


def run_rules(source, relpath=ENGINE, rules=None, extra=()):
    """Analyze ``source`` (plus optional extra modules) with chosen rules."""
    modules = [parse_module("<fixture>", relpath, source=source)]
    for other_relpath, other_source in extra:
        modules.append(parse_module("<fixture>", other_relpath, source=other_source))
    return analyze(modules, rules=select_rules(rules))


def violations(report, rule):
    return [f for f in report.unsuppressed if f.rule == rule]


# ----------------------------------------------------------------------
# checkpoint-coverage
# ----------------------------------------------------------------------

PRESOLVE_LOOP = """
def eliminate_equalities(equalities, remaining):
    eliminated = []
    while equalities:
        constraint = equalities.pop()
        remaining = [substitute(other, constraint) for other in remaining]
        eliminated.append(constraint)
    return eliminated


def substitute(expr, constraint):
    return expr.replace(constraint)
"""


def test_checkpoint_flags_unchecked_presolve_loop():
    report = run_rules(PRESOLVE_LOOP, relpath="src/repro/lia/simplify.py",
                       rules=["checkpoint-coverage"])
    found = violations(report, "checkpoint-coverage")
    assert len(found) == 1
    assert found[0].line == 4  # the while statement


def test_checkpoint_passes_direct_and_interprocedural():
    source = """
from ..budget import checkpoint

def direct(frontier):
    while frontier:
        checkpoint("stage", 1)
        frontier = step(frontier)

def via_callee(frontier):
    while frontier:
        frontier = helper(frontier)

def helper(frontier):
    checkpoint("stage", 1)
    return frontier.next()
"""
    report = run_rules(source, rules=["checkpoint-coverage"])
    assert not violations(report, "checkpoint-coverage")


def test_checkpoint_exempts_trivial_bitscan_and_traversal():
    source = """
def iter_bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low

def copy_delta(delta):
    out = {}
    for src, by_symbol in delta.items():
        for symbol, dsts in by_symbol.items():
            out.setdefault(src, {})[symbol] = set(dsts)
    return out
"""
    report = run_rules(source, relpath="src/repro/automata/fixture.py",
                       rules=["checkpoint-coverage"])
    assert not violations(report, "checkpoint-coverage")


def test_checkpoint_product_for_needs_charge_but_accepts_upfront():
    flagged = """
def pairs(xs, ys):
    out = []
    for x in xs:
        for y in ys:
            out.append(make(x, y))
    return out
"""
    report = run_rules(flagged, rules=["checkpoint-coverage"])
    assert len(violations(report, "checkpoint-coverage")) == 1

    charged = """
from ..budget import checkpoint

def pairs(xs, ys):
    checkpoint("stage", len(xs) * len(ys))
    out = []
    for x in xs:
        for y in ys:
            out.append(make(x, y))
    return out
"""
    report = run_rules(charged, rules=["checkpoint-coverage"])
    assert not violations(report, "checkpoint-coverage")


def test_checkpoint_upfront_charge_does_not_excuse_while():
    source = """
from ..budget import checkpoint

def fixpoint(worklist):
    checkpoint("stage", 1)
    while worklist:
        worklist = expand(worklist)
"""
    report = run_rules(source, rules=["checkpoint-coverage"])
    assert len(violations(report, "checkpoint-coverage")) == 1


def test_checkpoint_enclosing_loop_coverage():
    # the dense-core idiom: the outer worklist checkpoints per iteration,
    # the inner scans ride under it
    source = """
from ..budget import checkpoint

def reachable(frontier, incoming):
    while frontier:
        checkpoint("stage", 1)
        step = advance(frontier)
        while step:
            step = consume(step, incoming)
        frontier = step
"""
    report = run_rules(source, rules=["checkpoint-coverage"])
    assert not violations(report, "checkpoint-coverage")


def test_checkpoint_scope_is_engine_packages_only():
    report = run_rules(PRESOLVE_LOOP, relpath="src/repro/smtlib/fixture.py",
                       rules=["checkpoint-coverage"])
    assert not violations(report, "checkpoint-coverage")


EULER_WALK = """
def walk(outgoing, remaining, start):
    stack, trail = [(start, None)], []
    while stack:
        state, _ = stack[-1]
        chosen = None
        for index in outgoing.get(state, ()):
            if remaining[index] > 0:
                chosen = index
                break
        if chosen is None:
            trail.append(stack.pop()[1])
        else:
            remaining[chosen] -= 1
            stack.append((chosen, chosen))
    return trail
"""


def test_checkpoint_covers_core_package():
    # A model-sized walk in the Parikh layer (the Hierholzer trail of
    # ``core/parikh.py`` once had none) must checkpoint like any engine loop.
    report = run_rules(EULER_WALK, relpath="src/repro/core/fixture.py",
                       rules=["checkpoint-coverage"])
    found = violations(report, "checkpoint-coverage")
    assert [finding.line for finding in found] == [4]  # the while statement
    checked = EULER_WALK.replace(
        "        state, _ = stack[-1]\n",
        "        checkpoint('parikh.walk')\n        state, _ = stack[-1]\n",
    )
    report = run_rules("from ..budget import checkpoint\n" + checked,
                       relpath="src/repro/core/fixture.py", rules=["checkpoint-coverage"])
    assert not violations(report, "checkpoint-coverage")


SET_GROWING_WALK = """
def reachable(edges, start):
    seen = {start}
    work = [start]
    while work:
        state = work.pop()
        for dst in edges[state]:
            if dst not in seen:
                seen.add(dst)
                work.append(dst)
    return seen
"""

TEST_HELPER_NAMED_ADD = """
def add(session, atom):
    session.add_atom(atom)
    return session.check()


def check():
    checkpoint("session.check")
"""


def test_checkpoint_call_graph_ignores_test_modules():
    # A test helper named ``add`` that reaches a checkpoint must not make
    # every ``set.add`` in the engine count as checkpointed.
    report = run_rules(SET_GROWING_WALK, relpath="src/repro/core/fixture.py",
                       rules=["checkpoint-coverage"],
                       extra=[("tests/test_fixture.py", TEST_HELPER_NAMED_ADD)])
    assert [finding.line for finding in violations(report, "checkpoint-coverage")] == [5]
    # The same helper under ``src/`` is engine code, and does cover the call.
    report = run_rules(SET_GROWING_WALK, relpath="src/repro/core/fixture.py",
                       rules=["checkpoint-coverage"],
                       extra=[("src/repro/solver/helper.py", TEST_HELPER_NAMED_ADD)])
    assert not violations(report, "checkpoint-coverage")


def test_reintroducing_unchecked_intsolver_loop_trips_analyzer():
    # The acceptance regression: strip the real elimination loop's
    # checkpoints and the analyzer must fail on the modified module.  The
    # integer check's elimination is the presolve's loop in simplify.py,
    # which checkpoints the caller's site ("lia.presolve" / "lia.eliminate").
    path = os.path.join(REPO, "src/repro/lia/simplify.py")
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    assert 'site: str = "lia.eliminate"' in source
    assert source.count("checkpoint(site)\n") == 2
    stripped = source.replace("checkpoint(site)\n", "pass\n")
    clean = run_rules(source, relpath="src/repro/lia/simplify.py",
                      rules=["checkpoint-coverage"])
    assert not violations(clean, "checkpoint-coverage")
    broken = run_rules(stripped, relpath="src/repro/lia/simplify.py",
                       rules=["checkpoint-coverage"])
    assert violations(broken, "checkpoint-coverage")


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------


def test_determinism_flags_clock_and_ambient_rng():
    source = """
import random
import time
from time import monotonic

def jitter():
    started = time.time()
    drift = monotonic()
    pick = random.random()
    rng = random.Random()
    return started, drift, pick, rng
"""
    report = run_rules(source, rules=["determinism"])
    lines = {f.line for f in violations(report, "determinism")}
    assert lines == {7, 8, 9, 10}


def test_determinism_accepts_seeded_rng_and_exempt_scopes():
    seeded = """
import random

def sample(seed):
    return random.Random(seed).random()


def default_rng():
    return random.Random(0)
"""
    report = run_rules(seeded, rules=["determinism"])
    assert not violations(report, "determinism")
    clocky = "import time\n\ndef now():\n    return time.time()\n"
    for exempt in ("src/repro/budget.py", "src/repro/serve/server.py",
                   "tests/test_fixture.py"):
        report = run_rules(clocky, relpath=exempt, rules=["determinism"])
        assert not violations(report, "determinism"), exempt


# ----------------------------------------------------------------------
# cache-discipline
# ----------------------------------------------------------------------


def test_cache_discipline_flags_direct_nfa_state_writes():
    source = """
def corrupt(nfa):
    nfa._states = set()
    nfa._final.add(7)
    nfa._dense = None
    del nfa._delta
"""
    report = run_rules(source, rules=["cache-discipline"])
    lines = {f.line for f in violations(report, "cache-discipline")}
    assert lines == {3, 4, 5, 6}


def test_cache_discipline_applies_to_tests_but_not_nfa_py():
    source = "def prime(nfa, dense):\n    nfa._dense = dense\n"
    report = run_rules(source, relpath="tests/test_fixture.py",
                       rules=["cache-discipline"])
    assert violations(report, "cache-discipline")
    report = run_rules(source, relpath="src/repro/automata/nfa.py",
                       rules=["cache-discipline"])
    assert not violations(report, "cache-discipline")


def test_cache_discipline_allows_managed_properties():
    source = """
def rebuild(nfa, states):
    nfa.states = set(states)
    nfa.initial = {0}
    nfa.final = {1}
"""
    report = run_rules(source, rules=["cache-discipline"])
    assert not violations(report, "cache-discipline")


# ----------------------------------------------------------------------
# exception-hygiene
# ----------------------------------------------------------------------


def test_exception_hygiene_flags_swallowing_blanket_handlers():
    source = """
def brittle(problem):
    try:
        return solve(problem)
    except Exception:
        return None
    finally:
        pass
"""
    report = run_rules(source, rules=["exception-hygiene"])
    assert len(violations(report, "exception-hygiene")) == 1


def test_exception_hygiene_accepts_reraise_and_typed_conversion():
    source = """
from ..budget import UnknownKind, UnknownReason

def careful(problem):
    try:
        return solve(problem)
    except Exception as failure:
        reason = UnknownReason(UnknownKind.INTERNAL_ERROR, detail=str(failure))
        return unknown(reason)

def passthrough(problem):
    try:
        return solve(problem)
    except Exception:
        cleanup()
        raise
"""
    report = run_rules(source, rules=["exception-hygiene"])
    assert not violations(report, "exception-hygiene")


def test_exception_hygiene_scope_excludes_non_engine_layers():
    source = "def lax():\n    try:\n        go()\n    except Exception:\n        pass\n"
    report = run_rules(source, relpath="src/repro/smtlib/fixture.py",
                       rules=["exception-hygiene"])
    assert not violations(report, "exception-hygiene")


# ----------------------------------------------------------------------
# async-safety
# ----------------------------------------------------------------------


def test_async_safety_flags_blocking_calls_in_coroutines():
    source = """
import time

async def handler(pool, spec, path):
    time.sleep(0.1)
    handle = open(path)
    return pool.submit(run, spec).result()
"""
    report = run_rules(source, relpath="src/repro/serve/fixture.py",
                       rules=["async-safety"])
    lines = {f.line for f in violations(report, "async-safety")}
    assert lines == {5, 6, 7}


def test_async_safety_ignores_sync_defs_and_awaited_joins():
    source = """
import asyncio
import time

async def handler(pool, spec):
    await asyncio.sleep(0.1)
    result = await asyncio.wrap_future(pool.submit(run, spec))

    def blocking_callback():
        time.sleep(1.0)

    return result, blocking_callback

def plain(path):
    time.sleep(0.1)
    return open(path)
"""
    report = run_rules(source, relpath="src/repro/serve/fixture.py",
                       rules=["async-safety"])
    assert not violations(report, "async-safety")


# ----------------------------------------------------------------------
# spawn-safety
# ----------------------------------------------------------------------


def test_spawn_safety_flags_lambdas_and_local_defs():
    source = """
def dispatch(executor, spec):
    def local_job(item):
        return item + 1

    executor.submit(lambda: spec)
    executor.submit(local_job, spec)
"""
    report = run_rules(source, relpath="src/repro/serve/fixture.py",
                       rules=["spawn-safety"])
    assert len(violations(report, "spawn-safety")) == 2


def test_spawn_safety_accepts_module_level_callables():
    source = """
from concurrent.futures import ProcessPoolExecutor

def run_job(spec):
    return spec

def build(flags, payload):
    pool = ProcessPoolExecutor(initializer=initializer, initargs=(flags, payload))
    return pool.submit(run_job, {"x": 1})

def initializer(flags, payload):
    pass
"""
    report = run_rules(source, relpath="src/repro/serve/fixture.py",
                       rules=["spawn-safety"])
    assert not violations(report, "spawn-safety")


def test_spawn_safety_scope_is_serve_only():
    source = "def f(executor):\n    executor.submit(lambda: 1)\n"
    report = run_rules(source, relpath="src/repro/solver/fixture.py",
                       rules=["spawn-safety"])
    assert not violations(report, "spawn-safety")


# ----------------------------------------------------------------------
# suppressions and the meta rule
# ----------------------------------------------------------------------


def test_suppression_silences_with_reason_and_is_reported():
    source = """
import time

def now():
    return time.time()  # repro: allow(determinism): fixture needs the wall clock
"""
    report = run_rules(source, rules=["suppression", "determinism"])
    assert not report.unsuppressed
    assert len(report.suppressed) == 1
    assert report.suppressed[0].suppression_reason.startswith("fixture needs")


def test_suppression_on_line_above_covers_next_line():
    source = """
import time

def now():
    # repro: allow(determinism): fixture needs the wall clock
    return time.time()
"""
    report = run_rules(source, rules=["suppression", "determinism"])
    assert not report.unsuppressed


def test_malformed_and_unknown_suppressions_are_violations():
    source = """
import time

def now():
    also = time.time()  # repro: allow(determinism)
    return time.time()  # repro: allow(no-such-rule): reason text
"""
    report = run_rules(source, rules=["suppression", "determinism"])
    meta = violations(report, "suppression")
    assert len(meta) == 2
    assert any("malformed" in f.message for f in meta)
    assert any("unknown rule" in f.message for f in meta)
    # neither comment suppressed the real findings
    assert len(violations(report, "determinism")) == 2


def test_the_suppression_rule_cannot_be_suppressed():
    source = """
x = 1  # repro: allow(suppression): trying to silence the meta rule
"""
    report = run_rules(source, rules=["suppression"])
    found = violations(report, "suppression")
    assert len(found) == 1
    assert "cannot be suppressed" in found[0].message


# ----------------------------------------------------------------------
# call graph
# ----------------------------------------------------------------------


def test_callgraph_resolves_transitive_checkpoints():
    module = parse_module("<fixture>", ENGINE, source="""
def outer():
    middle()

def middle():
    inner()

def inner(budget):
    budget.check_now("stage")

def dead_end():
    return 42
""")
    graph = CallGraph([module])
    assert graph.function_reaches_checkpoint("outer")
    assert graph.function_reaches_checkpoint("middle")
    assert not graph.function_reaches_checkpoint("dead_end")
    assert not graph.function_reaches_checkpoint("unknown_name")


def test_callgraph_survives_recursion():
    module = parse_module("<fixture>", ENGINE, source="""
def ping(n):
    return pong(n - 1)

def pong(n):
    return ping(n - 1)
""")
    graph = CallGraph([module])
    assert not graph.function_reaches_checkpoint("ping")


# ----------------------------------------------------------------------
# the repo gate (what the CI lint job asserts)
# ----------------------------------------------------------------------


def test_repository_is_clean_and_suppressions_are_justified():
    report = analyze_paths(root=REPO)
    assert report.ok, [f"{f.location()}: [{f.rule}] {f.message}"
                       for f in report.unsuppressed]
    assert report.files_scanned > 50
    for finding in report.suppressed:
        assert finding.suppression_reason.strip(), finding.location()
    assert report.runtime_seconds > 0.0
    assert report.to_json()["runtime_seconds"] > 0.0


def test_cli_json_report_shape_and_exit_codes():
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    done = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "--json", "--max-runtime", "10"],
        capture_output=True, text=True, env=env, cwd=REPO,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    payload = json.loads(done.stdout)
    assert payload["ok"] is True
    assert payload["violations"] == 0
    assert payload["max_runtime_exceeded"] is False
    assert 0.0 < payload["runtime_seconds"] < 10.0

    # an absurd runtime budget must fail the run even when the tree is clean
    done = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "--json",
         "--max-runtime", "0.000001"],
        capture_output=True, text=True, env=env, cwd=REPO,
    )
    assert done.returncode == 1
    assert json.loads(done.stdout)["max_runtime_exceeded"] is True


def test_cli_rejects_unknown_rule():
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    done = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "--rule", "no-such-rule"],
        capture_output=True, text=True, env=env, cwd=REPO,
    )
    assert done.returncode == 2
    assert "unknown rule" in done.stderr
