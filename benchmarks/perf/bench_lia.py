"""Micro-benchmark harness for the incremental DPLL(T) LIA stack.

Four workloads are timed:

* **mbqi** — ¬contains chains (one instantiation lemma per predicate, so a
  ``k``-chain drives ``k+1`` LIA queries through the solve–refine loop).
  Each time is the median of ``GATED_RUNS`` runs.
* **cuts** — commuting-disequality instances whose ``unsat`` verdicts need
  the Gomory cutting planes of the integer core (sound
  branch-and-bound alone diverges).  Any verdict disagreeing with the
  ground truth counts as a wrong verdict and fails the gate — in quick CI
  mode too.
* **distinct** — the n-ary ``distinct`` family (pairwise disequality
  groups over universal, constrained and pigeonhole automata, with and
  without length bounds) answered by the easy-case witness path.  The gate
  (quick mode included): 0 wrong verdicts and *no timeouts* —
  ``(distinct x y z)`` used to run out the clock inside the ``A^III``
  system encoding.
* **session** — a symbolic-execution-style chain of related ``check`` calls
  driven twice: through one incremental :class:`repro.Session` (warm
  pipeline caches, pinned branch LIA solvers) and as repeated one-shot
  ``PositionSolver.check`` calls on each prefix (cold caches, the pre-PR-3
  interface).  Verdicts must be identical; the speedup is the headline
  number of the session API.
* **e2e** — the scaled-down end-to-end benchmark suite
  (:func:`repro.benchgen.suite.benchmark_sets`, scale 1) under the position
  solver with a 20 s per-instance timeout.  The quick subset
  (``QUICK_E2E_SETS``) records the median of ``GATED_RUNS`` runs per
  instance, in full and quick mode alike, so the committed reference and
  the quick sample it gates are measured the same way.
* **pipelines** — the string-pipeline workload
  (:mod:`repro.benchgen.pipelines`): symbolic pipe programs compiled to
  deep substr/replace/concat chains, each carrying an exact ground truth
  from concrete execution.  The gate (quick mode included): every curated
  instance *decided*, 0 wrong verdicts, every sat model verified by the
  semantics oracle.
* **automata** — the integer-dense automata core (bitset subset
  construction, lazy product emptiness, dense inclusion) timed against the
  seed's set-based implementations kept in ``repro.automata.legacy``, on
  the same randomly generated NFA pairs.  Both implementations must agree
  on every verdict (DFA size, emptiness, inclusion — ``wrong_verdicts``
  must stay 0) and the dense pass must be at least
  ``AUTOMATA_SPEEDUP_FLOOR``× faster in-process.

Speedups are reported against ``seed_baseline.json`` — per-instance timings
of the pre-incremental seed measured on the same machine — and the result is
written to ``BENCH_lia.json`` next to this file.  Verdict changes against
the seed are listed explicitly and classified: ``improved`` (the seed ran
out of budget, the new solver solves it with a verified model), ``corrected``
(the seed's verdict is contradicted by a model-verified answer — the seed's
conflict cores were unsound, see ``repro.lia.intsolver``), and
``newly_unsolved`` (sound conflict cores cost enough that the instance no
longer fits the budget).  ``wrong_verdicts`` counts contradictions with
ground-truth expectations and must stay 0.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_lia.py [--quick] [--output P]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from typing import Dict, Optional

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(os.path.dirname(_HERE)), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

SEED_BASELINE_PATH = os.path.join(_HERE, "seed_baseline.json")
DEFAULT_OUTPUT_PATH = os.path.join(_HERE, "BENCH_lia.json")

#: per-instance timeout of the e2e workload (matches the seed baseline)
E2E_TIMEOUT = 20.0
#: generous cap for the MBQI instances
MBQI_TIMEOUT = 120.0

#: chain lengths of the MBQI workload (quick mode runs only the first)
MBQI_CHAINS = (4, 6, 8)
#: benchmark sets of the quick e2e smoke (a subset that runs in ~a minute)
QUICK_E2E_SETS = ("thefuck-like",)
#: timed runs behind each time the quick gate compares (the median is kept:
#: one run per instance let a single slow run fail the gate)
GATED_RUNS = 3
#: commuting-disequality instances of the cuts workload (quick mode runs
#: only the first); both expect ``unsat`` via the cutting-plane core
CUTS_INSTANCES = ("position-hard-comm-0", "position-hard-comm-3")
#: per-instance timeout of the cuts workload (the acceptance bar is well
#: below this; a timeout shows up as a non-``unsat`` status)
CUTS_TIMEOUT = 25.0
#: per-instance timeout of the distinct workload — the witness path
#: answers in milliseconds, so a generous budget only ever catches a
#: regression back into the encoding
DISTINCT_TIMEOUT = 20.0
#: distinct instances run in quick mode (the full list in ``run_distinct``)
DISTINCT_QUICK = ("distinct-3", "distinct-5", "distinct-php-3-over-2")
#: minimum in-process speedup of the dense automata core over the legacy
#: set-based implementations (the acceptance bar of the dense rework)
AUTOMATA_SPEEDUP_FLOOR = 5.0
#: NFA pairs measured by the automata workload (quick mode runs fewer)
AUTOMATA_PAIRS = 12
AUTOMATA_QUICK_PAIRS = 4
#: per-check timeout of the session workload
SESSION_TIMEOUT = 60.0
#: per-instance timeout of the pipelines workload (curated instances all
#: answer in a couple of seconds; the cap matches the corpus gate)
PIPELINES_TIMEOUT = 30.0
#: pipeline instances run in quick mode
PIPELINES_QUICK_COUNT = 6
#: chain length of the session workload (quick mode runs a prefix)
SESSION_STEPS = 12
SESSION_QUICK_STEPS = 6


def _chain_problem(k: int):
    from repro.lia import ge
    from repro.strings.ast import (
        Contains,
        LengthConstraint,
        Problem,
        RegexMembership,
        str_len,
        term,
    )

    problem = Problem(alphabet=tuple("abc"), name=f"nc-chain-{k}")
    names = [f"x{i}" for i in range(k + 1)]
    for name in names:
        problem.add(RegexMembership(name, "a*"))
    for i in range(k):
        problem.add(Contains(term(names[i + 1]), term(names[i]), positive=False))
    problem.add(LengthConstraint(ge(str_len(names[0]), 2)))
    return problem


def _solve(problem, timeout: float):
    from repro.solver import PositionSolver, SolverConfig

    start = time.monotonic()
    result = PositionSolver(SolverConfig(timeout=timeout)).check(problem)
    elapsed = time.monotonic() - start
    return result, elapsed


def _solve_median(problem, timeout: float, runs: int = GATED_RUNS):
    """:func:`_solve` ``runs`` times: the last result and the median time."""
    times = []
    for _ in range(runs):
        result, elapsed = _solve(problem, timeout)
        times.append(elapsed)
    return result, statistics.median(times)


def run_mbqi(baseline: Dict, quick: bool) -> Dict:
    chains = MBQI_CHAINS[:1] if quick else MBQI_CHAINS
    instances = {}
    for k in chains:
        name = f"nc-chain-{k}"
        problem = _chain_problem(k)
        result, seconds = _solve_median(problem, MBQI_TIMEOUT)
        seed = baseline["mbqi"].get(name, {})
        entry = {
            "status": result.status.value,
            "lia_queries": result.lia_queries,
            "incremental_seconds": round(seconds, 3),
            "stats": result.stats,
        }
        if seed:
            entry["seed_seconds"] = seed["seconds"]
            entry["speedup_vs_seed"] = round(seed["seconds"] / seconds, 2)
            entry["verdict_matches_seed"] = result.status.value == seed["status"]
        instances[name] = entry
        print(
            f"[mbqi] {name}: {entry['status']} in {seconds:.2f}s "
            f"(seed {seed.get('seconds', '—')}s, {entry['lia_queries']} queries)"
        )
    return {"timeout": MBQI_TIMEOUT, "instances": instances}


def _session_chain_atoms():
    """A symbolic-execution path: each step narrows the previous query."""
    from repro.lia import eq as lia_eq, ge, le
    from repro.strings.ast import (
        Contains,
        LengthConstraint,
        PrefixOf,
        RegexMembership,
        WordEquation,
        lit,
        str_len,
        term,
    )

    return [
        RegexMembership("path", "(a|b|/)*"),
        RegexMembership("user", "(a|b)(a|b)*"),
        PrefixOf(term(lit("a/")), term("path"), positive=False),
        LengthConstraint(ge(str_len("path"), 3)),
        RegexMembership("doc", "(a|b)*"),
        WordEquation(term("user"), term("doc"), positive=False),
        LengthConstraint(lia_eq(str_len("user"), str_len("doc"))),
        LengthConstraint(le(str_len("user"), 6)),
        RegexMembership("seg", "(ab)*"),
        Contains(term(lit("bb")), term("seg"), positive=False),
        LengthConstraint(ge(str_len("seg"), 4)),
        LengthConstraint(ge(str_len("doc"), 2)),
    ]


def run_session(quick: bool) -> Dict:
    from repro.solver import PositionSolver, Session, SolverConfig
    from repro.strings.ast import Problem

    alphabet = tuple("ab/")
    atoms = _session_chain_atoms()[: SESSION_QUICK_STEPS if quick else SESSION_STEPS]

    session = Session(config=SolverConfig(timeout=SESSION_TIMEOUT), alphabet=alphabet)
    session_verdicts = []
    start = time.monotonic()
    for atom in atoms:
        session.add(atom)
        session_verdicts.append(session.check().status.value)
    session_seconds = time.monotonic() - start

    oneshot_verdicts = []
    start = time.monotonic()
    for index in range(len(atoms)):
        problem = Problem(atoms=atoms[: index + 1], alphabet=alphabet,
                          name=f"session-chain-{index}")
        config = SolverConfig(timeout=SESSION_TIMEOUT)
        oneshot_verdicts.append(PositionSolver(config).check(problem).status.value)
    oneshot_seconds = time.monotonic() - start

    mismatches = sum(1 for a, b in zip(session_verdicts, oneshot_verdicts) if a != b)
    entry = {
        "steps": len(atoms),
        "timeout": SESSION_TIMEOUT,
        "session_seconds": round(session_seconds, 3),
        "oneshot_seconds": round(oneshot_seconds, 3),
        "speedup_session_vs_oneshot": round(oneshot_seconds / session_seconds, 2),
        "verdicts": session_verdicts,
        "verdict_mismatches": mismatches,
        "stats": {
            key: value
            for key, value in session.statistics().items()
            if "hits" in key or "reuse" in key or key in ("checks", "lia_parts_asserted")
        },
    }
    print(
        f"[session] {entry['steps']}-step chain: session {session_seconds:.2f}s, "
        f"one-shot {oneshot_seconds:.2f}s "
        f"({entry['speedup_session_vs_oneshot']}x, {mismatches} mismatches)"
    )
    return entry


def run_cuts(quick: bool) -> Dict:
    from repro.benchgen.position_hard import commuting_disequalities

    wanted = CUTS_INSTANCES[:1] if quick else CUTS_INSTANCES
    instances: Dict[str, Dict] = {}
    wrong_verdicts = 0
    for name, problem, expected in commuting_disequalities(4):
        if name not in wanted:
            continue
        result, elapsed = _solve(problem, CUTS_TIMEOUT)
        status = result.status.value
        if expected is not None and result.solved and status != expected:
            wrong_verdicts += 1
        instances[name] = {
            "status": status,
            "expected": expected,
            "seconds": round(elapsed, 3),
            "stats": result.stats,
        }
        print(f"[cuts] {name}: {status} (expected {expected}) in {elapsed:.2f}s")
    return {
        "timeout": CUTS_TIMEOUT,
        "wrong_verdicts": wrong_verdicts,
        "instances": instances,
    }


def _distinct_problems():
    from repro.lia import eq as lia_eq, ge, le
    from repro.strings.ast import (
        LengthConstraint,
        Problem,
        RegexMembership,
        WordEquation,
        str_len,
        term,
    )

    def distinct(names):
        return [
            WordEquation(term(a), term(b), positive=False)
            for i, a in enumerate(names)
            for b in names[i + 1 :]
        ]

    problems = []
    for count in (3, 4, 5):
        names = [f"v{i}" for i in range(count)]
        problem = Problem(alphabet=tuple("ab"), name=f"distinct-{count}")
        for atom in distinct(names):
            problem.add(atom)
        problems.append((f"distinct-{count}", problem, "sat"))

    problem = Problem(alphabet=tuple("ab"), name="distinct-3-constrained")
    for name in ("x", "y", "z"):
        problem.add(RegexMembership(name, "(ab)*"))
    for atom in distinct(["x", "y", "z"]):
        problem.add(atom)
    problems.append(("distinct-3-constrained", problem, "sat"))

    problem = Problem(alphabet=tuple("ab"), name="distinct-3-bounded")
    for atom in distinct(["x", "y", "z"]):
        problem.add(atom)
    problem.add(LengthConstraint(ge(str_len("x"), 2)))
    problem.add(LengthConstraint(le(str_len("y"), 1)))
    problem.add(LengthConstraint(lia_eq(str_len("z"), 3)))
    problems.append(("distinct-3-bounded", problem, "sat"))

    problem = Problem(alphabet=tuple("ab"), name="distinct-php-3-over-2")
    for name in ("x", "y", "z"):
        problem.add(RegexMembership(name, "a|b"))
    for atom in distinct(["x", "y", "z"]):
        problem.add(atom)
    problems.append(("distinct-php-3-over-2", problem, "unsat"))

    problem = Problem(alphabet=tuple("ab"), name="distinct-php-4-over-3")
    names = ["x", "y", "z", "w"]
    for name in names:
        problem.add(RegexMembership(name, "a|b|ab"))
    for atom in distinct(names):
        problem.add(atom)
    problems.append(("distinct-php-4-over-3", problem, "unsat"))
    return problems


def run_distinct(quick: bool) -> Dict:
    from repro.strings.semantics import eval_problem

    instances: Dict[str, Dict] = {}
    wrong_verdicts = 0
    timeouts = 0
    for name, problem, expected in _distinct_problems():
        if quick and name not in DISTINCT_QUICK:
            continue
        result, elapsed = _solve(problem, DISTINCT_TIMEOUT)
        status = result.status.value
        model_verified = None
        if result.is_sat and result.model is not None:
            model_verified = eval_problem(
                problem, result.model.strings, result.model.integers
            )
        if result.solved and status != expected:
            wrong_verdicts += 1
        if model_verified is False:
            wrong_verdicts += 1
        if not result.solved:
            timeouts += 1
        instances[name] = {
            "status": status,
            "expected": expected,
            "seconds": round(elapsed, 3),
            "model_verified": model_verified,
            "stats": result.stats,
        }
        print(
            f"[distinct] {name}: {status} (expected {expected}) in {elapsed:.3f}s"
        )
    return {
        "timeout": DISTINCT_TIMEOUT,
        "wrong_verdicts": wrong_verdicts,
        "timeouts": timeouts,
        "instances": instances,
    }


def run_e2e(baseline: Dict, quick: bool) -> Dict:
    from repro.benchgen.suite import benchmark_sets
    from repro.strings.semantics import eval_problem

    sets = benchmark_sets(scale=1, seed=7)
    if quick:
        sets = {name: sets[name] for name in QUICK_E2E_SETS}

    seed_instances = baseline["e2e"]["instances"]
    instances: Dict[str, Dict] = {}
    verdict_changes = []
    wrong_verdicts = 0
    total = 0.0
    seed_total = 0.0
    for set_name, items in sets.items():
        runs = GATED_RUNS if set_name in QUICK_E2E_SETS else 1
        for instance_name, problem, expected in items:
            key = f"{set_name}/{instance_name}"
            result, elapsed = _solve_median(problem, E2E_TIMEOUT, runs=runs)
            status = result.status.value
            model_verified = False
            if result.is_sat and result.model is not None:
                model_verified = eval_problem(
                    problem, result.model.strings, result.model.integers
                )
            if expected is not None and result.solved and status != expected:
                wrong_verdicts += 1
            total += elapsed
            entry = {
                "status": status,
                "seconds": round(elapsed, 3),
                "expected": expected,
                "stats": result.stats,
            }
            seed = seed_instances.get(key)
            if seed:
                seed_total += seed["seconds"]
                entry["seed_status"] = seed["status"]
                entry["seed_seconds"] = seed["seconds"]
                if seed["status"] != status:
                    if status in ("sat", "unsat") and seed["status"] in ("timeout", "unknown"):
                        kind = "improved"
                    elif status in ("sat", "unsat") and model_verified:
                        kind = "corrected"
                    else:
                        kind = "newly_unsolved"
                    verdict_changes.append(
                        {"instance": key, "seed": seed["status"], "now": status, "kind": kind}
                    )
            instances[key] = entry
    summary = {
        "timeout": E2E_TIMEOUT,
        "total_seconds": round(total, 2),
        "seed_total_seconds": round(seed_total, 2),
        "speedup_vs_seed": round(seed_total / total, 2) if total else None,
        "instances_run": len(instances),
        "wrong_verdicts": wrong_verdicts,
        "verdict_changes": verdict_changes,
        "instances": instances,
    }
    print(
        f"[e2e] {len(instances)} instances in {total:.1f}s "
        f"(seed {seed_total:.1f}s, speedup {summary['speedup_vs_seed']}x, "
        f"{len(verdict_changes)} verdict changes, {wrong_verdicts} wrong)"
    )
    return summary


def run_pipelines(quick: bool) -> Dict:
    from repro.benchgen.suite import benchmark_sets
    from repro.strings.semantics import eval_problem

    items = benchmark_sets(scale=1, seed=7)["pipeline"]
    if quick:
        items = items[:PIPELINES_QUICK_COUNT]
    instances: Dict[str, Dict] = {}
    wrong_verdicts = 0
    undecided = 0
    models_unverified = 0
    total = 0.0
    for name, problem, expected in items:
        result, elapsed = _solve(problem, PIPELINES_TIMEOUT)
        status = result.status.value
        model_verified = None
        if result.is_sat:
            model = result.model
            model_verified = model is not None and eval_problem(
                problem, model.strings, model.integers
            )
            if not model_verified:
                models_unverified += 1
        if expected is not None and result.solved and status != expected:
            wrong_verdicts += 1
        if not result.solved:
            undecided += 1
        total += elapsed
        instances[name] = {
            "status": status,
            "expected": expected,
            "seconds": round(elapsed, 3),
            "model_verified": model_verified,
            "stats": result.stats,
        }
        print(f"[pipelines] {name}: {status} (expected {expected}) in {elapsed:.2f}s")
    return {
        "timeout": PIPELINES_TIMEOUT,
        "total_seconds": round(total, 2),
        "wrong_verdicts": wrong_verdicts,
        "undecided": undecided,
        "models_unverified": models_unverified,
        "instances": instances,
    }


def _automata_instances(quick: bool):
    """Seeded NFA families over a two-symbol alphabet.

    Two shapes, matching how the solver stresses the automata core:

    * ``blowup-*`` — ``(a|b)* a (a|b)^{k-1}`` plus a few random extra
      edges: subset construction reaches ~2^k subsets (determinize /
      complement pressure);
    * ``pair-*`` — random 12–16-state NFA pairs as produced by regex
      compilation: product emptiness and inclusion pressure (the
      consequence pre-pass, guard pruning and the MBQI ¬contains loop).
    """
    import random

    from repro.automata.nfa import Nfa

    rng = random.Random(20260808)

    blowups = []
    for index, k in enumerate((8, 9, 10, 8, 9, 10)[: 2 if quick else 6]):
        nfa = Nfa({"a", "b"})
        states = [nfa.add_state() for _ in range(k + 1)]
        nfa.add_transition(states[0], "a", states[0])
        nfa.add_transition(states[0], "b", states[0])
        nfa.add_transition(states[0], "a", states[1])
        for i in range(1, k):
            nfa.add_transition(states[i], "a", states[i + 1])
            nfa.add_transition(states[i], "b", states[i + 1])
        nfa.make_initial(states[0])
        nfa.make_final(states[k])
        for _ in range(3):
            nfa.add_transition(rng.choice(states), rng.choice("ab"), rng.choice(states))
        blowups.append((f"blowup-{index}", nfa))

    pairs = []
    for index in range(AUTOMATA_QUICK_PAIRS if quick else AUTOMATA_PAIRS):
        entry = []
        for _ in range(2):
            n = rng.randint(12, 16)
            nfa = Nfa({"a", "b"})
            states = [nfa.add_state() for _ in range(n)]
            for _ in range(4 * n):
                nfa.add_transition(
                    rng.choice(states), rng.choice("ab"), rng.choice(states)
                )
            nfa.make_initial(states[0])
            for _ in range(2):
                nfa.make_final(rng.choice(states))
            entry.append(nfa)
        pairs.append((f"pair-{index}", entry[0], entry[1]))
    return blowups, pairs


def run_automata(quick: bool) -> Dict:
    from repro.automata import legacy as leg
    from repro.automata import operations as ops

    sigma = "ab"
    blowups, pairs = _automata_instances(quick)

    def dense_pass():
        verdicts = []
        for _, a in blowups:
            # Fresh copies so each timed pass pays its own dense compilation.
            a = a.copy()
            a._dense = None
            dfa, _ = ops.determinize(a, sigma)
            verdicts.append((len(dfa.states), ops.complement(a, sigma).is_empty()))
        for _, a, b in pairs:
            a, b = a.copy(), b.copy()
            a._dense = b._dense = None
            # Emptiness is answered lazily — no product is materialised.
            verdicts.append(
                (ops.intersection_empty(a, b), ops.is_subset(a, b, sigma))
            )
        return verdicts

    def legacy_pass():
        verdicts = []
        for _, a in blowups:
            dfa, _ = leg.legacy_determinize(a, sigma)
            verdicts.append(
                (len(dfa.states), leg.legacy_is_empty(leg.legacy_complement(a, sigma)))
            )
        for _, a, b in pairs:
            # The seed's emptiness path: materialise the product, trim it,
            # inspect the survivors (see repro.automata.legacy).
            verdicts.append(
                (
                    leg.legacy_intersection_empty(a, b),
                    leg.legacy_is_subset(a, b, sigma),
                )
            )
        return verdicts

    def best_of_three(fn):
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    # Warm-up (bytecode, allocator), then best-of-3 for each side.
    dense_verdicts = dense_pass()
    legacy_verdicts = legacy_pass()
    dense_seconds = best_of_three(dense_pass)
    legacy_seconds = best_of_three(legacy_pass)

    wrong_verdicts = sum(
        1 for d, l in zip(dense_verdicts, legacy_verdicts) if d != l
    )
    names = [name for name, _ in blowups] + [name for name, _, _ in pairs]
    entry = {
        "instances": len(names),
        "dense_seconds": round(dense_seconds, 4),
        "legacy_seconds": round(legacy_seconds, 4),
        "speedup_dense_vs_legacy": round(legacy_seconds / dense_seconds, 2),
        "speedup_floor": AUTOMATA_SPEEDUP_FLOOR,
        "wrong_verdicts": wrong_verdicts,
        "verdicts": dict(zip(names, dense_verdicts)),
    }
    print(
        f"[automata] {len(names)} instances: dense {dense_seconds:.3f}s, "
        f"legacy {legacy_seconds:.3f}s "
        f"({entry['speedup_dense_vs_legacy']}x, {wrong_verdicts} wrong)"
    )
    return entry


def run(quick: bool = False, output: Optional[str] = None) -> Dict:
    with open(SEED_BASELINE_PATH) as fh:
        baseline = json.load(fh)
    report = {
        "schema": 1,
        "quick": quick,
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "automata": run_automata(quick),
        "mbqi": run_mbqi(baseline, quick),
        "session": run_session(quick),
        "cuts": run_cuts(quick),
        "distinct": run_distinct(quick),
        "pipelines": run_pipelines(quick),
        "e2e": run_e2e(baseline, quick),
    }
    path = output or DEFAULT_OUTPUT_PATH
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"[bench] report written to {path}")
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI smoke subset")
    parser.add_argument("--output", default=None, help="output JSON path")
    args = parser.parse_args()
    run(quick=args.quick, output=args.output)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
