"""Which layer entry points the traced run wraps, and the per-layer metrics.

Layers are the program's modules.  Every probe wraps a name in the module
that *calls* it (the lookup the call goes through), so nothing under
``src/`` changes.  :data:`PER_LAYER` is the catalogue ``BENCHMARK.json``
lists; :func:`layer_metrics` computes every entry from one traced pass.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Tuple

from tracer import Probe, Tracer

#: span names whose self time is orchestration, not a named layer ("dark")
ROOT_SPAN = "check"
DARK_SPANS = ("solver.check", "solver.session.check")


def _cases(tracer: Tracer, _args, result) -> None:
    tracer.count("reductions.cases", len(result))


def _branches(tracer: Tracer, _args, result) -> None:
    tracer.count("eqsolver.branches", len(result.branches))


def _pipeline_check(tracer: Tracer, args, result) -> None:
    for key, value in result.stats.items():
        tracer.count("stats." + key, value)
    # The pipeline's cumulative cache counters; the dict is kept (not the
    # pipeline), so its id stays unique while the tracer lives.
    counters = args[0].counters
    tracer.kept[id(counters)] = counters


_AUTOMATA = (
    "repro.eqsolver.noodler:intersection",
    "repro.eqsolver.noodler:intersection_empty",
    "repro.eqsolver.noodler:remove_epsilon",
    "repro.eqsolver.noodler:minimize",
    "repro.strings.normal_form:compile_regex",
    "repro.strings.normal_form:complement",
    "repro.strings.normal_form:intern_nfa",
    "repro.strings.normal_form:intersection",
    "repro.strings.normal_form:intersection_empty",
    "repro.strings.normal_form:remove_epsilon",
    "repro.solver.solver:is_finite",
    "repro.solver.solver:shortest_word",
    "repro.solver.solver:words_up_to",
    "repro.core.tag_automaton:as_nfa",
    "repro.core.notcontains:is_flat",
)

PROBES: Tuple[Probe, ...] = (
    Probe("solver.check", "repro.solver.solver:IncrementalPipeline.check", _pipeline_check),
    Probe("solver.session.check", "repro.solver.session:Session.check"),
    Probe("reductions", "repro.solver.solver:reduce_problem", _cases),
    Probe("normal_form", "repro.solver.solver:normalize"),
    Probe("eqsolver.decompose", "repro.solver.solver:decompose", _branches),
    Probe("core.encode", "repro.solver.solver:encode_single"),
    Probe("core.encode", "repro.solver.solver:encode_system"),
    Probe("core.witness", "repro.solver.solver:extract_assignment"),
    Probe("semantics.verify", "repro.solver.solver:eval_problem"),
    Probe("lia.check", "repro.lia.solver:LiaSolver.check"),
    Probe("lia.presolve", "repro.lia.solver:eliminate_equalities"),
    Probe("lia.cnf", "repro.lia.cnf:CnfBuilder.add_formula"),
    Probe("lia.sat", "repro.lia.sat:DpllSolver.solve"),
    Probe("lia.simplex", "repro.lia.simplex:Simplex.check"),
    Probe("lia.intsolver", "repro.lia.solver:check_integer_feasibility"),
    Probe("lia.core_min", "repro.lia.solver:check_rational_feasibility"),
    Probe("smtlib.parse", "repro.smtlib.parser:parse_script"),
) + tuple(Probe("automata", target) for target in _AUTOMATA)

#: (name, unit, better) of every per-layer metric, in report order
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("lia.check.calls", "count", "lower"),
    ("lia.check.ms", "ms", "lower"),
    ("lia.presolve.ms", "ms", "lower"),
    ("lia.cnf.ms", "ms", "lower"),
    ("lia.sat.self_ms", "ms", "lower"),
    ("lia.simplex.calls", "count", "lower"),
    ("lia.simplex.ms", "ms", "lower"),
    ("lia.intsolver.calls", "count", "lower"),
    ("lia.intsolver.ms", "ms", "lower"),
    ("lia.core_min.ms", "ms", "lower"),
    ("lia.decisions", "count", "lower"),
    ("lia.conflicts", "count", "lower"),
    ("lia.theory_checks", "count", "lower"),
    ("lia.pivots", "count", "lower"),
    ("lia.presolve.steps", "count", "lower"),
    ("eqsolver.decompose.calls", "count", "lower"),
    ("eqsolver.decompose.ms", "ms", "lower"),
    ("eqsolver.branches", "count", "lower"),
    ("reductions.ms", "ms", "lower"),
    ("reductions.cases", "count", "lower"),
    ("normal_form.ms", "ms", "lower"),
    ("core.encode.calls", "count", "lower"),
    ("core.encode.ms", "ms", "lower"),
    ("core.mbqi.rounds", "count", "lower"),
    ("core.witness.ms", "ms", "lower"),
    ("solver.check.self_ms", "ms", "lower"),
    ("solver.cache.normal_form.hit_ratio", "ratio", "higher"),
    ("solver.cache.component.hit_ratio", "ratio", "higher"),
    ("solver.lia_parts.reuse_ratio", "ratio", "higher"),
    ("semantics.verify.ms", "ms", "lower"),
    ("automata.ms", "ms", "lower"),
    ("automata.interning.hit_ratio", "ratio", "higher"),
    ("automata.dense_compilations", "count", "lower"),
    ("budget.steps", "count", "lower"),
    ("smtlib.parse.ms", "ms", "lower"),
    ("serve.queue_wait_ms.p50", "ms", "lower"),
    ("serve.portfolio.cancelled_ratio", "ratio", "lower"),
    ("serve.dedup.hit_ratio", "ratio", "higher"),
    ("serve.worker_restarts", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.leaf_coverage.p50", "ratio", "higher"),
    ("trace.leaf_coverage.min", "ratio", "higher"),
    ("trace.repeatable_counts", "count", "higher"),
)

#: per-layer metrics that are whole-number work counts (the candidates of
#: the count-repeatability check)
COUNT_METRICS = tuple(
    name for name, unit, _ in PER_LAYER if unit == "count" and not name.startswith(("serve.", "trace."))
)


def _ratio(hits: float, misses: float) -> float:
    total = hits + misses
    return hits / total if total else 0.0


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Every in-process per-layer metric of one traced pass.

    The ``serve.*`` and ``trace.*`` entries are filled in by the caller.
    """
    totals = tracer.totals()
    counts = tracer.counts

    def calls(span: str) -> int:
        return int(totals.get(span, {}).get("calls", 0))

    def ms(span: str, key: str = "ms") -> float:
        return float(totals.get(span, {}).get(key, 0.0))

    def stat(key: str) -> int:
        return int(counts.get("stats." + key, 0))

    pipeline: Dict[str, int] = {}
    for counters in tracer.kept.values():
        for key, value in counters.items():
            pipeline[key] = pipeline.get(key, 0) + value

    return {
        "lia.check.calls": calls("lia.check"),
        "lia.check.ms": ms("lia.check"),
        "lia.presolve.ms": ms("lia.presolve"),
        "lia.cnf.ms": ms("lia.cnf"),
        "lia.sat.self_ms": ms("lia.sat", "self_ms"),
        "lia.simplex.calls": calls("lia.simplex"),
        "lia.simplex.ms": ms("lia.simplex"),
        "lia.intsolver.calls": calls("lia.intsolver"),
        "lia.intsolver.ms": ms("lia.intsolver"),
        "lia.core_min.ms": ms("lia.core_min"),
        "lia.decisions": stat("decisions"),
        "lia.conflicts": stat("conflicts"),
        "lia.theory_checks": stat("theory_checks"),
        "lia.pivots": stat("pivots"),
        "lia.presolve.steps": stat("steps.lia.presolve"),
        "eqsolver.decompose.calls": calls("eqsolver.decompose"),
        "eqsolver.decompose.ms": ms("eqsolver.decompose"),
        "eqsolver.branches": int(counts.get("eqsolver.branches", 0)),
        "reductions.ms": ms("reductions"),
        "reductions.cases": int(counts.get("reductions.cases", 0)),
        "normal_form.ms": ms("normal_form"),
        "core.encode.calls": calls("core.encode"),
        "core.encode.ms": ms("core.encode"),
        "core.mbqi.rounds": stat("steps.mbqi.round"),
        "core.witness.ms": ms("core.witness"),
        "solver.check.self_ms": ms("solver.check", "self_ms"),
        "solver.cache.normal_form.hit_ratio": _ratio(
            pipeline.get("normal_form_hits", 0), pipeline.get("normal_form_misses", 0)
        ),
        "solver.cache.component.hit_ratio": _ratio(
            pipeline.get("component_hits", 0), pipeline.get("component_misses", 0)
        ),
        "solver.lia_parts.reuse_ratio": _ratio(
            pipeline.get("lia_parts_reused", 0), pipeline.get("lia_parts_asserted", 0)
        ),
        "semantics.verify.ms": ms("semantics.verify"),
        "automata.ms": ms("automata"),
        "automata.interning.hit_ratio": _ratio(
            stat("automata_interning_hits"), stat("automata_interning_misses")
        ),
        "automata.dense_compilations": stat("automata_dense_compilations"),
        "budget.steps": stat("budget_steps"),
        "smtlib.parse.ms": ms("smtlib.parse"),
    }


def coverage_metrics(tracer: Tracer) -> Dict[str, float]:
    shares: List[float] = tracer.coverage(ROOT_SPAN, DARK_SPANS)
    if not shares:
        return {"trace.leaf_coverage.p50": 0.0, "trace.leaf_coverage.min": 0.0}
    return {
        "trace.leaf_coverage.p50": statistics.median(shares),
        "trace.leaf_coverage.min": min(shares),
    }


def repeatable_counts(first: Dict[str, Any], second: Dict[str, Any]) -> List[str]:
    """Names of the work counts that read exactly the same in both passes."""
    return [name for name in COUNT_METRICS if first.get(name) == second.get(name)]
