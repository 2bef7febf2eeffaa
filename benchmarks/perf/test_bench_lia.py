"""Pytest wrapper for the LIA perf benchmark harness.

Selected with ``pytest -m bench`` (optionally ``--quick``); in a regular
test run the module skips itself so the tier-1 suite stays fast.  In quick
mode the measured times (each the median of ``GATED_RUNS`` runs, as in the
committed record) are gated against the committed ``BENCH_lia.json``:
the job fails when the quick workload regresses by more than 25 % — and,
independently of timing, whenever any workload (the automata core, the
commuting-disequality cuts instances, the distinct family or the e2e
suite) produces a wrong verdict or a distinct instance times out, the
session chain diverges from (or fails to beat) the repeated one-shot
path, or the dense automata core drops below its in-process speedup
floor over the legacy implementations.
"""

import json
import os
import shutil

import pytest

from bench_lia import AUTOMATA_SPEEDUP_FLOOR, DEFAULT_OUTPUT_PATH, run

#: tolerated slowdown against the committed baseline before the gate fails
REGRESSION_FACTOR = 1.25


@pytest.fixture(scope="module")
def bench_selected(request):
    markexpr = request.config.getoption("-m") or ""
    if "bench" not in markexpr:
        pytest.skip("benchmark harness runs only with -m bench")
    return request.config.getoption("--quick")


@pytest.mark.bench
def test_bench_lia(bench_selected, tmp_path_factory):
    quick = bench_selected
    # Always measure into a scratch file: the committed BENCH_lia.json is
    # only replaced after a full run passes its assertions, so a regressed
    # run cannot clobber the baseline the CI gate compares against.
    output = str(tmp_path_factory.mktemp("bench") / "BENCH_lia.json")
    report = run(quick=quick, output=output)

    # Automata workload: the dense core must agree with the legacy
    # set-based oracles on every verdict and beat them by the committed
    # floor — an in-process ratio, so it gates in quick mode too.
    automata = report["automata"]
    assert automata["wrong_verdicts"] == 0, automata["verdicts"]
    assert automata["speedup_dense_vs_legacy"] >= AUTOMATA_SPEEDUP_FLOOR, (
        f"dense automata core below the {AUTOMATA_SPEEDUP_FLOOR}x floor: "
        f"{automata['speedup_dense_vs_legacy']}x "
        f"(dense {automata['dense_seconds']}s, legacy {automata['legacy_seconds']}s)"
    )

    mbqi = report["mbqi"]["instances"]
    assert mbqi, "no MBQI instances ran"
    for name, entry in mbqi.items():
        assert entry["status"] == "sat", f"{name} no longer solves: {entry['status']}"
        assert entry["lia_queries"] >= 5, f"{name} stopped exercising the MBQI loop"

    # Session workload: the incremental chain must agree with the one-shot
    # path step by step and actually be faster (the acceptance bar of the
    # session API redesign).
    session = report["session"]
    assert session["verdict_mismatches"] == 0, session
    assert session["steps"] >= (6 if quick else 10), session
    assert session["speedup_session_vs_oneshot"] >= 1.5, (
        f"session chain no faster than repeated one-shot checks: {session}"
    )

    # Verdict gate (applies in quick mode too): any wrong verdict anywhere —
    # the cuts workload, the distinct family or the e2e suite — fails the
    # job outright.
    cuts = report["cuts"]
    assert cuts["wrong_verdicts"] == 0, cuts["instances"]
    for name, entry in cuts["instances"].items():
        assert entry["status"] == entry["expected"] == "unsat", (
            f"{name} must be refuted by the cutting-plane core: {entry}"
        )
        # Refuted by cuts, not by a lucky search around branch-and-bound
        # give-ups (the failure mode without the cycle-support literals).
        assert entry["stats"]["bb_give_ups"] == 0, (name, entry)
    distinct = report["distinct"]
    assert distinct["wrong_verdicts"] == 0, distinct["instances"]
    # The headline of the distinct fix: no instance may time out — the
    # witness path answers (distinct x y z) in milliseconds where the
    # A^III encoding used to run out the clock.
    assert distinct["timeouts"] == 0, distinct["instances"]
    for name, entry in distinct["instances"].items():
        assert entry["status"] == entry["expected"], (name, entry)
        if entry["status"] == "sat":
            assert entry["model_verified"] is True, (name, entry)
    e2e = report["e2e"]
    assert e2e["wrong_verdicts"] == 0, e2e["verdict_changes"]
    # Pipelines workload: every curated pipe instance must be *decided*
    # (the corpus gate depends on it), agree with its concrete-execution
    # ground truth, and back every sat with a semantics-verified model.
    pipelines = report["pipelines"]
    assert pipelines["wrong_verdicts"] == 0, pipelines["instances"]
    assert pipelines["undecided"] == 0, pipelines["instances"]
    assert pipelines["models_unverified"] == 0, pipelines["instances"]

    if not quick:
        # Full run: check the headline speedups the incremental rework
        # claims, then promote the measurement to the committed perf record.
        chain6 = mbqi["nc-chain-6"]
        assert chain6["speedup_vs_seed"] >= 3.0, chain6
        assert e2e["speedup_vs_seed"] >= 1.5, {
            "total": e2e["total_seconds"],
            "seed": e2e["seed_total_seconds"],
        }
        shutil.copyfile(output, DEFAULT_OUTPUT_PATH)
        return

    # Quick run: regression gate against the committed BENCH_lia.json.
    if not os.path.exists(DEFAULT_OUTPUT_PATH):
        pytest.skip("no committed BENCH_lia.json to gate against")
    with open(DEFAULT_OUTPUT_PATH) as fh:
        committed = json.load(fh)

    chain4_now = report["mbqi"]["instances"]["nc-chain-4"]["incremental_seconds"]
    chain4_ref = committed["mbqi"]["instances"]["nc-chain-4"]["incremental_seconds"]
    assert chain4_now <= chain4_ref * REGRESSION_FACTOR, (
        f"MBQI quick bench regressed: {chain4_now:.2f}s vs committed "
        f"{chain4_ref:.2f}s (tolerance {REGRESSION_FACTOR}x)"
    )

    ref_instances = committed["e2e"]["instances"]
    now_total = ref_total = 0.0
    for key, entry in report["e2e"]["instances"].items():
        reference = ref_instances.get(key)
        if reference is None:
            continue
        now_total += entry["seconds"]
        ref_total += reference["seconds"]
    assert ref_total > 0, "quick e2e subset missing from committed BENCH_lia.json"
    assert now_total <= ref_total * REGRESSION_FACTOR, (
        f"e2e quick bench regressed: {now_total:.1f}s vs committed "
        f"{ref_total:.1f}s (tolerance {REGRESSION_FACTOR}x)"
    )
