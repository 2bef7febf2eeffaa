"""Harness self-test: run from the repository root with
``python3 perfbench/selftest.py``.

At a tiny size (three inputs per workload, one set-up, one check per timed
run) it checks that

* every end-to-end metric of ``BENCHMARK.json`` is printed with its unit by
  every workload with ``--trace 0``, and every per-layer metric with
  ``--trace 1``;
* after a traced run every wrapped entry point is the original again;
* a planted wrong verdict makes the command exit non-zero.

Exits 0 when all hold.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402


def _shrink() -> None:
    import base

    items_for = base.items_for
    base.items_for = lambda workload, seed: items_for(workload, seed)[:3]
    run.SETUP_REPEATS = 1
    run.MIN_CHECKS = 1


def _run(*args: str):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(list(args))
    lines = out.getvalue().strip().splitlines()
    return code, json.loads(lines[-1])


def _originals():
    from layers import PROBES
    from tracer import _resolve

    found = {}
    for probe in PROBES:
        owner, attr = _resolve(probe.target)
        found[probe.target] = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return found


def main() -> int:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    _shrink()
    before = _originals()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result = _run("--workload", workload, "--seed", "3", "--seconds", "0.01",
                                "--trace", str(trace))
            assert code == 0 and result["correct"], (workload, trace, result)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["attempted"] >= 1, result
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: entry["unit"] for name, entry in result["metrics"].items()}
            assert got == wanted, (workload, trace, set(got) ^ set(wanted))
            print(f"selftest: {workload} --trace {trace}: {len(got)} metrics with units")
        after = _originals()
        assert all(after[target] is before[target] for target in before), "probe left installed"
    print("selftest: every wrapped entry point restored after tracing")

    import base

    items_for = base.items_for

    def planted(workload, seed):
        items = items_for(workload, seed)
        next(item for item in items if item.expected == "sat").expected = "unsat"
        return items

    base.items_for = planted
    code, result = _run("--workload", "oneshot", "--seed", "3", "--seconds", "0.01")
    base.items_for = items_for
    assert code != 0 and not result["correct"], ("planted wrong verdict passed", code, result)
    print(f"selftest: planted wrong verdict -> exit {code}")
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
