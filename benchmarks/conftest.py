"""Shared fixtures for the benchmark harness.

The evaluation campaign (all solvers on all benchmark sets) is executed once
per session; the per-table/figure benchmarks render their artefacts from it.
Artefacts go to a per-session temporary directory, so a test run leaves the
tree clean; ``pytest benchmarks --update-results`` regenerates the committed
copies in ``benchmarks/results/`` instead.
"""

import os
import sys

import pytest

_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: per-instance timeout (seconds) of the scaled-down evaluation; the paper
#: used 120 s on ~150 000 instances.
TIMEOUT = 25.0


@pytest.fixture(scope="session")
def results_dir(request, tmp_path_factory) -> str:
    """Where this session writes its artefacts (see the module docstring)."""
    if request.config.getoption("--update-results"):
        os.makedirs(RESULTS_DIR, exist_ok=True)
        return RESULTS_DIR
    return str(tmp_path_factory.mktemp("results"))


@pytest.fixture(scope="session")
def campaign(results_dir):
    """Run the full (scaled-down) evaluation campaign once per session."""
    from repro.benchgen import position_hard, run_campaign, symbolic_execution
    from repro.benchgen.suite import solver_factories

    sets = {
        "biopython-like": list(symbolic_execution.biopython_like(6, seed=7)),
        "django-like": list(symbolic_execution.django_like(6, seed=8)),
        "thefuck-like": list(symbolic_execution.thefuck_like(5, seed=9)),
        "position-hard": (
            list(position_hard.commuting_disequalities(4, seed=11))
            + list(position_hard.primitive_not_contains(2, seed=13))
        ),
    }
    result = run_campaign(sets, solver_factories(timeout=TIMEOUT), timeout=TIMEOUT)
    write_artifact(results_dir, "records.csv", result.to_csv())
    return result


def write_artifact(directory: str, name: str, content: str) -> str:
    path = os.path.join(directory, name)
    with open(path, "w") as handle:
        handle.write(content)
    return path
