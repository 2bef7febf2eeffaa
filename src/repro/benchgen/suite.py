"""The scaled-down benchmark suite and the solver line-up of §8.

The paper evaluates on ~150 000 formulae with a 120 s timeout; this
reproduction defaults to a few dozen instances per set and a 10 s timeout so
the whole evaluation fits in a few minutes of pure-Python solving.  The
*shape* of the results (who solves which set, where the timeouts are) is the
reproduction target, not the absolute numbers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..solver import EagerReductionSolver, EnumerativeSolver, PositionSolver, SolverConfig
from . import pipelines, position_hard, symbolic_execution
from .harness import Instance


def benchmark_sets(scale: int = 1, seed: int = 7) -> Dict[str, List[Instance]]:
    """Build the five benchmark sets, ``scale`` multiplying the instance counts.

    scale=1 gives a quick suite (≈57 instances) suited to CI; the paper-shaped
    run in ``benchmarks/`` uses a larger scale.
    """
    return {
        "biopython-like": list(symbolic_execution.biopython_like(12 * scale, seed=seed)),
        "django-like": list(symbolic_execution.django_like(12 * scale, seed=seed + 1)),
        "thefuck-like": list(symbolic_execution.thefuck_like(9 * scale, seed=seed + 2)),
        "position-hard": list(position_hard.generate(12 * scale, seed=seed + 3)),
        "pipeline": list(pipelines.generate(12 * scale, seed=seed + 4)),
    }


def solver_factories(timeout: float = 10.0) -> Dict[str, object]:
    """The solver line-up: our procedure plus the two baselines.

    ``repro-pos`` plays the role of Z3-Noodler-pos, ``eager-reduction`` the
    role of the original automata pipeline that reduces position constraints
    to word equations, and ``enumerative`` the role of guess-and-check
    solvers that shine on easy satisfiable instances.
    """

    def config() -> SolverConfig:
        return SolverConfig(timeout=timeout)

    return {
        "repro-pos": lambda: PositionSolver(config()),
        "eager-reduction": lambda: EagerReductionSolver(config()),
        "enumerative": lambda: EnumerativeSolver(config()),
    }
