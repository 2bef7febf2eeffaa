"""Portfolio strategies: complementary solver configurations raced per job.

The ingredient is the one switch :class:`repro.SolverConfig` exposes
besides its budgets — the server races the pipeline against itself under
configurations that win on *different* instance shapes, takes the first
**sound** verdict and cancels the rest:

* ``witness`` — the default pipeline: witness/enumeration shortcuts on
  (the n-ary ``distinct`` easy path answers in microseconds where the
  encoding searches).  Fastest on the sat-heavy symbolic-execution
  shapes.
* ``encoding`` — ``distinct_shortcut=False``: always the tag-automaton
  ``A^III`` encoding.  Covers instances where the greedy witness path
  declines and its fallback order loses time, and doubles as a standing
  cross-check of the shortcut (a disagreement between the two is an
  engine bug, which the server detects and refuses to answer).

"First sound verdict wins" is sound because every individual verdict
already is: ``sat`` models are re-verified against the original atoms and
``unsat`` cores re-checked by the engine regardless of configuration, so
the race only changes *which* sound answer arrives first, never whether
the answer is trustworthy.  Racing buys latency, not certainty.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple

from ..solver import SolverConfig

#: name → factory; every factory accepts the per-job budget knobs
STRATEGIES: Dict[str, Callable[..., SolverConfig]] = {
    "witness": lambda **kw: SolverConfig(**kw),
    "encoding": lambda **kw: SolverConfig(distinct_shortcut=False, **kw),
}

#: the default race: both strategies
DEFAULT_PORTFOLIO: Tuple[str, ...] = ("witness", "encoding")


def strategy_names(requested) -> Tuple[str, ...]:
    """Normalise a request's ``portfolio`` field into strategy names.

    ``True``/``None`` → the default portfolio, ``False`` → just
    ``witness``, a list → those names (validated).  Anything else, and
    unknown names, raise ``ValueError`` (the server answers an error
    response).
    """
    if requested is None or requested is True:
        return DEFAULT_PORTFOLIO
    if requested is False:
        return ("witness",)
    if not isinstance(requested, (list, tuple)) or not all(
        isinstance(name, str) for name in requested
    ):
        raise ValueError("portfolio must be a bool, null or a list of strategy names")
    names = tuple(requested)
    if not names:
        return DEFAULT_PORTFOLIO
    for name in names:
        if name not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {name!r} (have: {', '.join(sorted(STRATEGIES))})"
            )
    if len(set(names)) != len(names):
        raise ValueError("duplicate strategy names in portfolio")
    return names


def config_for(
    name: str,
    timeout: Optional[float] = None,
    max_steps: Optional[int] = None,
) -> SolverConfig:
    """Build the :class:`SolverConfig` of strategy ``name`` for one job."""
    return STRATEGIES[name](timeout=timeout, max_steps=max_steps)


def pick_winner(outcomes: Sequence) -> Optional[object]:
    """The best completed outcome when nobody fully decided.

    Preference order: most decided ``check-sat`` answers, then portfolio
    position (deterministic).  Outcomes with protocol errors only win when
    nothing else completed at all; returns ``None`` for an empty field.
    """
    best = None
    best_rank: Tuple[int, int, int] = (-1, -1, 0)
    for position, outcome in enumerate(outcomes):
        if outcome is None:
            continue
        rank = (0 if outcome.error else 1, outcome.decided_count, -position)
        if best is None or rank > best_rank:
            best = outcome
            best_rank = rank
    return best
