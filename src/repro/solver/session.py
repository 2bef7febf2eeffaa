"""The incremental session API (`repro.Session`).

A :class:`Session` is the solver-side of an SMT-LIB-style interaction: a
stack of named assertions manipulated with :meth:`~Session.add`,
:meth:`~Session.push` and :meth:`~Session.pop`, decided by
:meth:`~Session.check` (optionally under extra *assumptions*), with
:meth:`~Session.model`, :meth:`~Session.statistics` and
:meth:`~Session.unsat_core` reporting on the last verdict.

Every session owns one :class:`~repro.solver.solver.IncrementalPipeline`,
so chains of related checks reuse normalisation, decomposition, the
tag-automaton encodings and the per-branch LIA assertion stacks across
calls — the access pattern of symbolic-execution clients, where each path
extends the previous one by a constraint or two.  Assertions may use the
extended extraction atoms (:class:`~repro.strings.ast.SubstrAtom`,
:class:`~repro.strings.ast.IndexOfAtom`,
:class:`~repro.strings.ast.ReplaceAtom`); the pipeline compiles them away
per check and maps cores back.  A session is *not* thread-safe; give each
worker its own.

Unsat cores
-----------

``check`` seeds a core from the refutation participants the pipeline
threads up from the LIA layer (``SolveResult.core_atoms``): integer atoms
are *exact* — each travels as a labelled assumption literal and an UNSAT
answer's final-conflict analysis names precisely the ones it needed — while
string atoms map through the conflict-variable provenance.
:meth:`~Session.unsat_core` verifies that the candidate set really is
unsatisfiable on its own (one re-check, falling back to the full assertion
set when the over-approximation turns out incomplete) and reports it in
assertion order — every reported core is a set of assertions that was
*checked* to be jointly unsatisfiable, and bystander assertions never
appear in it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..budget import Budget
from ..strings.ast import Atom, Problem
from .config import SolverConfig
from .result import SolveResult, Status, StringModel
from .solver import IncrementalPipeline

#: assumptions accepted by :meth:`Session.check`: bare atoms or named pairs
Assumption = Union[Atom, Tuple[str, Atom]]


class Session:
    """An incremental solving session over a stack of named assertions."""

    def __init__(
        self,
        config: Optional[SolverConfig] = None,
        alphabet: Sequence[str] = ("a", "b"),
        name: str = "",
        normalization_cache=None,
    ) -> None:
        self.config = config or SolverConfig()
        self.alphabet: Tuple[str, ...] = tuple(alphabet)
        self.name = name
        self._pipeline = IncrementalPipeline(
            self.config, normalization_cache=normalization_cache
        )
        #: assertion stack: one list of (name, atom) pairs per level
        self._frames: List[List[Tuple[str, Atom]]] = [[]]
        #: names of the active assertions (kept in sync with the frames so
        #: that ``add`` stays O(1) — scripts assert thousands of atoms)
        self._active_names: set = set()
        self._auto = 0
        self._cumulative: Dict[str, int] = {}
        self._last: Optional[SolveResult] = None
        #: the exact (name, atom) list the last check decided
        self._last_atoms: List[Tuple[str, Atom]] = []
        self._last_core: Optional[Tuple[str, ...]] = None

    # ------------------------------------------------------------------
    # Assertion stack
    # ------------------------------------------------------------------
    def add(self, atom: Atom, name: Optional[str] = None) -> str:
        """Assert ``atom`` at the current level; returns its (unique) name."""
        if name is None:
            while True:
                name = f"a{self._auto}"
                self._auto += 1
                if name not in self._active_names:
                    break
        elif name in self._active_names:
            raise ValueError(f"assertion name {name!r} is already in use")
        self._active_names.add(name)
        self._frames[-1].append((name, atom))
        return name

    def push(self) -> None:
        """Open a new assertion-stack level."""
        self._frames.append([])

    def pop(self, levels: int = 1) -> None:
        """Drop the most recent ``levels`` assertion-stack levels."""
        if levels < 0:
            raise ValueError("cannot pop a negative number of levels")
        if levels >= len(self._frames):
            raise IndexError("pop past the base assertion level")
        # repro: allow(checkpoint-coverage): pops only already-asserted frames — bounded by the assertion stack, no solving happens here
        for _ in range(levels):
            for name, _atom in self._frames.pop():
                self._active_names.discard(name)

    def assertions(self) -> Tuple[Tuple[str, Atom], ...]:
        """The active assertions, bottom of the stack first."""
        return tuple(pair for frame in self._frames for pair in frame)

    def __len__(self) -> int:
        return sum(len(frame) for frame in self._frames)

    @property
    def depth(self) -> int:
        """Number of pushed levels (0 at the base)."""
        return len(self._frames) - 1

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def _named_assumptions(self, assumptions: Iterable[Assumption]) -> List[Tuple[str, Atom]]:
        named: List[Tuple[str, Atom]] = []
        taken = set(self._active_names)
        counter = 0
        for entry in assumptions:
            if isinstance(entry, tuple) and len(entry) == 2 and isinstance(entry[0], str):
                name, atom = entry
                if name in taken:
                    raise ValueError(f"assumption name {name!r} shadows an assertion")
            else:
                atom = entry
                while True:
                    name = f"assume{counter}"
                    counter += 1
                    if name not in taken:
                        break
            taken.add(name)
            named.append((name, atom))
        return named

    def _problem_for(self, entries: Sequence[Tuple[str, Atom]]) -> Problem:
        return Problem(
            atoms=[atom for _, atom in entries], alphabet=self.alphabet, name=self.name
        )

    def check(
        self,
        assumptions: Iterable[Assumption] = (),
        *,
        timeout: Optional[float] = None,
        budget: Optional[Budget] = None,
    ) -> SolveResult:
        """Decide the conjunction of the active assertions (+ assumptions).

        Assumptions are one-check assertions: they participate in the
        verdict, the model and the unsat core of *this* call only.

        ``timeout`` overrides ``config.timeout`` for this call; ``budget``
        passes a caller-built :class:`~repro.budget.Budget` instead (for
        shared deadlines, step limits or fault-injection hooks) and wins
        over ``timeout``.  A check that runs out of budget answers
        ``timeout``/``unknown`` with a structured
        :class:`~repro.budget.UnknownReason`; the session itself stays
        usable — caches are transactional, so a later check (e.g. with a
        larger budget) picks up exactly where a fresh solver would.
        """
        if budget is None and timeout is not None:
            budget = Budget(timeout, max_steps=self.config.max_steps)
        entries = list(self.assertions()) + self._named_assumptions(assumptions)
        result = self._pipeline.check(self._problem_for(entries), budget=budget)
        for key, value in result.stats.items():
            self._cumulative[key] = self._cumulative.get(key, 0) + value
        self._last = result
        self._last_atoms = entries
        self._last_core = None
        return result

    def model(self) -> Optional[StringModel]:
        """The model of the last ``sat`` verdict (``None`` otherwise)."""
        if self._last is None:
            return None
        return self._last.model

    def statistics(self) -> Dict[str, int]:
        """Cumulative counters: pipeline cache reuse plus LIA solve stats.

        The automata-layer entries (``automata_cache_*``, the dense
        compilation and interning counters) accumulate from the per-check
        deltas each :class:`~repro.solver.result.SolveResult` reports in
        ``stats`` — the same numbers, summed over this session's checks.
        """
        stats = dict(self._pipeline.counters)
        for key, value in self._cumulative.items():
            stats[key] = stats.get(key, 0) + value
        return stats

    # ------------------------------------------------------------------
    # Unsat cores
    # ------------------------------------------------------------------
    def unsat_core(self) -> Tuple[str, ...]:
        """Names of assertions that are jointly unsatisfiable.

        Requires the last :meth:`check` to have answered ``unsat``.  The
        candidate set is seeded from the pipeline's refutation provenance —
        integer atoms exactly, via the LIA layer's assumption literals and
        final-conflict analysis; string atoms through the conflict-variable
        mapping — and verified by one re-check when it is a proper subset.
        Core atoms are reported **in assertion order** (deterministic across
        runs).  The result is cached until the next ``check``.
        """
        if self._last is None or self._last.status is not Status.UNSAT:
            raise RuntimeError("unsat_core requires the last check to be unsat")
        if self._last_core is not None:
            return self._last_core

        entries = self._last_atoms
        everything = list(range(len(entries)))
        if self._last.core_atoms is None:
            kept = everything
        else:
            # Candidates from tight to wide; the first whose verification
            # re-check stays unsat wins, the full (already-verified)
            # assertion set is the last resort.  Assertion-index order,
            # never set-iteration order: cores must be stable across runs
            # and hash seeds.
            candidates = [sorted(self._last.core_atoms)]
            if self._last.core_atoms_widened is not None:
                candidates.append(sorted(self._last.core_atoms_widened))
            kept = everything
            for candidate in candidates:
                if candidate == everything:
                    break
                verdict = self._pipeline.check(
                    self._problem_for([entries[i] for i in candidate])
                )
                if verdict.status is Status.UNSAT:
                    kept = candidate
                    break

        self._last_core = tuple(entries[i][0] for i in kept)
        return self._last_core
