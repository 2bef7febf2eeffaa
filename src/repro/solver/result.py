"""Result types shared by all solver frontends.

A :class:`SolveResult` reports a verdict, not its explanation: unsat cores
come from :meth:`repro.Session.unsat_core`, which re-checks subsets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterator, Optional, Union

from ..budget import UnknownReason


class Status(Enum):
    """Verdict of a satisfiability check."""

    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"
    TIMEOUT = "timeout"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass
class StringModel:
    """A model: words for string variables, integers for integer variables.

    The mapping interface spans *both* sorts: ``model["x"]`` returns the
    word of a string variable or the value of an integer variable (string
    variables win on a name clash), ``in`` / iteration / ``get`` behave
    accordingly, and :meth:`to_smtlib` renders the model the way the
    ``get-model`` command of the SMT-LIB frontend prints it.
    """

    strings: Dict[str, str] = field(default_factory=dict)
    integers: Dict[str, int] = field(default_factory=dict)

    def __getitem__(self, name: str) -> Union[str, int]:
        if name in self.strings:
            return self.strings[name]
        return self.integers[name]

    def __contains__(self, name: object) -> bool:
        return name in self.strings or name in self.integers

    def __iter__(self) -> Iterator[str]:
        seen = dict.fromkeys(self.strings)
        for name in self.integers:
            seen.setdefault(name, None)
        return iter(seen)

    def __len__(self) -> int:
        return len(set(self.strings) | set(self.integers))

    def get(self, name: str, default=None):
        if name in self.strings:
            return self.strings[name]
        return self.integers.get(name, default)

    def to_smtlib(self) -> str:
        """Render the model as an SMT-LIB ``get-model`` response."""
        # One source of truth for literal rendering: the frontend printer.
        # (Imported lazily — repro.smtlib is a sibling package that loads
        # after this module.)
        from ..smtlib.printer import _int_literal, _string_literal

        lines = ["("]
        for name in sorted(self.strings):
            literal = _string_literal(self.strings[name])
            lines.append(f"  (define-fun {name} () String {literal})")
        for name in sorted(self.integers):
            lines.append(f"  (define-fun {name} () Int {_int_literal(self.integers[name])})")
        lines.append(")")
        return "\n".join(lines)


@dataclass
class SolveResult:
    """Status plus optional model, timing and diagnostic information."""

    status: Status
    model: Optional[StringModel] = None
    elapsed: float = 0.0
    #: why the verdict is not sat/unsat: a typed :class:`UnknownReason` on
    #: every unknown/timeout result (``None`` on sat/unsat)
    reason: Optional[UnknownReason] = None
    #: number of decomposition branches explored
    branches_explored: int = 0
    #: number of LIA queries issued
    lia_queries: int = 0
    #: aggregated SAT/simplex counters (decisions, propagations, conflicts,
    #: theory_checks, learned_clauses, restarts, pivots, cache_hits, ...);
    #: ``cache_hits`` counts the CNF encoder's structural cache hits only
    stats: Dict[str, int] = field(default_factory=dict)

    @property
    def is_sat(self) -> bool:
        return self.status is Status.SAT

    @property
    def is_unsat(self) -> bool:
        return self.status is Status.UNSAT

    @property
    def solved(self) -> bool:
        return self.status in (Status.SAT, Status.UNSAT)
