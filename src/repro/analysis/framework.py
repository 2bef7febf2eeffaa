"""Rule framework: findings, the registry, suppression accounting.

A :class:`Rule` inspects one :class:`~repro.analysis.loader.ModuleInfo` at
a time (with the whole-program :class:`~repro.analysis.callgraph.CallGraph`
available through the :class:`Context`) and yields :class:`Finding`s.
The runner applies the in-source suppressions afterwards, so rules stay
pure detectors — they never need to know about ``# repro: allow``.

Rules self-register via :func:`register`, which keeps the CLI, the
reporters and the test fixtures all working from one list.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from .loader import ModuleInfo


class AnalysisError(Exception):
    """A usage or configuration error (unknown rule, unreadable path)."""


@dataclass
class Finding:
    """One rule violation at one source location."""

    rule: str
    relpath: str
    line: int
    message: str
    #: set by the runner when an in-source allow-comment covers the finding
    suppressed: bool = False
    suppression_reason: str = ""

    def location(self) -> str:
        return f"{self.relpath}:{self.line}"

    def to_json(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "rule": self.rule,
            "path": self.relpath,
            "line": self.line,
            "message": self.message,
        }
        if self.suppressed:
            data["suppressed"] = True
            data["reason"] = self.suppression_reason
        return data


class Rule:
    """Base class for one checkable invariant.

    Subclasses set ``name``/``description`` and implement :meth:`check`;
    :meth:`applies_to` is the scope predicate (default: engine sources
    only, not tests).  Rules must be deterministic and side-effect free —
    the analyzer runs them in registration order over modules in path
    order, so output is stable across runs and machines.
    """

    name: str = ""
    description: str = ""

    def applies_to(self, module: ModuleInfo) -> bool:
        return not module.is_test

    def check(self, module: ModuleInfo, context: "Context") -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, module: ModuleInfo, line: int, message: str) -> Finding:
        return Finding(rule=self.name, relpath=module.relpath, line=line, message=message)


class Context:
    """Whole-program facts shared by every rule invocation."""

    def __init__(self, modules: Sequence[ModuleInfo]) -> None:
        from .callgraph import CallGraph

        self.modules = list(modules)
        # Test helpers must not lend their names to engine calls: a test's
        # local ``add`` reaching a checkpoint would cover every ``set.add``.
        self.callgraph = CallGraph([module for module in self.modules if not module.is_test])


_REGISTRY: List[Rule] = []


def register(cls):
    """Class decorator adding one rule instance to the global registry."""
    if not cls.name:
        raise ValueError(f"rule {cls.__name__} must set a name")
    if any(rule.name == cls.name for rule in _REGISTRY):
        raise ValueError(f"duplicate rule name {cls.name!r}")
    _REGISTRY.append(cls())
    return cls


def all_rules() -> List[Rule]:
    """Every registered rule, in registration order (import triggers it)."""
    from . import rules as _rules  # noqa: F401  (import populates the registry)

    return list(_REGISTRY)


def rule_names() -> List[str]:
    return [rule.name for rule in all_rules()]


def select_rules(names: Optional[Iterable[str]]) -> List[Rule]:
    """Resolve ``--rule`` selections (exact names or fnmatch patterns)."""
    rules = all_rules()
    if not names:
        return rules
    selected: List[Rule] = []
    for pattern in names:
        matched = [rule for rule in rules if fnmatch.fnmatchcase(rule.name, pattern)]
        if not matched:
            known = ", ".join(rule.name for rule in rules)
            raise AnalysisError(f"unknown rule {pattern!r} (known: {known})")
        for rule in matched:
            if rule not in selected:
                selected.append(rule)
    return selected


@dataclass
class Report:
    """The outcome of one analysis run."""

    findings: List[Finding] = field(default_factory=list)
    files_scanned: int = 0
    rules_run: List[str] = field(default_factory=list)
    #: wall seconds for the full run, recorded so the CI lint job can
    #: assert the analyzer stays cheap enough to never be skipped
    runtime_seconds: float = 0.0

    @property
    def unsuppressed(self) -> List[Finding]:
        return [finding for finding in self.findings if not finding.suppressed]

    @property
    def suppressed(self) -> List[Finding]:
        return [finding for finding in self.findings if finding.suppressed]

    @property
    def ok(self) -> bool:
        return not self.unsuppressed

    def by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.unsuppressed:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return counts

    def to_json(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "files_scanned": self.files_scanned,
            "rules": self.rules_run,
            "runtime_seconds": round(self.runtime_seconds, 4),
            "violations": len(self.unsuppressed),
            "suppressed": len(self.suppressed),
            "by_rule": self.by_rule(),
            "findings": [finding.to_json() for finding in self.findings],
        }
