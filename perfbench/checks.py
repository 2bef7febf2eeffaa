"""Verdict checking: every answer is judged before it counts as done.

An answer is ``ok`` only when it is decided and verified:

* ``sat`` needs a model that :func:`repro.strings.semantics.eval_problem`
  accepts and no ground truth saying ``unsat``;
* ``unsat`` needs ground truth saying ``unsat``, or a brute-force proof
  (:func:`repro.solver.bruteforce.brute_force_check` over finite
  languages); otherwise it is ``unconfirmed``.

Every other answer is a failure of one kind (see :data:`OUTCOMES`); only
``wrong`` contradicts ground truth (or a brute-force model).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from repro.automata.enumeration import is_finite
from repro.budget import UnknownKind, UnknownReason
from repro.solver.bruteforce import brute_force_check
from repro.strings.ast import EXTENDED_ATOMS, Problem
from repro.strings.normal_form import normalize
from repro.strings.semantics import eval_problem

OUTCOMES = ("ok", "wrong", "unverified_model", "unconfirmed", "undecided",
            "untyped_unknown", "crash")

#: the brute-force oracle is tried up to this word length, for this long
BRUTE_MAX_LENGTH = 8
BRUTE_TIMEOUT = 10.0

_KINDS = {kind.value for kind in UnknownKind}


def typed_reason(reason) -> bool:
    """An :class:`UnknownReason`, or its ``kind@stage`` rendering."""
    if isinstance(reason, UnknownReason):
        return True
    text = str(reason)
    return text.split("@", 1)[0].split(" ", 1)[0] in _KINDS


def _components(problem: Problem) -> List[Problem]:
    """Split the atoms into groups that share no string variable."""
    groups: List[Tuple[set, list]] = []
    for atom in problem.atoms:
        names = set(Problem(atoms=[atom], alphabet=problem.alphabet).string_variables())
        merged = [g for g in groups if g[0] & names]
        for group in merged:
            groups.remove(group)
            names |= group[0]
        atoms = [a for g in merged for a in g[1]] + [atom]
        groups.append((names, atoms))
    return [Problem(atoms=atoms, alphabet=problem.alphabet, name=problem.name)
            for _, atoms in groups]


def brute_force_unsat(problem: Problem) -> Optional[bool]:
    """``True`` if the oracle proves unsat, ``False`` if it finds a model,
    ``None`` when the languages are not finite within the oracle's reach.

    The problem is unsat iff one variable-disjoint component is, so each
    component is tried on its own (a much smaller product).
    """
    undecided = False
    for component in _components(problem):
        core = Problem(atoms=[a for a in component.atoms if not isinstance(a, EXTENDED_ATOMS)],
                       alphabet=component.alphabet)
        automata = normalize(core).automata
        names = component.string_variables()
        if any(name not in automata or not is_finite(automata[name]) for name in names):
            undecided = True
            continue
        # A trimmed finite automaton has no word longer than its state count.
        longest = max((len(automata[name].states) for name in names), default=0)
        if longest > BRUTE_MAX_LENGTH:
            undecided = True
            continue
        verdict = brute_force_check(component, max_length=longest, timeout=BRUTE_TIMEOUT)
        if verdict.status.value == "unsat":
            return True
        if verdict.status.value != "sat":
            undecided = True
    return None if undecided else False


class Judge:
    """Classifies answers; caches brute-force proofs across passes."""

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {outcome: 0 for outcome in OUTCOMES}
        self.failures: List[str] = []
        self._proofs: Dict[str, Optional[bool]] = {}

    def judge(self, name: str, problem: Problem, status: str, expected: Optional[str],
              strings: Optional[Mapping[str, str]] = None,
              integers: Optional[Mapping[str, int]] = None,
              reason=None) -> str:
        outcome = self._classify(problem, status, expected, strings, integers, reason, name)
        self.counts[outcome] += 1
        if outcome != "ok" and len(self.failures) < 20:
            self.failures.append(f"{name}: {outcome} ({status}, expected {expected}, {reason})")
        return outcome

    def _classify(self, problem, status, expected, strings, integers, reason, key) -> str:
        if status == "crash":
            return "crash"
        if status in ("sat", "unsat") and expected in ("sat", "unsat") and status != expected:
            return "wrong"
        if status == "sat":
            if strings is None or not eval_problem(problem, strings, integers or {}):
                return "unverified_model"
            return "ok"
        if status == "unsat":
            if expected == "unsat":
                return "ok"
            if key not in self._proofs:
                self._proofs[key] = brute_force_unsat(problem)
            proof = self._proofs[key]
            if proof is False:
                return "wrong"
            return "ok" if proof else "unconfirmed"
        return "undecided" if typed_reason(reason) else "untyped_unknown"

    @property
    def wrong(self) -> int:
        return self.counts["wrong"]

    @property
    def failed(self) -> int:
        return sum(count for outcome, count in self.counts.items() if outcome != "ok")
