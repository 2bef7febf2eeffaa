"""Parikh formulae of tag automata (§4, eq. (1)–(2), Appendix A).

Given a tag automaton ``T``, :class:`ParikhEncoding` builds the LIA formula
``PF(T)`` whose models are exactly the Parikh images of accepting runs, and
the *Parikh tag formula* ``PF_tag(T)`` which additionally exposes one counter
per tag (the ``#⟨tag⟩`` variables used by the constraint encodings).

The construction follows Appendix A:

* per state ``q``: variables ``γI_q`` and ``γF_q`` marking the first/last
  state of the run and ``σ_q`` giving its depth in a spanning tree of the
  used transitions (connectivity),
* per transition ``t``: a counter ``#t``,
* Kirchhoff flow-conservation constraints, and
* spanning-tree constraints ruling out disconnected cycles.

Every encoding instance has a ``prefix`` so that several Parikh formulae over
the same automaton can coexist in one LIA formula (needed for the two runs
``#1`` / ``#2`` of the ¬contains reduction, §6.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..budget import checkpoint
from ..lia import Formula, LinExpr, conj, disj, eq, ge, iff, implies, le, var
from .tag_automaton import TagAutomaton, TagTransition
from .tags import Tag


@dataclass
class ParikhEncoding:
    """The Parikh (tag) formula of a tag automaton plus its variable map."""

    automaton: TagAutomaton
    prefix: str = ""

    #: formula PF_tag(T); populated by :func:`encode`
    formula: Formula = None
    #: LIA variable name of each transition counter (parallel to automaton.transitions)
    transition_vars: List[str] = field(default_factory=list)
    #: LIA variable name of each tag counter
    tag_vars: Dict[Tag, str] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Variable names
    # ------------------------------------------------------------------
    def transition_var(self, index: int) -> str:
        return f"{self.prefix}#t{index}"

    def gamma_initial(self, state: int) -> str:
        return f"{self.prefix}@gi{state}"

    def gamma_final(self, state: int) -> str:
        return f"{self.prefix}@gf{state}"

    def sigma(self, state: int) -> str:
        return f"{self.prefix}@sp{state}"

    def tag_var(self, tag: Tag) -> str:
        return tag.var_name(self.prefix)

    def tag_count(self, tag: Tag) -> LinExpr:
        """Return the LIA expression counting occurrences of ``tag``.

        Tags that never occur on any transition count as the constant 0, so
        formulae may freely reference tags that a particular automaton does
        not use.
        """
        name = self.tag_vars.get(tag)
        if name is None:
            return LinExpr.constant(0)
        return LinExpr.var(name)


def encode(automaton: TagAutomaton, prefix: str = "") -> ParikhEncoding:
    """Build ``PF_tag(automaton)`` and return the resulting encoding object."""
    enc = ParikhEncoding(automaton=automaton, prefix=prefix)
    transitions = automaton.transitions
    enc.transition_vars = [enc.transition_var(i) for i in range(len(transitions))]

    parts: List[Formula] = []

    # (34) φ_Init: exactly one first state, and only initial states qualify.
    initial_terms: List[LinExpr] = []
    for state in sorted(automaton.states):
        gi = var(enc.gamma_initial(state))
        if state in automaton.initial:
            parts.append(ge(gi, 0))
            parts.append(le(gi, 1))
            initial_terms.append(gi)
        else:
            parts.append(eq(gi, 0))
    if initial_terms:
        parts.append(eq(LinExpr.sum_of(initial_terms), 1))
    else:
        # No initial state at all: the automaton has no accepting run.
        parts.append(eq(LinExpr.constant(0), 1))

    # (35) φ_Fin: only final states may be last.
    for state in sorted(automaton.states):
        gf = var(enc.gamma_final(state))
        if state in automaton.final:
            parts.append(ge(gf, 0))
            parts.append(le(gf, 1))
        else:
            parts.append(eq(gf, 0))

    # Transition counters are non-negative.
    incoming: Dict[int, List[int]] = {state: [] for state in automaton.states}
    outgoing: Dict[int, List[int]] = {state: [] for state in automaton.states}
    for index, transition in enumerate(transitions):
        parts.append(ge(var(enc.transition_vars[index]), 0))
        incoming[transition.dst].append(index)
        outgoing[transition.src].append(index)

    # (36) φ_Kirch: flow conservation at every state.
    for state in sorted(automaton.states):
        inflow = LinExpr.sum_of([var(enc.gamma_initial(state))] + [var(enc.transition_vars[i]) for i in incoming[state]])
        outflow = LinExpr.sum_of([var(enc.gamma_final(state))] + [var(enc.transition_vars[i]) for i in outgoing[state]])
        parts.append(eq(inflow, outflow))

    # (37)–(39) φ_Span: connectivity via spanning-tree depths.
    for state in sorted(automaton.states):
        # One budget step per state: the spanning-tree constraints dominate
        # the encoding (one disjunction over the incoming transitions each).
        checkpoint("parikh.encode")
        sigma = var(enc.sigma(state))
        gi = var(enc.gamma_initial(state))
        parts.append(iff(eq(sigma, 0), eq(gi, 1)))
        unused = conj(
            [eq(gi, 0)] + [eq(var(enc.transition_vars[i]), 0) for i in incoming[state]]
        )
        parts.append(implies(le(sigma, -1), unused))
        predecessors = []
        for i in incoming[state]:
            source = transitions[i].src
            predecessors.append(
                conj(
                    [
                        ge(var(enc.transition_vars[i]), 1),
                        ge(var(enc.sigma(source)), 0),
                        eq(sigma, var(enc.sigma(source)) + 1),
                    ]
                )
            )
        parts.append(implies(ge(sigma, 1), disj(predecessors)))

    # (2) tag counters: #tag = Σ { #t | tag ∈ tags(t) }.
    tag_to_transitions: Dict[Tag, List[int]] = {}
    for index, transition in enumerate(transitions):
        for tag in transition.tags:
            tag_to_transitions.setdefault(tag, []).append(index)
    for tag, indices in sorted(tag_to_transitions.items(), key=lambda item: repr(item[0])):
        name = enc.tag_var(tag)
        enc.tag_vars[tag] = name
        total = LinExpr.sum_of(var(enc.transition_vars[i]) for i in indices)
        parts.append(eq(var(name), total))

    enc.formula = conj(parts)
    return enc


def run_from_model(enc: ParikhEncoding, model) -> Optional[List[TagTransition]]:
    """Reconstruct an accepting run from a model of ``PF_tag`` (Euler path).

    The Kirchhoff and spanning constraints guarantee that the multiset of
    used transitions forms a connected multigraph with an Eulerian path from
    the unique first state to the unique last state; Hierholzer's algorithm
    recovers one such path.  Returns ``None`` when the model does not encode
    a run (should not happen for models produced by the LIA solver).
    """
    counts: Dict[int, int] = {}
    for index, name in enumerate(enc.transition_vars):
        value = model.get(name, 0)
        if value < 0:
            return None
        if value:
            counts[index] = value

    start = None
    for state in enc.automaton.states:
        if model.get(enc.gamma_initial(state), 0) == 1:
            start = state
            break
    if start is None:
        return None

    remaining = dict(counts)
    outgoing: Dict[int, List[int]] = {}
    for index in counts:
        outgoing.setdefault(enc.automaton.transitions[index].src, []).append(index)

    # Hierholzer's algorithm for an Eulerian path in a directed multigraph.
    stack: List[Tuple[int, Optional[int]]] = [(start, None)]
    path_transitions: List[int] = []
    while stack:
        state, _ = stack[-1]
        candidates = outgoing.get(state, [])
        chosen = None
        for index in candidates:
            if remaining.get(index, 0) > 0:
                chosen = index
                break
        if chosen is None:
            _, via = stack.pop()
            if via is not None:
                path_transitions.append(via)
        else:
            remaining[chosen] -= 1
            stack.append((enc.automaton.transitions[chosen].dst, chosen))
    if any(count > 0 for count in remaining.values()):
        return None
    path_transitions.reverse()
    return [enc.automaton.transitions[i] for i in path_transitions]
